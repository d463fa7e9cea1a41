#!/usr/bin/env python3
"""Gate simulator changes: simulated drift and host speed.

Usage:
    perfgate.py BASELINE.json NEW.json [--select SUBSTR]
    perfgate.py PARENT_DIR CHANGE_DIR

Two files: bench tables. BASELINE and NEW are bench --json reports
(bench_p1_simspeed, bench_f6_multicomputer). Every table whose title
contains "deterministic" is a pure function of the simulator
(simulated cycles, instruction counts, campaign outcome classes,
signatures) and must match cell for cell; any drift hard-fails and
prints each differing cell. An intentional behaviour change must
re-bless bench/BENCH_PERF.json in the same commit, which makes it
reviewable. The fig5-elide row is also checked on its own: elide-on
cycles <= elide-off cycles, and saved > 0. Tables whose title does not
contain "deterministic" are only checked for being present on both
sides.

Two directories: perfbench A/B. Each directory holds one
<workload>.jsonl per workload in BENCHMARK.json, one perfbench/run.py
result line per run; PARENT_DIR was measured on the parent commit in
the same job, CHANGE_DIR on the change. For each workload and each
end_to_end metric in BENCHMARK.json:

  - the change is worse by the relative distance of the two medians,
    in the metric's "better" direction;
  - FAIL when it is worse by more than the metric's bound and the
    parent's own spread (quartile distance over median) is within
    the bound;
  - UNRESOLVED (printed, never fails) when the parent's spread is
    wider than the bound: such runs cannot tell a regression from
    host noise.

Any run with "correct": false, on either side, fails: its medians
measure a broken simulation. So does a change whose runs fail more
operations in total than the parent's.

Exit status: 0 = gate passed, 1 = drift, a broken fig5-elide row, or a
host-speed regression, 2 = bad input (missing or unreadable file,
invalid JSON, missing table or workload, a malformed result line,
--select with directories).
"""

import argparse
import json
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def die(message):
    print(f"perfgate: {message}", file=sys.stderr)
    sys.exit(2)


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        die(f"cannot read {path}: {e.strerror or e}")
    except json.JSONDecodeError as e:
        die(f"{path} is not valid JSON (line {e.lineno}: {e.msg})")
    if not isinstance(doc, dict) or "tables" not in doc:
        die(f"{path} is not a bench --json report")
    return doc


def tables_by_title(doc):
    return {t.get("title", "?"): t for t in doc.get("tables", [])}


def rows_by_key(table):
    """Index rows by their first column (the arm name)."""
    out = {}
    for row in table.get("rows", []):
        out[row[0] if row else "?"] = row
    return out


def parse_number(cell):
    """First numeric token in a cell, or None ("3.27", "12.5 runs/s")."""
    m = re.match(r"\s*([-+]?\d+(?:\.\d+)?)", cell)
    return float(m.group(1)) if m else None


def gate_deterministic(title, base, new):
    """Hard gate: every cell must match exactly. Returns #violations."""
    header = base.get("header", [])
    base_rows, new_rows = rows_by_key(base), rows_by_key(new)
    bad = 0
    for key in sorted(set(base_rows) | set(new_rows)):
        if key not in base_rows or key not in new_rows:
            print(f"FAIL {title} :: {key} "
                  f"[row {'added' if key not in base_rows else 'removed'}]")
            bad += 1
            continue
        b_row, n_row = base_rows[key], new_rows[key]
        for c in range(max(len(b_row), len(n_row))):
            b = b_row[c] if c < len(b_row) else ""
            n = n_row[c] if c < len(n_row) else ""
            if b != n:
                col = header[c] if c < len(header) else f"col{c}"
                print(f"FAIL {title} :: {key} :: {col} {b} -> {n}")
                bad += 1
    return bad


def check_elide_contract(new_tables):
    """Sanity-gate the fig5-elide row of the new report: elide-on
    cycles must not exceed the elide-off cycles recorded in its extra
    column, and the arm must have elided something (saved > 0).
    Returns #violations; absent row (older reports) checks nothing."""
    bad = 0
    for title, table in new_tables.items():
        if "deterministic" not in title:
            continue
        row = rows_by_key(table).get("fig5-elide")
        if row is None or len(row) < 4:
            continue
        cycles = parse_number(row[1])
        m_off = re.search(r"off=(\d+)", row[3])
        m_saved = re.search(r"saved=(\d+)", row[3])
        if cycles is None or not m_off or not m_saved:
            print(f"FAIL {title} :: fig5-elide :: unparseable row")
            bad += 1
            continue
        if cycles > float(m_off.group(1)):
            print(f"FAIL {title} :: fig5-elide :: elide-on cycles "
                  f"{row[1]} exceed elide-off {m_off.group(1)}")
            bad += 1
        if int(m_saved.group(1)) == 0:
            print(f"FAIL {title} :: fig5-elide :: saved=0 "
                  "(the proof discharged nothing)")
            bad += 1
    return bad


def gate_tables(baseline, new, select):
    base_tables = tables_by_title(load(baseline))
    new_tables = tables_by_title(load(new))
    if select is not None:
        base_tables = {t: v for t, v in base_tables.items()
                       if select in t}
        new_tables = {t: v for t, v in new_tables.items()
                      if select in t}
        if not base_tables and not new_tables:
            die(f"--select {select!r} matches no table in "
                "either report")

    failures = 0
    saw_deterministic = False
    for title in sorted(set(base_tables) | set(new_tables)):
        if title not in base_tables or title not in new_tables:
            print(f"FAIL table {'added' if title not in base_tables else 'removed'}: {title}")
            failures += 1
            continue
        if "deterministic" in title:
            saw_deterministic = True
            failures += gate_deterministic(
                title, base_tables[title], new_tables[title])
    if not saw_deterministic:
        die("no deterministic table found; is this a P1 report?")
    failures += check_elide_contract(new_tables)

    if failures:
        print(f"perfgate: FAILED — {failures} violation(s): "
              "deterministic drift or a broken fig5-elide row. A perf "
              "change must not change simulated behaviour; if the "
              "change is intentional, re-bless bench/BENCH_PERF.json "
              "in the same commit.")
        return 1
    print("perfgate: OK (deterministic signature matches)")
    return 0


def load_runs(path, metrics):
    """The run.py result lines of one <workload>.jsonl file, each
    reduced to {"correct", "failed", "values": {metric: number}}."""
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except OSError as e:
        die(f"cannot read {path}: {e.strerror or e}")
    runs = []
    for n, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            run = json.loads(line)
        except json.JSONDecodeError as e:
            die(f"{path}:{n}: not valid JSON ({e.msg})")
        if not isinstance(run, dict) or set(run) != RESULT_KEYS or \
                not isinstance(run["metrics"], dict) or \
                not isinstance(run["failed"], int):
            die(f"{path}:{n}: not a perfbench result line")
        values = {}
        for name in metrics:
            metric = run["metrics"].get(name)
            value = metric.get("value") if isinstance(metric, dict) \
                else None
            if isinstance(value, bool) or \
                    not isinstance(value, (int, float)):
                die(f"{path}:{n}: no numeric {name}")
            values[name] = value
        runs.append({"correct": run["correct"], "failed": run["failed"],
                     "values": values})
    if not runs:
        die(f"{path} holds no result line")
    return runs


def quantile(values, q):
    """Linear-interpolated quantile of a sorted list."""
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def relative(delta, median):
    if median:
        return delta / median
    return 0.0 if delta == 0 else float("inf")


def gate_perfbench(parent_dir, change_dir):
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
        workloads = [w["name"] for w in spec["workloads"]]
        metrics = {m["name"]: m for m in spec["end_to_end"]}
    except (OSError, ValueError, KeyError, TypeError) as e:
        die(f"cannot read the workloads and metrics of {spec_path}: "
            f"{e}")

    # Read every file before judging any, so bad input prints no
    # verdict.
    runs = {w: [load_runs(os.path.join(d, f"{w}.jsonl"), metrics)
                for d in (parent_dir, change_dir)]
            for w in workloads}
    failures = unresolved = 0
    for w, (parent, change) in runs.items():
        for side, side_runs in (("parent", parent),
                                ("change", change)):
            bad = sum(1 for r in side_runs if r["correct"] is not True)
            if bad:
                print(f"FAIL {w} correct: {bad} of {len(side_runs)} "
                      f"{side} run(s) report correct: false")
                failures += 1
        p_failed = sum(r["failed"] for r in parent)
        c_failed = sum(r["failed"] for r in change)
        if c_failed > p_failed:
            print(f"FAIL {w} failed: {p_failed} -> {c_failed} "
                  "failed operation(s)")
            failures += 1

        for name, m in metrics.items():
            p = sorted(r["values"][name] for r in parent)
            c = sorted(r["values"][name] for r in change)
            p_med, c_med = quantile(p, 0.5), quantile(c, 0.5)
            spread = relative(quantile(p, 0.75) - quantile(p, 0.25),
                              p_med)
            sign = 1 if m["better"] == "lower" else -1
            worse = relative(sign * (c_med - p_med), p_med)
            bound = m["bound"]
            line = (f"{w} {name} {p_med:.6g} -> {c_med:.6g} "
                    f"{m.get('unit', '')} (worse by {worse:+.1%}, "
                    f"bound {bound:.0%}, parent spread {spread:.1%})")
            if spread > bound:
                print(f"UNRESOLVED {line}")
                unresolved += 1
            elif worse > bound:
                print(f"FAIL {line}")
                failures += 1
            else:
                print(f"OK {line}")

    if failures:
        print(f"perfgate: FAILED — {failures} violation(s) against "
              "the parent commit's perfbench runs")
        return 1
    print(f"perfgate: OK (no end-to-end metric worse than the parent "
          f"beyond its bound; {unresolved} unresolved)")
    return 0


def main():
    ap = argparse.ArgumentParser(
        description="gate bench --json reports against "
                    "bench/BENCH_PERF.json, or perfbench result "
                    "directories against the parent commit's")
    ap.add_argument("baseline")
    ap.add_argument("new")
    ap.add_argument("--select", default=None, metavar="SUBSTR",
                    help="gate only tables whose title contains "
                         "SUBSTR; lets one baseline file carry "
                         "tables from several benches (e.g. P1 and "
                         "F6) without each run tripping the "
                         "added/removed-table check")
    args = ap.parse_args()

    dirs = [os.path.isdir(p) for p in (args.baseline, args.new)]
    if any(dirs):
        if not all(dirs):
            die("give two bench reports or two perfbench result "
                "directories, not one of each")
        if args.select is not None:
            die("--select applies to bench reports, not to perfbench "
                "result directories")
        return gate_perfbench(args.baseline, args.new)
    return gate_tables(args.baseline, args.new, args.select)


if __name__ == "__main__":
    sys.exit(main())
