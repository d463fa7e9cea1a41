#!/usr/bin/env python3
"""Gate a bench_p1_simspeed --json report against the committed baseline.

Usage:
    perfgate.py BASELINE.json NEW.json [--warn-band PCT]
                [--select SUBSTR]

The P1 report contains two kinds of tables (see bench_p1_simspeed.cc):

  - Tables whose title contains "deterministic": every cell is a pure
    function of the simulator (simulated cycles, instruction counts,
    campaign outcome classes). Any drift from the baseline means a
    change was NOT observationally invisible — perfgate HARD-FAILS
    (exit 1) and prints each differing cell. An intentional behaviour
    change must re-bless the baseline in the same commit
    (bench/BENCH_PERF.json), which makes the change reviewable.

  - Tables whose title contains "host-dependent": wall times and
    derived rates. Machines differ, so derived-rate cells are
    WARN-ONLY: cells that regress by more than --warn-band percent
    (default 25) are printed as warnings, but never fail the gate.
    Wall-time cells get a SOFT RATIO GATE: a run slower than the
    blessed baseline warns above 1.3x and fails above 2x — loose
    enough to absorb machine-to-machine variance, tight enough to
    catch an accidental order-of-magnitude interpreter regression.
    The committed baseline documents the reference machine's numbers.

The report also carries two in-run contracts that need no baseline:
the fig5-elide row (elide-on cycles <= elide-off, saved > 0) and the
fig5-fast row (its host rate >= 2x the fig5-memsys host rate measured
in the SAME run, so the speedup check is host-independent).

Exit status: 0 = gate passed (warnings allowed), 1 = deterministic
drift / wall-time blowout / contract violation, 2 = bad input
(missing file, invalid JSON, missing table).
"""

import argparse
import json
import re
import sys


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


def gate_host(title, base, new, warn_band):
    """Host-speed gate. Derived-rate cells are warn-only (band in
    percent). Wall-time cells are a soft ratio gate: new/base > 1.3
    warns, > 2.0 fails — slow enough growth to ride out machine
    differences, but a 2x wall-time blowout on the reference workload
    means the interpreter itself regressed. Returns
    (warnings, failures)."""
    header = base.get("header", [])
    base_rows, new_rows = rows_by_key(base), rows_by_key(new)
    warned = failed = 0
    for key in sorted(set(base_rows) & set(new_rows)):
        b_row, n_row = base_rows[key], new_rows[key]
        for c in range(1, min(len(b_row), len(n_row))):
            b, n = parse_number(b_row[c]), parse_number(n_row[c])
            if b is None or n is None or b == 0:
                continue
            col = header[c] if c < len(header) else f"col{c}"
            is_wall = "ms" in col or "wall" in col
            if is_wall:
                ratio = n / b
                if ratio > 2.0:
                    print(f"FAIL {title} :: {key} :: {col} "
                          f"{b_row[c].strip()} -> {n_row[c].strip()} "
                          f"({ratio:.2f}x > 2x blessed wall time)")
                    failed += 1
                elif ratio > 1.3:
                    print(f"WARN {title} :: {key} :: {col} "
                          f"{b_row[c].strip()} -> {n_row[c].strip()} "
                          f"({ratio:.2f}x > 1.3x blessed wall time)")
                    warned += 1
                continue
            rel = 100.0 * (n - b) / b
            if rel < -warn_band:
                print(f"WARN {title} :: {key} :: {col} "
                      f"{b_row[c].strip()} -> {n_row[c].strip()} "
                      f"({rel:+.1f}%)")
                warned += 1
    return warned, failed


def check_fast_contract(new_tables):
    """Sanity-gate the fig5-fast host row of the new report: its rate
    must be >= 2x the fig5-memsys rate FROM THE SAME RUN — a same-host
    ratio, so the check holds on any machine. Returns #violations;
    absent rows (older reports) check nothing."""
    bad = 0
    for title, table in new_tables.items():
        if "host-dependent" not in title:
            continue
        rows = rows_by_key(table)
        fast = rows.get("fig5-fast")
        memsys = rows.get("fig5-memsys")
        if fast is None or memsys is None:
            continue
        f_rate = parse_number(fast[2]) if len(fast) > 2 else None
        m_rate = parse_number(memsys[2]) if len(memsys) > 2 else None
        if f_rate is None or m_rate is None or m_rate == 0:
            print(f"FAIL {title} :: fig5-fast :: unparseable rate")
            bad += 1
            continue
        if f_rate < 2.0 * m_rate:
            print(f"FAIL {title} :: fig5-fast :: {f_rate:.2f} "
                  f"Minst/s is below 2x fig5-memsys "
                  f"({m_rate:.2f} Minst/s) in the same run")
            bad += 1
    return bad


def main():
    ap = argparse.ArgumentParser(
        description="gate bench_p1_simspeed --json output against the "
                    "committed bench/BENCH_PERF.json baseline")
    ap.add_argument("baseline")
    ap.add_argument("new")
    ap.add_argument("--warn-band", type=float, default=25.0,
                    help="host-speed warn threshold in percent "
                         "(default 25; never fails the gate)")
    ap.add_argument("--select", default=None, metavar="SUBSTR",
                    help="gate only tables whose title contains "
                         "SUBSTR; lets one baseline file carry "
                         "tables from several benches (e.g. P1 and "
                         "F6) without each run tripping the "
                         "added/removed-table check")
    args = ap.parse_args()

    base_tables = tables_by_title(load(args.baseline))
    new_tables = tables_by_title(load(args.new))
    if args.select is not None:
        base_tables = {t: v for t, v in base_tables.items()
                       if args.select in t}
        new_tables = {t: v for t, v in new_tables.items()
                      if args.select in t}
        if not base_tables and not new_tables:
            die(f"--select {args.select!r} matches no table in "
                "either report")

    failures = warnings = 0
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
        elif "host-dependent" in title:
            w, f = gate_host(title, base_tables[title],
                             new_tables[title], args.warn_band)
            warnings += w
            failures += f
    if not saw_deterministic:
        die("no deterministic table found; is this a P1 report?")
    failures += check_elide_contract(new_tables)
    failures += check_fast_contract(new_tables)

    if failures:
        print(f"perfgate: FAILED — {failures} violation(s): "
              "deterministic drift, a >2x wall-time blowout, or a "
              "broken in-run contract. A perf change must not change "
              "simulated behaviour; if the change is intentional, "
              "re-bless bench/BENCH_PERF.json in the same commit.")
        return 1
    print(f"perfgate: OK (deterministic signature matches; "
          f"{warnings} host-speed warning(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
