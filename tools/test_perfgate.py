#!/usr/bin/env python3
"""Check perfgate.py's perfbench A/B mode on synthetic result files.

    python3 tools/test_perfgate.py

Writes parent/change directories of <workload>.jsonl files, five runs
per workload, and checks perfgate's verdict and exit status on each:
identical sides pass, a real regression fails, a parent whose own
spread is wider than the bound is UNRESOLVED, bad input exits 2.
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
BASE = {"setup_s": 0.5, "sim_minst_per_s": 5.0, "iter_ms_p50": 40.0,
        "sim_cycles": 94156, "peak_rss_mb": 60.0}
# Five runs within 2% of the median: a steady host.
JITTER = (0.98, 0.99, 1.0, 1.01, 1.02)


def runs(scale=None, correct=True, jitter=JITTER):
    """Five result lines; @scale maps a metric to a factor."""
    scale = scale or {}
    out = []
    for j in jitter:
        metrics = {m["name"]: {"value": BASE[m["name"]] *
                               scale.get(m["name"], 1) *
                               (1 if m["name"] == "sim_cycles" else j),
                               "unit": m["unit"]}
                   for m in SPEC["end_to_end"]}
        out.append({"correct": correct, "attempted": 100, "failed": 0,
                    "metrics": metrics})
    return out


def write(path, per_workload):
    os.makedirs(path, exist_ok=True)
    for w in WORKLOADS:
        with open(os.path.join(path, f"{w}.jsonl"), "w") as f:
            for r in per_workload.get(w, runs()):
                f.write(json.dumps(r) + "\n")
    return path


def perfgate(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "perfgate.py"), *args],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


failures = []


def expect(name, args, status, stdout_has=(), stdout_lacks=(),
           stderr_has=()):
    code, out, err = perfgate(*args)
    problems = []
    if code != status:
        problems.append(f"exit {code}, expected {status}")
    problems += [f"stdout lacks {s!r}" for s in stdout_has
                 if s not in out]
    problems += [f"stdout has {s!r}" for s in stdout_lacks if s in out]
    problems += [f"stderr lacks {s!r}" for s in stderr_has
                 if s not in err]
    if problems:
        failures.append(f"{name}: {'; '.join(problems)}\n{out}{err}")
    print(f"{'ok' if not problems else 'FAILED'}: {name}")


with tempfile.TemporaryDirectory() as tmp:
    parent = write(os.path.join(tmp, "parent"), {})
    same = write(os.path.join(tmp, "same"), {})
    expect("identical sides pass", [parent, same], 0,
           stdout_has=["OK fig5-hit sim_minst_per_s", "perfgate: OK"],
           stdout_lacks=["FAIL", "UNRESOLVED"])

    slow = write(os.path.join(tmp, "slow"),
                 {"fig5-hit": runs({"sim_minst_per_s": 0.5})})
    expect("halved sim_minst_per_s fails", [parent, slow], 1,
           stdout_has=["FAIL fig5-hit sim_minst_per_s"],
           stdout_lacks=["FAIL fig5-hit sim_cycles",
                         "FAIL mesh64"])

    cycles = write(os.path.join(tmp, "cycles"),
                   {"mesh64": runs({"sim_cycles": 1.2})})
    expect("sim_cycles +20% fails", [parent, cycles], 1,
           stdout_has=["FAIL mesh64 sim_cycles"],
           stdout_lacks=["FAIL mesh64 sim_minst_per_s"])

    wrong = write(os.path.join(tmp, "wrong"),
                  {"campaign": runs(correct=False)})
    expect("correct: false fails", [parent, wrong], 1,
           stdout_has=["FAIL campaign correct"])

    failing = runs()
    failing[0]["failed"] = 1
    failed = write(os.path.join(tmp, "failed"), {"memsys-miss": failing})
    expect("more failed operations fail", [parent, failed], 1,
           stdout_has=["FAIL memsys-miss failed: 0 -> 1"])

    # The parent's quartiles sit 40% of the median apart, wider than
    # the 25% bound: a halved rate on the change side cannot be told
    # from host noise, so it is reported and does not fail.
    noisy = write(os.path.join(tmp, "noisy"),
                  {"fig5-hit": runs(jitter=(0.6, 0.8, 1.0, 1.2, 1.4))})
    expect("wide parent spread is UNRESOLVED", [noisy, slow], 0,
           stdout_has=["UNRESOLVED fig5-hit sim_minst_per_s"],
           stdout_lacks=["FAIL"])

    missing = write(os.path.join(tmp, "missing"), {})
    os.remove(os.path.join(missing, "mesh64.jsonl"))
    expect("missing workload file exits 2", [parent, missing], 2,
           stderr_has=["cannot read"], stdout_lacks=["OK", "FAIL"])

    garbled = write(os.path.join(tmp, "garbled"), {})
    with open(os.path.join(garbled, "campaign.jsonl"), "a") as f:
        f.write("{not json\n")
    expect("unparseable line exits 2", [parent, garbled], 2,
           stderr_has=["not valid JSON"])

    keyless = write(os.path.join(tmp, "keyless"), {})
    with open(os.path.join(keyless, "fig5-hit.jsonl"), "a") as f:
        f.write(json.dumps({"correct": True, "metrics": {}}) + "\n")
    expect("result line without its keys exits 2", [parent, keyless], 2,
           stderr_has=["not a perfbench result line"])

    unmeasured = runs()
    del unmeasured[2]["metrics"]["peak_rss_mb"]
    unmeasured = write(os.path.join(tmp, "unmeasured"),
                       {"memsys-miss": unmeasured})
    expect("missing metric exits 2", [parent, unmeasured], 2,
           stderr_has=["no numeric peak_rss_mb"])

    empty = write(os.path.join(tmp, "empty"), {"mesh64": []})
    expect("empty workload file exits 2", [parent, empty], 2,
           stderr_has=["holds no result line"])

    expect("--select with directories exits 2",
           [parent, same, "--select", "P1"], 2,
           stderr_has=["--select"])

    report = os.path.join(tmp, "report.json")
    with open(report, "w") as f:
        json.dump({"bench": "x", "tables": []}, f)
    expect("a directory against a report exits 2", [parent, report], 2,
           stderr_has=["not one of each"])

if failures:
    print("\n".join(failures), file=sys.stderr)
    sys.exit(1)
