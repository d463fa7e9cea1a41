#!/usr/bin/env python3
"""Build and run the simulator's host-speed benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The simulator and the benchmark are
built from source into $CARGO_TARGET_DIR (default .bench_build) with
CMake, then the perfbench binary runs the workload. Build output goes
to stderr; stdout ends with the benchmark's one-line JSON result. Bad
arguments print one line to stderr and exit 2; a failed build exits 1
without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig5-hit", "memsys-miss", "mesh64", "campaign")


class UsageError(Exception):
    pass


def parse_args(argv):
    """Return {workload, seed, seconds, trace} or raise UsageError."""
    values = {}
    i = 0
    while i < len(argv):
        flag = argv[i]
        name = flag[2:] if flag.startswith("--") else None
        if name not in ("workload", "seed", "seconds", "trace"):
            raise UsageError(f"unknown argument '{flag}'")
        if name in values:
            raise UsageError(f"{flag} given twice")
        if i + 1 >= len(argv):
            raise UsageError(f"{flag} needs a value")
        values[name] = argv[i + 1]
        i += 2
    if "workload" not in values:
        raise UsageError("--workload is required")
    if values["workload"] not in WORKLOADS:
        raise UsageError(f"unknown workload '{values['workload']}' "
                         f"(expected one of {', '.join(WORKLOADS)})")

    def integer(name, default, low, high):
        text = values.get(name, default)
        if not text.isascii() or not text.isdigit() or \
                not low <= int(text) <= high:
            raise UsageError(f"--{name} expects an integer in "
                             f"[{low}, {high}], got '{text}'")
        return int(text)

    return {
        "workload": values["workload"],
        "seed": integer("seed", "1", 0, 2**64 - 1),
        "seconds": integer("seconds", "10", 1, 3600),
        "trace": integer("trace", "0", 0, 1),
    }


def build(targets):
    """Configure once, then build @targets; return the build dir."""
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                            ".bench_build"))
    if not any(os.path.exists(os.path.join(out, f))
               for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target",
                    *targets], check=True, stdout=sys.stderr)
    return out


def main(argv):
    try:
        opts = parse_args(argv)
    except UsageError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2
    try:
        out = build(["perfbench"])
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    proc = subprocess.run(
        [os.path.join(out, "perfbench"),
         "--workload", opts["workload"], "--seed", str(opts["seed"]),
         "--seconds", str(opts["seconds"]),
         "--trace", str(opts["trace"])],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        print("run.py: benchmark printed no result", file=sys.stderr)
        return proc.returncode or 1
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
