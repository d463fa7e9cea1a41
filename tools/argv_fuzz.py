#!/usr/bin/env python3
"""Deterministic argument-vector mutation test for gpsim, gpverify, gpfault.

Starts from known-good argument vectors of each tool and mutates them
with a fixed seed: drop, duplicate or swap a token, cut a --flag=value
at the '=', or replace a number with one of a small vocabulary (0, -1,
2^64, '12x', the empty string). The vocabulary never names a large
count, so no mutant can ask for a long run or many host threads.

Every mutant must exit 0-3 without a signal, within the per-run
timeout. An exit 2 (bad input) must print exactly one stderr line or
the usage text. The tools run in a temporary directory, so the files
they write are removed afterwards. The seed and timeout are those of
fuzzrun.py.

    python3 tools/argv_fuzz.py --gpsim BIN --gpverify BIN --gpfault BIN

Exit status: 0 every mutant behaved, 1 at least one did not (each is
printed), 2 bad input.
"""

import argparse
import os
import random
import re
import sys
import tempfile

import fuzzrun

PER_TOOL = 150       # mutants per tool

NUMBERS = ["0", "-1", "18446744073709551616", "12x", ""]
NUMERIC = re.compile(r"^[0-9][0-9.e+-]*$")

PROGRAMS = {
    "prog.s": "movi r10, 0\nmovi r11, 8\nloop:\nld r3, 0(r1)\n"
              "addi r3, r3, 1\nst r3, 8(r1)\nleai r4, r1, 16\n"
              "addi r10, r10, 1\nbne r10, r11, loop\nhalt\n",
    "mesh.s": "movi r3, 0\nmovi r4, 4\nloop:\nadd r7, r3, r2\n"
              "andi r7, r7, 3\nshli r7, r7, 48\naddi r7, r7, 4096\n"
              "leab r9, r1, r7\nld r10, 0(r9)\naddi r3, r3, 1\n"
              "bne r3, r4, loop\nhalt\n",
    "bad.s": "st r2, 0(r3)\nhalt\n",
}

SEEDS = {
    "gpsim": [
        ["prog.s", "--threads", "2", "--max-cycles", "50000",
         "--dump-stats"],
        ["prog.s", "--elide-checks=verified", "--data", "4096",
         "--clusters", "2"],
        ["prog.s", "--verify=strict", "--issue-width", "2",
         "--ecc=secded", "--dump-regs"],
        ["mesh.s", "--mesh", "2,2,1", "--threads", "2",
         "--max-cycles", "50000"],
        ["prog.s", "--profile=pc,interval", "--profile-interval=64",
         "--profile-out=fz_p.json", "--stats-json=fz_s.json"],
        ["prog.s", "--trace=exec", "--flight-recorder=8",
         "--trace-out=fz_t.json", "--fast"],
        ["mesh.s", "--mesh=2,2,1", "--verify", "--profile",
         "--threads=1", "--max-cycles=20000"],
    ],
    "gpverify": [
        ["prog.s", "--strict", "--data", "4096"],
        ["prog.s", "--privileged", "--quiet"],
        ["bad.s", "--data", "512", "--strict"],
    ],
    "gpfault": [
        ["--runs", "3", "--seed", "7", "--rate", "mem-data-bit=2e-4",
         "--iterations", "20"],
        ["--runs=2", "--ecc=secded", "--walk-retries", "2",
         "--burst-max-bits=2", "--max-cycles", "20000", "--rate",
         "tlb-corrupt=1e-4"],
        ["--mesh", "2,2,1", "--runs", "2", "--iterations", "8",
         "--threads", "2", "--rate", "node-fail-stop=2e-3",
         "--max-cycles", "100000"],
        ["--runs", "2", "--iterations", "10", "--verbose",
         "--expect-zero-sdc", "--stats-json=fz_c.json"],
        ["--list-sites"],
        ["--mesh=2,2,1", "--runs=2", "--iterations=8", "--no-retrans",
         "--expect-detected"],
    ],
}


def replace_number(rng, tokens):
    """Replace one numeric token, or the numeric value of a --flag=N
    or SITE=R token, with a vocabulary entry."""
    spots = []
    for i, tok in enumerate(tokens):
        if NUMERIC.match(tok):
            spots.append((i, ""))
        elif "=" in tok and NUMERIC.match(tok.split("=", 1)[1]):
            spots.append((i, tok.split("=", 1)[0] + "="))
    if spots:
        i, prefix = rng.choice(spots)
        tokens[i] = prefix + rng.choice(NUMBERS)


def cut_at_equals(rng, tokens):
    """Cut one --flag=value at the '=': keep '--flag=', keep '--flag',
    or split it into '--flag' 'value'."""
    spots = [i for i, t in enumerate(tokens)
             if t.startswith("--") and "=" in t]
    if not spots:
        return
    i = rng.choice(spots)
    flag, value = tokens[i].split("=", 1)
    form = rng.randrange(3)
    if form == 0:
        tokens[i] = flag + "="
    elif form == 1:
        tokens[i] = flag
    else:
        tokens[i:i + 1] = [flag, value]


def mutate(rng, seed_vector):
    tokens = list(seed_vector)
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(5)
        if op == 0 and tokens:
            del tokens[rng.randrange(len(tokens))]
        elif op == 1 and tokens:
            i = rng.randrange(len(tokens))
            tokens.insert(i, tokens[i])
        elif op == 2 and len(tokens) > 1:
            i, j = rng.sample(range(len(tokens)), 2)
            tokens[i], tokens[j] = tokens[j], tokens[i]
        elif op == 3:
            cut_at_equals(rng, tokens)
        else:
            replace_number(rng, tokens)
    return tokens


def check(binary, argv, workdir):
    """Run one vector. @return (exit status, failure description or
    None)."""
    status, err, why = fuzzrun.run([binary] + argv, workdir)
    if why is None and status == 2:
        lines = err.splitlines()
        if len(lines) != 1 and not any(l.startswith("usage")
                                       for l in lines):
            return status, "exit 2 with %d stderr lines and no usage: %s" % (
                len(lines), err.strip())
    return status, why


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--gpsim", required=True)
    ap.add_argument("--gpverify", required=True)
    ap.add_argument("--gpfault", required=True)
    args = ap.parse_args()
    binaries = fuzzrun.tool_paths("argv_fuzz", {"gpsim": args.gpsim,
                                                "gpverify": args.gpverify,
                                                "gpfault": args.gpfault})
    if binaries is None:
        return 2

    with tempfile.TemporaryDirectory(prefix="argv_fuzz") as workdir:
        for name, text in PROGRAMS.items():
            with open(os.path.join(workdir, name), "w") as f:
                f.write(text)
        failures = run_all(binaries, random.Random(fuzzrun.SEED), workdir)
    print("argv_fuzz: %d failure(s)" % failures)
    return 1 if failures else 0


def run_all(binaries, rng, workdir):
    """Run every seed vector and PER_TOOL mutants of them per tool.
    @return the number of vectors that misbehaved."""
    failures = 0
    for tool in sorted(SEEDS):
        # The unmutated vectors first: each must succeed or refuse a
        # faulting program, never report bad input.
        runs = [(list(v), True) for v in SEEDS[tool]]
        runs += [(mutate(rng, rng.choice(SEEDS[tool])), False)
                 for _ in range(PER_TOOL)]
        for argv, good in runs:
            status, why = check(binaries[tool], argv, workdir)
            if why is None and good and status not in (0, 1):
                why = "known-good vector exits %d" % status
            if why is not None:
                failures += 1
                print("FAIL %s %s: %s" % (tool, " ".join(
                    repr(a) for a in argv), why))
        print("argv_fuzz: %s: %d vectors" % (tool, len(runs)))
    return failures


if __name__ == "__main__":
    sys.exit(main())
