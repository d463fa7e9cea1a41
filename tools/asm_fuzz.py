#!/usr/bin/env python3
"""Deterministic assembler-source mutation test for gpasm, gpverify, gpsim.

Starts from the known-good programs in examples/asm and bench/kernels
and mutates their lines with a fixed seed: drop, duplicate, swap or
truncate a line, replace a number or a register with an edge value
(0, -1, 2^63, 2^64, r15, r16, r-1, ...), or add a stray label or
directive. Each mutant is assembled by gpasm, verified by gpverify
and run by gpsim under a cycle budget, so a mutant that loops
forever ends in a watchdog exit.

Every run must exit 0-3 without a signal, within the per-run
timeout; every unmutated program must exit 0 in all three tools.
The tools run in a temporary directory, so the mutants are removed
afterwards. The seed and timeout are those of fuzzrun.py.

    python3 tools/asm_fuzz.py --gpasm BIN --gpverify BIN --gpsim BIN
        --source DIR [--source DIR ...]

Exit status: 0 every mutant behaved, 1 at least one did not (each is
printed), 2 bad input.
"""

import argparse
import glob
import os
import random
import re
import sys
import tempfile

import fuzzrun

MUTANTS = 750        # mutated programs per run
MAX_CYCLES = "200000"

NUMBERS = ["0", "-1", "1", "7", "4096", "9223372036854775807",
           "-9223372036854775808", "18446744073709551615",
           "18446744073709551616", "0x7fffffffffffffff",
           "0xffffffffffffffff", "99999999999999999999999", "0x", "-"]
REGISTERS = ["r0", "r15", "r16", "r255", "r-1", "r4294967296", "r",
             "R3", "rr1"]
STRAYS = ["stray:", "loop:", "halt:", ":", "a b:", ".word 5",
          ".org 0x100", ".align 8", ".text", ".", "; only a comment"]

NUMBER = re.compile(r"(?<![A-Za-z0-9_])-?(0x[0-9a-fA-F]+|[0-9]+)")
REGISTER = re.compile(r"\br[0-9]+\b")


def replace_token(rng, lines, pattern, vocabulary):
    """Replace one match of @p pattern on a random line that has one."""
    spots = [(i, m) for i, line in enumerate(lines)
             for m in pattern.finditer(line.split(";", 1)[0])]
    if spots:
        i, m = rng.choice(spots)
        lines[i] = (lines[i][:m.start()] + rng.choice(vocabulary) +
                    lines[i][m.end():])


def mutate(rng, source):
    lines = source.splitlines()
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(7)
        if op == 0 and lines:
            del lines[rng.randrange(len(lines))]
        elif op == 1 and lines:
            i = rng.randrange(len(lines))
            lines.insert(i, lines[i])
        elif op == 2 and len(lines) > 1:
            i, j = rng.sample(range(len(lines)), 2)
            lines[i], lines[j] = lines[j], lines[i]
        elif op == 3 and lines:
            i = rng.randrange(len(lines))
            lines[i] = lines[i][:rng.randrange(len(lines[i]) + 1)]
        elif op == 4:
            replace_token(rng, lines, NUMBER, NUMBERS)
        elif op == 5:
            replace_token(rng, lines, REGISTER, REGISTERS)
        else:
            lines.insert(rng.randrange(len(lines) + 1),
                         rng.choice(STRAYS))
    return "\n".join(lines) + "\n"


def check(argv, workdir, good):
    """Run one tool. @return a failure description, or None."""
    status, err, why = fuzzrun.run(argv, workdir)
    if why is None and good and status != 0:
        why = "exit %d: %s" % (status, err.strip())
    return why


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--gpasm", required=True)
    ap.add_argument("--gpverify", required=True)
    ap.add_argument("--gpsim", required=True)
    ap.add_argument("--source", action="append", required=True,
                    help="directory of known-good .s programs")
    args = ap.parse_args()
    binaries = fuzzrun.tool_paths("asm_fuzz", {"gpasm": args.gpasm,
                                               "gpverify": args.gpverify,
                                               "gpsim": args.gpsim})
    if binaries is None:
        return 2
    sources = []
    for d in args.source:
        for path in sorted(glob.glob(os.path.join(d, "*.s"))):
            with open(path) as f:
                sources.append((os.path.basename(path), f.read()))
    if not sources:
        print("asm_fuzz: no .s programs in %s" % ", ".join(args.source),
              file=sys.stderr)
        return 2

    rng = random.Random(fuzzrun.SEED)
    # The unmutated programs first, then the mutants.
    runs = [(name, text, True) for name, text in sources]
    for _ in range(MUTANTS):
        name, text = rng.choice(sources)
        runs.append((name, mutate(rng, text), False))
    failures = 0
    gpasm, gpverify, gpsim = (binaries[t]
                              for t in ("gpasm", "gpverify", "gpsim"))
    with tempfile.TemporaryDirectory(prefix="asm_fuzz") as workdir:
        prog = os.path.join(workdir, "prog.s")
        for name, text, good in runs:
            with open(prog, "w") as f:
                f.write(text)
            for argv in ([gpasm, prog], [gpverify, prog],
                         [gpsim, prog, "--max-cycles", MAX_CYCLES]):
                why = check(argv, workdir, good)
                if why is not None:
                    failures += 1
                    print("FAIL %s on %s%s: %s\n%s" % (
                        os.path.basename(argv[0]),
                        "" if good else "a mutant of ", name, why, text))
    print("asm_fuzz: %d mutants of %d programs, %d failure(s)" % (
        MUTANTS, len(sources), failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
