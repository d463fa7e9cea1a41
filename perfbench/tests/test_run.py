#!/usr/bin/env python3
"""Tests of run.py and the perfbench binaries.

    python3 perfbench/tests/test_run.py

Bad input must print one line to stderr and exit 2 without building
or running anything; the self-test binary must reproduce the blessed
simulator numbers (see selftest.cc).
"""

import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402

RUN_PY = os.path.join(os.path.dirname(HERE), "run.py")


class BadInput(unittest.TestCase):
    CASES = {
        "unknown workload": ["--workload", "nope"],
        "non-numeric seed": ["--workload", "fig5-hit", "--seed", "abc"],
        "negative seed": ["--workload", "fig5-hit", "--seed", "-1"],
        "seed too large": ["--workload", "fig5-hit", "--seed",
                           str(2**64)],
        "unknown flag": ["--workload", "fig5-hit", "--fast", "1"],
        "missing value": ["--workload", "fig5-hit", "--seconds"],
        "zero seconds": ["--workload", "fig5-hit", "--seconds", "0"],
        "bad trace": ["--workload", "fig5-hit", "--trace", "2"],
        "no workload": ["--seed", "3"],
        "positional": ["fig5-hit"],
    }

    def test_exit_2_with_one_line(self):
        for name, argv in self.CASES.items():
            with self.subTest(name):
                p = subprocess.run([sys.executable, RUN_PY, *argv],
                                   capture_output=True, text=True,
                                   timeout=60)
                self.assertEqual(p.returncode, 2)
                self.assertEqual(p.stdout, "")
                self.assertEqual(len(p.stderr.splitlines()), 1,
                                 p.stderr)

    def test_good_input_parses(self):
        opts = run.parse_args(["--workload", "mesh64", "--seed", "7",
                               "--seconds", "3", "--trace", "1"])
        self.assertEqual(opts, {"workload": "mesh64", "seed": 7,
                                "seconds": 3, "trace": 1})


class Binaries(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.out = run.build(["perfbench", "perfbench_selftest"])

    def test_selftest_reproduces_blessed_numbers(self):
        p = subprocess.run([os.path.join(self.out, "perfbench_selftest")],
                           capture_output=True, text=True, timeout=120)
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)

    def test_binary_rejects_bad_input_with_exit_2(self):
        exe = os.path.join(self.out, "perfbench")
        for argv in BadInput.CASES.values():
            with self.subTest(argv=argv):
                p = subprocess.run([exe, *argv], capture_output=True,
                                   text=True, timeout=60)
                self.assertEqual(p.returncode, 2)
                self.assertEqual(len(p.stderr.splitlines()), 1,
                                 p.stderr)


if __name__ == "__main__":
    unittest.main()
