"""Shared driver of the seeded mutation tests argv_fuzz.py and
asm_fuzz.py: the fixed seed and timeout, the binary checks and one
timed tool run under the exit-status contract (0-3, no signal).

To try another seed by hand, edit SEED; the ctests run this one.
"""

import os
import subprocess
import sys

SEED = 1             # the random.Random seed of every mutation test
TIMEOUT_S = 60.0     # per tool run; the known-good inputs take well under a second


def tool_paths(script, paths):
    """@p paths maps each tool name to its binary. @return the same
    map with absolute paths, since the tools run inside a temporary
    work directory, or None after printing which one cannot run."""
    resolved = {tool: os.path.abspath(path) for tool, path in paths.items()}
    for tool, path in resolved.items():
        if not os.access(path, os.X_OK):
            print("%s: cannot run %s binary %s" % (script, tool, path),
                  file=sys.stderr)
            return None
    return resolved


def run(argv, workdir):
    """Run one tool with no stdin and its stdout discarded.
    @return (exit status or None on a timeout, stderr text, failure
    description or None); a timeout, a signal or an exit status above
    3 is a failure."""
    try:
        proc = subprocess.run(argv, cwd=workdir,
                              stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "", "no exit within %gs" % TIMEOUT_S
    status = proc.returncode
    err = proc.stderr.decode(errors="replace")
    if status < 0:
        return status, err, "killed by signal %d: %s" % (-status,
                                                         err.strip())
    if status > 3:
        return status, err, "exit %d: %s" % (status, err.strip())
    return status, err, None
