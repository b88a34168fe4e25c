"""Shared pytest plumbing.

BLAS runs on one thread for the whole suite, pinned here before numpy is
first imported: OpenBLAS reads its thread count once, at load, and a
threaded GEMM may sum in a different order, which moves the last bits of
the trained losses that the acceptance gates compare.  perfbench/run.py
pins the same variables.

The acceptance tests record one summary line per criterion; the terminal
summary hook reprints them after the run so the pass/fail table is visible
even when pytest captures stdout.
"""

import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NUMPY_LOADED_BEFORE_PIN = "numpy" in sys.modules
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

_ACCEPTANCE_LINES = []


def record_acceptance_line(line: str):
    _ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in _ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
