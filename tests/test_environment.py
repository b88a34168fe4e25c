"""The suite's environment: BLAS runs on one thread (see conftest.py)."""

import os

import conftest


def test_blas_threads_pinned_before_numpy_loads():
    # a variable set after numpy's BLAS has loaded is never read
    assert not conftest.NUMPY_LOADED_BEFORE_PIN, "numpy was imported before conftest pinned BLAS threads"
    for var in conftest.BLAS_THREAD_VARS:
        assert os.environ[var] == "1", var
