"""Checks that every test leaves the process as it found it."""

import threading

import pytest

from etide import util
from etide.numerics import active_tape, parallel


def blas_thread_counts():
    return [get() for get, _ in util._blas_controls()]


@pytest.fixture(autouse=True)
def process_state_restored():
    """Fail a test that leaves an OpenBLAS thread count changed, a
    two-core scope open, a tape open on the main thread (later tests
    would record on it), or a live thread other than the main thread and
    the forecast helper."""
    counts = blas_thread_counts()
    yield
    assert blas_thread_counts() == counts, "OpenBLAS thread count changed"
    assert parallel._owner is None, "a two-core scope is still open"
    assert active_tape() is None, "a tape is still open"
    stray = [t.name for t in threading.enumerate()
             if t is not threading.main_thread()
             and not t.name.startswith(parallel.HELPER_NAME)]
    assert not stray, f"threads left running: {stray}"
