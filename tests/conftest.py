"""Checks that every test leaves the process as it found it, and shared
test helpers."""

import contextlib
import threading

import numpy as np
import pytest

from etide.numerics import active_tape, parallel


def blas_thread_counts():
    return [get() for get, _ in parallel._blas_controls()]


def one_blas_thread():
    """Every loaded OpenBLAS at one thread for the body, and no two-core
    scope: the serial forward at one BLAS thread."""
    return blas_threads(1)


@contextlib.contextmanager
def blas_threads(count: int):
    """Every loaded OpenBLAS at `count` threads for the body."""
    controls = parallel._blas_controls()
    before = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(count)
    try:
        yield
    finally:
        for (_, set_), n in zip(controls, before):
            set_(n)


@pytest.fixture
def submitted(monkeypatch):
    """The names of the functions handed to the helper thread, in order."""
    calls = []
    executor = parallel._helper

    class Recording:
        def submit(self, fn):
            calls.append(fn.func.__name__)
            return executor.submit(fn)
    monkeypatch.setattr(parallel, "_helper", Recording())
    return calls


def assert_mutations_rejected(path, raw, header, read, error, seed):
    """Write 300 seeded mutations of the valid file `raw` to `path`: a
    random byte in the first `header` bytes, a truncation, or a random
    byte anywhere, a third each. `read(path)` must load each one or raise
    `error` with the path in its message; any other exception fails."""
    rng = np.random.default_rng(seed)
    for i in range(300):
        data = bytearray(raw)
        at = int(rng.integers(header if i % 3 == 0 else len(raw)))
        if i % 3 == 1:
            del data[at:]
        else:
            data[at] = int(rng.integers(256))
        path.write_bytes(bytes(data))
        try:
            read(path)
        except error as exc:
            assert str(path) in str(exc), (i, exc)


@pytest.fixture(autouse=True)
def process_state_restored():
    """Fail a test that leaves an OpenBLAS thread count changed, a
    two-core scope open, a tape open on the main thread (later tests
    would record on it), or a live thread other than the main thread and
    the forecast helper."""
    counts = blas_thread_counts()
    yield
    assert blas_thread_counts() == counts, "OpenBLAS thread count changed"
    assert parallel._owner is None and parallel._depth == 0, (
        "a two-core scope is still open")
    assert active_tape() is None, "a tape is still open"
    stray = [t.name for t in threading.enumerate()
             if t is not threading.main_thread()
             and not t.name.startswith(parallel.HELPER_NAME)]
    assert not stray, f"threads left running: {stray}"
