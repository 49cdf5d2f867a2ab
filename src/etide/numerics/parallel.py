"""The forecast on two cores: one persistent helper thread.

Inside two_cores(), every loaded OpenBLAS (NumPy's among them) runs at one
thread per call, and a split point hands one half of its work to the
helper thread and computes the other half on the calling thread, so the
second core does the helper's half instead of spinning between the GEMMs
of one OpenBLAS pool. training.predict enters two_cores() at every batch.

One rule (_splits) decides when a split point uses the helper: its thread
opened the two_cores() scope that pinned BLAS, no tape records on that
thread, and the helper is idle (not running a both() job, as while
training.rollout_eval scores on it). Any other split point is one inline
call on the whole input, so the forward has one implementation, and
training, tapes and every thread but the scope's keep their bits. The bits
do not depend on the BLAS thread count either (the CLI tests compare one
and two threads).

A split keeps the bits of the inline call only where every element is
computed by the same float operations in the same order:
* per-location work (bias, LayerNorm, GELU, sigmoid, residual adds) splits
  anywhere;
* a GEMM splits into calls the inline code makes anyway (the encoder's
  frames, one batched matmul row each; the sub-pixel conv's parity rows),
  or into column ranges of whole GEMM_COLUMN_GROUP columns. OpenBLAS
  computes a GEMM column the same way wherever it sits among whole groups
  (16 columns; 8 did not hold in a sparse enc1 prototype), except that a
  single column goes to gemv and dgemm gives a trailing group of 1-4
  columns another kernel. ops.conv_ln_gelu's sparse stem relies on the
  same condition. Parts that overlap by a halo instead of by whole
  parities do not keep the bits: in a prototype, a row-halo split of the
  64x64 decoder moved its last 5 output rows by 1 ulp, because its lower
  part ended in a partial group.
split() therefore cuts where the part before the cut holds whole column
groups of the axes after it (_cut), which covers all of these: a row of a
[.., H, W] plane is W columns, and a frame is one matmul row of its own.
The cut holds at any batch: every batch element's plane splits at the same
row, on whole column groups of that plane.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from functools import partial

import numpy as np

from .tensor import Tensor, active_tape

HELPER_NAME = "etide-helper"
GEMM_COLUMN_GROUP = 16  # columns; see the module docstring

# starts its thread at the first job
_helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix=HELPER_NAME)
_owner: int | None = None  # thread whose split points use the helper
_lock = threading.Lock()
_depth = 0               # two_cores scopes open, on any thread
_blas_before: list = []  # (set, count) to restore when the last one closes

# Thread-count entry points of OpenBLAS builds: SciPy's wheels rename them
# with a prefix, and 64-bit-integer builds append a suffix.
_OPENBLAS_PREFIXES = ("scipy_openblas_", "openblas_")
_OPENBLAS_SUFFIXES = ("64_", "")


def _openblas_libraries() -> list:
    """Every OpenBLAS library mapped into this process, opened with ctypes
    (empty where /proc/self/maps cannot be read)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh
                     if "openblas" in line.lower() and "/" in line}
    except OSError:
        return []
    return [ctypes.CDLL(path) for path in sorted(paths)]


def _thread_count_functions(lib):
    """(get, set) of lib's OpenBLAS thread count, or None if lib exports
    no such pair under a known name."""
    for prefix in _OPENBLAS_PREFIXES:
        for suffix in _OPENBLAS_SUFFIXES:
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


@functools.cache
def _blas_controls() -> list:
    """(get, set) of every OpenBLAS loaded when first asked, looked up once
    per process: reading /proc/self/maps costs about 0.6 ms."""
    return [f for f in map(_thread_count_functions, _openblas_libraries())
            if f is not None]


@contextlib.contextmanager
def two_cores():
    """The scope of the module docstring's rule. Scopes nest and may
    overlap on several threads: the first to open pins every OpenBLAS to
    one thread and makes its thread the owner, whose split points may use
    the helper until that scope closes; the last to close restores the
    counts, also when its body raises. Where no OpenBLAS is found, BLAS is
    left as it is."""
    global _depth, _owner, _blas_before
    with _lock:
        first = _depth == 0
        if first:
            _blas_before = [(set_, get()) for get, set_ in _blas_controls()]
            for set_, _ in _blas_before:
                set_(1)
            _owner = threading.get_ident()
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if first:
                _owner = None
            if _depth == 0:
                for set_, count in _blas_before:
                    set_(count)


def _splits() -> bool:
    """Whether a split point on this thread uses the helper (the rule)."""
    return _owner == threading.get_ident() and active_tape() is None


def both(first, second) -> tuple:
    """(first(), second()) of two zero-argument callables. When the rule
    lets this thread split, first() runs on the helper while this thread
    runs second(), and a split point inside either runs inline (the
    helper is busy); otherwise both run here, in that order.
    An error on either raises here, once both have ended."""
    global _owner
    if not _splits():
        return first(), second()
    me = threading.get_ident()
    _owner = None
    try:
        future = _helper.submit(first)
        try:
            out = second()
        except BaseException:
            wait([future])  # the helper may still write shared buffers
            raise
        return future.result(), out
    finally:
        _owner = me


def _cut(shape: tuple, axis: int) -> int:
    """The last index at or before shape[axis] / 2 where the part before it
    holds whole GEMM_COLUMN_GROUP columns of the axes after axis; 0 if
    none does."""
    columns = math.prod(shape[axis + 1:])
    step = GEMM_COLUMN_GROUP // math.gcd(columns, GEMM_COLUMN_GROUP)
    return shape[axis] // 2 // step * step


def split(fn, x, axis: int):
    """fn(x), run as fn on x's two parts along axis, cut by _cut (both())
    and joined along it, when the rule lets this thread split and the cut
    is inside x; else one call fn(x). x is a Tensor or an array; fn
    returns the same, or None when it works in place."""
    at = _cut(x.shape, axis) if _splits() else 0
    if not at:
        return fn(x)
    data = x.data if isinstance(x, Tensor) else x
    parts = np.split(data, [at], axis=axis)
    if isinstance(x, Tensor):
        parts = [Tensor(p) for p in parts]
    lo, hi = both(partial(fn, parts[0]), partial(fn, parts[1]))
    if lo is None:
        return None
    if isinstance(lo, Tensor):
        return Tensor(np.concatenate([lo.data, hi.data], axis=axis))
    return np.concatenate([lo, hi], axis=axis)
