"""The forecast on two cores: one persistent helper thread.

Inside two_cores(), BLAS runs at one thread per call
(util.single_blas_thread), and a split point hands one half of its work to
the helper thread and computes the other half on the calling thread, so
the second core does the helper's half instead of spinning between the
GEMMs of one OpenBLAS pool. training.predict enters two_cores() at every
batch.

One rule (_splits) decides when a split point uses the helper: its thread
holds the two_cores() scope that pinned BLAS, no tape records on that
thread, and the helper is idle (not running a both() job, as while
training.rollout_eval scores on it). Any other split point is one inline
call on the whole input, so the forward has one implementation, and
training, tapes and every thread but the scope's keep their bits.

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
The split points hold at any batch: every batch element's plane splits at
the same row, on whole column groups of that plane.
"""

from __future__ import annotations

import contextlib
import math
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from functools import partial

import numpy as np

from ..util import single_blas_thread
from .tensor import Tensor, active_tape

HELPER_NAME = "etide-helper"
GEMM_COLUMN_GROUP = 16  # columns; see the module docstring

_helper: ThreadPoolExecutor | None = None
_owner: int | None = None  # thread whose split points use the helper
_lock = threading.Lock()


def _executor() -> ThreadPoolExecutor:
    global _helper
    with _lock:
        if _helper is None:
            _helper = ThreadPoolExecutor(max_workers=1,
                                         thread_name_prefix=HELPER_NAME)
        return _helper


@contextlib.contextmanager
def two_cores():
    """The scope of the module docstring's rule: BLAS at one thread for the
    body, and split points on this thread may use the helper. Under a
    tape on this thread the body runs as it is."""
    global _owner
    if active_tape() is not None:
        yield
        return
    with single_blas_thread() as first:
        if not first:
            yield
            return
        _owner = threading.get_ident()
        try:
            yield
        finally:
            _owner = None


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
        future = _executor().submit(first)
        try:
            out = second()
        except BaseException:
            wait([future])  # the helper may still write shared buffers
            raise
        return future.result(), out
    finally:
        _owner = me


def split(fn, x, axis: int, at: int | None):
    """fn(x), run as fn on x's parts [:at] and [at:] along axis (both())
    and joined along it, when the rule lets this thread split and
    0 < at < length; else one call fn(x). x is a Tensor or an array; fn
    returns the same, or None when it works in place."""
    if not at or at >= x.shape[axis] or not _splits():
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


def group_rows(height: int, width: int) -> int:
    """The last row at or before height/2 at which a [.., height, width]
    plane splits into whole GEMM_COLUMN_GROUP column groups; 0 if none
    does."""
    step = GEMM_COLUMN_GROUP // math.gcd(width, GEMM_COLUMN_GROUP)
    return height // 2 // step * step
