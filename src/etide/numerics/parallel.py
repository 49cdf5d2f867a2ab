"""A batch-1 forecast on two cores: one persistent helper thread.

Inside two_cores(), each split point of the forward hands one half of its
work to the helper thread and computes the other half on the calling
thread; BLAS runs at one thread per call meanwhile (util.single_blas_thread),
so the second core does the helper's half instead of spinning between the
GEMMs of one OpenBLAS pool. Outside that scope, under a tape, and while
the helper runs a both() job (training.rollout_eval scores on it), each
split point is one inline call on the whole input, so the forward has
one implementation and training, tapes and batches keep their bits.

A split keeps the bits of the inline call only where every element is
computed by the same float operations in the same order:
* per-location work (bias, LayerNorm, GELU, sigmoid, residual adds) splits
  anywhere;
* a GEMM splits into calls the inline code makes anyway (the encoder's
  frames, one batched matmul row each; the sub-pixel conv's parity rows),
  or into column ranges that start and end on whole GEMM_COLUMN_GROUP
  column groups, which OpenBLAS computes the same wherever they sit. Parts
  that overlap by a halo instead of by whole parities do not: in a
  prototype, a row-halo split of the 64x64 decoder moved its last 5 output
  rows by 1 ulp, because its lower part ended in a partial group.
"""

from __future__ import annotations

import contextlib
import math
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from ..util import single_blas_thread
from .tensor import Tensor, active_tape

HELPER_NAME = "etide-helper"
# columns of a float32 GEMM kernel block: a row split of a 1x1 conv keeps
# its bits when each part is a whole number of them
GEMM_COLUMN_GROUP = 16

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
    """BLAS at one thread for the body, unless a tape records (then the
    body runs as it is). A split point uses the helper only when its
    thread opened the scope that pinned BLAS and the helper is idle
    (both() clears the owner while it runs); any other runs inline."""
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


def both(fn, first, second) -> tuple:
    """(fn(first), fn(second)). Inside two_cores(), fn(first) runs on the
    helper while this thread runs fn(second), and a split point inside
    either runs inline; otherwise both run here, in that order. An error
    on either raises here, once both have ended."""
    global _owner
    me = threading.get_ident()
    if _owner != me:
        return fn(first), fn(second)
    _owner = None
    try:
        future = _executor().submit(fn, first)
        try:
            out = fn(second)
        except BaseException:
            wait([future])  # the helper may still write shared buffers
            raise
        return future.result(), out
    finally:
        _owner = me


def split(fn, x, axis: int, at: int | None):
    """fn(x), run as fn on x's parts [:at] and [at:] along axis (both())
    and joined along it, when this thread may split and 0 < at < length;
    else one call fn(x). x is a Tensor or an array; fn returns the same,
    or None when it works in place."""
    if _owner != threading.get_ident() or not at or at >= x.shape[axis]:
        return fn(x)
    data = x.data if isinstance(x, Tensor) else x
    parts = np.split(data, [at], axis=axis)
    if isinstance(x, Tensor):
        parts = [Tensor(p) for p in parts]
    lo, hi = both(fn, *parts)
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
