"""Differentiable array operations recorded on the active tape.

An op computes its forward result eagerly with numpy and returns
_track(data, inputs, vjp). vjp(g) is its vector-Jacobian product: given
the output gradient g, it returns or yields one gradient per input, in
input order, None for an input that needs none. _track alone checks for an
active tape, records the node and adds the inputs' gradients into the
tape's map; an op that saves buffers only for its backward asks
_recording(inputs) first.
Each op also has a _case row in gradcheck.op_suite_cases, which checks its
vjp against central differences.

One convolution op, conv2d, picks its kernel from the weight's shape and
its upsample flag:

* [Cout, Cin, k, k], 1x1 projections included: one GEMM per tap straight
  on a window of the flattened padded input, no copy per tap; a strided
  conv first splits the input into its stride phases;
* [Cout, Cin, k, k] at stride > 1 with Cout > 4*Cin: im2col, one GEMM
  with K = Cin*k^2, where a GEMM per tap would have K = Cin, too thin;
* [C, 1, k, k], depthwise at stride 1 and any dilation: one einsum over
  a read-only strided view of every tap window, bit-identical to a tap
  loop; its backward is one more einsum for dw and the same kernel on the
  gradient for dx;
* upsample=True, a nearest-2x upsample followed by a "same" conv: four
  sub-pixel stride-1 convs on the low-resolution input with summed taps,
  2.25x fewer multiply-adds at k=3.

conv_ln_gelu (conv -> layer norm -> GELU) is every encoder and decoder
stage of the model, one tape node each, with the bytes of conv2d,
layer_norm_channels and gelu. Where conv2d takes im2col (the stem, enc0:
2 -> 32 channels at stride 2), it builds the im2col matrix once; a column
holds an output location's input window, so the columns with a nonzero
value are the active locations. The GEMM runs on those columns alone, then
LN and GELU channel-major; every other location gets the background
gelu(LN(bias)). On a 2-vCPU VM this was 3-8x faster than the dense ops at
the 4-14% active locations of full-config forecast windows, and break-even
near 70% active. Above 50% active, or when an output plane is not a whole
number of GEMM column groups, the GEMM runs on the whole matrix instead.

Every other stage (enc1, and the decoder with upsample=True) runs conv2d's
kernel densely. Every route then adds the bias into the conv buffer and
centres it in place for LN, and the tape keeps no conv output; with no tape
recording, GELU's result lands in that buffer too.

The sub-pixel conv computes its parity rows a = 0 and a = 1 through
parallel.both, each the same GEMM calls as the serial loop, and a stage's
bias -> LN -> GELU runs through parallel.split by rows. parallel's module
docstring says when these use the helper thread and why they keep the
bits.

Backward passes rebuild padded inputs and columns from the saved input
instead of keeping them on the tape.

focal_loss_map computes one exp(-|s|) per logit on the true-class form,
with no np.logaddexp, a scalar libm loop that dominated the loss.

Ops preserve the dtype of their inputs so the same code runs in float32
for training and float64 for finite-difference checking.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Optional, Union

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view
from scipy.special import erf

from ..util import is_binary
from . import parallel
from .tensor import Tensor, active_tape, as_tensor

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible; names the bad dimension."""


def _recording(inputs: tuple) -> bool:
    """Whether _track will record a node for these inputs: some input needs
    a gradient and a tape is active. An op that saves buffers only for its
    backward can skip them otherwise."""
    return active_tape() is not None and any(
        t is not None and t.requires_grad for t in inputs)


def _track(data: np.ndarray, inputs: tuple, vjp) -> Tensor:
    """Wrap an op's forward result; record its backward on the active tape
    when some input (a Tensor or None) needs a gradient.

    The node keeps only the inputs that need a gradient. Backward pops the
    output's gradient from the tape's map and adds the inputs' gradients
    from vjp into it one at a time, so a generator vjp holds one large
    gradient at a time. It stops after the last input that needs one; a
    vjp checks requires_grad itself for an earlier input whose gradient is
    costly to make.
    """
    if not _recording(inputs):
        return Tensor(data)
    need = [t if t is not None and t.requires_grad else None for t in inputs]
    while need[-1] is None:
        need.pop()
    out = Tensor(data, requires_grad=True)
    grads = active_tape().grads  # the map, not the tape: no reference cycle

    def backward():
        input_grads = iter(vjp(grads.pop(out)))
        for t in need:
            g = next(input_grads)
            if t is not None and g is not None:
                if t in grads:
                    grads[t] += g
                else:  # the bits of zeros + g (-0 becomes +0), written once
                    grads[t] = np.add(g, 0.0, out=np.empty_like(t.data))
            del g
    active_tape().record(out, backward)
    return out


# ---------------------------------------------------------------------------
# elementwise and structural ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"add: operand shapes {a.shape} != {b.shape}")
    return _track(a.data + b.data, (a, b), lambda g: (g, g))


def scale(x: Tensor, factor: Union[float, np.ndarray]) -> Tensor:
    """Multiply by a constant scalar or broadcastable constant array."""
    x = as_tensor(x)
    data = x.data * factor
    if data.shape != x.shape:
        raise ShapeError(f"scale: factor broadcasts {x.shape} to {data.shape}")
    return _track(data, (x,), lambda g: (g * factor,))


def reshape(x: Tensor, shape: tuple) -> Tensor:
    x = as_tensor(x)
    in_shape = x.shape
    return _track(x.data.reshape(shape), (x,),
                  lambda g: (g.reshape(in_shape),))


def weighted_sum(x: Tensor, weights: np.ndarray) -> Tensor:
    """Scalar sum(x * weights) with constant weights (broadcastable to x)."""
    x = as_tensor(x)
    return _track(np.asarray((x.data * weights).sum(), dtype=x.dtype), (x,),
                  lambda g: (g * weights,))


def frame_diff(x: Tensor) -> Tensor:
    """Consecutive differences along axis 1: out[:, t] = x[:, t+1] - x[:, t]."""
    x = as_tensor(x)
    if x.shape[1] < 2:
        raise ShapeError(f"frame_diff: axis 1 needs >= 2 entries, got {x.shape[1]}")

    def vjp(g):
        dx = np.zeros_like(x.data)
        dx[:, 1:] += g
        dx[:, :-1] -= g
        return (dx,)
    return _track(x.data[:, 1:] - x.data[:, :-1], (x,), vjp)


def relu(x: Tensor) -> Tensor:
    x = as_tensor(x)
    return _track(np.maximum(x.data, 0.0), (x,), lambda g: (g * (x.data > 0),))


def sigmoid(x: Tensor) -> Tensor:
    x = as_tensor(x)
    s = _sigmoid(x.data)
    return _track(s, (x,), lambda g: (g * s * (1.0 - s),))


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian-CDF form: x * Phi(x)."""
    x = as_tensor(x)
    cdf = _gelu_cdf(x.data)
    # the backward needs cdf; with no node recorded, the product may
    # overwrite it
    data = np.multiply(x.data, cdf, out=None if _recording((x,)) else cdf)
    return _track(data, (x,), lambda g: (_gelu_grad(g, x.data, cdf),))


def _gelu_cdf(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Phi(x) = (1 + erf(x / sqrt 2)) / 2, in `out` or a new array.
    _INV_SQRT2 is a Python float, so float32 stays float32 (an np.float64
    factor would promote)."""
    cdf = np.multiply(x, _INV_SQRT2, out=np.empty_like(x) if out is None
                      else out)
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return cdf


def _gelu_grad(g: np.ndarray, x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """g * (cdf + x * pdf(x)) in one buffer, with the bits of that
    expression: each step is the same product or sum, commuted."""
    d = np.multiply(x, -0.5)
    d *= x
    np.exp(d, out=d)
    d *= _INV_SQRT2PI        # pdf
    d *= x
    d += cdf
    d *= g
    return d


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # bit for bit the piecewise form 1/(1+exp(-z)) for z >= 0 and
    # exp(z)/(1+exp(z)) below; exp(-|z|) never overflows. The numerator
    # max(e, [z >= 0]) is 1 or e without a masked write, which mispredicts
    # on mixed signs (13.1 against 4.5 ms on 1.3M random float32 logits)
    e = np.asarray(np.exp(-np.abs(z)))
    num = np.greater_equal(z, 0.0, out=np.empty_like(e))
    np.maximum(e, num, out=num)
    e += 1.0
    num /= e
    return num


# ---------------------------------------------------------------------------
# linear / convolution ops
# ---------------------------------------------------------------------------

def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """x[B,D] @ weight[K,D]^T + bias[K]."""
    x, weight = as_tensor(x), as_tensor(weight)
    if x.shape[1] != weight.shape[1]:
        raise ShapeError(
            f"linear: input dim {x.shape[1]} != weight dim {weight.shape[1]}")
    if bias is not None and bias.shape != weight.shape[:1]:
        raise ShapeError(f"linear: bias shape {bias.shape} != out dim "
                         f"({weight.shape[0]},)")
    data = x.data @ weight.data.T
    if bias is not None:
        data = data + bias.data

    def vjp(g):
        yield g @ weight.data if x.requires_grad else None
        yield g.T @ x.data if weight.requires_grad else None
        yield g.sum(axis=0)
    return _track(data, (x, weight, bias), vjp)


def _conv_geometry(h: int, w: int, k: int, stride: int, padding: int,
                   dilation: int = 1) -> tuple[int, int]:
    span = dilation * (k - 1) + 1
    h_out = (h + 2 * padding - span) // stride + 1
    w_out = (w + 2 * padding - span) // stride + 1
    if h_out < 1 or w_out < 1:
        raise ShapeError(
            f"conv: spatial dims {h}x{w} too small for kernel span {span} "
            f"with padding {padding}")
    return h_out, w_out


def _pad2d(x: np.ndarray, padding: int) -> np.ndarray:
    if padding == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))


def _unpad2d(xp: np.ndarray, padding: int) -> np.ndarray:
    if padding == 0:
        return xp
    return xp[:, :, padding:-padding, padding:-padding]


def _tap(xp: np.ndarray, i: int, j: int, stride: int, h_out: int, w_out: int):
    return xp[:, :, i:i + stride * (h_out - 1) + 1:stride,
              j:j + stride * (w_out - 1) + 1:stride]


# Per-tap GEMMs on the flattened padded input, at any stride s. The padded
# [Hp, Wp] plane is split into its s*s stride phases xp[a::s, e::s], each
# zero-filled to Hq x Wq = ceil(Hp/s) x ceil(Wp/s) with its rows laid end to
# end (at stride 1 the one phase is the padded plane). Tap (i, j) of every
# output pixel then reads the contiguous window of phase (i % s, j % s) that
# starts at off = (i // s)*Wq + j // s and is h_out*Wq long. Each tap is one
# matmul straight on that strided view; the Wq - w_out wrap-around columns
# of each output row are garbage and cropped at the end. The taps are summed
# in the order of the old tensordot tap loop; at the model's shapes the
# forward output is bit-identical to it.

def _phase_origins(padding: int, stride: int):
    """(phase a, first phase index r0, first input index y0) along one axis:
    input index y0 + s*t is entry r0 + t of phase a."""
    for a in range(stride):
        r0 = -(-(padding - a) // stride)
        yield a, r0, a + stride * r0 - padding


def _phase_planes(xf: np.ndarray, h: int, w: int, padding: int,
                  stride: int) -> np.ndarray:
    """The [B, C, s, s, Hq, Wq] view of the phases in xf[B, C, s*s, L]."""
    hq = -(-(h + 2 * padding) // stride)
    wq = -(-(w + 2 * padding) // stride)
    return xf[..., :hq * wq].reshape(*xf.shape[:2], stride, stride, hq, wq)


def _flat_pad(x: np.ndarray, padding: int, tail: int,
              stride: int = 1) -> tuple[np.ndarray, int]:
    """(xf[B, C, s*s, Hq*Wq + tail], Wq): the stride phases of x zero-padded,
    rows flattened and `tail` zeros appended so the last tap window stays in
    bounds."""
    b_, c, h, w = x.shape
    wq = -(-(w + 2 * padding) // stride)
    if stride == 1 and padding == 0 and tail == 0:
        return x.reshape(b_, c, 1, h * w), wq
    hq = -(-(h + 2 * padding) // stride)
    xf = np.zeros((b_, c, stride * stride, hq * wq + tail), dtype=x.dtype)
    planes = _phase_planes(xf, h, w, padding, stride)
    for a, r0, y0 in _phase_origins(padding, stride):
        for e, c0, x0 in _phase_origins(padding, stride):
            src = x[:, :, y0::stride, x0::stride]
            planes[:, :, a, e, r0:r0 + src.shape[2], c0:c0 + src.shape[3]] = src
    return xf, wq


def _flat_unpad(xf: np.ndarray, h: int, w: int, padding: int,
                stride: int = 1) -> np.ndarray:
    """Inverse of _flat_pad: the [B, C, h, w] array that xf holds."""
    planes = _phase_planes(xf, h, w, padding, stride)
    if stride == 1:
        return planes[:, :, 0, 0, padding:padding + h, padding:padding + w]
    x = np.empty((*xf.shape[:2], h, w), dtype=xf.dtype)
    for a, r0, y0 in _phase_origins(padding, stride):
        for e, c0, x0 in _phase_origins(padding, stride):
            dst = x[:, :, y0::stride, x0::stride]
            dst[...] = planes[:, :, a, e, r0:r0 + dst.shape[2],
                              c0:c0 + dst.shape[3]]
    return x


def _flat_grad(g: np.ndarray, wq: int) -> np.ndarray:
    """g[B, C, H, W] -> [B, C, H*Wq] with zeros in the wrap-around columns."""
    b_, c, h, w = g.shape
    if w == wq:
        return g.reshape(b_, c, h * w)
    gf = np.zeros((b_, c, h, wq), dtype=g.dtype)
    gf[..., :w] = g
    return gf.reshape(b_, c, h * wq)


def _flat_taps(xf: np.ndarray, taps, length: int) -> np.ndarray:
    """sum over (phase, off, w_tap) of
    w_tap[Cout, Cin] @ xf[:, :, phase, off:off+length]."""
    acc = tmp = None
    for ph, off, wt in taps:
        view = xf[:, :, ph, off:off + length]
        if acc is None:
            acc = np.matmul(wt, view)
        else:
            if tmp is None:
                tmp = np.empty_like(acc)
            acc += np.matmul(wt, view, out=tmp)
    return acc


def _flat_taps_backward(gf: np.ndarray, xf: np.ndarray, taps,
                        dxf: Optional[np.ndarray], need_dw: bool) -> list:
    """Backward of _flat_taps: adds each tap's input gradient into dxf (when
    given) and returns the per-tap weight gradients (when need_dw)."""
    length = gf.shape[2]
    dws = []
    tmp = None
    for ph, off, wt in taps:
        view = xf[:, :, ph, off:off + length]
        if need_dw:
            dws.append(np.matmul(gf, view.swapaxes(1, 2)).sum(axis=0))
        if dxf is not None:
            if tmp is None:
                tmp = np.empty((gf.shape[0], wt.shape[1], length), gf.dtype)
            dxf[:, :, ph, off:off + length] += np.matmul(wt.T, gf, out=tmp)
    return dws


def _conv_taps(wt: np.ndarray, wq: int, row0: int = 0, col0: int = 0,
               stride: int = 1):
    """(phase, flat offset, [Cout, Cin] weight) for every tap of the
    tap-major, contiguous wt[kh, kw, Cout, Cin] (contiguous taps keep matmul
    on BLAS)."""
    s = stride
    return [((i % s) * s + j % s, (row0 + i // s) * wq + col0 + j // s,
             wt[i, j])
            for i in range(wt.shape[0]) for j in range(wt.shape[1])]


def _tap_major(wd: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(wd.transpose(2, 3, 0, 1))


def _flat_conv(xd: np.ndarray, wd: np.ndarray, stride: int,
               padding: int) -> np.ndarray:
    b_, _, h, w = xd.shape
    k = wd.shape[2]
    h_out, w_out = _conv_geometry(h, w, k, stride, padding)
    xf, wq = _flat_pad(xd, padding, (k - 1) // stride, stride)
    taps = _conv_taps(_tap_major(wd), wq, stride=stride)
    acc = _flat_taps(xf, taps, h_out * wq)
    return acc.reshape(b_, -1, h_out, wq)[..., :w_out]


def _flat_conv_grads(g, xd, wd, stride, padding, need_dx, need_dw):
    h, w = xd.shape[2:]
    cout, cin, k, _ = wd.shape
    xf, wq = _flat_pad(xd, padding, (k - 1) // stride, stride)
    dxf = np.zeros_like(xf) if need_dx else None
    dws = _flat_taps_backward(_flat_grad(g, wq), xf,
                              _conv_taps(_tap_major(wd), wq, stride=stride),
                              dxf, need_dw)
    dw = (np.stack(dws).reshape(k, k, cout, cin).transpose(2, 3, 0, 1)
          if need_dw else None)
    return (_flat_unpad(dxf, h, w, padding, stride) if need_dx else None), dw


# Strided convs from a thin input to a wide output (enc0: 2 -> 32 channels):
# im2col, one GEMM with K = cin*k^2 in place of k^2 GEMMs with K = cin that
# each rewrite the wide output. In a 3x3 stride-2 sweep (B = 10, 64^2 and
# 128^2 inputs, cin 2-32, cout 4-32, forward + backward) im2col won at
# cout = 8 and 16 times cin, the per-tap GEMMs won at cout <= 2 cin, and
# cout = 4 cin was a tie. Summing all taps in one GEMM also moves float32
# results: im2col at enc1 (32 -> 8) shifted the Otsu mask count of a
# full-config forecast by more than 1% on one benchmark seed.

def _im2col(xd, k, stride, padding, h_out, w_out) -> np.ndarray:
    xp = _pad2d(xd, padding)
    b_, cin = xd.shape[:2]
    cols = np.empty((b_, cin, k, k, h_out, w_out), dtype=xd.dtype)
    for i in range(k):
        for j in range(k):
            cols[:, :, i, j] = _tap(xp, i, j, stride, h_out, w_out)
    return cols.reshape(b_, cin * k * k, h_out * w_out)


def _im2col_conv(xd, wd, stride, padding) -> np.ndarray:
    cout, _, k, _ = wd.shape
    h_out, w_out = _conv_geometry(*xd.shape[2:], k, stride, padding)
    cols = _im2col(xd, k, stride, padding, h_out, w_out)
    out = np.matmul(wd.reshape(cout, -1), cols)
    return out.reshape(xd.shape[0], cout, h_out, w_out)


def _im2col_conv_grads(g, xd, wd, stride, padding, need_dx, need_dw):
    b_, cin, h, w = xd.shape
    cout, _, k, _ = wd.shape
    h_out, w_out = g.shape[2:]
    g2 = g.reshape(b_, cout, h_out * w_out)
    dw = dx = None
    if need_dw:
        cols = _im2col(xd, k, stride, padding, h_out, w_out)
        dw = np.matmul(g2, cols.swapaxes(1, 2)).sum(axis=0).reshape(wd.shape)
    if need_dx:
        dcols = np.matmul(wd.reshape(cout, -1).T, g2).reshape(
            b_, cin, k, k, h_out, w_out)
        gxp = np.zeros((b_, cin, h + 2 * padding, w + 2 * padding),
                       dtype=xd.dtype)
        for i in range(k):
            for j in range(k):
                _tap(gxp, i, j, stride, h_out, w_out)[...] += dcols[:, :, i, j]
        dx = _unpad2d(gxp, padding)
    return dx, dw


# Depthwise taps as one einsum. The input is transposed and zero-padded to
# [B, C, Wp, Hp]; copy i of its rows i*d .. i*d + h_out - 1 goes on a tap
# axis, flattened to [B, C, k, Wp*h_out]. With output pixels numbered
# column-major, n = col*h_out + row, tap (i, j) of pixel n is entry
# n + j*d*h_out of copy i, so one strided view [B, C, k, k, w_out*h_out]
# holds every tap window. Its strides fall i > j > n, so einsum's inner
# loop runs over the long n axis and adds each pixel's taps in the order
# (i, j) of a tap loop, each product rounded before its add. At h_out = 1
# and d = 1 the j and n strides tie, and einsum may pick another order.

def _depthwise_windows(x: np.ndarray, k: int, dilation: int,
                       padding: int) -> tuple[np.ndarray, int, int]:
    """(read-only tap windows [B, C, k, k, w_out*h_out], h_out, w_out) of
    x[B, C, H, W] for a k x k depthwise correlation; padding < 0 crops."""
    if padding < 0:
        x = x[:, :, -padding:padding, -padding:padding]
        padding = 0
    b_, c, h, w = x.shape
    h_out, w_out = _conv_geometry(h, w, k, 1, padding, dilation)
    xp = np.zeros((b_, c, w + 2 * padding, h + 2 * padding), dtype=x.dtype)
    xp[:, :, padding:padding + w, padding:padding + h] = x.transpose(0, 1, 3, 2)
    rows = sliding_window_view(xp, h_out, axis=3)[:, :, :, ::dilation]
    taps = np.ascontiguousarray(rows.transpose(0, 1, 3, 2, 4))
    taps = taps.reshape(b_, c, k, -1)
    sb, sc, si, sn = taps.strides
    view = as_strided(taps, (b_, c, k, k, w_out * h_out),
                      (sb, sc, si, dilation * h_out * sn, sn), writeable=False)
    return view, h_out, w_out


def _depthwise(x: np.ndarray, wd: np.ndarray, dilation: int,
               padding: int) -> np.ndarray:
    """Depthwise correlation of x[B, C, H, W] with wd[C, 1, k, k]."""
    view, h_out, w_out = _depthwise_windows(x, wd.shape[-1], dilation, padding)
    out = np.einsum('bcijn,cij->bcn', view, wd[:, 0])
    return out.reshape(*x.shape[:2], w_out, h_out).transpose(0, 1, 3, 2)


def _depthwise_grads(g, xd, wd, dilation, padding, need_dx, need_dw):
    k = wd.shape[2]
    dx = dw = None
    if need_dw:
        view = _depthwise_windows(xd, k, dilation, padding)[0]
        gt = np.ascontiguousarray(g.transpose(0, 1, 3, 2))
        dw = np.einsum('bcn,bcijn->cij', gt.reshape(*g.shape[:2], -1),
                       view)[:, None]
    if need_dx:
        # the forward kernel on g with the kernel flipped: full padding
        # d(k-1) less the forward's, a crop when the forward padded more
        dx = _depthwise(g, wd[:, :, ::-1, ::-1], dilation,
                        dilation * (k - 1) - padding)
    return dx, dw


def _phase_folds(k: int, dtype) -> tuple[int, list, np.ndarray]:
    """Sub-pixel split of a "same" k x k conv on a nearest-2x upsample.

    Output row 2y+a reads upsampled rows 2y+a+i-p (p = (k-1)//2), that is
    input row y + (a+i-p)//2: the k taps fall on p+1 distinct input rows.
    Returns the input padding q = ceil(p/2), the first padded row each
    parity a reads, and fold[a, d, i] = 1 when tap i of parity a lands on
    its row d.
    """
    p = (k - 1) // 2
    q = (p + 1) // 2
    fold = np.zeros((2, p + 1, k), dtype=dtype)
    first = []
    for a in (0, 1):
        rows = [(a + i - p) // 2 for i in range(k)]
        fold[a, np.array(rows) - rows[0], np.arange(k)] = 1.0
        first.append(q + rows[0])
    return q, first, fold


def _phase_weights(wd: np.ndarray, fold: np.ndarray) -> np.ndarray:
    """Summed taps w_eff[a, c, d, e, Cout, Cin] of every parity pair (a, c)."""
    w = np.tensordot(fold, wd, axes=([2], [2]))      # [a, d, O, C, j]
    w = np.tensordot(w, fold, axes=([4], [2]))       # [a, d, O, C, c, e]
    return np.ascontiguousarray(w.transpose(0, 4, 1, 5, 2, 3))


def _upsample2_conv(xd: np.ndarray, wd: np.ndarray) -> np.ndarray:
    b_, _, h, w = xd.shape
    cout, _, k, _ = wd.shape
    q, first, fold = _phase_folds(k, wd.dtype)
    w_eff = _phase_weights(wd, fold)
    # the output first: the padded input and tap buffers, once freed, leave
    # one heap hole that fits conv_ln_gelu's LN buffer (forecast RSS -1.2 MB)
    data = np.empty((b_, cout, h, 2, w, 2), dtype=xd.dtype)
    xf, wp = _flat_pad(xd, q, 2 * q)

    def parity(a):  # output rows 2y + a; each GEMM result freed at once
        for c in (0, 1):
            taps = _conv_taps(w_eff[a, c], wp, first[a], first[c])
            data[:, :, :, a, :, c] = _flat_taps(xf, taps, h * wp).reshape(
                b_, cout, h, wp)[..., :w]
    parallel.both(partial(parity, 0), partial(parity, 1))
    return data.reshape(b_, cout, 2 * h, 2 * w)


def _upsample2_conv_grads(g, xd, wd, need_dx, need_dw):
    b_, _, h, w = xd.shape
    cout, _, k, _ = wd.shape
    q, first, fold = _phase_folds(k, wd.dtype)
    w_eff = _phase_weights(wd, fold)
    xf, wp = _flat_pad(xd, q, 2 * q)
    dxf = np.zeros_like(xf) if need_dx else None
    dw_eff = np.empty_like(w_eff) if need_dw else None
    g6 = g.reshape(b_, cout, h, 2, w, 2)
    for a in (0, 1):
        for c in (0, 1):
            dws = _flat_taps_backward(
                _flat_grad(g6[:, :, :, a, :, c], wp), xf,
                _conv_taps(w_eff[a, c], wp, first[a], first[c]), dxf, need_dw)
            if need_dw:
                dw_eff[a, c] = np.stack(dws).reshape(w_eff.shape[2:])
    dw = None
    if need_dw:
        # fold each parity's summed-tap gradient back onto the k x k taps
        dw = np.tensordot(fold, dw_eff, axes=([0, 1], [0, 2]))  # [i, c, e, O, C]
        dw = np.tensordot(dw, fold, axes=([1, 2], [0, 1]))      # [i, O, C, j]
        dw = dw.transpose(1, 2, 0, 3)
    return (_flat_unpad(dxf, h, w, q) if need_dx else None), dw


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           stride: int = 1, padding: int = 0, dilation: int = 1,
           upsample: bool = False) -> Tensor:
    """Cross-correlation of x[B, Cin, H, W]; the weight's shape picks the
    kernel, as the module docstring lists.

    weight[Cout, Cin, k, k] is dense, at dilation 1. weight[Cin, 1, k, k]
    at stride 1 is depthwise, channel c seeing only channel c, at any
    dilation; a [1, 1, k, k] weight takes it too, for the same sum. The
    depthwise forward is einsum('bcijn,cij->bcn') over the tap windows of
    _depthwise_windows, with the bytes of a tap loop that adds
    x_tap * w[c, i, j] for i, then j; a numpy build whose einsum kernels
    fused multiply-add would change them, which the depthwise tests in
    tests/test_tensor_ops.py would catch. dw is einsum('bcn,bcijn->cij')
    over the same windows; dx is the forward kernel on the output gradient
    with the kernel flipped and padding d(k-1) - padding (a crop when
    negative).

    upsample=True convolves the nearest-2x upsample of x without building
    it; it needs stride 1, dilation 1, a dense weight and padding (k-1)//2.
    """
    x, weight, conv, grads, (bias,) = _conv_route(
        "conv2d", x, weight, stride, padding, dilation, upsample, bias=bias)
    data = np.ascontiguousarray(conv(x.data, weight.data))
    if bias is not None:
        data += bias.data[None, :, None, None]

    def vjp(g):
        yield from grads(g, x.data, weight.data, need_dx=x.requires_grad,
                         need_dw=weight.requires_grad)
        yield g.sum(axis=(0, 2, 3))
    return _track(data, (x, weight, bias), vjp)


def _conv_route(name: str, x: Tensor, weight: Tensor, stride: int,
                padding: int, dilation: int, upsample: bool, **vectors):
    """(x, weight, conv, grads, vectors) for a checked conv call. conv(xd,
    wd) is the bias-free forward of the kernel that upsample and the
    weight's shape pick; grads(g, xd, wd, need_dx=, need_dw=) -> (dx, dw)
    rebuilds its buffers from xd and wd, so the tape holds no padded
    copies. The per-output-channel operands (bias; gamma, beta) come back
    as a list of tensors, each None or checked to be of shape (Cout,)."""
    x, weight = as_tensor(x), as_tensor(weight)
    if len(x.shape) != 4 or len(weight.shape) != 4:
        raise ShapeError(f"{name}: input and weight must be 4-d, got "
                         f"{x.shape} and {weight.shape}")
    cin, (cout, cw, k, k2) = x.shape[1], weight.shape
    if k != k2 or k % 2 == 0:
        raise ShapeError(f"{name}: kernel must be odd square, got {k}x{k2}")
    for arg, value, least in (("stride", stride, 1), ("padding", padding, 0),
                              ("dilation", dilation, 1)):
        if not isinstance(value, (int, np.integer)):
            raise ShapeError(f"{name}: {arg} must be an integer, got "
                             f"{value!r}")
        if value < least:
            raise ShapeError(f"{name}: {arg} must be >= {least}, got {value}")
    checked = [None if t is None else as_tensor(t) for t in vectors.values()]
    for arg, t in zip(vectors, checked):
        if t is not None and t.shape != (cout,):
            raise ShapeError(f"{name}: {arg} shape {t.shape} != out channel "
                             f"dim ({cout},)")

    depthwise = cw == 1 and cout == cin and stride == 1 and not upsample
    if upsample:
        for arg, value, need in (("stride", stride, 1),
                                 ("dilation", dilation, 1),
                                 ("padding", padding, (k - 1) // 2)):
            if value != need:
                raise ShapeError(f"{name}: upsample needs {arg} {need}, got "
                                 f"{value}")
    elif cw == 1 and cout == cin > 1 and stride > 1:
        raise ShapeError(f"{name}: depthwise weight {weight.shape} needs "
                         f"stride 1, got stride {stride}")
    if not depthwise and cw != cin:
        raise ShapeError(
            f"{name}: input channel dim {cin} != weight channel dim {cw}")
    if not depthwise and dilation > 1:
        raise ShapeError(f"{name}: dilation {dilation} needs a depthwise "
                         f"weight [C, 1, k, k], got {weight.shape}")

    if upsample:
        fwd, bwd, kw = _upsample2_conv, _upsample2_conv_grads, {}
    elif depthwise:
        fwd, bwd, kw = (_depthwise, _depthwise_grads,
                        dict(dilation=dilation, padding=padding))
    elif stride > 1 and cout > 4 * cin:
        fwd, bwd, kw = (_im2col_conv, _im2col_conv_grads,
                        dict(stride=stride, padding=padding))
    else:
        fwd, bwd, kw = (_flat_conv, _flat_conv_grads,
                        dict(stride=stride, padding=padding))
    return x, weight, partial(fwd, **kw), partial(bwd, **kw), checked


def layer_norm_channels(x: Tensor, gamma: Tensor, beta: Tensor,
                        eps: float = 1e-6) -> Tensor:
    """Normalize the channel vector at every (b, h, w) location."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if len(x.shape) != 4:
        raise ShapeError(
            f"layer_norm_channels: input must be 4-d, got {x.shape}")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(
            f"layer_norm_channels: gamma/beta must have shape ({c},), "
            f"got {gamma.shape} / {beta.shape}")
    data, xn, inv = _layer_norm(x.data, gamma.data, beta.data, eps)
    return _track(data, (x, gamma, beta), lambda g: _layer_norm_grads(
        g, xn, inv, gamma.data, x.requires_grad))


def _layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                eps: float, out: Optional[np.ndarray] = None):
    """(data, xn, inv): x[B, C, H, W] normalized over its channels, its
    normalized copy and 1/std; gamma and beta are [C]. With more than one
    location, the means add the channels in index order (numpy sums a lone
    location's channels pairwise). Two full-size buffers: xn (first
    x - mu, into `out` when given) and data (first its square)."""
    mu = x.mean(axis=1, keepdims=True)
    xn = np.subtract(x, mu, out=out)
    data = np.multiply(xn, xn)
    var = data.mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xn *= inv
    np.multiply(gamma[:, None, None], xn, out=data)
    data += beta[:, None, None]
    return data, xn, inv


def _bias_ln_gelu(c: np.ndarray, bias: np.ndarray, gamma: np.ndarray,
                  beta: np.ndarray, eps: float) -> None:
    """c <- gelu(layer_norm(c + bias)) in place, with the bytes of the three
    steps and one more buffer, the LN output; GELU's cdf takes LN's xn."""
    c += bias[:, None, None]
    y, xn, _ = _layer_norm(c, gamma, beta, eps, out=c)
    cdf = _gelu_cdf(y, out=xn)
    np.multiply(y, cdf, out=cdf)


def _layer_norm_grads(g, xn, inv, gamma, need_dx: bool):
    """Yields the gradients of layer_norm_channels' x (None unless
    need_dx), gamma and beta."""
    if need_dx:
        # inv * (gn - m1 - xn * m2) in two buffers, the bits of the
        # expression form
        gn = g * gamma[None, :, None, None]
        m1 = gn.mean(axis=1, keepdims=True)
        t = np.multiply(gn, xn)
        m2 = t.mean(axis=1, keepdims=True)
        gn -= m1
        np.multiply(xn, m2, out=t)
        gn -= t
        del t
        gn *= inv
        yield gn
        del gn
    else:
        yield None
    yield np.einsum('bchw,bchw->c', g, xn, optimize=True)
    yield g.sum(axis=(0, 2, 3))


# ---------------------------------------------------------------------------
# conv -> layer norm -> GELU stages, with the sparse stem
# ---------------------------------------------------------------------------

# An output location whose k x k input window holds only zeros has conv
# output = bias there, so gelu(layer_norm(bias)), the background, every
# time. Such a window is an all-zero column of _im2col's matrix, so
# conv_ln_gelu selects the other columns, pads them with zero windows to a
# whole number of parallel.GEMM_COLUMN_GROUP columns and runs one GEMM on
# that block; the first padding column is the background.
# The padding keeps the bits by parallel's column-group condition (its
# module docstring). So the sparse route also needs output planes of whole
# groups, where the dense GEMM has no trailing group either. Past about 70%
# active locations the dense kernels are faster; _STEM_MAX_ACTIVE leaves a
# margin.
_STEM_MAX_ACTIVE = 0.5


def _stem_active(cols: np.ndarray) -> Optional[np.ndarray]:
    """Flat indices b*M + p of the columns of cols[B, K, M] that hold a
    nonzero value: the output locations whose window does. None, for the
    dense route, when M is not a whole number of column groups or more than
    _STEM_MAX_ACTIVE of the columns are active."""
    if cols.shape[2] % parallel.GEMM_COLUMN_GROUP:
        return None
    active = cols.any(axis=1)
    where = np.flatnonzero(active)
    return None if where.size > _STEM_MAX_ACTIVE * active.size else where


def _stem_columns(cols: np.ndarray, where: np.ndarray) -> np.ndarray:
    """[K, Mt]: the flat columns `where` of cols[B, K, M], then zero windows
    up to Mt, the next multiple of parallel.GEMM_COLUMN_GROUP above
    len(where)."""
    m, group = where.size, parallel.GEMM_COLUMN_GROUP
    block = np.zeros((cols.shape[1], (m // group + 1) * group),
                     dtype=cols.dtype)
    b_idx, p_idx = np.divmod(where, cols.shape[2])
    block[:, :m] = cols[b_idx, :, p_idx].T
    return block


def _stem_scatter(block: np.ndarray, where: np.ndarray,
                  shape: tuple) -> np.ndarray:
    """[B, C, H, W] array holding column n of block[1, C, Mt, 1] at flat
    location where[n], and column len(where), the background, everywhere
    else."""
    m = where.size
    block = block.reshape(shape[1], -1)
    out = np.empty((shape[0], shape[1], shape[2] * shape[3]),
                   dtype=block.dtype)
    out[...] = block[:, m, None]
    b_idx, p_idx = np.divmod(where, out.shape[2])
    out[b_idx, :, p_idx] = block[:, :m].T
    return out.reshape(shape)


def conv_ln_gelu(x: Tensor, weight: Tensor, bias: Tensor, gamma: Tensor,
                 beta: Tensor, stride: int = 1, padding: int = 0,
                 upsample: bool = False, eps: float = 1e-6) -> Tensor:
    """gelu(layer_norm_channels(conv2d(x, weight, bias, stride, padding,
    upsample=upsample), gamma, beta, eps)), with the same bytes, as one op:
    every encoder and decoder stage of the model.

    When conv2d would take im2col (the stem, enc0), the im2col matrix is
    built once. If _stem_active finds few enough nonzero columns, the GEMM
    runs on _stem_columns' selection of them, as a [1, Cout, Mt, 1] block,
    and _stem_scatter gives every other location the background; if not, on
    the whole matrix. Any other stage runs conv2d's kernel. Each route then
    adds the bias to the conv's buffer, and LN centres it in place; that
    pays for holding x until the op returns. The tape keeps LN's xn and
    1/std, the LN output and GELU's cdf, dense in every case, and no conv
    output; the backward is the three ops'. With no tape recording,
    _bias_ln_gelu runs in the conv's buffer instead, as a parallel.split
    by rows.
    """
    x, weight, conv, grads, (bias, gamma, beta) = _conv_route(
        "conv_ln_gelu", x, weight, stride, padding, 1, upsample, bias=bias,
        gamma=gamma, beta=beta)
    inputs = (x, weight, bias, gamma, beta)
    keep = _recording(inputs)

    where = None
    if conv.func is _im2col_conv:
        cout, _, k, _ = weight.shape
        shape = (x.shape[0], cout,
                 *_conv_geometry(*x.shape[2:], k, stride, padding))
        cols = _im2col(x.data, k, stride, padding, *shape[2:])
        where = _stem_active(cols)
        if where is not None:
            cols = _stem_columns(cols, where)
        c = np.matmul(weight.data.reshape(cout, -1), cols)
        del cols
        c = c.reshape(shape) if where is None else c[None, :, :, None]
    else:
        c = np.ascontiguousarray(conv(x.data, weight.data))
    if keep:
        c += bias.data[:, None, None]
        y, xn, inv = _layer_norm(c, gamma.data, beta.data, eps, out=c)
        cdf = _gelu_cdf(y)
        data = np.multiply(y, cdf)
    else:
        # per location, so any cut keeps its bits
        parallel.split(partial(_bias_ln_gelu, bias=bias.data,
                               gamma=gamma.data, beta=beta.data, eps=eps),
                       c, axis=2)
        data = c
    if where is not None:
        data = _stem_scatter(data, where, shape)
        if keep:
            y, xn, cdf = (_stem_scatter(a, where, shape) for a in (y, xn, cdf))
            inv = _stem_scatter(inv, where, (shape[0], 1, *shape[2:]))

    def vjp(g):
        gc, dgamma, dbeta = _layer_norm_grads(_gelu_grad(g, y, cdf), xn, inv,
                                              gamma.data, need_dx=True)
        yield from grads(gc, x.data, weight.data, need_dx=x.requires_grad,
                         need_dw=weight.requires_grad)
        yield gc.sum(axis=(0, 2, 3))
        del gc
        yield dgamma
        yield dbeta
    return _track(data, inputs, vjp)


# ---------------------------------------------------------------------------
# distribution ops
# ---------------------------------------------------------------------------

def softmax_temp(x: Tensor, tau: float) -> Tensor:
    """Temperature softmax along the last axis, with max-subtraction."""
    if tau <= 0:
        raise ValueError(f"softmax_temp: tau must be > 0, got {tau}")
    x = as_tensor(x)
    # one full-size buffer, the bits of the expression form
    p = x.data / tau
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = (g * p).sum(axis=-1, keepdims=True)
        return ((g - dot) * p / tau,)
    return _track(p, (x,), vjp)


def kl_div(p: Tensor, q: Tensor, eps: float = 1e-8) -> Tensor:
    """sum p * log((p+eps)/(q+eps)); rows along the last axis are distributions.

    For stacked inputs this is the sum of per-row divergences; callers divide
    by the row count to take means. The tape keeps one derivative array per
    input that needs a gradient, (lp - lq) + p/(p+eps) for p and
    -p/(q+eps) for q, and no reference to an input that does not.
    """
    p, q = as_tensor(p), as_tensor(q)
    if p.shape != q.shape:
        raise ShapeError(f"kl_div: shapes {p.shape} != {q.shape} differ")
    for name, t in (("p", p), ("q", q)):
        if np.any(t.data < 0):
            raise ValueError(f"kl_div: {name} has negative entries")
        sums = t.data.sum(axis=-1)
        if not np.allclose(sums, 1.0, atol=1e-4):
            raise ValueError(f"kl_div: {name} rows do not sum to 1")
    lr = np.add(p.data, eps)
    np.log(lr, out=lr)
    lq = np.add(q.data, eps)
    lr -= np.log(lq, out=lq)               # lp - lq
    del lq
    val = np.asarray((p.data * lr).sum(), dtype=p.dtype)
    # each input's derivative without the vjp's factor g, each quotient
    # in one buffer (as expressions, they made a train step's memory peak)
    dp = dq = None
    keep = _recording((p, q))
    if keep and p.requires_grad:
        pe = np.add(p.data, eps)
        lr += np.divide(p.data, pe, out=pe)
        dp = lr
    if keep and q.requires_grad:
        dq = np.add(q.data, eps)
        np.negative(np.divide(p.data, dq, out=dq), out=dq)
    return _track(val, (p, q), lambda g: (None if d is None else g * d
                                          for d in (dp, dq)))


# ---------------------------------------------------------------------------
# gating / pooling ops
# ---------------------------------------------------------------------------

def masked_mean_pool(x: Tensor, mask: np.ndarray, eps: float = 1e-8) -> Tensor:
    """Spatial mean of x[B,C,H,W] over a constant {0,1} mask[B,1,H,W]."""
    x = as_tensor(x)
    if len(x.shape) != 4:
        raise ShapeError(
            f"masked_mean_pool: input must be 4-d, got {x.shape}")
    mask = mask.astype(x.dtype, copy=False)
    if mask.shape != (x.shape[0], 1, x.shape[2], x.shape[3]):
        raise ShapeError(
            f"masked_mean_pool: mask shape {mask.shape} incompatible with {x.shape}")
    den = mask.sum(axis=(2, 3)) + eps            # [B,1]
    num = (x.data * mask).sum(axis=(2, 3))       # [B,C]
    return _track(num / den, (x,), lambda g: (
        g[:, :, None, None] * (mask / den[:, :, None, None]),))


def gated_product(gate: Tensor, features: Tensor,
                  base: Optional[Tensor] = None) -> Tensor:
    """gate[B,C] (broadcast over space) * features, optionally * (1 + base).

    The three-factor form is the multiplicative-residual interaction; with
    base=None it degrades to a plain channel gate (ablation switch): the
    factor is then 1.0, and x * 1.0 == x exactly.
    """
    gate, features = as_tensor(gate), as_tensor(features)
    if len(features.shape) != 4:
        raise ShapeError(
            f"gated_product: features must be 4-d, got {features.shape}")
    if gate.shape != features.shape[:2]:
        raise ShapeError(
            f"gated_product: gate shape {gate.shape} != feature channels "
            f"{features.shape[:2]}")
    onep = 1.0
    if base is not None:
        base = as_tensor(base)
        if base.shape != features.shape:
            raise ShapeError(f"gated_product: base shape {base.shape} != "
                             f"features {features.shape}")
        onep = 1.0 + base.data
    g4 = gate.data[:, :, None, None]

    def vjp(g):
        yield ((g * features.data * onep).sum(axis=(2, 3))
               if gate.requires_grad else None)
        yield g * g4 * onep if features.requires_grad else None
        yield g * g4 * features.data
    return _track(g4 * features.data * onep, (gate, features, base), vjp)


# ---------------------------------------------------------------------------
# loss kernels
# ---------------------------------------------------------------------------

def focal_loss_map(logits: Tensor, targets: np.ndarray, alpha: float,
                   gamma: float, eps: float = 1e-8) -> Tensor:
    """Elementwise focal binary cross-entropy from logits.

    -alpha*y*(1-p)^gamma*log(p+eps) - (1-alpha)*(1-y)*p^gamma*log(1-p+eps)
    with p = sigmoid(logits). Targets are binary, so each cell is one term
    on the true-class logit t = s (y = 1) or t = -s (y = 0):

        -w * (1 - sigmoid(t))^gamma * log(sigmoid(t) + eps),
        w = alpha (y = 1) or 1 - alpha (y = 0).

    One e = exp(-|s|) gives sigmoid(t) and 1 - sigmoid(t) (the bits of
    `_sigmoid`), log sigmoid(t) = -(max(-t, 0) + log1p(e)), and
    log(sigmoid(t) + eps) = max(a, log eps) + log1p(exp(-|a - log eps|))
    for a = log sigmoid(t), so saturated logits stay finite. Under a tape
    the forward also computes dL/ds = sign(t/s) * dL/dt without the final
    factor of the output gradient, and the tape keeps that one array.
    """
    logits = as_tensor(logits)
    y = np.asarray(targets)
    if y.shape != logits.shape:
        raise ShapeError(
            f"focal_loss_map: target shape {y.shape} != logits {logits.shape}")
    if not is_binary(y):
        raise ValueError("focal_loss_map: targets must be binary {0,1}")
    y = y.astype(logits.dtype, copy=False)
    log_eps = math.log(eps)

    # flat views: every ufunc then returns an array, a 0-d input included
    s = logits.data.reshape(-1)
    yf = y.reshape(-1)
    buf = np.multiply(yf, 2.0)
    buf -= 1.0
    t = np.multiply(s, buf)                # true-class logit
    st = np.greater_equal(t, 0.0, out=np.empty_like(s))
    e = np.abs(s)
    np.negative(e, out=e)
    np.exp(e, out=e)                       # exp(-|s|)
    # the log term is built in place of t
    np.log1p(e, out=buf)
    np.negative(t, out=t)
    np.maximum(t, 0.0, out=t)
    t += buf                               # -a, a = log sigmoid(t)
    np.add(t, log_eps, out=buf)
    np.abs(buf, out=buf)
    np.negative(buf, out=buf)
    np.exp(buf, out=buf)
    np.log1p(buf, out=buf)
    np.negative(t, out=t)
    np.maximum(t, log_eps, out=t)
    logt = np.add(t, buf, out=t)           # log(sigmoid(t) + eps)
    # numerators 1 or e: max(e, [t >= 0]) and max(e, [t < 0]), as in _sigmoid
    sf = np.subtract(1.0, st, out=buf)
    np.maximum(e, st, out=st)
    np.maximum(e, sf, out=sf)
    np.add(e, 1.0, out=e)
    st /= e                                # sigmoid(t)
    sf /= e                                # 1 - sigmoid(t)
    sfg = np.power(sf, gamma, out=e)
    data = np.empty_like(s)
    # with no node recorded, no derivative is needed
    keep = _recording((logits,))
    if keep:
        # sf is needed only as sf/(st+eps); data is the scratch for st+eps
        np.divide(sf, np.add(st, eps, out=data), out=sf)
    np.multiply(yf, 1.0 - 2.0 * alpha, out=data)
    data += alpha - 1.0                    # -w
    data *= sfg
    data *= logt
    d = None
    if keep:
        # dL/dt = w*st*sfg*(gamma*logt - sf/(st+eps)); sign*w = y+alpha-1
        d = np.multiply(logt, gamma, out=logt)
        d -= sf
        d *= st
        d *= sfg
        d *= np.add(yf, alpha - 1.0, out=sf)

    def vjp(g):
        # the tape is single-use, so d can take the product in place
        np.multiply(d, g.reshape(-1), out=d)
        return (d.reshape(logits.shape),)
    return _track(data.reshape(logits.shape), (logits,), vjp)


# ---------------------------------------------------------------------------
# non-differentiable / stochastic ops
# ---------------------------------------------------------------------------

def quantile_nearest_rank(values: Union[Tensor, np.ndarray], q: float) -> float:
    """Nearest-rank quantile: sorted[ceil(q*N) - 1]. Constant in backward."""
    if isinstance(values, Tensor):
        values = values.data
    flat = np.asarray(values).reshape(-1)
    if flat.size == 0:
        raise ValueError("quantile_nearest_rank: empty input")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile_nearest_rank: q must be in (0, 1], got {q}")
    rank = math.ceil(q * flat.size)
    return float(np.sort(flat)[rank - 1])


def drop_path(x: Tensor, rate: float, training: bool,
              rng: Optional[np.random.Generator] = None) -> Tensor:
    """Stochastic depth: per-sample branch drop with 1/(1-rate) rescale."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"drop_path: rate must be in [0, 1), got {rate}")
    x = as_tensor(x)
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("drop_path: training mode with rate > 0 needs an rng")
    keep = 1.0 - rate
    mask = (rng.random(x.shape[0]) < keep).astype(x.dtype) / keep
    mask = mask.reshape((x.shape[0],) + (1,) * (x.data.ndim - 1))
    return scale(x, mask)
