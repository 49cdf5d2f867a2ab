"""Op-level tests.

Expected values come from independent oracles implemented here with plain
nested loops and sorting, not from the library code under test.
"""

import inspect
import math
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.special import erf

from etide.model import ModelConfig, init_params
from etide.numerics import (ShapeError, Tape, Tensor,
                            grad_check, ops, op_suite_cases, run_op_suite)
from etide.numerics.tensor import Parameter


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def conv2d_oracle(x, w, b=None, stride=1, padding=0, dilation=1,
                  depthwise=False):
    """Reference cross-correlation with explicit nested loops."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    bsz, cin, h, wdt = x.shape
    k = w.shape[2]
    span = dilation * (k - 1) + 1
    h_out = (h + 2 * padding - span) // stride + 1
    w_out = (wdt + 2 * padding - span) // stride + 1
    cout = cin if depthwise else w.shape[0]
    out = np.zeros((bsz, cout, h_out, w_out))
    xp = np.zeros((bsz, cin, h + 2 * padding, wdt + 2 * padding))
    xp[:, :, padding:padding + h, padding:padding + wdt] = x
    for n in range(bsz):
        for co in range(cout):
            for oy in range(h_out):
                for ox in range(w_out):
                    acc = 0.0
                    for i in range(k):
                        for j in range(k):
                            iy = oy * stride + i * dilation
                            ix = ox * stride + j * dilation
                            if depthwise:
                                acc += xp[n, co, iy, ix] * w[co, 0, i, j]
                            else:
                                for ci in range(cin):
                                    acc += xp[n, ci, iy, ix] * w[co, ci, i, j]
                    out[n, co, oy, ox] = acc
            if b is not None:
                out[n, co] += b[co]
    return out


def tap_loop_reference(x, w, b=None, stride=1, padding=0):
    """The per-tap tensordot formula the conv kernels used before the
    per-shape kernels, kept to compare float32 results against."""
    k = w.shape[2]
    h_out = (x.shape[2] + 2 * padding - k) // stride + 1
    w_out = (x.shape[3] + 2 * padding - k) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((x.shape[0], w.shape[0], h_out, w_out), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            xs = xp[:, :, i:i + stride * (h_out - 1) + 1:stride,
                    j:j + stride * (w_out - 1) + 1:stride]
            out += np.tensordot(w[:, :, i, j], xs,
                                axes=([1], [1])).transpose(1, 0, 2, 3)
    if b is not None:
        out += b[None, :, None, None]
    return out


def depthwise_tap_loop(x, w, dilation, padding):
    """The tap loop the depthwise kernel replaced, in x's dtype: the
    forward is compared with it byte for byte."""
    k = w.shape[2]
    span = dilation * (k - 1)
    h_out = x.shape[2] + 2 * padding - span
    w_out = x.shape[3] + 2 * padding - span
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((*x.shape[:2], h_out, w_out), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            out += (xp[:, :, i * dilation:i * dilation + h_out,
                       j * dilation:j * dilation + w_out]
                    * w[None, :, 0, i, j, None, None])
    return out


def depthwise_grads_oracle(g, x, w, dilation, padding):
    """(dx, dw) of the tap loop, each tap's adjoint summed in float64."""
    g, x, w = (np.asarray(a, dtype=np.float64) for a in (g, x, w))
    k = w.shape[2]
    h_out, w_out = g.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    gxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for i in range(k):
        for j in range(k):
            rows = slice(i * dilation, i * dilation + h_out)
            cols = slice(j * dilation, j * dilation + w_out)
            dw[:, 0, i, j] = (g * xp[:, :, rows, cols]).sum(axis=(0, 2, 3))
            gxp[:, :, rows, cols] += g * w[None, :, 0, i, j, None, None]
    h, wd = x.shape[2:]
    return gxp[:, :, padding:padding + h, padding:padding + wd], dw


def upsample_oracle(x):
    return np.repeat(np.repeat(x, 2, axis=2), 2, axis=3)


def upsample_on_tape(x):
    """upsample_oracle of a Tensor, recorded through ops._track: the
    backward sums each 2x2 block of the output gradient."""
    b_, c, h, w = x.shape
    return ops._track(upsample_oracle(x.data), (x,), lambda g: (
        g.reshape(b_, c, h, 2, w, 2).sum(axis=(3, 5)),))


def quantile_oracle(values, q):
    ordered = sorted(float(v) for v in np.asarray(values).reshape(-1))
    return ordered[math.ceil(q * len(ordered)) - 1]


def impulse_support(response):
    """Bounding extent (rows, cols) of the nonzero region of a 2-D map."""
    ys, xs = np.nonzero(np.abs(response) > 0)
    return int(ys.max() - ys.min() + 1), int(xs.max() - xs.min() + 1)


# ---------------------------------------------------------------------------
# convolutions
# ---------------------------------------------------------------------------

class TestConv2d:
    def test_delta_impulse_all_ones_kernel(self):
        x = np.zeros((1, 1, 5, 5))
        x[0, 0, 2, 2] = 1.0
        w = np.ones((1, 1, 3, 3))
        expected = conv2d_oracle(x, w, stride=1, padding=1)
        got = ops.conv2d(Tensor(x), Tensor(w), stride=1, padding=1).data
        assert np.array_equal(expected[0, 0, 1:4, 1:4], np.ones((3, 3)))
        assert np.allclose(got, expected)

    def test_zero_input_zero_bias(self):
        x = Tensor(np.zeros((2, 3, 5, 5)))
        w = Tensor(np.random.default_rng(0).normal(size=(4, 3, 3, 3)))
        b = Tensor(np.zeros(4))
        assert np.all(ops.conv2d(x, w, b, padding=1).data == 0)

    def test_ones_4x4_stride2_pattern(self):
        x = np.ones((1, 1, 4, 4))
        w = np.ones((1, 1, 3, 3))
        expected = conv2d_oracle(x, w, stride=2, padding=1)
        got = ops.conv2d(Tensor(x), Tensor(w), stride=2, padding=1).data
        assert np.allclose(got, expected)
        assert sorted(expected.reshape(-1).tolist()) == [4.0, 6.0, 6.0, 9.0]

    @pytest.mark.parametrize("seed,stride,padding", [
        (0, 1, 0), (1, 1, 1), (2, 2, 1), (3, 2, 0), (4, 1, 2)])
    def test_matches_oracle_random(self, seed, stride, padding):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, 3, 7, 8))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        expected = conv2d_oracle(x, w, b, stride=stride, padding=padding)
        got = ops.conv2d(Tensor(x, dtype=np.float64),
                         Tensor(w, dtype=np.float64),
                         Tensor(b, dtype=np.float64),
                         stride=stride, padding=padding).data
        assert np.allclose(got, expected, atol=1e-10)

    # each kernel: flat per-tap GEMMs at stride 1 (k = 1, 3, 5) and on the
    # stride phases (strides 2 and 3, odd and even sizes, k = 3 and 5);
    # im2col for strided convs with cout > 4*cin; depthwise for a
    # 1-channel weight at stride 1
    @pytest.mark.parametrize("cin,cout,k,stride,padding", [
        (3, 4, 1, 1, 0), (3, 4, 3, 1, 1), (3, 4, 5, 1, 2), (3, 4, 5, 1, 0),
        (12, 4, 3, 2, 1), (3, 4, 3, 2, 0), (3, 4, 5, 2, 2), (5, 4, 3, 3, 1),
        (2, 9, 3, 2, 1), (1, 8, 5, 2, 2), (1, 1, 3, 1, 1)])
    def test_matches_oracle_each_kernel(self, cin, cout, k, stride, padding):
        rng = np.random.default_rng(cin * 10 + k)
        x = rng.normal(size=(3, cin, 9, 6))
        w = rng.normal(size=(cout, cin, k, k))
        b = rng.normal(size=cout)
        expected = conv2d_oracle(x, w, b, stride=stride, padding=padding)
        got = ops.conv2d(Tensor(x, dtype=np.float64),
                         Tensor(w, dtype=np.float64),
                         Tensor(b, dtype=np.float64),
                         stride=stride, padding=padding).data
        assert got.flags.c_contiguous
        assert np.allclose(got, expected, atol=1e-10)

    # Float32 agreement with the tap-loop formula at model-like shapes. The
    # kernels sum the same products in another order, so entries may differ
    # by a few float32 roundings of the largest partial sum: the bound is
    # 64 float32 epsilons of the largest output magnitude.
    @pytest.mark.parametrize("b,cin,cout,h,w,k,stride", [
        (1, 40, 24, 16, 12, 3, 1), (2, 24, 16, 10, 14, 1, 1),
        (4, 2, 16, 32, 32, 3, 2), (2, 16, 4, 16, 16, 3, 2),
        (1, 32, 8, 17, 15, 3, 2)])
    def test_float32_matches_tap_loop(self, b, cin, cout, h, w, k, stride):
        rng = np.random.default_rng(k + stride + cin)
        x = (rng.random((b, cin, h, w)) < 0.3).astype(np.float32)
        wt = rng.uniform(-0.2, 0.2, size=(cout, cin, k, k)).astype(np.float32)
        bias = rng.uniform(-0.1, 0.1, size=cout).astype(np.float32)
        pad = (k - 1) // 2
        ref = tap_loop_reference(x, wt, bias, stride, pad)
        got = ops.conv2d(Tensor(x), Tensor(wt), Tensor(bias), stride=stride,
                         padding=pad).data
        assert got.dtype == np.float32
        tol = 64 * np.finfo(np.float32).eps * np.abs(ref).max()
        assert np.abs(got - ref).max() <= tol

    def test_channel_mismatch_raises(self):
        x = Tensor(np.zeros((1, 3, 5, 5)))
        w = Tensor(np.zeros((2, 4, 3, 3)))
        with pytest.raises(ShapeError, match="channel"):
            ops.conv2d(x, w)

    # one ShapeError naming each bad argument; before the checks the first
    # three raised ZeroDivisionError, a numpy broadcast ValueError and a
    # tuple-unpack ValueError
    @pytest.mark.parametrize("op,x_shape,w_shape,kwargs,match", [
        (ops.conv2d, (1, 2, 6, 6), (3, 2, 3, 3), dict(stride=0), "stride"),
        (ops.conv2d, (1, 2, 6, 6), (3, 2, 3, 3), dict(padding=-1), "padding"),
        (ops.conv2d, (2, 6, 6), (3, 2, 3, 3), {}, "4-d"),
        (ops.conv2d, (1, 2, 6, 6), (3, 2), {}, "4-d"),
        (ops.conv2d, (1, 2, 6, 6), (3, 2, 3, 3), dict(dilation=2),
         "dilation"),
        (ops.conv2d, (1, 2, 6, 6), (2, 1, 3, 3), dict(dilation=0),
         "dilation"),
        (ops.conv2d, (1, 2, 6, 6), (2, 1, 3, 3), dict(stride=2), "stride"),
        (ops.conv2d, (1, 2, 6, 6), (3, 1, 3, 3), {}, "channel"),
        (ops.conv2d, (1, 2, 6, 6), (3, 2, 3, 5), {}, "square"),
        (ops.conv2d, (2, 6, 6), (3, 2, 3, 3), dict(upsample=True), "4-d"),
        # the upsample route runs only a stride-1, undilated "same" conv
        # with a dense weight
        (ops.conv2d, (1, 2, 6, 6), (3, 2, 3, 3),
         dict(upsample=True, padding=1, stride=2), "upsample needs stride"),
        (ops.conv2d, (1, 2, 6, 6), (3, 2, 3, 3),
         dict(upsample=True, padding=1, dilation=2),
         "upsample needs dilation"),
        (ops.conv2d, (1, 2, 6, 6), (2, 1, 3, 3), dict(upsample=True, padding=1),
         "weight channel dim 1"),
        (ops.conv2d, (1, 2, 6, 6), (3, 2, 3, 3), dict(upsample=True, padding=0),
         "upsample needs padding 1, got 0"),
        (ops.conv2d, (1, 2, 6, 6), (3, 2, 5, 5), dict(upsample=True, padding=1),
         "upsample needs padding 2, got 1"),
        # non-integers raised TypeError from inside numpy
        (ops.conv2d, (1, 2, 6, 6), (3, 2, 3, 3), dict(stride=2.0),
         "stride must be an integer"),
        (ops.conv2d, (1, 2, 6, 6), (3, 2, 3, 3), dict(padding=1.0),
         "padding must be an integer"),
        (ops.conv2d, (1, 2, 6, 6), (2, 1, 3, 3), dict(dilation=1.5),
         "dilation must be an integer"),
    ], ids=["stride0", "padding-1", "x-3d", "w-2d", "dense-dilation2",
            "dilation0", "depthwise-stride2", "channel", "non-square",
            "upsample-x-3d", "upsample-stride2", "upsample-dilation2",
            "upsample-depthwise", "upsample-padding0", "upsample-k5-padding1",
            "stride-float", "padding-float",
            "dilation-float"])
    def test_bad_arguments_raise_shape_error(self, op, x_shape, w_shape,
                                             kwargs, match):
        with pytest.raises(ShapeError, match=match):
            op(Tensor(np.zeros(x_shape)), Tensor(np.zeros(w_shape)),
               **kwargs)


def _grads(fn, tensors, weights):
    """Gradients of sum(fn() * weights) with respect to each tensor."""
    with Tape() as tape:
        grads = tape.backward(ops.weighted_sum(fn(), weights))
    return [grads.get(t) for t in tensors]


class TestUpsample2Conv:
    """conv2d(upsample=True) against conv2d on the upsampled input."""

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_float64_matches_upsample_then_conv(self, k):
        rng = np.random.default_rng(k)
        x, w, b = (Parameter(rng.normal(size=s), n, dtype=np.float64)
                   for s, n in (((2, 3, 5, 4), "x"), ((4, 3, k, k), "w"),
                                ((4,), "b")))
        fused = lambda: ops.conv2d(x, w, b, padding=(k - 1) // 2,
                                   upsample=True)
        split = lambda: ops.conv2d(upsample_on_tape(x), w, b,
                                   padding=(k - 1) // 2)
        assert fused().data.shape == (2, 4, 10, 8)
        assert np.abs(fused().data - split().data).max() <= 1e-12
        weights = rng.normal(size=(2, 4, 10, 8))
        for got, want in zip(_grads(fused, [x, w, b], weights),
                             _grads(split, [x, w, b], weights)):
            assert np.abs(got - want).max() <= 1e-12

    # float32: the fused op sums taps into effective weights before the
    # GEMM, so it rounds differently from the split ops; bound as in
    # test_float32_matches_tap_loop, 64 epsilons of the largest magnitude
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_float32_matches_upsample_then_conv(self, k):
        rng = np.random.default_rng(10 + k)
        x, w, b = (Parameter(rng.uniform(-1, 1, size=s), n, dtype=np.float32)
                   for s, n in (((1, 24, 8, 6), "x"), ((16, 24, k, k), "w"),
                                ((16,), "b")))
        fused = lambda: ops.conv2d(x, w, b, padding=(k - 1) // 2,
                                   upsample=True)
        split = lambda: ops.conv2d(upsample_on_tape(x), w, b,
                                   padding=(k - 1) // 2)
        eps = np.finfo(np.float32).eps
        ref = split().data
        assert fused().data.dtype == np.float32
        assert np.abs(fused().data - ref).max() <= 64 * eps * np.abs(ref).max()
        weights = rng.uniform(-1, 1, size=ref.shape).astype(np.float32)
        for got, want in zip(_grads(fused, [x, w, b], weights),
                             _grads(split, [x, w, b], weights)):
            assert np.abs(got - want).max() <= 64 * eps * np.abs(want).max()

    def test_matches_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, 2, 3, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        got = ops.conv2d(Tensor(x, dtype=np.float64),
                         Tensor(w, dtype=np.float64), padding=1,
                         upsample=True).data
        expected = conv2d_oracle(upsample_oracle(x), w, padding=1)
        assert np.allclose(got, expected, atol=1e-10)

    def test_rejects_even_kernel_and_channel_mismatch(self):
        with pytest.raises(ShapeError, match="odd"):
            ops.conv2d(Tensor(np.zeros((1, 2, 3, 3))),
                       Tensor(np.zeros((1, 2, 2, 2))), upsample=True)
        with pytest.raises(ShapeError, match="channel"):
            ops.conv2d(Tensor(np.zeros((1, 2, 3, 3))),
                       Tensor(np.zeros((1, 3, 3, 3))), padding=1,
                       upsample=True)


class TestDepthwise:
    def test_impulse_support_k5(self):
        x = np.zeros((1, 1, 31, 31))
        x[0, 0, 15, 15] = 1.0
        w = np.ones((1, 1, 5, 5))
        resp = ops.conv2d(Tensor(x), Tensor(w), padding=2).data
        assert impulse_support(resp[0, 0]) == (5, 5)
        oracle = conv2d_oracle(x, w, padding=2, depthwise=True)
        assert np.allclose(resp, oracle)

    def test_impulse_support_k7_d3(self):
        x = np.zeros((1, 1, 41, 41))
        x[0, 0, 20, 20] = 1.0
        w = np.ones((1, 1, 7, 7))
        resp = ops.conv2d(Tensor(x), Tensor(w), dilation=3, padding=9).data
        assert impulse_support(resp[0, 0]) == (19, 19)
        # taps are spaced 3 apart: 49 nonzero sites
        assert int((resp != 0).sum()) == 49
        oracle = conv2d_oracle(x, w, padding=9, dilation=3, depthwise=True)
        assert np.allclose(resp, oracle)

    def test_composed_support_23(self):
        x = np.zeros((1, 1, 51, 51))
        x[0, 0, 25, 25] = 1.0
        w1 = np.ones((1, 1, 5, 5))
        w2 = np.ones((1, 1, 7, 7))
        a = ops.conv2d(Tensor(x), Tensor(w1), padding=2)
        b = ops.conv2d(a, Tensor(w2), dilation=3, padding=9)
        assert impulse_support(b.data[0, 0]) == (23, 23)

    def test_channels_stay_separate(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 3, 8, 8))
        w = rng.normal(size=(3, 1, 3, 3))
        base = ops.conv2d(Tensor(x), Tensor(w), padding=1).data
        x2 = x.copy()
        x2[0, 1] += 10.0  # perturb one channel only
        pert = ops.conv2d(Tensor(x2), Tensor(w), padding=1).data
        assert np.allclose(base[0, 0], pert[0, 0])
        assert np.allclose(base[0, 2], pert[0, 2])
        assert not np.allclose(base[0, 1], pert[0, 1])

    @pytest.mark.parametrize("seed,dilation", [(0, 1), (1, 2), (2, 3)])
    def test_matches_oracle_random(self, seed, dilation):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, 4, 11, 11))
        w = rng.normal(size=(4, 1, 3, 3))
        pad = dilation
        expected = conv2d_oracle(x, w, padding=pad, dilation=dilation,
                                 depthwise=True)
        got = ops.conv2d(Tensor(x, dtype=np.float64),
                         Tensor(w, dtype=np.float64),
                         dilation=dilation, padding=pad).data
        assert np.allclose(got, expected, atol=1e-10)

    # (shape, k, dilation, padding): the model's two mixing convs at the
    # full-config and learning-check shapes, then H != W, no padding,
    # k=3 d=2, and padding past d(k-1), where the backward crops g
    GEOMETRIES = [
        ((1, 80, 32, 32), 5, 1, 2), ((1, 80, 32, 32), 7, 3, 9),
        ((4, 40, 32, 32), 5, 1, 2), ((4, 40, 32, 32), 7, 3, 9),
        ((2, 3, 9, 14), 5, 1, 2), ((2, 3, 9, 14), 3, 1, 0),
        ((2, 3, 10, 7), 3, 2, 2), ((2, 3, 6, 5), 3, 1, 3),
        ((1, 2, 8, 6), 3, 2, 5),
    ]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape,k,dilation,padding", GEOMETRIES)
    def test_forward_bytes_match_tap_loop(self, shape, k, dilation, padding,
                                          dtype):
        # one einsum over the tap windows adds each pixel's taps in the tap
        # loop's order with each product rounded first; einsum kernels that
        # fused multiply-add would fail here
        rng = np.random.default_rng(k + dilation + padding + shape[1])
        x = rng.normal(size=shape).astype(dtype)
        w = rng.normal(size=(shape[1], 1, k, k)).astype(dtype)
        got = ops.conv2d(Tensor(x, dtype=dtype), Tensor(w, dtype=dtype),
                         dilation=dilation, padding=padding).data
        ref = depthwise_tap_loop(x, w, dilation, padding)
        assert got.dtype == dtype and got.flags.c_contiguous
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()

    # float32 sums of up to 4096 products land within 1e-5 of the largest
    # float64 oracle entry (measured: under 5e-7); float64 within 1e-12
    @pytest.mark.parametrize("dtype,bound", [(np.float32, 1e-5),
                                             (np.float64, 1e-12)])
    @pytest.mark.parametrize("shape,k,dilation,padding", GEOMETRIES)
    def test_grads_match_float64_oracle(self, shape, k, dilation, padding,
                                        dtype, bound):
        rng = np.random.default_rng(k * dilation + padding)
        x = Parameter(rng.normal(size=shape), "x", dtype=dtype)
        w = Parameter(rng.normal(size=(shape[1], 1, k, k)), "w", dtype=dtype)
        with Tape() as tape:
            out = ops.conv2d(x, w, dilation=dilation, padding=padding)
            g = rng.normal(size=out.shape).astype(dtype)
            grads = tape.backward(ops.weighted_sum(out, g))
        dx, dw = depthwise_grads_oracle(g, x.data, w.data, dilation, padding)
        for got, ref in ((grads[x], dx), (grads[w], dw)):
            assert got.dtype == dtype and got.shape == ref.shape
            err = np.abs(got - ref).max()
            assert err <= bound * np.abs(ref).max(), err

    def test_tap_windows_read_only(self):
        x = np.arange(2 * 3 * 5 * 4, dtype=np.float64).reshape(2, 3, 5, 4)
        view, h_out, w_out = ops._depthwise_windows(x, 3, 2, 1)
        assert (h_out, w_out) == (3, 2)
        # tap (i, j) of output pixel (y, x) sits at n = x*h_out + y
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        for i in range(3):
            for j in range(3):
                tap = xp[:, :, 2 * i:2 * i + h_out, 2 * j:2 * j + w_out]
                assert np.array_equal(
                    view[:, :, i, j].reshape(2, 3, w_out, h_out),
                    tap.transpose(0, 1, 3, 2))
        with pytest.raises(ValueError, match="read-only"):
            view[0, 0, 0, 0, 0] = 1.0

    def test_rejects_negative_padding(self):
        with pytest.raises(ShapeError, match="padding"):
            ops.conv2d(Tensor(np.zeros((1, 2, 6, 6))),
                       Tensor(np.zeros((2, 1, 3, 3))), padding=-1)


class TestPointwise:
    def test_identity_weight(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 4, 3, 3))
        w = np.eye(4).reshape(4, 4, 1, 1)
        got = ops.conv2d(Tensor(x), Tensor(w)).data
        assert np.allclose(got, x.astype(np.float32))

    def test_ones_sum_channels(self):
        x = np.ones((1, 2, 2, 2))
        w = np.ones((1, 2, 1, 1))
        got = ops.conv2d(Tensor(x), Tensor(w)).data
        assert np.allclose(got, 2.0)

    def test_batched_output_contiguous(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 4, 5, 2))
        w = rng.normal(size=(6, 4, 1, 1))
        got = ops.conv2d(Tensor(x, dtype=np.float64),
                         Tensor(w, dtype=np.float64)).data
        assert got.flags.c_contiguous
        assert np.allclose(got, conv2d_oracle(x, w), atol=1e-10)

    def test_zero_weight_bias_only(self):
        x = Tensor(np.random.default_rng(1).normal(size=(1, 3, 4, 4)))
        w = Tensor(np.zeros((2, 3, 1, 1)))
        b = Tensor(np.array([1.5, -2.0]))
        got = ops.conv2d(x, w, b).data
        assert np.allclose(got[0, 0], 1.5) and np.allclose(got[0, 1], -2.0)


# ---------------------------------------------------------------------------
# normalization and activations
# ---------------------------------------------------------------------------

class TestLayerNorm:
    def test_constant_input_zeroed(self):
        x = Tensor(np.full((1, 4, 2, 2), 3.25))
        g = Tensor(np.ones(4))
        b = Tensor(np.zeros(4))
        out = ops.layer_norm_channels(x, g, b).data
        assert np.allclose(out, 0.0, atol=1e-3)

    def test_two_channel_hand_case(self):
        x = Tensor(np.array([1.0, 3.0]).reshape(1, 2, 1, 1))
        g = Tensor(np.ones(2))
        b = Tensor(np.zeros(2))
        out = ops.layer_norm_channels(x, g, b, eps=1e-12).data
        assert np.allclose(out.reshape(-1), [-1.0, 1.0], atol=1e-5)

    def test_affine_only(self):
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 4, 4)))
        g = Tensor(np.zeros(3))
        b = Tensor(np.full(3, 5.0))
        assert np.allclose(ops.layer_norm_channels(x, g, b).data, 5.0)

    def test_normalizes_channel_statistics(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(2.0, 3.0, size=(2, 16, 5, 5)), dtype=np.float64)
        g = Tensor(np.ones(16), dtype=np.float64)
        b = Tensor(np.zeros(16), dtype=np.float64)
        out = ops.layer_norm_channels(x, g, b).data
        assert np.allclose(out.mean(axis=1), 0.0, atol=1e-10)
        assert np.allclose(out.var(axis=1), 1.0, atol=1e-4)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("record", [False, True])
    def test_bits_match_unfused_formula(self, dtype, record):
        # in-place buffers must leave the forward arithmetic as it was
        rng = np.random.default_rng(3)
        x = rng.normal(1.0, 4.0, size=(2, 48, 9, 11)).astype(dtype)
        g = rng.uniform(0.5, 1.5, size=48).astype(dtype)
        b = rng.normal(size=48).astype(dtype)
        mu = x.mean(axis=1, keepdims=True)
        xc = x - mu
        var = (xc * xc).mean(axis=1, keepdims=True)
        want = (g[None, :, None, None] * (xc * (1.0 / np.sqrt(var + 1e-6)))
                + b[None, :, None, None])
        with Tape():
            got = ops.layer_norm_channels(
                Parameter(x, "x") if record else Tensor(x), Tensor(g),
                Tensor(b))
        assert got.requires_grad == record and got.dtype == dtype
        assert got.data.tobytes() == want.tobytes()


class TestActivations:
    def test_pointwise_values(self):
        assert ops.sigmoid(Tensor(np.array([0.0]))).data[0] == pytest.approx(0.5)
        got = ops.relu(Tensor(np.array([-2.0, 3.0]))).data
        assert got.tolist() == [0.0, 3.0]
        assert ops.gelu(Tensor(np.array([0.0]))).data[0] == 0.0
        assert ops.gelu(Tensor(np.array([1.0]))).data[0] == pytest.approx(
            0.8413, abs=1e-4)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_bits_match_piecewise_form(self, dtype):
        z = np.concatenate([
            np.linspace(-120.0, 120.0, 48001),
            np.random.default_rng(0).normal(scale=30.0, size=4000),
            [np.inf, -np.inf, np.nan, 0.0, -0.0, 1e-30, -1e-30,
             np.finfo(dtype).max, -np.finfo(dtype).max]]).astype(dtype)
        pos = z >= 0
        want = np.empty_like(z)
        want[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        want[~pos] = ez / (1.0 + ez)
        got = ops.sigmoid(Tensor(z)).data
        assert got.dtype == dtype
        # same bits everywhere except the sign of a NaN, which carries none
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].tobytes(), want[~nan].tobytes())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("record", [False, True])
    def test_gelu_bits_match_unfused_formula(self, dtype, record):
        x = np.concatenate([
            np.linspace(-12.0, 12.0, 4801),
            np.random.default_rng(1).normal(scale=3.0, size=4000),
            [0.0, -0.0, 1e-30, -1e-30, 40.0, -40.0]]).astype(dtype)
        want = x * (0.5 * (1.0 + erf(x * (1.0 / math.sqrt(2.0)))))
        with Tape():
            got = ops.gelu(Parameter(x, "x") if record else Tensor(x))
        assert got.requires_grad == record and got.dtype == dtype
        assert got.data.tobytes() == want.tobytes()

    def test_sigmoid_extremes_stable(self):
        got = ops.sigmoid(Tensor(np.array([-500.0, 500.0]))).data
        assert np.all(np.isfinite(got))
        assert got[0] == pytest.approx(0.0, abs=1e-12)
        assert got[1] == pytest.approx(1.0, abs=1e-12)


class TestSoftmaxKL:
    def test_uniform_on_constant(self):
        p = ops.softmax_temp(Tensor(np.full((3, 5), 2.0)), 1.0).data
        assert np.allclose(p, 0.2, atol=1e-6)

    def test_hand_case(self):
        p = ops.softmax_temp(Tensor(np.array([[0.0, math.log(3.0)]])), 1.0).data
        assert np.allclose(p, [[0.25, 0.75]], atol=1e-6)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        p = ops.softmax_temp(Tensor(rng.normal(size=(10, 7)) * 50), 0.3).data
        assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-6)

    def test_large_tau_approaches_uniform(self):
        p = ops.softmax_temp(Tensor(np.array([[5.0, -3.0, 1.0]])), 1e6).data
        assert np.allclose(p, 1.0 / 3.0, atol=1e-4)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bits_match_expression_form(self, dtype):
        # the in-place steps must leave the arithmetic as it was
        rng = np.random.default_rng(5)
        x = rng.normal(scale=4.0, size=(6, 300)).astype(dtype)
        w = rng.uniform(-1.0, 1.0, size=x.shape).astype(dtype)
        tau = 0.7
        z = x / tau
        z = z - z.max(axis=-1, keepdims=True)
        e = np.exp(z)
        want = e / e.sum(axis=-1, keepdims=True)
        want_grad = (w - (w * want).sum(axis=-1, keepdims=True)) * want / tau
        xp = Parameter(x, "x")
        with Tape() as tape:
            p = ops.softmax_temp(xp, tau)
            loss = ops.weighted_sum(p, w)
        grads = tape.backward(loss)
        assert p.dtype == dtype and p.data.tobytes() == want.tobytes()
        assert grads[xp].tobytes() == want_grad.tobytes()

    def test_forward_keeps_one_full_size_buffer(self):
        x = Tensor(np.random.default_rng(6).normal(size=(64, 4096)))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            p = ops.softmax_temp(x, 0.5)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * p.data.nbytes, (peak, p.data.nbytes)

    def test_kl_identical_zero(self):
        p = Tensor(np.array([[0.3, 0.7], [0.5, 0.5]]))
        assert ops.kl_div(p, p).item() == pytest.approx(0.0, abs=1e-7)

    def test_kl_hand_case(self):
        p = Tensor(np.array([[1.0, 0.0]]))
        q = Tensor(np.array([[0.5, 0.5]]))
        # eps floor shifts the exact ln 2 by O(eps)
        assert ops.kl_div(p, q).item() == pytest.approx(math.log(2.0), abs=1e-4)

    def test_kl_nonnegative_sweep(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            a = rng.normal(size=(1, 6))
            b = rng.normal(size=(1, 6))
            p = ops.softmax_temp(Tensor(a, dtype=np.float64), 1.0)
            q = ops.softmax_temp(Tensor(b, dtype=np.float64), 1.0)
            assert ops.kl_div(p, q).item() >= -1e-9

    def test_kl_rejects_non_distribution(self):
        p = Tensor(np.array([[0.9, 0.9]]))
        q = Tensor(np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError, match="sum"):
            ops.kl_div(p, q)


# ---------------------------------------------------------------------------
# sparse stem
# ---------------------------------------------------------------------------

def stem_inputs(kind, dtype):
    """[3, 2, 32, 32] event maps: the stem's 16x16 output planes hold whole
    GEMM column groups."""
    x = np.zeros((3, 2, 32, 32))
    if kind == "ones":
        x[:] = 1.0
    elif kind == "border":
        x[:, 0, [0, -1], :] = 1.0
        x[:, 1, :, [0, -1]] = 1.0
    elif kind == "single":
        x[1, 1, 13, 20] = 1.0
    elif kind != "zeros":
        x = np.random.default_rng(11).random(x.shape) < float(kind)
    return x.astype(dtype)


def stem_params(dtype, cout=32, cin=2):
    """A cin -> cout stage; 2 -> 32 is the stem, which conv2d runs by
    im2col."""
    rng = np.random.default_rng(12)
    return [Parameter(rng.uniform(lo, hi, size=shape), name, dtype=dtype)
            for name, shape, lo, hi in (
                ("w", (cout, cin, 3, 3), -0.5, 0.5), ("b", (cout,), -0.5, 0.5),
                ("g", (cout,), 0.5, 1.5), ("be", (cout,), -0.5, 0.5))]


def dense_stem(x, w, b, g, be, stride=2, padding=1, upsample=False):
    h = ops.conv2d(x, w, b, stride=stride, padding=padding, upsample=upsample)
    return ops.gelu(ops.layer_norm_channels(h, g, be))


class TestSparseStem:
    """conv_ln_gelu against the three ops it replaces, byte for byte."""

    @staticmethod
    def _run(op, x, params, record):
        """op's output and, under a tape, the gradients of params and of x
        when it is a Parameter."""
        leaves = params + ([x] if isinstance(x, Parameter) else [])
        x = x if isinstance(x, Tensor) else Tensor(x)
        if not record:
            return op(x, *params).data, None
        with Tape() as tape:
            out = op(x, *params)
            proj = np.random.default_rng(13).uniform(-1.0, 1.0,
                                                     size=out.shape)
            loss = ops.weighted_sum(out, proj.astype(x.dtype))
        grads = tape.backward(loss)
        return out.data, [grads[t] for t in leaves]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("record", [False, True])
    @pytest.mark.parametrize("kind,route", [
        ("zeros", "sparse"), ("ones", "dense"), ("border", "sparse"),
        ("single", "sparse"), ("0.005", "sparse"), ("0.01", "sparse"),
        ("0.03", "sparse"), ("0.05", "dense"), ("0.25", "dense")])
    def test_bytes_match_dense_ops(self, monkeypatch, dtype, record, kind,
                                   route):
        x = stem_inputs(kind, dtype)
        want, want_grads = self._run(dense_stem, x, stem_params(dtype),
                                     record)
        routes = []
        columns = ops._stem_columns

        def sparse_columns(cols, where):
            routes.append("sparse")
            return columns(cols, where)
        monkeypatch.setattr(ops, "_stem_columns", sparse_columns)
        got, got_grads = self._run(
            lambda *a: ops.conv_ln_gelu(*a, stride=2, padding=1), x,
            stem_params(dtype), record)
        assert got.dtype == dtype and got.tobytes() == want.tobytes()
        if record:
            assert ([g.tobytes() for g in got_grads]
                    == [g.tobytes() for g in want_grads])
        assert (routes or ["dense"]) == [route]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("record", [False, True])
    def test_eight_column_plane_takes_the_dense_route(self, monkeypatch,
                                                      dtype, record):
        # a 2x4 output plane: whole 8-column groups, but not whole
        # parallel.GEMM_COLUMN_GROUP groups, which the sparse route needs
        x = np.zeros((3, 2, 4, 8), dtype=dtype)
        x[1, 0, 1, 2] = 1.0
        want, want_grads = self._run(dense_stem, x, stem_params(dtype),
                                     record)
        monkeypatch.setattr(ops, "_stem_columns", None)  # sparse calls it
        got, got_grads = self._run(
            lambda *a: ops.conv_ln_gelu(*a, stride=2, padding=1), x,
            stem_params(dtype), record)
        assert got.shape == (3, 32, 2, 4) and got.tobytes() == want.tobytes()
        if record:
            assert ([g.tobytes() for g in got_grads]
                    == [g.tobytes() for g in want_grads])

    @pytest.mark.parametrize("kind", ["border", "single", "zeros", "0.01"])
    def test_active_columns_are_the_windows_with_events(self, kind):
        # a location is active when its 3x3 stride-2 window, padded with
        # zeros, holds a nonzero value in any channel
        x = stem_inputs(kind, np.float32)
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        want = np.zeros((3, 16, 16), dtype=bool)
        for oy in range(16):
            for ox in range(16):
                window = xp[:, :, 2 * oy:2 * oy + 3, 2 * ox:2 * ox + 3]
                want[:, oy, ox] = (window != 0).any(axis=(1, 2, 3))
        where = ops._stem_active(ops._im2col(x, 3, 2, 1, 16, 16))
        assert np.array_equal(where, np.flatnonzero(want))

    @pytest.mark.parametrize("kind", ["ones", "0.01"])
    def test_builds_im2col_once(self, monkeypatch, kind):
        # the activity test, the sparse columns and the dense fallback all
        # read one matrix
        calls = []
        im2col = ops._im2col

        def counted(*args):
            calls.append(args[1:])
            return im2col(*args)
        monkeypatch.setattr(ops, "_im2col", counted)
        ops.conv_ln_gelu(Tensor(stem_inputs(kind, np.float32)),
                         *stem_params(np.float32), stride=2, padding=1)
        assert calls == [(3, 2, 1, 16, 16)]

    # every other stage runs dense: enc1 (32 -> 8 channels at stride 2, on
    # the stride phases) and a decoder stage (upsample), input gradient too
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("record", [False, True])
    @pytest.mark.parametrize("x_shape,cout,kwargs", [
        ((3, 32, 16, 16), 8, dict(stride=2)),
        ((2, 40, 8, 8), 48, dict(stride=1, upsample=True))],
        ids=["enc1", "dec"])
    def test_stage_bytes_match_dense_ops(self, monkeypatch, dtype, record,
                                         x_shape, cout, kwargs):
        x = Parameter(np.random.default_rng(14).normal(size=x_shape), "x",
                      dtype=dtype)
        params = stem_params(dtype, cout=cout, cin=x_shape[1])
        want, want_grads = self._run(
            lambda *a: dense_stem(*a, padding=1, **kwargs), x, params, record)
        monkeypatch.setattr(ops, "_stem_active", None)  # sparse would call it
        got, got_grads = self._run(
            lambda *a: ops.conv_ln_gelu(*a, padding=1, **kwargs), x, params,
            record)
        assert got.dtype == dtype and got.tobytes() == want.tobytes()
        if record:
            assert len(got_grads) == 5
            assert ([g.tobytes() for g in got_grads]
                    == [g.tobytes() for g in want_grads])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_background_is_gelu_ln_bias(self, dtype):
        w, b, g, be = stem_params(dtype)
        out = ops.conv_ln_gelu(Tensor(stem_inputs("single", dtype)), w, b, g,
                               be, stride=2, padding=1).data
        # the bias at two locations: at one, numpy would add the channels
        # pairwise instead of in order
        bias = Tensor(np.repeat(b.data.reshape(1, -1, 1, 1), 2, axis=3))
        want = ops.gelu(ops.layer_norm_channels(bias, g, be)).data[0, :, 0, 0]
        assert np.array_equal(out[0, :, 5, 5], want)
        assert not np.array_equal(out[1, :, 7, 10], want)  # the event

    def test_thin_stem_takes_the_dense_route(self, monkeypatch):
        # 2 -> 4 channels is not im2col in conv2d, so the stem runs densely
        cfg = ModelConfig(t_in=3, t_out=3, height=32, width=32, c_step=4,
                          n_blocks=1, stages=1, enc_widths=(),
                          dec_widths=(8,))
        model = init_params(cfg, seed=0)
        x = stem_inputs("0.02", np.float32)[None]
        monkeypatch.setattr(ops, "_stem_active", None)  # sparse would call it
        got = model.encode(Tensor(x)).data
        want = dense_stem(Tensor(x.reshape(3, 2, 32, 32)),
                          *(model[f"enc0.{n}"] for n in
                            ("conv.w", "conv.b", "ln.g", "ln.b"))).data
        assert got.tobytes() == want.tobytes()

    def test_records_one_node(self):
        w, b, g, be = stem_params(np.float32)
        x = Tensor(stem_inputs("0.02", np.float32))
        with Tape() as tape:
            ops.conv_ln_gelu(x, w, b, g, be, stride=2, padding=1)
        assert len(tape) == 1
        w, b, g, be = stem_params(np.float32, cout=4, cin=3)
        x = Parameter(np.ones((1, 3, 4, 4)), "x", dtype=np.float32)
        with Tape() as tape:
            out = ops.conv_ln_gelu(x, w, b, g, be, padding=1, upsample=True)
        assert len(tape) == 1 and out.shape == (1, 4, 8, 8)

    def test_rejects_bad_shapes(self):
        w, b, g, be = stem_params(np.float32)
        x = Tensor(stem_inputs("zeros", np.float32))
        with pytest.raises(ShapeError, match="gamma shape"):
            ops.conv_ln_gelu(x, w, b, Tensor(np.ones(3)), be, stride=2)
        with pytest.raises(ShapeError, match="conv_ln_gelu: input channel"):
            ops.conv_ln_gelu(Tensor(np.zeros((1, 3, 8, 8))), w, b, g, be)


# ---------------------------------------------------------------------------
# structural ops
# ---------------------------------------------------------------------------

class TestStructural:
    def test_frame_diff(self):
        x = np.arange(12.0).reshape(1, 4, 3) ** 2
        got = ops.frame_diff(Tensor(x)).data
        assert np.allclose(got, x[:, 1:] - x[:, :-1])

    def test_reshape_roundtrip(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 4))
        r = ops.reshape(ops.reshape(Tensor(x), (6, 4)), (2, 3, 4))
        assert np.array_equal(r.data, x)

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ops.add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))

    # a (1,) bias broadcast in the forward, then numpy failed in backward
    @pytest.mark.parametrize("bias_shape", [(1,), (3,), (1, 4), (4, 1)])
    def test_linear_rejects_bias_shape(self, bias_shape):
        with pytest.raises(ShapeError, match="bias"):
            ops.linear(Tensor(np.ones((3, 5))), Tensor(np.ones((4, 5))),
                       Tensor(np.ones(bias_shape)))

    def test_masked_mean_pool_values(self):
        x = np.zeros((1, 2, 2, 2))
        x[0, 0] = [[1.0, 2.0], [3.0, 4.0]]
        x[0, 1] = [[10.0, 20.0], [30.0, 40.0]]
        mask = np.array([[[[1.0, 0.0], [0.0, 1.0]]]])
        got = ops.masked_mean_pool(Tensor(x), mask).data
        assert np.allclose(got, [[2.5, 25.0]], atol=1e-5)

    # 3-d inputs raised numpy's broadcast ValueError (layer norm, gated
    # product) or an IndexError (pool) instead of ShapeError
    @pytest.mark.parametrize("call", [
        lambda: ops.layer_norm_channels(Tensor(np.zeros((2, 3, 4))),
                                        Tensor(np.ones(3)),
                                        Tensor(np.zeros(3))),
        lambda: ops.gated_product(Tensor(np.zeros((2, 3))),
                                  Tensor(np.zeros((2, 3, 4)))),
        lambda: ops.gated_product(Tensor(np.zeros((2, 3))),
                                  Tensor(np.zeros((2, 3, 4))),
                                  Tensor(np.zeros((2, 3, 4)))),
        lambda: ops.masked_mean_pool(Tensor(np.zeros((2, 3, 4))),
                                     np.ones((2, 1, 4))),
    ], ids=["layer_norm_channels", "gated_product", "gated_product-base",
            "masked_mean_pool"])
    def test_rank_checked(self, call):
        with pytest.raises(ShapeError, match="4-d"):
            call()

    def test_gated_product_forms(self):
        rng = np.random.default_rng(0)
        g = rng.uniform(0.1, 0.9, size=(2, 3))
        f = rng.normal(size=(2, 3, 4, 4))
        u = rng.normal(size=(2, 3, 4, 4))
        with_base = ops.gated_product(Tensor(g), Tensor(f), Tensor(u)).data
        plain = ops.gated_product(Tensor(g), Tensor(f)).data
        assert np.allclose(with_base,
                           g[:, :, None, None] * f * (1 + u), atol=1e-5)
        assert np.allclose(plain, g[:, :, None, None] * f, atol=1e-5)


# ---------------------------------------------------------------------------
# quantile and drop-path
# ---------------------------------------------------------------------------

class TestQuantile:
    def test_hand_case(self):
        assert ops.quantile_nearest_rank(np.array([1, 2, 3, 4, 5.0]), 0.5) == 3.0

    def test_median_of_nine(self):
        vals = np.arange(0.1, 1.0, 0.1)
        assert ops.quantile_nearest_rank(vals, 0.5) == pytest.approx(0.5)

    def test_q1_is_max(self):
        rng = np.random.default_rng(5)
        vals = rng.normal(size=257)
        assert ops.quantile_nearest_rank(vals, 1.0) == vals.max()

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_sort_oracle(self, seed):
        rng = np.random.default_rng(seed)
        vals = rng.normal(size=int(rng.integers(1, 400)))
        for q in (0.01, 0.25, 0.5, 0.75, 0.98, 1.0):
            assert ops.quantile_nearest_rank(vals, q) == quantile_oracle(vals, q)

    def test_count_above_threshold(self):
        vals = np.random.default_rng(9).random(1024)
        delta = ops.quantile_nearest_rank(vals, 0.98)
        assert int((vals >= delta).sum()) >= 20

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            ops.quantile_nearest_rank(np.array([]), 0.5)
        with pytest.raises(ValueError):
            ops.quantile_nearest_rank(np.array([1.0]), 0.0)


class TestDropPath:
    def test_identity_cases(self):
        x = Tensor(np.random.default_rng(0).normal(size=(4, 3)))
        assert ops.drop_path(x, 0.0, training=True,
                             rng=np.random.default_rng(0)) is x
        assert ops.drop_path(x, 0.2, training=False) is x

    def test_expectation_preserved(self):
        rng = np.random.default_rng(42)
        x = Tensor(np.ones((10000, 1)))
        out = ops.drop_path(x, 0.5, training=True, rng=rng).data
        assert abs(out.mean() - 1.0) < 0.05

    def test_per_sample_mask(self):
        rng = np.random.default_rng(1)
        x = Tensor(np.ones((64, 2, 3)))
        out = ops.drop_path(x, 0.5, training=True, rng=rng).data
        per_sample = out.reshape(64, -1)
        # each sample is either fully dropped or fully kept and rescaled
        for row in per_sample:
            assert np.allclose(row, 0.0) or np.allclose(row, 2.0)

    def test_training_requires_rng(self):
        with pytest.raises(ValueError, match="rng"):
            ops.drop_path(Tensor(np.ones((2, 2))), 0.3, training=True)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

class TestGradients:
    def test_square_function(self):
        w = Parameter(np.array(3.0), "w", dtype=np.float64)
        err = grad_check(lambda: ops.weighted_sum(
            ops.gated_product(
                ops.reshape(w, (1, 1)),
                ops.reshape(w, (1, 1, 1, 1))), np.ones((1, 1, 1, 1))), [w])
        assert err < 1e-9

    def test_sigmoid_dot_toy(self):
        rng = np.random.default_rng(0)
        w = Parameter(rng.normal(size=(1, 6)), "w", dtype=np.float64)
        x = rng.normal(size=(4, 6))

        def fn():
            h = ops.sigmoid(ops.linear(Tensor(x, dtype=np.float64), w))
            return ops.weighted_sum(h, np.ones(h.shape))
        assert grad_check(fn, [w]) < 1e-7

    def test_transposed_parameter(self):
        # grad_check perturbs p.data itself: a reshape of a transposed
        # array is a copy, which the forward never reads
        rng = np.random.default_rng(1)
        w = Parameter(rng.normal(size=(6, 3)).T, "w", dtype=np.float64)
        assert not w.data.flags.c_contiguous
        x = Tensor(rng.normal(size=(4, 6)), dtype=np.float64)
        proj = rng.uniform(0.5, 1.5, size=(4, 3))
        assert grad_check(
            lambda: ops.weighted_sum(ops.linear(x, w), proj), [w]) < 1e-7

    @pytest.mark.parametrize("name", sorted(op_suite_cases().keys()))
    def test_op_suite_case(self, name):
        builder = op_suite_cases()[name]
        for seed in range(5):
            fn, params = builder(seed)
            err = grad_check(fn, params)
            assert err < 1e-5, f"{name} seed {seed}: rel err {err}"

    def test_op_suite_covers_every_op(self, monkeypatch):
        # a new op cannot land without a case row; quantile_nearest_rank
        # has no gradient
        names = [name for name, fn in vars(ops).items()
                 if inspect.isfunction(fn) and fn.__module__ == ops.__name__
                 and not name.startswith("_")
                 and name != "quantile_nearest_rank"]
        assert "conv2d" in names and "focal_loss_map" in names
        called = set()

        def recorder(name, fn):
            def recorded(*args, **kwargs):
                called.add(name)
                return fn(*args, **kwargs)
            return recorded
        for name in names:
            monkeypatch.setattr(ops, name, recorder(name, getattr(ops, name)))
        for builder in op_suite_cases().values():
            fn, _ = builder(0)
            fn()
        assert sorted(set(names) - called) == []

    def test_grad_accumulates_across_uses(self):
        # same tensor consumed twice: gradients must add
        x = Parameter(np.array([2.0, -1.0]), "x", dtype=np.float64)
        with Tape() as tape:
            y = ops.add(x, x)
            s = ops.weighted_sum(y, np.ones(2))
            grads = tape.backward(s)
        assert np.allclose(grads[x], [2.0, 2.0])

    def test_backward_requires_scalar(self):
        x = Parameter(np.ones(3), "x", dtype=np.float64)
        with Tape() as tape:
            y = ops.relu(x)
        with pytest.raises(ValueError, match="scalar"):
            tape.backward(y)


class TestTapeRelease:
    """Backward frees the tape as it runs and returns a map that holds only
    the leaves' gradients.

    The graph is loss = 1*r0 + 2*r1 with r = relu(h), h = x @ w^T; at
    x = [2, 1], w = [[1, 2], [0.5, -3]] that is h = [4, -2], so
    dL/dh = [1, 0], dL/dw = [[2, 1], [0, 0]] and dL/dx = w[0] = [1, 2].
    """

    @staticmethod
    def _leaves():
        w = Parameter(np.array([[1.0, 2.0], [0.5, -3.0]]), "w",
                      dtype=np.float64)
        x = Tensor(np.array([[2.0, 1.0]]), requires_grad=True,
                   dtype=np.float64)
        return w, x

    @staticmethod
    def _loss(w, x):
        h = ops.linear(x, w)
        r = ops.relu(h)
        return h, r, ops.weighted_sum(r, np.array([[1.0, 2.0]]))

    def test_backward_empties_the_tape(self):
        w, x = self._leaves()
        with Tape() as tape:
            _, _, loss = self._loss(w, x)
        assert len(tape) == 3
        tape.backward(loss)
        assert len(tape) == 0

    def test_intermediate_arrays_freed(self):
        w, x = self._leaves()
        with Tape() as tape:
            h = ops.linear(x, w)
            h_data = weakref.ref(h.data)
            loss = ops.weighted_sum(ops.relu(h), np.array([[1.0, 2.0]]))
            del h
        assert h_data() is not None
        tape.backward(loss)
        assert h_data() is None

    def test_node_output_grads_released(self):
        w, x = self._leaves()
        with Tape() as tape:
            h, r, loss = self._loss(w, x)
        grads = tape.backward(loss)
        assert h not in grads and r not in grads and loss not in grads

    def test_leaf_grads_kept(self):
        w, x = self._leaves()
        with Tape() as tape:
            _, _, loss = self._loss(w, x)
        grads = tape.backward(loss)
        assert set(grads) == {w, x}
        assert np.array_equal(grads[w], [[2.0, 1.0], [0.0, 0.0]])
        assert np.array_equal(grads[x], [[1.0, 2.0]])

    def test_second_backward_raises(self):
        w, x = self._leaves()
        with Tape() as tape:
            _, _, loss = self._loss(w, x)
        grads = tape.backward(loss)
        with pytest.raises(ValueError, match="already ran"):
            tape.backward(loss)
        assert np.array_equal(grads[x], [[1.0, 2.0]])

    def test_two_tapes_return_independent_maps(self):
        # no tensor keeps a gradient, so the second tape's map does not
        # hold the first's, and the first map is left as it was
        w, x = self._leaves()
        maps = []
        for _ in range(2):
            with Tape() as tape:
                _, _, loss = self._loss(w, x)
            maps.append(tape.backward(loss))
        first, second = maps
        for t in (w, x):
            assert second[t] is not first[t]
            assert second[t].tobytes() == first[t].tobytes()
        assert np.array_equal(first[x], [[1.0, 2.0]])
        assert np.array_equal(second[x], [[1.0, 2.0]])


def test_threads_with_their_own_tapes_match_serial_gradients():
    # one model, one tape per thread, switching threads every microsecond:
    # each thread's map has the bytes of the same pass run alone
    cfg = ModelConfig(t_in=4, t_out=4, height=32, width=32, c_step=2,
                      n_blocks=1, enc_widths=(4,), dec_widths=(8, 4),
                      droppath_rate=0.0)
    model = init_params(cfg, seed=0)
    rng = np.random.default_rng(0)
    inputs = [(rng.random((1, 4, 2, 32, 32)) < 0.1).astype(np.float32)
              for _ in range(3)]

    def gradients(x):
        with Tape() as tape:
            out = model.forward(Tensor(x), training=True)
            loss = ops.weighted_sum(out, np.linspace(-1.0, 1.0, out.size,
                                                     dtype=np.float32)
                                    .reshape(out.shape))
        grads = tape.backward(loss)
        return [grads[p].tobytes() for p in model.parameters()]

    want = [gradients(x) for x in inputs]
    got = [[] for _ in inputs]

    def run(i):
        for _ in range(4):
            got[i].append(gradients(inputs[i]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(len(inputs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for passes, ref in zip(got, want):
        assert passes == [ref] * 4


def test_run_op_suite_all_pass():
    results = run_op_suite(seeds=(0, 1))
    assert all(r["passed"] for r in results), [
        r for r in results if not r["passed"]]


def test_model_composition_gradcheck():
    # end-to-end: every parameter of the small model, through the full
    # forward and combined loss, against central differences
    from etide.numerics import check_model_gradients
    err = check_model_gradients()
    assert err < 1e-5, f"composed model rel err {err}"


class TestBackwardBuffers:
    """The backward kernels that write into fewer buffers keep the bytes of
    the expressions they replaced, written out here as references."""

    @pytest.fixture(params=[np.float32, np.float64])
    def arrays(self, request):
        rng = np.random.default_rng(0)
        shape = (2, 6, 5, 7)

        def draw(scale=1.0):
            return (rng.standard_normal(shape) * scale).astype(request.param)
        return draw

    def test_gelu_grad(self, arrays):
        g, x = arrays(), arrays(3.0)
        cdf = ops._gelu_cdf(x)
        pdf = ops._INV_SQRT2PI * np.exp(-0.5 * x * x)
        want = g * (cdf + x * pdf)
        got = ops._gelu_grad(g, x, cdf)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_layer_norm_dx(self, arrays):
        x, g, gamma = arrays(2.0), arrays(), arrays()[0, :, 0, 0]
        _, xn, inv = ops._layer_norm(x, gamma, gamma, 1e-6)
        gn = g * gamma[None, :, None, None]
        m1 = gn.mean(axis=1, keepdims=True)
        m2 = (gn * xn).mean(axis=1, keepdims=True)
        gn -= m1
        want = inv * (gn - xn * m2)
        got = next(ops._layer_norm_grads(g, xn, inv, gamma, need_dx=True))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @staticmethod
    def _gradient(t, *gs):
        """t's gradient from a tape whose one node hands it each of gs."""
        with Tape() as tape:
            out = ops._track(np.zeros(()), (t,) * len(gs), lambda _: gs)
        return tape.backward(out)[t]

    def test_first_gradient_is_zeros_plus_g(self, arrays):
        g = arrays()
        g[0, 0, 0, :2] = (-0.0, np.nan)
        t = Tensor(np.ones_like(g), requires_grad=True)
        got = self._gradient(t, g)
        want = np.zeros_like(g)
        want += g
        assert got.tobytes() == want.tobytes()
        assert got is not g and not np.signbit(got[0, 0, 0, 0])
        want += g
        assert self._gradient(t, g, g).tobytes() == want.tobytes()

    def test_first_gradient_broadcasts_and_casts(self):
        # a gradient of another shape or dtype is added as += would
        t = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        g = np.array([0.1, -0.2, 0.3])
        got = self._gradient(t, g)
        want = np.zeros((2, 3), dtype=np.float32)
        want += g
        assert got.dtype == np.float32
        assert got.tobytes() == want.tobytes()
