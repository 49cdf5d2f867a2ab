"""Evaluation protocol for occurrence-map forecasts.

Predicted probabilities are binarized per frame and per polarity channel
with an automatically selected threshold (maximum between-class variance
over a 256-bin histogram). Overlap metrics are accumulated as global
intersection/union counts over an entire evaluation set rather than
averaged per frame; aIoU scores the polarity-agnostic mask formed by
OR-ing the two channels. MSE and windowed SSIM report pixel fidelity.

SSIM's Gaussian means run as two passes of the same along-H filter, the
second on a transposed copy of the first's output, so every window line is
one BLAS gemv. A 0/1 image (every target, every persistence forecast) is
its own square, so its filtered square is its filtered mean and is not
computed again. Scores agree with a nested-loop reference within 1e-12.

An evaluation pass scores a sequence in two steps. `score_sequence` is
pure NumPy on read-only inputs, so it may run on another thread than the
forecast: it returns one `Score`, the increments of one accumulator, for
the model, the persistence baseline and each fixed threshold, and filters
each target plane once for both forecasts. `MetricAccumulator.fold` then
adds a Score to the counters; folding the sequences in order sums every
float as `MetricAccumulator.update`, which is the two steps for one
prediction, would. `training.rollout_eval` (behind `etide eval` and
train()'s validation) scores every sequence but the last on the forecast
helper thread (numerics.parallel states when it is used) while its
caller's thread runs the next forecast.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .util import is_binary

_METRIC_KEYS = ("iou_on", "iou_off", "miou", "aiou", "mse", "ssim")

_SSIM_WINDOW = 11
_SSIM_SIGMA = 1.5
_SSIM_C1 = 0.01 ** 2
_SSIM_C2 = 0.03 ** 2
# Normalised 1-D Gaussian; its outer product with itself is the SSIM window.
_SSIM_GAUSS = np.exp(-(np.arange(_SSIM_WINDOW) - _SSIM_WINDOW // 2) ** 2
                     / (2.0 * _SSIM_SIGMA ** 2))
_SSIM_GAUSS /= _SSIM_GAUSS.sum()


def otsu_threshold(probs: np.ndarray) -> float:
    """Histogram threshold maximizing between-class variance.

    Builds a 256-bin histogram over [0, 1] and scans the 255 interior bin
    boundaries; the returned value is the boundary k/256 whose split
    maximizes w0*w1*(mu0-mu1)^2, ties resolved toward the lower boundary.
    An image occupying a single bin has no valid split and maps to 0.5.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2:
        raise ValueError(f"expected a 2D image, got shape {probs.shape}")
    flat = probs.reshape(-1)
    if not bool(np.all((flat >= 0.0) & (flat <= 1.0))):
        raise ValueError("probabilities must lie in [0, 1]")

    # bin k holds [k/256, (k+1)/256), bin 255 also 1.0; 256*p is exact
    bins = (flat * 256.0).astype(np.intp)
    np.minimum(bins, 255, out=bins)
    hist = np.bincount(bins, minlength=256).astype(np.float64)
    levels = (np.arange(256) + 0.5) / 256.0

    mass = np.cumsum(hist)
    first = np.cumsum(hist * levels)
    total = mass[-1]
    w0 = mass[:-1]
    w1 = total - w0
    valid = (w0 > 0) & (w1 > 0)
    if not valid.any():
        return 0.5
    mu0 = first[:-1] / np.where(w0 > 0, w0, 1.0)
    mu1 = (first[-1] - first[:-1]) / np.where(w1 > 0, w1, 1.0)
    var = np.where(valid, (w0 / total) * (w1 / total) * (mu0 - mu1) ** 2, -1.0)
    return (int(np.argmax(var)) + 1) / 256.0


def binarize(probs: np.ndarray) -> np.ndarray:
    """Threshold a [T,2,H,W] probability tensor into {0,1} masks.

    The threshold is computed independently for every frame and polarity
    channel and applied with >=.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 4 or probs.shape[1] != 2:
        raise ValueError(f"expected [T,2,H,W] probabilities, got {probs.shape}")
    out = np.zeros(probs.shape, dtype=np.uint8)
    for t in range(probs.shape[0]):
        for c in range(2):
            out[t, c] = probs[t, c] >= otsu_threshold(probs[t, c])
    return out


def mse(pred: np.ndarray, gt: np.ndarray) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {gt.shape}")
    return float(np.mean((pred - gt) ** 2))


def _gaussian_mean(img: np.ndarray) -> np.ndarray:
    """Local means under the 11x11 Gaussian window, transposed: [W-10, H-10].

    Each pass filters along axis 0, where a window view has one unit
    stride, so numpy hands every line to BLAS gemv; the transposed copy in
    between turns W into axis 0 for the second pass.
    """
    along_h = sliding_window_view(img, _SSIM_WINDOW, axis=0) @ _SSIM_GAUSS
    along_w = sliding_window_view(along_h.T.copy(), _SSIM_WINDOW, axis=0)
    return along_w @ _SSIM_GAUSS


def _check_window(shape: tuple[int, ...]) -> None:
    if min(shape) < _SSIM_WINDOW:
        raise ValueError(
            f"image {shape} smaller than the {_SSIM_WINDOW}x{_SSIM_WINDOW} window")


def ssim(x: np.ndarray, y: np.ndarray, mu_x: np.ndarray | None = None,
         mu_y: np.ndarray | None = None) -> float:
    """Mean windowed SSIM between two [H,W] images on unit range.

    11x11 Gaussian window (sigma 1.5), C1=0.01^2, C2=0.03^2; windows are
    taken fully inside the image, so both sides must be at least 11 wide.
    The window is separable, so each local mean is two passes of the
    normalised 1-D Gaussian, along H on the image and then along H again on
    a transposed copy, each line one BLAS gemv. A 0/1 image (util.is_binary)
    equals its own square, so it reuses its local mean as the mean of its
    square instead of squaring and filtering again, which changes no bits.
    mu_x and mu_y, when given, are the local means of x and y (as
    _gaussian_mean returns them) from a caller that scores the same image
    more than once; they are read, never written. The score agrees with a
    nested-loop evaluation of the same formula within 1e-12.
    """
    x, y = np.asarray(x), np.asarray(y)
    if x.ndim != 2 or x.shape != y.shape:
        raise ValueError(f"expected matching 2D images, got {x.shape} vs {y.shape}")
    _check_window(x.shape)
    # tested before the cast: one pass over a uint8 image
    x_binary, y_binary = is_binary(x), is_binary(y)
    x = x.astype(np.float64, copy=False)
    y = y.astype(np.float64, copy=False)

    if mu_x is None:
        mu_x = _gaussian_mean(x)
    if mu_y is None:
        mu_y = _gaussian_mean(y)
    mean_xx = mu_x if x_binary else _gaussian_mean(x * x)
    mean_yy = mu_y if y_binary else _gaussian_mean(y * y)
    mean_xy = _gaussian_mean(x * y)
    mu_xx, mu_yy, mu_xy = mu_x * mu_x, mu_y * mu_y, mu_x * mu_y
    # (2 mu_x mu_y + C1)(2 cov + C2) / ((mu_x^2 + mu_y^2 + C1)(var_x + var_y
    # + C2)), in the order the formula reads (2 (a b) equals (2 a) b
    # exactly); mean_xx and mean_yy may be mu_x and mu_y, so the variances
    # are new arrays
    mean_xy -= mu_xy
    mean_xy *= 2
    mean_xy += _SSIM_C2
    mu_xy *= 2
    mu_xy += _SSIM_C1
    mu_xy *= mean_xy
    var_x = mean_xx - mu_xx
    var_y = mean_yy - mu_yy
    mu_xx += mu_yy
    mu_xx += _SSIM_C1
    var_x += var_y
    var_x += _SSIM_C2
    mu_xx *= var_x
    mu_xy /= mu_xx
    return float(mu_xy.mean())


def _check_binary_pair(pred_bin: np.ndarray, gt: np.ndarray) -> None:
    if pred_bin.ndim != 4 or pred_bin.shape[1] != 2:
        raise ValueError(f"expected [T,2,H,W] masks, got {pred_bin.shape}")
    if pred_bin.shape != gt.shape:
        raise ValueError(f"shape mismatch {pred_bin.shape} vs {gt.shape}")
    for name, arr in (("prediction", pred_bin), ("target", gt)):
        if not is_binary(arr):
            raise ValueError(f"{name} mask must be binary")


def _check_probs(probs: np.ndarray, gt: np.ndarray) -> None:
    if probs.shape != gt.shape:
        raise ValueError(f"shape mismatch {probs.shape} vs {gt.shape}")


class Score(NamedTuple):
    """One prediction's increments to a MetricAccumulator: intersection and
    union counts [ON, OFF, polarity-agnostic] and, when it was scored with
    probabilities, their squared-error sum, its pixel count and one SSIM
    per frame (the mean of the two channels')."""

    inter: np.ndarray
    union: np.ndarray
    sq_err: float = 0.0
    pixels: int = 0
    frame_ssim: tuple[float, ...] = ()


def _overlap(pred_bin: np.ndarray, g: np.ndarray,
             g_any: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Intersection and union counts of a 0/1 prediction against the bool
    target g, whose polarity-agnostic mask g_any is g.any(axis=1)."""
    p = pred_bin.astype(bool, copy=False)
    pa = p.any(axis=1)
    inter = np.array([np.count_nonzero(p[:, 0] & g[:, 0]),
                      np.count_nonzero(p[:, 1] & g[:, 1]),
                      np.count_nonzero(pa & g_any)], dtype=np.uint64)
    union = np.array([np.count_nonzero(p[:, 0] | g[:, 0]),
                      np.count_nonzero(p[:, 1] | g[:, 1]),
                      np.count_nonzero(pa | g_any)], dtype=np.uint64)
    return inter, union


def _squared_error(probs: np.ndarray, gt: np.ndarray) -> float:
    """Sum of (probs - gt)^2 in float64, through one float64 buffer."""
    err = np.subtract(probs, gt, dtype=np.float64)
    np.square(err, out=err)
    return float(err.sum())


def score_sequence(probs: np.ndarray, gt: np.ndarray,
                   persistence: np.ndarray, taus=()
                   ) -> tuple[Score, Score, list[Score]]:
    """Scores of one [T,2,H,W] sequence against its binary target gt: the
    model's Otsu masks with its probabilities, the 0/1 persistence forecast
    (also as its own probabilities), and the masks probs >= tau per tau.

    The result is what MetricAccumulator.update would add for each of these
    rows. Its inputs are read, never written, and it uses NumPy alone, so
    it may run on another thread. The target is checked once, and each of
    its planes is filtered once for both SSIM rows; a persistence plane
    equal to the step before reuses that step's mean. A 10-step sequence
    filters 102 planes where update, row by row, filters 140.
    """
    probs, gt = np.asarray(probs), np.asarray(gt)
    persistence = np.asarray(persistence)
    _check_binary_pair(persistence, gt)
    _check_probs(probs, gt)
    _check_window(gt.shape[2:])
    g = gt.astype(bool)
    g_any = g.any(axis=1)

    model_ssim, pers_ssim = [], []
    mu_pers = [None, None]
    for t in range(gt.shape[0]):
        model_row, pers_row = [], []
        for c in range(2):
            mu_gt = _gaussian_mean(gt[t, c].astype(np.float64))
            if t == 0 or not np.array_equal(persistence[t, c],
                                            persistence[t - 1, c]):
                mu_pers[c] = _gaussian_mean(
                    persistence[t, c].astype(np.float64))
            model_row.append(ssim(probs[t, c], gt[t, c], mu_y=mu_gt))
            pers_row.append(ssim(persistence[t, c], gt[t, c],
                                 mu_pers[c], mu_gt))
        model_ssim.append(float(np.mean(model_row)))
        pers_ssim.append(float(np.mean(pers_row)))

    model = Score(*_overlap(binarize(probs), g, g_any),
                  _squared_error(probs, gt), probs.size, tuple(model_ssim))
    pers = Score(*_overlap(persistence, g, g_any),
                 _squared_error(persistence, gt), persistence.size,
                 tuple(pers_ssim))
    grid = [Score(*_overlap(probs >= tau, g, g_any)) for tau in taus]
    return model, pers, grid


class MetricAccumulator:
    """Streaming counts for globally accumulated overlap and fidelity scores.

    Intersection/union counters are unsigned 64-bit and indexed
    [ON, OFF, polarity-agnostic].
    """

    def __init__(self) -> None:
        self.inter = np.zeros(3, dtype=np.uint64)
        self.union = np.zeros(3, dtype=np.uint64)
        self.mse_sum = 0.0
        self.pixel_count = 0
        self.ssim_sum = 0.0
        self.frame_count = 0

    def update(self, pred_bin: np.ndarray, gt: np.ndarray,
               probs: np.ndarray | None = None) -> None:
        """Fold one [T,2,H,W] prediction into the counters.

        pred_bin and gt must be binary; passing the pre-threshold
        probabilities as well accumulates MSE and SSIM.
        """
        pred_bin, gt = np.asarray(pred_bin), np.asarray(gt)
        _check_binary_pair(pred_bin, gt)
        g = gt.astype(bool)
        counts = _overlap(pred_bin, g, g.any(axis=1))
        if probs is None:
            self.fold(Score(*counts))
            return
        probs = np.asarray(probs)
        _check_probs(probs, gt)
        frame_ssim = tuple(
            float(np.mean([ssim(probs[t, c], gt[t, c]) for c in range(2)]))
            for t in range(probs.shape[0]))
        self.fold(Score(*counts, _squared_error(probs, gt), probs.size,
                        frame_ssim))

    def fold(self, score: Score) -> None:
        """Add one prediction's Score to the counters. Scores folded in
        the order of their predictions sum every float as update would."""
        self.inter += score.inter
        self.union += score.union
        self.mse_sum += score.sq_err
        self.pixel_count += score.pixels
        for value in score.frame_ssim:
            self.ssim_sum += value
        self.frame_count += len(score.frame_ssim)

    def finalize(self) -> dict:
        """Scores from the accumulated counts.

        A channel whose union is empty (nothing predicted, nothing present)
        scores 1 so that all-quiet stretches do not drag global numbers.
        """
        def ratio(i, u):
            return 1.0 if u == 0 else float(i) / float(u)

        iou_on = ratio(self.inter[0], self.union[0])
        iou_off = ratio(self.inter[1], self.union[1])
        return {
            "iou_on": iou_on,
            "iou_off": iou_off,
            "miou": 0.5 * (iou_on + iou_off),
            "aiou": ratio(self.inter[2], self.union[2]),
            "mse": self.mse_sum / self.pixel_count if self.pixel_count else 0.0,
            "ssim": self.ssim_sum / self.frame_count if self.frame_count else 1.0,
        }


def format_record(record: dict) -> str:
    """Single machine-readable key=value line: every key in the record's
    order, floats to 6 decimals."""
    return " ".join(f"{key}={value:.6f}" if isinstance(value, float)
                    else f"{key}={value}" for key, value in record.items())


def format_table(metrics: dict) -> str:
    width = max(len(k) for k in _METRIC_KEYS)
    return "\n".join(f"{key:>{width}}  {metrics[key]:.4f}"
                     for key in _METRIC_KEYS)
