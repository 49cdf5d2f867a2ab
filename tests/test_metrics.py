"""Evaluation-metric tests.

Otsu is checked against a brute-force search over every candidate split,
IoU against plain counting, and SSIM against a nested-loop reference.
"""

import math

import numpy as np
import pytest

from etide import metrics
from etide.metrics import (MetricAccumulator, binarize, format_record,
                           format_table, mse, otsu_threshold, score_sequence,
                           ssim)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def otsu_oracle(img):
    """Try all 255 boundaries one by one; first maximum wins."""
    hist = [0] * 256
    for v in np.asarray(img, dtype=np.float64).reshape(-1):
        hist[min(int(v * 256.0), 255)] += 1
    total = sum(hist)
    levels = [(i + 0.5) / 256.0 for i in range(256)]
    best_k, best_var = None, -1.0
    for k in range(1, 256):
        w0 = sum(hist[:k])
        w1 = total - w0
        if w0 == 0 or w1 == 0:
            continue
        mu0 = sum(hist[i] * levels[i] for i in range(k)) / w0
        mu1 = sum(hist[i] * levels[i] for i in range(k, 256)) / w1
        var = (w0 / total) * (w1 / total) * (mu0 - mu1) ** 2
        if var > best_var:
            best_var, best_k = var, k
    if best_k is None:
        return 0.5
    return best_k / 256.0


def iou_oracle(pred, gt):
    inter = int(np.logical_and(pred, gt).sum())
    union = int(np.logical_or(pred, gt).sum())
    if union == 0:
        return 1.0
    return inter / union


def ssim_oracle(x, y, win=11, sigma=1.5):
    """Windowed SSIM with explicit loops and an independently built kernel."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    h, w = x.shape
    half = win // 2
    g1 = [math.exp(-((i - half) ** 2) / (2 * sigma * sigma)) for i in range(win)]
    kern = [[g1[i] * g1[j] for j in range(win)] for i in range(win)]
    norm = sum(sum(row) for row in kern)
    kern = [[v / norm for v in row] for row in kern]
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    vals = []
    for top in range(h - win + 1):
        for left in range(w - win + 1):
            mx = my = mxx = myy = mxy = 0.0
            for i in range(win):
                for j in range(win):
                    a = x[top + i, left + j]
                    b = y[top + i, left + j]
                    kw = kern[i][j]
                    mx += kw * a
                    my += kw * b
                    mxx += kw * a * a
                    myy += kw * b * b
                    mxy += kw * a * b
            vx = mxx - mx * mx
            vy = myy - my * my
            cxy = mxy - mx * my
            vals.append(((2 * mx * my + c1) * (2 * cxy + c2))
                        / ((mx * mx + my * my + c1) * (vx + vy + c2)))
    return sum(vals) / len(vals)


def random_probs(rng, shape):
    kind = rng.integers(0, 3)
    if kind == 0:
        return rng.random(shape)
    if kind == 1:
        return rng.beta(0.4, 0.4, size=shape)
    # quantized two-level images exercise tie handling
    lo, hi = sorted(rng.random(2))
    return np.where(rng.random(shape) < 0.5, lo, hi)


# ---------------------------------------------------------------------------
# otsu_threshold
# ---------------------------------------------------------------------------

class TestOtsu:
    @pytest.mark.parametrize("value", [0.0, 0.3, 0.5, 0.7, 1.0])
    def test_constant_image(self, value):
        assert otsu_threshold(np.full((6, 6), value)) == 0.5

    def test_two_level_separates(self):
        img = np.zeros((4, 8))
        img[:, :4] = 0.1
        img[:, 4:] = 0.9
        thr = otsu_threshold(img)
        assert 0.1 < thr < 0.9

    def test_tie_breaks_low(self):
        # two spikes at 0.25 and 0.75: every boundary between them gives the
        # same split, so the lowest one must be returned
        img = np.where(np.indices((4, 4)).sum(axis=0) % 2 == 0, 0.25, 0.75)
        assert otsu_threshold(img) == 65 / 256

    def test_result_is_bin_boundary(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            thr = otsu_threshold(rng.random((8, 8)))
            assert (thr * 256) == int(thr * 256)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(7)
        for i in range(100):
            img = random_probs(rng, (12, 12))
            assert otsu_threshold(img) == otsu_oracle(img), f"image {i}"

    def test_values_on_bin_edges(self):
        # k/256 opens bin k; 0.0 and 1.0 fall in the first and last bins
        rng = np.random.default_rng(17)
        edges = np.arange(257) / 256.0
        for i in range(40):
            img = rng.choice(edges[rng.integers(0, 257, size=3)],
                             size=(9, 9))
            img[0, 0], img[-1, -1] = 0.0, 1.0
            assert otsu_threshold(img) == otsu_oracle(img), f"image {i}"
        img = np.where(np.indices((4, 4)).sum(axis=0) % 2 == 0, 1.0,
                       255 / 256)
        assert otsu_threshold(img) == 0.5 == otsu_oracle(img)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            otsu_threshold(np.full((4, 4), 1.5))
        with pytest.raises(ValueError):
            otsu_threshold(np.full((4, 4), -0.1))


# ---------------------------------------------------------------------------
# binarize
# ---------------------------------------------------------------------------

class TestBinarize:
    def test_all_zeros(self):
        out = binarize(np.zeros((2, 2, 4, 4)))
        assert out.dtype == np.uint8
        assert not out.any()

    def test_saturated_pattern_recovered(self):
        rng = np.random.default_rng(11)
        pattern = (rng.random((3, 2, 8, 8)) < 0.3)
        probs = np.where(pattern, 0.99, 0.01)
        assert np.array_equal(binarize(probs).astype(bool), pattern)

    def test_per_frame_per_channel_thresholds(self):
        # each (frame, channel) slice uses two different gray pairs; a shared
        # threshold could not recover both patterns
        probs = np.zeros((1, 2, 4, 4))
        hi0 = np.zeros((4, 4), dtype=bool)
        hi0[:2] = True
        hi1 = np.zeros((4, 4), dtype=bool)
        hi1[:, :1] = True
        probs[0, 0] = np.where(hi0, 0.40, 0.20)
        probs[0, 1] = np.where(hi1, 0.80, 0.60)
        out = binarize(probs)
        assert np.array_equal(out[0, 0].astype(bool), hi0)
        assert np.array_equal(out[0, 1].astype(bool), hi1)

    def test_threshold_applied_with_geq(self):
        # adjacent occupied bins force the boundary onto the high level
        # itself: 0.125 fills bin 32, 33/256 fills bin 33, and the only
        # valid split is 33/256 exactly
        hi = np.indices((4, 4)).sum(axis=0) % 2 == 0
        img = np.where(hi, 33 / 256, 0.125)
        assert otsu_threshold(img) == 33 / 256
        out = binarize(np.broadcast_to(img, (1, 2, 4, 4)))
        assert np.array_equal(out[0, 0].astype(bool), hi)

    def test_histogram_shift_moves_threshold(self):
        # adding a quarter shifts every histogram bin by exactly 64, so the
        # selected boundary shifts with it and rankings are preserved
        rng = np.random.default_rng(13)
        for _ in range(20):
            base = rng.integers(0, 128, size=(6, 6)) / 256.0 + 1 / 512.0
            t0 = otsu_threshold(base)
            t1 = otsu_threshold(base + 0.25)
            assert t1 == pytest.approx(t0 + 0.25, abs=1e-12)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            binarize(np.zeros((2, 4, 4)))


# ---------------------------------------------------------------------------
# accumulator
# ---------------------------------------------------------------------------

def frames(*slices):
    """Stack [2,H,W] frames into a [T,2,H,W] uint8 tensor."""
    return np.stack([np.asarray(s, dtype=np.uint8) for s in slices])


class TestAccumulator:
    def test_identity_prediction(self):
        rng = np.random.default_rng(5)
        gt = (rng.random((4, 2, 6, 6)) < 0.3).astype(np.uint8)
        acc = MetricAccumulator()
        acc.update(gt, gt)
        out = acc.finalize()
        assert out["iou_on"] == out["iou_off"] == 1.0
        assert out["miou"] == out["aiou"] == 1.0

    def test_cover_case(self):
        gt = np.zeros((1, 2, 4, 4), dtype=np.uint8)
        gt[0, :, 0, :] = 1  # 4 of 16 pixels per channel
        pred = np.ones((1, 2, 4, 4), dtype=np.uint8)
        acc = MetricAccumulator()
        acc.update(pred, gt)
        out = acc.finalize()
        assert out["miou"] == pytest.approx(0.25)
        assert out["aiou"] == pytest.approx(0.25)

    def test_disjoint_masks(self):
        a = np.zeros((1, 2, 4, 4), dtype=np.uint8)
        b = np.zeros((1, 2, 4, 4), dtype=np.uint8)
        a[0, :, :2] = 1
        b[0, :, 2:] = 1
        acc = MetricAccumulator()
        acc.update(a, b)
        out = acc.finalize()
        assert out["miou"] == 0.0
        assert out["aiou"] == 0.0

    def test_empty_union_scores_one(self):
        acc = MetricAccumulator()
        acc.update(np.zeros((2, 2, 4, 4), dtype=np.uint8),
                   np.zeros((2, 2, 4, 4), dtype=np.uint8))
        out = acc.finalize()
        assert out["miou"] == 1.0 and out["aiou"] == 1.0

    def test_global_accumulation_is_not_frame_average(self):
        hit = np.zeros((2, 4, 4), dtype=np.uint8)
        hit[:, 0, :] = 1
        top = np.zeros((2, 4, 4), dtype=np.uint8)
        top[:, 1, :] = 1
        bot = np.zeros((2, 4, 4), dtype=np.uint8)
        bot[:, 2, :] = 1
        acc = MetricAccumulator()
        acc.update(frames(hit, top), frames(hit, bot))
        out = acc.finalize()
        # frame 1 scores 1, frame 2 scores 0; per-frame mean would be 0.5 but
        # the global counts give 4 / (4 + 8)
        assert out["miou"] == pytest.approx(1 / 3)
        assert out["miou"] != pytest.approx(0.5)

    def test_matches_count_oracle(self):
        rng = np.random.default_rng(17)
        pred = (rng.random((5, 2, 6, 6)) < 0.4)
        gt = (rng.random((5, 2, 6, 6)) < 0.4)
        acc = MetricAccumulator()
        acc.update(pred.astype(np.uint8), gt.astype(np.uint8))
        out = acc.finalize()
        assert out["iou_on"] == pytest.approx(iou_oracle(pred[:, 0], gt[:, 0]))
        assert out["iou_off"] == pytest.approx(iou_oracle(pred[:, 1], gt[:, 1]))
        assert out["miou"] == pytest.approx(
            0.5 * (out["iou_on"] + out["iou_off"]))
        assert out["aiou"] == pytest.approx(
            iou_oracle(pred.any(axis=1), gt.any(axis=1)))

    def test_rejects_nonbinary(self):
        # unsigned arrays are checked by their maximum, the rest element-wise
        ok = np.zeros((1, 2, 4, 4), dtype=np.uint8)
        for bad in (np.full(ok.shape, 2, dtype=np.uint8),
                    np.full(ok.shape, -1, dtype=np.int8),
                    np.full(ok.shape, 0.5), np.full(ok.shape, np.nan)):
            for side, args in (("prediction", (bad, ok)),
                               ("target", (ok, bad))):
                with pytest.raises(ValueError,
                                   match=f"^{side} mask must be binary$"):
                    MetricAccumulator().update(*args)

    @pytest.mark.parametrize("dtype", [np.uint8, bool, np.int8, np.float64])
    def test_accepts_binary_and_empty(self, dtype):
        acc = MetricAccumulator()
        acc.update(np.zeros((0, 2, 4, 4), dtype=dtype),
                   np.zeros((0, 2, 4, 4), dtype=dtype))
        ones = np.ones((1, 2, 4, 4), dtype=dtype)
        acc.update(ones, ones)
        assert acc.finalize()["miou"] == 1.0

    def test_rejects_mismatched_shapes(self):
        acc = MetricAccumulator()
        with pytest.raises(ValueError):
            acc.update(np.zeros((1, 2, 4, 4), dtype=np.uint8),
                       np.zeros((1, 2, 4, 5), dtype=np.uint8))


# ---------------------------------------------------------------------------
# mse / ssim
# ---------------------------------------------------------------------------

class TestFidelity:
    def test_mse_identity(self):
        x = np.random.default_rng(23).random((3, 2, 5, 5))
        assert mse(x, x) == 0.0

    def test_mse_ones_vs_zeros(self):
        assert mse(np.ones((2, 2, 4, 4)), np.zeros((2, 2, 4, 4))) == 1.0

    def test_mse_hand_value(self):
        pred = np.zeros((1, 1, 2, 2))
        pred[0, 0, 0, 0] = 0.5
        assert mse(pred, np.zeros((1, 1, 2, 2))) == pytest.approx(0.25 / 4)

    def test_ssim_self_is_one(self):
        x = np.random.default_rng(29).random((16, 16))
        assert ssim(x, x) == pytest.approx(1.0, abs=1e-6)

    def test_ssim_matches_loop_reference(self):
        # non-square shapes catch a swapped pass axis or a wrong crop, 11x11
        # is the single-window case, and eval scores against binary targets
        rng = np.random.default_rng(31)
        pairs = []
        for shape in ((14, 14), (14, 14), (14, 14), (11, 23), (23, 11),
                      (11, 11)):
            x = rng.random(shape)
            pairs.append((x, np.clip(x + rng.normal(0, 0.2, size=shape), 0, 1)))
        probs = rng.random((16, 20))
        pairs.append((probs, (probs + rng.normal(0, 0.2, size=probs.shape)
                              > 0.5).astype(np.float64)))
        # binary images reuse their filtered mean as that of their square:
        # binary against binary (persistence), a binary prediction against
        # a probability target, constant images and an 11-wide binary pair
        def binary(shape, p=0.3):
            return (rng.random(shape) < p).astype(np.float64)
        pairs.append((binary((14, 18)), binary((14, 18))))
        pairs.append((binary((16, 20)), probs))
        zeros, ones = np.zeros((13, 13)), np.ones((13, 13))
        pairs += [(zeros, zeros), (ones, ones), (zeros, ones),
                  (ones, binary((13, 13)))]
        pairs.append((binary((17, 11)), binary((17, 11), 0.5)))
        for x, y in pairs:
            assert ssim(x, y) == pytest.approx(ssim_oracle(x, y), abs=1e-12)

    def test_ssim_filters_squares_of_nonbinary_images_only(self,
                                                           monkeypatch):
        import etide.metrics as metrics
        calls = []
        mean = metrics._gaussian_mean

        def counted(img):
            calls.append(img)
            return mean(img)
        monkeypatch.setattr(metrics, "_gaussian_mean", counted)
        rng = np.random.default_rng(43)
        binary = (rng.random((14, 14)) < 0.3).astype(np.float64)
        probs = rng.random((14, 14))
        # mu_x, mu_y, mean_xy, plus one square per non-binary image
        for x, y, n in ((binary, binary, 3), (binary, probs, 4),
                        (probs, binary, 4), (probs, probs, 5)):
            calls.clear()
            ssim(x, y)
            assert len(calls) == n

    def test_ssim_penalizes_noise(self):
        rng = np.random.default_rng(37)
        x = (rng.random((20, 20)) < 0.3).astype(np.float64)
        noisy = np.clip(x + rng.normal(0, 0.3, size=x.shape), 0, 1)
        assert 0.0 <= ssim(x, noisy) < 1.0

    def test_ssim_window_too_large(self):
        with pytest.raises(ValueError):
            ssim(np.zeros((8, 8)), np.zeros((8, 8)))

    def test_accumulated_fidelity(self):
        rng = np.random.default_rng(41)
        gt = (rng.random((3, 2, 16, 16)) < 0.3).astype(np.uint8)
        probs = np.clip(gt + rng.normal(0, 0.1, size=gt.shape), 0, 1)
        # binary probabilities, as persistence scores its repeated frame
        for probs in (probs, (probs > 0.5).astype(np.float64)):
            acc = MetricAccumulator()
            acc.update(binarize(probs), gt, probs)
            out = acc.finalize()
            assert out["mse"] == pytest.approx(mse(probs, gt))
            per_frame = [
                np.mean([ssim(probs[t, c], gt[t, c].astype(np.float64))
                         for c in range(2)])
                for t in range(3)
            ]
            assert out["ssim"] == pytest.approx(float(np.mean(per_frame)))

    def test_ssim_reads_given_means_without_writing_them(self):
        # binary images alias their mean as the mean of their square, the
        # case where an in-place formula would write the caller's mean
        rng = np.random.default_rng(47)
        binary = (rng.random((14, 16)) < 0.3).astype(np.uint8)
        probs = rng.random((14, 16))
        for x, y in ((binary, binary[::-1].copy()), (probs, binary),
                     (binary, probs)):
            mu_x = metrics._gaussian_mean(x.astype(np.float64))
            mu_y = metrics._gaussian_mean(y.astype(np.float64))
            kept = mu_x.copy(), mu_y.copy()
            assert ssim(x, y, mu_x, mu_y) == ssim(x, y)
            assert np.array_equal(mu_x, kept[0])
            assert np.array_equal(mu_y, kept[1])


# ---------------------------------------------------------------------------
# per-sequence scorer
# ---------------------------------------------------------------------------

def scored_sequence(rng, t=4):
    gt = (rng.random((t, 2, 14, 16)) < 0.3).astype(np.uint8)
    probs = np.clip(gt + rng.normal(0, 0.3, size=gt.shape), 0, 1)
    persistence = np.repeat(gt[:1], t, axis=0)
    persistence[2:, 1] = gt[-1, 1]  # one plane changes mid-sequence
    return probs.astype(np.float32), gt, persistence


class TestScoreSequence:
    def test_folds_as_update_would(self):
        rng = np.random.default_rng(53)
        taus = (0.25, 0.5)
        serial = [MetricAccumulator() for _ in range(2 + len(taus))]
        folded = [MetricAccumulator() for _ in range(2 + len(taus))]
        for _ in range(3):
            probs, gt, persistence = scored_sequence(rng)
            serial[0].update(binarize(probs), gt, probs)
            serial[1].update(persistence, gt, persistence.astype(np.float64))
            for tau, acc in zip(taus, serial[2:]):
                acc.update((probs >= tau).astype(np.uint8), gt)
            model, pers, grid = score_sequence(probs, gt, persistence, taus)
            for acc, score in zip(folded, [model, pers, *grid]):
                acc.fold(score)
        for a, b in zip(serial, folded):
            assert vars(a).keys() == vars(b).keys()
            for key, value in vars(a).items():
                assert np.array_equal(value, vars(b)[key]), key

    def test_filters_each_plane_once(self, monkeypatch):
        calls = []
        mean = metrics._gaussian_mean

        def counted(img):
            calls.append(img)
            return mean(img)
        monkeypatch.setattr(metrics, "_gaussian_mean", counted)
        probs, gt, persistence = scored_sequence(np.random.default_rng(59))
        score_sequence(probs, gt, persistence)
        # per plane: the target's mean, the model's mean, square and
        # product, persistence's product; persistence's mean at step 0 for
        # both channels and again where channel 1 changes
        assert len(calls) == 5 * 4 * 2 + 2 + 1

    def test_checks_target_and_persistence(self):
        probs, gt, persistence = scored_sequence(np.random.default_rng(61))
        bad = gt.copy()
        bad[1, 0, 2, 3] = 2
        with pytest.raises(ValueError, match="^target mask must be binary$"):
            score_sequence(probs, bad, persistence)
        with pytest.raises(ValueError,
                           match="^prediction mask must be binary$"):
            score_sequence(probs, gt, bad)
        with pytest.raises(ValueError, match="shape mismatch"):
            score_sequence(probs[:, :, :, :15], gt, persistence)
        with pytest.raises(ValueError, match="smaller than the 11x11"):
            score_sequence(probs[..., :10], gt[..., :10],
                           persistence[..., :10])


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def test_format_record_single_line():
    acc = MetricAccumulator()
    acc.update(np.ones((1, 2, 4, 4), dtype=np.uint8),
               np.ones((1, 2, 4, 4), dtype=np.uint8))
    line = format_record(acc.finalize())
    assert "\n" not in line
    parsed = dict(part.split("=") for part in line.split())
    assert set(parsed) == {"iou_on", "iou_off", "miou", "aiou", "mse", "ssim"}
    assert float(parsed["miou"]) == 1.0


def test_format_record_keeps_the_record_order():
    # train's epoch records: an int as is, floats to 6 decimals
    assert (format_record({"epoch": 2, "train_loss": 0.5, "aiou": 1.0})
            == "epoch=2 train_loss=0.500000 aiou=1.000000")


def test_format_table_mentions_every_metric():
    acc = MetricAccumulator()
    acc.update(np.ones((1, 2, 4, 4), dtype=np.uint8),
               np.ones((1, 2, 4, 4), dtype=np.uint8))
    table = format_table(acc.finalize())
    for key in ("iou_on", "iou_off", "miou", "aiou", "mse", "ssim"):
        assert key in table
