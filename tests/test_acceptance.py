"""Release gate: nine must-pass checks, one test per requirement.

Every test ends by printing a single PASS/FAIL line (visible with -s, -rA,
or in failure output) so a run of this file reads as a checklist. The
learning check and the gradient suite carry their wall-clock budgets in
the assertions themselves.
"""

import math
import time

import numpy as np

from etide.events import (EventStream, OccurrenceTensor, bin_events,
                          random_bar_scene, read_evt, read_ocm, synth_scene,
                          write_evt, write_ocm)
from etide.losses import (LossConfig, ddr_loss, focal_elem, polarity_focal,
                          total_loss)
from etide.metrics import MetricAccumulator, otsu_threshold, ssim
from etide.model import (ModelConfig, TideModel, count_params, init_params,
                         load_checkpoint, pack_time, save_checkpoint,
                         unpack_time)
from etide.numerics import Tensor, check_model_gradients, ops, run_op_suite
from etide.training import (TrainConfig, benchmark, make_moving_bar_dataset,
                            train)


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"{name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _full_config(**overrides) -> ModelConfig:
    return ModelConfig(**overrides)


def _tiny_model(**overrides) -> ModelConfig:
    base = dict(t_in=3, t_out=3, height=16, width=16, c_step=2, n_blocks=1,
                enc_widths=(4,), dec_widths=(8, 4), droppath_rate=0.0)
    base.update(overrides)
    return ModelConfig(**base)


def _tiny_train(**overrides) -> TrainConfig:
    base = dict(epochs=1, batch_size=2, lr=1e-3, seed=0, val_split=0.25,
                model=_tiny_model(), loss=LossConfig())
    base.update(overrides)
    return TrainConfig(**base)


# --------------------------------------------------------------------------
# 1. gradients
# --------------------------------------------------------------------------

def test_1_gradient_suite():
    t0 = time.perf_counter()
    rows = run_op_suite()
    model_err = check_model_gradients()
    elapsed = time.perf_counter() - t0
    worst_op = max(r["max_rel_err"] for r in rows)
    ok = (all(r["passed"] for r in rows) and model_err < 1e-5
          and elapsed < 120.0)
    _report("1 gradient suite", ok,
            f"{len(rows)} op checks max {worst_op:.2e}, "
            f"composed model {model_err:.2e}, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 2. structural invariants
# --------------------------------------------------------------------------

def test_2_structural_invariants():
    cfg = _full_config(droppath_rate=0.0)
    model = init_params(cfg, seed=0)
    hp = cfg.height >> cfg.stages
    wp = cfg.width >> cfg.stages

    # (a) zero features stay zero through the mixing core (biases init to 0)
    zero = Tensor(np.zeros((2, cfg.packed_channels, hp, wp), dtype=np.float32))
    core_zero = bool(np.all(model.tide_core(zero, 0).data == 0.0))

    # (b)+(c) observe every gate vector and activity mask of a real forward
    gates, masks = [], []
    orig_gp, orig_pool = ops.gated_product, ops.masked_mean_pool

    def rec_gp(gate, features, base=None):
        gates.append(np.array(gate.data, copy=True))
        return orig_gp(gate, features, base)

    def rec_pool(x, mask, eps=1e-8):
        masks.append(np.array(mask, copy=True))
        return orig_pool(x, mask, eps)

    ops.gated_product, ops.masked_mean_pool = rec_gp, rec_pool
    try:
        x = (np.random.default_rng(0).random((2, cfg.t_in, 2, cfg.height,
                                              cfg.width)) < 0.05)
        model.forward(Tensor(x.astype(np.float32)), training=False)
    finally:
        ops.gated_product, ops.masked_mean_pool = orig_gp, orig_pool

    gates_open = (len(gates) == cfg.n_blocks and
                  all(np.all((g > 0.0) & (g < 1.0)) for g in gates))
    floor_count = max(math.floor((1.0 - cfg.mask_quantile) * hp * wp), 1)
    mask_ok = (len(masks) == cfg.n_blocks and
               all(int(m[i].sum()) >= floor_count
                   for m in masks for i in range(m.shape[0])))

    # (d) composed depthwise mixing: impulse support exactly 23x23
    grid = np.zeros((1, 1, 33, 33))
    grid[0, 0, 16, 16] = 1.0
    a = ops.conv2d(Tensor(grid), Tensor(np.ones((1, 1, 5, 5))), padding=2)
    a = ops.conv2d(a, Tensor(np.ones((1, 1, 7, 7))), dilation=3, padding=9)
    support = a.data[0, 0] != 0.0
    rows = np.flatnonzero(support.any(axis=1))
    cols = np.flatnonzero(support.any(axis=0))
    support_ok = (rows.size and cols.size
                  and rows[-1] - rows[0] + 1 == 23
                  and cols[-1] - cols[0] + 1 == 23
                  and int(support.sum()) == 23 * 23)

    # (e) time-to-channel packing round-trips exactly
    e = np.random.default_rng(1).standard_normal((6, 4, 5, 5))
    packed = pack_time(Tensor(e), 3)
    back = unpack_time(packed, 3)
    pack_ok = (np.array_equal(back.data, e)
               and np.array_equal(packed.data[0, 4:8], e[1]))

    ok = core_zero and gates_open and mask_ok and support_ok and pack_ok
    _report("2 structural invariants", ok,
            f"core0={core_zero} gate={gates_open} mask={mask_ok} "
            f"support23={support_ok} pack={pack_ok}")


# --------------------------------------------------------------------------
# 3. full-size configuration audit
# --------------------------------------------------------------------------

def test_3_full_config_audit():
    cfg = _full_config()
    assert (cfg.t_in, cfg.t_out, cfg.height, cfg.width) == (10, 10, 128, 128)
    assert (cfg.c_step, cfg.n_blocks) == (8, 4)
    assert (cfg.k_mix1, cfg.k_mix2, cfg.mix_dilation) == (5, 7, 3)
    assert (cfg.mask_quantile, cfg.gate_reduction) == (0.98, 16)
    model = init_params(cfg, seed=0)
    x = (np.random.default_rng(0).random((1, 10, 2, 128, 128)) < 0.02)
    y = model.forward(Tensor(x.astype(np.float32)))
    n = count_params(model)
    ok = y.shape == (1, 10, 2, 128, 128) and 300_000 <= n <= 600_000
    _report("3 full-config audit", ok, f"output {y.shape}, {n} params")


# --------------------------------------------------------------------------
# 4. loss oracles
# --------------------------------------------------------------------------

def test_4_loss_oracles():
    pos = focal_elem(0.5, 1, 0.75, 2.0)
    neg = focal_elem(0.5, 0, 0.75, 2.0)
    hand_ok = abs(pos - 0.12997) < 1e-4 and abs(neg - 0.04332) < 1e-4

    rng = np.random.default_rng(2)
    probs = rng.random((2, 3, 2, 4, 4))
    ddr_zero = abs(float(ddr_loss(Tensor(probs), probs, tau=1.0).data)) < 1e-6

    # two frames, 1x1 spatial: the flattened difference vector has length 2,
    # so the KL term reduces to a two-way softmax computed by hand
    p_frames = np.array([0.2, 0.7, 0.9, 0.1]).reshape(1, 2, 2, 1, 1)
    t_frames = np.array([0.0, 1.0, 1.0, 0.0]).reshape(1, 2, 2, 1, 1)
    dp = [0.9 - 0.2, 0.1 - 0.7]
    dt = [1.0, -1.0]

    def soft2(v):
        m = max(v)
        e = [math.exp(u - m) for u in v]
        s = sum(e)
        return [u / s for u in e]

    p2, q2 = soft2(dp), soft2(dt)
    hand_kl = sum(pi * (math.log(pi + 1e-8) - math.log(qi + 1e-8))
                  for pi, qi in zip(p2, q2))
    got_kl = float(ddr_loss(Tensor(p_frames), t_frames, tau=1.0).data)
    scalar_ok = abs(got_kl - hand_kl) < 1e-6

    logits = rng.standard_normal((2, 3, 2, 4, 4))
    targets = (rng.random((2, 3, 2, 4, 4)) < 0.3).astype(np.float64)
    cfg0 = LossConfig(alpha_ddr=0.0)
    bit_ok = (float(total_loss(Tensor(logits), targets, cfg0).data)
              == float(polarity_focal(Tensor(logits), targets, cfg0).data))

    ok = hand_ok and ddr_zero and scalar_ok and bit_ok
    _report("4 loss oracles", ok,
            f"focal {pos:.5f}/{neg:.5f}, ddr0 {ddr_zero}, "
            f"hand-KL diff {abs(got_kl - hand_kl):.1e}, exact-sum {bit_ok}")


# --------------------------------------------------------------------------
# 5. metric oracles
# --------------------------------------------------------------------------

def _exhaustive_otsu(img: np.ndarray) -> float:
    """All 255 candidate boundaries, straight from the definition."""
    hist = np.zeros(256)
    for v in img.ravel():
        hist[min(int(v * 256.0), 255)] += 1.0
    levels = (np.arange(256) + 0.5) / 256.0
    total = hist.sum()
    best_var, best = -1.0, 0.5
    for k in range(1, 256):
        w0, w1 = hist[:k].sum(), hist[k:].sum()
        if w0 == 0.0 or w1 == 0.0:
            continue
        mu0 = float(hist[:k] @ levels[:k]) / w0
        mu1 = float(hist[k:] @ levels[k:]) / w1
        var = (w0 / total) * (w1 / total) * (mu0 - mu1) ** 2
        if var > best_var:
            best_var, best = var, k / 256.0
    return best


def test_5_metric_oracles():
    rng = np.random.default_rng(3)
    mismatches = 0
    for i in range(100):
        kind = i % 3
        if kind == 0:
            img = rng.random((13, 17))
        elif kind == 1:
            img = rng.beta(0.4, 0.4, size=(13, 17))
        else:
            img = (rng.integers(0, 5, size=(13, 17)) / 5.0
                   + rng.random() * 0.19)
        if otsu_threshold(img) != _exhaustive_otsu(img):
            mismatches += 1

    def accumulate(pred, gt):
        acc = MetricAccumulator()
        acc.update(pred, gt)
        return acc.finalize()

    shape = (1, 2, 4, 4)
    gt = (np.random.default_rng(4).random(shape) < 0.5).astype(np.uint8)
    ident = accumulate(gt.copy(), gt)
    identity_ok = ident["miou"] == 1.0 and ident["aiou"] == 1.0

    gt_c = np.zeros(shape, np.uint8)
    gt_c[0, :, :2, :2] = 1
    pred_c = np.zeros(shape, np.uint8)
    pred_c[0, :, 0, 0] = 1
    cover = accumulate(pred_c, gt_c)
    cover_ok = (cover["iou_on"] == 0.25 and cover["iou_off"] == 0.25
                and cover["aiou"] == 0.25)

    pred_d = np.zeros(shape, np.uint8)
    pred_d[0, :, 2:, 2:] = 1
    disjoint = accumulate(pred_d, gt_c)
    disjoint_ok = disjoint["miou"] == 0.0 and disjoint["aiou"] == 0.0

    x = np.random.default_rng(5).random((32, 32))
    ssim_ok = abs(ssim(x, x) - 1.0) < 1e-6

    ok = (mismatches == 0 and identity_ok and cover_ok and disjoint_ok
          and ssim_ok)
    _report("5 metric oracles", ok,
            f"otsu mismatches {mismatches}/100, iou "
            f"{identity_ok}/{cover_ok}/{disjoint_ok}, ssim(x,x) {ssim_ok}")


# --------------------------------------------------------------------------
# 6. learning check (slow; the budget is part of the requirement)
# --------------------------------------------------------------------------

def test_6_learning_check():
    t0 = time.perf_counter()
    dataset = make_moving_bar_dataset(222, height=128, width=128,
                                      t_in=10, t_out=10, seed=7)
    model_cfg = ModelConfig(c_step=4, n_blocks=2, enc_widths=(16,),
                            dec_widths=(48, 24), droppath_rate=0.0)
    cfg = TrainConfig(epochs=5, batch_size=4, lr=2e-3, seed=3, val_split=0.1,
                      model=model_cfg, loss=LossConfig())
    model = init_params(model_cfg, seed=cfg.seed)
    model, history = train(model, dataset, cfg)
    elapsed = time.perf_counter() - t0

    n_train = len(dataset) - round(len(dataset) * cfg.val_split)
    losses = [rec["train_loss"] for rec in history]
    margin = history[-1]["val_aiou"] - history[-1]["baseline_aiou"]
    decreasing = losses[0] > losses[1] > losses[2]
    ok = (n_train >= 200 and margin >= 0.05 and decreasing
          and elapsed < 1800.0)
    _report("6 learning check", ok,
            f"train seqs {n_train}, aiou {history[-1]['val_aiou']:.3f} vs "
            f"persistence {history[-1]['baseline_aiou']:.3f} "
            f"(margin {margin:+.3f}), first losses "
            f"{', '.join(f'{l:.4f}' for l in losses[:3])}, {elapsed:.0f}s")


# --------------------------------------------------------------------------
# 7. single-pass latency
# --------------------------------------------------------------------------

def test_7_single_pass_latency():
    model = init_params(_full_config(), seed=0)
    record = benchmark(model, iters=15, warmup=3, seed=0)
    # all T_out frames come from one forward call: benchmark() times exactly
    # one predict() (one model.forward) per iteration and the output
    # carries every frame
    x = (np.random.default_rng(0).random((1, 10, 2, 128, 128)) < 0.02)
    y = model.forward(Tensor(x.astype(np.float32)))
    single_pass = y.shape == (1, 10, 2, 128, 128)
    ok = single_pass and record["median_ms"] < 1000.0
    _report("7 single-pass latency", ok,
            f"median {record['median_ms']:.1f} ms, p95 "
            f"{record['p95_ms']:.1f} ms, single-pass {single_pass}")


# --------------------------------------------------------------------------
# 8. determinism and persistence
# --------------------------------------------------------------------------

def test_8_determinism_and_persistence(tmp_path):
    dataset = make_moving_bar_dataset(6, height=16, width=16, t_in=3, t_out=3,
                                      seed=0)
    cfg = _tiny_train(epochs=2)

    ckpts = []
    for run in ("a", "b"):
        model = init_params(cfg.model, seed=cfg.seed)
        model, _ = train(model, dataset, cfg)
        path = tmp_path / f"{run}.etw"
        save_checkpoint(path, model)
        ckpts.append(path.read_bytes())
    bit_identical = ckpts[0] == ckpts[1]

    scene = random_bar_scene(np.random.default_rng(0), 16, 16, n_bins=6)
    stream = synth_scene(scene, seed=1)
    evt_path = tmp_path / "s.evt1"
    write_evt(evt_path, stream)
    back = read_evt(evt_path)
    evt_ok = (np.array_equal(back.t, stream.t) and np.array_equal(back.u, stream.u)
              and np.array_equal(back.v, stream.v) and np.array_equal(back.p, stream.p)
              and (back.width, back.height) == (stream.width, stream.height))

    occ = bin_events(stream, 0, 10_000, 6)
    ocm_path = tmp_path / "s.ocm1"
    write_ocm(ocm_path, occ)
    occ2 = read_ocm(ocm_path)
    ocm_ok = (np.array_equal(occ2.frames, occ.frames)
              and occ2.bin_duration == occ.bin_duration and occ2.t0 == occ.t0)

    model = init_params(cfg.model, seed=9)
    etw_path = tmp_path / "m.etw"
    save_checkpoint(etw_path, model)
    model2 = load_checkpoint(etw_path)
    etw_ok = all(np.array_equal(p.data, q.data) and p.name == q.name
                 for p, q in zip(model.parameters(), model2.parameters()))

    unbroken = init_params(cfg.model, seed=cfg.seed)
    unbroken, full_hist = train(unbroken, dataset, cfg, out_dir=tmp_path)
    resumed = load_checkpoint(tmp_path / "ckpt_0001.etw")
    from etide.training import AdamState
    state = AdamState.load(str(tmp_path / "ckpt_0001.etw.opt.npz"), resumed)
    resumed, tail_hist = train(resumed, dataset, cfg, state=state)
    resume_gap = abs(tail_hist[-1]["train_loss"] - full_hist[-1]["train_loss"])

    ok = (bit_identical and evt_ok and ocm_ok and etw_ok
          and resume_gap < 1e-7)
    _report("8 determinism and persistence", ok,
            f"checkpoints identical {bit_identical}, round-trips "
            f"evt={evt_ok} ocm={ocm_ok} etw={etw_ok}, resume gap "
            f"{resume_gap:.1e}")


# --------------------------------------------------------------------------
# 9. ablation switches
# --------------------------------------------------------------------------

def test_9_ablation_switches():
    dataset = make_moving_bar_dataset(4, height=16, width=16, t_in=3, t_out=3,
                                      seed=1)
    variants = {
        "equal polarity weights": _tiny_train(
            loss=LossConfig(lambda_on=0.5, lambda_off=0.5)),
        "global average pooling": _tiny_train(
            model=_tiny_model(use_activity_mask=False)),
        "additive-only residual": _tiny_train(
            model=_tiny_model(use_multiplicative_residual=False)),
        "regularizer off": _tiny_train(loss=LossConfig(alpha_ddr=0.0)),
    }
    failed = []
    for name, cfg in variants.items():
        model = init_params(cfg.model, seed=cfg.seed)
        _, history = train(model, dataset, cfg)
        if not (len(history) == 1 and np.isfinite(history[0]["train_loss"])):
            failed.append(name)
    ok = not failed
    _report("9 ablation switches", ok,
            "all 4 variants trained" if ok else f"failed: {failed}")
