"""End-to-end command tests driven through main(argv).

Exit-code contract: 0 success, 1 usage, 2 validation, 3 I/O.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from etide import cli, training
from etide.cli import main
from etide.events import read_ocm
from etide.losses import LossConfig
from etide.metrics import MetricAccumulator
from etide.model import (ModelConfig, init_params, load_checkpoint,
                         save_checkpoint)
from etide.numerics import gradcheck, op_suite_cases
from etide.training import (SequenceDataset, TrainConfig, load_dataset,
                            make_moving_bar_dataset, predict, save_dataset)
from etide.util import config_to_text

MODEL = dict(t_in=3, t_out=3, height=16, width=16, c_step=2, n_blocks=1,
             enc_widths=(4,), dec_widths=(8, 4), droppath_rate=0.0)


def model_cfg(**overrides):
    return ModelConfig(**{**MODEL, **overrides})


def write_train_config(path, **overrides):
    base = dict(epochs=1, batch_size=2, seed=0, val_split=0.25,
                model=model_cfg(), loss=LossConfig(alpha_ddr=0.1))
    base.update(overrides)
    path.write_text(config_to_text(TrainConfig(**base)))
    return path


def synth_args(out, n, frames=3, size="16x16", seed=0):
    return ["synth", "--out", str(out), "--sequences", str(n),
            "--frames", str(frames), "--size", size, "--seed", str(seed)]


def run_etide(args, blas_threads, python_args=("-m", "etide")):
    """`python -m etide args` (or `python python_args args`) in a fresh
    process with the BLAS thread count fixed; returns the completed
    process."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads,
               OMP_NUM_THREADS=blas_threads)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(root, "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *python_args, *args], env=env,
                          capture_output=True, text=True, timeout=300)


# SHA-256 of training.predict on one moving-bar window at the default
# config; the column counts of the sparse stem's GEMMs, the column axis of
# each [K, Mt] block that _stem_columns selects (one per frame half, on two
# threads, so sorted); and the SHA-256 of the serial forward at the BLAS
# count the process runs at (predict pins one thread)
PREDICT_HASH = """
import hashlib, json
from etide import training
from etide.model import ModelConfig, init_params
from etide.numerics import Tensor, ops
columns = ops._stem_columns
counts = []

def counted(cols, where):
    block = columns(cols, where)
    counts.append(block.shape[1])
    return block
ops._stem_columns = counted
x, _ = training.make_moving_bar_dataset(1, seed=3)[0]
model = init_params(ModelConfig(), seed=3)
probs = training.predict(model, x)
print(hashlib.sha256(probs.tobytes()).hexdigest())
print(json.dumps(sorted(counts)))
logits = model.forward(Tensor(x[None].astype(model.dtype)))
print(hashlib.sha256(ops.sigmoid(logits).data.tobytes()).hexdigest())
"""


# at 64x64 the dec1 GEMMs (16 x 32 x 1088 multiply-adds per parity) exceed
# OpenBLAS's default size threshold for threading, so a two-thread run
# really splits work
THREADED_MODEL = dict(height=64, width=64, c_step=4, enc_widths=(16,),
                      dec_widths=(32, 16))


class TestUsageErrors:
    def test_no_command(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 1

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as err:
            main(["explode"])
        assert err.value.code == 1

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as err:
            main(["synth", "--sequences", "2"])
        assert err.value.code == 1


class TestSynth:
    def test_writes_pairs_and_manifest(self, tmp_path):
        out = tmp_path / "data"
        assert main(synth_args(out, 3)) == 0
        rows = (out / "manifest.txt").read_text().splitlines()
        assert len(rows) == 3
        ds = load_dataset(out)
        assert len(ds) == 3
        assert ds.inputs.shape == (3, 3, 2, 16, 16)

    def test_zero_sequences(self, tmp_path):
        out = tmp_path / "data"
        assert main(synth_args(out, 0)) == 0
        assert (out / "manifest.txt").read_text() == ""

    def test_seed_reproducible_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(synth_args(a, 2, seed=9)) == 0
        assert main(synth_args(b, 2, seed=9)) == 0
        for name in ("seq_00000_in.ocm1", "seq_00001_tgt.ocm1",
                     "manifest.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("size", ["16by16", "0x0", "16x0", "-16x16"])
    def test_bad_size_is_validation_error(self, tmp_path, capsys, size):
        assert main(["synth", "--out", str(tmp_path / "d"),
                     "--sequences", "1", f"--size={size}"]) == 2
        assert "--size" in capsys.readouterr().err

    def test_bad_objects_range(self, tmp_path):
        assert main(synth_args(tmp_path / "d", 1)
                    + ["--objects", "5-2"]) == 2


class TestTrain:
    def test_missing_data_dir(self, tmp_path, capsys):
        cfg = write_train_config(tmp_path / "cfg.txt")
        code = main(["train", "--data", str(tmp_path / "nope"),
                     "--config", str(cfg), "--out",
                     str(tmp_path / "m.etw")])
        assert code == 3
        assert "not found" in capsys.readouterr().err

    def test_trains_and_writes_checkpoint(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(synth_args(data, 4)) == 0
        cfg = write_train_config(tmp_path / "cfg.txt")
        out = tmp_path / "model.etw"
        assert main(["train", "--data", str(data), "--config", str(cfg),
                     "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "epoch=1" in stdout and "train_loss=" in stdout
        assert out.exists() and (tmp_path / "model.etw.opt.npz").exists()
        assert main(["inspect", "--ckpt", str(out)]) == 0

    def test_resume_matches_unbroken(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(synth_args(data, 4)) == 0
        cfg2 = write_train_config(tmp_path / "cfg2.txt", epochs=2)

        out_a = tmp_path / "a" / "model.etw"
        assert main(["train", "--data", str(data), "--config", str(cfg2),
                     "--out", str(out_a)]) == 0
        full_log = capsys.readouterr().out

        cfg1 = write_train_config(tmp_path / "cfg1.txt", epochs=1)
        out_b = tmp_path / "b" / "model.etw"
        assert main(["train", "--data", str(data), "--config", str(cfg1),
                     "--out", str(out_b)]) == 0
        capsys.readouterr()
        out_c = tmp_path / "b" / "resumed.etw"
        assert main(["train", "--data", str(data), "--config", str(cfg2),
                     "--out", str(out_c), "--resume", str(out_b)]) == 0
        resume_log = capsys.readouterr().out

        full_epoch2 = [l for l in full_log.splitlines()
                       if l.startswith("epoch=2")]
        resumed_epoch2 = [l for l in resume_log.splitlines()
                          if l.startswith("epoch=2")]
        assert full_epoch2 and full_epoch2 == resumed_epoch2
        assert (out_a.read_bytes() == out_c.read_bytes())

    def test_nonfinite_step_exits_2_and_keeps_checkpoint(self, tmp_path,
                                                         capsys):
        data = tmp_path / "data"
        assert main(synth_args(data, 4)) == 0
        out = tmp_path / "model.etw"
        assert main(["train", "--data", str(data), "--config",
                     str(write_train_config(tmp_path / "cfg1.txt")),
                     "--out", str(out)]) == 0
        before = {f.name: f.read_bytes() for f in tmp_path.iterdir()
                  if f.is_file()}
        # a NaN weight or moment would not load, so Adam's first moment
        # holds the largest float32: the first step of epoch 2 divides it
        # by 1 - beta1^t < 1, and the weight turns infinite
        bad = tmp_path / "bad" / "poisoned.etw"
        bad.parent.mkdir()
        bad.write_bytes(before["model.etw"])
        with np.load(str(out) + ".opt.npz") as npz:
            state = dict(npz)
        state["m:dec1.conv.w"][0, 0, 1, 1] = np.finfo(np.float32).max
        np.savez(str(bad) + ".opt.npz", **state)
        capsys.readouterr()
        cfg2 = write_train_config(tmp_path / "cfg2.txt", epochs=2)
        assert main(["train", "--data", str(data), "--config", str(cfg2),
                     "--out", str(out), "--resume", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "epoch 2, step 2" in err and "dec1.conv.w" in err
        after = {f.name: f.read_bytes() for f in tmp_path.iterdir()
                 if f.is_file()}
        assert after.keys() - {"cfg2.txt"} == before.keys()
        assert all(after[name] == before[name] for name in before)

    def test_truncated_optimizer_state_exits_3(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(synth_args(data, 4)) == 0
        cfg = write_train_config(tmp_path / "cfg.txt")
        out = tmp_path / "model.etw"
        assert main(["train", "--data", str(data), "--config", str(cfg),
                     "--out", str(out)]) == 0
        sidecar = tmp_path / "model.etw.opt.npz"
        sidecar.write_bytes(sidecar.read_bytes()[:-40])
        capsys.readouterr()
        assert main(["train", "--data", str(data), "--config", str(cfg),
                     "--out", str(tmp_path / "again.etw"),
                     "--resume", str(out)]) == 3
        assert f"{sidecar}: unreadable optimizer state" in (
            capsys.readouterr().err)

    def test_nonfinite_optimizer_state_exits_3(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(synth_args(data, 4)) == 0
        cfg = write_train_config(tmp_path / "cfg.txt")
        out = tmp_path / "model.etw"
        assert main(["train", "--data", str(data), "--config", str(cfg),
                     "--out", str(out)]) == 0
        sidecar = tmp_path / "model.etw.opt.npz"
        with np.load(sidecar) as npz:
            state = dict(npz)
        state["v:dec1.conv.w"][0, 0, 1, 1] = np.nan
        np.savez(sidecar, **state)
        capsys.readouterr()
        assert main(["train", "--data", str(data), "--config", str(cfg),
                     "--out", str(tmp_path / "again.etw"),
                     "--resume", str(out)]) == 3
        assert (f"{sidecar}: optimizer entry 'v:dec1.conv.w' has non-finite"
                in capsys.readouterr().err)

    def test_validation_below_the_ssim_window_exits_2_first(self, tmp_path,
                                                            capsys):
        # 8x8 frames cannot be scored: no epoch runs and nothing is written
        data = tmp_path / "data"
        assert main(synth_args(data, 4, size="8x8")) == 0
        cfg = write_train_config(tmp_path / "cfg.txt", val_split=0.5,
                                 model=model_cfg(height=8, width=8))
        out = tmp_path / "run" / "model.etw"
        capsys.readouterr()
        assert main(["train", "--data", str(data), "--config", str(cfg),
                     "--out", str(out)]) == 2
        printed = capsys.readouterr()
        assert "smaller than the 11x11 window" in printed.err
        assert "epoch=" not in printed.out
        assert not out.parent.exists() or not any(out.parent.iterdir())

    def test_non_utf8_manifest_exits_3(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(synth_args(data, 2)) == 0
        manifest = data / training.MANIFEST_NAME
        manifest.write_bytes(manifest.read_bytes() + b"\xff\xfe bad\n")
        capsys.readouterr()
        assert main(["train", "--data", str(data), "--config",
                     str(write_train_config(tmp_path / "cfg.txt")),
                     "--out", str(tmp_path / "m.etw")]) == 3
        assert f"{manifest}: not UTF-8 text" in capsys.readouterr().err

    def test_malformed_manifest_row_exits_3(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(synth_args(data, 2)) == 0
        manifest = data / training.MANIFEST_NAME
        first, second = manifest.read_text().splitlines()
        manifest.write_text(f"{first}\n\n{second} extra\n")
        capsys.readouterr()
        assert main(["train", "--data", str(data), "--config",
                     str(write_train_config(tmp_path / "cfg.txt")),
                     "--out", str(tmp_path / "m.etw")]) == 3
        assert f"{manifest}: line 3 must list two files" in (
            capsys.readouterr().err)

    def test_checkpoint_independent_of_blas_threads(self, tmp_path):
        data = tmp_path / "data"
        assert main(synth_args(data, 4, size="64x64")) == 0
        cfg = write_train_config(tmp_path / "cfg.txt", batch_size=2,
                                 model=model_cfg(**THREADED_MODEL))
        checkpoints = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}" / "model.etw"
            proc = run_etide(["train", "--data", str(data), "--config",
                              str(cfg), "--out", str(out)], threads)
            assert proc.returncode == 0, proc.stderr
            checkpoints.append(out.read_bytes())
        assert checkpoints[0] == checkpoints[1]

    def test_eval_independent_of_blas_threads(self, tmp_path):
        # the forward's GEMMs split at two threads, and both SSIM passes
        # are BLAS gemv calls, so every printed score must hold its bits;
        # four sequences, so that eval's pipeline overlaps and folds
        data = tmp_path / "data"
        assert main(synth_args(data, 4, size="64x64")) == 0
        ckpt = tmp_path / "model.etw"
        save_checkpoint(ckpt, init_params(model_cfg(**THREADED_MODEL),
                                          seed=0))
        printed = []
        for threads in ("1", "2"):
            proc = run_etide(["eval", "--ckpt", str(ckpt), "--data",
                              str(data), "--threshold-grid"], threads)
            assert proc.returncode == 0, proc.stderr
            printed.append(proc.stdout)
        assert "ssim=" in printed[0] and printed[0] == printed[1]

    def test_sparse_stem_forecast_independent_of_blas_threads(self):
        # the stem's GEMMs have as many columns as their five frames have
        # active locations, hundreds each here. predict pins one BLAS
        # thread, so the serial forward (the last line) is what runs at
        # two, with one stem GEMM of thousands of columns, enough for
        # OpenBLAS to split them
        printed = []
        for threads in ("1", "2"):
            proc = run_etide([PREDICT_HASH], threads, python_args=("-c",))
            assert proc.returncode == 0, proc.stderr
            printed.append(proc.stdout)
        lines = printed[0].splitlines()
        columns = json.loads(lines[1])
        assert len(columns) == 2 and 1000 < sum(columns) < 0.5 * 10 * 64 * 64
        assert lines[2] == lines[0]
        assert printed[0] == printed[1]

    @pytest.mark.parametrize("key,value", [
        ("lr", "nan"), ("lr", "inf"), ("eps", "inf"), ("grad_clip", "nan"),
        ("grad_clip", "inf"), ("beta1", "nan"), ("beta2", "-inf"),
        ("val_split", "nan"), ("loss.gamma", "inf"), ("loss.tau", "nan"),
    ])
    def test_nonfinite_config_value_exits_2(self, tmp_path, capsys, key,
                                            value):
        # rejected at config load, before the (missing) data directory
        text = write_train_config(tmp_path / "cfg.txt").read_text()
        lines = [f"{key}={value}" if line.startswith(key + "=") else line
                 for line in text.splitlines()]
        cfg = tmp_path / "bad.txt"
        cfg.write_text("\n".join(lines) + "\n")
        assert main(["train", "--data", str(tmp_path / "nope"), "--config",
                     str(cfg), "--out", str(tmp_path / "m.etw")]) == 2
        name = key.split(".")[-1]
        assert f"{name} must be finite" in capsys.readouterr().err

    def test_resume_config_mismatch(self, tmp_path):
        data = tmp_path / "data"
        assert main(synth_args(data, 2)) == 0
        cfg = write_train_config(tmp_path / "cfg.txt")
        out = tmp_path / "model.etw"
        assert main(["train", "--data", str(data), "--config", str(cfg),
                     "--out", str(out)]) == 0
        other = write_train_config(tmp_path / "other.txt",
                                   model=model_cfg(n_blocks=2))
        assert main(["train", "--data", str(data), "--config", str(other),
                     "--out", str(tmp_path / "x.etw"),
                     "--resume", str(out)]) == 2


class TestPredictEval:
    @pytest.fixture()
    def ckpt(self, tmp_path):
        path = tmp_path / "model.etw"
        save_checkpoint(path, init_params(model_cfg(), seed=0))
        return path

    def test_predict_roundtrip(self, tmp_path, ckpt):
        data = tmp_path / "data"
        assert main(synth_args(data, 1)) == 0
        out = tmp_path / "pred.ocm1"
        assert main(["predict", "--ckpt", str(ckpt),
                     "--in", str(data / "seq_00000_in.ocm1"),
                     "--out", str(out)]) == 0
        occ = read_ocm(out)
        assert occ.frames.shape == (3, 2, 16, 16)
        probs = np.load(str(out) + ".probs.npy")
        assert probs.shape == (3, 2, 16, 16)
        assert probs.dtype == np.float32

    def test_predict_shape_mismatch(self, tmp_path, ckpt):
        data = tmp_path / "data"
        assert main(synth_args(data, 1, size="32x32")) == 0
        assert main(["predict", "--ckpt", str(ckpt),
                     "--in", str(data / "seq_00000_in.ocm1"),
                     "--out", str(tmp_path / "p.ocm1")]) == 2

    def test_predict_missing_input(self, tmp_path, ckpt):
        assert main(["predict", "--ckpt", str(ckpt),
                     "--in", str(tmp_path / "absent.ocm1"),
                     "--out", str(tmp_path / "p.ocm1")]) == 3

    def test_eval_records(self, tmp_path, ckpt, capsys):
        data = tmp_path / "data"
        assert main(synth_args(data, 2)) == 0
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(data)]) == 0
        out = capsys.readouterr().out
        model_lines = [l for l in out.splitlines() if l.startswith("model ")]
        pers_lines = [l for l in out.splitlines()
                      if l.startswith("persistence ")]
        assert len(model_lines) == 1 and len(pers_lines) == 1
        record = dict(kv.split("=") for kv in model_lines[0].split()[1:])
        assert set(record) == {"iou_on", "iou_off", "miou", "aiou",
                               "mse", "ssim"}
        float(record["aiou"])

    @pytest.mark.parametrize("count,size,message", [
        (0, "16x16", "dataset is empty"),
        (1, "32x32", "frames 32x32 do not match model 16x16"),
    ])
    def test_eval_dataset_mismatch_exits_2(self, tmp_path, ckpt, capsys,
                                           count, size, message):
        data = tmp_path / "data"
        assert main(synth_args(data, count, size=size)) == 0
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(data)]) == 2
        assert message in capsys.readouterr().err

    def test_eval_threshold_grid_rows(self, tmp_path, ckpt, capsys):
        data = tmp_path / "data"
        assert main(synth_args(data, 1)) == 0
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(data),
                     "--threshold-grid"]) == 0
        grid = [l for l in capsys.readouterr().out.splitlines()
                if l.startswith("grid ")]
        assert len(grid) == 9
        taus = [l.split()[1] for l in grid]
        assert taus == [f"tau={0.1 * i:.1f}" for i in range(1, 10)]

    def test_eval_threshold_grid_reuses_one_forecast(self, tmp_path, ckpt,
                                                     capsys, monkeypatch):
        data = tmp_path / "data"
        assert main(synth_args(data, 2)) == 0
        calls = []

        def counting_predict(model, x):
            calls.append(1)
            return predict(model, x)

        # patch every module that looks predict up by name
        monkeypatch.setattr(training, "predict", counting_predict)
        monkeypatch.setattr(cli, "predict", counting_predict)
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(data),
                     "--threshold-grid"]) == 0
        assert len(calls) == 2
        grid = [l for l in capsys.readouterr().out.splitlines()
                if l.startswith("grid ")]

        model = load_checkpoint(ckpt)
        dataset = load_dataset(data)
        accs = {round(0.1 * i, 1): MetricAccumulator() for i in range(1, 10)}
        for i in range(len(dataset)):
            x, y = dataset[i]
            probs = predict(model, x[None])[0]
            for tau, acc in accs.items():
                acc.update((probs >= tau).astype(np.uint8), y)
        want = []
        for tau, acc in accs.items():
            s = acc.finalize()
            want.append(f"grid tau={tau:.1f} iou_on={s['iou_on']:.6f} "
                        f"iou_off={s['iou_off']:.6f} miou={s['miou']:.6f} "
                        f"aiou={s['aiou']:.6f}")
        assert grid == want

    def test_eval_persistence_perfect_on_static_targets(self, tmp_path, ckpt,
                                                        capsys):
        ds = make_moving_bar_dataset(2, height=16, width=16, t_in=3, t_out=3,
                                     seed=0)
        static = SequenceDataset(ds.inputs,
                                 np.repeat(ds.inputs[:, -1:], 3, axis=1))
        data = tmp_path / "static"
        save_dataset(static, data)
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(data)]) == 0
        pers = [l for l in capsys.readouterr().out.splitlines()
                if l.startswith("persistence ")][0]
        record = dict(kv.split("=") for kv in pers.split()[1:])
        assert float(record["miou"]) == 1.0
        assert float(record["aiou"]) == 1.0


class TestVerificationCommands:
    def test_gradcheck_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines()
                 if l.startswith("check=")]
        assert lines and all("status=PASS" in l for l in lines)

    def test_gradcheck_prints_one_line_per_case(self, monkeypatch, capsys):
        # the printed rows follow the op-suite table, one line each, in
        # order; the checks are stubbed (test_gradcheck_passes runs them)
        monkeypatch.setattr(gradcheck, "grad_check",
                            lambda fn, params, eps: 0.0)
        assert main(["gradcheck"]) == 0
        names = [l.split()[0] for l in capsys.readouterr().out.splitlines()
                 if l.startswith("check=")]
        assert names == [f"check={name}" for name in op_suite_cases()]

    def test_bench_record_line(self, tmp_path, capsys):
        cfg_file = tmp_path / "model.cfg"
        cfg_file.write_text(config_to_text(model_cfg()))
        assert main(["bench", "--config", str(cfg_file),
                     "--iters", "3"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1
        record = dict(kv.split("=") for kv in out[0].split())
        assert set(record) == {"median_ms", "p95_ms", "moving_bar_median_ms",
                               "traced_peak_bytes", "n_params"}
        assert float(record["moving_bar_median_ms"]) > 0

    @pytest.mark.parametrize("key,value", [
        ("gate_reduction", "0"), ("ffn_expansion", "0"),
        ("mix_dilation", "0"), ("stages", "0"), ("enc_widths", "0"),
        ("dec_widths", "8,0"),
    ])
    def test_bench_rejects_values_below_one(self, tmp_path, capsys, key,
                                            value):
        lines = [line for line in config_to_text(model_cfg()).splitlines()
                 if not line.startswith(key + "=")]
        cfg_file = tmp_path / "model.cfg"
        cfg_file.write_text("\n".join(lines + [f"{key}={value}"]) + "\n")
        assert main(["bench", "--config", str(cfg_file),
                     "--iters", "1"]) == 2
        assert f"{key} " in capsys.readouterr().err

    def test_inspect_lists_params(self, tmp_path, capsys):
        path = tmp_path / "m.etw"
        model = init_params(model_cfg(), seed=0)
        save_checkpoint(path, model)
        assert main(["inspect", "--ckpt", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == f"n_params={sum(p.data.size for p in model.parameters())}"
        assert len(out) == len(model.parameters()) + 1

    def test_inspect_missing_file(self, tmp_path):
        assert main(["inspect", "--ckpt", str(tmp_path / "gone.etw")]) == 3

    def test_inspect_corrupt_file(self, tmp_path):
        bad = tmp_path / "bad.etw"
        bad.write_bytes(b"NOPE" + b"\x00" * 32)
        assert main(["inspect", "--ckpt", str(bad)]) == 3

    @pytest.mark.parametrize("block", ["name", "config"])
    def test_inspect_non_utf8_text_exits_3(self, tmp_path, capsys, block):
        path = tmp_path / "m.etw"
        model = init_params(model_cfg(), seed=0)
        save_checkpoint(path, model)
        raw = bytearray(path.read_bytes())
        # the first parameter name follows the 12-byte header and its length
        at = 14 if block == "name" else raw.rindex(
            config_to_text(model.config).encode("utf-8"))
        raw[at] = 0xFF
        path.write_bytes(bytes(raw))
        assert main(["inspect", "--ckpt", str(path)]) == 3
        assert f"{path}: {block} is not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("case,message", [
        ("rank", "enc0.conv.w has rank 82"),
        # 2^31 four times is 2^124: np.prod of the dims wraps to 0
        ("wrapping-dims", "truncated reading payload of enc0.conv.w"),
        ("nan", "enc0.conv.w has non-finite values")])
    def test_inspect_malformed_weights_exit_3(self, tmp_path, capsys, case,
                                              message):
        path = tmp_path / "m.etw"
        model = init_params(model_cfg(), seed=0)
        if case == "nan":
            model["enc0.conv.w"].data[0, 0, 1, 1] = np.nan
        save_checkpoint(path, model)
        raw = bytearray(path.read_bytes())
        rank_at = 12 + 2 + len("enc0.conv.w")  # the first parameter's rank
        assert raw[rank_at] == 4
        if case == "rank":
            raw[rank_at] = 82
        elif case == "wrapping-dims":
            raw[rank_at + 1:rank_at + 17] = (2 ** 31).to_bytes(4, "little") * 4
        path.write_bytes(bytes(raw))
        assert main(["inspect", "--ckpt", str(path)]) == 3
        assert f"{path}: {message}" in capsys.readouterr().err
