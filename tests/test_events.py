"""Event binning, synthesis, and file-format tests."""

import numpy as np
import pytest

from etide.events import (EventStream, FileFormatError, MovingObject,
                          OccurrenceTensor, SceneSpec, bin_events,
                          random_bar_scene, read_evt, read_ocm, synth_scene,
                          write_evt, write_ocm)

from conftest import assert_mutations_rejected


def stream_of(width, height, quads):
    t, u, v, p = zip(*quads) if quads else ((), (), (), ())
    return EventStream(width, height, np.array(t, dtype=np.uint64),
                       np.array(u), np.array(v), np.array(p, dtype=np.int8))


class TestEventStream:
    def test_polarity_validation(self):
        with pytest.raises(ValueError, match="event 1"):
            stream_of(4, 4, [(0, 0, 0, 1), (1, 1, 1, 0)])

    def test_time_order_validation(self):
        with pytest.raises(ValueError, match="decrease"):
            stream_of(4, 4, [(5, 0, 0, 1), (3, 0, 0, 1)])

    def test_bounds_validation_names_index(self):
        with pytest.raises(ValueError, match="event 1.*width"):
            stream_of(4, 4, [(0, 0, 0, 1), (1, 4, 0, 1)])
        with pytest.raises(ValueError, match="event 0.*height"):
            stream_of(4, 4, [(0, 0, 9, 1)])


class TestBinEvents:
    def test_duplicate_events_idempotent(self):
        s = stream_of(4, 4, [(1, 2, 3, 1), (2, 2, 3, 1)])
        x = bin_events(s, t0=0, bin_duration=10, t_count=1)
        assert x.frames[0, 0, 3, 2] == 1
        assert int(x.frames.sum()) == 1

    def test_empty_stream(self):
        s = stream_of(4, 4, [])
        x = bin_events(s, t0=0, bin_duration=10, t_count=3)
        assert x.frames.shape == (3, 2, 4, 4)
        assert int(x.frames.sum()) == 0

    def test_hand_bin_assignment(self):
        s = stream_of(4, 4, [(5, 1, 1, 1), (35, 2, 2, -1)])
        x = bin_events(s, t0=0, bin_duration=30, t_count=2)
        assert x.frames[0, 0, 1, 1] == 1
        assert x.frames[1, 1, 2, 2] == 1
        assert int(x.frames.sum()) == 2

    def test_events_outside_window_ignored(self):
        s = stream_of(4, 4, [(5, 0, 0, 1), (100, 1, 1, 1)])
        x = bin_events(s, t0=10, bin_duration=30, t_count=2)
        assert int(x.frames.sum()) == 0

    def test_order_invariance_within_bin(self):
        rng = np.random.default_rng(0)
        quads = [(int(rng.integers(0, 30)), int(rng.integers(0, 8)),
                  int(rng.integers(0, 8)), int(rng.choice([-1, 1])))
                 for _ in range(50)]
        a = sorted(quads)
        b = sorted(quads, key=lambda q: (q[0], -q[1]))
        xa = bin_events(stream_of(8, 8, a), 0, 30, 1)
        xb = bin_events(stream_of(8, 8, b), 0, 30, 1)
        assert np.array_equal(xa.frames, xb.frames)

    def test_monotone_under_union(self):
        rng = np.random.default_rng(1)
        quads = sorted((int(rng.integers(0, 90)), int(rng.integers(0, 8)),
                        int(rng.integers(0, 8)), int(rng.choice([-1, 1])))
                       for _ in range(60))
        sub = bin_events(stream_of(8, 8, quads[:30]), 0, 30, 3)
        full = bin_events(stream_of(8, 8, sorted(quads)), 0, 30, 3)
        assert np.all(full.frames >= sub.frames)


class TestSynthScene:
    def test_zero_velocity_no_events(self):
        spec = SceneSpec(32, 32, 8, (MovingObject(5, 5, 4, 4),))
        assert len(synth_scene(spec, seed=0)) == 0

    def test_unit_dot_one_on_one_off_per_step(self):
        spec = SceneSpec(32, 8, 10, (MovingObject(2, 3, 1, 1, vx=1.0),),
                         bin_duration=100)
        stream = synth_scene(spec, seed=1)
        x = bin_events(stream, 0, 100, 10)
        for step in range(1, 10):
            assert int(x.frames[step, 0].sum()) == 1, f"step {step} ON"
            assert int(x.frames[step, 1].sum()) == 1, f"step {step} OFF"
        assert int(x.frames[0].sum()) == 0

    def test_disjoint_objects_compose(self):
        a = MovingObject(2, 2, 3, 2, vx=1.0)
        b = MovingObject(2, 20, 2, 3, vy=-1.0)
        both = synth_scene(SceneSpec(32, 32, 6, (a, b)), seed=5)
        only_a = synth_scene(SceneSpec(32, 32, 6, (a,)), seed=5)
        only_b = synth_scene(SceneSpec(32, 32, 6, (b,)), seed=5)

        def key_set(s):
            return set(zip(s.t // 33_333, s.u.tolist(), s.v.tolist(),
                           s.p.tolist()))
        assert key_set(both) == key_set(only_a) | key_set(only_b)

    def test_deterministic_for_seed(self):
        spec = random_bar_scene(np.random.default_rng(7), 64, 64, 12)
        assert synth_scene(spec, seed=3) == synth_scene(spec, seed=3)
        binned_a = bin_events(synth_scene(spec, seed=3), 0, spec.bin_duration,
                              spec.n_bins)
        binned_b = bin_events(synth_scene(spec, seed=9), 0, spec.bin_duration,
                              spec.n_bins)
        # jitter differs with seed but binned maps agree
        assert np.array_equal(binned_a.frames, binned_b.frames)


class TestFileFormats:
    def test_evt_roundtrip(self, tmp_path):
        s = stream_of(640, 480, [(0, 1, 2, 1), (10, 600, 400, -1),
                                 (10, 0, 0, 1)])
        path = tmp_path / "a.evt"
        write_evt(path, s)
        assert read_evt(path) == s

    def test_evt_empty_roundtrip(self, tmp_path):
        s = stream_of(16, 16, [])
        path = tmp_path / "e.evt"
        write_evt(path, s)
        assert read_evt(path) == s

    def test_evt_bad_magic(self, tmp_path):
        path = tmp_path / "bad.evt"
        path.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(FileFormatError, match="magic"):
            read_evt(path)

    def test_evt_truncated(self, tmp_path):
        s = stream_of(8, 8, [(0, 1, 1, 1), (5, 2, 2, -1)])
        path = tmp_path / "t.evt"
        write_evt(path, s)
        data = path.read_bytes()
        path.write_bytes(data[:-7])
        with pytest.raises(FileFormatError, match="bytes"):
            read_evt(path)

    def test_ocm_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        f = (rng.random((3, 2, 8, 8)) < 0.3).astype(np.uint8)
        x = OccurrenceTensor(f, bin_duration=33_333, t0=1000)
        path = tmp_path / "m.ocm"
        write_ocm(path, x)
        y = read_ocm(path)
        assert np.array_equal(y.frames, x.frames)
        assert y.bin_duration == x.bin_duration and y.t0 == x.t0

    def test_ocm_bad_magic_and_truncation(self, tmp_path):
        path = tmp_path / "bad.ocm"
        path.write_bytes(b"XXXX" + b"\x00" * 33)
        with pytest.raises(FileFormatError, match="magic"):
            read_ocm(path)
        x = OccurrenceTensor(np.ones((1, 2, 4, 4), dtype=np.uint8), 30)
        good = tmp_path / "good.ocm"
        write_ocm(good, x)
        good.write_bytes(good.read_bytes()[:-5])
        with pytest.raises(FileFormatError, match="bytes"):
            read_ocm(good)

    def test_evt_mutations_load_or_raise_format_error(self, tmp_path):
        s = stream_of(32, 24, [(0, 1, 2, 1), (7, 31, 0, -1), (7, 5, 23, 1),
                               (900, 16, 12, -1)])
        write_evt(tmp_path / "a.evt", s)
        assert_mutations_rejected(tmp_path / "m.evt",
                                  (tmp_path / "a.evt").read_bytes(), 16,
                                  read_evt, FileFormatError, seed=1)

    def test_ocm_mutations_load_or_raise_format_error(self, tmp_path):
        f = (np.random.default_rng(2).random((3, 2, 6, 5)) < 0.3)
        write_ocm(tmp_path / "a.ocm", OccurrenceTensor(f.astype(np.uint8),
                                                       33_333, t0=1000))
        assert_mutations_rejected(tmp_path / "m.ocm",
                                  (tmp_path / "a.ocm").read_bytes(), 37,
                                  read_ocm, FileFormatError, seed=2)

    def test_ocm_rejects_nonbinary(self, tmp_path):
        x = OccurrenceTensor(np.ones((1, 2, 2, 2), dtype=np.uint8), 30)
        path = tmp_path / "nb.ocm"
        write_ocm(path, x)
        raw = bytearray(path.read_bytes())
        raw[-1] = 7
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError, match="0 or 1"):
            read_ocm(path)
