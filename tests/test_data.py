"""Dataset generators, angular splitting, IDX round trips, and batching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anodelab.data import (R1, R2, R3, IdxFormatError, LabeledSet,
                           SphereAnnulusConfig, angular_split, batches,
                           gen_concentric, gen_g1d, load_idx, write_idx)


class TestLabeledSet:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LabeledSet(np.zeros((3, 2)), np.zeros(2))

    def test_subset(self):
        ds = LabeledSet(np.arange(10.0)[:, None], np.arange(10.0))
        sub = ds.subset(np.array([1, 3]))
        assert len(sub) == 2 and sub.inputs[1, 0] == 3.0


class TestG1d:
    def test_structure(self):
        ds = gen_g1d(50, seed=1)
        assert len(ds) == 100 and ds.inputs.shape == (100, 1)
        neg, pos = ds.inputs[:50, 0], ds.inputs[50:, 0]
        assert np.all((-1.0 <= neg) & (neg <= -0.5))
        assert np.all((0.5 <= pos) & (pos <= 1.0))
        assert np.all(ds.targets[:50] == 1.0) and np.all(ds.targets[50:] == -1.0)

    def test_determinism(self):
        assert np.array_equal(gen_g1d(10, seed=7).inputs,
                              gen_g1d(10, seed=7).inputs)
        assert not np.array_equal(gen_g1d(10, seed=7).inputs,
                                  gen_g1d(10, seed=8).inputs)

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_g1d(0)


class TestConcentric:
    def test_radii_and_labels(self):
        cfg = SphereAnnulusConfig(d=2, n_inner=200, n_outer=300, seed=0)
        ds = gen_concentric(cfg)
        assert len(ds) == 500
        r = np.linalg.norm(ds.inputs, axis=1)
        assert np.all(r[:200] <= R1 + 1e-12)
        assert np.all((R2 - 1e-12 <= r[200:]) & (r[200:] <= R3 + 1e-12))
        assert np.all(ds.targets[:200] == -1.0) and np.all(ds.targets[200:] == 1.0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_dimensions(self, d):
        ds = gen_concentric(SphereAnnulusConfig(d=d, n_inner=20, n_outer=20))
        assert ds.inputs.shape == (40, d)

    def test_dimension_and_counts_validated(self):
        for bad in ({"d": 0}, {"n_inner": -1}, {"n_outer": -1}):
            with pytest.raises(ValueError, match="n_inner, n_outer >= 0"):
                SphereAnnulusConfig(**bad)


class TestAngularSplit:
    def test_exact_partition(self):
        ds = gen_concentric(SphereAnnulusConfig(d=2, n_inner=100, n_outer=150))
        train, val = angular_split(ds, 0.0, np.pi / 5)
        assert len(train) + len(val) == len(ds)
        ang = np.mod(np.arctan2(val.inputs[:, 1], val.inputs[:, 0]), 2 * np.pi)
        assert np.all((ang >= 0.0) & (ang < np.pi / 5))
        ang_tr = np.mod(np.arctan2(train.inputs[:, 1], train.inputs[:, 0]),
                        2 * np.pi)
        assert np.all(~((ang_tr >= 0.0) & (ang_tr < np.pi / 5)))

    @given(st.floats(0.0, 3.0), st.floats(3.1, 2 * np.pi))
    @settings(max_examples=25, deadline=None)
    def test_partition_property(self, lo, hi):
        ds = gen_concentric(SphereAnnulusConfig(d=2, n_inner=40, n_outer=40))
        train, val = angular_split(ds, lo, hi)
        assert len(train) + len(val) == len(ds)

    def test_validation(self):
        ds = gen_concentric(SphereAnnulusConfig(d=2, n_inner=10, n_outer=10))
        with pytest.raises(ValueError):
            angular_split(ds, 1.0, 0.5)
        ds3 = gen_concentric(SphereAnnulusConfig(d=3, n_inner=10, n_outer=10))
        with pytest.raises(ValueError):
            angular_split(ds3, 0.0, 1.0)


class TestIdx:
    def _write_sample(self, tmp_path, labels):
        rng = np.random.default_rng(0)
        n = len(labels)
        images = rng.integers(0, 256, size=(n, 6, 6), dtype=np.uint8)
        ip, lp = tmp_path / "img", tmp_path / "lab"
        write_idx(ip, lp, images, np.asarray(labels, dtype=np.uint8))
        return ip, lp, images

    def test_round_trip(self, tmp_path):
        ip, lp, images = self._write_sample(tmp_path, [0, 1, 1, 0])
        ds = load_idx(ip, lp)
        assert ds.inputs.shape == (4, 1, 6, 6)
        assert ds.inputs.min() >= 0.0 and ds.inputs.max() <= 1.0
        assert np.array_equal(ds.inputs[:, 0] * 255.0, images.astype(float))
        assert np.array_equal(ds.targets, [0, 1, 1, 0])

    def test_class_filter_then_limit(self, tmp_path):
        ip, lp, _ = self._write_sample(tmp_path, [0, 7, 1, 7, 0, 1, 0])
        ds = load_idx(ip, lp, class_filter={0, 1}, limit=4)
        assert np.array_equal(ds.targets, [0, 1, 0, 1])

    def test_negative_limit_rejected(self, tmp_path):
        ip, lp, _ = self._write_sample(tmp_path, [0, 1, 1])
        assert len(load_idx(ip, lp, limit=0)) == 0
        with pytest.raises(ValueError, match="limit must be >= 0"):
            load_idx(ip, lp, limit=-1)

    def test_bad_magic_reports_offset(self, tmp_path):
        p = tmp_path / "bad"
        p.write_bytes(b"\x00\x00\x09\x99" + b"\x00" * 12)
        lp = tmp_path / "lab"
        write_idx(tmp_path / "img", lp, np.zeros((1, 2, 2), np.uint8),
                  np.zeros(1, np.uint8))
        with pytest.raises(IdxFormatError, match="byte 0"):
            load_idx(p, lp)

    def test_truncated_data(self, tmp_path):
        import struct
        p = tmp_path / "trunc"
        p.write_bytes(struct.pack(">IIII", 0x803, 10, 6, 6) + b"\x00" * 5)
        with pytest.raises(IdxFormatError, match="truncated"):
            load_idx(p, p)

    def test_count_mismatch(self, tmp_path):
        ip, lp, _ = self._write_sample(tmp_path, [0, 1])
        sub = tmp_path / "other"
        sub.mkdir()
        ip2, lp2, _ = self._write_sample(sub, [0, 1, 1])
        with pytest.raises(IdxFormatError, match="count"):
            load_idx(ip, lp2)


class TestBatches:
    @given(st.integers(1, 30), st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_exact_cover(self, n, bs):
        ds = LabeledSet(np.arange(float(n))[:, None], np.arange(float(n)))
        seen = np.concatenate([xb[:, 0] for xb, _ in batches(ds, bs, 5)])
        assert sorted(seen) == list(range(n))

    def test_last_partial_kept(self):
        ds = LabeledSet(np.zeros((7, 1)), np.zeros(7))
        sizes = [len(xb) for xb, _ in batches(ds, 3)]
        assert sizes == [3, 3, 1]

    def test_shuffle_determinism(self):
        ds = LabeledSet(np.arange(20.0)[:, None], np.arange(20.0))
        a = [xb.tolist() for xb, _ in batches(ds, 4, shuffle_seed=1)]
        b = [xb.tolist() for xb, _ in batches(ds, 4, shuffle_seed=1)]
        c = [xb.tolist() for xb, _ in batches(ds, 4, shuffle_seed=2)]
        assert a == b and a != c

    def test_no_seed_keeps_order(self):
        ds = LabeledSet(np.arange(5.0)[:, None], np.arange(5.0))
        xb, yb = next(batches(ds, 5))
        assert np.array_equal(xb[:, 0], np.arange(5.0))
        assert np.array_equal(yb, np.arange(5.0))

    def test_validation(self):
        ds = LabeledSet(np.zeros((2, 1)), np.zeros(2))
        with pytest.raises(ValueError):
            list(batches(ds, 0))
