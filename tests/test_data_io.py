"""CSV loading, normalization, manifest, and split tests."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdgl import data_io as dio
from cdgl.errors import NumericsError, ParseError, ShapeError, StratificationError


def write_csv(path, text):
    path.write_text(text)
    return str(path)


class TestLoadRoiCsv:
    def test_shape_passthrough(self, tmp_path):
        rng = np.random.default_rng(0)
        sig = rng.standard_normal((100, 10))
        path = str(tmp_path / "s.csv")
        dio.write_roi_csv(path, sig)
        ts = dio.load_roi_csv(path, subject_id="s")
        assert ts.signals.shape == (100, 10)
        assert ts.subject_id == "s"

    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        sig = rng.standard_normal((17, 5)) * 10.0 ** rng.integers(-8, 8, (17, 5))
        path = str(tmp_path / "s.csv")
        dio.write_roi_csv(path, sig)
        back = dio.load_roi_csv(path).signals
        np.testing.assert_array_equal(back, sig)

    def test_headerless_round_trip(self, tmp_path):
        sig = np.arange(12.0).reshape(4, 3)
        path = str(tmp_path / "s.csv")
        dio.write_roi_csv(path, sig, header=False)
        np.testing.assert_array_equal(dio.load_roi_csv(path).signals, sig)

    def test_ragged_rejected(self, tmp_path):
        p = write_csv(tmp_path / "r.csv", "1,2,3\n4,5\n6,7,8\n")
        with pytest.raises(ParseError, match="ragged"):
            dio.load_roi_csv(p)

    def test_non_numeric_rejected(self, tmp_path):
        p = write_csv(tmp_path / "n.csv", "1,2\n3,foo\n5,6\n")
        with pytest.raises(ParseError, match="non-numeric"):
            dio.load_roi_csv(p)

    def test_nan_rejected(self, tmp_path):
        p = write_csv(tmp_path / "nan.csv", "1,2\nNaN,4\n5,6\n")
        with pytest.raises(ParseError, match="non-finite"):
            dio.load_roi_csv(p)

    def test_inf_rejected(self, tmp_path):
        p = write_csv(tmp_path / "inf.csv", "1,2\nInf,4\n5,6\n")
        with pytest.raises(ParseError):
            dio.load_roi_csv(p)

    def test_too_small_rejected(self, tmp_path):
        p = write_csv(tmp_path / "one_row.csv", "h1,h2\n1,2\n")
        with pytest.raises(ShapeError):
            dio.load_roi_csv(p)
        p = write_csv(tmp_path / "one_col.csv", "1\n2\n3\n")
        with pytest.raises(ShapeError):
            dio.load_roi_csv(p)

    def test_empty_rejected(self, tmp_path):
        p = write_csv(tmp_path / "empty.csv", "")
        with pytest.raises(ParseError):
            dio.load_roi_csv(p)


class TestZscore:
    def test_one_two_three(self):
        out = dio.zscore_columns(np.array([[1.0, 9.0], [2.0, 9.0], [3.0, 9.0]]))
        np.testing.assert_allclose(out[:, 0], [-1.0, 0.0, 1.0], atol=1e-15)

    def test_constant_column_zeroed(self):
        out = dio.zscore_columns(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 4.0]]))
        np.testing.assert_array_equal(out[:, 0], 0.0)

    def test_overflowing_column_raises(self):
        sig = np.random.default_rng(4).standard_normal((40, 6))
        sig[:, 2] *= 1e160  # finite, but its squares overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the error, not a numpy warning
            with pytest.raises(NumericsError, match="ROI 2: non-finite standard deviation"):
                dio.zscore_columns(sig)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        once = dio.zscore_columns(rng.standard_normal((50, 4)))
        twice = dio.zscore_columns(once)
        np.testing.assert_allclose(twice, once, atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 40), st.integers(2, 8))
    def test_columns_standardized(self, seed, t, m):
        rng = np.random.default_rng(seed)
        sig = rng.standard_normal((t, m)) * 3.0 + rng.standard_normal(m)
        out = dio.zscore_columns(sig)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.std(axis=0, ddof=1), 1.0, atol=1e-9)


def make_manifest(n_pos, n_neg):
    entries = [dio.ManifestEntry(f"p{i}", f"p{i}.csv", 1) for i in range(n_pos)]
    entries += [dio.ManifestEntry(f"n{i}", f"n{i}.csv", 0) for i in range(n_neg)]
    return dio.DatasetManifest(entries=entries, roi_count=10)


class TestStratifiedSplit:
    def test_duloxetine_shape(self):
        plan = dio.stratified_split(make_manifest(8, 9), 0.2, 4, seed=11)
        test_pos = sum(1 for s in plan.test_ids if s.startswith("p"))
        test_neg = sum(1 for s in plan.test_ids if s.startswith("n"))
        assert 1 <= test_pos <= 2 and 1 <= test_neg <= 2
        assert len(plan.train_ids) + len(plan.test_ids) == 17
        assert len(plan.folds) == 4

    def test_deterministic(self):
        a = dio.stratified_split(make_manifest(8, 9), 0.2, 4, seed=3)
        b = dio.stratified_split(make_manifest(8, 9), 0.2, 4, seed=3)
        assert a == b
        c = dio.stratified_split(make_manifest(8, 9), 0.2, 4, seed=4)
        assert a != c

    def test_small_class_rejected(self):
        with pytest.raises(StratificationError):
            dio.stratified_split(make_manifest(3, 9), 0.2, 4, seed=0)

    def test_train_test_disjoint(self):
        plan = dio.stratified_split(make_manifest(10, 12), 0.25, 3, seed=5)
        assert not set(plan.train_ids) & set(plan.test_ids)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(6, 20), st.integers(6, 20),
           st.integers(2, 5))
    def test_folds_partition_and_stratify(self, seed, n_pos, n_neg, k):
        manifest = make_manifest(n_pos, n_neg)
        try:
            plan = dio.stratified_split(manifest, 0.2, k, seed=seed)
        except StratificationError:
            return
        vals = [set(v) for _, v in plan.folds]
        union = set()
        for i, vi in enumerate(vals):
            for vj in vals[i + 1:]:
                assert not vi & vj
            union |= vi
        assert union == set(plan.train_ids)
        global_frac = sum(1 for s in plan.train_ids if s.startswith("p")) / len(plan.train_ids)
        for tr, val in plan.folds:
            assert set(tr) | set(val) == set(plan.train_ids)
            assert not set(tr) & set(val)
            frac = sum(1 for s in val if s.startswith("p")) / len(val)
            assert abs(frac - global_frac) <= 1.0 / len(val) + 1e-12


class TestManifest:
    def test_round_trip(self, tmp_path):
        manifest = make_manifest(3, 4)
        path = str(tmp_path / "manifest.json")
        dio.save_manifest(path, manifest)
        back = dio.load_manifest(path)
        assert back == manifest

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        with pytest.raises(ParseError, match="JSON"):
            dio.load_manifest(str(p))

    def test_missing_key(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"roi_count": 10, "entries": []}')
        with pytest.raises(ParseError, match="schema_version"):
            dio.load_manifest(str(p))

    def test_bad_label(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"schema_version": 1, "roi_count": 10, '
                     '"entries": [{"id": "a", "path": "a.csv", "label": 2}]}')
        with pytest.raises(ParseError, match="label"):
            dio.load_manifest(str(p))

    def test_duplicate_id(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"schema_version": 1, "roi_count": 10, "entries": ['
                     '{"id": "a", "path": "a.csv", "label": 0},'
                     '{"id": "a", "path": "b.csv", "label": 1}]}')
        with pytest.raises(ParseError, match="duplicate"):
            dio.load_manifest(str(p))

    def test_load_dataset_checks_roi_count(self, tmp_path):
        sig = np.arange(20.0).reshape(5, 4)
        dio.write_roi_csv(str(tmp_path / "a.csv"), sig)
        manifest = dio.DatasetManifest(
            entries=[dio.ManifestEntry("a", "a.csv", 1)], roi_count=7)
        with pytest.raises(ShapeError, match="ROIs"):
            dio.load_dataset(manifest, str(tmp_path))

    def test_load_dataset_attaches_labels(self, tmp_path):
        rng = np.random.default_rng(0)
        for name in ("a", "b"):
            dio.write_roi_csv(str(tmp_path / f"{name}.csv"), rng.standard_normal((6, 3)))
        manifest = dio.DatasetManifest(
            entries=[dio.ManifestEntry("a", "a.csv", 1),
                     dio.ManifestEntry("b", "b.csv", 0)],
            roi_count=3)
        subjects = dio.load_dataset(manifest, str(tmp_path))
        assert [s.label for s in subjects] == [1, 0]
        assert [s.subject_id for s in subjects] == ["a", "b"]
