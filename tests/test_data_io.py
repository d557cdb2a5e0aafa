"""CSV loading, normalization, manifest, and split tests."""

import csv
import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdgl import cli
from cdgl import data_io as dio
from cdgl import synthgen as sg
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

    def test_byte_order_mark_without_header_keeps_every_row(self, tmp_path):
        # Excel's "CSV UTF-8" export starts the file with U+FEFF
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbf1.0,2.0\n3.0,4.0\n5.0,6.0\n")
        np.testing.assert_array_equal(dio.load_roi_csv(str(p)).signals,
                                      [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])

    def test_byte_order_mark_before_header_skips_the_header(self, tmp_path):
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbfroi_0,roi_1\n1.0,2.0\n3.0,4.0\n")
        np.testing.assert_array_equal(dio.load_roi_csv(str(p)).signals,
                                      [[1.0, 2.0], [3.0, 4.0]])

    def test_bytes_that_are_not_utf8_rejected(self, tmp_path):
        p = tmp_path / "latin1.csv"
        p.write_bytes("r\xe9gion_0,r\xe9gion_1\n1.0,2.0\n3.0,4.0\n".encode("latin-1"))
        with pytest.raises(ParseError, match=r"latin1\.csv: not UTF-8"):
            dio.load_roi_csv(str(p))


def oracle_load_roi_csv(path):
    """The reader before parsing moved to np.loadtxt: csv.reader plus a Python
    float() per cell. Returns the signals or raises as load_roi_csv did."""
    rows = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        for lineno, cells in enumerate(reader, start=1):
            if not cells:
                continue
            try:
                values = [float(c) for c in cells]
            except ValueError:
                if lineno == 1:
                    continue  # header row
                raise ParseError(f"{path}:{lineno}: non-numeric cell") from None
            if rows and len(values) != len(rows[0]):
                raise ParseError(f"{path}:{lineno}: ragged row "
                                 f"({len(values)} cells, expected {len(rows[0])})")
            rows.append(values)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    signals = np.array(rows, dtype=np.float64)
    if not np.all(np.isfinite(signals)):
        raise ParseError(f"{path}: non-finite value in signals")
    if signals.shape[0] < 2 or signals.shape[1] < 2:
        raise ShapeError(f"{path}: need T >= 2 and M >= 2, got {signals.shape}")
    return signals


EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.225e-308, 1.5e-310, 1e300, -1e300, 1e-300,
               -1e-300, 1.7976931348623157e308]
CELL_FORMATS = [repr, "{:.17g}".format, "{:.17e}".format, lambda v: f'"{v!r}"',
                lambda v: f" {v!r} "]


class TestReaderMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 9), st.integers(2, 7), st.booleans(),
           st.sampled_from(["\n", "\r\n"]), st.integers(0, 3), st.booleans())
    def test_random_files(self, tmp_path_factory, seed, t, m, header, newline, blanks,
                          final_newline):
        rng = np.random.default_rng(seed)
        sig = rng.standard_normal((t, m)) * 10.0 ** rng.integers(-300, 300, (t, m))
        edge = rng.random((t, m)) < 0.3
        sig[edge] = rng.choice(EDGE_VALUES, edge.sum())
        lines = [",".join(CELL_FORMATS[rng.integers(len(CELL_FORMATS))](float(v)) for v in row)
                 for row in sig]
        for _ in range(blanks):  # blank lines anywhere after the first
            lines.insert(int(rng.integers(1, len(lines) + 1)), "")
        if header:
            lines.insert(0, ",".join(f'"roi {j}"' if j % 2 else f"roi_{j}" for j in range(m)))
        text = newline.join(lines) + (newline if final_newline else "")
        path = tmp_path_factory.mktemp("csv") / "s.csv"
        path.write_bytes(text.encode())
        want = oracle_load_roi_csv(str(path))
        got = dio.load_roi_csv(str(path)).signals
        assert got.dtype == np.float64 and got.shape == want.shape == (t, m)
        assert got.tobytes() == want.tobytes()  # bit-identical, signed zeros included

    BAD_ROWS = {"ragged_short": "1.5", "ragged_long": "1.5,2.5,3.5", "non_numeric": "1.5,x",
                "empty_cell": "1.5,", "whitespace": "  ", "quoted_comma": '"1,5",2'}

    @pytest.mark.parametrize("header", [False, True])
    @pytest.mark.parametrize("position", [0, 2, 4])
    @pytest.mark.parametrize("bad", sorted(BAD_ROWS))
    def test_bad_row_named_like_oracle(self, tmp_path, header, position, bad):
        rows = [f"{i}.25,{-i}.5" for i in range(5)]
        rows[position] = self.BAD_ROWS[bad]
        if header:
            rows.insert(0, "roi_0,roi_1")
        p = write_csv(tmp_path / "bad.csv", "\n".join(rows) + "\n")
        if position == 0 and not header and bad not in ("ragged_short", "ragged_long"):
            # a first line float() rejects is the header, for both readers
            np.testing.assert_array_equal(dio.load_roi_csv(p).signals, oracle_load_roi_csv(p))
            return
        with pytest.raises(ParseError) as want:
            oracle_load_roi_csv(p)
        with pytest.raises(ParseError) as got:
            dio.load_roi_csv(p)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(f"{p}:")

    @pytest.mark.parametrize("text", ["", "\n\n", "roi_0,roi_1\n", "roi_0,roi_1\n\n\n",
                                      "roi_0,roi_1"])
    def test_no_data_rows_no_warning(self, tmp_path, text):
        p = write_csv(tmp_path / "empty.csv", text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's "input contained no data" included
            with pytest.raises(ParseError, match="no data rows"):
                dio.load_roi_csv(p)

    @pytest.mark.parametrize("cell", ["1_0", "\u0663", "\uff11"])
    @pytest.mark.parametrize("lineno", [1, 3])
    def test_float_only_syntax_is_non_numeric(self, tmp_path, cell, lineno):
        """Digit-group underscores and non-ASCII digits, which float() accepts,
        are non-numeric cells now, on the first line as on any other."""
        rows = ["1.0,2.0", "3.0,4.0", "5.0,6.0"]
        rows[lineno - 1] = f"{cell},2.0"
        p = write_csv(tmp_path / "narrow.csv", "\n".join(rows) + "\n")
        assert oracle_load_roi_csv(p).shape == (3, 2)
        with pytest.raises(ParseError, match=f"^{re.escape(p)}:{lineno}: non-numeric cell$"):
            dio.load_roi_csv(p)

    def test_cv_on_underscore_digits_exits_3(self, tmp_path, capsys):
        data = str(tmp_path / "data")
        sg.generate(sg.SynthSpec(kind="correlation", n_subjects=8, m=4, t=30, seed=2), data)
        path = os.path.join(data, "sub002.csv")
        with open(path) as f:
            lines = f.readlines()
        lines[3] = "1_0" + lines[3][lines[3].index(","):]
        with open(path, "w") as f:
            f.writelines(lines)
        code = cli.main(["cv", "--data", data, "--folds", "2", "--out", str(tmp_path / "cv"),
                         "--set", "epochs=1"])
        assert code == 3
        assert f"{path}:4: non-numeric cell" in capsys.readouterr().err


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

    def test_stack_is_each_series_alone(self):
        rng = np.random.default_rng(5)
        sig = rng.standard_normal((3, 2, 30, 5)) * rng.uniform(0.5, 9.0, 5) + 4.0
        sig[1, 0, :, 3] = 2.5  # a flat column in one series only
        out = dio.zscore_columns(sig)
        for idx in np.ndindex(sig.shape[:2]):
            assert np.array_equal(out[idx], dio.zscore_columns(sig[idx]))
        assert np.all(out[1, 0, :, 3] == 0.0)

    def test_overflowing_column_in_a_stack_names_its_series_and_roi(self):
        sig = np.random.default_rng(4).standard_normal((3, 40, 6))
        sig[1, :, 2] *= 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericsError, match="ROI 2: non-finite") as info:
                dio.zscore_columns(sig)
        assert info.value.index == (1, 2) and info.value.shape == (3, 6)

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

    @pytest.mark.parametrize("text, message", [
        ("5", "must be a JSON object, got int"),
        ("null", "must be a JSON object, got NoneType"),
        ("[]", "must be a JSON object, got list"),
        ('{"schema_version": 1, "roi_count": 10, "entries": null}',
         "entries must be a list, got NoneType"),
        ('{"schema_version": 1, "roi_count": 10, "entries": {}}',
         "entries must be a list, got dict"),
    ])
    def test_wrong_json_shape(self, tmp_path, text, message):
        p = tmp_path / "bad.json"
        p.write_text(text)
        with pytest.raises(ParseError, match=rf"bad\.json: .*{message}"):
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
