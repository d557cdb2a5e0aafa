"""Window extraction, similarity matrices, and binarization tests.

Matrix ops are checked against independent double-loop oracles; closed-form
hand cases are asserted at tight tolerance. The batched (N_w, ...) path is
checked against the per-window code it replaced, kept below as an oracle.
"""

import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdgl import cli, data_io
from cdgl import dynamic_fc as dfc
from cdgl import synthgen as sg
from cdgl.errors import NumericsError, ShapeError


def pearson_oracle(window):
    ws, m = window.shape
    r = np.eye(m)
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            xi, xj = window[:, i], window[:, j]
            si = np.sqrt(((xi - xi.mean()) ** 2).mean())
            sj = np.sqrt(((xj - xj.mean()) ** 2).mean())
            if si < 1e-12 or sj < 1e-12:
                r[i, j] = 0.0
            else:
                cov = ((xi - xi.mean()) * (xj - xj.mean())).mean()
                r[i, j] = cov / (si * sj)
    return r


def distance_oracle(window, kind):
    ws, m = window.shape
    cols = window.T
    if kind.kind == "mahalanobis":
        mu = cols.mean(axis=0)
        sigma = sum(np.outer(c - mu, c - mu) for c in cols) / m
        lam = max(kind.ridge_scale * np.trace(sigma) / ws, 1e-12)
        inv = np.linalg.inv(sigma + lam * np.eye(ws))
    d = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            delta = cols[i] - cols[j]
            if kind.kind == "manhattan":
                d[i, j] = -np.abs(delta).sum()
            elif kind.kind == "euclidean":
                d[i, j] = -np.sqrt((delta ** 2).sum())
            else:
                d[i, j] = -np.sqrt(delta @ inv @ delta)
    return d


class TestExtractWindows:
    def test_duloxetine_geometry(self):
        x = np.zeros((100, 4))
        wins = dfc.extract_windows(x, dfc.WindowSpec(35, 25))
        assert len(wins) == 3
        starts = [0, 25, 50]
        for w, s in zip(wins, starts):
            assert w.shape == (35, 4)
            assert w.base is not None  # view, not copy

    def test_single_full_window(self):
        x = np.zeros((50, 3))
        assert len(dfc.extract_windows(x, dfc.WindowSpec(50, 5))) == 1

    def test_count_formula(self):
        x = np.zeros((40, 3))
        assert len(dfc.extract_windows(x, dfc.WindowSpec(10, 5))) == 7

    def test_window_too_long(self):
        with pytest.raises(ShapeError):
            dfc.extract_windows(np.zeros((30, 3)), dfc.WindowSpec(31, 5))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 60), st.integers(2, 60), st.integers(1, 20))
    def test_count_always_matches_formula(self, t, ws, ss):
        if ws > t:
            return
        wins = dfc.extract_windows(np.zeros((t, 2)), dfc.WindowSpec(ws, ss))
        assert len(wins) == (t - ws) // ss + 1
        assert all(w.shape[0] == ws for w in wins)


class TestPearson:
    def test_self_correlation(self):
        w = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        r = dfc.pearson_matrix(w)
        assert r[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_anti_correlation(self):
        w = np.array([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]])
        r = dfc.pearson_matrix(w)
        assert r[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_hand_case(self):
        w = np.array([[1.0, 1.0], [2.0, 3.0], [4.0, 9.0]])
        r = dfc.pearson_matrix(w)
        expect = 114.0 / np.sqrt(42.0 * 312.0)
        assert r[0, 1] == pytest.approx(expect, abs=1e-12)
        assert r[0, 1] == pytest.approx(0.9959, abs=5e-5)

    def test_flat_column_zeroed(self):
        w = np.array([[1.0, 5.0, 2.0], [2.0, 5.0, 1.0], [3.0, 5.0, 4.0]])
        r = dfc.pearson_matrix(w)
        assert r[0, 1] == 0.0 and r[1, 2] == 0.0
        assert r[1, 1] == 1.0

    def test_oracle_hundred_seeds(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            w = rng.standard_normal((40, 8))
            np.testing.assert_allclose(dfc.pearson_matrix(w), pearson_oracle(w),
                                       atol=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.floats(0.1, 100.0),
           st.floats(-50.0, 50.0))
    def test_affine_invariance(self, seed, a, b):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((20, 5))
        r1 = dfc.pearson_matrix(w)
        r2 = dfc.pearson_matrix(a * w + b)
        np.testing.assert_allclose(r2, r1, atol=1e-12)

    def test_symmetry_diag_range(self):
        rng = np.random.default_rng(33)
        w = rng.standard_normal((15, 6))
        r = dfc.pearson_matrix(w)
        np.testing.assert_array_equal(r, r.T)
        np.testing.assert_array_equal(np.diag(r), 1.0)
        assert np.all(r >= -1.0) and np.all(r <= 1.0)


class TestDistance:
    def test_euclidean_345(self):
        w = np.array([[0.0, 3.0], [0.0, 4.0]])
        d = dfc.distance_matrix(w, dfc.DistanceKind("euclidean"))
        assert d[0, 1] == pytest.approx(-5.0, abs=1e-12)

    def test_manhattan(self):
        w = np.array([[1.0, 3.0], [2.0, 5.0]])
        d = dfc.distance_matrix(w, dfc.DistanceKind("manhattan"))
        assert d[0, 1] == pytest.approx(-5.0, abs=1e-12)

    def test_mahalanobis_identity_reduces_to_euclidean(self):
        # Four 2-dim ROI vectors arranged so the ridge-regularized covariance
        # is exactly the identity: sigma = (a^2/2) I, lambda = 1e-3 a^2 / 2.
        a = np.sqrt(1.0 / 0.5005)
        w = np.array([[a, -a, 0.0, 0.0], [0.0, 0.0, a, -a]])
        kind = dfc.DistanceKind("mahalanobis", ridge_scale=1e-3)
        d_m = dfc.distance_matrix(w, kind)
        d_e = dfc.distance_matrix(w, dfc.DistanceKind("euclidean"))
        np.testing.assert_allclose(d_m, d_e, atol=1e-9)

    def test_oracle_hundred_seeds(self):
        kinds = [dfc.DistanceKind("manhattan"), dfc.DistanceKind("euclidean"),
                 dfc.DistanceKind("mahalanobis", 1e-3)]
        for seed in range(100):
            rng = np.random.default_rng(seed)
            w = rng.standard_normal((40, 8))
            kind = kinds[seed % 3]
            np.testing.assert_allclose(dfc.distance_matrix(w, kind),
                                       distance_oracle(w, kind), atol=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.floats(0.01, 50.0))
    def test_homogeneity(self, seed, a):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((12, 5))
        for kind in ("euclidean", "manhattan"):
            d1 = dfc.distance_matrix(w, dfc.DistanceKind(kind))
            d2 = dfc.distance_matrix(a * w, dfc.DistanceKind(kind))
            np.testing.assert_allclose(d2, a * d1, rtol=1e-12, atol=1e-12)

    def test_structure(self):
        rng = np.random.default_rng(4)
        w = rng.standard_normal((20, 7))
        for kind in dfc.DISTANCE_KINDS:
            d = dfc.distance_matrix(w, dfc.DistanceKind(kind))
            np.testing.assert_array_equal(d, d.T)
            np.testing.assert_array_equal(np.diag(d), 0.0)
            off = d[~np.eye(7, dtype=bool)]
            assert np.all(off <= 0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ShapeError):
            dfc.DistanceKind("chebyshev")

    @pytest.mark.parametrize("ridge", [0.0, -1e-3, math.nan, math.inf])
    def test_mahalanobis_ridge_must_be_finite_positive(self, ridge):
        with pytest.raises(ShapeError):
            dfc.DistanceKind("mahalanobis", ridge)


def assert_adjacency_invariant(a):
    """What ``cdgin.gin_node_update`` relies on: every (M, M) matrix of the
    stack is bool and symmetric, with a zero diagonal and 2k true entries."""
    assert a.dtype == np.bool_
    assert np.array_equal(a, np.swapaxes(a, -1, -2))
    assert not np.diagonal(a, axis1=-2, axis2=-1).any()
    assert np.all(np.count_nonzero(a, axis=(-2, -1)) == 2 * dfc.topk_edge_count(a.shape[-1]))


class TestBinarize:
    def test_six_values(self):
        vals = {(0, 1): 1.0, (0, 2): 2.0, (0, 3): 3.0, (1, 2): 4.0,
                (1, 3): 5.0, (2, 3): 6.0}
        s = np.zeros((4, 4))
        for (i, j), v in vals.items():
            s[i, j] = s[j, i] = v
        a = dfc.binarize_topk(s)
        assert dfc.topk_edge_count(4) == 2
        assert a[2, 3] == 1.0 and a[1, 3] == 1.0
        assert a.sum() == 4.0

    def test_tie_break_lexicographic(self):
        s = np.ones((5, 5))
        np.fill_diagonal(s, 0.0)
        a = dfc.binarize_topk(s)
        k = dfc.topk_edge_count(5)  # ceil(3) = 3
        expected = np.zeros((5, 5))
        for i, j in [(0, 1), (0, 2), (0, 3)][:k]:
            expected[i, j] = expected[j, i] = 1.0
        np.testing.assert_array_equal(a, expected)

    def test_two_rois(self):
        s = np.array([[0.0, -3.0], [-3.0, 0.0]])
        a = dfc.binarize_topk(s)
        assert a[0, 1] == 1.0 and a[1, 0] == 1.0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 20), st.sampled_from([0, 1, 2, 5]))
    def test_density_exact(self, seed, m, levels):
        """With ``levels`` > 0 the values are that few integers, so ties
        straddle the cut; with one level every value ties."""
        rng = np.random.default_rng(seed)
        s = rng.integers(0, levels, (m, m)).astype(float) if levels \
            else rng.standard_normal((m, m))
        s = s + s.T
        a = dfc.binarize_topk(s)
        e = m * (m - 1) // 2
        assert a.sum() == 2 * int(np.ceil(0.3 * e))
        np.testing.assert_array_equal(a, a.T)
        np.testing.assert_array_equal(np.diag(a), 0.0)
        assert set(np.unique(a)) <= {0.0, 1.0}
        assert_adjacency_invariant(a)

    def test_scale_invariance(self):
        rng = np.random.default_rng(8)
        s = rng.standard_normal((9, 9))
        s = s + s.T
        np.testing.assert_array_equal(dfc.binarize_topk(s), dfc.binarize_topk(3.7 * s + 0.0))


class TestBuildPairs:
    def test_pair_fields(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((100, 10))
        fc = dfc.build_fc_pairs(x, dfc.WindowSpec(35, 25), dfc.DistanceKind("manhattan"))
        assert fc.starts == [0, 25, 50]
        for stack in (fc.r, fc.d, fc.a_r, fc.a_d):
            assert stack.shape == (3, 10, 10)
        assert np.all(fc.a_r.sum(axis=(1, 2)) == 2 * dfc.topk_edge_count(10))
        assert np.all(fc.a_d.sum(axis=(1, 2)) == 2 * dfc.topk_edge_count(10))

    def test_non_finite_distance_names_stream_and_window(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((40, 6))
        x[20:, 4] *= 1e160  # squares overflow from window 3 (rows 15-24) on
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # overflow must surface as NumericsError only
            with pytest.raises(NumericsError) as info:
                dfc.build_fc_pairs(x, dfc.WindowSpec(10, 5), dfc.DistanceKind("euclidean"))
        err = info.value
        assert str(err).startswith("stream 'd', window 3: non-finite euclidean distance")
        assert err.shape == (7, 6, 6) and err.index[0] == 3

    def test_non_finite_input_names_correlation_stream(self):
        x = np.ones((12, 3))
        x[:, 0] = np.arange(12.0)
        x[7, 1] = np.inf
        with pytest.raises(NumericsError, match="stream 'r', window 1: non-finite pearson"):
            dfc.build_fc_pairs(x, dfc.WindowSpec(4, 4), dfc.DistanceKind("euclidean"))

    def test_binarize_rejects_non_finite(self):
        s = np.zeros((2, 4, 4))
        s[1, 0, 2] = np.nan
        with pytest.raises(NumericsError) as info:
            dfc.binarize_topk(s)
        assert info.value.index == (1, 0, 2)


# ---------------------------------------------------------------------------
# per-window oracle: the connectivity code before windows became a batch axis
# ---------------------------------------------------------------------------

def window_pearson(window):
    centered = window - window.mean(axis=0)
    std = window.std(axis=0)
    live = std >= dfc.PEARSON_STD_FLOOR
    z = centered / np.where(live, std, 1.0)
    r = (z.T @ z) / window.shape[0]
    r[~live, :] = 0.0
    r[:, ~live] = 0.0
    r = 0.5 * (r + r.T)
    np.clip(r, -1.0, 1.0, out=r)
    np.fill_diagonal(r, 1.0)
    return r


def window_distance(window, kind):
    cols = window.T
    if kind.kind == "manhattan":
        d = np.abs(cols[:, None, :] - cols[None, :, :]).sum(axis=2)
    elif kind.kind == "euclidean":
        diff = cols[:, None, :] - cols[None, :, :]
        d = np.sqrt((diff * diff).sum(axis=2))
    else:
        ws = window.shape[0]
        centered = cols - cols.mean(axis=0)
        sigma = (centered.T @ centered) / cols.shape[0]
        lam = max(kind.ridge_scale * np.trace(sigma) / ws, 1e-12)
        inv = np.linalg.inv(sigma + lam * np.eye(ws))
        diff = cols[:, None, :] - cols[None, :, :]
        q = np.einsum("ijk,kl,ijl->ij", diff, inv, diff)
        d = np.sqrt(np.maximum(q, 0.0))
    out = -d
    out = 0.5 * (out + out.T)
    np.fill_diagonal(out, 0.0)
    return out


def window_binarize(s):
    m = s.shape[0]
    iu, ju = np.triu_indices(m, k=1)
    vals = s[iu, ju]
    keep = np.lexsort((ju, iu, -vals))[:dfc.topk_edge_count(m)]
    a = np.zeros((m, m))
    a[iu[keep], ju[keep]] = 1.0
    a[ju[keep], iu[keep]] = 1.0
    return a


D_REL_TOL = 1e-10  # of the window's largest |d|: the Gram form rounds differently


def assert_matches_oracle(signals, spec, kind):
    """Batched stacks equal the per-window oracle: adjacencies exactly, r within
    1e-12, d within D_REL_TOL (Manhattan, computed elementwise, exactly)."""
    fc = dfc.build_fc_pairs(signals, spec, kind)
    n_w = spec.count(signals.shape[0])
    assert fc.starts == [t * spec.stride for t in range(n_w)]
    assert fc.r.shape == fc.d.shape == fc.a_r.shape == fc.a_d.shape == (n_w,) + (
        signals.shape[1],) * 2
    for t, start in enumerate(fc.starts):
        window = np.asarray(signals[start:start + spec.window_size], dtype=np.float64)
        r, d = window_pearson(window), window_distance(window, kind)
        np.testing.assert_allclose(fc.r[t], r, rtol=0, atol=1e-12)
        if kind.kind == "manhattan":
            np.testing.assert_array_equal(fc.d[t], d)
        else:
            assert np.abs(fc.d[t] - d).max() <= D_REL_TOL * np.abs(d).max()
        np.testing.assert_array_equal(fc.a_r[t], window_binarize(r))
        np.testing.assert_array_equal(fc.a_d[t], window_binarize(d))
    return fc


KINDS = [dfc.DistanceKind("manhattan"), dfc.DistanceKind("euclidean"),
         dfc.DistanceKind("mahalanobis", 1e-3)]


class TestSubjectAxis:
    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.kind)
    def test_a_stack_of_subjects_is_each_subject_alone(self, kind):
        """(S, T, M) signals give (S, N_w, ...) stacks whose every subject is,
        bit for bit, that subject's own (N_w, ...) stack."""
        rng = np.random.default_rng(8)
        x = rng.standard_normal((3, 47, 7)) * rng.uniform(0.5, 20.0, 7)
        x[2, :, 4] = 1.5  # a flat ROI in one subject
        spec = dfc.WindowSpec(10, 6)
        windows = dfc.extract_windows(x, spec)
        assert windows.shape == (3, 7, 10, 7) and windows.base is not None
        for stream in ("r", "d"):
            s, a = dfc.stream_graphs(windows, stream, kind)
            for i in range(len(x)):
                alone = dfc.stream_graphs(dfc.extract_windows(x[i], spec), stream, kind)
                assert np.array_equal(s[i], alone[0]) and np.array_equal(a[i], alone[1])

    def test_error_in_a_stack_names_the_window_and_indexes_the_subject(self):
        x = np.random.default_rng(12).standard_normal((3, 40, 6))
        x[1, 20:, 4] *= 1e160  # squares overflow from window 3 on
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericsError, match="^stream 'd', window 3: ") as info:
                dfc.stream_graphs(dfc.extract_windows(x, dfc.WindowSpec(10, 5)), "d",
                                  dfc.DistanceKind())
        assert info.value.index[:2] == (1, 3) and info.value.shape == (3, 7, 6, 6)


def kernel_shapes(monkeypatch):
    """Shapes of the window stacks handed to the similarity kernels, in call order."""
    shapes = []
    for name in ("pearson_matrix", "distance_matrix"):
        def record(windows, *args, kernel=getattr(dfc, name), **kwargs):
            shapes.append(windows.shape)
            return kernel(windows, *args, **kwargs)
        monkeypatch.setattr(dfc, name, record)
    return shapes


def blocked_error(windows, stream, kind, budget, monkeypatch):
    """The NumericsError of ``stream_graphs`` at ``budget`` entries per block."""
    with monkeypatch.context() as mp:
        mp.setattr(dfc, "BLOCK_ENTRIES", budget)
        with pytest.raises(NumericsError) as info:
            dfc.stream_graphs(windows, stream, kind)
    return info.value


class TestWindowBlocks:
    """stream_graphs in blocks of whole windows. Seven windows of 7 ROIs
    are 343 entries a subject: a budget of 150 splits each subject's
    windows 3 + 3 + 1, and one of 700 runs whole subjects 2 + 2 + 1."""

    SPLIT, RUNS = 150, 700

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.kind)
    @pytest.mark.parametrize("budget, blocks", [
        (SPLIT, [(3, 10, 7), (3, 10, 7), (1, 10, 7)] * 5),
        (RUNS, [(2, 7, 10, 7), (2, 7, 10, 7), (1, 7, 10, 7)])], ids=["windows", "subjects"])
    def test_blocking_changes_no_bit(self, kind, budget, blocks, monkeypatch):
        rng = np.random.default_rng(18)
        x = rng.standard_normal((5, 47, 7)) * rng.uniform(0.5, 20.0, 7)
        x[3, :, 2] = -4.0  # a flat ROI in one subject
        spec = dfc.WindowSpec(10, 6)
        windows = dfc.extract_windows(x, spec)
        whole = {stream: dfc.stream_graphs(windows, stream, kind) for stream in ("r", "d")}
        alone = [dfc.build_fc_pairs(x[i], spec, kind) for i in range(len(x))]
        monkeypatch.setattr(dfc, "BLOCK_ENTRIES", budget)
        shapes = kernel_shapes(monkeypatch)
        for stream in ("r", "d"):
            shapes.clear()
            s, a = dfc.stream_graphs(windows, stream, kind)
            assert shapes == blocks
            assert s.dtype == np.float64 and a.dtype == np.bool_
            assert np.array_equal(s, whole[stream][0]) and np.array_equal(a, whole[stream][1])
            for i, fc in enumerate(alone):
                sim, adj = (fc.r, fc.a_r) if stream == "r" else (fc.d, fc.a_d)
                assert np.array_equal(s[i], sim) and np.array_equal(a[i], adj)
        for i, fc in enumerate(alone):  # each subject alone, blocked, against the oracle
            blocked = assert_matches_oracle(x[i], spec, kind)
            for name in ("r", "d", "a_r", "a_d"):
                assert np.array_equal(getattr(blocked, name), getattr(fc, name))

    def test_the_readme_demo_chunk_is_one_block(self, monkeypatch):
        """60 subjects of 4 windows and 10 ROIs, 24,000 entries: one kernel
        call per stream. A long-scan subject's 58 windows of 90 ROIs go in
        eight blocks of at most 8 windows."""
        shapes = kernel_shapes(monkeypatch)
        x = np.random.default_rng(19).standard_normal((60, 120, 10))
        windows = dfc.extract_windows(x, dfc.WindowSpec(35, 25))
        for stream in ("r", "d"):
            dfc.stream_graphs(windows, stream, dfc.DistanceKind())
        assert shapes == [(60, 4, 35, 10)] * 2
        shapes.clear()
        long_scan = np.random.default_rng(20).standard_normal((600, 90))
        dfc.stream_graphs(dfc.extract_windows(long_scan, dfc.WindowSpec(30, 10)), "r",
                          dfc.DistanceKind())
        assert shapes == [(8, 30, 90)] * 7 + [(2, 30, 90)]

    def overflow(self, batch=False):
        """Windows of a subject whose squares overflow from window 3 (rows
        15-24) on, alone or as subject 1 of three: 7 windows of 36 entries."""
        x = np.random.default_rng(12).standard_normal((3, 40, 6))
        x[1, 20:, 4] *= 1e160
        return dfc.extract_windows(x if batch else x[1], dfc.WindowSpec(10, 5))

    @pytest.mark.parametrize("stream, kind, message, shape", [
        ("d", dfc.DistanceKind(), "stream 'd', window 3: non-finite euclidean distance",
         (7, 6, 6)),
        ("d", dfc.DistanceKind("mahalanobis"),
         "stream 'd', window 3: non-finite mahalanobis covariance", (7, 10, 10)),
        ("r", dfc.DistanceKind(), "stream 'r', window 3: non-finite pearson correlation",
         (7, 6, 6))], ids=["d", "d-covariance", "r"])
    @pytest.mark.parametrize("batch, budgets, where", [
        (False, (72,), (3,)), (True, (252, 72), (1, 3))], ids=["subject", "batch"])
    def test_error_in_a_later_block_names_the_whole_stack(self, stream, kind, message, shape,
                                                          batch, budgets, where, monkeypatch):
        """Window 3 fails, past the first block: blocks of two windows, and
        in a batch also blocks of one subject each, so subject 1 fills the
        second. Each error is the one a single block raises."""
        windows = self.overflow(batch)
        if stream == "r":  # the overflow leaves correlations finite; a NaN does not
            windows = windows.copy()
            windows[where + (9, 1)] = np.nan  # in this copy only window 3 holds it
        one = blocked_error(windows, stream, kind, 1 << 16, monkeypatch)
        for budget in budgets:
            err = blocked_error(windows, stream, kind, budget, monkeypatch)
            assert str(err) == str(one) == message
            assert err.shape == one.shape == windows.shape[:-2] + shape[1:]
            assert err.index == one.index and err.index[:len(where)] == where

    def test_top_k_error_in_a_later_block_indexes_the_stack(self, monkeypatch):
        """Finite Manhattan distances whose symmetrized sum overflows fail in
        binarize_topk, with its own message and an index into the stack."""
        x = np.random.default_rng(22).standard_normal((40, 6))
        x[20:, 0], x[20:, 1] = 0.0, 4e307  # windows 5 on: four steps of 4e307 each
        windows = dfc.extract_windows(x, dfc.WindowSpec(4, 4))
        with np.errstate(over="ignore"):
            one = blocked_error(windows, "d", dfc.DistanceKind("manhattan"), 1 << 16,
                                monkeypatch)
            err = blocked_error(windows, "d", dfc.DistanceKind("manhattan"), 72, monkeypatch)
        assert str(err) == str(one) == "non-finite similarity"
        assert err.index == one.index == (5, 0, 1) and err.shape == one.shape == (10, 6, 6)


class TestBatchedMatchesOracle:
    @pytest.mark.parametrize("family", sg.KINDS)
    def test_synth_families(self, family):
        subjects = sg.make_subjects(sg.SynthSpec(kind=family, n_subjects=4, m=12, t=60,
                                                 seed=5))
        # window count 1, 2, 5 and 21
        specs = [dfc.WindowSpec(60, 5), dfc.WindowSpec(30, 30), dfc.WindowSpec(20, 10),
                 dfc.WindowSpec(20, 2)]
        for ts in subjects:
            for normalize_fc in (True, False):
                x = data_io.zscore_columns(ts.signals) if normalize_fc else ts.signals
                for spec in specs:
                    for kind in KINDS:
                        assert_matches_oracle(x, spec, kind)

    def test_flat_and_duplicated_columns(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((50, 9))
        x[:, 1] = 4.0
        x[:, 5] = -2.5  # two flat columns at different levels
        x[:, 7] = x[:, 2]  # a duplicated column
        x[30:, 8] = x[30:, 0]  # duplicated in windows 5 and 6 only
        for kind in KINDS:
            fc = assert_matches_oracle(x, dfc.WindowSpec(12, 6), kind)
            assert np.all(fc.d[:, 2, 7] == 0.0) and np.all(fc.d[:, 7, 2] == 0.0)
            assert np.all(fc.d[5:, 0, 8] == 0.0) and np.all(fc.d[:5, 0, 8] < 0.0)
            assert np.all(fc.r[:, 1, :4] == [0.0, 1.0, 0.0, 0.0])

    def test_common_offset_on_raw_signals(self):
        # normalize_fc = false on signals with a large common offset: the Gram
        # form must center the ROI vectors or its cancellation flips ranks.
        for family in sg.KINDS:
            subjects = sg.make_subjects(sg.SynthSpec(kind=family, n_subjects=4, m=20, t=100,
                                                     seed=11))
            for ts in subjects:
                for kind in KINDS[1:]:
                    assert_matches_oracle(ts.signals + 1e6, dfc.WindowSpec(25, 25), kind)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 14), st.integers(1, 6),
           st.integers(2, 4))
    def test_binarize_heavy_ties(self, seed, m, n_w, levels):
        rng = np.random.default_rng(seed)
        s = rng.integers(0, levels, size=(n_w, m, m)).astype(np.float64)
        s = s + s.swapaxes(1, 2)
        a = dfc.binarize_topk(s)
        for t in range(n_w):
            np.testing.assert_array_equal(a[t], window_binarize(s[t]))
            np.testing.assert_array_equal(dfc.binarize_topk(s[t]), a[t])

    def test_binarize_mixed_tie_and_tie_free_windows(self):
        """Windows whose ties straddle the cut and windows without any, in one
        stack, each equal to the per-window lexsort oracle."""
        rng = np.random.default_rng(17)
        m = 12
        k, e = dfc.topk_edge_count(m), m * (m - 1) // 2
        s = rng.standard_normal((8, m, m))
        s[1::2] = rng.integers(0, 3, size=(4, m, m))  # odd windows: three levels
        s[6] = 0.0  # all tied
        s = s + s.swapaxes(1, 2)
        iu, ju = np.triu_indices(m, k=1)
        straddle = []
        for w in s:
            vals = np.sort(w[iu, ju])[::-1]
            straddle.append(vals[k - 1] == vals[k] if k < e else False)
        assert any(straddle) and not all(straddle)
        a = dfc.binarize_topk(s)
        for t in range(len(s)):
            np.testing.assert_array_equal(a[t], window_binarize(s[t]))
        tie_free = [t for t in range(len(s)) if not straddle[t]]
        np.testing.assert_array_equal(dfc.binarize_topk(s[tie_free]), a[tie_free])

    def test_plain_window_calls_match_stack_slices(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((40, 7))
        windows = dfc.extract_windows(x, dfc.WindowSpec(10, 6))
        assert windows.shape == (6, 10, 7)
        for kind in KINDS:
            d = dfc.distance_matrix(windows, kind)
            for t in range(len(windows)):
                np.testing.assert_array_equal(windows[t], x[6 * t:6 * t + 10])
                np.testing.assert_array_equal(dfc.distance_matrix(windows[t], kind), d[t])
        r = dfc.pearson_matrix(windows)
        for t in range(len(windows)):
            np.testing.assert_array_equal(dfc.pearson_matrix(windows[t]), r[t])

    def test_fc_dump_matches_oracle(self, tmp_path):
        data = str(tmp_path / "data")
        sg.generate(sg.SynthSpec(kind="amplitude", n_subjects=2, m=8, t=50, seed=4), data)
        out = str(tmp_path / "fc")
        assert cli.main(["fc-dump", "--data", data, "--set", "window_size=15",
                         "--set", "stride=7", "--set", "distance_kind=mahalanobis",
                         "--out", out]) == 0
        ts = data_io.load_dataset(data_io.load_manifest(os.path.join(data, "manifest.json")),
                                  data)[0]
        x = data_io.zscore_columns(ts.signals)
        kind = dfc.DistanceKind("mahalanobis")
        n_w = dfc.WindowSpec(15, 7).count(50)
        assert len(os.listdir(out)) == 4 * n_w
        for t in range(n_w):
            window = x[7 * t:7 * t + 15]
            r, d = window_pearson(window), window_distance(window, kind)

            def dumped(tag):
                path = os.path.join(out, f"{ts.subject_id}_w{t:03d}_{tag}.csv")
                return np.loadtxt(path, delimiter=",", ndmin=2)

            np.testing.assert_array_equal(dumped("r"), r)
            np.testing.assert_array_equal(dumped("a_r"), window_binarize(r))
            np.testing.assert_array_equal(dumped("a_d"), window_binarize(d))
            assert np.abs(dumped("d") - d).max() <= D_REL_TOL * np.abs(d).max()


def manhattan_oracle(windows):
    """Manhattan distance_matrix as it was before the windows were batched:
    one (M, M, WS) difference per window."""
    x = np.asarray(windows, dtype=np.float64)
    d = np.empty(x.shape[:-2] + (x.shape[-1],) * 2)
    for w in np.ndindex(x.shape[:-2]):
        cols = x[w].T  # (M, WS) vectors
        d[w] = np.abs(cols[:, None, :] - cols[None, :, :]).sum(axis=2)
    np.negative(d, out=d)
    out = d + d.swapaxes(-1, -2)
    out *= 0.5
    idx = np.arange(x.shape[-1])
    out[..., idx, idx] = 0.0
    return out


class TestBatchedManhattan:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5), st.integers(2, 20),
           st.integers(1, 30), st.sampled_from([1, 2, 7, dfc.MANHATTAN_PAIRS]))
    def test_bit_identical_to_per_window_loop(self, seed, n_w, ws, m, chunk):
        """Bit-identical at WS below and above 8 (where numpy's pairwise
        summation would start on a contiguous axis), in chunks down to a single
        ROI pair, and for the plain (WS, M) window."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n_w, ws, m)) * 10.0 ** rng.integers(-5, 6, (n_w, ws, m))
        x[:, :, rng.random(m) < 0.2] = 3.0  # flat and duplicated columns
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dfc, "MANHATTAN_PAIRS", chunk)
            got = dfc.distance_matrix(x, dfc.DistanceKind("manhattan"))
            got_one = dfc.distance_matrix(x[0], dfc.DistanceKind("manhattan"))
        want = manhattan_oracle(x)
        assert got.tobytes() == want.tobytes()
        assert got_one.tobytes() == want[0].tobytes()

    def test_strided_windows_and_ninety_rois(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((120, 90))
        windows = dfc.extract_windows(x, dfc.WindowSpec(35, 17))  # overlapping view
        got = dfc.distance_matrix(windows, dfc.DistanceKind("manhattan"))
        assert got.tobytes() == manhattan_oracle(windows).tobytes()


class TestRequireFinite:
    def test_finite_entries_whose_sum_overflows_pass(self):
        values = np.full((3, 4, 4), 1e308)
        values[1] *= -1.0
        values[2, 0, 0] = -1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dfc._require_finite(values, "values")
            dfc.binarize_topk(np.full((5, 5), 1.7e308))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["first", "last"])
    def test_names_first_non_finite_entry(self, bad, where):
        values = np.ones((3, 4, 5))
        index = (0, 0, 0) if where == "first" else (2, 3, 4)
        values[index] = bad
        if where == "first":
            values[2, 3, 4] = -bad  # a later one is not named
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericsError, match="^non-finite things") as info:
                dfc._require_finite(values, "things")
        assert info.value.index == index
        assert info.value.shape == (3, 4, 5)
