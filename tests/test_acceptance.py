"""End-to-end acceptance checks.

Each test here is a release gate: oracle equivalence for the similarity
kernels, exact adjacency density, invariance laws, a full-model gradient
check, hand-computed loss values, metric oracles, CLI determinism, and three
synthetic-data experiments that exercise the scientific claims (distance
stream complementarity, correlation learning, windowed-vs-static dynamics).
Budgets are asserted so the suite stays runnable at desk scale.
"""

import importlib.util
import math
import os
import time
from pathlib import Path

import numpy as np

import cdgl.cdgin as cdgin
import cdgl.diffcore as dc
import cdgl.model as model
import cdgl.train_eval as tv
from cdgl import cli
from cdgl import synthgen as sg
from cdgl.data_io import RoiTimeSeries
from cdgl.dynamic_fc import (
    DISTANCE_KINDS,
    DistanceKind,
    binarize_topk,
    distance_matrix,
    pearson_matrix,
    topk_edge_count,
)

RIDGE_SCALE = 1e-3


# ---------------------------------------------------------------------------
# brute-force oracles, written directly from the definitions
# ---------------------------------------------------------------------------

def pearson_brute(window: np.ndarray) -> np.ndarray:
    ws, m = window.shape
    out = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            if i == j:
                out[i, j] = 1.0
                continue
            xi, xj = window[:, i], window[:, j]
            cov = np.mean((xi - xi.mean()) * (xj - xj.mean()))
            out[i, j] = cov / (xi.std() * xj.std())
    return out


def distance_brute(window: np.ndarray, kind: str) -> np.ndarray:
    ws, m = window.shape
    inv = None
    if kind == "mahalanobis":
        cols = window.T
        centered = cols - cols.mean(axis=0)
        sigma = (centered.T @ centered) / m
        lam = max(RIDGE_SCALE * np.trace(sigma) / ws, 1e-12)
        inv = np.linalg.inv(sigma + lam * np.eye(ws))
    out = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            diff = window[:, i] - window[:, j]
            if kind == "manhattan":
                d = np.sum(np.abs(diff))
            elif kind == "euclidean":
                d = math.sqrt(np.sum(diff * diff))
            else:
                d = math.sqrt(max(float(diff @ inv @ diff), 0.0))
            out[i, j] = -d
    return out


class TestSimilarityOracles:
    def test_matrices_match_brute_force(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(42)
        for _ in range(100):
            window = rng.standard_normal((40, 8))
            np.testing.assert_allclose(
                pearson_matrix(window), pearson_brute(window), atol=1e-10)
            for kind in DISTANCE_KINDS:
                got = distance_matrix(window, DistanceKind(kind, RIDGE_SCALE))
                np.testing.assert_allclose(
                    got, distance_brute(window, kind), atol=1e-10)
        assert time.perf_counter() - t0 < 10.0


class TestAdjacencyDensity:
    def test_exact_edge_count(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(7)
        for trial in range(1000):
            m = 2 + trial % 19
            s = rng.standard_normal((m, m))
            s = s + s.T
            a = binarize_topk(s)
            assert int(a.sum()) == 2 * topk_edge_count(m)
            assert np.array_equal(a, a.T)
            assert np.all(np.diag(a) == 0.0)
        assert time.perf_counter() - t0 < 5.0


class TestScaleLaws:
    def test_pearson_affine_invariant_distances_homogeneous(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(11)
        for _ in range(50):
            window = rng.standard_normal((40, 8))
            gains = rng.uniform(0.5, 3.0, size=8)
            offsets = rng.normal(size=8)
            np.testing.assert_allclose(
                pearson_matrix(window * gains + offsets),
                pearson_matrix(window), atol=1e-12)
            c = float(rng.uniform(0.5, 3.0))
            for kind in ("euclidean", "manhattan"):
                dk = DistanceKind(kind, RIDGE_SCALE)
                np.testing.assert_allclose(
                    distance_matrix(c * window, dk),
                    c * distance_matrix(window, dk), atol=1e-12)
        assert time.perf_counter() - t0 < 5.0


class TestFullModelGradients:
    def test_reverse_mode_matches_central_differences(self):
        t0 = time.perf_counter()
        cfg = tv.TrainConfig(layers=2, batch_size=1, window_size=10, stride=5,
                             hidden_dim=8, proj_dim=8, alpha=0.1, delta=1,
                             distance_kind="euclidean", epochs=1, seed=0)
        rng = np.random.default_rng(0)
        signals = rng.standard_normal((40, 6))
        ts = RoiTimeSeries("gradcheck", signals, 1)
        preps = tv.prepare_dataset([ts], cfg)
        dims = tv.make_dims(preps, cfg)
        store = model.init_params(dims, 0)
        ccfg = cfg.contrastive()

        def build_loss():
            return model.subject_loss_parts(store, dims, preps[0], ccfg)[0]

        coords = dc.sample_coords(store.items(), 240, rng)
        assert set(coords) == {name for name, _ in store.items()}
        assert all(len(ix) >= 1 for ix in coords.values())
        report = dc.finite_diff_check(build_loss, store.items(), coords, h=1e-5)
        assert report.n_coords >= 200
        assert report.max_rel_err < 1e-4, (
            f"worst {report.worst_param}[{report.worst_index}]: "
            f"analytic {report.analytic} vs numeric {report.numeric}")
        assert time.perf_counter() - t0 < 120.0


class TestContrastiveHandCase:
    def test_two_identical_unit_vectors_give_ln3(self):
        e1 = np.array([[[1.0, 0.0, 0.0]]])
        z_r = dc.param(np.repeat(e1, 2, axis=1))  # one subject of two windows
        z_d = dc.param(np.repeat(e1, 2, axis=1))
        loss = cdgin.contrastive_loss(z_r, z_d, cdgin.ContrastiveConfig(delta=1))
        assert abs(float(loss.data[0]) - np.log(3.0)) < 1e-12


def _script(name):
    """``scripts/<name>.py`` as a module: the experiments the README prints."""
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"scripts_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestStreamComplementarity:
    def test_distance_stream_required_on_amplitude_classes(self):
        t0 = time.perf_counter()
        script = _script("complementarity_experiment")
        arms = script.run(script.parse_args([]))["arms"]
        pcc_only, dual = arms["pcc_only"]["auc"], arms["dual"]["auc"]
        assert 0.35 <= pcc_only <= 0.65, f"pcc-only auc {pcc_only}"
        assert dual >= 0.85, f"dual-stream auc {dual}"
        assert time.perf_counter() - t0 < 600.0


class TestCorrelationLearning:
    def test_cross_validated_accuracy(self):
        t0 = time.perf_counter()
        spec = sg.SynthSpec("correlation", 60, 10, 120, noise_std=0.1, seed=7)
        subjects = sg.make_subjects(spec)
        cfg = tv.TrainConfig(layers=2, batch_size=4, lr=1e-3, weight_decay=2e-4,
                             window_size=35, stride=25, hidden_dim=8, proj_dim=8,
                             alpha=0.1, delta=1, distance_kind="euclidean",
                             epochs=30, seed=0)
        cv = tv.cross_validate(subjects, cfg, k=4, test_fraction=0.2)
        assert cv.summary["acc_mean"] >= 0.90, cv.summary
        assert time.perf_counter() - t0 < 600.0


class TestDynamicVersusStatic:
    def test_quarter_windows_beat_whole_scan(self):
        t0 = time.perf_counter()
        script = _script("dynamic_vs_static")
        by_size = script.run(script.parse_args([]))["by_window_size"]
        means = {int(ws): summary["auc_mean"] for ws, summary in by_size.items()}
        assert means[30] - means[120] >= 0.15, means
        assert time.perf_counter() - t0 < 900.0


def _avg_rank_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank-sum formulation with midranks for ties."""
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores))
    i = 0
    while i < len(scores):
        j = i
        while j < len(scores) and scores[order[j]] == scores[order[i]]:
            j += 1
        ranks[order[i:j]] = 0.5 * (i + j + 1)  # average of 1-based positions
        i = j
    n1 = int(labels.sum())
    n0 = len(labels) - n1
    u1 = ranks[labels == 1].sum() - n1 * (n1 + 1) / 2.0
    return u1 / (n1 * n0)


class TestMetricOracles:
    def test_auc_matches_rank_sum_and_monotone_invariance(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 20:
            n = int(rng.integers(4, 12))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                continue
            scores = rng.integers(-500, 501, size=n) / 1000.0
            got = tv.auc_mann_whitney(scores.tolist(), labels.tolist())
            want = _avg_rank_auc(scores, labels)
            assert abs(got - want) < 1e-12
            cubed = tv.auc_mann_whitney((scores ** 3).tolist(), labels.tolist())
            squashed = tv.auc_mann_whitney(
                (1.0 / (1.0 + np.exp(-scores))).tolist(), labels.tolist())
            assert cubed == got and squashed == got
            checked += 1
        assert time.perf_counter() - t0 < 1.0


class TestCliDeterminism:
    def test_cv_twice_is_byte_identical(self, tmp_path):
        t0 = time.perf_counter()
        data = str(tmp_path / "data")
        assert cli.main(["synth", "--kind", "correlation", "--subjects", "60",
                         "--rois", "10", "--timepoints", "120", "--seed", "7",
                         "--out", data]) == 0
        overrides = []
        for kv in ("epochs=3", "window_size=35", "stride=25", "hidden_dim=8",
                   "proj_dim=8", "lr=1e-3", "weight_decay=2e-4"):
            overrides += ["--set", kv]
        trees = []
        for name in ("run_a", "run_b"):
            out = str(tmp_path / name)
            assert cli.main(["cv", "--data", data, "--out", out] + overrides) == 0
            tree = {}
            for dirpath, _, files in os.walk(out):
                for fname in files:
                    path = os.path.join(dirpath, fname)
                    with open(path, "rb") as fh:
                        tree[os.path.relpath(path, out)] = fh.read()
            trees.append(tree)
        first, second = trees
        assert set(first) == set(second)
        assert "report.json" in first
        assert any(name.endswith(".ckpt") for name in first)
        assert any(name.endswith("_epochs.jsonl") for name in first)
        for name, blob in first.items():
            assert second[name] == blob, f"{name} differs between runs"
        assert time.perf_counter() - t0 < 1200.0
