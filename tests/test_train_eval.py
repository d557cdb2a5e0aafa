"""Metric oracles, training determinism, and cross-validation plumbing."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cdgl.train_eval as tv
from cdgl import diffcore as dc
from cdgl import dynamic_fc as dfc
from cdgl import model, synthgen
from cdgl.data_io import RoiTimeSeries
from cdgl.errors import ConfigError, ParseError, WindowBudgetError

from test_dynamic_fc import assert_adjacency_invariant


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))


class TestTrainConfig:
    def test_defaults(self):
        cfg = tv.TrainConfig()
        assert cfg.layers == 2 and cfg.batch_size == 4
        assert cfg.lr == 4e-4 and cfg.weight_decay == 2e-4
        assert cfg.window_size == 35 and cfg.stride == 25

    @pytest.mark.parametrize("kwargs", [
        {"layers": 0}, {"batch_size": -1}, {"lr": 0.0}, {"weight_decay": -0.1},
        {"alpha": -0.5}, {"epochs": 0}, {"distance_kind": "cosine"},
        {"streams": "dr"}, {"window_size": 0}, {"delta": 0}, {"normalize_fc": 1},
        {"epochs": True}, {"seed": False}, {"window_size": 1}, {"lr": "fast"},
        {"lr": True}, {"alpha": None}, {"ridge_scale": "1e-3"}, {"weight_decay": 10 ** 400},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            tv.TrainConfig(**kwargs)

    def test_float_fields_store_ints_as_floats(self):
        cfg = tv.TrainConfig(lr=1, weight_decay=0, alpha=0, ridge_scale=2)
        values = (cfg.lr, cfg.weight_decay, cfg.alpha, cfg.ridge_scale)
        assert values == (1.0, 0.0, 0.0, 2.0)
        assert all(type(v) is float for v in values)
        assert '"lr": 1.0, ' in json.dumps(dataclasses.asdict(cfg))

    def test_helper_objects(self):
        cfg = tv.TrainConfig(window_size=10, stride=5, distance_kind="manhattan",
                             streams="d")
        assert cfg.window_spec().count(40) == 7
        assert cfg.distance().kind == "manhattan"
        assert cfg.stream_tuple() == ("d",)
        assert cfg.contrastive().delta == cfg.delta


class TestAuc:
    def test_perfect_separation(self):
        assert tv.auc_mann_whitney([0.9, 0.8, 0.3, 0.2], [1, 1, 0, 0]) == 1.0

    def test_half_concordant(self):
        assert tv.auc_mann_whitney([0.9, 0.4, 0.35, 0.8], [1, 0, 1, 0]) == 0.5

    def test_reversed_is_zero(self):
        assert tv.auc_mann_whitney([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0

    def test_all_tied_scores(self):
        assert tv.auc_mann_whitney([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_single_class_is_none(self):
        assert tv.auc_mann_whitney([0.2, 0.9], [1, 1]) is None
        assert tv.auc_mann_whitney([0.2, 0.9], [0, 0]) is None

    def test_hand_counts_twenty_sets(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(4, 12))
            scores = rng.choice(np.linspace(0.0, 1.0, 7), size=n).tolist()
            labels = rng.integers(0, 2, size=n).tolist()
            expect = tv.auc_mann_whitney(scores, labels)
            pos = [s for s, y in zip(scores, labels) if y == 1]
            neg = [s for s, y in zip(scores, labels) if y == 0]
            if not pos or not neg:
                assert expect is None
                continue
            total = sum(1.0 if p > q else 0.5 if p == q else 0.0
                        for p in pos for q in neg)
            assert expect == pytest.approx(total / (len(pos) * len(neg)), abs=1e-15)

    @given(st.lists(st.tuples(st.integers(0, 1000), st.integers(0, 1)),
                    min_size=2, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_monotone_invariance(self, pairs):
        # grid-valued scores keep x**3 strictly monotone in float64 too
        scores = [s / 1000.0 for s, _ in pairs]
        labels = [y for _, y in pairs]
        base = tv.auc_mann_whitney(scores, labels)
        cubed = tv.auc_mann_whitney([s ** 3 for s in scores], labels)
        squashed = tv.auc_mann_whitney(sigmoid(scores).tolist(), labels)
        if base is None:
            assert cubed is None and squashed is None
        else:
            assert cubed == pytest.approx(base, abs=1e-12)
            assert squashed == pytest.approx(base, abs=1e-12)


class TestConfusionAndReport:
    def test_counts(self):
        scores = [0.9, 0.4, 0.5, 0.2]
        labels = [1, 1, 0, 0]
        assert tv.confusion_counts(scores, labels) == (1, 1, 1, 1)

    def test_acc_plus_error_is_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            scores = rng.random(n).tolist()
            labels = rng.integers(0, 2, size=n).tolist()
            for thr in (0.2, 0.5, 0.8):
                tp, tn, fp, fn = tv.confusion_counts(scores, labels, thr)
                acc = (tp + tn) / n
                err = (fp + fn) / n
                assert acc + err == pytest.approx(1.0, abs=1e-15)

    def test_report_na_serialization(self):
        rep = tv.EvalReport(auc=None, acc=1.0, se=1.0, sp=None,
                            tp=2, tn=0, fp=0, fn=0)
        d = rep.as_dict()
        assert d["auc"] == "n/a" and d["sp"] == "n/a"
        assert d["se"] == 1.0 and d["acc"] == 1.0
        assert rep.n == 2

    def test_format_m_s(self):
        assert tv.format_m_s(0.7, 0.1) == "0.70±0.10"
        assert tv.format_m_s(None, None) == "n/a"


class TestNorms:
    def test_a_row_whose_squares_overflow_keeps_a_finite_norm(self):
        """Under the suite's warnings-as-errors: 1e200 squared overflows, the
        norm of five of them does not; a row that does not overflow keeps
        the plain norm's bits."""
        rng = np.random.default_rng(5)
        rows = np.stack([np.full(5, 1e200), rng.standard_normal(5), np.array([-1e200, 3e199,
                                                                              0.0, 0.0, 0.0])])
        norms = tv._norms(rows)
        assert norms[0] == pytest.approx(1e200 * np.sqrt(5.0), rel=1e-15)
        assert norms[1] == np.sqrt((rows[1] * rows[1]).sum())
        assert norms[2] == pytest.approx(np.hypot(1e200, 3e199), rel=1e-15)

    def test_a_norm_beyond_the_float_range_is_infinite(self):
        assert tv._norms(np.full((1, 4), 1e308))[0] == np.inf


def toy_pair(rng, m=6, t=30, separation=3.0):
    """Two tiny subjects whose ROI means differ by class."""
    x0 = rng.standard_normal((t, m))
    x1 = rng.standard_normal((t, m))
    x1[:, : m // 2] *= separation
    return [RoiTimeSeries("neg0", x0, 0), RoiTimeSeries("pos0", x1, 1)]


def tiny_cfg(**overrides):
    base = dict(layers=1, batch_size=2, lr=1e-2, weight_decay=0.0,
                window_size=10, stride=5, hidden_dim=6, proj_dim=6,
                alpha=0.0, epochs=5, seed=0, distance_kind="manhattan")
    base.update(overrides)
    return tv.TrainConfig(**base)


class TestTrain:
    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigError):
            tv.train([], tiny_cfg())

    def test_window_larger_than_t(self):
        rng = np.random.default_rng(0)
        subs = toy_pair(rng, t=8)
        with pytest.raises(WindowBudgetError) as err:
            tv.train(subs, tiny_cfg(window_size=16))
        assert "neg0" in str(err.value)

    def test_too_few_windows_for_contrastive(self):
        rng = np.random.default_rng(0)
        subs = toy_pair(rng, t=12)
        with pytest.raises(WindowBudgetError) as err:
            tv.train(subs, tiny_cfg(window_size=12, stride=12, alpha=0.1))
        assert "neg0" in str(err.value)

    def test_alpha_zero_permits_single_window(self):
        rng = np.random.default_rng(0)
        subs = toy_pair(rng, t=12)
        result = tv.train(subs, tiny_cfg(window_size=12, stride=12, alpha=0.0,
                                         epochs=2))
        assert len(result.epoch_log) == 2

    def test_epoch_log_fields(self):
        rng = np.random.default_rng(1)
        result = tv.train(toy_pair(rng), tiny_cfg(epochs=3))
        assert [rec["epoch"] for rec in result.epoch_log] == [0, 1, 2]
        for rec in result.epoch_log:
            assert set(rec) == {"epoch", "mean_loss", "bce", "info_loss",
                                "grad_norm", "param_norm", "gin_eps"}
            assert rec["info_loss"] == 0.0  # alpha = 0 run
            assert rec["mean_loss"] == pytest.approx(rec["bce"], abs=1e-12)
            assert 0.0 < rec["grad_norm"] < np.inf
        final = np.concatenate([p.data.ravel() for _, p in result.store.items()])
        assert result.epoch_log[-1]["param_norm"] == pytest.approx(
            np.linalg.norm(final), rel=1e-12)
        layers = result.dims.layers
        assert result.epoch_log[-1]["gin_eps"] == {
            s: [float(result.store[f"cdgin.layer{i}.{s}.eps"].data) for i in range(layers)]
            for s in result.dims.streams}
        assert all(len(eps) == layers for rec in result.epoch_log
                   for eps in rec["gin_eps"].values())

    def test_alpha_couples_components(self):
        rng = np.random.default_rng(2)
        subs = toy_pair(rng, t=40)
        cfg = tiny_cfg(alpha=0.2, epochs=2, window_size=10, stride=10)
        result = tv.train(subs, cfg)
        for rec in result.epoch_log:
            assert rec["info_loss"] > 0.0
            assert rec["mean_loss"] == pytest.approx(
                rec["bce"] + 0.2 * rec["info_loss"], abs=1e-9)

    def test_deterministic_logs(self):
        rng = np.random.default_rng(3)
        subs = toy_pair(rng)
        cfg = tiny_cfg(epochs=4, alpha=0.1)
        log1 = tv.train(subs, cfg).epoch_log
        log2 = tv.train(subs, cfg).epoch_log
        assert log1 == log2

    def test_checkpoint_written_and_deterministic(self, tmp_path):
        rng = np.random.default_rng(4)
        subs = toy_pair(rng)
        cfg = tiny_cfg(epochs=2)
        p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        for path in (p1, p2):
            result = tv.train(subs, cfg)
            tv.save_model(path, result.store, result.dims, cfg)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_separable_toy_loss_drops(self):
        rng = np.random.default_rng(5)
        subs = toy_pair(rng, separation=4.0)
        cfg = tiny_cfg(epochs=200, lr=1e-2, alpha=0.0)
        result = tv.train(subs, cfg)
        assert result.epoch_log[-1]["mean_loss"] < 0.1

    def test_loss_trend_nonincreasing(self):
        rng = np.random.default_rng(6)
        subs = toy_pair(rng, separation=4.0)
        cfg = tiny_cfg(epochs=50, lr=1e-3, alpha=0.0)
        losses = [rec["mean_loss"] for rec in tv.train(subs, cfg).epoch_log]
        violations = sum(1 for a, b in zip(losses, losses[1:]) if b > a + 1e-12)
        assert violations <= 5


def counted(monkeypatch, module, name):
    """Replace ``module.name`` with a wrapper that counts its calls."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestPrepareDataset:
    @pytest.mark.parametrize("streams", ["r", "d", "rd"])
    @pytest.mark.parametrize("normalize_fc", [True, False])
    @pytest.mark.parametrize("kind", dfc.DISTANCE_KINDS)
    def test_bit_identical_to_one_subject_at_a_time(self, monkeypatch, kind, normalize_fc,
                                                    streams):
        """Two series lengths, interleaved; each length spans two chunks."""
        monkeypatch.setattr(tv, "LOCKSTEP_STACK_ROWS", 100)  # 2 subjects of 42 or 48 rows
        rng = np.random.default_rng(21)
        cohort = []
        for i in range(7):
            t = 40 if i % 2 else 47  # 7 or 8 windows of 6 ROIs
            x = rng.standard_normal((t, 6)) * rng.uniform(0.5, 20.0, 6) + rng.uniform(-5, 5, 6)
            if i == 3:
                x[:, 2] = 3.0  # a flat ROI
            cohort.append(RoiTimeSeries(f"s{i}", x, i % 2))
        cfg = tv.TrainConfig(window_size=10, stride=5, distance_kind=kind,
                             normalize_fc=normalize_fc, streams=streams)
        pearson = counted(monkeypatch, dfc, "pearson_matrix")
        preps = tv.prepare_dataset(cohort, cfg)
        assert len(pearson) == (4 if "r" in streams else 0)  # 4 chunks, not 7 subjects
        for ts, prep in zip(cohort, preps):
            alone = model.prepare_subject(ts, cfg.window_spec(), cfg.distance(),
                                          cfg.stream_tuple(), normalize_fc)
            assert (prep.subject_id, prep.label, prep.window_size, prep.starts) == (
                alone.subject_id, alone.label, alone.window_size, alone.starts)
            assert np.array_equal(prep.encoder_input, alone.encoder_input)
            assert prep.adjacency.keys() == alone.adjacency.keys() == set(streams)
            for s in streams:
                assert np.array_equal(prep.adjacency[s], alone.adjacency[s])

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(2, 9),
           kind=st.sampled_from(dfc.DISTANCE_KINDS), streams=st.sampled_from(["r", "d", "rd"]),
           levels=st.sampled_from([0, 1, 3]), normalize_fc=st.booleans())
    def test_adjacency_invariant(self, seed, m, kind, streams, levels, normalize_fc):
        """Every prepared stack keeps the adjacency invariant, for subjects of
        two series lengths. With ``levels`` > 0 the signals are that few
        integers, so similarities tie across the cut; one level makes every
        ROI flat."""
        rng = np.random.default_rng(seed)

        def signals(t):
            return rng.integers(0, levels, (t, m)).astype(float) if levels \
                else rng.standard_normal((t, m))

        cohort = [RoiTimeSeries(f"s{i}", signals(30 + 5 * (i % 2)), i % 2) for i in range(4)]
        cfg = tv.TrainConfig(window_size=10, stride=5, distance_kind=kind, streams=streams,
                             normalize_fc=normalize_fc)
        for prep in tv.prepare_dataset(cohort, cfg):
            assert prep.adjacency.keys() == set(streams)
            for a in prep.adjacency.values():
                assert a.shape == (len(prep.starts), m, m)
                assert_adjacency_invariant(a)

    def test_readme_demo_is_one_stack(self, monkeypatch):
        """The README demo's 60 subjects (2,400 node rows) take one call per step."""
        subjects = synthgen.make_subjects(synthgen.SynthSpec(
            kind="correlation", n_subjects=60, m=10, t=120, seed=7))
        pearson = counted(monkeypatch, dfc, "pearson_matrix")
        distance = counted(monkeypatch, dfc, "distance_matrix")
        preps = tv.prepare_dataset(subjects, tv.TrainConfig())
        assert len(preps) == 60 and len(pearson) == 1 and len(distance) == 1

    def test_window_budget_is_checked_before_any_stack(self, monkeypatch):
        rng = np.random.default_rng(22)
        cohort = [RoiTimeSeries(f"s{i}", rng.standard_normal((t, 4)), 0)
                  for i, t in enumerate([30, 30, 40, 9, 30, 8])]
        pearson = counted(monkeypatch, dfc, "pearson_matrix")
        with pytest.raises(WindowBudgetError, match="subject 's3': window size 10 exceeds T=9"):
            tv.prepare_dataset(cohort, tiny_cfg())
        assert pearson == []


class TestEvaluate:
    def test_round_trip_on_train_set(self):
        rng = np.random.default_rng(7)
        subs = toy_pair(rng, separation=4.0)
        cfg = tiny_cfg(epochs=200, lr=1e-2)
        result = tv.train(subs, cfg)
        preps = tv.prepare_dataset(subs, cfg)
        report = tv.evaluate(result.store, result.dims, preps)
        assert report.acc == 1.0 and report.auc == 1.0
        assert report.se == 1.0 and report.sp == 1.0
        assert (report.tp, report.tn, report.fp, report.fn) == (1, 1, 0, 0)

    def test_single_class_sentinels(self):
        rng = np.random.default_rng(8)
        subs = toy_pair(rng)
        cfg = tiny_cfg(epochs=1)
        result = tv.train(subs, cfg)
        pos_only = tv.prepare_dataset([subs[1]], cfg)
        report = tv.evaluate(result.store, result.dims, pos_only)
        assert report.auc is None and report.sp is None
        assert report.se is not None

    def test_scores_match_per_subject_predictions(self, monkeypatch):
        rng = np.random.default_rng(15)
        subs = toy_cohort(rng, n=7) + toy_cohort(rng, n=3, t=40)  # two window counts
        cfg = tiny_cfg(epochs=1)
        result = tv.train(subs, cfg)
        preps = tv.prepare_dataset(subs, cfg)
        expect = [tv.predict(result.store, result.dims, p) for p in preps]
        whole = tv.score(result.store, result.dims, preps)
        per_subject = len(preps[0].starts) * result.dims.m ** 2
        monkeypatch.setattr(tv, "SCORE_STACK_ENTRIES", 3 * per_subject)  # batches of 3
        split = tv.score(result.store, result.dims, preps)
        for got in (whole, split):
            np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12)

    def test_empty_rejected(self):
        rng = np.random.default_rng(9)
        subs = toy_pair(rng)
        cfg = tiny_cfg(epochs=1)
        result = tv.train(subs, cfg)
        with pytest.raises(ConfigError):
            tv.evaluate(result.store, result.dims, [])


class TestGraphFreeScoring:
    @staticmethod
    def scored_set(n=5, streams="rd", kind="manhattan", seed=30):
        cfg = tiny_cfg(streams=streams, distance_kind=kind)
        preps = tv.prepare_dataset(toy_cohort(np.random.default_rng(seed), n=n), cfg)
        dims = tv.make_dims(preps, cfg)
        return preps, dims, model.init_params(dims, seed)

    @pytest.mark.parametrize("streams", tv.STREAM_CHOICES)
    @pytest.mark.parametrize("kind", dfc.DISTANCE_KINDS)
    def test_probabilities_are_those_of_the_graph(self, streams, kind):
        preps, dims, store = self.scored_set(streams=streams, kind=kind)
        graph = model.forward_batch(store, dims, preps).y_hat
        assert graph._parents  # the reference forward did build a graph
        assert tv.score(store, dims, preps) == graph.data.tolist()

    def test_builds_no_graph_and_leaves_the_gradients(self, monkeypatch):
        preps, dims, store = self.scored_set()
        preps += tv.prepare_dataset(toy_cohort(np.random.default_rng(31), n=2, t=40),
                                    tiny_cfg())  # a second window count
        grads = store.rows()[1]
        grads[...] = np.random.default_rng(32).standard_normal(grads.shape)
        before = grads.copy()
        built = []
        make = dc._make
        monkeypatch.setattr(dc, "_make", lambda *args: built.append(make(*args)) or built[-1])
        tv.score(store, dims, preps)
        tv.evaluate(store, dims, preps)
        tv.predict(store, dims, preps[-1])
        # one forward per window group in score and in evaluate, and one in predict
        assert [t.op for t in built].count("classify") == 5
        assert not any(t.requires_grad or t._parents or t._backward for t in built)
        np.testing.assert_array_equal(store.rows()[1], before)

    def test_forward_peaks_at_half_the_graph_or_less(self):
        """One subject at 90 ROIs and 40 windows, traced by tracemalloc."""
        x = np.random.default_rng(33).standard_normal((230, 90))
        cfg = tv.TrainConfig(window_size=35, stride=5)
        preps = tv.prepare_dataset([RoiTimeSeries("s0", x, 1)], cfg)
        assert len(preps[0].starts) == 40
        dims = tv.make_dims(preps, cfg)
        store = model.init_params(dims, 0)

        def peak(params):
            dc.release_buffers()  # pooled buffers of earlier calls would go uncounted
            tracemalloc.start()
            try:
                model.forward_batch(params, dims, preps)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        with_graph, graph_free = peak(store), peak(store.no_grad())
        assert graph_free <= with_graph / 2

    def test_split_scoring_is_bit_identical_to_one_forward(self, monkeypatch):
        """A budget of three subjects splits seven into forwards of 2, 2 and 3.

        Only forwards of two or more subjects are compared: a forward of one
        runs the LSTM step's (1, D) product through another BLAS routine and
        can differ in the last bit.
        """
        preps, dims, store = self.scored_set(n=7)
        whole = tv.score(store, dims, preps)
        sizes = []
        forward = model.forward_batch
        monkeypatch.setattr(model, "forward_batch",
                            lambda *args: sizes.append(len(args[2])) or forward(*args))
        monkeypatch.setattr(tv, "SCORE_STACK_ENTRIES", 3 * len(preps[0].starts) * dims.m ** 2)
        assert tv.score(store, dims, preps) == whole
        assert sizes == [2, 2, 3]


class TestLoadModel:
    @pytest.fixture
    def trained(self, tmp_path):
        rng = np.random.default_rng(21)
        subs = toy_cohort(rng, n=5) + toy_cohort(rng, n=3, t=40)  # two window counts
        cfg = tiny_cfg(epochs=2, streams="d", distance_kind="mahalanobis")
        path = str(tmp_path / "model.ckpt")
        result = tv.train(subs, cfg)
        tv.save_model(path, result.store, result.dims, cfg)
        return subs, cfg, result, path

    def rewrite(self, path, edit):
        """Save the checkpoint at ``path`` again with ``edit`` applied to its header."""
        header, values = dc.load_params(path)
        edit(header)
        dc.save_params(path, dc.ParamStore(values), header)

    def test_scores_bit_identical_to_the_trained_model(self, trained):
        subs, cfg, result, path = trained
        store, dims, loaded_cfg = tv.load_model(path)
        assert (dims, loaded_cfg) == (result.dims, cfg)
        preps = tv.prepare_dataset(subs, loaded_cfg)
        assert tv.score(store, dims, preps) == tv.score(result.store, result.dims, preps)

    def test_header_is_the_resolved_config(self, trained):
        _, cfg, result, path = trained
        header, _ = dc.load_params(path)
        assert header["dims"]["streams"] == ["d"]
        assert header == json.loads(json.dumps(tv.resolved_config(cfg, result.dims)))

    @pytest.mark.parametrize("edit, message", [
        (lambda h: h.pop("train_config"), "KeyError: 'train_config'"),
        (lambda h: h.pop("dims"), "KeyError: 'dims'"),
        (lambda h: h["train_config"].update(epochs=0), "ConfigError: epochs"),
        (lambda h: h["train_config"].update(lr="fast"), "ConfigError: lr"),
        (lambda h: h["train_config"].update(normalize_fc="yes"), "ConfigError: normalize_fc"),
        (lambda h: h["train_config"].update(learning_rate=0.1), "TypeError"),
        (lambda h: h["dims"].update(m=1), "ShapeError: invalid model dims"),
        (lambda h: h["dims"].update(m=6.0), "ShapeError: invalid model dims"),
        (lambda h: h["dims"].pop("n_windows_ref"), "KeyError"),
        (lambda h: h.update(dims=[6]), "TypeError"),
        (lambda h: h.update(train_config=[1]), "TypeError"),
        (lambda h: h["train_config"].pop("ridge_scale"), "disagrees"),
        (lambda h: h["dims"].update(d=5), "disagrees"),
        (lambda h: h["dims"].update(streams=["r", "d"]), "disagrees"),
        (lambda h: h["dims"].update(n_windows_ref=2),
         "'fusion.layer0.temporal.kernel' is (2, 5) in the file but (2, 1) in the model"),
        (lambda h: h["dims"].update(m=7), "'encoder.lstm.w_x' is (6, 24) in the file"),
        (lambda h: (h["train_config"].update(layers=2), h["dims"].update(layers=2)),
         "'cdgin.layer1.d.eps' is absent in the file but () in the model"),
    ])
    def test_bad_header_is_a_parse_error(self, trained, edit, message):
        path = trained[3]
        self.rewrite(path, edit)
        with pytest.raises(ParseError, match="model.ckpt: ") as err:
            tv.load_model(path)
        assert message in str(err.value)

    def test_non_finite_value_blamed_on_the_tensor(self, trained):
        path = trained[3]
        header, values = dc.load_params(path)
        store = dc.ParamStore(values)
        store["classifier.b1"].data[1] = np.inf
        dc.save_params(path, store, header)
        with pytest.raises(ParseError, match=r"non-finite value in 'classifier\.b1'"):
            tv.load_model(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda v: v.pop("classifier.b2"), "'classifier.b2' is absent in the file but (1,)"),
        (lambda v: v.update({"extra.w": np.zeros(2)}), "'extra.w' is (2,) in the file but absent"),
        (lambda v: v.update({"classifier.w2": v["classifier.w2"].T}),
         "'classifier.w2' is (12, 1) in the file but (1, 12)"),
    ])
    def test_malformed_tensors_same_error_from_both_loaders(self, trained, edit, message):
        """``load_model`` and ``load_into`` share one check of a checkpoint's
        tensors: a tensor missing, one too many or one of another shape is
        the same ParseError from both, and ``load_into`` writes nothing."""
        _, _, result, path = trained
        header, values = dc.load_params(path)
        edit(values)
        dc.save_params(path, dc.ParamStore(values), header)
        with pytest.raises(ParseError) as from_model:
            tv.load_model(path)
        store = model.init_params(result.dims, 0)
        before = store.rows()[0].copy()
        with pytest.raises(ParseError) as from_store:
            dc.load_into(store, path)
        assert str(from_model.value) == str(from_store.value)
        assert str(from_model.value) == f"{path}: tensor {message} in the model"
        np.testing.assert_array_equal(store.rows()[0], before)


def toy_cohort(rng, n=8, m=6, t=30, separation=3.0):
    subs = []
    for i in range(n):
        x = rng.standard_normal((t, m))
        label = i % 2
        if label == 1:
            x[:, : m // 2] *= separation
        subs.append(RoiTimeSeries(f"s{i:02d}", x, label))
    return subs


class TestCrossValidate:
    def test_summary_math_from_folds(self):
        reports = [
            tv.EvalReport(auc=0.6, acc=0.6, se=1.0, sp=0.5, tp=1, tn=1, fp=1, fn=0),
            tv.EvalReport(auc=0.8, acc=0.8, se=1.0, sp=0.5, tp=1, tn=1, fp=1, fn=0),
        ]
        summary = tv.summarize_folds(reports)
        assert summary["auc_mean"] == pytest.approx(0.7, abs=1e-12)
        assert summary["auc_std"] == pytest.approx(0.1, abs=1e-12)
        assert summary["se_std"] == 0.0

    def test_summary_all_undefined(self):
        reports = [tv.EvalReport(auc=None, acc=1.0, se=None, sp=1.0,
                                 tp=0, tn=2, fp=0, fn=0)]
        summary = tv.summarize_folds(reports)
        assert summary["auc_mean"] is None and summary["auc_std"] is None
        assert summary["sp_mean"] == 1.0

    def test_fold_runs_and_report_shape(self):
        rng = np.random.default_rng(10)
        subs = toy_cohort(rng)
        cfg = tiny_cfg(epochs=2)
        cv = tv.cross_validate(subs, cfg, k=2, test_fraction=0.25)
        assert [f.fold_index for f in cv.folds] == [0, 1]
        d = tv.cv_report_dict(cv)
        assert {"per_fold", "summary", "split"} <= set(d)
        assert len(d["per_fold"]) == 2
        assert "auc_mean" in d["summary"]

    def test_fold_seeds_differ(self):
        rng = np.random.default_rng(11)
        subs = toy_cohort(rng)
        cfg = tiny_cfg(epochs=2)
        cv = tv.cross_validate(subs, cfg, k=2, test_fraction=0.25)
        logs = [tuple(rec["mean_loss"] for rec in f.epoch_log) for f in cv.folds]
        assert logs[0] != logs[1]  # fold seeds seed+0 and seed+1

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        subs = toy_cohort(rng)
        cfg = tiny_cfg(epochs=2, alpha=0.1)
        d1 = tv.cv_report_dict(tv.cross_validate(subs, cfg, k=2, test_fraction=0.25))
        d2 = tv.cv_report_dict(tv.cross_validate(subs, cfg, k=2, test_fraction=0.25))
        assert d1 == d2

    def test_jobs_match_sequential(self):
        rng = np.random.default_rng(13)
        subs = toy_cohort(rng)
        cfg = tiny_cfg(epochs=2)
        seq = tv.cross_validate(subs, cfg, k=2, test_fraction=0.25)
        par = tv.cross_validate(subs, cfg, k=2, test_fraction=0.25, jobs=2)
        assert tv.cv_report_dict(seq) == tv.cv_report_dict(par)

    def test_jobs_below_one_rejected(self):
        subs = toy_cohort(np.random.default_rng(13))
        with pytest.raises(ConfigError, match="jobs must be >= 1"):
            tv.cross_validate(subs, tiny_cfg(epochs=1), k=2, test_fraction=0.25, jobs=0)

    def test_validation_disjoint_from_training(self):
        rng = np.random.default_rng(14)
        subs = toy_cohort(rng, n=12)
        cfg = tiny_cfg(epochs=1)
        cv = tv.cross_validate(subs, cfg, k=3, test_fraction=0.25)
        for train_ids, val_ids in cv.plan.folds:
            assert not set(train_ids) & set(val_ids)
            assert not set(val_ids) & set(cv.plan.test_ids)
