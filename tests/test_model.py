"""Assembled-model tests: parameter layout, forward, loss, gradient check."""

import numpy as np
import pytest

from cdgl import cdgin, diffcore as dc, dynamic_fc as dfc, model
from cdgl import train_eval as tv
from cdgl.data_io import RoiTimeSeries
from cdgl.errors import WindowBudgetError


def toy_subject(rng, m=4, t=24, label=1, sid="s0"):
    return RoiTimeSeries(sid, rng.standard_normal((t, m)), label)


def small_dims(streams=("r", "d")):
    return model.ModelDims(m=4, d=4, d_p=4, layers=2, n_windows_ref=4,
                           streams=streams)


def prep(ts, streams=("r", "d")):
    return model.prepare_subject(ts, dfc.WindowSpec(8, 4),
                                 dfc.DistanceKind("euclidean"), streams=streams)


class TestInitParams:
    def test_names_and_shapes(self):
        dims = small_dims()
        store = model.init_params(dims, seed=0)
        assert "cdgin.layer0.r.mlp.w1" in store
        assert "cdgin.layer1.d.readout.w_k" in store
        assert "encoder.lstm.w_x" in store
        assert "fusion.layer0.temporal.kernel" in store
        assert store["cdgin.layer0.r.mlp.w1"].data.shape == (4, 4)
        assert store["encoder.w_m"].data.shape == (4, 8)
        assert store["fusion.layer1.temporal.kernel"].data.shape == (2, 3)
        assert store["classifier.w1"].data.shape == (8, 16)

    def test_epsilon_exactly_zero(self):
        store = model.init_params(small_dims(), seed=5)
        for layer in range(2):
            for s in ("r", "d"):
                assert float(store[f"cdgin.layer{layer}.{s}.eps"].data) == 0.0

    def test_deterministic(self):
        a = model.init_params(small_dims(), seed=7)
        b = model.init_params(small_dims(), seed=7)
        for (n1, p1), (n2, p2) in zip(a.items(), b.items()):
            assert n1 == n2
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_single_stream_params(self):
        store = model.init_params(small_dims(streams=("r",)), seed=0)
        assert "cdgin.layer0.r.w" in store
        assert "cdgin.layer0.d.w" not in store
        assert store["fusion.layer0.chan.w2"].data.shape == (4, 2)


class TestPrepare:
    def test_window_budget(self):
        rng = np.random.default_rng(0)
        ts = toy_subject(rng, t=6)
        with pytest.raises(WindowBudgetError, match="s0"):
            model.prepare_subject(ts, dfc.WindowSpec(8, 4),
                                  dfc.DistanceKind("euclidean"))

    def test_adjacency_streams(self):
        rng = np.random.default_rng(1)
        p = prep(toy_subject(rng))
        assert set(p.adjacency) == {"r", "d"}
        assert len(p.adjacency["r"]) == 5  # (24-8)//4 + 1
        p_r = prep(toy_subject(rng), streams=("r",))
        assert set(p_r.adjacency) == {"r"}

    def test_encoder_input_normalized(self):
        rng = np.random.default_rng(2)
        p = prep(toy_subject(rng))
        np.testing.assert_allclose(p.encoder_input.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(p.encoder_input.std(axis=0, ddof=1), 1.0,
                                   atol=1e-9)


class TestForward:
    def test_probability_and_records(self):
        rng = np.random.default_rng(3)
        dims = small_dims()
        store = model.init_params(dims, seed=1)
        out = model.forward_subject(store, dims, prep(toy_subject(rng)))
        assert 0.0 < float(out.y_hat.data) < 1.0
        assert set(out.projections) == {"r", "d"}
        assert len(out.projections["r"]) == 5
        assert out.projections["r"][0].data.shape == (4,)
        assert len(out.channel_factors) == 2
        assert out.channel_factors[0].data.shape == (8,)
        assert out.temporal_factors[0].data.shape == (5,)
        w = out.readout_weights["d"][1][3]
        assert w.data.shape == (4,)
        assert float(w.data.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_single_stream_forward(self):
        rng = np.random.default_rng(4)
        dims = small_dims(streams=("r",))
        store = model.init_params(dims, seed=1)
        out = model.forward_subject(store, dims, prep(toy_subject(rng), ("r",)))
        assert 0.0 < float(out.y_hat.data) < 1.0
        assert set(out.projections) == {"r"}
        assert out.channel_factors[0].data.shape == (4,)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        ts = toy_subject(rng)
        dims = small_dims()
        store = model.init_params(dims, seed=2)
        y1 = float(model.forward_subject(store, dims, prep(ts)).y_hat.data)
        y2 = float(model.forward_subject(store, dims, prep(ts)).y_hat.data)
        assert y1 == y2


class TestSubjectLoss:
    def test_window_budget_for_contrastive(self):
        rng = np.random.default_rng(6)
        ts = toy_subject(rng, t=8)  # single window under (8, 4)
        dims = small_dims()
        store = model.init_params(dims, seed=0)
        p = prep(ts)
        with pytest.raises(WindowBudgetError, match="s0"):
            model.subject_loss_parts(store, dims, p, cdgin.ContrastiveConfig(delta=1))[0]

    def test_alpha_zero_relaxes_budget(self):
        rng = np.random.default_rng(7)
        ts = toy_subject(rng, t=8)
        dims = small_dims()
        store = model.init_params(dims, seed=0)
        loss = model.subject_loss_parts(store, dims, prep(ts),
                                        cdgin.ContrastiveConfig(delta=1, alpha=0.0))[0]
        assert np.isfinite(float(loss.data))

    def test_alpha_zero_is_pure_bce(self):
        rng = np.random.default_rng(8)
        ts = toy_subject(rng)
        dims = small_dims()
        store = model.init_params(dims, seed=3)
        p = prep(ts)
        out = model.forward_subject(store, dims, p)
        loss0 = model.subject_loss_parts(store, dims, p,
                                         cdgin.ContrastiveConfig(delta=1, alpha=0.0))[0]
        expect = -np.log(float(out.y_hat.data))
        assert float(loss0.data) == pytest.approx(expect, abs=1e-12)

    def test_single_stream_contrastive_runs(self):
        rng = np.random.default_rng(9)
        dims = small_dims(streams=("d",))
        store = model.init_params(dims, seed=4)
        loss = model.subject_loss_parts(store, dims, prep(toy_subject(rng), ("d",)),
                                        cdgin.ContrastiveConfig(delta=1, alpha=0.1))[0]
        dc.backward(loss)
        assert np.isfinite(float(loss.data))


def test_training_step_reduces_loss():
    rng = np.random.default_rng(10)
    ts = toy_subject(rng, label=1)
    dims = small_dims()
    store = model.init_params(dims, seed=5)
    p = prep(ts)
    state = dc.AdamState(lr=5e-3)
    ccfg = cdgin.ContrastiveConfig(delta=1, alpha=0.1)
    losses = []
    for _ in range(15):
        store.zero_grad()
        loss = model.subject_loss_parts(store, dims, p, ccfg)[0]
        dc.backward(loss)
        dc.adam_step(store, state)
        losses.append(float(loss.data))
    assert losses[-1] < losses[0]


def test_model_gradcheck_small():
    rng = np.random.default_rng(11)
    ts = toy_subject(rng, m=4, t=20)
    dims = small_dims()
    store = model.init_params(dims, seed=6)
    p = model.prepare_subject(ts, dfc.WindowSpec(8, 4),
                              dfc.DistanceKind("manhattan"))
    ccfg = cdgin.ContrastiveConfig(delta=1, alpha=0.1)

    def build():
        return model.subject_loss_parts(store, dims, p, ccfg)[0]

    coords = dc.sample_coords(store.items(), 120, np.random.default_rng(0))
    report = dc.finite_diff_check(build, store.items(), coords)
    assert report.n_coords >= 120
    assert report.max_rel_err < 1e-4, (report.worst_param, report.max_rel_err)


def test_op_counts_at_readme_shape(op_names):
    # README demo shape: M=10, T=120, windows 35/25 -> 4 windows, default dims
    cfg = tv.TrainConfig()
    ts = RoiTimeSeries("s0", np.random.default_rng(12).standard_normal((120, 10)), 1)
    preps = tv.prepare_dataset([ts], cfg)
    dims = tv.make_dims(preps, cfg)
    store = model.init_params(dims, cfg.seed)
    op_names.clear()
    out = model.forward_subject(store, dims, preps[0])
    n_forward = len(op_names)
    cdgin.contrastive_loss(out.projections["r"], out.projections["d"], cfg.contrastive())
    assert (n_forward, len(op_names) - n_forward) == (424, 19)
