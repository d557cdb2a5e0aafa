"""Assembled-model tests: parameter layout, forward, loss, gradient check."""

import numpy as np
import pytest

from cdgl import cdgin, diffcore as dc, dynamic_fc as dfc, fusion_head as fh, model
from cdgl import temporal_encoder as te
from cdgl import train_eval as tv
from cdgl.data_io import RoiTimeSeries
from cdgl.errors import NumericsError, WindowBudgetError


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
        assert p.adjacency["r"].shape == (5, 4, 4)  # (24-8)//4 + 1 windows
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
        assert out.projections["r"].data.shape == (5, 4)  # one row per window
        assert len(out.channel_factors) == 2
        assert out.channel_factors[0].data.shape == (8,)
        assert out.temporal_factors[0].data.shape == (5,)
        assert len(out.readout_weights["d"]) == 2  # one (N_w, M) matrix per layer
        w = out.readout_weights["d"][1]
        assert w.data.shape == (5, 4)
        np.testing.assert_allclose(w.data.sum(axis=1), 1.0, atol=1e-12)

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
    assert (n_forward, len(op_names) - n_forward) == (186, 18)


def test_forward_op_count_independent_of_window_count(op_names):
    # README shape (M=10, T=120, 35/25 -> 4 windows) and the long-scan shape
    # (M=90, T=600, 30/10 -> 58 windows) build the same graph
    counts = []
    for m, t, ws, ss in ((10, 120, 35, 25), (90, 600, 30, 10)):
        cfg = tv.TrainConfig(window_size=ws, stride=ss)
        ts = RoiTimeSeries("s0", np.random.default_rng(13).standard_normal((t, m)), 1)
        preps = tv.prepare_dataset([ts], cfg)
        dims = tv.make_dims(preps, cfg)
        store = model.init_params(dims, cfg.seed)
        op_names.clear()
        model.forward_subject(store, dims, preps[0])
        counts.append((len(preps[0].starts), list(op_names)))
    assert [n for n, _ in counts] == [4, 58]
    assert counts[0][1] == counts[1][1]
    assert len(counts[0][1]) <= 200


def per_window_forward(store, dims, prep):
    """Oracle: the forward pass built one window at a time.

    (y_hat, projections, channel factors, temporal factors, readout weights)
    with the shapes of :class:`model.SubjectForward`.
    """
    m, d = dims.m, dims.d
    hidden = te.lstm_forward(prep.encoder_input, store["encoder.lstm.w_x"],
                             store["encoder.lstm.w_h"], store["encoder.lstm.b"])
    eye = dc.const(np.eye(m))
    ones = dc.const(np.ones((m, 1)))
    w_m_t = dc.transpose(store["encoder.w_m"])
    blocks = []
    for tau in te.window_endpoints(prep.starts, prep.window_size, hidden.data.shape[0]):
        stacked = dc.concat([eye, dc.matmul(ones, dc.take_rows(hidden, [tau]))], axis=1)
        blocks.append(dc.matmul(stacked, w_m_t))

    def stack(vectors):
        return dc.concat([dc.reshape(v, (1, -1)) for v in vectors], axis=0)

    readouts, weights = {}, {}
    for s in dims.streams:
        readouts[s] = [[] for _ in range(dims.layers)]
        weights[s] = [[] for _ in range(dims.layers)]
        for t, h in enumerate(blocks):
            for layer in range(dims.layers):
                p = model.gin_params(store, layer, s)
                mixed = dc.add(dc.scale(h, p.eps),
                               dc.matmul(dc.const(prep.adjacency[s][t]), h))
                hidden1 = dc.tanh(dc.add(dc.matmul(dc.matmul(mixed, p.w), p.mlp_w1),
                                         p.mlp_b1))
                h = dc.add(dc.matmul(hidden1, p.mlp_w2), p.mlp_b2)
                q = dc.matvec(p.w_q, dc.mean_pool(h, axis=0))
                keys = dc.matmul(h, dc.transpose(p.w_k))
                attn = dc.softmax(dc.mul_scalar(dc.matvec(keys, q), 1.0 / np.sqrt(d)))
                readouts[s][layer].append(dc.matvec(dc.transpose(h), attn))
                weights[s][layer].append(attn)

    h_a_layers, channel, temporal = [], [], []
    for layer in range(dims.layers):
        rows = []
        for t in range(len(blocks)):
            parts = [readouts[s][layer][t] for s in dims.streams]
            rows.append(parts[0] if len(parts) == 1 else dc.concat(parts, axis=0))
        h_f = stack(rows)
        p = model.cbam_params(store, layer)
        cf, tf = fh.channel_attention(h_f, p), fh.temporal_attention(h_f, p)
        h_a_layers.append(fh.apply_attention(h_f, cf, tf))
        channel.append(cf)
        temporal.append(tf)
    y_hat = fh.classify(h_a_layers, model.classifier_params(store))

    def project(vec):
        hid = dc.tanh(dc.add(dc.matvec(store["project.w1"], vec), store["project.b1"]))
        return dc.add(dc.matvec(store["project.w2"], hid), store["project.b2"])

    projections = {s: stack([project(v) for v in readouts[s][-1]]) for s in dims.streams}
    return (y_hat, projections, channel, temporal,
            {s: [stack(per_layer) for per_layer in weights[s]] for s in dims.streams})


def test_matches_per_window_oracle():
    rng = np.random.default_rng(14)
    for case in range(60):
        streams = (("r", "d"), ("r",), ("d",))[case % 3]
        m = int(rng.integers(2, 13))
        n_w = int(rng.integers(1, 9))
        ws, ss = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        dims = model.ModelDims(m=m, d=int(rng.integers(2, 7)), d_p=int(rng.integers(2, 6)),
                               layers=int(rng.integers(1, 4)), n_windows_ref=n_w,
                               streams=streams)
        ts = RoiTimeSeries("s0", rng.standard_normal((ws + (n_w - 1) * ss, m)), 1)
        p = model.prepare_subject(ts, dfc.WindowSpec(ws, ss), dfc.DistanceKind("euclidean"),
                                  streams=streams)
        store = model.init_params(dims, seed=case)
        for _, t in store.items():  # leave no epsilon or bias at its zero init
            t.data += 0.3 * rng.standard_normal(t.data.shape)
        weights = {s: dc.const(rng.standard_normal((n_w, dims.d_p))) for s in streams}

        def run(forward):
            store.zero_grad()
            y_hat, proj, channel, temporal, attn = forward(store, dims, p)
            loss = y_hat
            for s in streams:  # a scalar that every projection entry feeds
                loss = dc.add(loss, dc.sum_all(dc.mul(proj[s], weights[s])))
            dc.backward(loss)
            values = [y_hat, *channel, *temporal]
            values += [proj[s] for s in streams] + [a for s in streams for a in attn[s]]
            return ([v.data.copy() for v in values],
                    {n: t.grad.copy() for n, t in store.items()})

        def batched(store, dims, prep):
            out = model.forward_subject(store, dims, prep)
            return (out.y_hat, out.projections, out.channel_factors, out.temporal_factors,
                    out.readout_weights)

        values, grads = run(batched)
        expect, expect_grads = run(per_window_forward)
        for v, e in zip(values, expect):
            assert v.shape == e.shape, case
            np.testing.assert_allclose(v, e, rtol=0, atol=1e-12, err_msg=str(case))
        for name, g in grads.items():
            ge = expect_grads[name]
            assert np.all(np.abs(g - ge) <= 1e-9 * np.maximum(np.abs(ge), 1.0)), (case, name)


def test_numerics_error_names_subject_stream_layer_window():
    rng = np.random.default_rng(15)
    dims = small_dims()
    store = model.init_params(dims, seed=1)
    p = prep(toy_subject(rng, sid="s7"))
    p.adjacency["d"][3, 0, 1] = np.nan
    with pytest.raises(NumericsError) as info:
        model.forward_subject(store, dims, p)
    message = str(info.value)
    assert "subject 's7'" in message and "stream 'd', layer 0, window 3" in message
    assert "op 'bmm'" in message
