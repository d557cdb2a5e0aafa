"""Assembled-model tests: parameter layout, forward, loss, gradient check."""

import tracemalloc
import warnings

import numpy as np
import pytest

from cdgl import cdgin, diffcore as dc, dynamic_fc as dfc, fusion_head as fh, model
from cdgl import temporal_encoder as te
from cdgl import train_eval as tv
from cdgl.data_io import RoiTimeSeries, zscore_columns
from cdgl.errors import NumericsError, ShapeError, WindowBudgetError

from composite_layers import (
    clip_min, conv1d_same, div, exp, log, matmul, max_pool, mean_pool, mul, neg, scale,
    sigmoid, softmax, sqrt, sub, take_rows, tanh, transpose)


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


    @pytest.mark.parametrize("bad", [{"m": 1}, {"n_windows_ref": 0}, {"m": 4.0},
                                     {"d": True}, {"streams": ("x",)}])
    def test_invalid_dims_rejected(self, bad):
        with pytest.raises(ShapeError):
            model.ModelDims(**{**dict(m=4, d=4, d_p=4, layers=2, n_windows_ref=4), **bad})

    def test_specs_describe_the_initialized_store(self):
        dims = small_dims(streams=("d",))
        store = model.init_params(dims, seed=0)
        specs = model.param_specs(dims)
        assert sorted(name for name, _, _ in specs) == store.names()
        for name, shape, fans in specs:
            assert store[name].data.shape == shape
            assert (fans is None) == (not store[name].data.any())


def inf_in_window_1():
    x = np.ones((12, 3))
    x[:, 0] = np.arange(12.0)
    x[7, 1] = np.inf
    return x, dfc.WindowSpec(4, 4)


def overflow_from_window_3():
    x = np.random.default_rng(12).standard_normal((40, 6))
    x[20:, 4] *= 1e160  # squares overflow from window 3 (rows 15-24) on
    return x, dfc.WindowSpec(10, 5)


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

    @pytest.mark.parametrize("kind", dfc.DISTANCE_KINDS)
    @pytest.mark.parametrize("normalize_fc", [True, False])
    def test_adjacency_is_that_of_build_fc_pairs(self, kind, normalize_fc):
        """Preparation builds one stream at a time; its graphs are fc-dump's, bit for bit."""
        rng = np.random.default_rng(3)
        x = rng.standard_normal((40, 6)) * rng.uniform(0.5, 20.0, 6) + rng.uniform(-5, 5, 6)
        spec, distance = dfc.WindowSpec(10, 5), dfc.DistanceKind(kind, 0.5)
        p = model.prepare_subject(RoiTimeSeries("s0", x, 1), spec, distance,
                                  normalize_fc=normalize_fc)
        fc = dfc.build_fc_pairs(zscore_columns(x) if normalize_fc else x, spec, distance)
        assert p.starts == fc.starts == [0, 5, 10, 15, 20, 25, 30]
        np.testing.assert_array_equal(p.adjacency["r"], fc.a_r)
        np.testing.assert_array_equal(p.adjacency["d"], fc.a_d)
        np.testing.assert_array_equal(p.encoder_input, zscore_columns(x))

    @pytest.mark.parametrize("data, kind, message, window, shape", [
        (inf_in_window_1, "euclidean", "stream 'r', window 1: non-finite pearson correlation",
         1, (3, 3, 3)),
        (overflow_from_window_3, "euclidean", "stream 'd', window 3: non-finite euclidean "
         "distance", 3, (7, 6, 6)),
        (overflow_from_window_3, "mahalanobis", "stream 'd', window 3: non-finite mahalanobis "
         "covariance", 3, (7, 10, 10))], ids=["r", "d", "d-covariance"])
    def test_numerics_error_names_subject_stream_window(self, data, kind, message, window,
                                                        shape):
        x, spec = data()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # overflow must surface as NumericsError only
            with pytest.raises(NumericsError) as info:
                model.prepare_subject(RoiTimeSeries("sub7", x, 0), spec,
                                      dfc.DistanceKind(kind), normalize_fc=False)
        assert str(info.value).startswith(f"subject 'sub7': {message}")
        assert info.value.shape == shape and info.value.index[0] == window

    @pytest.mark.parametrize("data, kind, normalize_fc", [
        (overflow_from_window_3, "euclidean", True),
        (inf_in_window_1, "euclidean", False),
        (overflow_from_window_3, "euclidean", False),
        (overflow_from_window_3, "mahalanobis", False)],
        ids=["deviation", "r", "d", "d-covariance"])
    def test_error_inside_a_chunk_is_the_subjects_own(self, data, kind, normalize_fc):
        """A bad subject between clean ones of one chunk raises the error it
        raises alone, from the batch and from prepare_dataset."""
        x, spec = data()
        rng = np.random.default_rng(13)
        cohort = [RoiTimeSeries(f"ok{i}", rng.standard_normal(x.shape), 0) for i in range(4)]
        cohort.insert(2, RoiTimeSeries("sub7", x, 1))
        distance = dfc.DistanceKind(kind)
        cfg = tv.TrainConfig(window_size=spec.window_size, stride=spec.stride,
                             distance_kind=kind, normalize_fc=normalize_fc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericsError) as alone:
                model.prepare_subject(cohort[2], spec, distance, normalize_fc=normalize_fc)
            with pytest.raises(NumericsError) as batch:
                model.prepare_batch(cohort, spec, distance, normalize_fc=normalize_fc)
            with pytest.raises(NumericsError) as dataset:
                tv.prepare_dataset(cohort, cfg)
        assert str(batch.value) == str(alone.value)
        assert batch.value.index[0] == 2 and batch.value.index[1:] == alone.value.index
        assert str(dataset.value) == str(alone.value)
        assert (dataset.value.index, dataset.value.shape) == (alone.value.index,
                                                             alone.value.shape)

    def test_first_failing_subject_in_input_order_is_reported(self):
        """Across steps and chunks: the subject that fails first when each is
        prepared alone, in input order, not the first step that fails in a stack."""
        x, spec = overflow_from_window_3()  # fails in stream 'd' on its own
        rng = np.random.default_rng(14)
        late_r = rng.standard_normal((40, 6))
        late_r[7, 1] = np.inf  # fails in stream 'r', which a stack builds first
        longer = np.concatenate([x, rng.standard_normal((5, 6))])
        cfg = tv.TrainConfig(window_size=spec.window_size, stride=spec.stride,
                             normalize_fc=False)
        for bad_d in (x, longer):  # in the chunk of the 'r' failure, and in a later one
            cohort = [RoiTimeSeries("ok0", rng.standard_normal((40, 6)), 0),
                      RoiTimeSeries("bad_d", bad_d, 1), RoiTimeSeries("bad_r", late_r, 0)]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NumericsError, match="^subject 'bad_d': stream 'd'"):
                    tv.prepare_dataset(cohort, cfg)

    @pytest.mark.parametrize("kind, blocks", [("euclidean", 4), ("mahalanobis", 4),
                                              ("manhattan", 6)])
    def test_preparation_holds_one_similarity_stack_and_a_block(self, kind, blocks):
        """One subject at 90 ROIs and 40 windows. Above what it returns, the
        traced peak of preparing it is the float64 (N_w, M, M) similarity
        stack being built, 2.59 MB, plus the temporaries of one block of
        windows: about 3 block sizes (512 KiB each) for the Gram distances
        (centered windows, the Gram matrix and its symmetrized copy), about
        5 for Manhattan (its two pair-difference buffers and gathered sums).
        Computing each kernel over the whole stack at once took 2.3
        (Euclidean), 2.8 (Mahalanobis) and 4.5 (Manhattan) stacks, and fails."""
        ts = RoiTimeSeries("s0", np.random.default_rng(33).standard_normal((230, 90)), 1)
        spec = dfc.WindowSpec(35, 5)
        tracemalloc.start()
        try:
            p = model.prepare_subject(ts, spec, dfc.DistanceKind(kind))
            returned, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n_w, m = len(p.starts), ts.signals.shape[1]
        assert (n_w, m) == (40, 90)
        assert peak - returned < 8 * (n_w * m * m + blocks * dfc.BLOCK_ENTRIES)

    def test_a_stream_left_out_is_not_built(self):
        x = np.random.default_rng(4).standard_normal((40, 6))
        x[:, 4] = 1e160  # a flat ROI far from the others: only its distances overflow
        ts, spec, kind = RoiTimeSeries("s0", x, 0), dfc.WindowSpec(10, 5), dfc.DistanceKind()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = model.prepare_subject(ts, spec, kind, streams=("r",), normalize_fc=False)
            assert set(p.adjacency) == {"r"}
            with pytest.raises(NumericsError, match="subject 's0': stream 'd', window 0"):
                model.prepare_subject(ts, spec, kind, normalize_fc=False)


def long_scan_case():
    """(signals, config, prepared, dims, store) of one subject at the
    long-scan shape: 600 timepoints at 90 ROIs, windows of 30 at stride 10,
    so N_w = 58."""
    x = np.random.default_rng(34).standard_normal((600, 90))
    cfg = tv.TrainConfig(window_size=30, stride=10)
    preps = tv.prepare_dataset([RoiTimeSeries("s0", x, 1)], cfg)
    dims = tv.make_dims(preps, cfg)
    return x, cfg, preps, dims, model.init_params(dims, 0)


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

    def test_graph_holds_three_node_matrices_per_gin_layer_call(self):
        """What a training forward holds for backward, at the long-scan shape.

        One subject of 600 timepoints at 90 ROIs, windows of 30 with stride
        10: N_w = 58, M = 90, D = 16, two streams of two layers, so four GIN
        layer calls. The bytes its graph holds are the traced memory still
        allocated after a graph-building forward, less that after a forward
        on the ``no_grad`` view, which keeps only the outputs both return.
        The bound, in float64 entries, with U = N_w M D one node matrix:

        - the node features, the first layers' input: U;
        - each GIN node update keeps (eps I + A) H, the MLP's tanh output and
          its own output: 3 U per layer call;
        - the LSTM keeps its (T, 4D) gate buffer, its (T + 1, D) cell and
          hidden buffers and the (T, D) tanh of the cell;
        - the rest is window-sized (readout vectors and fusion features, of
          N_w D or N_w M entries) or op records: under U together, measured
          at about U / 2.

        Keeping one more node matrix per layer call, such as
        x = (eps I + A) H W, adds 4 U and fails.
        """
        x, cfg, preps, dims, store = long_scan_case()
        graph_free = store.no_grad()  # built before anything is traced

        def held(params):
            dc.release_buffers()  # node buffers made before the trace would go uncounted
            tracemalloc.start()
            try:
                out = model.forward_batch(params, dims, preps)  # held while measured
                dc.release_buffers()  # frees the pooled buffers that nothing holds
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        retained = held(store) - held(graph_free)
        n_w, t, d = len(preps[0].starts), x.shape[0], dims.d
        calls = len(dims.streams) * dims.layers
        assert (n_w, dims.m, d, calls) == (58, 90, 16, 4)
        node_matrix = n_w * dims.m * d
        lstm = t * 4 * d + 2 * (t + 1) * d + t * d
        assert 8 * 3 * calls * node_matrix < retained
        assert retained <= 8 * ((1 + 3 * calls + 1) * node_matrix + lstm)

    def test_train_step_never_holds_a_float64_adjacency_stack(self):
        """The long-scan subject at B = 1: its prepared stacks are bool, and
        a train step reads them in cache-sized float64 blocks.

        The step's transient bytes are its traced peak over the forward and
        the backward, less what the forward's graph retains for the
        backward. They stay below one float64 (N_w, M, M) stack, 3.76 MB
        here. The step measured is the second one, as in training: the
        first fills the node-buffer pool, and later steps take their node
        matrices from it, so the transient bytes are the backward's other
        arrays and one adjacency block, about 0.9 MB. Converting a whole
        stack to float64 per call adds 3.76 MB and fails. A float64 copy
        that the graph keeps for the backward is retained instead, and
        fails the bound on retained bytes in
        ``test_graph_holds_three_node_matrices_per_gin_layer_call``.
        """
        _, cfg, preps, dims, store = long_scan_case()
        assert all(a.dtype == np.bool_ for a in preps[0].adjacency.values())
        dc.backward(dc.sum_all(model.batch_loss_parts(store, dims, preps, cfg.contrastive())[0]))
        tracemalloc.start()
        try:
            total = model.batch_loss_parts(store, dims, preps, cfg.contrastive())[0]
            retained = tracemalloc.get_traced_memory()[0]
            dc.backward(dc.sum_all(total))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n_w, m = len(preps[0].starts), dims.m
        assert (n_w, m) == (58, 90)
        assert peak - retained < 8 * n_w * m * m

    def test_later_train_steps_allocate_under_the_trim_threshold(self):
        """From its second step on, a long-scan train step allocates less
        than two float64 (N_w, M, M) stacks, 7.5 MB, at its traced peak.

        That is glibc's default heap trim threshold here: twice the largest
        array freed so far, which is preparation's float64 similarity stack.
        A step whose new arrays stay under it never frees enough at once to
        make glibc hand the heap top back and fault it in again next step.
        The node-buffer pool makes this hold: the graph's node matrices are
        about 11 MB, and without the pool a step's traced peak is 14 MB.
        """
        _, cfg, preps, dims, store = long_scan_case()
        dc.release_buffers()

        def step():
            store.zero_grad()
            dc.backward(dc.sum_all(model.batch_loss_parts(store, dims, preps,
                                                          cfg.contrastive())[0]))

        step()
        tracemalloc.start()
        try:
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n_w, m = len(preps[0].starts), dims.m
        assert (n_w, m) == (58, 90)
        assert peak < 2 * 8 * n_w * m * m


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


def readme_batch(n, seed=12):
    """n prepared subjects at the README demo shape (M=10, T=120, windows
    35/25 -> 4 windows) with alternating labels, plus dims and params."""
    cfg = tv.TrainConfig()
    rng = np.random.default_rng(seed)
    subjects = [RoiTimeSeries(f"s{i}", rng.standard_normal((120, 10)), i % 2)
                for i in range(n)]
    preps = tv.prepare_dataset(subjects, cfg)
    dims = tv.make_dims(preps, cfg)
    return cfg, preps, dims, model.init_params(dims, cfg.seed)


def test_op_counts_at_readme_shape(op_names):
    # the batched graph at B = 1, as a batch-1 train step builds it
    cfg, preps, dims, store = readme_batch(1)
    op_names.clear()
    out = model.forward_batch(store, dims, preps)
    n_forward = len(op_names)
    cdgin.contrastive_loss(out.projections["r"], out.projections["d"], cfg.contrastive())
    assert (n_forward, len(op_names) - n_forward) == (29, 1)


def test_batch_of_four_builds_the_graph_of_a_batch_of_one(op_names):
    cfg, preps, dims, store = readme_batch(4)
    sequences = []
    for batch in (preps[:1], preps):
        op_names.clear()
        model.batch_loss_parts(store, dims, batch, cfg.contrastive())
        sequences.append(list(op_names))
    assert sequences[0] == sequences[1]
    assert len(sequences[0]) == 29 + 1 + 3  # forward, contrastive, bce and total


def test_four_fold_lockstep_step_builds_the_graph_of_one_fold(op_names):
    # one train step of four folds' batches of four through one stacked
    # store, against the same step of one fold alone
    cfg, preps, dims, _ = readme_batch(16)
    stacked = dc.ParamStore.stack([model.init_params(dims, seed) for seed in range(4)])
    groups = [[preps[4 * f:4 * f + 4]] for f in range(4)]
    sequences = []
    for store, fold_groups in ((stacked.fold(0), groups[:1]), (stacked, groups)):
        sums = [dict.fromkeys(tv._SUM_KEYS, 0.0) for _ in fold_groups]
        op_names.clear()
        tv._lockstep_step(store, dims, fold_groups, cfg.contrastive(), sums)
        sequences.append(list(op_names))
    assert sequences[0] == sequences[1]
    # forward, contrastive, bce and total, then the step's sum and mean
    assert len(sequences[0]) == 29 + 1 + 3 + 2
    assert sequences[0][-2:] == ["sum", "mul_scalar"]


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


def matvec(m, v):
    """(R, C) matrix times (C,) vector, from matmul and reshapes."""
    return dc.reshape(matmul(m, dc.reshape(v, (-1, 1))), (-1,))


def per_subject_fusion(h_f, p):
    """Oracle: CBAM fusion of one subject's (N_w, C) features, one subject
    at a time; (attended features, channel factors (C,), temporal factors (N_w,))."""
    def mlp(v):
        hidden = tanh(dc.add(matvec(p.chan_w1, v), p.chan_b1))
        return dc.add(matvec(p.chan_w2, hidden), p.chan_b2)

    n_w, c = h_f.data.shape
    cf = sigmoid(dc.add(mlp(max_pool(h_f, axis=0)), mlp(mean_pool(h_f, axis=0))))
    traces = dc.concat([dc.reshape(max_pool(h_f, axis=1), (1, n_w)),
                        dc.reshape(mean_pool(h_f, axis=1), (1, n_w))], axis=0)
    tf = sigmoid(conv1d_same(traces, p.temporal_kernel))
    chan_grid = matmul(dc.const(np.ones((n_w, 1))), dc.reshape(cf, (1, c)))
    temp_grid = matmul(dc.reshape(tf, (n_w, 1)), dc.const(np.ones((1, c))))
    return mul(mul(h_f, chan_grid), temp_grid), cf, tf


def per_subject_classify(h_a_layers, p):
    """Oracle: one subject's classifier over its per-layer (N_w, C) features."""
    pooled = [mean_pool(h_a, axis=0) for h_a in h_a_layers]
    feat = pooled[0] if len(pooled) == 1 else dc.concat(pooled, axis=0)
    hidden = tanh(dc.add(matvec(p.w1, feat), p.b1))
    return sigmoid(dc.reshape(dc.add(matvec(p.w2, hidden), p.b2), ()))


def per_window_forward(store, dims, prep):
    """Oracle: the forward pass built one window at a time.

    (y_hat, projections, channel factors, temporal factors, readout weights)
    with the shapes of :class:`model.SubjectForward`.
    """
    m, d = dims.m, dims.d
    hidden = te.lstm_forward(prep.encoder_input[None], store["encoder.lstm.w_x"],
                             store["encoder.lstm.w_h"], store["encoder.lstm.b"])
    hidden = dc.reshape(hidden, hidden.data.shape[1:])  # the B = 1 batch's (T, D)
    eye = dc.const(np.eye(m))
    ones = dc.const(np.ones((m, 1)))
    w_m_t = transpose(store["encoder.w_m"])
    blocks = []
    for tau in te.window_endpoints(prep.starts, prep.window_size, hidden.data.shape[0]):
        stacked = dc.concat([eye, matmul(ones, take_rows(hidden, [tau]))], axis=1)
        blocks.append(matmul(stacked, w_m_t))

    def stack(vectors):
        return dc.concat([dc.reshape(v, (1, -1)) for v in vectors], axis=0)

    readouts, weights = {}, {}
    for s in dims.streams:
        readouts[s] = [[] for _ in range(dims.layers)]
        weights[s] = [[] for _ in range(dims.layers)]
        for t, h in enumerate(blocks):
            for layer in range(dims.layers):
                p = model.gin_params(store, layer, s)
                mixed = dc.add(scale(h, p.eps),
                               matmul(dc.const(prep.adjacency[s][t]), h))
                hidden1 = tanh(dc.add(matmul(matmul(mixed, p.w), p.mlp_w1),
                                      p.mlp_b1))
                h = dc.add(matmul(hidden1, p.mlp_w2), p.mlp_b2)
                q = matvec(p.w_q, mean_pool(h, axis=0))
                keys = matmul(h, transpose(p.w_k))
                attn = softmax(dc.mul_scalar(matvec(keys, q), 1.0 / np.sqrt(d)))
                readouts[s][layer].append(matvec(transpose(h), attn))
                weights[s][layer].append(attn)

    h_a_layers, channel, temporal = [], [], []
    for layer in range(dims.layers):
        rows = []
        for t in range(len(blocks)):
            parts = [readouts[s][layer][t] for s in dims.streams]
            rows.append(parts[0] if len(parts) == 1 else dc.concat(parts, axis=0))
        h_a, cf, tf = per_subject_fusion(stack(rows), model.cbam_params(store, layer))
        h_a_layers.append(h_a)
        channel.append(cf)
        temporal.append(tf)
    y_hat = per_subject_classify(h_a_layers, model.classifier_params(store))

    def project(vec):
        hid = tanh(dc.add(matvec(store["project.w1"], vec), store["project.b1"]))
        return dc.add(matvec(store["project.w2"], hid), store["project.b2"])

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
                loss = dc.add(loss, dc.sum_all(mul(proj[s], weights[s])))
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
    p.adjacency["d"] = p.adjacency["d"].astype(np.float64)  # bool holds no NaN
    p.adjacency["d"][3, 0, 1] = np.nan
    with pytest.raises(NumericsError) as info:
        model.forward_subject(store, dims, p)
    message = str(info.value)
    assert "subject 's7'" in message and "stream 'd', layer 0, window 3" in message
    assert "op 'gin_node_update'" in message


def test_numerics_error_in_a_batch_names_that_subject():
    rng = np.random.default_rng(16)
    dims = small_dims()
    store = model.init_params(dims, seed=1)
    subjects = [toy_subject(rng, sid=f"s{i}") for i in range(3)]

    preps = [prep(ts) for ts in subjects]
    preps[1].encoder_input[6, 2] = np.nan
    with pytest.raises(NumericsError) as info:
        model.forward_batch(store, dims, preps)
    message = str(info.value)
    assert "subject 's1'" in message and "timepoint 6" in message and "op 'lstm'" in message
    assert "'s0'" not in message and "'s2'" not in message

    preps = [prep(ts) for ts in subjects]
    preps[2].adjacency["r"] = preps[2].adjacency["r"].astype(np.float64)  # bool holds no NaN
    preps[2].adjacency["r"][3, 1, 0] = np.nan
    with pytest.raises(NumericsError) as info:
        model.batch_loss_parts(store, dims, preps, cdgin.ContrastiveConfig())
    message = str(info.value)
    assert "subject 's2'" in message and "stream 'r', layer 0, window 3" in message
    assert "'s0'" not in message and "'s1'" not in message


def test_numerics_error_names_the_window_of_an_overflowing_mlp_pre_activation():
    # tanh maps the overflow to a finite +-1, so only the fused op's check
    # on its pre-activation can see it: one large adjacency entry in window 2
    # of stream 'd' sends one row of that window past the float range once
    # the layer's mlp_w1 is scaled up; every other row stays finite
    rng = np.random.default_rng(19)
    dims = small_dims()
    store = model.init_params(dims, seed=1)
    p = prep(toy_subject(rng, sid="s4"))
    p.adjacency["d"] = p.adjacency["d"].astype(np.float64)  # bool holds no 1e300
    p.adjacency["d"][2, 1, 0] = 1e300
    store["cdgin.layer0.d.mlp.w1"].data[...] *= 1e12
    with pytest.raises(NumericsError) as info:
        model.forward_subject(store, dims, p)
    message = str(info.value)
    assert "subject 's4'" in message and "stream 'd', layer 0, window 2" in message
    assert "MLP pre-activation in op 'gin_node_update'" in message


def test_numerics_error_names_the_subject_of_an_overflowing_channel_mlp(monkeypatch):
    rng = np.random.default_rng(20)
    dims = small_dims()
    store = model.init_params(dims, seed=1)
    preps = [prep(toy_subject(rng, sid=f"s{i}")) for i in range(3)]
    seen = []
    channel_attention = fh.channel_attention
    monkeypatch.setattr(fh, "channel_attention",
                        lambda h_f, p: seen.append(h_f.data) or channel_attention(h_f, p))
    model.forward_batch(store, dims, preps)
    monkeypatch.undo()
    # layer 0's chan.w1 = k * sign(max-pool of subject t) gives t the
    # pre-activation k * sum|max-pool|, and no other subject more than k
    # times the larger of its two pooled L1 norms; k overflows t alone
    pooled = seen[0].max(axis=1), seen[0].mean(axis=1)
    reach = np.abs(pooled[0]).sum(axis=1)
    t = int(np.argmax(reach))
    others = max(np.abs(pool[b]).sum() for pool in pooled for b in range(3) if b != t)
    assert t != 0 and reach[t] > 1.1 * others  # holds for this seed
    store["fusion.layer0.chan.w1"].data[...] = 1.7e308 / others * np.sign(pooled[0][t])
    with pytest.raises(NumericsError) as info:
        model.forward_batch(store, dims, preps)
    message = str(info.value)
    assert f"subject 's{t}'" in message and "'s0'" not in message
    assert "MLP pre-activation in op 'channel_attention'" in message


def test_numerics_error_in_the_head_names_that_subject(monkeypatch):
    """A non-finite classifier pre-activation, cosine or log argument in a
    batch names the subject whose features, projections or probability
    hold it."""
    rng = np.random.default_rng(21)
    dims = small_dims()
    store = model.init_params(dims, seed=1)
    preps = [prep(toy_subject(rng, sid=f"s{i}")) for i in range(3)]
    ccfg = cdgin.ContrastiveConfig()

    def expect_error(subject, what):
        with pytest.raises(NumericsError) as info:
            model.batch_loss_parts(store, dims, preps, ccfg)
        message = str(info.value)
        assert f"subject '{subject}'" in message and what in message
        assert all(f"'s{i}'" not in message for i in range(3) if f"s{i}" != subject)
        monkeypatch.undo()

    apply_attention = fh.apply_attention

    def huge_features(h_f, channel, temporal):  # subject s2's attended features
        out = apply_attention(h_f, channel, temporal).data.copy()
        out[2] = 1e300
        return dc.const(out)

    monkeypatch.setattr(fh, "apply_attention", huge_features)
    monkeypatch.setattr(store["classifier.w1"], "data", 1e10 * store["classifier.w1"].data)
    expect_error("s2", "MLP pre-activation in op 'classify'")

    forward_batch = model.forward_batch

    def planted(projection, probability):
        def forward(*args):
            out = forward_batch(*args)
            z, y = out.projections["d"].data.copy(), out.y_hat.data.copy()
            z[1, 2], y[2] = projection, probability
            out.projections["d"], out.y_hat = dc.const(z), dc.const(y)
            return out
        monkeypatch.setattr(model, "forward_batch", forward)

    planted(1e200, 0.5)  # window 2 of s1: its square overflows
    expect_error("s1", "cosine in op 'contrastive_loss'")
    planted(0.5, np.nan)
    expect_error("s2", "log argument in op 'bce'")


def test_batch_rejects_subjects_with_other_windows():
    rng = np.random.default_rng(17)
    dims = small_dims()
    store = model.init_params(dims, seed=1)
    preps = [prep(toy_subject(rng, sid="a")), prep(toy_subject(rng, t=28, sid="b"))]
    with pytest.raises(ShapeError, match="'b'"):
        model.forward_batch(store, dims, preps)
    assert [[p.subject_id for p in g] for g in model.group_by_windows(preps)] == [["a"], ["b"]]


def per_subject_contrastive(z_r, z_d, cfg):
    """Oracle: one subject's (N_w, P) projections through the masked cosine matrix."""
    z = z_r if z_d is None else dc.concat([z_r, z_d], axis=0)
    k, width = z.data.shape
    negative, weights = cdgin._pair_weights(z_r.data.shape[0], k // z_r.data.shape[0],
                                            cfg.delta)
    sq = matmul(mul(z, z), dc.const(np.ones((width, 1))))
    norms = sqrt(clip_min(sq, cdgin.COSINE_NORM_FLOOR ** 2))
    cos = div(matmul(z, transpose(z)), matmul(norms, transpose(norms)))
    e = exp(cos)
    base = matmul(mul(e, dc.const(negative)), dc.const(np.ones((k, 1))))
    per_pair = sub(log(dc.add(base, e)), cos)
    return dc.sum_all(mul(per_pair, dc.const(weights)))


def per_subject_forward(store, dims, prep):
    """Oracle: one subject's forward on its whole (T, M) input, one subject at a time.

    (y_hat, projections, channel factors, temporal factors, readout weights)
    with the shapes of :class:`model.SubjectForward`.
    """
    hidden = te.lstm_forward(prep.encoder_input[None], store["encoder.lstm.w_x"],
                             store["encoder.lstm.w_h"], store["encoder.lstm.b"])
    feats = te.assemble_node_features(hidden, prep.starts, prep.window_size,
                                      store["encoder.w_m"], dims.m)
    readouts, weights = {}, {}
    for s in dims.streams:
        h, readouts[s], weights[s] = feats, [], []
        for layer in range(dims.layers):
            h, vec, attn = cdgin.gin_layer(h, prep.adjacency[s], model.gin_params(store, layer, s))
            readouts[s].append(vec)
            weights[s].append(attn)
    h_a_layers, channel, temporal = [], [], []
    for layer in range(dims.layers):
        parts = [readouts[s][layer] for s in dims.streams]
        h_f = parts[0] if len(parts) == 1 else dc.concat(parts, axis=1)
        h_a, cf, tf = per_subject_fusion(h_f, model.cbam_params(store, layer))
        h_a_layers.append(h_a)
        channel.append(cf)
        temporal.append(tf)
    y_hat = per_subject_classify(h_a_layers, model.classifier_params(store))
    projections = {s: cdgin.project(readouts[s][-1], store["project.w1"], store["project.b1"],
                                    store["project.w2"], store["project.b2"])
                   for s in dims.streams}
    return y_hat, projections, channel, temporal, weights


def per_subject_total(store, dims, prep, ccfg):
    """Oracle: one subject's bce + alpha * contrastive loss."""
    y_hat, proj, *_ = per_subject_forward(store, dims, prep)
    if prep.label == 1:
        total = neg(log(y_hat))
    else:
        total = neg(log(sub(dc.const(1.0), y_hat)))
    if ccfg.alpha > 0.0:
        z = [proj[s] for s in dims.streams]
        info = per_subject_contrastive(z[0], z[1] if len(z) == 2 else None, ccfg)
        total = dc.add(total, dc.mul_scalar(info, ccfg.alpha))
    return total


def test_batches_match_per_subject_oracle():
    # B from 1 to 6; subject lengths ragged within an N_w group (up to
    # stride - 1 unread rows); every fourth case mixes two N_w, interleaved
    rng = np.random.default_rng(18)
    for case in range(36):
        streams = (("r", "d"), ("r",), ("d",))[case % 3]
        b = 1 + case % 6
        mixed = case % 4 == 3
        m = int(rng.integers(2, 9))
        ws, ss = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        base = int(rng.integers(1, 6))
        n_w = [base + 1 + i % 2 for i in range(b)] if mixed else [base] * b
        preps = []
        for i, n in enumerate(n_w):
            t = ws + (n - 1) * ss + int(rng.integers(0, ss))
            ts = RoiTimeSeries(f"s{i}", rng.standard_normal((t, m)), int(rng.integers(0, 2)))
            preps.append(model.prepare_subject(ts, dfc.WindowSpec(ws, ss),
                                               dfc.DistanceKind("euclidean"), streams=streams))
        dims = model.ModelDims(m=m, d=int(rng.integers(2, 6)), d_p=int(rng.integers(2, 5)),
                               layers=int(rng.integers(1, 3)), n_windows_ref=min(n_w),
                               streams=streams)
        store = model.init_params(dims, seed=case)
        for _, t in store.items():  # leave no epsilon or bias at its zero init
            t.data += 0.3 * rng.standard_normal(t.data.shape)
        ccfg = cdgin.ContrastiveConfig(delta=1, alpha=0.1 if min(n_w) > 1 else 0.0)
        groups = model.group_by_windows(preps)
        assert len(groups) == len(set(n_w))

        store.zero_grad()
        objective = None
        totals = {}
        for group in groups:
            out = model.forward_batch(store, dims, group)
            total = model.batch_loss_parts(store, dims, group, ccfg)[0]
            part = dc.sum_all(total)
            objective = part if objective is None else dc.add(objective, part)
            for j, p in enumerate(group):
                totals[p.subject_id] = total.data[j]
                y_hat, proj, channel, temporal, attn = per_subject_forward(store, dims, p)
                n = len(p.starts)
                got = [out.y_hat.data[j]] + [out.projections[s].data[j] for s in streams]
                got += [f.data[j] for f in out.channel_factors + out.temporal_factors]
                got += [w.data[j * n:(j + 1) * n] for s in streams for w in out.readout_weights[s]]
                expect = [y_hat.data] + [proj[s].data for s in streams]
                expect += [f.data for f in channel + temporal]
                expect += [w.data for s in streams for w in attn[s]]
                for g, e in zip(got, expect, strict=True):
                    assert g.shape == e.shape, case
                    np.testing.assert_allclose(g, e, rtol=0, atol=1e-12, err_msg=str(case))
        dc.backward(objective)
        grads = {name: t.grad.copy() for name, t in store.items()}

        store.zero_grad()
        expect_total = None
        for p in preps:
            total = per_subject_total(store, dims, p, ccfg)
            assert abs(float(total.data) - totals[p.subject_id]) <= 1e-12, case
            expect_total = total if expect_total is None else dc.add(expect_total, total)
        dc.backward(expect_total)
        for name, t in store.items():
            g, ge = grads[name], t.grad
            assert np.all(np.abs(g - ge) <= 1e-9 * np.maximum(np.abs(ge), 1.0)), (case, name)
