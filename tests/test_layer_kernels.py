"""Fused layer kernels against their op-by-op oracle in ``composite_layers``.

Each of ``temporal_encoder.assemble_node_features``,
``cdgin.gin_node_update``, ``attention_readout``, ``project`` and
``contrastive_loss``, and ``fusion_head.channel_attention``,
``temporal_attention``, ``apply_attention``, ``classify`` and ``bce`` is
one autodiff op. On random shapes its values must equal the composite's
bit for bit and its gradients, for every input and parameter, agree
within 1e-9 of max(|g|, 1); each also passes central finite differences.
With parameters on a fold axis, the GIN node update and readout must
equal the composite run on each fold's block, and the node features,
projection and classifier the composite given the same stacks. Every
fused op, ``diffcore.lstm`` too, must leave its forward's arrays intact
in its adjoint. The oracle's own primitives are finite-difference tested
here too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdgl import cdgin
from cdgl import diffcore as dc
from cdgl import fusion_head as fh
from cdgl import temporal_encoder as te
from cdgl.errors import NumericsError, ShapeError

import composite_layers as oracle
from test_diffcore import check_op, rmat


def gin_case(rng, integer=False, shape=None):
    """Random (h_in, adjacency stack, params): B*N_w 1-8, M 1-12, D 1-16
    unless ``shape`` gives (B*N_w, M, D); symmetric 0/1 adjacencies, as
    ``gin_node_update`` requires, bool or float64 at random; nonzero eps and
    biases."""
    n, m, d = shape or (int(rng.integers(1, 9)), int(rng.integers(1, 13)),
                        int(rng.integers(1, 17)))
    upper = np.triu(rng.random((n, m, m)) < 0.4)
    a = upper | upper.transpose(0, 2, 1)
    if rng.random() < 0.5:
        a = a.astype(float)
    h = rng.integers(-2, 3, (n * m, d)).astype(float) if integer \
        else rng.standard_normal((n * m, d))
    w = 0.5 / np.sqrt(d)
    p = cdgin.GinLayerParams(
        eps=dc.param(rng.uniform(-1.0, 1.0)),
        w=dc.param(w * rng.standard_normal((d, d))),
        mlp_w1=dc.param(w * rng.standard_normal((d, d))),
        mlp_b1=dc.param(0.3 * rng.standard_normal(d)),
        mlp_w2=dc.param(w * rng.standard_normal((d, d))),
        mlp_b2=dc.param(0.3 * rng.standard_normal(d)),
        w_q=dc.param(w * rng.standard_normal((d, d))),
        w_k=dc.param(w * rng.standard_normal((d, d))))
    return dc.param(h), a, p


def gin_leaves(h, p):
    return [("h", h), ("eps", p.eps), ("w", p.w), ("mlp_w1", p.mlp_w1),
            ("mlp_b1", p.mlp_b1), ("mlp_w2", p.mlp_w2), ("mlp_b2", p.mlp_b2)]


def stacked_gin_case(rng, folds, shape=None):
    """F random gin cases of one shape, as ((h_in, adjacency stack, params)
    per fold, the fold-stacked case): rows and adjacencies fold-major, and
    every parameter on a leading fold axis."""
    shape = shape or (int(rng.integers(1, 6)), int(rng.integers(1, 11)),
                      int(rng.integers(1, 13)))
    blocks = [gin_case(rng, shape=shape) for _ in range(folds)]
    h = dc.param(np.concatenate([hb.data for hb, _, _ in blocks]))
    a = np.concatenate([ab for _, ab, _ in blocks])
    p = cdgin.GinLayerParams(**{
        name: dc.param(np.stack([getattr(pb, name).data for _, _, pb in blocks]))
        for name in cdgin.GinLayerParams.__dataclass_fields__})
    return blocks, (h, a, p)


def readout_case(h, a, p):
    """(leaves, arguments) of the readout over a gin case's node rows."""
    nodes = dc.param(h.data.reshape(a.shape[0], a.shape[1], -1))
    return [("h", nodes), ("w_q", p.w_q), ("w_k", p.w_k)], (nodes, p.w_q, p.w_k)


def cbam_case(rng, integer=False):
    """Random (h_f, params): B 1-4 subjects of N_w 1-8 windows, C = streams * D
    channels for one or two streams and D 1-16, nonzero biases."""
    b, n_w = int(rng.integers(1, 5)), int(rng.integers(1, 9))
    c = int(rng.integers(1, 3)) * int(rng.integers(1, 17))
    r = max(1, c // fh.CHANNEL_REDUCTION)
    w_k = fh.temporal_kernel_width(n_w)
    h = rng.integers(-2, 3, (b, n_w, c)).astype(float) if integer \
        else rng.standard_normal((b, n_w, c))
    p = fh.CbamLayerParams(
        chan_w1=dc.param(rng.standard_normal((r, c)) / np.sqrt(c)),
        chan_b1=dc.param(0.3 * rng.standard_normal(r)),
        chan_w2=dc.param(rng.standard_normal((c, r)) / np.sqrt(r)),
        chan_b2=dc.param(0.3 * rng.standard_normal(c)),
        temporal_kernel=dc.param(0.5 * rng.standard_normal((2, w_k))))
    return dc.param(h), p


def cbam_leaves(h, p):
    return [("h", h), ("chan_w1", p.chan_w1), ("chan_b1", p.chan_b1),
            ("chan_w2", p.chan_w2), ("chan_b2", p.chan_b2),
            ("kernel", p.temporal_kernel)]


def values_and_grads(build, leaves, weights):
    """The outputs of ``build()`` and every leaf's gradient of the sum of the
    first output (the later ones are records) weighted by ``weights``: an
    array, or the seed of a standard normal draw."""
    for _, t in leaves:
        t.grad = None
    outs = build()
    if np.ndim(weights) == 0:
        weights = np.random.default_rng(weights).standard_normal(outs[0].data.shape)
    dc.backward(dc.sum_all(oracle.mul(outs[0], dc.const(weights))))
    grads = {name: np.zeros_like(t.data) if t.grad is None else t.grad.copy()
             for name, t in leaves}
    return [o.data.copy() for o in outs], grads


def assert_matches_oracle(fused, composite, leaves, case):
    values, grads = values_and_grads(fused, leaves, case)
    expect, expect_grads = values_and_grads(composite, leaves, case)
    for v, e in zip(values, expect, strict=True):
        assert v.shape == e.shape, case
        assert np.array_equal(v, e), (case, np.abs(v - e).max())
    for name, g in grads.items():
        ge = expect_grads[name]
        assert np.all(np.abs(g - ge) <= 1e-9 * np.maximum(np.abs(ge), 1.0)), (case, name)


def assert_matches_oracle_per_fold(fused, composite, stacked, blocks, case):
    """``fused(*stacked)`` against ``composite`` run on each fold's block:
    ``stacked`` and every entry of ``blocks`` are (leaves, args), with each
    leaf's rows or parameter entries fold-major in ``stacked``."""
    leaves, args = stacked
    values, grads = values_and_grads(lambda: fused(*args), leaves, case)
    weights = np.random.default_rng(case).standard_normal(values[0].shape)
    folds = len(blocks)
    for f, (block_leaves, block_args) in enumerate(blocks):
        def fold(x):  # fold f's share of a fold-major array
            return np.split(x, folds)[f]

        expect, expect_grads = values_and_grads(lambda: composite(*block_args),
                                                block_leaves, fold(weights))
        for v, e in zip(values, expect, strict=True):
            assert np.array_equal(fold(v), e), (case, f, np.abs(fold(v) - e).max())
        for name, ge in expect_grads.items():
            g = fold(grads[name]).reshape(ge.shape)
            assert np.all(np.abs(g - ge) <= 1e-9 * np.maximum(np.abs(ge), 1.0)), \
                (case, f, name)


def assert_finite_differences(build, leaves):
    weights = np.random.default_rng(0).standard_normal(build().data.shape)

    def loss():
        return dc.sum_all(oracle.mul(build(), dc.const(weights)))

    coords = {name: np.arange(t.data.size) for name, t in leaves}
    report = dc.finite_diff_check(loss, leaves, coords)
    assert report.max_rel_err < 1e-5, (report.worst_param, report.max_rel_err)


class TestGinNodeUpdate:
    @pytest.mark.parametrize("integer", [False, True])
    def test_matches_oracle(self, integer):
        rng = np.random.default_rng(1 + integer)
        for case in range(60):
            h, a, p = gin_case(rng, integer)
            assert_matches_oracle(lambda: [cdgin.gin_node_update(h, a, p)],
                                  lambda: [oracle.gin_node_update(h, a, p)],
                                  gin_leaves(h, p), case)

    def test_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(4):
            h, a, p = gin_case(rng)
            assert_finite_differences(lambda: cdgin.gin_node_update(h, a, p), gin_leaves(h, p))

    def test_fold_stacked_matches_oracle_per_fold(self):
        rng = np.random.default_rng(24)
        for case in range(30):
            blocks, (h, a, p) = stacked_gin_case(rng, folds=int(rng.integers(2, 4)))
            assert_matches_oracle_per_fold(
                lambda *args: [cdgin.gin_node_update(*args)],
                lambda *args: [oracle.gin_node_update(*args)],
                (gin_leaves(h, p), (h, a, p)),
                [(gin_leaves(hb, pb), (hb, ab, pb)) for hb, ab, pb in blocks], case)

    def test_fold_stacked_finite_differences(self):
        _, (h, a, p) = stacked_gin_case(np.random.default_rng(25), folds=3, shape=(2, 5, 4))
        assert_finite_differences(lambda: cdgin.gin_node_update(h, a, p), gin_leaves(h, p))

    def test_constant_input_gets_no_gradient(self):
        h, a, p = gin_case(np.random.default_rng(4))
        h = dc.const(h.data)
        out = cdgin.gin_node_update(h, a, p)
        assert h not in [t for t, _ in out._backward(np.ones_like(out.data))]


class TestAttentionReadout:
    def test_matches_oracle(self):
        rng = np.random.default_rng(5)
        for case in range(60):
            h, a, p = gin_case(rng)
            n, m = a.shape[:2]
            nodes = dc.param(h.data.reshape(n, m, -1))
            leaves = [("h", nodes), ("w_q", p.w_q), ("w_k", p.w_k)]
            assert_matches_oracle(lambda: cdgin.attention_readout(nodes, p.w_q, p.w_k),
                                  lambda: oracle.attention_readout(nodes, p.w_q, p.w_k),
                                  leaves, case)

    def test_fold_stacked_matches_oracle_per_fold(self):
        rng = np.random.default_rng(26)
        for case in range(30):
            blocks, stacked = stacked_gin_case(rng, folds=int(rng.integers(2, 4)))
            assert_matches_oracle_per_fold(
                cdgin.attention_readout, oracle.attention_readout, readout_case(*stacked),
                [readout_case(*block) for block in blocks], case)

    def test_fold_stacked_finite_differences(self):
        _, stacked = stacked_gin_case(np.random.default_rng(27), folds=3, shape=(2, 5, 4))
        leaves, args = readout_case(*stacked)
        assert_finite_differences(lambda: cdgin.attention_readout(*args)[0], leaves)

    def test_weights_are_a_constant_record(self):
        h, a, p = gin_case(np.random.default_rng(6))
        nodes = dc.param(h.data.reshape(a.shape[0], a.shape[1], -1))
        _, weights = cdgin.attention_readout(nodes, p.w_q, p.w_k)
        assert not weights.requires_grad
        np.testing.assert_allclose(weights.data.sum(axis=1), 1.0, atol=1e-15)

    def test_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(4):
            h, a, p = gin_case(rng)
            nodes = dc.param(h.data.reshape(a.shape[0], a.shape[1], -1))
            assert_finite_differences(lambda: cdgin.attention_readout(nodes, p.w_q, p.w_k)[0],
                                      [("h", nodes), ("w_q", p.w_q), ("w_k", p.w_k)])


class TestGinLayer:
    def test_matches_oracle(self):
        rng = np.random.default_rng(8)
        for case in range(30):
            h, a, p = gin_case(rng)
            leaves = gin_leaves(h, p) + [("w_q", p.w_q), ("w_k", p.w_k)]

            def through(layer):  # the loss reads the node output and the readout
                h_out, readout, weights = layer(h, a, p)
                return [dc.add(dc.sum_all(h_out), dc.sum_all(oracle.tanh(readout))), h_out,
                        readout, weights]

            assert_matches_oracle(lambda: through(cdgin.gin_layer),
                                  lambda: through(oracle.gin_layer), leaves, case)

    def test_one_layer_call_is_three_ops(self, op_names):
        h, a, p = gin_case(np.random.default_rng(9))
        cdgin.gin_layer(h, a, p)
        assert op_names == ["gin_node_update", "reshape", "attention_readout"]


class TestCbam:
    @pytest.mark.parametrize("integer", [False, True])
    def test_channel_attention_matches_oracle(self, integer):
        # integer features tie often: the max-pool gradient must go to the
        # first window holding the maximum, as the oracle's max_pool does
        rng = np.random.default_rng(10 + integer)
        for case in range(60):
            h, p = cbam_case(rng, integer)
            assert_matches_oracle(lambda: [fh.channel_attention(h, p)],
                                  lambda: [oracle.channel_attention(h, p)],
                                  cbam_leaves(h, p)[:5], case)

    @pytest.mark.parametrize("integer", [False, True])
    def test_temporal_attention_matches_oracle(self, integer):
        rng = np.random.default_rng(12 + integer)
        for case in range(60):
            h, p = cbam_case(rng, integer)
            leaves = [cbam_leaves(h, p)[0], cbam_leaves(h, p)[5]]
            assert_matches_oracle(lambda: [fh.temporal_attention(h, p)],
                                  lambda: [oracle.temporal_attention(h, p)], leaves, case)

    def test_apply_attention_matches_oracle(self):
        rng = np.random.default_rng(14)
        for case in range(60):
            h, _ = cbam_case(rng)
            b, n_w, c = h.data.shape
            cf = dc.param(rng.uniform(0.05, 0.95, (b, c)))
            tf = dc.param(rng.uniform(0.05, 0.95, (b, n_w)))
            assert_matches_oracle(lambda: [fh.apply_attention(h, cf, tf)],
                                  lambda: [oracle.apply_attention(h, cf, tf)],
                                  [("h", h), ("cf", cf), ("tf", tf)], case)

    def test_fusion_layer_matches_oracle(self):
        # h_f reaches the loss three ways: both factors and the gated features
        rng = np.random.default_rng(15)
        for case in range(30):
            h, p = cbam_case(rng)

            def layer(channel, temporal, apply):
                return [apply(h, channel(h, p), temporal(h, p))]

            assert_matches_oracle(
                lambda: layer(fh.channel_attention, fh.temporal_attention, fh.apply_attention),
                lambda: layer(oracle.channel_attention, oracle.temporal_attention,
                              oracle.apply_attention),
                cbam_leaves(h, p), case)

    def test_finite_differences(self):
        rng = np.random.default_rng(16)
        for _ in range(4):
            h, p = cbam_case(rng)
            b, n_w, c = h.data.shape
            leaves = cbam_leaves(h, p)
            assert_finite_differences(lambda: fh.channel_attention(h, p), leaves[:5])
            assert_finite_differences(lambda: fh.temporal_attention(h, p),
                                      [leaves[0], leaves[5]])
            cf = dc.param(rng.uniform(0.05, 0.95, (b, c)))
            tf = dc.param(rng.uniform(0.05, 0.95, (b, n_w)))
            assert_finite_differences(lambda: fh.apply_attention(h, cf, tf),
                                      [("h", h), ("cf", cf), ("tf", tf)])

    def test_one_fusion_layer_is_three_ops(self, op_names):
        h, p = cbam_case(np.random.default_rng(17))
        fh.apply_attention(h, fh.channel_attention(h, p), fh.temporal_attention(h, p))
        assert op_names == ["channel_attention", "temporal_attention", "apply_attention"]


def mlp_params(rng, folds, n_in, hidden, n_out):
    """Weights and biases of a two-layer MLP, on a fold axis when folds > 1."""
    lead = (folds,) if folds > 1 else ()
    return (dc.param(rng.standard_normal((*lead, hidden, n_in)) / np.sqrt(n_in)),
            dc.param(0.3 * rng.standard_normal((*lead, hidden))),
            dc.param(rng.standard_normal((*lead, n_out, hidden)) / np.sqrt(hidden)),
            dc.param(0.3 * rng.standard_normal((*lead, n_out))))


def named(*tensors):
    return [(str(i), t) for i, t in enumerate(tensors) if t is not None]


def project_case(rng):
    """(rows, w1, b1, w2, b2): 1-3 folds of 1-8 rows each, D 1-16, P 1-8."""
    folds, d, p = int(rng.integers(1, 4)), int(rng.integers(1, 17)), int(rng.integers(1, 9))
    h = dc.param(rng.standard_normal((folds * int(rng.integers(1, 9)), d)))
    return (h, *mlp_params(rng, folds, d, p, p))


def contrastive_case(rng, zero_rows=False, scale=None):
    """(z_r, z_d or None, config): B 1-4 subjects, N_w 2-8, P 1-6, projections
    of magnitude ``scale``, or 1e-3 to 1e2 at random; if ``zero_rows``, some
    rows are zero and some nonzero but under COSINE_NORM_FLOOR."""
    b, n, width = int(rng.integers(1, 5)), int(rng.integers(2, 9)), int(rng.integers(1, 7))
    scale = 10.0 ** rng.uniform(-3, 2) if scale is None else scale

    def stack():
        z = scale * rng.standard_normal((b, n, width))
        if zero_rows:
            pick = rng.random((b, n))
            z[pick < 0.1] = 0.0
            z[pick > 0.9] = rng.uniform(-1e-14, 1e-14, (np.count_nonzero(pick > 0.9), width))
        return dc.param(z)

    z_d = stack() if rng.random() < 0.7 else None
    return stack(), z_d, cdgin.ContrastiveConfig(delta=int(rng.integers(1, n)))


def classify_case(rng):
    """(per-layer (B, N_w, C) features, params): 1-3 layers and 1-3 folds."""
    folds, layers = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    b, n_w, c = folds * int(rng.integers(1, 4)), int(rng.integers(1, 9)), int(rng.integers(1, 17))
    h_a = [dc.param(rng.standard_normal((b, n_w, c))) for _ in range(layers)]
    return h_a, fh.ClassifierParams(*mlp_params(rng, folds, layers * c, 2 * c, 1))


def bce_case(rng, saturated=False):
    """(probabilities, labels) of 1-6 subjects; exact 0s and 1s if ``saturated``."""
    b = int(rng.integers(1, 7))
    p = rng.uniform(0.05, 0.95, b)
    if saturated:
        p[rng.random(b) < 0.4] = rng.integers(0, 2)
    return dc.param(p), rng.integers(0, 2, b).astype(float)


def assemble_case(rng):
    """(hidden, starts, window size, W_M, M): 1-3 folds of 1-3 sequences of
    T 4-20, D 1-8, M 1-8 and windows at a random size and stride."""
    folds, t = int(rng.integers(1, 4)), int(rng.integers(4, 21))
    d, m = int(rng.integers(1, 9)), int(rng.integers(1, 9))
    size = int(rng.integers(1, t + 1))
    starts = list(range(0, t - size + 1, int(rng.integers(1, 6))))
    hidden = dc.param(rng.standard_normal((folds * int(rng.integers(1, 4)), t, d)))
    lead = (folds,) if folds > 1 else ()
    return hidden, starts, size, dc.param(rng.standard_normal((*lead, d, m + d))), m


HEAD_OPS = {  # fused op, its composite, a case and the case's leaves
    "assemble_node_features": (te.assemble_node_features, oracle.assemble_node_features,
                               assemble_case, lambda c: named(c[0], c[3])),
    "project": (cdgin.project, oracle.project, project_case, lambda c: named(*c)),
    "contrastive_loss": (cdgin.contrastive_loss, oracle.contrastive_loss, contrastive_case,
                         lambda c: named(c[0], c[1])),
    "classify": (fh.classify, oracle.classify, classify_case,
                 lambda c: named(*c[0], c[1].w1, c[1].b1, c[1].w2, c[1].b2)),
    "bce": (fh.bce, oracle.bce, lambda rng: bce_case(rng, saturated=True),
            lambda c: named(c[0])),
}


class TestHeadOps:
    """The node features and the loss head, one fused op each."""

    @pytest.mark.parametrize("op", list(HEAD_OPS))
    def test_matches_oracle(self, op):
        fused, composite, make_case, leaves = HEAD_OPS[op]
        rng = np.random.default_rng(sorted(HEAD_OPS).index(op))
        for case in range(60):
            args = make_case(rng)
            assert_matches_oracle(lambda: [fused(*args)], lambda: [composite(*args)],
                                  leaves(args), case)

    @pytest.mark.parametrize("op", list(HEAD_OPS))
    def test_finite_differences(self, op):
        fused, _, make_case, leaves = HEAD_OPS[op]
        rng = np.random.default_rng(40 + sorted(HEAD_OPS).index(op))
        # finite differences need smooth cases: no floors, no tiny projections
        cases = {"contrastive_loss": lambda rng: contrastive_case(rng, scale=1.0),
                 "bce": bce_case}
        for _ in range(4):
            args = cases.get(op, make_case)(rng)
            assert_finite_differences(lambda: fused(*args), leaves(args))

    def test_rows_under_the_norm_floor_match_the_oracle(self):
        """A row under COSINE_NORM_FLOOR has its norm taken as the floor, and
        no gradient through it. Its cosine gradient is then the sum over
        the other rows divided by the floor, so roundoff in that sum reaches
        1e12 times its size, in the oracle and the fused op alike: gradients
        are compared to 1e-9 of the largest in each tensor."""
        rng = np.random.default_rng(35)
        for case in range(60):
            args = contrastive_case(rng, zero_rows=True)
            leaves = named(args[0], args[1])
            values, grads = values_and_grads(lambda: [cdgin.contrastive_loss(*args)],
                                             leaves, case)
            expect, expect_grads = values_and_grads(
                lambda: [oracle.contrastive_loss(*args)], leaves, case)
            assert np.array_equal(values[0], expect[0]), case
            for name, g in grads.items():
                ge = expect_grads[name]
                assert np.all(np.abs(g - ge) <= 1e-9 * max(np.abs(ge).max(), 1.0)), (case, name)

    def test_a_step_is_one_op_each(self, op_names):
        rng = np.random.default_rng(29)
        for op, (fused, _, make_case, _) in HEAD_OPS.items():
            op_names.clear()
            fused(*make_case(rng))
            assert op_names == [op]

    def test_saturated_classifier_gives_the_floored_bce_and_no_gradient(self):
        """Logits of +800 and -800 make probabilities of exactly 1 and 0.
        Against the wrong labels, each BCE is -log(LOG_FLOOR), about 27.6,
        and its gradient is 0; against the right labels, each is 0 and its
        gradient is -(2y - 1) / a, with the log's argument a = 1. Either way
        the saturated sigmoid passes no gradient to the classifier."""
        h_a = dc.param(np.array([1.0, -1.0]).reshape(2, 1, 1))
        p = fh.ClassifierParams(dc.param([[100.0]]), dc.param([0.0]),  # tanh(+-100) = +-1
                                dc.param([[800.0]]), dc.param([0.0]))
        leaves = (h_a, p.w1, p.b1, p.w2, p.b2)
        floored = -np.log(dc.LOG_FLOOR)
        assert floored == pytest.approx(27.631, abs=1e-3)
        for labels, loss, g_p in (([0, 1], floored, [0.0, 0.0]), ([1, 0], 0.0, [-1.0, 1.0])):
            y_hat = fh.classify([h_a], p)
            assert y_hat.data.tolist() == [1.0, 0.0]
            out = fh.bce(y_hat, labels)
            assert out.data.tolist() == [loss, loss]
            assert [g for _, g in out._backward(np.ones(2))][0].tolist() == g_p
            for t in leaves:
                t.grad = None
            dc.backward(dc.sum_all(fh.bce(fh.classify([h_a], p), labels)))
            assert all(np.all(t.grad == 0.0) for t in leaves)

    def test_zero_projection_rows_hit_the_norm_floor(self):
        """A zero row's norm is COSINE_NORM_FLOOR, so its cosine with every
        row is 0. All-zero projections of two streams at delta = 1 give each
        anchor ln(1 + 2) = ln 3, as the hand-computed case does, and no
        gradient; one zero row among unit rows gives the hand-computed mean
        (3 ln(1 + 2e) + ln 3 - 2) / 4 and a finite gradient."""
        cfg = cdgin.ContrastiveConfig(delta=1)
        zeros = [dc.param(np.zeros((1, 2, 3))) for _ in range(2)]
        loss = cdgin.contrastive_loss(*zeros, cfg)
        assert float(loss.data[0]) == pytest.approx(np.log(3.0), abs=1e-12)
        dc.backward(dc.sum_all(loss))
        assert all(np.all(z.grad == 0.0) for z in zeros)
        e1 = [1.0, 0.0, 0.0]
        z_r, z_d = dc.param([[e1, [0.0] * 3]]), dc.param([[e1, e1]])
        loss = cdgin.contrastive_loss(z_r, z_d, cfg)
        expect = (3.0 * np.log(1.0 + 2.0 * np.e) + np.log(3.0) - 2.0) / 4.0
        assert float(loss.data[0]) == pytest.approx(expect, abs=1e-12)
        dc.backward(dc.sum_all(loss))
        assert np.all(np.isfinite(z_r.grad)) and np.all(np.isfinite(z_d.grad))


def gated_case(rng):
    h, _ = cbam_case(rng)
    b, n_w, c = h.data.shape
    return fh.apply_attention(h, dc.param(rng.uniform(0.05, 0.95, (b, c))),
                              dc.param(rng.uniform(0.05, 0.95, (b, n_w))))


def lstm_case(rng):
    folds, d, m = 2, 3, 4
    return dc.lstm(rng.standard_normal((2 * folds, 5, m)),
                   dc.param(0.5 * rng.standard_normal((folds, m, 4 * d))),
                   dc.param(0.5 * rng.standard_normal((folds, d, 4 * d))),
                   dc.param(0.3 * rng.standard_normal((folds, 4 * d))))


FUSED_OPS = {
    "gin_node_update": lambda rng: cdgin.gin_node_update(*stacked_gin_case(rng, folds=3)[1]),
    "attention_readout": lambda rng: cdgin.attention_readout(
        *readout_case(*stacked_gin_case(rng, folds=3)[1])[1])[0],
    "channel_attention": lambda rng: fh.channel_attention(*cbam_case(rng)),
    "temporal_attention": lambda rng: fh.temporal_attention(*cbam_case(rng)),
    "apply_attention": gated_case,
    "lstm": lstm_case,
    **{op: lambda rng, op=op: HEAD_OPS[op][0](*HEAD_OPS[op][2](rng)) for op in HEAD_OPS},
}


@pytest.mark.parametrize("op", list(FUSED_OPS))
def test_adjoint_leaves_its_forward_intact(op):
    """An adjoint reads what its forward saved and writes into none of it:
    called twice on one forward, it gives the same gradients bit for bit,
    and the op's output and inputs keep their values. A backward may walk
    one graph twice (the dict-walk oracle in test_diffcore does)."""
    rng = np.random.default_rng(28)
    for _ in range(5):
        out = FUSED_OPS[op](rng)
        assert out.op == op
        kept = [t.data.copy() for t in (out, *out._parents)]
        g = rng.standard_normal(out.data.shape)
        first = [(t, grad.copy()) for t, grad in out._backward(g.copy())]
        second = list(out._backward(g.copy()))
        assert [t for t, _ in first] == [t for t, _ in second]
        for (t, grad), (_, again) in zip(first, second):
            assert np.array_equal(grad, again), t.data.shape
        for t, data in zip((out, *out._parents), kept):
            assert np.array_equal(t.data, data), t.data.shape


class TestNonFiniteIntermediates:
    """Each fused op checks the arrays it feeds into tanh, softmax, the
    sigmoid, exp or log, which could map an infinity to a finite value."""

    def test_gin_mlp_pre_activation(self):
        h, a, p = gin_case(np.random.default_rng(18))
        rows = h.data.shape[0]
        h.data[rows - 1] = 1e300  # only the last node row overflows
        p.eps.data[...] = 1.0
        p.w.data[...] = 1e10
        with pytest.raises(NumericsError, match="MLP pre-activation in op 'gin_node_update'") \
                as info:
            cdgin.gin_node_update(h, np.zeros_like(a), p)
        assert info.value.shape == (rows, h.data.shape[1]) and info.value.index[0] == rows - 1

    def test_readout_logits(self):
        h, a, p = gin_case(np.random.default_rng(19))
        n, m = a.shape[:2]
        p.w_q.data[...] = 1e200
        p.w_k.data[...] = 1e200
        with pytest.raises(NumericsError, match="attention logits in op 'attention_readout'") \
                as info:
            cdgin.attention_readout(dc.param(np.ones((n, m, h.data.shape[1]))), p.w_q, p.w_k)
        assert info.value.shape == (n, m)

    def test_channel_mlp_pre_activation(self):
        h, p = cbam_case(np.random.default_rng(20))
        h.data[-1] = 1e300  # only the last subject's pooled features overflow
        p.chan_w1.data[...] = 1e10
        with pytest.raises(NumericsError, match="pre-activation in op 'channel_attention'") \
                as info:
            fh.channel_attention(h, p)
        assert info.value.index[0] == h.data.shape[0] - 1

    def test_temporal_sigmoid_argument(self):
        h, p = cbam_case(np.random.default_rng(21))
        h.data[-1, -1] = 1e300
        p.temporal_kernel.data[...] = 1e10
        with pytest.raises(NumericsError, match="sigmoid argument in op 'temporal_attention'") \
                as info:
            fh.temporal_attention(h, p)
        assert info.value.shape == h.data.shape[:2]
        assert info.value.index[0] == h.data.shape[0] - 1

    def test_projection_pre_activation(self):
        h, w1, b1, w2, b2 = project_case(np.random.default_rng(30))
        h.data[-1] = 1e300  # only the last row overflows
        w1.data[...] = 1e10
        with pytest.raises(NumericsError, match="pre-activation in op 'project'") as info:
            cdgin.project(h, w1, b1, w2, b2)
        assert info.value.shape[0] == h.data.shape[0] and info.value.index[0] == len(h) - 1

    def test_classifier_pre_activation_and_sigmoid_argument(self):
        h_a, p = classify_case(np.random.default_rng(31))
        b = h_a[0].data.shape[0]
        h_a[-1].data[-1] = 1e300  # only the last subject's pooled features overflow
        p.w1.data[...] = 1e10
        with pytest.raises(NumericsError, match="pre-activation in op 'classify'") as info:
            fh.classify(h_a, p)
        assert info.value.index[0] == b - 1
        h_a, p = classify_case(np.random.default_rng(31))
        p.b2.data[...] = np.inf  # tanh bounds the hidden units; the logits' own check
        with pytest.raises(NumericsError, match="sigmoid argument in op 'classify'") as info:
            fh.classify(h_a, p)
        assert info.value.shape == (b,)

    def test_contrastive_cosine(self):
        z_r, _, cfg = contrastive_case(np.random.default_rng(32), scale=1.0)
        b = z_r.data.shape[0]
        z_r.data[-1, 0] = 1e200  # its square overflows, and its cosines are inf / inf
        with pytest.raises(NumericsError, match="cosine in op 'contrastive_loss'") as info:
            cdgin.contrastive_loss(z_r, None, cfg)
        assert info.value.shape[0] == b and info.value.index[0] == b - 1

    def test_bce_log_argument(self):
        y_hat = dc.const([0.5, np.nan, 0.5])  # a constant escapes _make's check
        with pytest.raises(NumericsError, match="log argument in op 'bce'") as info:
            fh.bce(y_hat, [1.0, 0.0, 1.0])
        assert info.value.index == (1,)

    def test_shape_errors(self):
        h, a, p = gin_case(np.random.default_rng(22))
        d = h.data.shape[1]
        with pytest.raises(ShapeError):
            cdgin.attention_readout(h, p.w_q, p.w_k)  # rows, not an (N_w, M, D) stack
        with pytest.raises(ShapeError):
            cdgin.attention_readout(dc.param(np.ones((1, 2, d + 1))), p.w_q, p.w_k)
        hf, cp = cbam_case(np.random.default_rng(23))
        cp.temporal_kernel = dc.param(np.ones((2, 2)))  # even width
        with pytest.raises(ShapeError):
            fh.temporal_attention(hf, cp)
        with pytest.raises(ShapeError):
            fh.channel_attention(dc.param(np.ones((1, 2, hf.data.shape[2] + 1))), cp)
        h, w1, b1, w2, b2 = project_case(np.random.default_rng(33))
        with pytest.raises(ShapeError):  # a bias one wider than its weight
            cdgin.project(h, w1, b1, w2, dc.param(np.ones(w2.data.shape[-2] + 1)))
        with pytest.raises(ShapeError):
            cdgin.project(dc.param(np.ones((2, 3, h.data.shape[1]))), w1, b1, w2, b2)
        h_a, p = classify_case(np.random.default_rng(34))
        with pytest.raises(ShapeError):  # layers of other shapes
            fh.classify(h_a + [dc.param(np.ones((1, 1, 1)))], p)
        with pytest.raises(ShapeError):
            fh.bce(dc.param([0.5, 0.5]), [1.0])


class TestOraclePrimitives:
    rng = np.random.default_rng(42)

    def test_scale(self):
        a, s = rmat(self.rng, 3, 4), dc.param(0.7)
        check_op(lambda: dc.sum_all(oracle.scale(dc.mul_scalar(a, 1.3), s)), [a, s])

    def test_softmax(self):
        a = rmat(self.rng, 6)
        w = rmat(self.rng, 6)
        check_op(lambda: dc.sum_all(oracle.mul(oracle.softmax(a), w)), [a, w])
        rows, wr = rmat(self.rng, 3, 5), rmat(self.rng, 3, 5)
        check_op(lambda: dc.sum_all(oracle.mul(oracle.softmax(rows), wr)), [rows, wr])
        np.testing.assert_allclose(oracle.softmax(rows).data.sum(axis=1), 1.0, atol=1e-15)
        for shape in ((), (2, 3, 4)):
            with pytest.raises(ShapeError):
                oracle.softmax(dc.const(np.zeros(shape)))

    def test_max_pool(self):
        b = dc.param(self.rng.permutation(20).astype(float).reshape(4, 5))
        for axis in (0, 1):
            check_op(lambda ax=axis: dc.sum_all(oracle.mul(
                oracle.max_pool(b, ax), oracle.max_pool(b, ax))), [b])
        e = dc.param(self.rng.permutation(24).astype(float).reshape(2, 3, 4))
        for axis in (0, 1, 2):
            np.testing.assert_array_equal(oracle.max_pool(e, axis).data, e.data.max(axis=axis))
            check_op(lambda ax=axis: dc.sum_all(oracle.mul(
                oracle.max_pool(e, ax), oracle.max_pool(e, ax))), [e])
        with pytest.raises(ShapeError):
            oracle.max_pool(e, 3)

    def test_conv1d_same(self):
        x = rmat(self.rng, 2, 9)
        k = rmat(self.rng, 2, 5)
        check_op(lambda: dc.sum_all(oracle.mul(oracle.conv1d_same(x, k),
                                               oracle.conv1d_same(x, k))), [x, k])
        batch = rmat(self.rng, 3, 2, 9)  # a leading batch axis: one output row per entry
        out = oracle.conv1d_same(batch, k)
        for row, xb in zip(out.data, batch.data):
            np.testing.assert_allclose(row, oracle.conv1d_same(dc.const(xb), k).data,
                                       rtol=0, atol=1e-14)
        check_op(lambda: dc.sum_all(oracle.mul(oracle.conv1d_same(batch, k),
                                               oracle.conv1d_same(batch, k))), [batch, k])

    def test_sub_neg(self):
        a, b = rmat(self.rng, 3, 4), rmat(self.rng, 3, 4)
        check_op(lambda: dc.sum_all(oracle.mul(oracle.sub(a, b), oracle.neg(b))), [a, b])

    def test_div(self):
        a = rmat(self.rng, 3, 4)
        b = dc.param(self.rng.uniform(0.5, 2.0, (3, 4)))
        check_op(lambda: dc.sum_all(oracle.div(a, b)), [a, b])

    def test_bmm(self):
        a, b = rmat(self.rng, 3, 2, 4), rmat(self.rng, 3, 4, 5)
        check_op(lambda: dc.sum_all(oracle.tanh(oracle.bmm(a, b))), [a, b])
        for sa, sb in (((2, 4), (4, 5)),  # not stacks
                       ((3, 2, 4), (2, 4, 5)),  # batch sizes differ
                       ((3, 2, 4), (3, 5, 4))):  # inner sizes differ
            with pytest.raises(ShapeError):
                oracle.bmm(dc.const(np.zeros(sa)), dc.const(np.zeros(sb)))

    def test_mul_broadcast(self):
        a, row = rmat(self.rng, 2, 3, 4), rmat(self.rng, 3, 4)
        check_op(lambda: dc.sum_all(oracle.tanh(oracle.mul(a, row))), [a, row])  # trailing axes
        col, cell = rmat(self.rng, 2, 3, 1), rmat(self.rng, 2, 1, 4)
        check_op(lambda: dc.sum_all(oracle.tanh(oracle.mul(oracle.mul(a, col), cell))), [a, col, cell])
        for sa, sb in (((4,), (4, 1)), ((3, 4), (4, 3)), ((2, 3, 4), (3,))):
            with pytest.raises(ShapeError):
                oracle.mul(dc.const(np.zeros(sa)), dc.const(np.zeros(sb)))

    def test_transpose_reshape(self):
        a = rmat(self.rng, 3, 4)
        check_op(lambda: dc.sum_all(oracle.tanh(dc.reshape(oracle.transpose(a), (2, 6)))), [a])
        stack = rmat(self.rng, 2, 3, 4)  # each matrix of a stack
        np.testing.assert_array_equal(oracle.transpose(stack).data[1], stack.data[1].T)
        check_op(lambda: dc.sum_all(oracle.tanh(oracle.bmm(oracle.transpose(stack), stack))), [stack])
        with pytest.raises(ShapeError):
            oracle.transpose(rmat(self.rng, 3))

    def test_sigmoid_tanh_exp_sqrt(self):
        a = dc.param(self.rng.uniform(0.2, 1.5, (3, 4)))
        check_op(lambda: dc.sum_all(oracle.sigmoid(a)), [a])
        check_op(lambda: dc.sum_all(oracle.tanh(a)), [a])
        check_op(lambda: dc.sum_all(oracle.exp(a)), [a])
        check_op(lambda: dc.sum_all(oracle.sqrt(a)), [a])

    def test_log(self):
        a = dc.param(self.rng.uniform(0.3, 2.0, (3, 4)))
        check_op(lambda: dc.sum_all(oracle.log(a)), [a])

    def test_log_floor_zero_grad(self):
        a = dc.param(np.array([0.0, 1e-15, 0.5]))
        loss = dc.sum_all(oracle.log(a))
        dc.backward(loss)
        assert a.grad[0] == 0.0 and a.grad[1] == 0.0
        assert a.grad[2] == pytest.approx(2.0)

    def test_clip_min(self):
        a = dc.param(np.array([-1.0, 0.5, 2.0]))
        check_op(lambda: dc.sum_all(oracle.mul(oracle.clip_min(a, 0.0), oracle.clip_min(a, 0.0))), [a])

    def test_pools(self):
        a = rmat(self.rng, 4, 5)
        for axis in (0, 1):
            check_op(lambda ax=axis: dc.sum_all(oracle.tanh(
                dc.reshape(oracle.mean_pool(a, ax), (-1,)))), [a])
        c = rmat(self.rng, 2, 3, 4)
        for axis in (0, 1, 2):
            check_op(lambda ax=axis: dc.sum_all(oracle.tanh(oracle.mean_pool(c, ax))), [c])
        with pytest.raises(ShapeError):
            oracle.mean_pool(c, 3)

    def test_mean_pool_adjoint_equals_broadcast_form(self):
        # the adjoint fills an empty array with one broadcast assignment;
        # it must equal the broadcast view of g / n it replaced, bit for bit
        for shape in ((7,), (4, 5), (2, 3, 4), (3, 1, 2, 5)):
            a = rmat(self.rng, *shape)
            for axis in range(len(shape)):
                out = oracle.mean_pool(a, axis)
                g = self.rng.standard_normal(out.data.shape)
                ((_, got),) = out._backward(g)
                expect = np.broadcast_to(np.expand_dims(g / shape[axis], axis), shape)
                assert got.shape == shape and np.array_equal(got, expect), (shape, axis)

    def test_take_rows(self):
        m = rmat(self.rng, 3, 4)
        np.testing.assert_array_equal(oracle.take_rows(m, [2, 0]).data, m.data[[2, 0]])
        # a repeated row accumulates both gradients
        check_op(lambda: dc.sum_all(oracle.tanh(oracle.take_rows(m, [1, 2, 1]))), [m])
        with pytest.raises(ShapeError):
            oracle.take_rows(rmat(self.rng, 4), [0])  # rows of a matrix only
        with pytest.raises(ShapeError):
            oracle.take_rows(m, [3])  # past the last row


class TestOracleFoldStacks:
    """``linear`` and ``take_rows`` with parameters on a leading fold axis."""

    rng = np.random.default_rng(40)

    @pytest.mark.parametrize("folds", [1, 3])
    @pytest.mark.parametrize("bias", [True, False])
    def test_linear_matches_finite_differences(self, folds, bias):
        lead = (folds,) if folds > 1 else ()
        x, w = rmat(self.rng, 2 * folds, 4), rmat(self.rng, *lead, 3, 4)
        b = rmat(self.rng, *lead, 3) if bias else None
        assert oracle.linear(x, w, b).data.shape == (2 * folds, 3)
        check_op(lambda: dc.sum_all(oracle.tanh(oracle.linear(x, w, b))),
                 [x, w] + ([b] if bias else []))

    def test_linear_with_a_weight_stack_is_each_folds_own_linear(self):
        x, w, b = rmat(self.rng, 6, 4), rmat(self.rng, 3, 5, 4), rmat(self.rng, 3, 5)
        g = self.rng.standard_normal((6, 5))
        out = oracle.linear(x, w, b)
        grads = {id(t): grad for t, grad in out._backward(g)}
        for f in range(3):
            rows = slice(2 * f, 2 * f + 2)
            xf, wf, bf = (dc.param(a) for a in (x.data[rows], w.data[f], b.data[f]))
            one = oracle.linear(xf, wf, bf)
            np.testing.assert_array_equal(out.data[rows], one.data)
            np.testing.assert_array_equal(out.data[rows], x.data[rows] @ w.data[f].T + b.data[f])
            for t, grad in one._backward(g[rows]):
                whole = {id(xf): grads[id(x)][rows], id(wf): grads[id(w)][f],
                         id(bf): grads[id(b)][f]}[id(t)]
                np.testing.assert_array_equal(whole, grad)

    @pytest.mark.parametrize("sx, sw, sb", [
        ((5, 4), (3, 2, 4), None),  # rows do not split into the folds
        ((6, 4), (3, 2, 4), (3, 3)),  # weight and bias widths disagree
        ((6, 4), (2, 4), (3,)),  # the same at one fold
        ((6, 4), (3, 2, 4), (2,)),  # a stacked weight with a lone bias
        ((6, 4), (2, 5), None),  # inner sizes differ
        ((2, 3, 4), (2, 4), None),  # x must be a matrix
        ((6, 4), (4,), None)])  # and w a matrix or a stack of them
    def test_linear_shape_errors(self, sx, sw, sb):
        with pytest.raises(ShapeError):
            oracle.linear(dc.const(np.zeros(sx)), dc.const(np.zeros(sw)),
                          None if sb is None else dc.const(np.zeros(sb)))

    def test_take_rows_of_a_stack(self):
        m = rmat(self.rng, 2, 5, 3)
        np.testing.assert_array_equal(oracle.take_rows(m, [4, 0]).data, m.data[:, [4, 0]])
        check_op(lambda: dc.sum_all(oracle.tanh(oracle.take_rows(m, [1, 3, 1]))), [m])
        with pytest.raises(ShapeError):
            oracle.take_rows(m, [5])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-30, 30), min_size=1, max_size=12))
def test_softmax_is_distribution(vals):
    s = oracle.softmax(dc.const(np.array(vals)))
    assert abs(float(s.data.sum()) - 1.0) < 1e-12
    assert np.all(s.data >= 0)
