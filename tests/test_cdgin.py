"""GIN layer, attention readout, projection, and contrastive loss tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdgl import cdgin
from cdgl import diffcore as dc
from cdgl.errors import ConfigError, ShapeError, WindowBudgetError

from composite_layers import clip_min, div, exp, log, mul, sqrt, sub


def make_layer_params(rng, d, scale=0.5):
    return cdgin.GinLayerParams(
        eps=dc.param(0.0),
        w=dc.param(scale * rng.standard_normal((d, d))),
        mlp_w1=dc.param(scale * rng.standard_normal((d, d))),
        mlp_b1=dc.param(scale * rng.standard_normal(d)),
        mlp_w2=dc.param(scale * rng.standard_normal((d, d))),
        mlp_b2=dc.param(scale * rng.standard_normal(d)),
        w_q=dc.param(scale * rng.standard_normal((d, d))),
        w_k=dc.param(scale * rng.standard_normal((d, d))),
    )


def identity_params(d):
    eye = np.eye(d)
    return cdgin.GinLayerParams(
        eps=dc.param(0.0), w=dc.param(eye),
        mlp_w1=dc.param(eye), mlp_b1=dc.param(np.zeros(d)),
        mlp_w2=dc.param(eye), mlp_b2=dc.param(np.zeros(d)),
        w_q=dc.param(eye), w_k=dc.param(eye),
    )


class TestGinLayer:
    # identity_params makes W and both MLP layers identities with zero
    # biases, so the update is tanh((eps I + A) H W) computed by hand
    def test_identity_reduction_gives_adjacency(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        p = identity_params(2)
        h_in = dc.const(np.eye(2))
        h_out = cdgin.gin_node_update(h_in, a[None], p)
        np.testing.assert_allclose(h_out.data, np.tanh(a), atol=1e-15)

    def test_epsilon_self_contribution(self):
        a = np.zeros((1, 2, 2))
        p = identity_params(2)
        p.eps.data = np.asarray(2.5)
        h_in = dc.const(np.array([[1.0, 0.0], [0.0, 1.0]]))
        h_out = cdgin.gin_node_update(h_in, a, p)
        np.testing.assert_allclose(h_out.data, np.tanh(2.5 * np.eye(2)), atol=1e-15)

    def test_isolated_nodes_identical(self):
        rng = np.random.default_rng(0)
        d, m = 4, 5
        p = make_layer_params(rng, d)
        h_in = dc.const(rng.standard_normal((m, d)))
        h_out = cdgin.gin_node_update(h_in, np.zeros((1, m, m)), p)
        # eps starts at 0 and A = 0, so every node sees the zero vector
        for v in range(1, m):
            np.testing.assert_allclose(h_out.data[v], h_out.data[0], atol=1e-15)

    def test_single_node_readout_is_node_feature(self):
        rng = np.random.default_rng(1)
        d = 3
        p = make_layer_params(rng, d)
        h_in = dc.const(rng.standard_normal((1, d)))
        h_out, readout, weights = cdgin.gin_layer(h_in, np.zeros((1, 1, 1)), p)
        np.testing.assert_allclose(readout.data, h_out.data, atol=1e-15)
        np.testing.assert_allclose(weights.data, [[1.0]], atol=1e-15)

    def test_shape_mismatch(self):
        p = identity_params(3)
        with pytest.raises(ShapeError):
            cdgin.gin_node_update(dc.const(np.zeros((2, 3))), np.zeros((1, 3, 3)), p)
        with pytest.raises(ShapeError):  # a single window's matrix, not a stack
            cdgin.gin_node_update(dc.const(np.zeros((3, 3))), np.zeros((3, 3)), p)
        with pytest.raises(ShapeError):  # 2 windows of 3 nodes need 6 rows
            cdgin.gin_layer(dc.const(np.zeros((3, 3))), np.zeros((2, 3, 3)), p)


class TestAttentionReadout:
    def test_identical_features_uniform(self):
        rng = np.random.default_rng(2)
        d, m = 4, 6
        feat = rng.standard_normal(d)
        h = dc.const(np.tile(feat, (1, m, 1)))
        readout, weights = cdgin.attention_readout(
            h, dc.param(rng.standard_normal((d, d))),
            dc.param(rng.standard_normal((d, d))))
        np.testing.assert_allclose(weights.data, 1.0 / m, atol=1e-12)
        np.testing.assert_allclose(readout.data, [feat], atol=1e-12)

    def test_zero_query_gives_node_mean(self):
        rng = np.random.default_rng(3)
        d, m = 5, 4
        h = dc.const(rng.standard_normal((2, m, d)))
        readout, weights = cdgin.attention_readout(
            h, dc.param(np.zeros((d, d))), dc.param(rng.standard_normal((d, d))))
        np.testing.assert_allclose(weights.data, 0.25, atol=1e-15)
        np.testing.assert_allclose(readout.data, h.data.mean(axis=1), atol=1e-12)

    def test_formula_oracle(self):
        rng = np.random.default_rng(4)
        n, d, m = 3, 4, 3
        h = rng.standard_normal((n, m, d))
        wq = rng.standard_normal((d, d))
        wk = rng.standard_normal((d, d))
        readout, weights = cdgin.attention_readout(dc.const(h), dc.param(wq),
                                                   dc.param(wk))
        for t in range(n):  # each window's softmax runs over its own nodes
            q = wq @ h[t].mean(axis=0)
            logits = np.array([q @ (wk @ h[t, v]) for v in range(m)]) / np.sqrt(d)
            e = np.exp(logits - logits.max())
            a = e / e.sum()
            np.testing.assert_allclose(weights.data[t], a, atol=1e-12)
            np.testing.assert_allclose(readout.data[t], a @ h[t], atol=1e-12)


class TestProject:
    def test_zero_weights(self):
        d = 4
        z = cdgin.project(dc.const(np.ones((2, d))), dc.param(np.zeros((d, d))),
                          dc.param(np.zeros(d)), dc.param(np.zeros((d, d))),
                          dc.param(np.zeros(d)))
        assert z.data.shape == (2, d)
        np.testing.assert_array_equal(z.data, 0.0)

    def test_near_identity_small_inputs(self):
        d = 3
        h = np.full((1, d), 1e-6)
        z = cdgin.project(dc.const(h), dc.param(np.eye(d)), dc.param(np.zeros(d)),
                          dc.param(np.eye(d)), dc.param(np.zeros(d)))
        np.testing.assert_allclose(z.data, h, rtol=1e-9)

    def test_dense_oracle(self):
        rng = np.random.default_rng(5)
        n, d, dp = 3, 5, 4
        h = rng.standard_normal((n, d))
        w1, b1 = rng.standard_normal((dp, d)), rng.standard_normal(dp)
        w2, b2 = rng.standard_normal((dp, dp)), rng.standard_normal(dp)
        z = cdgin.project(dc.const(h), dc.param(w1), dc.param(b1),
                          dc.param(w2), dc.param(b2))
        for t in range(n):
            expect = w2 @ np.tanh(w1 @ h[t] + b1) + b2
            np.testing.assert_allclose(z.data[t], expect, atol=1e-12)


def unit(v):
    return np.asarray(v, dtype=float) / np.linalg.norm(v)


def scalar_contrastive_loss(z_r, z_d, cfg):
    """Oracle: the loss built one scalar op at a time, anchor by anchor."""
    def norm(z):
        return sqrt(clip_min(dc.sum_all(mul(z, z)),
                             cdgin.COSINE_NORM_FLOOR ** 2))

    def cosine(u, v, nu, nv):
        return div(dc.sum_all(mul(u, v)), mul(nu, nv))

    def sum_scalars(terms):
        total = terms[0]
        for t in terms[1:]:
            total = dc.add(total, t)
        return total

    n = len(z_r)
    norms_r = [norm(z) for z in z_r]
    norms_d = [norm(z) for z in z_d]
    streams = [(z_r, z_d, norms_r, norms_d)]
    if z_d:
        streams.append((z_d, z_r, norms_d, norms_r))
    anchor_losses = []
    for same, other, n_same, n_other in streams:
        for i in range(n):
            positives = [p for p in (i - cfg.delta, i + cfg.delta) if 0 <= p < n]
            if not positives:
                continue
            excluded = {i, i - cfg.delta, i + cfg.delta}
            terms = [exp(cosine(same[i], other[j], n_same[i], n_other[j]))
                     for j in range(len(other))]
            terms += [exp(cosine(same[i], same[j], n_same[i], n_same[j]))
                      for j in range(n) if j not in excluded]
            base = sum_scalars(terms) if terms else None
            per_pos = []
            for p in positives:
                s_pos = cosine(same[i], same[p], n_same[i], n_same[p])
                e_pos = exp(s_pos)
                denom = e_pos if base is None else dc.add(base, e_pos)
                per_pos.append(sub(log(denom), s_pos))
            anchor_losses.append(dc.mul_scalar(sum_scalars(per_pos),
                                               1.0 / len(per_pos)))
    return dc.mul_scalar(sum_scalars(anchor_losses), 1.0 / len(anchor_losses))


def value_and_grads(loss_fn, z_r, z_d, cfg):
    for z in z_r + z_d:
        z.grad = None
    loss = loss_fn(z_r, z_d, cfg)
    dc.backward(loss)
    return float(loss.data), [z.grad.copy() for z in z_r + z_d]


def loss_of_one(z_r, z_d, cfg):
    """``contrastive_loss`` of a B = 1 batch, as a scalar."""
    return dc.reshape(cdgin.contrastive_loss(z_r, z_d, cfg), ())


def matrix_value_and_grads(z_r, z_d, cfg):
    """``contrastive_loss`` on the rows of ``z_r``/``z_d``; gradients come back per row."""
    mats = [dc.param(np.array([[z.data for z in zs]])) for zs in (z_r, z_d) if zs]
    loss = loss_of_one(mats[0], mats[1] if len(mats) == 2 else None, cfg)
    dc.backward(loss)
    return float(loss.data), [row for mat in mats for row in mat.grad[0]]


def rows(*vectors):
    """One subject's projections, one vector per window, as a B = 1 batch."""
    return dc.param(np.array([vectors], dtype=float))


class TestContrastiveLoss:
    def test_pair_masks_are_cached_read_only(self):
        first = cdgin._pair_weights(5, 2, 1)
        again = cdgin._pair_weights(5, 2, 1)
        assert all(a is b for a, b in zip(first, again))
        for mask in first:
            assert mask.shape == (10, 10) and not mask.flags.writeable

    def test_hand_case_ln3(self):
        e1 = unit([1.0, 0.0, 0.0])
        loss = loss_of_one(rows(e1, e1), rows(e1, e1), cdgin.ContrastiveConfig(delta=1))
        assert float(loss.data) == pytest.approx(np.log(3.0), abs=1e-12)

    def test_one_stream_hand_case(self):
        cfg = cdgin.ContrastiveConfig(delta=1)
        e1 = np.array([1.0, 0.0])
        # N=2: no same-stream negatives remain, so every anchor is exactly zero
        loss = loss_of_one(rows(e1, e1), None, cfg)
        assert float(loss.data) == pytest.approx(0.0, abs=1e-12)
        # N=3: anchors 0 and 2 see one negative: denom = 2e -> ln 2; anchor 1
        # has two positives and no negatives -> 0; mean = (2 ln 2) / 3
        loss3 = loss_of_one(rows(e1, e1, e1), None, cfg)
        assert float(loss3.data) == pytest.approx(2.0 * np.log(2.0) / 3.0, abs=1e-12)

    def test_orthogonal_negatives_lower_loss(self):
        # anchor stream r window 0: keep its positive aligned, rotate the
        # cross-stream vectors to be orthogonal to everything in stream r
        e1, e2 = unit([1.0, 0.0]), unit([0.0, 1.0])
        aligned = loss_of_one(rows(e1, e1), rows(e1, e1), cdgin.ContrastiveConfig(delta=1))
        separated = loss_of_one(rows(e1, e1), rows(e2, e2), cdgin.ContrastiveConfig(delta=1))
        assert float(separated.data) < float(aligned.data)

    def test_positivity(self):
        rng = np.random.default_rng(6)
        for n in (2, 3, 5):
            z_r = dc.param(rng.standard_normal((1, n, 4)))
            z_d = dc.param(rng.standard_normal((1, n, 4)))
            loss = loss_of_one(z_r, z_d, cdgin.ContrastiveConfig(delta=1))
            assert float(loss.data) > 0.0

    def test_stream_symmetry(self):
        rng = np.random.default_rng(7)
        n = 4
        z_r = dc.param(rng.standard_normal((1, n, 3)))
        z_d = dc.param(rng.standard_normal((1, n, 3)))
        cfg = cdgin.ContrastiveConfig(delta=2)
        a = loss_of_one(z_r, z_d, cfg)
        b = loss_of_one(z_d, z_r, cfg)
        assert float(a.data) == pytest.approx(float(b.data), abs=1e-12)

    def test_too_few_windows(self):
        z = dc.param(np.ones((1, 1, 3)))
        with pytest.raises(WindowBudgetError):
            cdgin.contrastive_loss(z, z, cdgin.ContrastiveConfig(delta=1))
        z2 = dc.param(np.ones((1, 2, 3)))
        with pytest.raises(WindowBudgetError):
            cdgin.contrastive_loss(z2, z2, cdgin.ContrastiveConfig(delta=2))

    def test_zero_vectors_no_blowup(self):
        z_r = dc.param(np.zeros((1, 2, 3)))
        z_d = dc.param(np.zeros((1, 2, 3)))
        loss = loss_of_one(z_r, z_d, cdgin.ContrastiveConfig(delta=1))
        dc.backward(loss)
        assert np.isfinite(float(loss.data))
        for z in (z_r, z_d):
            assert np.all(np.isfinite(z.grad))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        n = 3
        z_r = dc.param(rng.standard_normal((1, n, 4)))
        z_d = dc.param(rng.standard_normal((1, n, 4)))
        cfg = cdgin.ContrastiveConfig(delta=1)

        def build():
            return loss_of_one(z_r, z_d, cfg)

        loss = build()
        for z in (z_r, z_d):
            z.grad = None
        dc.backward(loss)
        for z in (z_r, z_d):
            ad = z.grad.copy()
            fd = np.zeros_like(ad)
            flat = z.data.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + 1e-6
                fp = float(build().data)
                flat[i] = orig - 1e-6
                fm = float(build().data)
                flat[i] = orig
                fd.reshape(-1)[i] = (fp - fm) / 2e-6
            denom = np.maximum(np.maximum(np.abs(ad), np.abs(fd)), 1e-8)
            assert (np.abs(ad - fd) / denom).max() < 1e-5

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 6), st.integers(1, 3))
    def test_invariants_random(self, seed, n, delta):
        if n < delta + 1:
            return
        rng = np.random.default_rng(seed)
        z_r = dc.param(rng.standard_normal((1, n, 3)))
        z_d = dc.param(rng.standard_normal((1, n, 3)))
        cfg = cdgin.ContrastiveConfig(delta=delta)
        loss = loss_of_one(z_r, z_d, cfg)
        swapped = loss_of_one(z_d, z_r, cfg)
        assert float(loss.data) > 0.0
        assert float(loss.data) == pytest.approx(float(swapped.data), abs=1e-12)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(9)
        for case in range(320):
            delta = int(rng.integers(1, 5))
            n = int(rng.integers(max(2, delta + 1), 13))
            width = int(rng.integers(1, 7))
            scale = 10.0 ** rng.uniform(-3, 2)

            def vec():
                if rng.random() < 0.05:
                    return dc.param(np.zeros(width))
                return dc.param(scale * rng.standard_normal(width))

            z_r = [vec() for _ in range(n)]
            z_d = [vec() for _ in range(n)] if case % 2 else []
            cfg = cdgin.ContrastiveConfig(delta=delta)
            value, grads = matrix_value_and_grads(z_r, z_d, cfg)
            expect, expect_grads = value_and_grads(scalar_contrastive_loss, z_r, z_d, cfg)
            assert abs(value - expect) <= 1e-12, case
            for g, ge in zip(grads, expect_grads):
                assert np.all(np.abs(g - ge) <= 1e-9 * np.maximum(np.abs(ge), 1.0)), case

    def test_batch_matches_per_subject_calls(self):
        rng = np.random.default_rng(11)
        for case in range(40):
            b, n, width = int(rng.integers(1, 6)), int(rng.integers(2, 9)), int(rng.integers(1, 6))
            cfg = cdgin.ContrastiveConfig(delta=int(rng.integers(1, n)))
            z_r = dc.param(rng.standard_normal((b, n, width)))
            z_d = dc.param(rng.standard_normal((b, n, width))) if case % 2 else None
            batch = cdgin.contrastive_loss(z_r, z_d, cfg)
            assert batch.data.shape == (b,)
            dc.backward(dc.sum_all(batch))
            grads = [z.grad.copy() for z in (z_r, z_d) if z is not None]
            for i in range(b):
                rows = [dc.param(z.data[i:i + 1]) for z in (z_r, z_d) if z is not None]
                single = loss_of_one(rows[0], rows[1] if len(rows) == 2 else None, cfg)
                assert abs(float(single.data) - batch.data[i]) <= 1e-12, case
                dc.backward(single)
                for row, g in zip(rows, grads):
                    assert np.all(np.abs(g[i] - row.grad[0])
                                  <= 1e-9 * np.maximum(np.abs(row.grad[0]), 1.0)), case

    def test_op_count_independent_of_window_count(self, op_names):
        # a (B, N_w, P) stack is one op at any N_w and B, with one stream or two
        rng = np.random.default_rng(10)
        cfg = cdgin.ContrastiveConfig(delta=1)
        counts = []
        for n in (4, 58):
            for b in (1, 5):
                z_r = dc.param(rng.standard_normal((b, n, 8)))
                for z_d in (dc.param(rng.standard_normal((b, n, 8))), None):
                    op_names.clear()
                    cdgin.contrastive_loss(z_r, z_d, cfg)
                    counts.append(len(op_names))
        assert counts == [1] * 8

    def test_ragged_projection_width(self):
        cfg = cdgin.ContrastiveConfig(delta=1)
        with pytest.raises(ShapeError):  # projections come as a (B, N_w, P) stack
            cdgin.contrastive_loss(dc.param(np.ones(3)), None, cfg)
        for z_d in (dc.param(np.ones((2, 3))), None):  # one subject's rows; B = 1 is a stack
            with pytest.raises(ShapeError):
                cdgin.contrastive_loss(dc.param(np.ones((2, 3))), z_d, cfg)
        with pytest.raises(ShapeError):
            cdgin.contrastive_loss(dc.param(np.ones((1, 1, 2, 3))), None, cfg)
        with pytest.raises(ShapeError):
            cdgin.contrastive_loss(dc.param(np.ones((1, 2, 3))), dc.param(np.ones((1, 2, 4))),
                                   cfg)
        with pytest.raises(ShapeError):
            cdgin.contrastive_loss(dc.param(np.ones((1, 2, 3))), dc.param(np.ones((1, 3, 3))),
                                   cfg)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            cdgin.ContrastiveConfig(delta=0)
        with pytest.raises(ConfigError):
            cdgin.ContrastiveConfig(alpha=-0.1)
