"""Channel/temporal attention, attended features, classifier, and loss tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdgl import cdgin, model
from cdgl import diffcore as dc
from cdgl import dynamic_fc as dfc
from cdgl import fusion_head as fh
from cdgl.data_io import RoiTimeSeries
from cdgl.errors import ShapeError


def make_cbam(rng, c, w_k, scale=0.6):
    r = c // fh.CHANNEL_REDUCTION
    return fh.CbamLayerParams(
        chan_w1=dc.param(scale * rng.standard_normal((r, c))),
        chan_b1=dc.param(scale * rng.standard_normal(r)),
        chan_w2=dc.param(scale * rng.standard_normal((c, r))),
        chan_b2=dc.param(scale * rng.standard_normal(c)),
        temporal_kernel=dc.param(scale * rng.standard_normal((2, w_k))),
    )


def zero_cbam(c, w_k):
    r = c // fh.CHANNEL_REDUCTION
    return fh.CbamLayerParams(
        chan_w1=dc.param(np.zeros((r, c))), chan_b1=dc.param(np.zeros(r)),
        chan_w2=dc.param(np.zeros((c, r))), chan_b2=dc.param(np.zeros(c)),
        temporal_kernel=dc.param(np.zeros((2, w_k))),
    )


class TestKernelWidth:
    def test_values(self):
        assert fh.temporal_kernel_width(1) == 1
        assert fh.temporal_kernel_width(2) == 1
        assert fh.temporal_kernel_width(3) == 3
        assert fh.temporal_kernel_width(6) == 5
        assert fh.temporal_kernel_width(7) == 7
        assert fh.temporal_kernel_width(50) == 7


class TestChannelAttention:
    def test_zero_weights_half(self):
        rng = np.random.default_rng(0)
        h_f = dc.const(rng.standard_normal((2, 5, 8)))
        factors = fh.channel_attention(h_f, zero_cbam(8, 3))
        assert factors.data.shape == (2, 8)
        np.testing.assert_allclose(factors.data, 0.5, atol=1e-15)

    def test_single_window_double_mlp(self):
        rng = np.random.default_rng(1)
        c = 6
        p = make_cbam(rng, c, 1)
        h_f = dc.const(rng.standard_normal((1, 1, c)))
        factors = fh.channel_attention(h_f, p).data[0]
        v = h_f.data[0, 0]
        mlp = p.chan_w2.data @ np.tanh(p.chan_w1.data @ v + p.chan_b1.data) + p.chan_b2.data
        np.testing.assert_allclose(factors, 1.0 / (1.0 + np.exp(-2.0 * mlp)),
                                   atol=1e-12)

    def test_formula_oracle(self):
        rng = np.random.default_rng(2)
        c, n_w = 8, 4
        p = make_cbam(rng, c, 3)
        batch = rng.standard_normal((3, n_w, c))
        factors = fh.channel_attention(dc.const(batch), p)

        def mlp(v):
            return p.chan_w2.data @ np.tanh(p.chan_w1.data @ v + p.chan_b1.data) \
                + p.chan_b2.data

        for h, row in zip(batch, factors.data):  # each subject pools its own windows
            logits = mlp(h.max(axis=0)) + mlp(h.mean(axis=0))
            np.testing.assert_allclose(row, 1.0 / (1.0 + np.exp(-logits)), atol=1e-12)

    def test_factors_in_open_interval(self):
        rng = np.random.default_rng(3)
        p = make_cbam(rng, 10, 3)
        factors = fh.channel_attention(dc.const(rng.standard_normal((2, 6, 10))), p)
        assert np.all(factors.data > 0) and np.all(factors.data < 1)


class TestTemporalAttention:
    def test_zero_kernel_half(self):
        rng = np.random.default_rng(4)
        h_f = dc.const(rng.standard_normal((2, 5, 8)))
        factors = fh.temporal_attention(h_f, zero_cbam(8, 3))
        assert factors.data.shape == (2, 5)
        np.testing.assert_allclose(factors.data, 0.5, atol=1e-15)

    def test_delta_kernel(self):
        rng = np.random.default_rng(5)
        h = rng.standard_normal((3, 6))
        p = zero_cbam(6, 3)
        p.temporal_kernel.data[:, 1] = 1.0  # center tap on both channels
        factors = fh.temporal_attention(dc.const(h[None]), p).data[0]
        logits = h.max(axis=1) + h.mean(axis=1)
        np.testing.assert_allclose(factors, 1.0 / (1.0 + np.exp(-logits)), atol=1e-12)

    def test_convolution_oracle(self):
        rng = np.random.default_rng(6)
        n_w, c, w_k = 7, 8, 5
        batch = rng.standard_normal((3, n_w, c))
        p = make_cbam(rng, c, w_k)
        factors = fh.temporal_attention(dc.const(batch), p)
        pad = (w_k - 1) // 2
        for h, row in zip(batch, factors.data):  # each subject convolves its own trace
            seqs = np.stack([h.max(axis=1), h.mean(axis=1)])
            padded = np.pad(seqs, ((0, 0), (pad, pad)))
            logits = np.zeros(n_w)
            for t in range(n_w):
                for ch in range(2):
                    logits[t] += padded[ch, t:t + w_k] @ p.temporal_kernel.data[ch]
            np.testing.assert_allclose(row, 1.0 / (1.0 + np.exp(-logits)), atol=1e-12)


class TestApplyAttention:
    def test_quarter_at_zero_weights(self):
        rng = np.random.default_rng(7)
        h = rng.standard_normal((2, 4, 6))
        half_c = dc.const(np.full((2, 6), 0.5))
        half_t = dc.const(np.full((2, 4), 0.5))
        h_a = fh.apply_attention(dc.const(h), half_c, half_t)
        np.testing.assert_allclose(h_a.data, 0.25 * h, atol=1e-15)

    def test_identity_attention(self):
        rng = np.random.default_rng(8)
        h = rng.standard_normal((2, 3, 4))
        h_a = fh.apply_attention(dc.const(h), dc.const(np.ones((2, 4))),
                                 dc.const(np.ones((2, 3))))
        np.testing.assert_allclose(h_a.data, h, atol=1e-15)

    def test_elementwise_oracle(self):
        rng = np.random.default_rng(9)
        h = rng.standard_normal((3, 5, 7))
        cf = rng.uniform(0.1, 0.9, (3, 7))
        tf = rng.uniform(0.1, 0.9, (3, 5))
        h_a = fh.apply_attention(dc.const(h), dc.const(cf), dc.const(tf))
        for b in range(3):
            np.testing.assert_allclose(h_a.data[b], h[b] * cf[b][None, :] * tf[b][:, None],
                                       atol=1e-15)
        with pytest.raises(ShapeError):  # one subject's factors for a batch of three
            fh.apply_attention(dc.const(h), dc.const(cf[:1]), dc.const(tf))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.floats(0.1, 5.0), st.floats(0.1, 5.0))
    def test_bilinear(self, seed, a, b):
        rng = np.random.default_rng(seed)
        h = rng.standard_normal((2, 3, 4))
        cf = rng.uniform(0.1, 0.9, (2, 4))
        tf = rng.uniform(0.1, 0.9, (2, 3))
        base = fh.apply_attention(dc.const(h), dc.const(cf), dc.const(tf))
        scaled = fh.apply_attention(dc.const(h), dc.const(a * cf), dc.const(b * tf))
        np.testing.assert_allclose(scaled.data, a * b * base.data, rtol=1e-12)


def make_classifier(rng, in_dim, hidden, scale=0.5):
    return fh.ClassifierParams(
        w1=dc.param(scale * rng.standard_normal((hidden, in_dim))),
        b1=dc.param(scale * rng.standard_normal(hidden)),
        w2=dc.param(scale * rng.standard_normal((1, hidden))),
        b2=dc.param(scale * rng.standard_normal(1)),
    )


class TestClassify:
    def test_zero_weights_half(self):
        rng = np.random.default_rng(10)
        p = fh.ClassifierParams(w1=dc.param(np.zeros((4, 8))),
                                b1=dc.param(np.zeros(4)),
                                w2=dc.param(np.zeros((1, 4))),
                                b2=dc.param(np.zeros(1)))
        y = fh.classify([dc.const(rng.standard_normal((2, 3, 8)))], p)
        assert y.data.shape == (2,)
        np.testing.assert_allclose(y.data, 0.5, atol=1e-15)

    def test_single_window_identity_pooling(self):
        rng = np.random.default_rng(11)
        h = rng.standard_normal((1, 6))
        p = make_classifier(rng, 6, 4)
        y = fh.classify([dc.const(h[None])], p)
        hidden = np.tanh(p.w1.data @ h[0] + p.b1.data)
        expect = 1.0 / (1.0 + np.exp(-(p.w2.data @ hidden + p.b2.data)[0]))
        assert float(y.data[0]) == pytest.approx(expect, abs=1e-12)

    def test_mlp_oracle_two_layers(self):
        rng = np.random.default_rng(12)
        layers = [rng.standard_normal((3, 4, 6)) for _ in range(2)]
        p = make_classifier(rng, 12, 5)
        y = fh.classify([dc.const(h) for h in layers], p)
        for b in range(3):
            feat = np.concatenate([h[b].mean(axis=0) for h in layers])
            hidden = np.tanh(p.w1.data @ feat + p.b1.data)
            expect = 1.0 / (1.0 + np.exp(-(p.w2.data @ hidden + p.b2.data)[0]))
            assert float(y.data[b]) == pytest.approx(expect, abs=1e-12)

    def test_permutation_invariance_with_uniform_temporal(self):
        rng = np.random.default_rng(13)
        h = rng.standard_normal((1, 5, 6))
        cf = dc.const(rng.uniform(0.2, 0.8, (1, 6)))
        tf = dc.const(np.full((1, 5), 0.7))
        p = make_classifier(rng, 6, 4)
        perm = rng.permutation(5)
        y1 = fh.classify([fh.apply_attention(dc.const(h), cf, tf)], p)
        y2 = fh.classify([fh.apply_attention(dc.const(h[:, perm]), cf, tf)], p)
        assert float(y1.data[0]) == pytest.approx(float(y2.data[0]), abs=1e-12)


class TestTotalLoss:
    def test_bce_at_chance(self):
        loss = fh.bce(dc.const(0.5), 1)
        assert float(loss.data) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_confident_correct_goes_to_zero(self):
        loss = fh.bce(dc.const(1e-9), 0)
        assert float(loss.data) == pytest.approx(0.0, abs=1e-8)

    @staticmethod
    def subject_parts(alpha):
        ts = RoiTimeSeries("s0", np.random.default_rng(16).standard_normal((24, 4)), 1)
        prep = model.prepare_subject(ts, dfc.WindowSpec(8, 4),
                                     dfc.DistanceKind("euclidean"))
        dims = model.ModelDims(m=4, d=4, d_p=4, layers=2, n_windows_ref=4)
        store = model.init_params(dims, seed=3)
        return model.subject_loss_parts(store, dims, prep,
                                        cdgin.ContrastiveConfig(delta=1, alpha=alpha))

    def test_combined_hand_case(self):
        total, l_bce, l_info = self.subject_parts(alpha=0.1)
        assert float(total.data) == float(l_bce.data) + 0.1 * float(l_info.data)

    def test_alpha_zero_is_pure_bce(self):
        total, l_bce, l_info = self.subject_parts(alpha=0.0)
        assert l_info is None and total is l_bce

    def test_nonnegative(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            y_hat = dc.const(rng.uniform(1e-6, 1.0 - 1e-6))
            loss = fh.bce(y_hat, int(rng.integers(2)))
            assert float(loss.data) >= 0.0

    def test_vector_matches_two_term_form_exactly(self):
        rng = np.random.default_rng(17)
        p = rng.uniform(1e-6, 1.0 - 1e-6, 9)
        y = rng.integers(0, 2, 9)
        loss = fh.bce(dc.const(p), y)
        expect = np.where(y == 1, -np.log(p), -np.log(1.0 - p))
        np.testing.assert_array_equal(loss.data, expect)
        with pytest.raises(ShapeError):
            fh.bce(dc.const(p), y[:3])

    def test_extreme_probability_clamped(self):
        loss = fh.bce(dc.const(0.0), 1)
        assert np.isfinite(float(loss.data))


def test_full_head_gradcheck():
    rng = np.random.default_rng(15)
    b, n_w, c = 2, 4, 6
    h_r = dc.param(0.5 * rng.standard_normal((b, n_w, c // 2)))
    h_d = dc.param(0.5 * rng.standard_normal((b, n_w, c // 2)))
    cbam = make_cbam(rng, c, 3)
    clf = make_classifier(rng, c, 4)
    tensors = [("h_r", h_r), ("h_d", h_d),
               ("cw1", cbam.chan_w1), ("cb1", cbam.chan_b1),
               ("cw2", cbam.chan_w2), ("cb2", cbam.chan_b2),
               ("k", cbam.temporal_kernel),
               ("w1", clf.w1), ("b1", clf.b1), ("w2", clf.w2), ("b2", clf.b2)]

    def build():
        h_f = dc.concat([h_r, h_d], axis=2)
        cf = fh.channel_attention(h_f, cbam)
        tf = fh.temporal_attention(h_f, cbam)
        h_a = fh.apply_attention(h_f, cf, tf)
        y_hat = fh.classify([h_a], clf)
        return dc.sum_all(fh.bce(y_hat, [1, 0]))

    coords = {name: np.arange(t.data.size) for name, t in tensors}
    report = dc.finite_diff_check(build, tensors, coords)
    assert report.max_rel_err < 1e-4, (report.worst_param, report.max_rel_err)
