"""LSTM wrapper and node-feature assembly tests."""

import numpy as np
import pytest

from cdgl import diffcore as dc
from cdgl import temporal_encoder as te
from cdgl.errors import ShapeError

from composite_layers import tanh


def make_params(rng, m, d, scale=0.4):
    w_x = dc.param(scale * rng.standard_normal((m, 4 * d)))
    w_h = dc.param(scale * rng.standard_normal((d, 4 * d)))
    b = dc.param(scale * rng.standard_normal(4 * d))
    return w_x, w_h, b


def test_zero_weights_give_zero_hidden():
    x = np.random.default_rng(0).standard_normal((1, 12, 3))
    h = te.lstm_forward(x, dc.param(np.zeros((3, 16))), dc.param(np.zeros((4, 16))),
                        dc.param(np.zeros(16)))
    np.testing.assert_array_equal(h.data, 0.0)


def test_output_shape():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 40, 5))
    h = te.lstm_forward(x, *make_params(rng, 5, 8))
    assert h.data.shape == (2, 40, 8)


def test_one_dimensional_input_rejected():
    rng = np.random.default_rng(1)
    with pytest.raises(ShapeError, match=r"\(B, T, M\) input required"):
        te.lstm_forward(rng.standard_normal(40), *make_params(rng, 1, 8))


def test_unbatched_sequence_rejected():
    # one subject's (T, M) sequence is not a batch; the B = 1 batch is
    rng = np.random.default_rng(1)
    with pytest.raises(ShapeError, match=r"\(B, T, M\) input required"):
        te.lstm_forward(rng.standard_normal((40, 5)), *make_params(rng, 5, 8))


def test_matches_stepwise_oracle():
    rng = np.random.default_rng(2)
    m, d, t = 4, 6, 15
    x = rng.standard_normal((t, m))
    w_x, w_h, b = make_params(rng, m, d, scale=0.8)

    def sig(z):
        return 1.0 / (1.0 + np.exp(-z))

    h = np.zeros(d)
    c = np.zeros(d)
    rows = []
    for step in range(t):
        a = x[step] @ w_x.data + h @ w_h.data + b.data
        i = sig(a[:d])
        f = sig(a[d:2 * d])
        g = np.tanh(a[2 * d:3 * d])
        o = sig(a[3 * d:])
        c = f * c + i * g
        h = o * np.tanh(c)
        rows.append(h.copy())
    out = te.lstm_forward(x[None], w_x, w_h, b)
    np.testing.assert_allclose(out.data[0], np.array(rows), atol=1e-10)


def windows(feats, m):
    """Per-window (M, D) blocks of the window-major (B * N_w * M, D) feature matrix."""
    return feats.data.reshape(-1, m, feats.data.shape[1])


class TestAssembleNodeFeatures:
    def setup_method(self):
        self.rng = np.random.default_rng(3)

    def test_hidden_selector(self):
        m, d, t = 4, 3, 20
        hidden = dc.const(self.rng.standard_normal((1, t, d)))
        w_m = dc.param(np.concatenate([np.zeros((d, m)), np.eye(d)], axis=1))
        feats = te.assemble_node_features(hidden, [0, 5], 10, w_m, m)
        assert feats.data.shape == (2 * m, d)
        for block, tau in zip(windows(feats, m), [9, 14]):
            for v in range(m):
                np.testing.assert_allclose(block[v], hidden.data[0, tau], atol=1e-15)

    def test_one_hot_selector(self):
        m, d, t = 5, 3, 12
        hidden = dc.const(self.rng.standard_normal((1, t, d)))
        sel = np.concatenate([np.eye(m)[:d], np.zeros((d, d))], axis=1)
        feats = te.assemble_node_features(hidden, [0], 6, dc.param(sel), m)
        np.testing.assert_allclose(feats.data, np.eye(m)[:, :d], atol=1e-15)

    def test_matches_dense_oracle(self):
        m, d, t = 3, 2, 18
        hidden = dc.const(self.rng.standard_normal((1, t, d)))
        w_m = dc.param(self.rng.standard_normal((d, m + d)))
        starts = [0, 4, 8]
        ws = 7
        feats = te.assemble_node_features(hidden, starts, ws, w_m, m)
        for block, s in zip(windows(feats, m), starts):
            tau = s + ws - 1
            for v in range(m):
                vec = np.concatenate([np.eye(m)[v], hidden.data[0, tau]])
                np.testing.assert_allclose(block[v], w_m.data @ vec, atol=1e-12)

    def test_same_endpoint_same_features(self):
        m, d = 4, 5
        hidden = dc.const(self.rng.standard_normal((1, 30, d)))
        w_m = dc.param(self.rng.standard_normal((d, m + d)))
        b1 = te.assemble_node_features(hidden, [2], 8, w_m, m)
        b2 = te.assemble_node_features(hidden, [9], 1, w_m, m)
        np.testing.assert_array_equal(b1.data, b2.data)

    def test_distinct_nodes_differ(self):
        m, d = 6, 4
        hidden = dc.const(np.zeros((1, 10, d)))
        w_m_data = np.concatenate(
            [self.rng.standard_normal((d, m)), np.zeros((d, d))], axis=1)
        feats = te.assemble_node_features(hidden, [0], 5, dc.param(w_m_data), m).data
        for u in range(m):
            for v in range(u + 1, m):
                assert not np.allclose(feats[u], feats[v])

    def test_endpoint_out_of_range(self):
        hidden = dc.const(np.zeros((1, 10, 3)))
        w_m = dc.param(np.zeros((3, 7)))
        with pytest.raises(ShapeError):
            te.assemble_node_features(hidden, [5], 8, w_m, 4)

    def test_shape_mismatch(self):
        hidden = dc.const(np.zeros((1, 10, 3)))
        with pytest.raises(ShapeError):
            te.assemble_node_features(hidden, [0], 5, dc.param(np.zeros((3, 6))), 4)

    def test_unbatched_hidden_rejected(self):
        # one subject's (T, D) sequence is not a batch; the B = 1 batch is
        w_m = dc.param(np.zeros((3, 7)))
        for shape in ((10, 3), (2, 1, 10, 3)):
            with pytest.raises(ShapeError, match=r"\(B, T, D\)"):
                te.assemble_node_features(dc.const(np.zeros(shape)), [0], 5, w_m, 4)

    def test_gradient_flows_to_w_m(self):
        m, d = 3, 2
        hidden = dc.param(self.rng.standard_normal((1, 9, d)))
        w_m = dc.param(self.rng.standard_normal((d, m + d)))
        feats = te.assemble_node_features(hidden, [0, 3], 4, w_m, m)
        loss = dc.sum_all(tanh(feats))
        dc.backward(loss)
        assert w_m.grad is not None and np.any(w_m.grad != 0)
        # only the two window endpoints (timepoints 3 and 6) feed the features
        assert set(np.flatnonzero(np.abs(hidden.grad[0]).sum(axis=1))) == {3, 6}

    def test_batch_rows_are_subject_major(self):
        m, d, t, starts, ws = 3, 4, 16, [0, 5, 10], 6
        hidden = dc.param(self.rng.standard_normal((2, t, d)))
        w_m = dc.param(self.rng.standard_normal((d, m + d)))
        feats = te.assemble_node_features(hidden, starts, ws, w_m, m)
        assert feats.data.shape == (2 * len(starts) * m, d)
        for b, block in enumerate(np.split(feats.data, 2)):
            single = te.assemble_node_features(dc.const(hidden.data[b:b + 1]), starts, ws,
                                               w_m, m)
            np.testing.assert_array_equal(block, single.data)
        dc.backward(dc.sum_all(tanh(feats)))
        for b in range(2):  # each subject's endpoints 5, 10 and 15, and no other row
            assert set(np.flatnonzero(np.abs(hidden.grad[b]).sum(axis=1))) == {5, 10, 15}
