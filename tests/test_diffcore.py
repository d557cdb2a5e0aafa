"""Gradient, optimizer, and checkpoint tests for the autodiff core.

Every primitive's adjoint is checked against central finite differences on
random inputs; tiny closed-form cases are asserted exactly.
"""

import struct
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdgl import diffcore as dc
from cdgl import model
from cdgl import train_eval as tv
from cdgl.data_io import RoiTimeSeries
from cdgl.errors import NumericsError, ParseError, ShapeError, StateError


def fd_grad(build_loss, tensor, h=1e-6):
    """Central-difference gradient of build_loss() w.r.t. one tensor."""
    flat = tensor.data.reshape(-1)
    g = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(build_loss().data)
        flat[i] = orig - h
        fm = float(build_loss().data)
        flat[i] = orig
        g[i] = (fp - fm) / (2.0 * h)
    return g.reshape(tensor.data.shape)


def check_op(build_loss, tensors, tol=5e-7):
    """Mixed criterion: |ad - fd| <= atol + tol * max(|ad|, |fd|).

    The absolute term covers coordinates whose true gradient is near zero
    (saturated activations), where central differences bottom out at
    roundoff noise around eps * |loss| / (2h) ~ 1e-9 regardless of how
    exact the reverse pass is.
    """
    atol = 1e-8
    for t in tensors:
        t.grad = None
    loss = build_loss()
    dc.backward(loss)
    for t in tensors:
        ad = t.grad if t.grad is not None else np.zeros_like(t.data)
        fd = fd_grad(build_loss, t)
        err = np.abs(ad - fd) - tol * np.maximum(np.abs(ad), np.abs(fd))
        assert err.max() < atol, f"op {loss.op}: excess abs err {err.max():.3e}"


def rmat(rng, *shape):
    return dc.param(rng.standard_normal(shape))


def header_claiming(shape):
    """Checkpoint bytes up to the data of one parameter 'w' of ``shape``."""
    return (dc.CHECKPOINT_MAGIC + struct.pack("<IIH", dc.CHECKPOINT_SCHEMA_VERSION, 1, 1)
            + b"w" + struct.pack(f"<B{len(shape)}I", len(shape), *shape))


def test_square_at_three_grad_is_six():
    w = dc.param(3.0)
    y = dc.mul(w, w)
    dc.backward(y)
    assert w.grad == pytest.approx(6.0, abs=1e-15)


def test_sigmoid_sum_grad_at_zero_is_quarter():
    x = dc.param(np.zeros(4))
    loss = dc.sum_all(dc.sigmoid(x))
    dc.backward(loss)
    np.testing.assert_allclose(x.grad, 0.25, rtol=0, atol=1e-15)


def test_backward_twice_doubles_leaf_grads():
    rng = np.random.default_rng(0)
    a = rmat(rng, 3, 4)
    b = rmat(rng, 4, 2)
    loss = dc.sum_all(dc.tanh(dc.matmul(a, b)))
    dc.backward(loss)
    first = a.grad.copy(), b.grad.copy()
    dc.backward(loss)
    np.testing.assert_array_equal(a.grad, 2.0 * first[0])
    np.testing.assert_array_equal(b.grad, 2.0 * first[1])


def test_scalar_node_with_many_consumers():
    # regression: 0-d numpy arithmetic yields immutable scalars, which once
    # dropped every accumulation past the second into a shared node
    for k in (2, 3, 4, 7):
        a = dc.param(2.0)
        s = dc.sqrt(a)
        total = dc.mul_scalar(s, 1.0)
        for i in range(1, k):
            total = dc.add(total, dc.mul_scalar(s, 1.0 + 0.1 * i))
        dc.backward(total)
        expect = sum(1.0 + 0.1 * i for i in range(k)) * 0.5 / np.sqrt(2.0)
        assert float(a.grad) == pytest.approx(expect, rel=1e-12)


def test_grad_accumulation_is_linear():
    rng = np.random.default_rng(1)
    x = rmat(rng, 5)
    l1 = dc.sum_all(dc.mul(x, x))
    l2 = dc.sum_all(dc.sigmoid(x))
    x.grad = None
    dc.backward(l1)
    g1 = x.grad.copy()
    x.grad = None
    dc.backward(l2)
    g2 = x.grad.copy()
    x.grad = None
    dc.backward(dc.add(l1, l2))
    np.testing.assert_allclose(x.grad, g1 + g2, rtol=0, atol=1e-12)


class TestPrimitiveGradients:
    rng = np.random.default_rng(42)

    def test_add(self):
        a, b = rmat(self.rng, 3, 4), rmat(self.rng, 3, 4)
        check_op(lambda: dc.sum_all(dc.mul(dc.add(a, b), dc.add(a, b))), [a, b])

    def test_add_broadcast(self):
        m, v = rmat(self.rng, 3, 4), rmat(self.rng, 4)
        check_op(lambda: dc.sum_all(dc.tanh(dc.add(m, v))), [m, v])  # bias row
        u, w = rmat(self.rng, 3, 1, 4), rmat(self.rng, 1, 5, 4)
        check_op(lambda: dc.sum_all(dc.tanh(dc.add(u, w))), [u, w])  # same rank
        col = rmat(self.rng, 3, 1)
        check_op(lambda: dc.sum_all(dc.tanh(dc.add(col, m))), [col, m])
        for a, b in (((4,), (4, 1)),  # rank mismatch: would be a (4, 4) outer sum
                     ((3, 4), (3,)),  # rank mismatch on a leading axis
                     ((2, 3), (3, 3)), ((3, 1, 4), (5, 4))):
            with pytest.raises(ShapeError):
                dc.add(dc.const(np.zeros(a)), dc.const(np.zeros(b)))

    def test_sub_neg(self):
        a, b = rmat(self.rng, 3, 4), rmat(self.rng, 3, 4)
        check_op(lambda: dc.sum_all(dc.mul(dc.sub(a, b), dc.neg(b))), [a, b])

    def test_mul_scalar_scale(self):
        a, s = rmat(self.rng, 3, 4), dc.param(0.7)
        check_op(lambda: dc.sum_all(dc.scale(dc.mul_scalar(a, 1.3), s)), [a, s])

    def test_div(self):
        a = rmat(self.rng, 3, 4)
        b = dc.param(self.rng.uniform(0.5, 2.0, (3, 4)))
        check_op(lambda: dc.sum_all(dc.div(a, b)), [a, b])

    def test_matmul(self):
        a, b = rmat(self.rng, 3, 4), rmat(self.rng, 4, 2)
        check_op(lambda: dc.sum_all(dc.tanh(dc.matmul(a, b))), [a, b])

    def test_bmm(self):
        a, b = rmat(self.rng, 3, 2, 4), rmat(self.rng, 3, 4, 5)
        check_op(lambda: dc.sum_all(dc.tanh(dc.bmm(a, b))), [a, b])
        for sa, sb in (((2, 4), (4, 5)),  # not stacks
                       ((3, 2, 4), (2, 4, 5)),  # batch sizes differ
                       ((3, 2, 4), (3, 5, 4))):  # inner sizes differ
            with pytest.raises(ShapeError):
                dc.bmm(dc.const(np.zeros(sa)), dc.const(np.zeros(sb)))

    def test_mul_broadcast(self):
        a, row = rmat(self.rng, 2, 3, 4), rmat(self.rng, 3, 4)
        check_op(lambda: dc.sum_all(dc.tanh(dc.mul(a, row))), [a, row])  # trailing axes
        col, cell = rmat(self.rng, 2, 3, 1), rmat(self.rng, 2, 1, 4)
        check_op(lambda: dc.sum_all(dc.tanh(dc.mul(dc.mul(a, col), cell))), [a, col, cell])
        for sa, sb in (((4,), (4, 1)), ((3, 4), (4, 3)), ((2, 3, 4), (3,))):
            with pytest.raises(ShapeError):
                dc.mul(dc.const(np.zeros(sa)), dc.const(np.zeros(sb)))

    def test_transpose_reshape(self):
        a = rmat(self.rng, 3, 4)
        check_op(lambda: dc.sum_all(dc.tanh(dc.reshape(dc.transpose(a), (2, 6)))), [a])
        stack = rmat(self.rng, 2, 3, 4)  # each matrix of a stack
        np.testing.assert_array_equal(dc.transpose(stack).data[1], stack.data[1].T)
        check_op(lambda: dc.sum_all(dc.tanh(dc.bmm(dc.transpose(stack), stack))), [stack])
        with pytest.raises(ShapeError):
            dc.transpose(rmat(self.rng, 3))

    def test_sigmoid_tanh_exp_sqrt(self):
        a = dc.param(self.rng.uniform(0.2, 1.5, (3, 4)))
        check_op(lambda: dc.sum_all(dc.sigmoid(a)), [a])
        check_op(lambda: dc.sum_all(dc.tanh(a)), [a])
        check_op(lambda: dc.sum_all(dc.exp(a)), [a])
        check_op(lambda: dc.sum_all(dc.sqrt(a)), [a])

    def test_log(self):
        a = dc.param(self.rng.uniform(0.3, 2.0, (3, 4)))
        check_op(lambda: dc.sum_all(dc.log(a)), [a])

    def test_log_floor_zero_grad(self):
        a = dc.param(np.array([0.0, 1e-15, 0.5]))
        loss = dc.sum_all(dc.log(a))
        dc.backward(loss)
        assert a.grad[0] == 0.0 and a.grad[1] == 0.0
        assert a.grad[2] == pytest.approx(2.0)

    def test_clip_min(self):
        a = dc.param(np.array([-1.0, 0.5, 2.0]))
        check_op(lambda: dc.sum_all(dc.mul(dc.clip_min(a, 0.0), dc.clip_min(a, 0.0))), [a])

    def test_softmax(self):
        a = rmat(self.rng, 6)
        w = rmat(self.rng, 6)
        check_op(lambda: dc.sum_all(dc.mul(dc.softmax(a), w)), [a, w])
        rows, wr = rmat(self.rng, 3, 5), rmat(self.rng, 3, 5)
        check_op(lambda: dc.sum_all(dc.mul(dc.softmax(rows), wr)), [rows, wr])
        np.testing.assert_allclose(dc.softmax(rows).data.sum(axis=1), 1.0, atol=1e-15)
        for shape in ((), (2, 3, 4)):
            with pytest.raises(ShapeError):
                dc.softmax(dc.const(np.zeros(shape)))

    def test_pools(self):
        a = rmat(self.rng, 4, 5)
        for axis in (0, 1):
            check_op(lambda ax=axis: dc.sum_all(dc.tanh(
                dc.reshape(dc.mean_pool(a, ax), (-1,)))), [a])
        c = rmat(self.rng, 2, 3, 4)
        for axis in (0, 1, 2):
            check_op(lambda ax=axis: dc.sum_all(dc.tanh(dc.mean_pool(c, ax))), [c])
        with pytest.raises(ShapeError):
            dc.mean_pool(c, 3)
        b = dc.param(self.rng.permutation(20).astype(float).reshape(4, 5))
        for axis in (0, 1):
            check_op(lambda ax=axis: dc.sum_all(dc.mul(
                dc.max_pool(b, ax), dc.max_pool(b, ax))), [b])
        e = dc.param(self.rng.permutation(24).astype(float).reshape(2, 3, 4))
        for axis in (0, 1, 2):
            np.testing.assert_array_equal(dc.max_pool(e, axis).data, e.data.max(axis=axis))
            check_op(lambda ax=axis: dc.sum_all(dc.mul(
                dc.max_pool(e, ax), dc.max_pool(e, ax))), [e])
        with pytest.raises(ShapeError):
            dc.max_pool(e, 3)

    def test_concat_take_rows(self):
        a, b = rmat(self.rng, 2, 3), rmat(self.rng, 2, 3)
        check_op(lambda: dc.sum_all(dc.tanh(dc.concat([a, b], axis=0))), [a, b])
        check_op(lambda: dc.sum_all(dc.tanh(dc.concat([a, b], axis=1))), [a, b])
        m = rmat(self.rng, 3, 4)
        np.testing.assert_array_equal(dc.take_rows(m, [2, 0]).data, m.data[[2, 0]])
        # a repeated row accumulates both gradients
        check_op(lambda: dc.sum_all(dc.tanh(dc.take_rows(m, [1, 2, 1]))), [m])
        with pytest.raises(ShapeError):
            dc.take_rows(rmat(self.rng, 4), [0])  # rows of a matrix only
        with pytest.raises(ShapeError):
            dc.take_rows(m, [3])  # past the last row

    def test_conv1d_same(self):
        x = rmat(self.rng, 2, 9)
        k = rmat(self.rng, 2, 5)
        check_op(lambda: dc.sum_all(dc.mul(dc.conv1d_same(x, k),
                                           dc.conv1d_same(x, k))), [x, k])
        batch = rmat(self.rng, 3, 2, 9)  # a leading batch axis: one output row per entry
        out = dc.conv1d_same(batch, k)
        for row, xb in zip(out.data, batch.data):
            np.testing.assert_allclose(row, dc.conv1d_same(dc.const(xb), k).data,
                                       rtol=0, atol=1e-14)
        check_op(lambda: dc.sum_all(dc.mul(dc.conv1d_same(batch, k),
                                           dc.conv1d_same(batch, k))), [batch, k])

    def test_lstm_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        T, M, D = 6, 3, 4
        x = rng.standard_normal((T, M))
        w_x = rmat(rng, M, 4 * D)
        w_h = rmat(rng, D, 4 * D)
        b = rmat(rng, 4 * D)
        check_op(lambda: dc.sum_all(dc.mul(dc.lstm(x, w_x, w_h, b),
                                           dc.lstm(x, w_x, w_h, b))),
                 [w_x, w_h, b], tol=2e-6)


def test_lstm_matches_stepwise_oracle():
    rng = np.random.default_rng(3)
    T, M, D = 5, 2, 3
    x = rng.standard_normal((T, M))
    w_x = rng.standard_normal((M, 4 * D))
    w_h = rng.standard_normal((D, 4 * D))
    b = rng.standard_normal(4 * D)

    def sig(z):
        return 1.0 / (1.0 + np.exp(-z))

    h = np.zeros(D)
    c = np.zeros(D)
    expect = []
    for t in range(T):
        a = x[t] @ w_x + h @ w_h + b
        i, f, g, o = sig(a[:D]), sig(a[D:2 * D]), np.tanh(a[2 * D:3 * D]), sig(a[3 * D:])
        c = f * c + i * g
        h = o * np.tanh(c)
        expect.append(h.copy())
    out = dc.lstm(x, dc.param(w_x), dc.param(w_h), dc.param(b))
    np.testing.assert_allclose(out.data, np.array(expect), rtol=0, atol=1e-10)


def oracle_lstm(x, w_x, w_h, b):
    """The fused LSTM as one Python step per timestep both ways, as it was
    before the local derivative factors were hoisted out of the time loops.
    Returns the hidden sequence and its adjoint, g -> (dw_x, dw_h, db)."""
    T = x.shape[0]
    D = w_x.shape[1] // 4
    xw = x @ w_x
    I = np.empty((T, D)); F = np.empty((T, D)); G = np.empty((T, D)); O = np.empty((T, D))
    C = np.empty((T, D)); TC = np.empty((T, D)); Hprev = np.empty((T, D))
    h = np.zeros(D)
    c = np.zeros(D)
    for t in range(T):
        Hprev[t] = h
        a = xw[t] + h @ w_h + b
        ia = a[:D]; fa = a[D:2 * D]; ga = a[2 * D:3 * D]; oa = a[3 * D:]
        i_t = 1.0 / (1.0 + np.exp(-ia))
        f_t = 1.0 / (1.0 + np.exp(-fa))
        g_t = np.tanh(ga)
        o_t = 1.0 / (1.0 + np.exp(-oa))
        c = f_t * c + i_t * g_t
        tc = np.tanh(c)
        h = o_t * tc
        I[t], F[t], G[t], O[t], C[t], TC[t] = i_t, f_t, g_t, o_t, c, tc
    H = O * TC

    def bk(g):
        DA = np.empty((T, 4 * D))
        dh = np.zeros(D)
        dc_ = np.zeros(D)
        for t in range(T - 1, -1, -1):
            dh = dh + g[t]
            do = dh * TC[t]
            dc_ = dc_ + dh * O[t] * (1.0 - TC[t] * TC[t])
            di = dc_ * G[t]
            dg = dc_ * I[t]
            c_prev = C[t - 1] if t > 0 else np.zeros(D)
            df = dc_ * c_prev
            dc_ = dc_ * F[t]
            DA[t, :D] = di * I[t] * (1.0 - I[t])
            DA[t, D:2 * D] = df * F[t] * (1.0 - F[t])
            DA[t, 2 * D:3 * D] = dg * (1.0 - G[t] * G[t])
            DA[t, 3 * D:] = do * O[t] * (1.0 - O[t])
            dh = DA[t] @ w_h.T
        return x.T @ DA, Hprev.T @ DA, DA.sum(axis=0)

    return H, bk


@pytest.mark.parametrize("pattern", ["dense", "sparse", "zero", "first_row"])
def test_lstm_matches_per_step_oracle(pattern):
    """Hidden sequence bit-identical to the per-step oracle, gradients within
    1e-9 of max(|g|, 1); an all-zero output gradient gives exact zeros."""
    rng = np.random.default_rng(["dense", "sparse", "zero", "first_row"].index(pattern))
    for _ in range(40):
        T, M, D = (int(v) for v in rng.integers(1, (61, 13, 21)))
        scale = 10.0 ** rng.uniform(-2, 1)
        x = scale * rng.standard_normal((T, M))
        w_x, w_h, b = (scale * rng.standard_normal(s) for s in ((M, 4 * D), (D, 4 * D), 4 * D))
        g = rng.standard_normal((T, D))
        if pattern == "sparse":
            g[rng.random(T) < 0.8] = 0.0
        elif pattern == "zero":
            g[:] = 0.0
        elif pattern == "first_row":
            g[1:] = 0.0
        params = [dc.param(w_x), dc.param(w_h), dc.param(b)]
        with np.errstate(over="ignore"):  # saturated gates at the largest scales
            expect_h, expect_bk = oracle_lstm(x, w_x, w_h, b)
            out = dc.lstm(x, *params)
        assert np.array_equal(out.data, expect_h), (T, M, D, scale)
        dc.backward(dc.sum_all(dc.mul(out, dc.const(g))))
        for p, want in zip(params, expect_bk(g)):
            if pattern == "zero":
                assert not p.grad.any()
            err = np.abs(p.grad - want) / np.maximum(np.abs(want), 1.0)
            assert err.max() <= 1e-9, (T, M, D, scale, err.max())


def test_lstm_batch_matches_per_sequence_oracle():
    """A (B, T, M) batch gives each sequence's (T, D) output within 1e-12 of
    the per-step oracle and the summed gradients within 1e-9 of max(|g|, 1),
    whatever rows of the output gradient each sequence leaves at zero."""
    rng = np.random.default_rng(9)
    for _ in range(30):
        B, T, M, D = (int(v) for v in rng.integers(1, (6, 41, 9, 13)))
        x = rng.standard_normal((B, T, M))
        w_x, w_h, b = (0.5 * rng.standard_normal(s) for s in ((M, 4 * D), (D, 4 * D), 4 * D))
        g = rng.standard_normal((B, T, D))
        for seq in g:
            seq[int(rng.integers(0, T + 1)):] = 0.0  # ragged live lengths
        params = [dc.param(w_x), dc.param(w_h), dc.param(b)]
        out = dc.lstm(x, *params)
        assert out.data.shape == (B, T, D)
        dc.backward(dc.sum_all(dc.mul(out, dc.const(g))))
        expect = [np.zeros_like(p.data) for p in params]
        for xb, hb, gb in zip(x, out.data, g):
            expect_h, expect_bk = oracle_lstm(xb, w_x, w_h, b)
            np.testing.assert_allclose(hb, expect_h, rtol=0, atol=1e-12)
            expect = [e + d for e, d in zip(expect, expect_bk(gb))]
        for p, want in zip(params, expect):
            assert np.all(np.abs(p.grad - want) <= 1e-9 * np.maximum(np.abs(want), 1.0))


def test_lstm_saturated_gate_raises_no_overflow_warning():
    """An input-gate pre-activation of about -1000 overflows the sigmoid's exp:
    the gate is exactly 0, no RuntimeWarning escapes the op, and the hidden
    sequence equals the per-step oracle's, for one sequence and a batch."""
    rng = np.random.default_rng(12)
    x = 100.0 * np.ones((5, 2))
    w_x, w_h = 0.1 * rng.standard_normal((2, 12)), 0.1 * rng.standard_normal((3, 12))
    w_x[:, 0:2] = -5.0
    b = np.zeros(12)
    with np.errstate(over="ignore"):  # the oracle's own exp overflows
        expect_h, _ = oracle_lstm(x, w_x, w_h, b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        params = [dc.param(w_x), dc.param(w_h), dc.param(b)]
        out = dc.lstm(x, *params)
        batch = dc.lstm(np.stack([x, x]), *params)
        dc.backward(dc.sum_all(out))
    assert np.array_equal(out.data, expect_h)
    assert np.array_equal(batch.data, np.stack([expect_h, expect_h]))


@pytest.mark.parametrize("w_x, w_h, b, x", [
    ((3, 6), (1, 6), (6,), (5, 3)),  # 4D not divisible by 4
    ((3, 8), (3, 8), (8,), (5, 3)),  # w_h must be (D, 4D)
    ((3, 8), (2, 4), (8,), (5, 3)),
    ((3, 8), (2, 8), (4,), (5, 3)),  # b must be (4D,)
    ((3, 8), (2, 8), (8,), (5, 4)),  # input width differs from w_x's rows
    ((3, 8), (2, 8), (8,), (5,)),  # neither (T, M) nor (B, T, M)
    ((3, 8), (2, 8), (8,), (2, 2, 5, 3)),
])
def test_lstm_shape_errors(w_x, w_h, b, x):
    with pytest.raises(ShapeError):
        dc.lstm(np.zeros(x), dc.param(np.zeros(w_x)), dc.param(np.zeros(w_h)),
                dc.param(np.zeros(b)))


def test_composite_model_gradcheck():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((4, 3))
    w1 = rmat(rng, 3, 5)
    b1 = rmat(rng, 5)
    w2 = rmat(rng, 5, 1)
    q = rmat(rng, 4)

    def build():
        h = dc.tanh(dc.add(dc.matmul(dc.const(x), w1), b1))
        b_row = dc.reshape(b1, (1, 5))
        s = dc.softmax(dc.reshape(dc.matmul(h, dc.transpose(
            dc.take_rows(dc.concat([b_row, b_row], axis=0), [0]))), (4,)))
        ws = dc.sum_all(dc.mul(s, q))
        out = dc.matmul(h, w2)
        mean = dc.reshape(dc.mean_pool(dc.sigmoid(out), axis=0), ())
        return dc.add(mean, dc.mul(ws, ws))

    check_op(build, [w1, b1, w2, q], tol=1e-4)


def test_numerics_error_names_offending_op():
    a = dc.param(np.array([-1.0, 1.0]))
    big = dc.mul_scalar(a, 1e308)
    with pytest.raises(NumericsError, match="exp") as info:
        dc.exp(big)
    assert info.value.index == (1,) and info.value.shape == (2,)


def test_finite_outputs_whose_sum_overflows_pass():
    # every entry finite, their sum not: the check must look at the entries
    big = dc.const(np.full((2, 3), 1.5e308))
    out = dc.add(big, dc.const(np.zeros((2, 3))))
    with np.errstate(over="ignore"):
        assert np.isinf(out.data.sum())
    assert np.all(np.isfinite(out.data))
    assert np.all(np.isfinite(dc.transpose(out).data))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_output_names_op_first_index_and_shape(bad):
    x = np.zeros((2, 3, 4))
    x[1, 2, 0] = x[1, 2, 3] = bad
    with pytest.raises(NumericsError, match="op 'add'") as info:
        dc.add(dc.const(x), dc.param(np.ones(4)))
    assert info.value.index == (1, 2, 0) and info.value.shape == (2, 3, 4)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_transposed_output_indexed_as_its_own_shape(bad):
    # a non-contiguous output: the index is in the transposed array's axes
    x = np.zeros((2, 3))
    x[0, 2] = x[1, 1] = bad
    with pytest.raises(NumericsError, match="op 'transpose'") as info:
        dc.transpose(dc.param(x))
    assert info.value.index == (1, 1) and info.value.shape == (3, 2)


def test_adjoints_skip_constant_operands():
    rng = np.random.default_rng(12)
    x, k = rmat(rng, 3, 3), dc.const(rng.uniform(0.5, 2.0, (3, 3)))
    x3, k3 = rmat(rng, 2, 3, 3), dc.const(rng.standard_normal((2, 3, 3)))
    v, kv = rmat(rng, 3), dc.const(rng.standard_normal(3))
    cases = [(dc.matmul, x, k), (dc.bmm, x3, k3), (dc.mul, x, k), (dc.div, x, k),
             (dc.add, x, k), (dc.sub, x, k), (dc.add, x, kv), (dc.mul, x, kv),
             (dc.add, v, k), (dc.mul, v, k)]
    for op, live, fixed in cases:
        for args in ((live, fixed), (fixed, live)):
            out = op(*args)
            contributions = list(out._backward(np.ones_like(out.data)))
            assert [p for p, _ in contributions] == [live], op.__name__


def test_non_scalar_backward_rejected():
    a = dc.param(np.ones(3))
    with pytest.raises(ShapeError):
        dc.backward(dc.sigmoid(a))


class TestAdam:
    def make_store(self):
        store = dc.ParamStore()
        store.add("w", np.array([2.0]))
        return store

    def test_first_step_magnitude(self):
        # With a unit gradient, m_hat = 1 and sqrt(v_hat) = 1 after bias
        # correction, so the first move is exactly lr/(1 + eps).
        store = self.make_store()
        w = store["w"]
        loss = dc.sum_all(w)
        store.zero_grad()
        dc.backward(loss)
        state = dc.AdamState(lr=0.01)
        dc.adam_step(store, state)
        expect = 2.0 - 0.01 * (1.0 / (1.0 + 1e-8))
        assert w.data[0] == pytest.approx(expect, abs=1e-14)

    def test_zero_grad_step_only_decays(self):
        store = self.make_store()
        store.zero_grad()
        state = dc.AdamState(lr=0.1, weight_decay=0.5)
        dc.adam_step(store, state)
        assert store["w"].data[0] == pytest.approx(2.0 * (1.0 - 0.1 * 0.5), abs=1e-12)

    def test_no_backward_raises(self):
        store = self.make_store()
        with pytest.raises(StateError):
            dc.adam_step(store, dc.AdamState(lr=0.1))

    def test_deterministic(self):
        def run():
            store = dc.ParamStore()
            rng = np.random.default_rng(5)
            store.add("a", rng.standard_normal((3, 3)))
            store.add("b", rng.standard_normal(3))
            state = dc.AdamState(lr=0.01, weight_decay=0.01)
            for _ in range(5):
                store.zero_grad()
                loss = dc.sum_all(dc.sigmoid(dc.add(
                    dc.matmul(store["a"], store["a"]), store["b"])))
                dc.backward(loss)
                dc.adam_step(store, state)
            return {n: p.data.copy() for n, p in store.items()}

        r1, r2 = run(), run()
        for n in r1:
            np.testing.assert_array_equal(r1[n], r2[n])

    def test_loss_decreases(self):
        store = dc.ParamStore()
        rng = np.random.default_rng(9)
        store.add("w", rng.standard_normal((4, 4)))
        state = dc.AdamState(lr=0.05)
        losses = []
        for _ in range(30):
            store.zero_grad()
            loss = dc.sum_all(dc.mul(store["w"], store["w"]))
            dc.backward(loss)
            dc.adam_step(store, state)
            losses.append(float(loss.data))
        assert losses[-1] < losses[0]


# ---------------------------------------------------------------------------
# oracles: the per-tensor Adam step and the id()-keyed backward walk that the
# flat parameter arena and the slot-held gradients replaced
# ---------------------------------------------------------------------------

def oracle_backward(loss):
    """Depth-first post-order, then a reverse walk keeping (buffer, owned) per id()."""
    order = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))

    grads = {id(loss): (np.ones(()), True)}

    def accumulate(t, contrib):
        cur = grads.get(id(t))
        if cur is None:
            grads[id(t)] = (contrib, False)
        elif cur[1]:
            buf = cur[0]
            buf += contrib
        else:
            grads[id(t)] = (np.asarray(cur[0] + contrib), True)

    for node in reversed(order):
        g = grads.pop(id(node))[0]
        if node._backward is None:
            if node.grad is None:
                node.grad = np.array(g)
            else:
                node.grad += g
        else:
            for parent, contrib in node._backward(g):
                if parent.requires_grad:
                    accumulate(parent, contrib)


def oracle_adam_step(params, grads, state):
    """One step over {name: array} in sorted-name order, moments in per-name dicts."""
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for name in sorted(params):
        p, g = params[name], grads[name]
        if state.weight_decay:
            p -= state.lr * state.weight_decay * p
        if name not in state.m:
            state.m[name], state.v[name] = np.zeros_like(p), np.zeros_like(p)
        m, v = state.m[name], state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


@pytest.mark.parametrize("weight_decay", [0.0, 0.03])
def test_adam_matches_per_tensor_oracle(weight_decay):
    """Parameters bit-identical to the per-tensor step after 10 steps, on
    random stores with 0-d tensors, added in shuffled name order."""
    rng = np.random.default_rng(21)
    for case in range(6):
        shapes = {f"p{i}": tuple(int(n) for n in rng.integers(1, 5, rng.integers(0, 4)))
                  for i in range(int(rng.integers(1, 9)))}
        shapes["eps"] = ()
        store = dc.ParamStore()
        for name in rng.permutation(sorted(shapes)):
            store.add(str(name), rng.standard_normal(shapes[name]))
        expect = {name: t.data.copy() for name, t in store.items()}
        state = dc.AdamState(lr=0.01, weight_decay=weight_decay)
        ostate = SimpleNamespace(lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8,
                                 weight_decay=weight_decay, step_count=0, m={}, v={})
        for step in range(10):
            store.zero_grad()
            grads = {name: 10.0 ** rng.uniform(-6, 2) * rng.standard_normal(shape)
                     for name, shape in shapes.items()}
            if step == 3:
                grads["eps"] = np.zeros(())
            for name, t in store.items():
                t.grad[...] = grads[name]
            dc.adam_step(store, state)
            oracle_adam_step(expect, grads, ostate)
        for name, t in store.items():
            assert np.array_equal(t.data, expect[name]), (case, name)


def readme_shape_loss(batch):
    """The mean train objective over ``batch`` subjects at the README demo shape."""
    cfg = tv.TrainConfig()
    rng = np.random.default_rng(batch)
    subjects = [RoiTimeSeries(f"s{i}", rng.standard_normal((120, 10)), i % 2)
                for i in range(batch)]
    preps = tv.prepare_dataset(subjects, cfg)
    dims = tv.make_dims(preps, cfg)
    store = model.init_params(dims, cfg.seed)
    total = model.batch_loss_parts(store, dims, preps, cfg.contrastive())[0]
    return store, dc.mul_scalar(dc.sum_all(total), 1.0 / batch)


@pytest.mark.parametrize("batch", [1, 4])
def test_backward_matches_dict_walk_on_full_model(batch):
    store, loss = readme_shape_loss(batch)
    store.zero_grad()
    dc.backward(loss)
    got = {name: t.grad.copy() for name, t in store.items()}
    store.zero_grad()
    oracle_backward(loss)
    for name, t in store.items():
        assert np.array_equal(got[name], t.grad), name
    assert any(g.any() for g in got.values())


def diamond():
    rng = np.random.default_rng(31)
    x, w = rmat(rng, 3, 4), rmat(rng, 4, 4)
    h = dc.matmul(x, w)
    left, right = dc.tanh(h), dc.sigmoid(h)  # h has two consumers that meet again
    return [x, w], dc.sum_all(dc.mul(dc.add(left, h), right))


def multi_consumer():
    rng = np.random.default_rng(32)
    a, v = rmat(rng, 5), dc.param(1.7)
    s = dc.sqrt(dc.mul(v, v))  # a 0-d node with seven consumers
    h = dc.tanh(a)  # a vector node with four, one through a broadcast
    total = dc.sum_all(dc.mul(h, h))
    for i in range(7):
        total = dc.add(total, dc.mul_scalar(s, 1.0 + 0.1 * i))
    total = dc.add(total, dc.sum_all(dc.add(dc.reshape(h, (1, 5)), dc.const(np.ones((3, 5))))))
    return [a, v], dc.add(total, dc.sum_all(dc.scale(h, s)))


@pytest.mark.parametrize("build", [diamond, multi_consumer])
def test_backward_matches_dict_walk_on_shared_nodes(build):
    leaves, loss = build()
    dc.backward(loss)
    got = [t.grad.copy() for t in leaves]
    for t in leaves:
        t.grad = None
    oracle_backward(loss)
    for t, g in zip(leaves, got):
        assert np.array_equal(g, t.grad)


def test_backward_interrupted_by_an_adjoint_leaves_no_walk_state():
    x = dc.param(np.arange(3.0))
    h = dc.tanh(x)

    def failing(g):
        raise RuntimeError("adjoint failed")

    broken = dc.Tensor(np.asarray(h.data.sum()), True, (h,), failing, "broken")
    with pytest.raises(RuntimeError, match="adjoint failed"):
        dc.backward(dc.mul_scalar(broken, 2.0))
    assert x._pending is None and h._pending is None and broken._pending is None
    dc.backward(dc.sum_all(h))
    np.testing.assert_array_equal(x.grad, 1.0 - h.data * h.data)


def assert_in_arena(store):
    """Every tensor's data and grad are views into the store's two buffers,
    packed without gaps in sorted-name order (``items`` lays them out if a
    tensor was added since the last use)."""
    lo = 0
    for name, t in store.items():
        for arr, buf in ((t.data, store._data), (t.grad, store._grad)):
            assert arr is not None and arr.flags.c_contiguous, name
            offset = arr.__array_interface__["data"][0] - buf.__array_interface__["data"][0]
            assert np.shares_memory(arr, buf) and offset == 8 * lo, name
        lo += t.data.size
    assert lo == store._data.size == store._grad.size


def test_arena_views_survive_load_gradcheck_and_zero_grad(tmp_path):
    rng = np.random.default_rng(0)
    ts = RoiTimeSeries("s", rng.standard_normal((30, 4)), 1)
    cfg = tv.TrainConfig(window_size=10, stride=5, hidden_dim=4, proj_dim=4, delta=1)
    preps = tv.prepare_dataset([ts], cfg)
    dims = tv.make_dims(preps, cfg)
    store = model.init_params(dims, 0)
    assert_in_arena(store)
    assert not store._grad.any()

    path = str(tmp_path / "m.ckpt")
    dc.save_params(path, model.init_params(dims, 1))
    dc.load_into(store, path)
    assert_in_arena(store)
    for (_, t), (_, u) in zip(store.items(), model.init_params(dims, 1).items()):
        np.testing.assert_array_equal(t.data, u.data)

    def build():
        return model.subject_loss_parts(store, dims, preps[0], cfg.contrastive())[0]

    coords = dc.sample_coords(store.items(), 30, rng)
    report = dc.finite_diff_check(build, store.items(), coords)
    assert report.max_rel_err < 1e-4
    assert_in_arena(store)
    assert store._grad.any()

    store.zero_grad()
    assert_in_arena(store)
    assert not store._grad.any()
    dc.backward(build())
    dc.adam_step(store, dc.AdamState(lr=1e-3))
    assert_in_arena(store)


def test_add_after_use_lays_the_arena_out_again():
    store = dc.ParamStore()
    a, c = store.add("a", np.arange(3.0)), store.add("c", np.array(5.0))
    store.zero_grad()
    a.grad[...] = 1.0
    c.grad[...] = 2.0
    b = store.add("b", np.ones((2, 2)))
    assert store.names() == ["a", "b", "c"]
    assert_in_arena(store)
    np.testing.assert_array_equal(store._data, [0, 1, 2, 1, 1, 1, 1, 5])
    np.testing.assert_array_equal(store._grad, [1, 1, 1, 0, 0, 0, 0, 2])
    assert store["a"] is a and store["b"] is b and store["c"] is c


def test_adam_rejects_a_detached_parameter():
    store = dc.ParamStore()
    store.add("a", np.ones(3))
    store.add("b", np.ones(2))
    store.zero_grad()
    store["b"].data = np.zeros(2)  # a new array: adam_step could not update it
    with pytest.raises(StateError, match="'b'"):
        dc.adam_step(store, dc.AdamState(lr=0.1))


class TestCheckpoint:
    def make_store(self, seed=0):
        store = dc.ParamStore()
        rng = np.random.default_rng(seed)
        store.add("cdgin.layer0.r.mlp.w1", rng.standard_normal((4, 8)))
        store.add("encoder.lstm.b", rng.standard_normal(12))
        store.add("eps", np.array(0.0))
        return store

    def test_round_trip_bit_identical(self, tmp_path):
        store = self.make_store()
        path = str(tmp_path / "model.ckpt")
        dc.save_params(path, store)
        fresh = self.make_store(seed=99)
        dc.load_into(fresh, path)
        for (n1, p1), (n2, p2) in zip(store.items(), fresh.items()):
            assert n1 == n2
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_save_is_deterministic(self, tmp_path):
        store = self.make_store()
        p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        dc.save_params(p1, store)
        dc.save_params(p2, store)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTCKPT" + b"\x00" * 32)
        with pytest.raises(ParseError, match="magic"):
            dc.load_params(str(path))

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(dc.CHECKPOINT_MAGIC + np.uint32([999, 0]).tobytes())
        with pytest.raises(ParseError, match="schema_version"):
            dc.load_params(str(path))

    def test_truncated_rejected(self, tmp_path):
        store = self.make_store()
        path = str(tmp_path / "model.ckpt")
        dc.save_params(path, store)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-5])
        with pytest.raises(ParseError):
            dc.load_params(path)

    # 8 and 12 cut the version/count words, 15 the first name length, 20 the
    # name itself, 40 its shape
    @pytest.mark.parametrize("cut", [8, 12, 15, 20, 40])
    def test_truncated_header_rejected(self, tmp_path, cut):
        path = str(tmp_path / "model.ckpt")
        dc.save_params(path, self.make_store())
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:cut])
        with pytest.raises(ParseError, match="model.ckpt"):
            dc.load_params(path)

    def test_invalid_utf8_name_rejected(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        dc.save_params(path, self.make_store())
        blob = bytearray(open(path, "rb").read())
        blob[16] = 0xFF  # first byte of the first parameter name
        open(path, "wb").write(bytes(blob))
        with pytest.raises(ParseError, match="model.ckpt"):
            dc.load_params(path)

    # one parameter whose shape claims more float64s than the file holds: the
    # first two wrap numpy's element product (to a negative read length and to
    # an overflow), the third is representable but larger than the file
    @pytest.mark.parametrize("shape", [(2 ** 32 - 1, 2 ** 32 - 1),
                                       (2 ** 32 - 1, 2 ** 31), (1000, 1000)])
    def test_oversized_shape_rejected(self, tmp_path, shape):
        path = str(tmp_path / "model.ckpt")
        open(path, "wb").write(header_claiming(shape) + b"\x00" * 16)
        with pytest.raises(ParseError, match="model.ckpt"):
            dc.load_params(path)

    def test_rejected_load_changes_nothing(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        dc.save_params(path, self.make_store())
        other = dc.ParamStore()
        other.add("cdgin.layer0.r.mlp.w1", np.zeros((4, 8)))
        other.add("encoder.lstm.b", np.zeros(12))
        other.add("eps", np.zeros(2))  # last in name order, and the wrong shape
        with pytest.raises(ShapeError, match="'eps'"):
            dc.load_into(other, path)
        for name, t in other.items():
            assert not t.data.any(), name

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, tmp_path, bad):
        store = self.make_store()
        store["encoder.lstm.b"].data[5] = bad
        path = str(tmp_path / "model.ckpt")
        dc.save_params(path, store)
        fresh = self.make_store(seed=1)
        before = {name: t.data.copy() for name, t in fresh.items()}
        with pytest.raises(ParseError, match=r"model\.ckpt: non-finite value in "
                                             r"'encoder\.lstm\.b' at index \(5,\)"):
            dc.load_into(fresh, path)
        for name, t in fresh.items():
            np.testing.assert_array_equal(t.data, before[name])

    def test_name_mismatch_rejected(self, tmp_path):
        store = self.make_store()
        path = str(tmp_path / "model.ckpt")
        dc.save_params(path, store)
        other = dc.ParamStore()
        other.add("something.else", np.zeros(3))
        with pytest.raises(ParseError, match="names"):
            dc.load_into(other, path)

    def test_shape_mismatch_rejected(self, tmp_path):
        store = self.make_store()
        path = str(tmp_path / "model.ckpt")
        dc.save_params(path, store)
        other = self.make_store()
        other["eps"].data = np.zeros(2)
        with pytest.raises(ShapeError):
            dc.load_into(other, path)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-30, 30), min_size=1, max_size=12))
def test_softmax_is_distribution(vals):
    s = dc.softmax(dc.const(np.array(vals)))
    assert abs(float(s.data.sum()) - 1.0) < 1e-12
    assert np.all(s.data >= 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 6), st.integers(2, 6))
def test_matmul_grad_matches_fd_property(seed, n, m):
    rng = np.random.default_rng(seed)
    a = dc.param(rng.standard_normal((n, m)))
    b = dc.param(rng.standard_normal((m, n)))
    check_op(lambda: dc.sum_all(dc.tanh(dc.matmul(a, b))), [a, b], tol=1e-5)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_glorot_within_limit(seed):
    rng = np.random.default_rng(seed)
    w = dc.glorot_uniform(rng, (5, 7), fan_in=5, fan_out=7)
    limit = np.sqrt(6.0 / 12.0)
    assert np.all(np.abs(w) <= limit)
