"""Gradient, optimizer, and checkpoint tests for the autodiff core.

Every ``diffcore`` primitive's adjoint is checked against central finite
differences on random inputs; tiny closed-form cases are asserted exactly.
The graphs of the backward-walk tests are built from the primitives of
``composite_layers`` too, which ``test_layer_kernels`` checks the same way.
"""

import struct
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdgl import cdgin
from cdgl import diffcore as dc
from cdgl import model
from cdgl import train_eval as tv
from cdgl.data_io import RoiTimeSeries
from cdgl.errors import NumericsError, ParseError, ShapeError, StateError

from composite_layers import (
    bmm, div, exp, linear, matmul, mean_pool, mul, scale, sigmoid, softmax, sqrt, sub,
    take_rows, tanh, textbook_adam_step, transpose)
from test_cdgin import make_layer_params


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
    """Checkpoint bytes, with an empty JSON header, up to the data of one
    parameter 'w' of ``shape``."""
    return (dc.CHECKPOINT_MAGIC + struct.pack("<II", dc.CHECKPOINT_SCHEMA_VERSION, 2) + b"{}"
            + struct.pack("<IH", 1, 1) + b"w"
            + struct.pack(f"<B{len(shape)}I", len(shape), *shape))


def test_square_at_three_grad_is_six():
    w = dc.param(3.0)
    y = mul(w, w)
    dc.backward(y)
    assert w.grad == pytest.approx(6.0, abs=1e-15)


def test_sigmoid_sum_grad_at_zero_is_quarter():
    x = dc.param(np.zeros(4))
    loss = dc.sum_all(sigmoid(x))
    dc.backward(loss)
    np.testing.assert_allclose(x.grad, 0.25, rtol=0, atol=1e-15)


def test_backward_twice_doubles_leaf_grads():
    # a graph is walked once; a rebuilt one accumulates into the same leaves
    rng = np.random.default_rng(0)
    a = rmat(rng, 3, 4)
    b = rmat(rng, 4, 2)
    dc.backward(dc.sum_all(tanh(matmul(a, b))))
    first = a.grad.copy(), b.grad.copy()
    dc.backward(dc.sum_all(tanh(matmul(a, b))))
    np.testing.assert_array_equal(a.grad, 2.0 * first[0])
    np.testing.assert_array_equal(b.grad, 2.0 * first[1])


def test_scalar_node_with_many_consumers():
    # regression: 0-d numpy arithmetic yields immutable scalars, which once
    # dropped every accumulation past the second into a shared node
    for k in (2, 3, 4, 7):
        a = dc.param(2.0)
        s = sqrt(a)
        total = dc.mul_scalar(s, 1.0)
        for i in range(1, k):
            total = dc.add(total, dc.mul_scalar(s, 1.0 + 0.1 * i))
        dc.backward(total)
        expect = sum(1.0 + 0.1 * i for i in range(k)) * 0.5 / np.sqrt(2.0)
        assert float(a.grad) == pytest.approx(expect, rel=1e-12)


def test_grad_accumulation_is_linear():
    rng = np.random.default_rng(1)
    x = rmat(rng, 5)

    def l1():
        return dc.sum_all(mul(x, x))

    def l2():
        return dc.sum_all(sigmoid(x))

    x.grad = None
    dc.backward(l1())
    g1 = x.grad.copy()
    x.grad = None
    dc.backward(l2())
    g2 = x.grad.copy()
    x.grad = None
    dc.backward(dc.add(l1(), l2()))
    np.testing.assert_allclose(x.grad, g1 + g2, rtol=0, atol=1e-12)


class TestPrimitiveGradients:
    rng = np.random.default_rng(42)

    def test_add(self):
        a, b = rmat(self.rng, 3, 4), rmat(self.rng, 3, 4)
        check_op(lambda: dc.sum_all(mul(dc.add(a, b), dc.add(a, b))), [a, b])

    def test_add_broadcast(self):
        m, v = rmat(self.rng, 3, 4), rmat(self.rng, 4)
        check_op(lambda: dc.sum_all(tanh(dc.add(m, v))), [m, v])  # bias row
        u, w = rmat(self.rng, 3, 1, 4), rmat(self.rng, 1, 5, 4)
        check_op(lambda: dc.sum_all(tanh(dc.add(u, w))), [u, w])  # same rank
        col = rmat(self.rng, 3, 1)
        check_op(lambda: dc.sum_all(tanh(dc.add(col, m))), [col, m])
        for a, b in (((4,), (4, 1)),  # rank mismatch: would be a (4, 4) outer sum
                     ((3, 4), (3,)),  # rank mismatch on a leading axis
                     ((2, 3), (3, 3)), ((3, 1, 4), (5, 4))):
            with pytest.raises(ShapeError):
                dc.add(dc.const(np.zeros(a)), dc.const(np.zeros(b)))

    def test_mul_scalar_scale(self):
        a = rmat(self.rng, 3, 4)
        for c in (1.3, -0.4):
            check_op(lambda c=c: dc.sum_all(tanh(dc.mul_scalar(a, c))), [a])

    def test_matmul(self):
        a, b = rmat(self.rng, 3, 4), rmat(self.rng, 4, 2)
        check_op(lambda: dc.sum_all(tanh(matmul(a, b))), [a, b])

    def test_concat(self):
        a, b = rmat(self.rng, 2, 3), rmat(self.rng, 2, 3)
        check_op(lambda: dc.sum_all(tanh(dc.concat([a, b], axis=0))), [a, b])
        check_op(lambda: dc.sum_all(tanh(dc.concat([a, b], axis=1))), [a, b])

    def test_lstm_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        T, M, D = 6, 3, 4
        x = rng.standard_normal((1, T, M))
        w_x = rmat(rng, M, 4 * D)
        w_h = rmat(rng, D, 4 * D)
        b = rmat(rng, 4 * D)
        check_op(lambda: dc.sum_all(mul(dc.lstm(x, w_x, w_h, b),
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
    out = dc.lstm(x[None], dc.param(w_x), dc.param(w_h), dc.param(b))
    np.testing.assert_allclose(out.data[0], np.array(expect), rtol=0, atol=1e-10)


def oracle_lstm(x, w_x, w_h, b):
    """The fused LSTM as one Python step per timestep both ways, as it was
    before the local derivative factors were hoisted out of the time loops.
    Returns the hidden sequence and its adjoint, g -> (dw_x, dw_h, db).

    A step's pre-activation is the op's own product: the rows [h | x_t | 1]
    times [W_h; W_x; b], gate columns reordered to [i, f, o, g], the
    sigmoid gates' columns negated and the matrix in C order, so its sums
    run in the op's order. A
    (B, T, M) batch multiplies its B rows at once, as the op does, and a
    (T, M) sequence is the batch of one."""
    xs = (x if x.ndim == 3 else x[None]).swapaxes(0, 1)  # (T, B, M)
    T, B = xs.shape[:2]
    D = w_x.shape[1] // 4
    w = np.ascontiguousarray(
        np.concatenate([w_h, w_x, b[None]])[:, np.r_[0:2 * D, 3 * D:4 * D, 2 * D:3 * D]])
    w[:, :3 * D] *= -1.0
    I, F, G, O, C, TC, Hprev = (np.empty((T, B, D)) for _ in range(7))
    h = np.zeros((B, D))
    c = np.zeros((B, D))
    for t in range(T):
        Hprev[t] = h
        z = np.concatenate([h, xs[t], np.ones((B, 1))], axis=1) @ w  # -a for i, f, o; a for g
        i_t = 1.0 / (1.0 + np.exp(z[:, :D]))
        f_t = 1.0 / (1.0 + np.exp(z[:, D:2 * D]))
        o_t = 1.0 / (1.0 + np.exp(z[:, 2 * D:3 * D]))
        g_t = np.tanh(z[:, 3 * D:])
        c = f_t * c + i_t * g_t
        tc = np.tanh(c)
        h = o_t * tc
        I[t], F[t], G[t], O[t], C[t], TC[t] = i_t, f_t, g_t, o_t, c, tc
    H = (O * TC).swapaxes(0, 1)

    def bk(g):
        gs = (g if g.ndim == 3 else g[None]).swapaxes(0, 1)
        DA = np.empty((T, B, 4 * D))
        dh = np.zeros((B, D))
        dc_ = np.zeros((B, D))
        for t in range(T - 1, -1, -1):
            dh = dh + gs[t]
            do = dh * TC[t]
            dc_ = dc_ + dh * O[t] * (1.0 - TC[t] * TC[t])
            di = dc_ * G[t]
            dg = dc_ * I[t]
            c_prev = C[t - 1] if t > 0 else np.zeros((B, D))
            df = dc_ * c_prev
            dc_ = dc_ * F[t]
            DA[t, :, :D] = di * I[t] * (1.0 - I[t])
            DA[t, :, D:2 * D] = df * F[t] * (1.0 - F[t])
            DA[t, :, 2 * D:3 * D] = dg * (1.0 - G[t] * G[t])
            DA[t, :, 3 * D:] = do * O[t] * (1.0 - O[t])
            dh = DA[t] @ w_h.T
        da = DA.reshape(T * B, 4 * D)
        return (xs.reshape(T * B, -1).T @ da, Hprev.reshape(T * B, D).T @ da,
                da.sum(axis=0))

    return (H if x.ndim == 3 else H[0]), bk


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
            out = dc.lstm(x[None], *params)
        assert np.array_equal(out.data[0], expect_h), (T, M, D, scale)
        dc.backward(dc.sum_all(mul(out, dc.const(g[None]))))
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
        dc.backward(dc.sum_all(mul(out, dc.const(g))))
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
        expect_batch, _ = oracle_lstm(np.stack([x, x]), w_x, w_h, b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        params = [dc.param(w_x), dc.param(w_h), dc.param(b)]
        out = dc.lstm(x[None], *params)
        batch = dc.lstm(np.stack([x, x]), *params)
        dc.backward(dc.sum_all(out))
    assert np.array_equal(out.data[0], expect_h)
    assert np.array_equal(batch.data, expect_batch)


@pytest.mark.parametrize("M, T", [(10, 110), (90, 230)])  # the README's and score's shapes
def test_lstm_sequence_bits_do_not_depend_on_a_batch_width_of_two_or_more(M, T):
    """Twelve sequences split into batches of 2, 3, 4 and 6 give hidden states
    bit-identical to the 12-wide batch: each step's products are row-form,
    so a sequence's sums do not depend on its batch's other rows. A batch
    of one is left out: its one-row products take another BLAS routine and
    may differ in the last bit (ROADMAP item 10)."""
    rng = np.random.default_rng(M)
    D = 16
    x = rng.standard_normal((12, T, M))
    params = [dc.param(0.3 * rng.standard_normal(s)) for s in ((M, 4 * D), (D, 4 * D), 4 * D)]
    whole = dc.lstm(x, *params).data
    for width in (2, 3, 4, 6):
        for lo in range(0, 12, width):
            part = dc.lstm(x[lo:lo + width], *params).data
            assert np.array_equal(part, whole[lo:lo + width]), (width, lo)


@pytest.mark.parametrize("w_x, w_h, b, x", [
    ((3, 6), (1, 6), (6,), (1, 5, 3)),  # 4D not divisible by 4
    ((3, 8), (3, 8), (8,), (1, 5, 3)),  # w_h must be (D, 4D)
    ((3, 8), (2, 4), (8,), (1, 5, 3)),
    ((3, 8), (2, 8), (4,), (1, 5, 3)),  # b must be (4D,)
    ((3, 8), (2, 8), (8,), (1, 5, 4)),  # input width differs from w_x's rows
    ((3, 8), (2, 8), (8,), (5,)),  # not a (B, T, M) batch
    ((3, 8), (2, 8), (8,), (5, 3)),  # one sequence's (T, M) rows; the B = 1 batch is
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
        h = tanh(dc.add(matmul(dc.const(x), w1), b1))
        b_row = dc.reshape(b1, (1, 5))
        s = softmax(dc.reshape(matmul(h, transpose(
            take_rows(dc.concat([b_row, b_row], axis=0), [0]))), (4,)))
        ws = dc.sum_all(mul(s, q))
        out = matmul(h, w2)
        mean = dc.reshape(mean_pool(sigmoid(out), axis=0), ())
        return dc.add(mean, mul(ws, ws))

    check_op(build, [w1, b1, w2, q], tol=1e-4)


def test_numerics_error_names_offending_op():
    a = dc.param(np.array([-1.0, 1.0]))
    big = dc.mul_scalar(a, 1e308)
    with pytest.raises(NumericsError, match="exp") as info:
        exp(big)
    assert info.value.index == (1,) and info.value.shape == (2,)


def test_finite_outputs_whose_sum_overflows_pass():
    # every entry finite, their sum not: the check must look at the entries
    big = dc.const(np.full((2, 3), 1.5e308))
    out = dc.add(big, dc.const(np.zeros((2, 3))))
    with np.errstate(over="ignore"):
        assert np.isinf(out.data.sum())
    assert np.all(np.isfinite(out.data))
    assert np.all(np.isfinite(transpose(out).data))


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
        transpose(dc.param(x))
    assert info.value.index == (1, 1) and info.value.shape == (3, 2)


def test_adjoints_skip_constant_operands():
    rng = np.random.default_rng(12)
    x, k = rmat(rng, 3, 3), dc.const(rng.uniform(0.5, 2.0, (3, 3)))
    x3, k3 = rmat(rng, 2, 3, 3), dc.const(rng.standard_normal((2, 3, 3)))
    v, kv = rmat(rng, 3), dc.const(rng.standard_normal(3))
    cases = [(matmul, x, k), (linear, x, k), (bmm, x3, k3), (mul, x, k), (div, x, k),
             (dc.add, x, k), (sub, x, k), (dc.add, x, kv), (mul, x, kv),
             (dc.add, v, k), (mul, v, k)]
    for op, live, fixed in cases:
        for args in ((live, fixed), (fixed, live)):
            out = op(*args)
            contributions = list(out._backward(np.ones_like(out.data)))
            assert [p for p, _ in contributions] == [live], op.__name__


def test_non_scalar_backward_rejected():
    a = dc.param(np.ones(3))
    with pytest.raises(ShapeError):
        dc.backward(sigmoid(a))


class TestAdam:
    def make_store(self):
        return dc.ParamStore({"w": np.array([2.0])})

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
            rng = np.random.default_rng(5)
            store = dc.ParamStore({"a": rng.standard_normal((3, 3)),
                                   "b": rng.standard_normal(3)})
            state = dc.AdamState(lr=0.01, weight_decay=0.01)
            for _ in range(5):
                store.zero_grad()
                loss = dc.sum_all(sigmoid(dc.add(
                    matmul(store["a"], store["a"]), store["b"])))
                dc.backward(loss)
                dc.adam_step(store, state)
            return {n: p.data.copy() for n, p in store.items()}

        r1, r2 = run(), run()
        for n in r1:
            np.testing.assert_array_equal(r1[n], r2[n])

    def test_loss_decreases(self):
        rng = np.random.default_rng(9)
        store = dc.ParamStore({"w": rng.standard_normal((4, 4))})
        state = dc.AdamState(lr=0.05)
        losses = []
        for _ in range(30):
            store.zero_grad()
            loss = dc.sum_all(mul(store["w"], store["w"]))
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


def adam_state(weight_decay):
    """Hyperparameters and empty moments for ``textbook_adam_step``."""
    return SimpleNamespace(lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8,
                           weight_decay=weight_decay, step_count=0, m={}, v={})


@pytest.mark.parametrize("weight_decay", [0.0, 0.03])
def test_adam_matches_per_tensor_oracle(weight_decay):
    """Parameters bit-identical to the per-tensor step after 10 steps, on
    random stores with 0-d tensors, given in shuffled name order."""
    rng = np.random.default_rng(21)
    for case in range(6):
        shapes = {f"p{i}": tuple(int(n) for n in rng.integers(1, 5, rng.integers(0, 4)))
                  for i in range(int(rng.integers(1, 9)))}
        shapes["eps"] = ()
        store = dc.ParamStore({str(name): rng.standard_normal(shapes[name])
                               for name in rng.permutation(sorted(shapes))})
        expect = {name: t.data.copy() for name, t in store.items()}
        state = dc.AdamState(lr=0.01, weight_decay=weight_decay)
        ostate = adam_state(weight_decay)
        for step in range(10):
            store.zero_grad()
            grads = {name: 10.0 ** rng.uniform(-6, 2) * rng.standard_normal(shape)
                     for name, shape in shapes.items()}
            if step == 3:
                grads["eps"] = np.zeros(())
            for name, t in store.items():
                t.grad[...] = grads[name]
            dc.adam_step(store, state)
            textbook_adam_step(expect, grads, ostate)
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
    # the oracle walks first: backward releases the graph it walks
    store, loss = readme_shape_loss(batch)
    store.zero_grad()
    oracle_backward(loss)
    want = {name: t.grad.copy() for name, t in store.items()}
    store.zero_grad()
    dc.backward(loss)
    for name, t in store.items():
        assert np.array_equal(t.grad, want[name]), name
    assert any(g.any() for g in want.values())


def diamond():
    rng = np.random.default_rng(31)
    x, w = rmat(rng, 3, 4), rmat(rng, 4, 4)
    h = matmul(x, w)
    left, right = tanh(h), sigmoid(h)  # h has two consumers that meet again
    return [x, w], dc.sum_all(mul(dc.add(left, h), right))


def multi_consumer():
    rng = np.random.default_rng(32)
    a, v = rmat(rng, 5), dc.param(1.7)
    s = sqrt(mul(v, v))  # a 0-d node with seven consumers
    h = tanh(a)  # a vector node with four, one through a broadcast
    total = dc.sum_all(mul(h, h))
    for i in range(7):
        total = dc.add(total, dc.mul_scalar(s, 1.0 + 0.1 * i))
    total = dc.add(total, dc.sum_all(dc.add(dc.reshape(h, (1, 5)), dc.const(np.ones((3, 5))))))
    return [a, v], dc.add(total, dc.sum_all(scale(h, s)))


@pytest.mark.parametrize("build", [diamond, multi_consumer])
def test_backward_matches_dict_walk_on_shared_nodes(build):
    leaves, loss = build()
    oracle_backward(loss)  # first: backward releases the graph it walks
    want = [t.grad.copy() for t in leaves]
    for t in leaves:
        t.grad = None
    dc.backward(loss)
    for t, g in zip(leaves, want):
        assert np.array_equal(t.grad, g)


def test_backward_interrupted_by_an_adjoint_leaves_no_walk_state():
    x = dc.param(np.arange(3.0))
    h = tanh(x)

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
    packed without gaps in sorted-name order."""
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


def test_adam_rejects_a_detached_parameter():
    store = dc.ParamStore({"a": np.ones(3), "b": np.ones(2)})
    store.zero_grad()
    store["b"].data = np.zeros(2)  # a new array: adam_step could not update it
    with pytest.raises(StateError, match="'b'"):
        dc.adam_step(store, dc.AdamState(lr=0.1))


class TestNoGradView:
    def test_shares_the_buffers_without_gradients(self):
        store = stores(1)[0]
        view = store.no_grad()
        assert view is store.no_grad() and view.names() == store.names()
        assert (view.n_folds, len(view)) == (1, 3)
        for name, t in view.items():
            assert not t.requires_grad and t.grad is None
            assert np.shares_memory(t.data, store._data)
            np.testing.assert_array_equal(t.data, store[name].data)
        store["b"].data[...] = 4.0
        np.testing.assert_array_equal(view["b"].data, 4.0)

    def test_ops_on_it_build_no_graph(self):
        store = stores(1)[0]
        view = store.no_grad()
        x = dc.const(np.ones((4, 3)))
        out = dc.sum_all(tanh(linear(x, view["w"])))
        assert not out.requires_grad and out._parents == () and out._backward is None
        with_graph = dc.sum_all(tanh(linear(x, store["w"])))
        assert out.data == with_graph.data and with_graph._parents

    def test_sees_a_later_load(self, tmp_path):
        store, other = stores(2)
        view = store.no_grad()
        path = str(tmp_path / "other.ckpt")
        dc.save_params(path, other)
        dc.load_into(store, path)
        assert store.no_grad() is view
        for name, t in view.items():
            np.testing.assert_array_equal(t.data, other[name].data)

    def test_of_a_stacked_store_and_of_its_folds(self):
        stacked = dc.ParamStore.stack(stores(3))
        view = stacked.no_grad()
        assert view.n_folds == 3 and np.shares_memory(view["w"].data, stacked["w"].data)
        np.testing.assert_array_equal(view["w"].data, stacked["w"].data)
        one = stacked.fold(1).no_grad()
        assert one.n_folds == 1 and np.shares_memory(one["w"].data, stacked["w"].data[1])

    def test_takes_no_adam_step_and_no_parameters(self, tmp_path):
        store = stores(1)[0]
        view = store.no_grad()
        with pytest.raises(StateError, match="no gradients"):
            dc.adam_step(view, dc.AdamState(lr=0.1))
        before = store._data.copy()
        dc.save_params(str(tmp_path / "m.ckpt"), stores(2, seed=1)[1])
        with pytest.raises(StateError, match="no_grad view"):
            dc.load_into(view, str(tmp_path / "m.ckpt"))
        np.testing.assert_array_equal(store._data, before)


class TestCheckpoint:
    def make_store(self, seed=0):
        rng = np.random.default_rng(seed)
        return dc.ParamStore({"cdgin.layer0.r.mlp.w1": rng.standard_normal((4, 8)),
                              "encoder.lstm.b": rng.standard_normal(12),
                              "eps": np.array(0.0)})

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

    def test_header_round_trip(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        dc.save_params(path, self.make_store(), {"b": [1, 2], "a": {"x": 0.1}})
        header, values = dc.load_params(path)
        assert header == {"a": {"x": 0.1}, "b": [1, 2]}
        assert sorted(values) == self.make_store().names()
        dc.save_params(path, self.make_store())  # header-less: an empty header
        assert dc.load_params(path)[0] == {}
        with open(path, "rb") as f:
            assert f.read()[10:16] == struct.pack("<I", 2) + b"{}"

    def test_schema_1_asks_for_retraining(self, tmp_path):
        path = tmp_path / "old.ckpt"
        path.write_bytes(dc.CHECKPOINT_MAGIC + struct.pack("<IIH", 1, 1, 1) + b"w"
                         + struct.pack("<B", 0) + b"\x00" * 8)
        with pytest.raises(ParseError, match=r"old\.ckpt: checkpoint schema 1 .*retrain"):
            dc.load_params(str(path))

    # a length word past the end of the file, text that is not JSON, JSON
    # followed by other bytes, JSON that is not an object, nesting past the
    # parser's recursion limit
    @pytest.mark.parametrize("meta_len, meta", [
        (2 ** 32 - 1, b"{}"), (5, b"{oops"), (6, b"{} {} "), (2, b"[]"),
        (100_000, b"[" * 100_000)])
    def test_bad_header_rejected(self, tmp_path, meta_len, meta):
        path = tmp_path / "model.ckpt"
        path.write_bytes(dc.CHECKPOINT_MAGIC
                         + struct.pack("<II", dc.CHECKPOINT_SCHEMA_VERSION, meta_len)
                         + meta + struct.pack("<I", 0))
        with pytest.raises(ParseError, match=r"model\.ckpt: .*header"):
            dc.load_params(str(path))

    def test_truncated_rejected(self, tmp_path):
        store = self.make_store()
        path = str(tmp_path / "model.ckpt")
        dc.save_params(path, store)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-5])
        with pytest.raises(ParseError):
            dc.load_params(path)

    # 8 and 12 cut the version and header-length words, 15 the JSON header,
    # 18 the count, 20 and 21 the first name length, 40 the name itself, 48
    # its shape
    @pytest.mark.parametrize("cut", [8, 12, 15, 18, 20, 21, 40, 48])
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
        blob[22] = 0xFF  # first byte of the first parameter name
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
        other = dc.ParamStore({"cdgin.layer0.r.mlp.w1": np.zeros((4, 8)),
                               "encoder.lstm.b": np.zeros(12),
                               "eps": np.zeros(2)})  # last in name order, and the wrong shape
        with pytest.raises(ParseError, match="'eps'"):
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
        other = dc.ParamStore({"something.else": np.zeros(3)})
        with pytest.raises(ParseError, match=r"model\.ckpt: tensor 'cdgin\.layer0\.r\.mlp\.w1' "
                                             r"is \(4, 8\) in the file but absent"):
            dc.load_into(other, path)

    def test_shape_mismatch_rejected(self, tmp_path):
        store = self.make_store()
        path = str(tmp_path / "model.ckpt")
        dc.save_params(path, store)
        other = dc.ParamStore({"cdgin.layer0.r.mlp.w1": np.zeros((8, 4)),  # same size
                               "encoder.lstm.b": np.zeros(12), "eps": np.array(0.0)})
        with pytest.raises(ParseError, match=r"'cdgin\.layer0\.r\.mlp\.w1' is \(4, 8\) "
                                             r"in the file but \(8, 4\)"):
            dc.load_into(other, path)

    def test_detached_tensor_leaves_the_arena_loaded(self, tmp_path):
        store = self.make_store()
        path = str(tmp_path / "model.ckpt")
        dc.save_params(path, store)
        other = self.make_store(seed=1)
        other["eps"].data = np.zeros(2)
        dc.load_into(other, path)
        np.testing.assert_array_equal(other._data, store._data)
        for name, t in other.no_grad().items():
            np.testing.assert_array_equal(t.data, store[name].data)
        np.testing.assert_array_equal(other["eps"].data, np.zeros(2))
        with pytest.raises(StateError, match="'eps' was given a new array"):
            dc.adam_step(other, dc.AdamState(lr=0.1))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 6), st.integers(2, 6))
def test_matmul_grad_matches_fd_property(seed, n, m):
    rng = np.random.default_rng(seed)
    a = dc.param(rng.standard_normal((n, m)))
    b = dc.param(rng.standard_normal((m, n)))
    check_op(lambda: dc.sum_all(tanh(matmul(a, b))), [a, b], tol=1e-5)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_glorot_within_limit(seed):
    rng = np.random.default_rng(seed)
    w = dc.glorot_uniform(rng, (5, 7), fan_in=5, fan_out=7)
    limit = np.sqrt(6.0 / 12.0)
    assert np.all(np.abs(w) <= limit)


# ---------------------------------------------------------------------------
# fold stacks: F models' parameters on a leading axis, their rows fold-major
# ---------------------------------------------------------------------------

class TestFoldStacks:
    rng = np.random.default_rng(40)

    @pytest.mark.parametrize("sa, sb", [((3, 3), (6, 3)), ((2, 4), (4, 4)), ((6, 4), (3, 4)),
                                        ((2, 3), (3, 3))])
    def test_plain_add_keeps_its_broadcast_rule(self, sa, sb):
        """``add`` has no per-fold rule, only numpy's broadcasting: equal-rank
        operands whose first axes differ, neither being 1, raise."""
        with pytest.raises(ShapeError):
            dc.add(dc.const(np.zeros(sa)), dc.const(np.zeros(sb)))

    @staticmethod
    def assert_stacked_lstm_equals_each_fold_alone(x, w_x, w_h, b, g):
        """Forward and gradients of each fold's block of a stacked LSTM are
        bit-identical to that fold's model run alone on its sequences."""
        F = w_x.data.shape[0]
        B = len(x) // F
        out = dc.lstm(x, w_x, w_h, b)
        grads = [grad for _, grad in out._backward(g)]
        for f in range(F):
            rows = slice(B * f, B * (f + 1))
            one = dc.lstm(x[rows], *(dc.param(t.data[f]) for t in (w_x, w_h, b)))
            np.testing.assert_array_equal(out.data[rows], one.data)
            for got, (_, want) in zip(grads, one._backward(g[rows])):
                np.testing.assert_array_equal(got[f], want)

    def test_stacked_lstm_equals_each_fold_alone(self):
        """3 folds of 2 sequences, and 4 folds of one sequence each at the
        README lockstep shape, as a ragged last batch meets it."""
        x = self.rng.standard_normal((6, 7, 3))
        w_x, w_h, b = (rmat(self.rng, 3, *s) for s in ((3, 8), (2, 8), (8,)))
        self.assert_stacked_lstm_equals_each_fold_alone(
            x, w_x, w_h, b, self.rng.standard_normal((6, 7, 2)))
        with pytest.raises(ShapeError):
            dc.lstm(x[:5], w_x, w_h, b)  # 5 sequences do not split into 3 folds
        F, T, M, D = 4, 110, 10, 16
        g = np.zeros((F, T, D))
        g[:, [34, 59, 84, 109]] = self.rng.standard_normal((F, 4, D))
        self.assert_stacked_lstm_equals_each_fold_alone(
            self.rng.standard_normal((F, T, M)),
            *(rmat(self.rng, F, *s) for s in ((M, 4 * D), (D, 4 * D), (4 * D,))), g)

    @pytest.mark.parametrize("T", [110, 120])
    def test_stacked_lstm_at_the_readme_lockstep_shape(self, T):
        """4 folds of 4 subjects, M = 10, D = 16, read at the README windows'
        endpoints (35 / 25); at T = 120 the adjoint starts before the last step."""
        F, B, M, D = 4, 4, 10, 16
        x = self.rng.standard_normal((F * B, T, M))
        w_x, w_h, b = (rmat(self.rng, F, *s) for s in ((M, 4 * D), (D, 4 * D), (4 * D,)))
        g = np.zeros((F * B, T, D))
        g[:, [34, 59, 84, 109]] = self.rng.standard_normal((F * B, 4, D))
        self.assert_stacked_lstm_equals_each_fold_alone(x, w_x, w_h, b, g)


def stores(n, seed=0):
    """n one-model stores of the same names and shapes, different values."""
    rng = np.random.default_rng(seed)
    return [dc.ParamStore({"w": rng.standard_normal((2, 3)), "b": rng.standard_normal(3),
                           "eps": rng.standard_normal(())}) for _ in range(n)]


def test_stacked_store_rows_folds_and_checkpoints(tmp_path):
    parts = stores(3)
    stacked = dc.ParamStore.stack(parts)
    assert stacked.n_folds == 3 and stacked["w"].data.shape == (3, 2, 3)
    assert stacked["eps"].data.shape == (3,)
    data, grad = stacked.rows()
    for f, part in enumerate(parts):
        np.testing.assert_array_equal(data[f], part._data)
        fold = stacked.fold(f)
        assert fold.n_folds == 1 and fold is stacked.fold(f)
        for name, t in fold.items():
            assert t.data.shape == part[name].data.shape
            assert np.shares_memory(t.data, data[f]) and np.shares_memory(t.grad, grad[f])
        dc.save_params(str(tmp_path / f"{f}.ckpt"), fold)
        dc.save_params(str(tmp_path / f"part{f}.ckpt"), part)
        assert (tmp_path / f"{f}.ckpt").read_bytes() == (tmp_path / f"part{f}.ckpt").read_bytes()
    middle = stacked.folds(1, 3)
    assert middle.n_folds == 2 and np.shares_memory(middle["w"].data, data[1:])
    stacked.fold(2)["b"].data[...] = 7.0
    np.testing.assert_array_equal(stacked["b"].data[2], 7.0)
    assert dc.ParamStore.stack(parts[:1]) is parts[0]
    with pytest.raises(StateError):
        dc.save_params(str(tmp_path / "all.ckpt"), stacked)  # a checkpoint holds one model
    with pytest.raises(StateError):
        dc.load_into(stacked, str(tmp_path / "0.ckpt"))
    with pytest.raises(StateError):
        stacked.folds(2, 4)
    other = dc.ParamStore({"w": np.zeros((2, 3)), "b": np.zeros(3), "eps": np.zeros(()),
                           "c": np.zeros(1)})
    with pytest.raises(StateError):
        dc.ParamStore.stack([parts[0], other])


def test_a_fold_loads_its_row_and_earlier_views_see_it(tmp_path):
    """Loading into fold 1 of a stacked store writes that row and no other,
    and views of the store taken before the load see the new values."""
    stacked = dc.ParamStore.stack(stores(3))
    before = stacked.rows()[0].copy()
    fold, middle, view = stacked.fold(1), stacked.folds(1, 3), stacked.no_grad()
    fold_view = fold.no_grad()
    path = str(tmp_path / "new.ckpt")
    new = stores(1, seed=7)[0]
    dc.save_params(path, new)
    dc.load_into(stacked.fold(1), path)
    rows = stacked.rows()[0]
    np.testing.assert_array_equal(rows[1], new._data)
    np.testing.assert_array_equal(rows[[0, 2]], before[[0, 2]])
    for name, t in new.items():
        for got in (fold[name].data, middle[name].data[0], view[name].data[1],
                    fold_view[name].data):
            np.testing.assert_array_equal(got, t.data)


@pytest.mark.parametrize("weight_decay", [0.0, 0.05])
def test_masked_adam_steps_only_the_active_folds(weight_decay):
    """Each fold of a stacked store ends bit-equal to a lone store stepped
    only on that fold's active steps: an inactive fold keeps its
    parameters, moments and step count, and each fold's bias correction
    uses its own step count."""
    rng = np.random.default_rng(3)
    stacked = dc.ParamStore.stack(stores(3, seed=1))
    alone = stores(3, seed=1)
    state = dc.AdamState(lr=0.01, weight_decay=weight_decay)
    states = [dc.AdamState(lr=0.01, weight_decay=weight_decay) for _ in alone]
    masks = [[True, True, True], [True, False, True], [False, False, True],
             [False, True, False], [True, True, True]]
    for mask in masks:
        stacked.zero_grad()
        _, grad = stacked.rows()
        grad[...] = rng.standard_normal(grad.shape)
        before = (stacked.rows()[0].copy(), state.m.copy() if state.m is not None else None)
        dc.adam_step(stacked, state, mask)
        for f, (store, lone) in enumerate(zip(alone, states)):
            if mask[f]:
                store.zero_grad()
                store._grad[...] = grad[f]
                dc.adam_step(store, lone)
            else:
                np.testing.assert_array_equal(stacked.rows()[0][f], before[0][f])
                if before[1] is not None:
                    np.testing.assert_array_equal(state.m[f], before[1][f])
            np.testing.assert_array_equal(stacked.rows()[0][f], store._data)
            if lone.m is not None:
                np.testing.assert_array_equal(state.m[f], lone.m[0])
                np.testing.assert_array_equal(state.v[f], lone.v[0])
                assert state.step_count[f] == lone.step_count[0]
    assert state.step_count.tolist() == [3, 3, 4]
    with pytest.raises(ShapeError):
        dc.adam_step(stacked, state, [True, False])


def test_adam_equals_the_textbook_expression_bit_for_bit():
    """Parameters, moments and step counts of a stacked store after six
    steps, with weight decay and a fold idle on every other step, equal
    those of the textbook update run on each fold's row when it is active."""
    rng = np.random.default_rng(4)
    store = dc.ParamStore.stack(stores(3, seed=2))
    state = dc.AdamState(lr=0.01, weight_decay=0.03)
    rows = [{"row": row.copy()} for row in store.rows()[0]]
    textbook = [adam_state(0.03) for _ in rows]
    for step in range(6):
        grad = 10.0 ** rng.uniform(-6, 2) * rng.standard_normal(store.rows()[1].shape)
        active = [True, step % 2 == 0, True]
        store.zero_grad()
        store.rows()[1][...] = grad
        dc.adam_step(store, state, active)
        for f in np.flatnonzero(active):
            textbook_adam_step(rows[f], {"row": grad[f]}, textbook[f])
    assert state.step_count.tolist() == [t.step_count for t in textbook] == [6, 3, 6]
    for f, t in enumerate(textbook):
        assert np.array_equal(store.rows()[0][f], rows[f]["row"])
        assert np.array_equal(state.m[f], t.m["row"]) and np.array_equal(state.v[f], t.v["row"])

def test_backward_releases_adjoints():
    """A walked graph's nodes drop their adjoints: a second walk through any
    of them raises, while a rebuilt graph gives the same gradients."""
    rng = np.random.default_rng(2)
    a, b = rmat(rng, 3, 4), rmat(rng, 4, 2)
    h = tanh(matmul(a, b))
    loss = dc.sum_all(h)
    dc.backward(loss)
    expect = a.grad.copy()
    a.grad = None
    dc.backward(dc.sum_all(tanh(matmul(a, b))))
    np.testing.assert_array_equal(a.grad, expect)
    with pytest.raises(StateError, match="released"):
        dc.backward(loss)
    with pytest.raises(StateError, match="released"):
        dc.backward(dc.sum_all(mul(h, h)))  # a new graph over a walked node


@pytest.fixture
def poisoned_pool(monkeypatch):
    """Before each request, every free pooled buffer is filled with NaN, so
    an entry that a fused op reads before writing it shows in the result."""
    take = dc._BufferPool.take

    def poisoned(pool, shape):
        for buf in pool.bufs:
            if sys.getrefcount(buf) == pool.unshared:
                buf.fill(np.nan)
        return take(pool, shape)

    monkeypatch.setattr(dc._BufferPool, "take", poisoned)


class TestBufferPool:
    """The fused ops' buffer pool hands out only buffers that nothing references."""

    @staticmethod
    def address(x):
        return x.__array_interface__["data"][0]

    def test_a_buffer_returns_once_its_last_view_is_gone(self):
        dc.release_buffers()
        a, b = dc.buffer((3, 4)), dc.buffer((4, 3))
        first = self.address(a)
        assert first != self.address(b)
        view = a.reshape(12)
        del a
        assert self.address(dc.buffer((2, 6))) not in (first, self.address(b))
        del view
        assert self.address(dc.buffer((2, 6))) == first

    def test_a_request_gets_the_smallest_free_buffer_that_holds_it(self):
        dc.release_buffers()
        large, small = dc.buffer((16, 4)), dc.buffer((8, 4))
        at_large, at_small = self.address(large), self.address(small)
        del large, small
        assert self.address(dc.buffer((2, 4))) == at_small  # though the large one came first
        scoring = dc.buffer((15, 4))  # a 15-subject batch after training's 16
        assert scoring.shape == (15, 4) and self.address(scoring) == at_large
        assert [buf.size for buf in dc._POOL.bufs] == [32, 64]

    def test_the_cap_holds(self, monkeypatch):
        dc.release_buffers()
        monkeypatch.setattr(dc, "BUFFER_POOL_BYTES", 8 * 20)
        held = dc.buffer((3, 4))
        extra = dc.buffer((3, 4))  # 24 entries would pass the cap of 20
        assert not np.shares_memory(extra, held) and len(dc._POOL.bufs) == 1
        small = dc.buffer((2, 4))  # 12 + 8 entries fit
        assert [buf.size for buf in dc._POOL.bufs] == [8, 12]
        del extra
        assert not np.shares_memory(dc.buffer((3, 4)), small)

    def test_a_held_view_is_never_handed_out(self):
        dc.release_buffers()
        kept = dc.buffer((4, 5))[1:, ::2].T  # only a strided view of the buffer is held
        kept[...] = 7.0
        for shape in [(4, 5), (20,), (3, 2), (1,)]:
            assert not np.shares_memory(dc.buffer(shape), kept)
        assert np.all(kept == 7.0)

    def test_a_held_gin_output_survives_later_calls(self):
        rng = np.random.default_rng(40)
        d, m, n = 4, 5, 3
        p = make_layer_params(rng, d)
        upper = np.triu(rng.random((n, m, m)) < 0.5, 1)
        a = upper | upper.transpose(0, 2, 1)
        first = cdgin.gin_node_update(dc.param(rng.standard_normal((n * m, d))), a, p)
        kept = first.data.copy()
        for _ in range(3):
            out = cdgin.gin_node_update(dc.param(rng.standard_normal((n * m, d))), a, p)
            dc.backward(dc.sum_all(out))
        np.testing.assert_array_equal(first.data, kept)
        dc.backward(dc.sum_all(first))  # its graph is intact too
        np.testing.assert_array_equal(first.data, kept)

    def test_a_poisoned_pool_leaves_the_lstm_bit_identical(self, request):
        """Two folds of three sequences, forward and gradients, with a fresh
        pool and then with every free buffer NaN at every request."""
        rng = np.random.default_rng(41)
        f, b, t, m, d = 2, 3, 7, 4, 5
        x = rng.standard_normal((f * b, t, m))
        weights = [0.5 * rng.standard_normal(s) for s in ((f, m, 4 * d), (f, d, 4 * d),
                                                          (f, 4 * d))]
        g = rng.standard_normal((f * b, t, d))
        g[:, -2:] = 0.0  # steps without an output gradient

        def run():
            params = [dc.param(w) for w in weights]
            out = dc.lstm(x, *params)
            dc.backward(dc.sum_all(mul(out, dc.const(g))))
            return [out.data.copy()] + [p.grad.copy() for p in params]

        dc.release_buffers()
        fresh = run()
        request.getfixturevalue("poisoned_pool")
        for _ in range(2):
            for want, got in zip(fresh, run()):
                assert want.tobytes() == got.tobytes()

    def test_a_poisoned_pool_leaves_a_lockstep_train_step_bit_identical(self, request):
        rng = np.random.default_rng(42)
        subjects = [RoiTimeSeries(f"s{i}", rng.standard_normal((30, 5)), i % 2)
                    for i in range(8)]
        cfg = tv.TrainConfig(layers=2, batch_size=4, window_size=10, stride=5, hidden_dim=4,
                             proj_dim=4, epochs=2, seed=3)
        preps = tv.prepare_dataset(subjects, cfg)

        def run():
            results = tv.fit_folds([preps[:4], preps[4:]], cfg, [3, 4])
            return [r.store.rows()[0].tobytes() for r in results], \
                [r.epoch_log for r in results]

        dc.release_buffers()
        fresh = run()
        request.getfixturevalue("poisoned_pool")
        assert run() == fresh
