"""Reverse-mode autodiff substrate: float64 tensors, primitive ops, Adam, checkpoints.

Everything trainable in the model lives in a :class:`ParamStore` of named
:class:`Tensor` objects. The store keeps all parameter values in one
contiguous float64 buffer and all gradients in another, each tensor's
``data`` and ``grad`` being a view into them; the Adam moments are two more
such buffers. So zeroing the gradients is one fill and an Adam step is a
few whole-array operations. A store lays its buffers out once, when it is
built, and a checkpoint loads into them in place (:func:`load_into`).
Forward passes build a fresh op graph each time; :func:`backward` walks it
once in reverse topological order, holding each node's pending gradient in
a slot of the node, accumulates gradients into the leaves and releases each
adjoint once it has run, so a graph can be walked only once. The primitives
are only those the model joins its fused ops with: ``add``, ``mul_scalar``,
``reshape``, ``sum_all`` and ``concat``. Every op has a hand-written
adjoint that is finite-difference tested; adjoints compute contributions
only for operands that carry gradients, so constant operands (adjacencies,
masks) cost nothing on the way back. The LSTM here and every other step of
the model, in ``temporal_encoder``, ``cdgin`` and ``fusion_head``, are
fused ops: one graph node each, with an adjoint for the whole step, because
at this library's shapes the time goes to per-op overhead rather than to
arithmetic. ``tests/composite_layers.py`` keeps the smaller primitives the
fused ops replaced, and builds each fused op from them as its oracle.

A store may also hold F models of one shape stacked on a leading fold
axis, laid out fold-major so that each model is one row of the buffers.
Ops that apply a parameter accept such a stack, read F from its rank
(:func:`fold_count`) and treat their operand's rows as F fold-major
blocks: :func:`tanh_mlp` applies weights and biases f to block f, and the
LSTM runs every fold's sequences in one time loop. Each fold's block sees
the same numpy calls as a lone model's, through batched ``np.matmul``, so
its values and gradients are bit-identical to that model's. The
primitives know nothing of folds; ``add`` keeps its one broadcast rule.
:func:`adam_step` steps only the folds marked active, each with its own
step count.

The fused ops and :func:`adam_step` take their large arrays from one
per-thread pool (:func:`buffer`), so a train step reuses the memory of the
steps before it.

All arithmetic is 64-bit; gradient checks at 1e-4 relative tolerance are not
reliable below that precision.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
import os
import struct
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, ParseError, ShapeError, StateError

LOG_FLOOR = 1e-12
BUFFER_POOL_BYTES = 32 << 20  # most that a thread's buffer pool keeps


class Tensor:
    """A float64 array with an optional gradient slot and graph linkage.

    Leaves created with ``requires_grad=True`` accumulate into ``grad`` on
    :func:`backward`; intermediates hold their pending gradient in a slot
    only for the duration of the one backward walk their graph allows.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "op",
                 "_pending", "_owned")

    def __init__(self, data, requires_grad=False, parents=(), backward=None, op="leaf"):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = parents
        self._backward = backward
        self.op = op
        self._pending = None  # backward's walk state; None outside a walk

    @property
    def shape(self):
        return self.data.shape

    def __len__(self) -> int:
        """Length of the first axis, as for a numpy array."""
        return len(self.data)

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.data.shape})"


def const(data) -> Tensor:
    return Tensor(data)


def param(data) -> Tensor:
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


_FLOAT64 = np.dtype(np.float64)
_new_tensor = object.__new__


def _raise_non_finite(values: np.ndarray, op: str, what: str) -> None:
    first = tuple(int(i) for i in np.argwhere(~np.isfinite(values))[0])
    raise NumericsError(f"non-finite {what} op '{op}'", index=first, shape=values.shape)


def check_finite(values: np.ndarray, op: str, what: str) -> None:
    """Raise :class:`NumericsError` unless every entry of ``values`` is finite.

    The test is :func:`_make`'s; the error names ``what`` and ``op``, and
    holds the first non-finite entry's index in ``values`` and its shape.
    Fused ops call it on the arrays they feed into tanh, a softmax or a
    sigmoid, which can map an infinity to a finite value.
    """
    if np.count_nonzero(np.isfinite(values)) != values.size:
        _raise_non_finite(values, op, what)


def _make(out: np.ndarray, op: str, parents: tuple, backward) -> Tensor:
    """The output Tensor of one op, after an exact check that every entry is finite.

    Every op calls it once per output: the primitives here and the fused
    ops of ``temporal_encoder``, ``cdgin`` and ``fusion_head``.
    ``backward(g)`` yields (parent, gradient) pairs; a parent that carries
    no gradient may be left out or is skipped. It fills the slots
    directly, as ``Tensor(out, ...)`` would, without a second float64
    conversion of an array that already is one.
    """
    if np.count_nonzero(np.isfinite(out)) != out.size:
        _raise_non_finite(out, op, "values produced by")
    if type(out) is not np.ndarray or out.dtype is not _FLOAT64:
        out = np.asarray(out, dtype=np.float64)  # e.g. the numpy scalar of a full reduction
    t = _new_tensor(Tensor)
    t.data = out
    t.grad = None
    t.op = op
    t._pending = None
    for p in parents:
        if p.requires_grad:
            t.requires_grad = True
            t._parents = parents
            t._backward = backward
            return t
    t.requires_grad = False
    t._parents = ()
    t._backward = None
    return t


class _BufferPool(threading.local):
    """Float64 buffers that the fused ops and Adam reuse from call to call.

    A train step frees its graph's arrays in backward, and the next step
    asks for the same sizes again. Left to the C library, whether a step
    faults those pages in anew depends on its heap heuristics (glibc's mmap
    and trim thresholds); buffers taken from here stay resident instead.
    One is handed out again only when nothing else references it (CPython's
    reference count), so a live graph keeps its arrays and no call writes
    into an array that a caller holds. A request gets the smallest free
    buffer that holds it, so a 15-subject scoring batch reuses a 16-subject
    training batch's buffers. The pool keeps at most BUFFER_POOL_BYTES;
    beyond that a request that finds no free buffer gets a new array.
    """

    def __init__(self):
        self.bufs = []  # one-dimensional, by size
        for buf in [np.empty(0)]:  # the count of an unshared list entry, as take() sees it
            self.unshared = sys.getrefcount(buf)

    def take(self, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        bufs, unshared = self.bufs, self.unshared
        for i in range(bisect.bisect_left(bufs, size, key=len), len(bufs)):
            buf = bufs[i]  # by size, so the first free one that holds the request fits best
            if sys.getrefcount(buf) == unshared:
                return buf[:size].reshape(shape)
        buf = np.empty(size)
        if sum(b.nbytes for b in bufs) + buf.nbytes <= BUFFER_POOL_BYTES:
            bisect.insort(bufs, buf, key=len)
        return buf.reshape(shape)


_POOL = _BufferPool()


def buffer(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialized float64 array of ``shape`` that nothing else holds,
    from this thread's pool (:class:`_BufferPool`)."""
    return _POOL.take(shape)


def release_buffers() -> None:
    """Drop this thread's pooled buffers; arrays still in use stay valid."""
    _POOL.bufs = []


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------

def _check_broadcast(op: str, sa: tuple[int, ...], sb: tuple[int, ...]) -> None:
    """Raise unless shapes ``sa`` and ``sb`` broadcast under this module's narrow rule.

    Operands of equal rank broadcast along axes where one side is 1. Ranks
    may differ only when the smaller operand matches the trailing axes of
    the larger exactly (a bias row); any other rank mismatch raises, so a
    stray (n,) + (n, 1) cannot become an (n, n) outer product.
    """
    if sa == sb:
        return
    if len(sa) != len(sb):
        small, large = sorted((sa, sb), key=len)
        ok = large[len(large) - len(small):] == small
    else:
        ok = all(x == y or 1 in (x, y) for x, y in zip(sa, sb))
    if not ok:
        raise ShapeError(f"{op}: {sa} vs {sb}")


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` over the axes broadcasting added or stretched."""
    if g.shape == shape:
        return g
    g = g.sum(axis=tuple(range(g.ndim - len(shape))))
    stretched = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    return g.sum(axis=stretched, keepdims=True) if stretched else g


def fold_count(w: np.ndarray, ndim: int, rows: int | None = None) -> int:
    """F of a parameter whose own rank is ``ndim``: the length of its leading
    fold axis in a stacked store, 1 for a parameter of its own shape. With
    ``rows``, raises unless that many rows split into F fold-major blocks."""
    folds = w.shape[0] if w.ndim == ndim + 1 else 1
    if rows is not None and rows % folds:
        raise ShapeError(f"{rows} rows do not split into the {folds} folds of a "
                         f"{w.shape} parameter")
    return folds


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; broadcasts as :func:`_check_broadcast` allows."""
    _check_broadcast("add", a.data.shape, b.data.shape)
    out = a.data + b.data

    def bk(g):
        for t in (a, b):
            if t.requires_grad:
                yield t, _unbroadcast(g, t.data.shape)

    return _make(out, "add", (a, b), bk)


def mul_scalar(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _make(a.data * c, "mul_scalar", (a,), lambda g: ((a, g * c),))


def reshape(a: Tensor, shape) -> Tensor:
    old = a.data.shape
    out = a.data.reshape(shape)
    return _make(out, "reshape", (a,), lambda g: ((a, g.reshape(old)),))


def sum_all(a: Tensor) -> Tensor:
    out = np.asarray(a.data.sum())
    return _make(out, "sum", (a,),
                 lambda g: ((a, np.full(a.data.shape, float(g))),))


def sigmoid_array(x: np.ndarray) -> np.ndarray:
    """The logistic function of an array, without overflow at any finite entry."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def tanh_mlp(x: np.ndarray, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor, op: str):
    """W_2 tanh(W_1 x + b_1) + b_2 over the rows of an (R, K) array, for a fused op.

    The weights and biases are (N, K), (N,), (O, N) and (O,), or stacked
    on a fold axis F, applying entry f to the f-th of F fold-major blocks
    of R / F rows. Returns the (F, R / F, O) output and its adjoint:
    ``adjoint(g, input_grad)`` maps the output's gradient to the four
    parameters' (parameter, gradient) pairs and, if ``input_grad``, the
    (R, K) gradient of ``x`` (else None). Both layers compute what two
    ``linear`` ops with a tanh between them compute, call for call. A
    non-finite pre-activation raises NumericsError in ``op``, with its
    row index, since tanh would hide an infinity.
    """
    r, k = x.shape
    lead = w1.data.shape[:-2]
    n, o = w1.data.shape[-2], w2.data.shape[-2]
    if w1.data.shape != (*lead, n, k) or b1.data.shape != (*lead, n) \
            or w2.data.shape != (*lead, o, n) or b2.data.shape != (*lead, o):
        raise ShapeError(f"{op}: ({r}, {k}) rows by weights {w1.data.shape}, "
                         f"{w2.data.shape} and biases {b1.data.shape}, {b2.data.shape}")
    folds = fold_count(w1.data, 2, r)
    x_blocks = x.reshape(folds, r // folds, k)
    with np.errstate(over="ignore", invalid="ignore"):  # the check and _make report it
        pre = np.matmul(x_blocks, w1.data.swapaxes(-1, -2))
        pre += b1.data.reshape(folds, 1, n)
        check_finite(pre.reshape(r, n), op, "MLP pre-activation in")
        hid = np.tanh(pre, out=pre)
        out = np.matmul(hid, w2.data.swapaxes(-1, -2))
        out += b2.data.reshape(folds, 1, o)

    def adjoint(g: np.ndarray, input_grad: bool):
        g_out = g.reshape(folds, -1, o)
        g_pre = np.matmul(g_out, w2.data)
        g_pre *= 1.0 - hid * hid
        grads = [(w2, np.matmul(hid.swapaxes(1, 2), g_out).swapaxes(-1, -2)
                  .reshape(w2.data.shape)),
                 (b2, g_out.sum(axis=1).reshape(b2.data.shape)),
                 (w1, np.matmul(x_blocks.swapaxes(1, 2), g_pre).swapaxes(-1, -2)
                  .reshape(w1.data.shape)),
                 (b1, g_pre.sum(axis=1).reshape(b1.data.shape))]
        return grads, np.matmul(g_pre, w1.data).reshape(r, k) if input_grad else None

    return out, adjoint


def concat(parts: list[Tensor], axis: int = 0) -> Tensor:
    if not parts:
        raise ShapeError("concat: empty input")
    arrays = [p.data for p in parts]
    out = np.concatenate(arrays, axis=axis)
    sizes = [arr.shape[axis] for arr in arrays]
    offsets = np.cumsum([0] + sizes)

    def bk(g):
        slices = []
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            slices.append((p, g[tuple(sl)]))
        return tuple(slices)

    return _make(out, "concat", tuple(parts), bk)


def lstm(x: np.ndarray, w_x: Tensor, w_h: Tensor, b: Tensor) -> Tensor:
    """Single-layer LSTM over a constant (B, T, M) batch; returns the (B, T, D)
    hidden sequences.

    The B sequences run through one time loop. Weights stacked along a
    leading fold axis, (F, M, 4D), (F, D, 4D) and (F, 4D), run F models in
    the same loop: the B sequences split into F fold-major blocks, and
    every product with a weight is one batched ``np.matmul`` over the folds,
    each fold's operands laid out as a lone model's are. Fused into one op
    with a hand-written BPTT adjoint: the per-timestep graph would
    otherwise dominate runtime. The parameters' gate order along 4D is
    input, forget, cell, output.

    Each time loop keeps only the recurrence, and most of its calls cover
    one contiguous block. Once per call the weights are stacked as [W_h;
    W_x; b], with the gate columns reordered to [i, f, o | g] and the
    sigmoid gates' columns negated, which is exact, and copied to C order:
    the column reordering leaves it F-ordered, which numpy passes to BLAS
    as a transposed operand, and that product took about twice as long per
    step at the README lockstep shape (4 folds of 4 sequences, one BLAS
    thread). Step t's
    pre-activations are then one product of the rows [h_{t-1} | x_t | 1]
    with that matrix: each entry is one dot product of length D + M + 1,
    summed in that order, and for the sigmoid gates it is the negated
    pre-activation that ``exp`` takes. The rows live in a (T + 1, F, B / F,
    D + M + 1) buffer, and each h_t is written into the hidden columns of
    row t + 1. The product is copied once into step t's feature-major
    (4D, B) block of the gate buffer, where one sigmoid covers the first 3D
    rows and a tanh the cell gate's last D rows in place; the cell and
    hidden updates run on (D, B) blocks of the cell buffer, whose step 0 is
    the zero initial state, and of the buffer of tanh c. These buffers, the
    output and the adjoint's factor buffers K and P come from the buffer
    pool (:func:`buffer`), and every entry that is read is written first.

    Products stay row-form, rows times weights, so that a sequence's sums
    do not depend on the other rows of a batch of two or more. Weights
    times columns made them depend on the batch width: 1 to 4 sequences
    differed from 5 and more. A lone sequence's one-row product takes
    another BLAS routine and may still differ from a batch in the last bit.

    The adjoint first forms the local derivative factors of every step,
    K = [G I(1-I), C_{t-1} F(1-F), I(1-G^2), tanh C O(1-O)] in the
    parameters' gate order and P = O(1 - tanh^2 C), laid out as the gate
    buffer. Its loop then only carries ``dc = dc F_{t+1} + dh P_t`` and
    ``dh = ([dc, dc, dc, dh] * K_t) @ w_h^T``, writing each step's gate
    gradient over K_t in one contiguous call, and adds an output gradient
    only at the steps that have one. The product reads the gate gradients
    through a row-major copy and its result is copied back, except for a
    lone sequence (F = B = 1), whose feature-major blocks already are rows;
    at one sequence per fold in several folds the copies still cost less
    than strided calls would. The weight gradients are three products per
    fold, x^T dA, h^T dA and the sum of dA, over contiguous copies of the
    fold's rows: one merged [h | x | 1]^T dA product made them depend on
    the BLAS thread count. The loop runs back from the last timestep:
    ``model._stack`` cuts the input at the last timestep the model reads,
    so that step carries an output gradient and no step of the adjoint is
    wasted.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeError(f"lstm: (B, T, M) input required, got {x.shape}")
    rows = x.shape[0]
    folds = fold_count(w_x.data, 2, rows)
    lead = w_x.data.shape[:-2]
    four_d = w_x.data.shape[-1]
    D = four_d // 4
    if four_d % 4 != 0 or w_h.data.shape != (*lead, D, four_d) \
            or b.data.shape != (*lead, four_d):
        raise ShapeError("lstm: inconsistent gate shapes")
    if x.shape[-1] != w_x.data.shape[-2]:
        raise ShapeError(f"lstm: input width {x.shape[-1]} vs w_x {w_x.data.shape}")
    B = rows // folds  # sequences per fold
    T, M = x.shape[-2], x.shape[-1]
    seq = x.reshape(folds, B, T, M)
    w_h3 = w_h.data.reshape(folds, D, four_d)
    gates = buffer((T, four_d, folds, B))  # step t is one feature-major (4D, F, B / F) block
    sig = gates[:, :3 * D]
    in_g, forget_g, out_g, G = (gates[:, k * D:(k + 1) * D] for k in range(4))
    C = buffer((T + 1, D, folds, B))  # C[t + 1] is c_t; step 0 is the initial state
    C[0] = 0.0
    TC = buffer((T, D, folds, B))
    out = buffer((folds, B, T, D))
    reorder = np.r_[0:2 * D, 3 * D:four_d, 2 * D:3 * D]  # [i, f, o | g]
    w = np.ascontiguousarray(np.concatenate((w_h3, w_x.data.reshape(folds, M, four_d),
                                             b.data.reshape(folds, 1, four_d)),
                                            axis=1)[..., reorder])
    np.negative(w[..., :3 * D], out=w[..., :3 * D])
    z = buffer((T + 1, folds, B, D + M + 1))  # row t is [h_{t-1} | x_t | 1]; h_{T-1} in row T
    z[0, ..., :D] = 0.0
    z[:T, ..., D:-1] = seq.transpose(2, 0, 1, 3)
    z[:T, ..., -1] = 1.0
    h_next = z[1:, ..., :D].transpose(0, 3, 1, 2)  # (T, D, F, B / F): h_t's slot
    a_rows = np.empty((folds, B, four_d))
    ig = np.empty((D, folds, B))
    steps = zip(z, gates, sig, G, C, C[1:], in_g, forget_g, out_g, TC, h_next)
    # a pre-activation below about -709 overflows the gate exp to inf, and
    # 1 / (1 + inf) is the saturated gate's exact 0
    with np.errstate(over="ignore"):
        for z_t, a, s, g_t, c_prev, c, i_t, f_t, o_t, tc, h_t in steps:
            np.matmul(z_t, w, out=a_rows)
            a[...] = a_rows.transpose(2, 0, 1)
            np.exp(s, out=s)  # s holds -a: the sigmoid gates' weight columns are negated
            s += 1.0
            np.divide(1.0, s, out=s)
            np.tanh(g_t, out=g_t)
            np.multiply(f_t, c_prev, out=c)
            np.multiply(i_t, g_t, out=ig)
            c += ig
            np.tanh(c, out=tc)
            np.multiply(o_t, tc, out=h_t)
    out[...] = z[1:, ..., :D].transpose(1, 2, 0, 3)
    out = out.reshape(rows, T, D)

    def bk(g):
        I, F, O = in_g, forget_g, out_g
        dw_x, dw_h, db = (np.empty((folds, n, four_d)) for n in (M, D, 1))
        K = buffer((T, four_d, folds, B))  # laid out as the gate buffer
        k_i, k_f, k_g, k_o = (K[:, j * D:(j + 1) * D] for j in range(4))
        P = buffer((T, D, folds, B))  # the factors' scratch, then P
        np.subtract(1.0, I, out=P)
        np.multiply(G, I, out=k_i)
        k_i *= P
        np.subtract(1.0, F, out=P)
        np.multiply(C[:-1], F, out=k_f)
        k_f *= P
        np.multiply(G, G, out=P)
        np.subtract(1.0, P, out=P)
        np.multiply(I, P, out=k_g)
        np.subtract(1.0, O, out=P)
        np.multiply(TC, O, out=k_o)
        k_o *= P
        np.multiply(TC, TC, out=P)
        np.subtract(1.0, P, out=P)
        P *= O
        w_h_t = w_h3.transpose(0, 2, 1)
        d = np.zeros((4, D, folds, B))  # the gate gradient's multiplier [dc, dc, dc, dh]
        d_k = d.reshape(four_d, folds, B)
        dc, dc_copies, dh = d[0], d[1:3], d[3]
        dh_p = np.empty((D, folds, B))
        lone = rows == 1  # its feature-major blocks are rows already
        K_rows = K.reshape(T, folds, B, four_d)  # a lone sequence's row view of K
        da_rows = None if lone else np.empty((folds, B, four_d))
        dh_rows = dh.reshape(folds, B, D) if lone else np.empty((folds, B, D))
        g_s = g.reshape(folds, B, T, D).transpose(2, 3, 0, 1)  # as the buffers
        live = g_s.any(axis=(1, 2, 3)).tolist()  # the steps with an output gradient
        for da_t, row_t, p_t, f_t, g_t, live_t in zip(K[::-1], K_rows[::-1], P[::-1], F[::-1],
                                                      g_s[::-1], live[::-1]):
            if live_t:
                dh += g_t
            np.multiply(dh, p_t, out=dh_p)
            dc += dh_p
            dc_copies[...] = dc
            np.multiply(d_k, da_t, out=da_t)  # K_t becomes the gate gradient
            if lone:
                np.matmul(row_t, w_h_t, out=dh_rows)
            else:  # the product reads row-major gate gradients, as a lone sequence's
                da_rows[...] = da_t.transpose(1, 2, 0)
                np.matmul(da_rows, w_h_t, out=dh_rows)
                dh[...] = dh_rows.transpose(2, 0, 1)
            dc *= f_t
        h_seq = out.reshape(folds, B, T, D)
        h_f = np.empty((T, B, D))  # h_{t-1} of one fold
        h_f[0] = 0.0
        for f in range(folds):  # each fold's rows in (t, sequence) order, contiguous
            x_f = np.ascontiguousarray(seq[f].swapaxes(0, 1)).reshape(T * B, M)
            h_f[1:] = h_seq[f, :, :-1].swapaxes(0, 1)
            da = np.ascontiguousarray(K[:, :, f].transpose(0, 2, 1)).reshape(T * B, four_d)
            np.matmul(x_f.T, da, out=dw_x[f])
            np.matmul(h_f.reshape(T * B, D).T, da, out=dw_h[f])
            da.sum(axis=0, out=db[f, 0])
        return ((w_x, dw_x.reshape(w_x.data.shape)), (w_h, dw_h.reshape(w_h.data.shape)),
                (b, db.reshape(b.data.shape)))

    return _make(out, "lstm", (w_x, w_h, b), bk)


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

# A node's ``_pending`` slot during a walk: None (not reached yet), _OPEN
# (its ancestors are being ordered), _ORDERED (waiting for its first gradient
# contribution), then the gradient buffer itself; None again once it is done.
_OPEN, _ORDERED = object(), object()


def _released(g):
    raise StateError("backward through a graph that was already walked: "
                     "its adjoints were released; build the forward again")


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every reachable leaf's ``grad``.

    The walk orders the grad-carrying ancestors of ``loss`` by an iterative
    depth-first post-order, then visits them in reverse, so every node's
    consumers have contributed before its own adjoint runs. Each node drops
    its adjoint once it has run, so the forward arrays that adjoint held are
    freed during the walk rather than with the graph; a second backward
    through any node of a walked graph raises :class:`StateError`.
    """
    if loss.data.shape != ():
        raise ShapeError("backward: loss must be scalar")
    if not loss.requires_grad:
        return

    # One stack holds both kinds of entry: a node popped while None is
    # opened and pushed again under its parents; popped while _OPEN, all of
    # its ancestors are ordered, so it is. In a DAG a node cannot be reached
    # again while it is open, so a node popped in any other state was
    # already ordered through another consumer.
    order = []
    stack = [loss]
    try:
        while stack:
            node = stack.pop()
            state = node._pending
            if state is None:
                node._pending = _OPEN
                stack.append(node)
                for p in node._parents:
                    if p.requires_grad and p._pending is None:
                        stack.append(p)
            elif state is _OPEN:
                node._pending = _ORDERED
                order.append(node)

        # A buffer is borrowed from an adjoint until the node's second
        # contribution, which makes an owned sum that later ones add into.
        loss._pending = np.ones(())
        for node in reversed(order):
            g = node._pending
            node._pending = None
            if node._backward is None:
                if node.grad is None:
                    node.grad = np.array(g)
                else:
                    node.grad += g
                continue
            for parent, contrib in node._backward(g):
                if not parent.requires_grad:
                    continue
                cur = parent._pending
                if cur is _ORDERED:
                    parent._pending, parent._owned = contrib, False
                elif parent._owned:
                    cur += contrib
                else:
                    # np.asarray: 0-d sums come back as immutable numpy
                    # scalars, which would silently drop later in-place sums
                    parent._pending, parent._owned = np.asarray(cur + contrib), True
            node._backward = _released
    except BaseException:
        for node in order + stack:
            node._pending = None
        raise


# ---------------------------------------------------------------------------
# parameters and optimizer
# ---------------------------------------------------------------------------

class ParamStore:
    """Named parameter tensors in one flat arena; iteration is always sorted by name.

    ``ParamStore(arrays)`` copies a name -> array mapping into one
    contiguous float64 value buffer, in sorted-name order, beside a zeroed
    gradient buffer of the same layout; every tensor's ``data`` and
    ``grad`` is a view into them, made on the first use of the tensors. So
    :meth:`zero_grad` is one fill and :func:`adam_step` works on whole
    buffers. The layout is fixed when the store is built; :func:`load_into`
    writes a checkpoint's values into the buffers in place. Write into a
    tensor's arrays (``t.data[...] = x``); assigning it a new array
    detaches it from the arena, which :func:`adam_step` rejects.

    A store may hold F models of one shape, one per fold (:meth:`stack`).
    Its buffers are then fold-major, F rows of one model's buffer each
    (:meth:`rows`), and every tensor has a leading fold axis, (F, *shape).
    :meth:`folds` gives a contiguous range of the folds as a store that
    shares the buffers. A range of one fold has tensors of the plain
    shapes, so it runs wherever a one-model store does: its checkpoint is
    that fold's row, and a checkpoint loaded into it is written into that
    row. :meth:`no_grad` gives the store's parameters over the same buffers
    as tensors that carry no gradient, for forwards that build no graph.
    Every such view shares the buffers for as long as it lives, so a view
    taken before a load sees the loaded values.
    """

    def __init__(self, arrays: dict[str, np.ndarray]):
        names = sorted(arrays)
        values = [np.asarray(arrays[n], dtype=np.float64) for n in names]
        data = np.concatenate(values or [np.zeros(0)], axis=None)
        self._point(names, [v.shape for v in values], data, np.zeros(data.size), 1)

    def _point(self, names: list[str], shapes: list[tuple], data: np.ndarray,
               grad: np.ndarray | None, folds: int) -> None:
        """Take ``data`` and ``grad`` as the buffers, ``folds`` rows of one model
        each; ``shapes`` are the per-fold shapes in sorted-name order. Without
        ``grad`` the tensors carry no gradient."""
        self.n_folds, self._names, self._shapes = folds, names, shapes
        self._data, self._grad = data, grad
        self._zeroed = False
        self._ranges: dict[tuple[int, int], ParamStore] = {}
        self._no_grad: ParamStore | None = None

    @functools.cached_property
    def _views(self) -> list[tuple[str, Tensor, np.ndarray, np.ndarray | None]]:
        """(name, tensor, its data, its grad) in name order, the arrays views
        into the buffers. Made on first use: a store that is only stacked,
        loaded into or viewed never needs its own tensors."""
        # one model's tensors slice the flat buffers, F folds' the (F, P) rows
        lead = () if self.n_folds == 1 else (self.n_folds,)
        rows_d = self._data.reshape(lead + (-1,))
        rows_g = None if self._grad is None else self._grad.reshape(lead + (-1,))
        views, lo = [], 0
        for name, shape in zip(self._names, self._shapes):
            hi = lo + math.prod(shape)
            t = Tensor(rows_d[..., lo:hi].reshape(lead + shape), requires_grad=rows_g is not None)
            if rows_g is not None:
                t.grad = rows_g[..., lo:hi].reshape(lead + shape)
            views.append((name, t, t.data, t.grad))
            lo = hi
        return views

    @functools.cached_property
    def _params(self) -> dict[str, Tensor]:
        return {name: t for name, t, _, _ in self._views}

    @classmethod
    def _over(cls, names, shapes, data, grad, folds) -> ParamStore:
        """A store over existing buffers, as :meth:`_point` takes them."""
        store = cls.__new__(cls)
        store._point(names, shapes, data, grad, folds)
        return store

    @classmethod
    def stack(cls, stores: list[ParamStore]) -> ParamStore:
        """One store of F = len(stores) folds holding these one-model stores'
        values in order; a single store is returned as it is."""
        first = stores[0]
        for other in stores:
            if other.n_folds != 1 or other._names != first._names \
                    or other._shapes != first._shapes:
                raise StateError("stacked stores must each hold one model of the same "
                                 "names and shapes")
        if len(stores) == 1:
            return first
        data = np.concatenate([s._data for s in stores])
        return cls._over(first._names, first._shapes, data, np.zeros(data.size), len(stores))

    def folds(self, lo: int, hi: int) -> ParamStore:
        """Folds lo, ..., hi - 1 as a store of hi - lo folds over the same buffers."""
        if not 0 <= lo < hi <= self.n_folds:
            raise StateError(f"fold range [{lo}, {hi}) of a store of {self.n_folds}")
        if (lo, hi) == (0, self.n_folds):
            return self
        view = self._ranges.get((lo, hi))
        if view is None:
            width = self._data.size // self.n_folds
            rows = slice(lo * width, hi * width)
            grad = None if self._grad is None else self._grad[rows]
            view = self._over(self._names, self._shapes, self._data[rows], grad, hi - lo)
            self._ranges[(lo, hi)] = view
        return view

    def fold(self, f: int) -> ParamStore:
        """Fold f's model as a one-model store over the same buffers."""
        return self.folds(f, f + 1)

    def no_grad(self) -> ParamStore:
        """The same parameters over the same buffers, as tensors with
        ``requires_grad=False``.

        An op on them alone keeps no parents and no adjoint (:func:`_make`),
        so a forward on this view builds no graph, and each intermediate is
        freed once its consumer has returned; its values are those of a
        forward on the store. The view is built once per store. It holds no
        gradient buffer, so :func:`adam_step` and :func:`load_into` reject it.
        """
        if self._no_grad is None:
            self._no_grad = self._over(self._names, self._shapes, self._data, None, self.n_folds)
        return self._no_grad

    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(F, P) views of the value and gradient buffers: row f is fold f's model."""
        return self._data.reshape(self.n_folds, -1), self._grad.reshape(self.n_folds, -1)

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._names)

    def names(self) -> list[str]:
        return list(self._names)

    def items(self):
        return [(name, t) for name, t, _, _ in self._views]

    def zero_grad(self) -> None:
        self._grad.fill(0.0)
        self._zeroed = True


def glorot_uniform(rng: np.random.Generator, shape: tuple[int, ...],
                   fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


@dataclass
class AdamState:
    """Adam moments plus hyperparameters; weight decay is decoupled.

    ``m`` and ``v`` are laid out like the store's buffers, as its (F, P)
    rows, and ``step_count`` holds each fold's step count; the first
    :func:`adam_step` allocates all three as zeros.
    """

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    step_count: np.ndarray | None = None
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def _runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """(lo, hi) of every maximal run of True entries in a 1-D boolean array."""
    edges = np.flatnonzero(np.diff(np.concatenate(([0], mask.astype(np.int8), [0]))))
    return [(int(lo), int(hi)) for lo, hi in zip(edges[::2], edges[1::2])]


def adam_step(store: ParamStore, state: AdamState, active=None) -> None:
    """One Adam update with bias correction; decay applied before the Adam delta.

    The update runs on whole rows of the store's parameter, gradient and
    moment buffers, with the same elementwise expression per entry as a
    per-tensor loop. Its terms are written into two scratch rows from the
    buffer pool instead of a fresh temporary each, with the same operations
    in the same order, so every value is that expression's bit for bit.
    ``active`` (one boolean per fold; every fold when None) names the folds
    that take this step. The others keep their parameters, moments and step
    count bit for bit: with weight decay, a step moves parameters even on a
    zero gradient. Each fold's bias correction uses its own step count. A
    store whose gradients were never zeroed and are all exactly zero has
    seen no backward pass, and is rejected.
    """
    if store._grad is None:
        raise StateError("a no_grad view holds no gradients to step")
    for name, t, data, grad in store._views:
        if t.data is not data or t.grad is not grad:
            raise StateError(f"parameter {name!r} was given a new array, outside the "
                             "store's buffer; write into it with [...] instead")
    data, g = store.rows()
    if not store._zeroed and not g.any():
        raise StateError("adam_step called before any backward pass populated gradients")
    if state.m is None:
        state.m, state.v = np.zeros_like(data), np.zeros_like(data)
        state.step_count = np.zeros(len(data), dtype=np.int64)
    elif state.m.shape != data.shape:
        raise StateError(f"Adam moments hold {state.m.shape} values, the store {data.shape}")
    mask = np.ones(len(data), dtype=bool) if active is None else np.asarray(active, dtype=bool)
    if mask.shape != (len(data),):
        raise ShapeError(f"active mask {mask.shape} for a store of {len(data)} folds")
    state.step_count[mask] += 1
    for lo, hi in _runs(mask):
        steps = [int(t) for t in state.step_count[lo:hi]]
        bc1 = np.array([[1.0 - state.beta1 ** t] for t in steps])
        bc2 = np.array([[1.0 - state.beta2 ** t] for t in steps])
        p, gr, m, v = data[lo:hi], g[lo:hi], state.m[lo:hi], state.v[lo:hi]
        step, denom = buffer((2, *p.shape))  # every term is formed in these two rows
        if state.weight_decay:
            p -= np.multiply(p, state.lr * state.weight_decay, out=step)
        m *= state.beta1
        m += np.multiply(gr, 1.0 - state.beta1, out=step)
        v *= state.beta2
        np.multiply(gr, 1.0 - state.beta2, out=step)
        step *= gr
        v += step
        np.divide(m, bc1, out=step)
        step *= state.lr
        np.divide(v, bc2, out=denom)
        np.sqrt(denom, out=denom)
        denom += state.eps
        step /= denom
        p -= step


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    max_rel_err: float
    n_coords: int
    worst_param: str
    worst_index: int
    analytic: float
    numeric: float


def finite_diff_check(build_loss, named_tensors: list[tuple[str, Tensor]],
                      coords: dict[str, np.ndarray], h: float = 1e-5,
                      denom_floor: float = 1e-6) -> GradCheckReport:
    """Compare reverse-mode gradients of ``build_loss()`` against central differences.

    ``build_loss`` must rebuild the forward graph from the live tensors on
    every call. Relative error uses max(|analytic|, |numeric|, denom_floor)
    as the denominator. The floor matters: central differences carry roundoff
    noise near eps*|loss|/(2h), about 1e-11 at h=1e-5, so coordinates with
    gradients that small would fail any relative test no matter how exact the
    reverse pass is. Flooring at 1e-6 turns those into an absolute check
    (|analytic - numeric| < tol * 1e-6) with a healthy margin over the noise.
    """
    for _, t in named_tensors:
        if t.grad is not None:
            t.grad.fill(0.0)  # in place: a store tensor's grad stays in its arena
    loss = build_loss()
    backward(loss)
    analytic = {name: (np.zeros_like(t.data) if t.grad is None else t.grad.copy())
                for name, t in named_tensors}

    report = GradCheckReport(0.0, 0, "", -1, 0.0, 0.0)
    for name, t in named_tensors:
        for idx in coords.get(name, ()):
            idx = int(idx)
            at = np.unravel_index(idx, t.data.shape)  # in place, in any view of an arena
            orig = t.data[at]
            t.data[at] = orig + h
            fp = float(build_loss().data)
            t.data[at] = orig - h
            fm = float(build_loss().data)
            t.data[at] = orig
            fd = (fp - fm) / (2.0 * h)
            ad = float(analytic[name].reshape(-1)[idx])
            rel = abs(ad - fd) / max(abs(ad), abs(fd), denom_floor)
            report.n_coords += 1
            if rel > report.max_rel_err:
                report.max_rel_err = rel
                report.worst_param = name
                report.worst_index = idx
                report.analytic = ad
                report.numeric = fd
    return report


def sample_coords(store_items: list[tuple[str, Tensor]], target: int,
                  rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Pick >= ``target`` coordinates spread over every tensor (all of the small ones)."""
    per = max(1, int(np.ceil(target / max(1, len(store_items)))))
    coords = {}
    for name, t in store_items:
        n = t.data.size
        if n <= per:
            coords[name] = np.arange(n)
        else:
            coords[name] = rng.choice(n, size=per, replace=False)
    return coords


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"CDGIN1"
CHECKPOINT_SCHEMA_VERSION = 2


def save_params(path: str, store: ParamStore, header: dict | None = None) -> None:
    """Write a versioned binary checkpoint: magic, schema, a length-prefixed
    sort_keys JSON header (``header``, ``{}`` by default), then sorted
    (name, shape, float64 LE) tensors.

    A checkpoint holds one model: save one fold of a stacked store (``store.fold(f)``).
    """
    if store.n_folds != 1:
        raise StateError(f"a checkpoint holds one model, the store {store.n_folds} folds")
    meta = json.dumps({} if header is None else header, sort_keys=True).encode("utf-8")
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<II", CHECKPOINT_SCHEMA_VERSION, len(meta)))
        f.write(meta)
        f.write(struct.pack("<I", len(store)))
        for name, p in store.items():
            raw = name.encode("utf-8")
            f.write(struct.pack("<H", len(raw)))
            f.write(raw)
            f.write(struct.pack("<B", p.data.ndim))
            for d in p.data.shape:
                f.write(struct.pack("<I", d))
            f.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())
    os.replace(tmp, path)


def load_params(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    """The header and the tensors of the checkpoint at ``path``.

    Each tensor is a read-only view of the bytes read for it. Anything
    malformed, from the magic to a non-finite value, is a ParseError naming
    the file.
    """
    with open(path, "rb") as f:
        magic = f.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ParseError(f"{path}: not a checkpoint (bad magic)")
        size = os.fstat(f.fileno()).st_size
        # a file cut inside a field gives short reads, which struct and
        # utf-8 decoding report with their own exception types
        try:
            version, meta_len = struct.unpack("<II", f.read(8))
            if version == 1:
                raise ParseError(f"{path}: checkpoint schema 1 holds no training config; "
                                 f"retrain the model to write schema {CHECKPOINT_SCHEMA_VERSION}")
            if version != CHECKPOINT_SCHEMA_VERSION:
                raise ParseError(f"{path}: unsupported checkpoint schema_version {version}")
            left = size - f.tell()
            if meta_len > left:
                raise ParseError(f"{path}: truncated checkpoint (header needs {meta_len} "
                                 f"bytes, {left} left)")
            try:
                header = json.loads(f.read(meta_len))
            except (ValueError, RecursionError) as err:
                raise ParseError(f"{path}: checkpoint header is not JSON ({err})") from None
            if not isinstance(header, dict):
                raise ParseError(f"{path}: checkpoint header is not a JSON object")
            (count,) = struct.unpack("<I", f.read(4))
            out: dict[str, np.ndarray] = {}
            for _ in range(count):
                (nlen,) = struct.unpack("<H", f.read(2))
                name = f.read(nlen).decode("utf-8")
                (ndim,) = struct.unpack("<B", f.read(1))
                shape = struct.unpack(f"<{ndim}I", f.read(4 * ndim)) if ndim else ()
                # Python ints: numpy's product wraps on large shape words
                nbytes = 8 * math.prod(shape)
                left = size - f.tell()
                if nbytes > left:
                    raise ParseError(f"{path}: truncated checkpoint ({name!r} "
                                     f"needs {nbytes} bytes, {left} left)")
                out[name] = np.frombuffer(f.read(nbytes), dtype="<f8").reshape(shape)
        except (struct.error, UnicodeDecodeError) as err:
            raise ParseError(f"{path}: truncated or corrupt checkpoint ({err})") from None
    # one check over all values; the per-tensor search runs only on a failure
    flat = np.concatenate([v.reshape(-1) for v in out.values()]) if out else np.zeros(0)
    if np.count_nonzero(np.isfinite(flat)) != flat.size:
        for name, values in out.items():
            bad = ~np.isfinite(values)
            if bad.any():
                first = tuple(int(i) for i in np.argwhere(bad)[0])
                raise ParseError(f"{path}: non-finite value in {name!r} at index {first}")
    return header, out


def check_tensors(path: str, values: dict[str, np.ndarray],
                  shapes: dict[str, tuple[int, ...]]) -> None:
    """Raise a ParseError naming the file at ``path`` and the first tensor, in
    name order, that ``values`` lacks, holds in excess or holds in another
    shape than ``shapes`` gives it."""
    if {name: v.shape for name, v in values.items()} == shapes:
        return
    for name in sorted(shapes.keys() | values.keys()):
        stored = values[name].shape if name in values else "absent"
        want = shapes.get(name, "absent")
        if stored != want:
            raise ParseError(f"{path}: tensor {name!r} is {stored} in the file but "
                             f"{want} in the model")


def load_into(store: ParamStore, path: str) -> None:
    """Write every parameter's value from the checkpoint at ``path`` into
    ``store``'s buffers, in place.

    The header is not read: ``train_eval.load_model`` builds a model from
    it. Names and shapes are checked (:func:`check_tensors`) before
    anything is written, so on an error the store keeps its values. The
    values go into the value buffer itself, not through the tensors'
    arrays, so a tensor given a new array does not take them. A fold of a
    stacked store loads its own row; a :meth:`ParamStore.no_grad` view is
    refused, as it is by :func:`adam_step`.
    """
    if store._grad is None:
        raise StateError("a no_grad view takes no checkpoint: load into its store")
    if store.n_folds != 1:
        raise StateError(f"a checkpoint holds one model, the store {store.n_folds} folds")
    _, values = load_params(path)
    check_tensors(path, values, dict(zip(store._names, store._shapes)))
    np.concatenate([values[n].reshape(-1) for n in store._names] or [np.zeros(0)],
                   out=store._data)
