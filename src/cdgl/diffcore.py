"""Reverse-mode autodiff substrate: float64 tensors, primitive ops, Adam, checkpoints.

Everything trainable in the model lives in a :class:`ParamStore` of named
:class:`Tensor` objects. The store keeps all parameter values in one
contiguous float64 buffer and all gradients in another, each tensor's
``data`` and ``grad`` being a view into them; the Adam moments are two more
such buffers. So zeroing the gradients is one fill and an Adam step is a few
whole-array operations. Forward passes build a fresh op graph each time;
:func:`backward` walks it once in reverse topological order, holding each
node's pending gradient in a slot of the node, and accumulates gradients
into the leaves. The primitive set is deliberately small and every
primitive has a hand-written adjoint that is finite-difference tested;
adjoints compute contributions only for operands that carry gradients, so
constant operands (adjacencies, masks) cost nothing on the way back.

All arithmetic is 64-bit; gradient checks at 1e-4 relative tolerance are not
reliable below that precision.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, ParseError, ShapeError, StateError

LOG_FLOOR = 1e-12


class Tensor:
    """A float64 array with an optional gradient slot and graph linkage.

    Leaves created with ``requires_grad=True`` accumulate into ``grad`` on
    :func:`backward`; intermediates hold their pending gradient in a slot
    only for the duration of one backward walk, so backward-ing the same
    graph twice exactly doubles the leaf gradients.
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

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.data.shape})"


def const(data) -> Tensor:
    return Tensor(data)


def param(data) -> Tensor:
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


_FLOAT64 = np.dtype(np.float64)
_new_tensor = object.__new__


def _make(out: np.ndarray, op: str, parents: tuple, backward) -> Tensor:
    """The output Tensor of one op, after an exact check that every entry is finite.

    Every primitive calls it once per output. It fills the slots directly,
    as ``Tensor(out, ...)`` would, without a second float64 conversion of an
    array that already is one.
    """
    if np.count_nonzero(np.isfinite(out)) != out.size:
        first = tuple(int(i) for i in np.argwhere(~np.isfinite(out))[0])
        raise NumericsError(f"non-finite values produced by op '{op}'",
                            index=first, shape=out.shape)
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


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------

def _check_broadcast(op: str, a: Tensor, b: Tensor) -> None:
    """Raise unless ``a`` and ``b`` broadcast under this module's narrow rule.

    Operands of equal rank broadcast along axes where one side is 1. Ranks
    may differ only when the smaller operand matches the trailing axes of
    the larger exactly (a bias row); any other rank mismatch raises, so a
    stray (n,) + (n, 1) cannot become an (n, n) outer product.
    """
    sa, sb = a.data.shape, b.data.shape
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


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; broadcasts as :func:`_check_broadcast` allows."""
    _check_broadcast("add", a, b)
    out = a.data + b.data

    def bk(g):
        if a.requires_grad:
            yield a, _unbroadcast(g, a.data.shape)
        if b.requires_grad:
            yield b, _unbroadcast(g, b.data.shape)

    return _make(out, "add", (a, b), bk)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"sub: {a.data.shape} vs {b.data.shape}")
    out = a.data - b.data

    def bk(g):
        if a.requires_grad:
            yield a, g
        if b.requires_grad:
            yield b, -g

    return _make(out, "sub", (a, b), bk)


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, "neg", (a,), lambda g: ((a, -g),))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; broadcasts as :func:`add` does."""
    _check_broadcast("mul", a, b)
    out = a.data * b.data

    def bk(g):
        if a.requires_grad:
            yield a, _unbroadcast(g * b.data, a.data.shape)
        if b.requires_grad:
            yield b, _unbroadcast(g * a.data, b.data.shape)

    return _make(out, "mul", (a, b), bk)


def mul_scalar(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _make(a.data * c, "mul_scalar", (a,), lambda g: ((a, g * c),))


def scale(a: Tensor, s: Tensor) -> Tensor:
    """Multiply an array by a scalar () tensor (e.g. the learnable epsilon)."""
    if s.data.shape != ():
        raise ShapeError("scale: scalar tensor required")
    out = a.data * s.data
    return _make(out, "scale", (a, s),
                 lambda g: ((a, g * float(s.data)), (s, np.asarray((g * a.data).sum()))))


def div(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"div: {a.data.shape} vs {b.data.shape}")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = a.data / b.data

    def bk(g):
        if a.requires_grad:
            yield a, g / b.data
        if b.requires_grad:
            yield b, -g * a.data / (b.data * b.data)

    return _make(out, "div", (a, b), bk)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: {a.data.shape} @ {b.data.shape}")
    out = a.data @ b.data

    def bk(g):
        if a.requires_grad:
            yield a, g @ b.data.T
        if b.requires_grad:
            yield b, a.data.T @ g

    return _make(out, "matmul", (a, b), bk)


def bmm(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product of (B, M, K) and (B, K, N) stacks: one product per batch entry."""
    sa, sb = a.data.shape, b.data.shape
    if len(sa) != 3 or len(sb) != 3 or sa[0] != sb[0] or sa[2] != sb[1]:
        raise ShapeError(f"bmm: {sa} @ {sb}")
    out = np.matmul(a.data, b.data)

    def bk(g):
        if a.requires_grad:
            yield a, np.matmul(g, b.data.transpose(0, 2, 1))
        if b.requires_grad:
            yield b, np.matmul(a.data.transpose(0, 2, 1), g)

    return _make(out, "bmm", (a, b), bk)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes: the transpose of a matrix, or of each matrix in a stack."""
    if a.data.ndim < 2:
        raise ShapeError(f"transpose: needs 2 or more axes, got {a.data.shape}")
    return _make(np.swapaxes(a.data, -1, -2), "transpose", (a,),
                 lambda g: ((a, np.swapaxes(g, -1, -2)),))


def reshape(a: Tensor, shape) -> Tensor:
    old = a.data.shape
    out = a.data.reshape(shape)
    return _make(out, "reshape", (a,), lambda g: ((a, g.reshape(old)),))


def sum_all(a: Tensor) -> Tensor:
    out = np.asarray(a.data.sum())
    return _make(out, "sum", (a,),
                 lambda g: ((a, np.full(a.data.shape, float(g))),))


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    out = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                   np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    return _make(out, "sigmoid", (a,), lambda g: ((a, g * out * (1.0 - out)),))


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return _make(out, "tanh", (a,), lambda g: ((a, g * (1.0 - out * out)),))


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        out = np.exp(a.data)
    return _make(out, "exp", (a,), lambda g: ((a, g * out),))


def log(a: Tensor) -> Tensor:
    """Natural log with the argument floored at LOG_FLOOR; zero grad below the floor."""
    clipped = np.maximum(a.data, LOG_FLOOR)
    out = np.log(clipped)
    mask = a.data > LOG_FLOOR
    return _make(out, "log", (a,), lambda g: ((a, g * mask / clipped),))


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)
    return _make(out, "sqrt", (a,), lambda g: ((a, g * 0.5 / out),))


def clip_min(a: Tensor, lo: float) -> Tensor:
    lo = float(lo)
    out = np.maximum(a.data, lo)
    mask = a.data > lo
    return _make(out, "clip_min", (a,), lambda g: ((a, g * mask),))


def softmax(a: Tensor) -> Tensor:
    """Stable softmax over the last axis of a vector or of each row of a matrix."""
    if a.data.ndim not in (1, 2):
        raise ShapeError(f"softmax: 1-D or 2-D input, got {a.data.shape}")
    e = np.exp(a.data - a.data.max(axis=-1, keepdims=True))
    out = e / e.sum(axis=-1, keepdims=True)
    return _make(out, "softmax", (a,),
                 lambda g: ((a, out * (g - (g * out).sum(axis=-1, keepdims=True))),))


def mean_pool(a: Tensor, axis: int) -> Tensor:
    """Mean over one axis of an array of any rank >= 1."""
    if not 0 <= axis < a.data.ndim:
        raise ShapeError(f"mean_pool: axis {axis} of a {a.data.ndim}-D input")
    shape = a.data.shape
    out = a.data.mean(axis=axis)
    return _make(out, "mean_pool", (a,),
                 lambda g: ((a, np.broadcast_to(np.expand_dims(g / shape[axis], axis),
                                                shape)),))


def max_pool(a: Tensor, axis: int) -> Tensor:
    """Max over one axis of an array of any rank >= 1; gradient routes to the first argmax."""
    if not 0 <= axis < a.data.ndim:
        raise ShapeError(f"max_pool: axis {axis} of a {a.data.ndim}-D input")
    idx = np.expand_dims(a.data.argmax(axis=axis), axis)
    out = a.data.max(axis=axis)

    def bk(g):
        ga = np.zeros_like(a.data)
        np.put_along_axis(ga, idx, np.expand_dims(g, axis), axis)
        return ((a, ga),)

    return _make(out, "max_pool", (a,), bk)


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


def take_rows(m: Tensor, idx) -> Tensor:
    """Rows ``idx`` of a 2-D tensor, in order, as a (len(idx), C) matrix."""
    idx = np.asarray(idx, dtype=np.intp)
    if m.data.ndim != 2 or idx.ndim != 1:
        raise ShapeError(f"take_rows: 2-D tensor and 1-D indices, got {m.data.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= m.data.shape[0]):
        raise ShapeError(f"take_rows: index out of range for {m.data.shape[0]} rows")
    out = m.data[idx]

    def bk(g):
        gm = np.zeros_like(m.data)
        np.add.at(gm, idx, g)
        return ((m, gm),)

    return _make(out, "take_rows", (m,), bk)


def conv1d_same(x: Tensor, kernel: Tensor) -> Tensor:
    """1-D convolution with 'same' zero padding.

    ``x`` is (C, L), or a (B, C, L) batch of such inputs; ``kernel`` is
    (C, w) with w odd. Channels are summed into a single length-L output,
    (L,) or (B, L). The input's adjoint is the same convolution of the
    padded output gradient with the reversed kernel.
    """
    if (x.data.ndim not in (2, 3) or kernel.data.ndim != 2
            or x.data.shape[-2] != kernel.data.shape[0]):
        raise ShapeError(f"conv1d_same: {x.data.shape} with kernel {kernel.data.shape}")
    w = kernel.data.shape[1]
    if w % 2 != 1:
        raise ShapeError("conv1d_same: kernel width must be odd")
    pad = (w - 1) // 2
    shape = x.data.shape

    def windows(a):  # (B, ..., L) -> (B, ..., L, w), zero-padded at both ends
        padded = np.pad(a, [(0, 0)] * (a.ndim - 1) + [(pad, pad)])
        return np.lib.stride_tricks.sliding_window_view(padded, w, axis=-1)

    win = windows(x.data.reshape((-1,) + shape[-2:]))  # (B, C, L, w)
    out = np.einsum("bclw,cw->bl", win, kernel.data).reshape(shape[:-2] + shape[-1:])

    def bk(g):
        g = g.reshape(-1, shape[-1])  # (B, L)
        gk = np.einsum("bclw,bl->cw", win, g)
        gx = np.einsum("blw,cw->bcl", windows(g), kernel.data[:, ::-1])
        return ((x, gx.reshape(shape)), (kernel, gk))

    return _make(out, "conv1d_same", (x, kernel), bk)


def lstm(x: np.ndarray, w_x: Tensor, w_h: Tensor, b: Tensor) -> Tensor:
    """Single-layer LSTM over a constant (T, M) input; returns the (T, D) hidden sequence.

    A (B, T, M) input runs B sequences through one time loop and returns
    (B, T, D); the (T, M) call is the B = 1 case. Fused into one op with a
    hand-written BPTT adjoint: the per-timestep graph would otherwise
    dominate runtime. Gate layout along the 4D axis is input, forget,
    cell, output.

    Each time loop keeps only the recurrence; everything else is done for
    all timesteps at once outside it. Buffers are time-major, so step t of
    every sequence is one contiguous (B, ...) block. The forward writes
    each step's gates in place into one (T, B, 4D) buffer, as
    ``xw[t] + h @ w_h + b`` followed by one sigmoid over the whole block;
    the cell slot's tanh is taken first, kept in G and written back, so the
    sigmoid cannot overflow on that slot, whose sigmoid is then unused. The
    cell and hidden states live in (T + 1, B, D) buffers whose row 0 is the
    zero initial state, so the previous state is a view. The adjoint first
    forms the local derivative factors of every step, K = [G I(1-I),
    C_{t-1} F(1-F), I(1-G^2), tanh C O(1-O)] and P = O(1 - tanh^2 C); its
    loop then only carries ``dc = dc F_{t+1} + dh P_t`` and
    ``dh = ([dc, dc, dc, dh] * K_t) @ w_h^T``. It starts at the last
    timestep whose output gradient is non-zero in any sequence: later steps
    contribute exact zeros.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (2, 3):
        raise ShapeError(f"lstm: (T, M) or (B, T, M) input required, got {x.shape}")
    four_d = w_x.data.shape[1]
    if four_d % 4 != 0 or w_h.data.shape != (four_d // 4, four_d) or b.data.shape != (four_d,):
        raise ShapeError("lstm: inconsistent gate shapes")
    if x.shape[-1] != w_x.data.shape[0]:
        raise ShapeError(f"lstm: input width {x.shape[-1]} vs w_x {w_x.data.shape}")
    D = four_d // 4
    # time-major (T, B, M); the (T, M) input is a view with B = 1
    xt = x[:, None, :] if x.ndim == 2 else np.ascontiguousarray(x.transpose(1, 0, 2))
    T, B, M = xt.shape

    # input projection, overwritten by the gate values
    gates = (xt.reshape(T * B, M) @ w_x.data).reshape(T, B, four_d)
    G = np.empty((T, B, D))  # tanh of the cell-gate pre-activation
    C = np.zeros((T + 1, B, D))  # C[t + 1] is c_t; row 0 is the initial state
    H = np.zeros((T + 1, B, D))
    TC = np.empty((T, B, D))
    hw = np.empty((B, four_d))
    ig = np.empty((B, D))
    cell = slice(2 * D, 3 * D)
    in_g, forget_g, cell_g, out_g = (gates[..., k * D:(k + 1) * D] for k in range(4))
    # a pre-activation below about -709 overflows the gate exp to inf, and
    # 1 / (1 + inf) is the saturated gate's exact 0
    with np.errstate(over="ignore"):
        for t in range(T):
            a = gates[t]
            np.matmul(H[t], w_h.data, out=hw)
            a += hw  # a = xw[t] + h @ w_h + b, summed in that order
            a += b.data
            g_t = G[t]
            np.tanh(cell_g[t], out=g_t)
            cell_g[t] = g_t
            np.negative(a, out=a)
            np.exp(a, out=a)
            a += 1.0
            np.divide(1.0, a, out=a)
            c = C[t + 1]
            np.multiply(forget_g[t], C[t], out=c)
            np.multiply(in_g[t], g_t, out=ig)
            c += ig
            tc = TC[t]
            np.tanh(c, out=tc)
            np.multiply(out_g[t], tc, out=H[t + 1])

    def bk(g):
        gt = g[:, None, :] if x.ndim == 2 else g.transpose(1, 0, 2)  # (T, B, D)
        live = np.flatnonzero(gt.reshape(T, -1).any(axis=1))
        n = int(live[-1]) + 1 if live.size else 0  # rows from n on contribute exact zeros
        I, F, O = in_g[:n], forget_g[:n], out_g[:n]
        Gn, TCn = G[:n], TC[:n]
        K = np.empty((n, B, 4 * D))
        K[..., :D] = Gn * I * (1.0 - I)
        K[..., D:2 * D] = C[:n] * F * (1.0 - F)
        K[..., cell] = I * (1.0 - Gn * Gn)
        K[..., 3 * D:] = TCn * O * (1.0 - O)
        P = O * (1.0 - TCn * TCn)
        w_h_t = w_h.data.T
        DA = np.empty((n, B, 4 * D))
        d = np.zeros((B, 4, D))  # per sequence [dc, dc, dc, dh]: the gate gradient's multiplier
        d_rows = d.reshape(B, four_d)
        dc, dc_copies, dh = d[:, 0], d[:, 1:3], d[:, 3]
        dc_b = dc[:, None]
        dh_p = np.empty((B, D))
        for t in range(n - 1, -1, -1):
            dh += gt[t]
            np.multiply(dh, P[t], out=dh_p)
            dc += dh_p
            dc_copies[...] = dc_b
            np.multiply(d_rows, K[t], out=DA[t])
            np.matmul(DA[t], w_h_t, out=dh)
            dc *= F[t]
        da = DA.reshape(n * B, four_d)
        return ((w_x, xt[:n].reshape(n * B, M).T @ da),
                (w_h, H[:n].reshape(n * B, D).T @ da), (b, da.sum(axis=0)))

    out = H[1:, 0] if x.ndim == 2 else H[1:].transpose(1, 0, 2)
    return _make(out, "lstm", (w_x, w_h, b), bk)


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

# A node's ``_pending`` slot during a walk: None (not reached yet), _OPEN
# (its ancestors are being ordered), _ORDERED (waiting for its first gradient
# contribution), then the gradient buffer itself; None again once it is done.
_OPEN, _ORDERED = object(), object()


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every reachable leaf's ``grad``.

    The walk orders the grad-carrying ancestors of ``loss`` by an iterative
    depth-first post-order, then visits them in reverse, so every node's
    consumers have contributed before its own adjoint runs.
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
    except BaseException:
        for node in order + stack:
            node._pending = None
        raise


# ---------------------------------------------------------------------------
# parameters and optimizer
# ---------------------------------------------------------------------------

class ParamStore:
    """Named parameter tensors in one flat arena; iteration is always sorted by name.

    Parameter values and gradients each live in one contiguous float64
    buffer, laid out in sorted-name order, and every tensor's ``data`` and
    ``grad`` is a view into it. So :meth:`zero_grad` is one fill and
    :func:`adam_step` works on whole buffers. The buffers are laid out
    afresh on the first use of the store after an :meth:`add` or a
    :func:`load_into`, so building or loading a store costs one copy. Write
    into a tensor's arrays (``t.data[...] = x``); assigning it a new array
    detaches it from the arena, which :func:`adam_step` rejects.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._names: list[str] = []
        self._data = np.zeros(0)
        self._grad = np.zeros(0)
        self._views: list[tuple[str, Tensor, np.ndarray, np.ndarray]] = []
        self._laid_out = True
        self._zeroed = False

    def add(self, name: str, data) -> Tensor:
        if name in self._params:
            raise StateError(f"duplicate parameter name {name!r}")
        t = param(data)
        self._params[name] = t
        self._laid_out = False
        return t

    def _layout(self) -> None:
        """Unless laid out already, copy every tensor's data and grad into fresh
        buffers in sorted-name order and point the tensors at them."""
        if self._laid_out:
            return
        self._names = sorted(self._params)
        tensors = [self._params[n] for n in self._names]
        data = np.concatenate([t.data.reshape(-1) for t in tensors] or [np.zeros(0)])
        grad = np.zeros_like(data)
        self._views = []
        lo = 0
        for name, t in zip(self._names, tensors):
            shape = t.data.shape
            hi = lo + t.data.size
            if t.grad is not None:
                grad[lo:hi] = t.grad.reshape(-1)
            t.data, t.grad = data[lo:hi].reshape(shape), grad[lo:hi].reshape(shape)
            self._views.append((name, t, t.data, t.grad))
            lo = hi
        self._data, self._grad = data, grad
        self._laid_out = True

    def _adopt(self, arrays: dict[str, np.ndarray]) -> None:
        """Take ``arrays`` as the tensors' values; the next use lays them out in the arena."""
        for name, t in self._params.items():
            t.data = arrays[name]
        self._laid_out = False

    def __getitem__(self, name: str) -> Tensor:
        self._layout()
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        self._layout()
        return list(self._names)

    def items(self):
        self._layout()
        return [(n, self._params[n]) for n in self._names]

    def zero_grad(self) -> None:
        self._layout()
        self._grad.fill(0.0)
        self._zeroed = True


def glorot_uniform(rng: np.random.Generator, shape: tuple[int, ...],
                   fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


@dataclass
class AdamState:
    """Adam moments plus hyperparameters; weight decay is decoupled.

    ``m`` and ``v`` are flat buffers laid out like the store's arena,
    allocated as zeros by the first :func:`adam_step`.
    """

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    step_count: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def adam_step(store: ParamStore, state: AdamState) -> None:
    """One Adam update with bias correction; decay applied before the Adam delta.

    The update runs on the store's whole parameter, gradient and moment
    buffers at once, with the same elementwise expression per entry as a
    per-tensor loop. A store whose gradients were never zeroed and are all
    exactly zero has seen no backward pass, and is rejected.
    """
    store._layout()
    for name, t, data, grad in store._views:
        if t.data is not data or t.grad is not grad:
            raise StateError(f"parameter {name!r} was given a new array, outside the "
                             "store's buffer; write into it with [...] instead")
    data, g = store._data, store._grad
    if not store._zeroed and not g.any():
        raise StateError("adam_step called before any backward pass populated gradients")
    if state.m is None:
        state.m, state.v = np.zeros_like(data), np.zeros_like(data)
    elif state.m.shape != data.shape:
        raise StateError(f"Adam moments hold {state.m.size} values, the store {data.size}")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    m, v = state.m, state.v
    if state.weight_decay:
        data -= state.lr * state.weight_decay * data
    m *= state.beta1
    m += (1.0 - state.beta1) * g
    v *= state.beta2
    v += (1.0 - state.beta2) * g * g
    data -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


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
        flat = t.data.reshape(-1)
        for idx in coords.get(name, ()):
            idx = int(idx)
            orig = flat[idx]
            flat[idx] = orig + h
            fp = float(build_loss().data)
            flat[idx] = orig - h
            fm = float(build_loss().data)
            flat[idx] = orig
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
CHECKPOINT_SCHEMA_VERSION = 1


def save_params(path: str, store: ParamStore) -> None:
    """Write a versioned binary checkpoint: magic, schema, sorted (name, shape, float64 LE)."""
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<II", CHECKPOINT_SCHEMA_VERSION, len(store)))
        for name, p in store.items():
            raw = name.encode("utf-8")
            f.write(struct.pack("<H", len(raw)))
            f.write(raw)
            f.write(struct.pack("<B", p.data.ndim))
            for d in p.data.shape:
                f.write(struct.pack("<I", d))
            f.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())
    os.replace(tmp, path)


def load_params(path: str) -> dict[str, np.ndarray]:
    with open(path, "rb") as f:
        magic = f.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ParseError(f"{path}: not a checkpoint (bad magic)")
        # a file cut inside a header field gives short reads, which struct
        # and utf-8 decoding report with their own exception types
        try:
            version, count = struct.unpack("<II", f.read(8))
            if version != CHECKPOINT_SCHEMA_VERSION:
                raise ParseError(f"{path}: unsupported checkpoint schema_version {version}")
            out: dict[str, np.ndarray] = {}
            size = os.fstat(f.fileno()).st_size
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
                buf = f.read(nbytes)
                out[name] = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
        except (struct.error, UnicodeDecodeError) as err:
            raise ParseError(
                f"{path}: truncated or corrupt checkpoint header ({err})") from None
    # one check over all values; the per-tensor search runs only on a failure
    flat = np.concatenate([v.reshape(-1) for v in out.values()]) if out else np.zeros(0)
    if np.count_nonzero(np.isfinite(flat)) != flat.size:
        for name, values in out.items():
            bad = ~np.isfinite(values)
            if bad.any():
                first = tuple(int(i) for i in np.argwhere(bad)[0])
                raise ParseError(f"{path}: non-finite value in {name!r} at index {first}")
    return out


def load_into(store: ParamStore, path: str) -> None:
    """Give every parameter of ``store`` its value from the checkpoint at ``path``.

    Names and shapes are checked before anything is written, so on an
    error the store keeps its values.
    """
    values = load_params(path)
    names = sorted(store._params)
    missing = set(names) - set(values)
    extra = set(values) - set(names)
    if missing or extra:
        raise ParseError(f"{path}: parameter names do not match model "
                         f"(missing={sorted(missing)}, extra={sorted(extra)})")
    for name in names:
        shape = store._params[name].data.shape
        if values[name].shape != shape:
            raise ShapeError(f"{path}: shape mismatch for {name!r}: "
                             f"{values[name].shape} vs {shape}")
    store._adopt(values)
