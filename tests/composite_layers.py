"""Oracle: the GIN and CBAM layers built from small autodiff primitives.

``cdgin`` and ``fusion_head`` compute each layer step as one fused op with
a hand-written adjoint. The forms here build the same steps op by op, with
the same numpy expressions in the same order, so the fused ops must match
them bit for bit in values and within roundoff in gradients. The five
primitives below exist only for these oracles and for the autodiff core's
own tests; every other primitive is ``diffcore``'s own.
"""

import numpy as np

from cdgl import cdgin
from cdgl import diffcore as dc
from cdgl.errors import ShapeError


def matmul(a: dc.Tensor, b: dc.Tensor) -> dc.Tensor:
    """(R, K) @ (K, N): the product of two matrices."""
    sa, sb = a.data.shape, b.data.shape
    if len(sa) != 2 or len(sb) != 2 or sa[1] != sb[0]:
        raise ShapeError(f"matmul: {sa} @ {sb}")
    out = np.matmul(a.data, b.data)

    def bk(g):
        if a.requires_grad:
            yield a, np.matmul(g, b.data.T)
        if b.requires_grad:
            yield b, np.matmul(a.data.T, g)

    return dc._make(out, "matmul", (a, b), bk)


def scale(a: dc.Tensor, s: dc.Tensor) -> dc.Tensor:
    """Multiply an array by a scalar () tensor (e.g. the learnable epsilon)."""
    if s.data.shape != ():
        raise ShapeError("scale: scalar tensor required")
    out = a.data * s.data
    return dc._make(out, "scale", (a, s),
                    lambda g: ((a, g * float(s.data)), (s, np.asarray((g * a.data).sum()))))


def softmax(a: dc.Tensor) -> dc.Tensor:
    """Stable softmax over the last axis of a vector or of each row of a matrix."""
    if a.data.ndim not in (1, 2):
        raise ShapeError(f"softmax: 1-D or 2-D input, got {a.data.shape}")
    e = np.exp(a.data - a.data.max(axis=-1, keepdims=True))
    out = e / e.sum(axis=-1, keepdims=True)
    return dc._make(out, "softmax", (a,),
                    lambda g: ((a, out * (g - (g * out).sum(axis=-1, keepdims=True))),))


def max_pool(a: dc.Tensor, axis: int) -> dc.Tensor:
    """Max over one axis of an array of any rank >= 1; gradient routes to the first argmax."""
    if not 0 <= axis < a.data.ndim:
        raise ShapeError(f"max_pool: axis {axis} of a {a.data.ndim}-D input")
    idx = np.expand_dims(a.data.argmax(axis=axis), axis)
    out = a.data.max(axis=axis)

    def bk(g):
        ga = np.zeros_like(a.data)
        np.put_along_axis(ga, idx, np.expand_dims(g, axis), axis)
        return ((a, ga),)

    return dc._make(out, "max_pool", (a,), bk)


def conv1d_same(x: dc.Tensor, kernel: dc.Tensor) -> dc.Tensor:
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

    return dc._make(out, "conv1d_same", (x, kernel), bk)


def gin_node_update(h_in, a, p: cdgin.GinLayerParams, activation=dc.tanh):
    """MLP((eps I + A_t) H_t W) for every window t, op by op."""
    rows, d = h_in.data.shape
    neighbours = dc.bmm(dc.const(a), dc.reshape(h_in, (a.shape[0], a.shape[1], d)))
    mixed = dc.add(scale(h_in, p.eps), dc.reshape(neighbours, (rows, d)))
    x = matmul(mixed, p.w)
    h1 = activation(dc.add(matmul(x, p.mlp_w1), p.mlp_b1))
    return dc.add(matmul(h1, p.mlp_w2), p.mlp_b2)


def attention_readout(h_nodes, w_q, w_k):
    """Per-window graph vectors (N_w, D) and attention weights (N_w, M), op by op."""
    n, m, d = h_nodes.data.shape
    q = matmul(dc.mean_pool(h_nodes, axis=1), dc.transpose(w_q))  # (N_w, D)
    keyed = dc.reshape(matmul(q, w_k), (n, d, 1))  # row t: W_k^T q_t
    logits = dc.mul_scalar(dc.reshape(dc.bmm(h_nodes, keyed), (n, m)), 1.0 / np.sqrt(d))
    weights = softmax(logits)
    readout = dc.bmm(dc.reshape(weights, (n, 1, m)), h_nodes)
    return dc.reshape(readout, (n, d)), weights


def gin_layer(h_in, a, p: cdgin.GinLayerParams):
    """(H_out, readouts, attention weights) of one stream-layer, op by op."""
    h_out = gin_node_update(h_in, a, p)
    n, m, _ = a.shape
    readout, weights = attention_readout(
        dc.reshape(h_out, (n, m, h_out.data.shape[1])), p.w_q, p.w_k)
    return h_out, readout, weights


def channel_attention(h_f, p):
    """Per-subject channel factors (B, C), op by op."""
    w1_t, w2_t = dc.transpose(p.chan_w1), dc.transpose(p.chan_w2)

    def mlp(v):  # (B, C) rows
        hidden = dc.tanh(dc.add(matmul(v, w1_t), p.chan_b1))
        return dc.add(matmul(hidden, w2_t), p.chan_b2)

    mx = max_pool(h_f, axis=1)
    av = dc.mean_pool(h_f, axis=1)
    return dc.sigmoid(dc.add(mlp(mx), mlp(av)))


def temporal_attention(h_f, p):
    """Per-window factors (B, N_w), op by op."""
    b, n_w, _ = h_f.data.shape
    mx = dc.reshape(max_pool(h_f, axis=2), (b, 1, n_w))
    av = dc.reshape(dc.mean_pool(h_f, axis=2), (b, 1, n_w))
    stacked = dc.concat([mx, av], axis=1)  # (B, 2, N_w)
    return dc.sigmoid(conv1d_same(stacked, p.temporal_kernel))


def apply_attention(h_f, channel, temporal):
    """H_f * channel[b, c] * temporal[b, t], op by op."""
    b, n_w, c = h_f.data.shape
    gated = dc.mul(h_f, dc.reshape(channel, (b, 1, c)))
    return dc.mul(gated, dc.reshape(temporal, (b, n_w, 1)))
