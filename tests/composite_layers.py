"""Oracle: every fused op of the model built from small autodiff primitives.

``temporal_encoder``, ``cdgin`` and ``fusion_head`` compute each step of
the model as one fused op with a hand-written adjoint: the node-feature
assembly, the GIN node update and readout, the CBAM layers, the
projection, the contrastive loss, the classifier and the binary
cross-entropy. The forms here build the same steps op by op, with the
same numpy expressions in the same order, so the fused ops must match
them bit for bit in values and within roundoff in gradients. The
primitives below exist only for these oracles and for the autodiff core's
own tests; ``diffcore`` keeps only the ones the model itself calls.
:func:`textbook_adam_step` is the textbook form of ``diffcore.adam_step``'s
update, with a fresh array for every term.
"""

import numpy as np

from cdgl import cdgin
from cdgl import diffcore as dc
from cdgl.errors import ShapeError



def sub(a: dc.Tensor, b: dc.Tensor) -> dc.Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"sub: {a.data.shape} vs {b.data.shape}")
    out = a.data - b.data

    def bk(g):
        if a.requires_grad:
            yield a, g
        if b.requires_grad:
            yield b, -g

    return dc._make(out, "sub", (a, b), bk)


def neg(a: dc.Tensor) -> dc.Tensor:
    return dc._make(-a.data, "neg", (a,), lambda g: ((a, -g),))


def mul(a: dc.Tensor, b: dc.Tensor) -> dc.Tensor:
    """Elementwise product; broadcasts as :func:`add` does."""
    dc._check_broadcast("mul", a.data.shape, b.data.shape)
    out = a.data * b.data

    def bk(g):
        if a.requires_grad:
            yield a, dc._unbroadcast(g * b.data, a.data.shape)
        if b.requires_grad:
            yield b, dc._unbroadcast(g * a.data, b.data.shape)

    return dc._make(out, "mul", (a, b), bk)


def div(a: dc.Tensor, b: dc.Tensor) -> dc.Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"div: {a.data.shape} vs {b.data.shape}")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = a.data / b.data

    def bk(g):
        if a.requires_grad:
            yield a, g / b.data
        if b.requires_grad:
            yield b, -g * a.data / (b.data * b.data)

    return dc._make(out, "div", (a, b), bk)


def linear(x: dc.Tensor, w: dc.Tensor, b: dc.Tensor | None = None) -> dc.Tensor:
    """x @ w^T (+ b) over the rows of an (R, K) ``x``, for an (N, K) weight
    and an (N,) bias: an (R, N) result.

    Weight and bias stacked on a leading fold axis, (F, N, K) and (F, N),
    apply entry f to the f-th of F fold-major blocks of R / F rows.
    """
    sx, sw = x.data.shape, w.data.shape
    if len(sx) != 2 or len(sw) not in (2, 3) or sx[1] != sw[-1] \
            or (b is not None and b.data.shape != sw[:-1]):
        raise ShapeError(f"linear: {sx} by weight {sw}"
                         + ("" if b is None else f" and bias {b.data.shape}"))
    folds = dc.fold_count(w.data, 2, sx[0])
    x_blocks = x.data.reshape(folds, sx[0] // folds, sx[1])  # (F, R / F, K)
    out = np.matmul(x_blocks, w.data.swapaxes(-1, -2))
    if b is not None:
        out += b.data.reshape(folds, 1, sw[-2])
    out = out.reshape(sx[0], sw[-2])

    def bk(g):
        g_blocks = g.reshape(folds, -1, sw[-2])
        if x.requires_grad:
            yield x, np.matmul(g_blocks, w.data).reshape(sx)
        if w.requires_grad:
            yield w, np.matmul(x_blocks.swapaxes(1, 2), g_blocks).swapaxes(-1, -2).reshape(sw)
        if b is not None and b.requires_grad:
            yield b, g_blocks.sum(axis=1).reshape(b.data.shape)

    return dc._make(out, "linear", (x, w) if b is None else (x, w, b), bk)


def bmm(a: dc.Tensor, b: dc.Tensor) -> dc.Tensor:
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

    return dc._make(out, "bmm", (a, b), bk)


def transpose(a: dc.Tensor) -> dc.Tensor:
    """Swap the last two axes: the transpose of a matrix, or of each matrix in a stack."""
    if a.data.ndim < 2:
        raise ShapeError(f"transpose: needs 2 or more axes, got {a.data.shape}")
    return dc._make(np.swapaxes(a.data, -1, -2), "transpose", (a,),
                    lambda g: ((a, np.swapaxes(g, -1, -2)),))


def sigmoid(a: dc.Tensor) -> dc.Tensor:
    out = dc.sigmoid_array(a.data)
    return dc._make(out, "sigmoid", (a,), lambda g: ((a, g * out * (1.0 - out)),))


def tanh(a: dc.Tensor) -> dc.Tensor:
    out = np.tanh(a.data)
    return dc._make(out, "tanh", (a,), lambda g: ((a, g * (1.0 - out * out)),))


def exp(a: dc.Tensor) -> dc.Tensor:
    with np.errstate(over="ignore"):
        out = np.exp(a.data)
    return dc._make(out, "exp", (a,), lambda g: ((a, g * out),))


def log(a: dc.Tensor) -> dc.Tensor:
    """Natural log with the argument floored at dc.LOG_FLOOR; zero grad below the floor."""
    clipped = np.maximum(a.data, dc.LOG_FLOOR)
    out = np.log(clipped)
    mask = a.data > dc.LOG_FLOOR
    return dc._make(out, "log", (a,), lambda g: ((a, g * mask / clipped),))


def sqrt(a: dc.Tensor) -> dc.Tensor:
    out = np.sqrt(a.data)
    return dc._make(out, "sqrt", (a,), lambda g: ((a, g * 0.5 / out),))


def clip_min(a: dc.Tensor, lo: float) -> dc.Tensor:
    lo = float(lo)
    out = np.maximum(a.data, lo)
    mask = a.data > lo
    return dc._make(out, "clip_min", (a,), lambda g: ((a, g * mask),))


def mean_pool(a: dc.Tensor, axis: int) -> dc.Tensor:
    """Mean over one axis of an array of any rank >= 1."""
    if not 0 <= axis < a.data.ndim:
        raise ShapeError(f"mean_pool: axis {axis} of a {a.data.ndim}-D input")
    shape = a.data.shape
    kept = shape[:axis] + (1,) + shape[axis + 1:]  # the pooled axis kept at length 1
    out = a.data.sum(axis=axis) / shape[axis]  # what ndarray.mean computes, without its wrapper

    def bk(g):
        ga = np.empty(shape)
        ga[...] = (g / shape[axis]).reshape(kept)
        return ((a, ga),)

    return dc._make(out, "mean_pool", (a,), bk)


def take_rows(m: dc.Tensor, idx) -> dc.Tensor:
    """Rows ``idx`` of a 2-D tensor, in order, as a (len(idx), C) matrix; of
    a stack of matrices, those rows of each."""
    idx = np.asarray(idx, dtype=np.intp)
    if m.data.ndim not in (2, 3) or idx.ndim != 1:
        raise ShapeError(f"take_rows: 2-D tensor or stack and 1-D indices, got {m.data.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= m.data.shape[-2]):
        raise ShapeError(f"take_rows: index out of range for {m.data.shape[-2]} rows")
    out = m.data[..., idx, :]

    def bk(g):
        gm = np.zeros_like(m.data)
        np.add.at(gm, (Ellipsis, idx, slice(None)), g)
        return ((m, gm),)

    return dc._make(out, "take_rows", (m,), bk)



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


def gin_node_update(h_in, a, p: cdgin.GinLayerParams, activation=tanh):
    """MLP((eps I + A_t) H_t W) for every window t, op by op."""
    rows, d = h_in.data.shape
    neighbours = bmm(dc.const(a), dc.reshape(h_in, (a.shape[0], a.shape[1], d)))
    mixed = dc.add(scale(h_in, p.eps), dc.reshape(neighbours, (rows, d)))
    x = matmul(mixed, p.w)
    h1 = activation(dc.add(matmul(x, p.mlp_w1), p.mlp_b1))
    return dc.add(matmul(h1, p.mlp_w2), p.mlp_b2)


def attention_readout(h_nodes, w_q, w_k):
    """Per-window graph vectors (N_w, D) and attention weights (N_w, M), op by op."""
    n, m, d = h_nodes.data.shape
    q = matmul(mean_pool(h_nodes, axis=1), transpose(w_q))  # (N_w, D)
    keyed = dc.reshape(matmul(q, w_k), (n, d, 1))  # row t: W_k^T q_t
    logits = dc.mul_scalar(dc.reshape(bmm(h_nodes, keyed), (n, m)), 1.0 / np.sqrt(d))
    weights = softmax(logits)
    readout = bmm(dc.reshape(weights, (n, 1, m)), h_nodes)
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
    w1_t, w2_t = transpose(p.chan_w1), transpose(p.chan_w2)

    def mlp(v):  # (B, C) rows
        hidden = tanh(dc.add(matmul(v, w1_t), p.chan_b1))
        return dc.add(matmul(hidden, w2_t), p.chan_b2)

    mx = max_pool(h_f, axis=1)
    av = mean_pool(h_f, axis=1)
    return sigmoid(dc.add(mlp(mx), mlp(av)))


def temporal_attention(h_f, p):
    """Per-window factors (B, N_w), op by op."""
    b, n_w, _ = h_f.data.shape
    mx = dc.reshape(max_pool(h_f, axis=2), (b, 1, n_w))
    av = dc.reshape(mean_pool(h_f, axis=2), (b, 1, n_w))
    stacked = dc.concat([mx, av], axis=1)  # (B, 2, N_w)
    return sigmoid(conv1d_same(stacked, p.temporal_kernel))


def apply_attention(h_f, channel, temporal):
    """H_f * channel[b, c] * temporal[b, t], op by op."""
    b, n_w, c = h_f.data.shape
    gated = mul(h_f, dc.reshape(channel, (b, 1, c)))
    return mul(gated, dc.reshape(temporal, (b, n_w, 1)))


def project(h, w1, b1, w2, b2):
    """The shared projection head over the rows of ``h``, op by op."""
    return linear(tanh(linear(h, w1, b1)), w2, b2)


def contrastive_loss(z_r, z_d, cfg: cdgin.ContrastiveConfig):
    """(B,) contrastive losses of (B, N_w, P) projections, op by op."""
    b, n, width = z_r.data.shape
    z = z_r if z_d is None else dc.concat([z_r, z_d], axis=-2)  # (B, K, P)
    k = z.data.shape[-2]
    negative, weights = cdgin._pair_weights(n, k // n, cfg.delta)
    sq = bmm(mul(z, z), dc.const(np.ones((b, width, 1))))
    norms = sqrt(clip_min(sq, cdgin.COSINE_NORM_FLOOR ** 2))  # (B, K, 1)
    cos = div(bmm(z, transpose(z)), bmm(norms, transpose(norms)))
    e = exp(cos)
    base = bmm(mul(e, dc.const(negative)), dc.const(np.ones((b, k, 1))))
    per_pair = sub(log(dc.add(base, e)), cos)  # base broadcasts along rows
    pair_weights = np.broadcast_to(weights.reshape(k * k, 1), (b, k * k, 1))
    loss = bmm(dc.reshape(per_pair, (b, 1, k * k)), dc.const(pair_weights))
    return dc.reshape(loss, (b,))


def classify(h_a_layers, p):
    """(B,) probabilities from each layer's attended (B, N_w, C) features, op by op."""
    pooled = [mean_pool(h_a, axis=1) for h_a in h_a_layers]  # (B, C) each
    feat = pooled[0] if len(pooled) == 1 else dc.concat(pooled, axis=1)
    logit = linear(tanh(linear(feat, p.w1, p.b1)), p.w2, p.b2)  # (B, 1)
    return sigmoid(dc.reshape(logit, (logit.data.shape[0],)))


def bce(y_hat, y):
    """-log(y p + (1 - y)(1 - p)), elementwise, op by op."""
    y = np.asarray(y, dtype=np.float64)
    arg = dc.add(mul(y_hat, dc.const(2.0 * y - 1.0)), dc.const(1.0 - y))
    return neg(log(arg))


def assemble_node_features(hidden, starts, window_size, w_m, m):
    """(B * N_w * M, D) node features of every window, op by op."""
    b, t, d = hidden.data.shape
    ends = [s + window_size - 1 for s in starts]
    folds = dc.fold_count(w_m.data, 2, b)
    rows = dc.reshape(hidden, (b * t, d))
    picked = (t * np.arange(b)[:, None] + np.asarray(ends)).ravel()  # (B * N_w,)
    w_m_t = transpose(w_m)  # (M + D, D), per fold
    node = take_rows(w_m_t, np.arange(m))  # (M, D), per fold
    w_context = transpose(take_rows(w_m_t, np.arange(m, m + d)))  # (D, D), per fold
    context = linear(take_rows(rows, picked), w_context)  # (B * N_w, D)
    windows = len(picked) // folds  # per fold
    feats = dc.add(dc.reshape(context, (folds, windows, 1, d)),
                   dc.reshape(node, (folds, 1, m, d)))
    return dc.reshape(feats, (len(picked) * m, d))


def textbook_adam_step(params, grads, state):
    """``diffcore.adam_step``'s update as the textbook writes it: one step
    over {name: array} in sorted-name order, moments in per-name dicts, a
    fresh array for every term."""
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
