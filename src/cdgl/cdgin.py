"""Dual-stream GIN layers, attention readout, shared projection, and the
cross-window/cross-stream contrastive loss.

Each stream updates node features as MLP((eps I + A) H W) with its own
parameters, where A is a symmetric 0/1 adjacency stack, bool or float64;
graph-level vectors come from a single-head query-key attention
over nodes. Windows are a batch axis: one layer call updates and reads out
every window of a stream, so the op count does not grow with the window
count. The node update and the readout are one fused autodiff op each,
with hand-written adjoints, so a layer call is three ops (a reshape joins
them); ``tests/composite_layers.py`` keeps the op-by-op forms they
replaced as their oracle. The node update keeps three node matrices for
its adjoint, (eps I + A) H, the MLP's tanh output and its own output, and
neither adjoint writes into an array its forward saved, so a graph can be
walked twice. The node-matrix-sized arrays of both ops come from a
per-thread pool (:class:`_NodeBuffers`) that hands a buffer out again once
nothing references it, so train steps reuse the memory of the steps
before them. The shared projection (linear, tanh, linear) is one fused
op. The contrastive loss treats every (stream, window) projection as an
anchor whose positives are the same-stream windows at offset +-delta; for
a batch of subjects it is one stack of per-subject cosine matrices and a
masked log-sum-exp, one fused op whatever the window count or batch size.
The loss takes only that batch; one subject is the B = 1 batch.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from . import dynamic_fc as dfc
from .errors import ConfigError, ShapeError, WindowBudgetError

COSINE_NORM_FLOOR = 1e-12
NODE_BUFFER_BYTES = 32 << 20  # most that a thread's node-buffer pool keeps


@dataclass(frozen=True)
class ContrastiveConfig:
    delta: int = 1
    alpha: float = 0.1

    def __post_init__(self):
        if self.delta < 1:
            raise ConfigError(f"delta must be >= 1, got {self.delta}")
        if self.alpha < 0:
            raise ConfigError(f"alpha must be >= 0, got {self.alpha}")


@dataclass
class GinLayerParams:
    """One stream-layer's tensors: eps scalar, linear map, MLP, readout maps."""

    eps: dc.Tensor
    w: dc.Tensor
    mlp_w1: dc.Tensor
    mlp_b1: dc.Tensor
    mlp_w2: dc.Tensor
    mlp_b2: dc.Tensor
    w_q: dc.Tensor
    w_k: dc.Tensor


class _NodeBuffers(threading.local):
    """Float64 buffers of one size, reused by the GIN ops from call to call.

    A train step's graph holds about a dozen node matrices until its
    backward frees them, and the next step allocates the same sizes again.
    By default glibc returns a freed heap top to the OS once it exceeds a
    trim threshold derived from the largest array freed so far, so whether
    a step faults those pages in anew depends on where earlier allocations
    happened to land, and the step's time with it. Buffers taken from here
    stay with the pool instead. One is handed out again only when nothing
    else references it (CPython's reference count), so a graph that is
    still alive keeps its arrays, and no later call writes into an array
    that a caller holds. The pool keeps buffers of the last size asked
    for, at most NODE_BUFFER_BYTES of them; other requests get a new
    array. Each thread has its own pool.
    """

    def __init__(self):
        self.size, self.bufs = 0, []
        for buf in [np.empty(0)]:  # the count of an unshared list entry, as take() sees it
            self.unshared = sys.getrefcount(buf)

    def take(self, shape: tuple[int, ...]) -> np.ndarray:
        """An uninitialized float64 array of ``shape`` that nothing else holds."""
        size = math.prod(shape)
        if size != self.size:
            self.size, self.bufs = size, []
        for buf in self.bufs:
            if sys.getrefcount(buf) == self.unshared:
                return buf.reshape(shape)
        buf = np.empty(size)
        if (len(self.bufs) + 1) * buf.nbytes <= NODE_BUFFER_BYTES:
            self.bufs.append(buf)
        return buf.reshape(shape)


_BUFFERS = _NodeBuffers()


def release_buffers() -> None:
    """Drop this thread's pooled node buffers; arrays still in use stay valid."""
    _BUFFERS.size, _BUFFERS.bufs = 0, []


def _neighbour_sum(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A_t X_t for every window t: (N_w, M, M) @ (N_w, M, D) -> float64 (N_w, M, D).

    The windows go in blocks of at most dynamic_fc.BLOCK_ENTRIES adjacency
    entries, 512 KiB as float64, which fits a core's L2 cache. So a bool
    stack is cast to float64 one block at a time, never whole, and a
    float64 stack takes the same path with a no-op cast. Every window's
    product is the one an unblocked batched product makes.
    """
    m = a.shape[1]
    out = _BUFFERS.take(x.shape)
    step = max(1, dfc.BLOCK_ENTRIES // (m * m))
    for lo in range(0, a.shape[0], step):
        blk = slice(lo, lo + step)
        np.matmul(a[blk], x[blk], out=out[blk], dtype=np.float64)
    return out


def gin_node_update(h_in: dc.Tensor, a: np.ndarray, p: GinLayerParams) -> dc.Tensor:
    """MLP((eps I + A_t) H_t W) for every window t at once, as one op.

    ``h_in`` is the (N_w * M, D) window-major node matrix and ``a`` the
    constant (N_w, M, M) adjacency stack, bool or float64; the neighbour sum
    is one blocked product (:func:`_neighbour_sum`) and W and the two-layer
    tanh MLP are shared matmuls over all N_w * M rows.

    Precondition: every A_t is symmetric, as :func:`dynamic_fc.binarize_topk`
    builds it. The adjoint multiplies the gradient by A_t where A_t^T is
    meant, which reads the stack in its own layout; the op does not check
    this, and for a non-symmetric stack the input's gradient is wrong.

    Parameters stacked along a leading fold axis F apply per
    fold: the rows split into F fold-major blocks, and each weight product
    is one batched matmul over the blocks. A non-finite MLP pre-activation
    raises NumericsError with its index in the rows, since tanh would hide
    an infinity.

    The op keeps ``mixed`` = (eps I + A) H and the MLP's tanh output for
    its adjoint, besides its output; x = mixed W is formed and dropped.
    With G the pre-activation's gradient, one (D, D) product per fold,
    mixed^T G, gives both W_1's gradient, W^T (mixed^T G), and W's,
    (mixed^T G) W_1^T, and the gradient of ``mixed`` is G (W W_1)^T: four
    node-matrix products besides the adjacency's, where going through x
    takes six. The eps gradient is one dot product per fold, and the bias
    gradients, sums over the rows, are products with a row of ones, which
    is faster than numpy's strided sum.
    """
    rows, d = h_in.data.shape
    if a.ndim != 3 or a.shape[1] != a.shape[2] or a.shape[0] * a.shape[1] != rows:
        raise ShapeError(f"adjacency stack {a.shape} does not match {rows} node rows")
    n, m = a.shape[0], a.shape[1]
    folds = dc.fold_count(p.w.data, 2, n)
    lead = p.w.data.shape[:-2]
    for name, t in (("w", p.w), ("mlp_w1", p.mlp_w1), ("mlp_w2", p.mlp_w2)):
        if t.data.shape != (*lead, d, d):
            raise ShapeError(f"{name} must be {(*lead, d, d)}, got {t.data.shape}")
    h = h_in.data.reshape(folds, -1, d)
    eps = p.eps.data.reshape(folds, 1, 1)
    w, w1, w2 = (t.data.reshape(folds, d, d) for t in (p.w, p.mlp_w1, p.mlp_w2))
    take = _BUFFERS.take
    with np.errstate(over="ignore", invalid="ignore"):  # the checks below report it
        mixed = _neighbour_sum(a, h_in.data.reshape(n, m, d)).reshape(h.shape)
        # (eps I + A) H; the sum commutes, so its bits are h * eps + A H
        mixed += np.multiply(h, eps, out=take(h.shape))
        x = np.matmul(mixed, w, out=take(h.shape))  # x = mixed W is not kept
        pre = np.matmul(x, w1, out=take(h.shape))
        del x
        pre += p.mlp_b1.data.reshape(folds, 1, d)
        dc.check_finite(pre.reshape(rows, d), "gin_node_update", "MLP pre-activation in")
        h1 = np.tanh(pre, out=pre)
        out = np.matmul(h1, w2, out=take(h.shape))
        out += p.mlp_b2.data.reshape(folds, 1, d)

    def bk(g):
        # reads h1 and mixed but never writes into them: a graph may be walked twice
        g = g.reshape(h.shape)
        ones = np.ones((1, 1, h.shape[1]))  # row sums as products
        grads = [(p.mlp_w2, np.matmul(h1.swapaxes(1, 2), g)), (p.mlp_b2, np.matmul(ones, g))]
        g_pre = np.matmul(g, w2.swapaxes(1, 2), out=take(h.shape))
        tanh_slope = np.square(h1, out=take(h.shape))
        np.subtract(1.0, tanh_slope, out=tanh_slope)
        g_pre *= tanh_slope  # the gradient of the MLP pre-activation
        del tanh_slope
        # x = mixed W: one (D, D) product mixed^T G per fold gives both weights' gradients
        mixed_t_g = np.matmul(mixed.swapaxes(1, 2), g_pre)
        grads += [(p.mlp_w1, np.matmul(w.swapaxes(1, 2), mixed_t_g)),
                  (p.mlp_b1, np.matmul(ones, g_pre)),
                  (p.w, np.matmul(mixed_t_g, w1.swapaxes(1, 2)))]
        g_rows = np.matmul(g_pre, np.matmul(w, w1).swapaxes(1, 2),  # of (eps I + A) H
                           out=take(h.shape))
        del g_pre
        grads.append((p.eps, np.einsum("fij,fij->f", g_rows, h)))
        grads = [(t, grad.reshape(t.data.shape)) for t, grad in grads]
        if h_in.requires_grad:
            g_h = _neighbour_sum(a, g_rows.reshape(n, m, d)).reshape(h.shape)  # A^T = A
            g_rows *= eps
            g_h += g_rows
            grads.append((h_in, g_h.reshape(rows, d)))
        return grads

    return dc._make(out.reshape(rows, d), "gin_node_update",
                    (h_in, p.eps, p.w, p.mlp_w1, p.mlp_b1, p.mlp_w2, p.mlp_b2), bk)


def attention_readout(h_nodes: dc.Tensor, w_q: dc.Tensor,
                      w_k: dc.Tensor) -> tuple[dc.Tensor, dc.Tensor]:
    """Per-window graph vectors (N_w, D), one op, and attention weights (N_w, M).

    ``h_nodes`` is (N_w, M, D). A window's query is W_q applied to its node
    mean; node logits are scaled dot products of the query with W_k keys,
    computed as H (W_k^T q) so no (N_w * M)-row key matrix is built; the
    softmax runs over each window's nodes. W_q and W_k stacked along a fold
    axis F apply to F fold-major blocks of windows. The weights come back
    as a constant record: the readout's adjoint already carries their
    gradient. Non-finite logits raise NumericsError with their (window,
    node) index, since the softmax would hide an infinity.

    The node gradient has three terms per window: the weights times the
    output gradient g, the logits' gradient times the keyed query, and the
    query's gradient through W_q, spread evenly over the M nodes. The
    adjoint forms their sum as one (N_w, M, 3) @ (N_w, 3, D) product of
    [weights, logit gradients, 1/M] and [g, keyed, g_q W_q].
    """
    if h_nodes.data.ndim != 3:
        raise ShapeError(f"node features must be (N_w, M, D), got {h_nodes.data.shape}")
    n, m, d = h_nodes.data.shape
    folds = dc.fold_count(w_q.data, 2, n)
    lead = w_q.data.shape[:-2]
    if w_q.data.shape != (*lead, d, d) or w_k.data.shape != (*lead, d, d):
        raise ShapeError(f"w_q and w_k must be {(*lead, d, d)}, got {w_q.data.shape} "
                         f"and {w_k.data.shape}")
    h = h_nodes.data
    wq, wk = w_q.data.reshape(folds, d, d), w_k.data.reshape(folds, d, d)
    scale = float(1.0 / np.sqrt(d))
    with np.errstate(over="ignore", invalid="ignore"):  # the check below reports it
        mean = (h.sum(axis=1) / m).reshape(folds, -1, d)  # bit-equal to h.mean(axis=1)
        q = np.matmul(mean, wq.swapaxes(1, 2))  # (F, N_w / F, D)
        keyed = np.matmul(q, wk)  # row t: W_k^T q_t
        logits = np.matmul(h, keyed.reshape(n, d, 1)).reshape(n, m) * scale
    dc.check_finite(logits, "attention_readout", "attention logits in")
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    weights = e / e.sum(axis=-1, keepdims=True)
    readout = np.matmul(weights.reshape(n, 1, m), h).reshape(n, d)

    def bk(g):
        g_weights = np.matmul(h, g.reshape(n, d, 1)).reshape(n, m)
        g_logits = weights * (g_weights - (g_weights * weights).sum(axis=-1, keepdims=True))
        g_logits *= scale
        g_keyed = np.matmul(g_logits.reshape(n, 1, m), h).reshape(q.shape)
        g_q = np.matmul(g_keyed, wk.swapaxes(1, 2))
        grads = [(w_q, np.matmul(g_q.swapaxes(1, 2), mean).reshape(w_q.data.shape)),
                 (w_k, np.matmul(q.swapaxes(1, 2), g_keyed).reshape(w_k.data.shape))]
        if h_nodes.requires_grad:
            left = np.empty((n, m, 3))
            left[..., 0], left[..., 1], left[..., 2] = weights, g_logits, 1.0 / m
            right = np.stack([g, keyed.reshape(n, d), np.matmul(g_q, wq).reshape(n, d)], axis=1)
            grads.append((h_nodes, np.matmul(left, right, out=_BUFFERS.take(h.shape))))
        return grads

    return (dc._make(readout, "attention_readout", (h_nodes, w_q, w_k), bk),
            dc.const(weights))


def gin_layer(h_in: dc.Tensor, a: np.ndarray,
              p: GinLayerParams) -> tuple[dc.Tensor, dc.Tensor, dc.Tensor]:
    """Node update plus readout over all windows: (H_out (N_w * M, D),
    readouts (N_w, D), attention weights (N_w, M)); three ops."""
    h_out = gin_node_update(h_in, a, p)
    n, m, _ = a.shape
    readout, weights = attention_readout(
        dc.reshape(h_out, (n, m, h_out.data.shape[1])), p.w_q, p.w_k)
    return h_out, readout, weights


def project(h: dc.Tensor, w1: dc.Tensor, b1: dc.Tensor, w2: dc.Tensor,
            b2: dc.Tensor) -> dc.Tensor:
    """Shared two-layer projection head over the rows of ``h`` (N, D) -> (N, P),
    nonlinearity between layers only, as one op.

    Weights and biases stacked on a fold axis F apply to F fold-major
    blocks of rows (:func:`diffcore.tanh_mlp`). A non-finite pre-activation
    raises NumericsError with its row index.
    """
    if h.data.ndim != 2:
        raise ShapeError(f"project: (N, D) rows required, got {h.data.shape}")
    rows = h.data.shape[0]
    out, adjoint = dc.tanh_mlp(h.data, w1, b1, w2, b2, "project")

    def bk(g):
        grads, g_h = adjoint(g, h.requires_grad)
        return grads if g_h is None else grads + [(h, g_h)]

    return dc._make(out.reshape(rows, -1), "project", (h, w1, b1, w2, b2), bk)


@functools.lru_cache(maxsize=None)
def _pair_weights(n: int, streams: int, delta: int) -> tuple[np.ndarray, np.ndarray]:
    """Constant (K, K) masks over rows ``stream * n + window``: 0/1 negatives
    and the positive-pair weights 1 / (#positives of the anchor * #anchors).
    Cached per shape and read-only: every train step asks for the same ones."""
    stream, window = np.divmod(np.arange(n * streams), n)
    same = stream[:, None] == stream[None, :]
    offset = np.abs(window[:, None] - window[None, :])
    positive = same & (offset == delta)
    negative = (~same | ((offset != 0) & (offset != delta))).astype(np.float64)
    per_anchor = positive.sum(axis=1, keepdims=True)
    weights = positive / np.maximum(per_anchor, 1) / np.count_nonzero(per_anchor)
    negative.setflags(write=False)
    weights.setflags(write=False)
    return negative, weights


def contrastive_loss(z_r: dc.Tensor, z_d: dc.Tensor | None,
                     cfg: ContrastiveConfig) -> dc.Tensor:
    """Mean InfoNCE-style loss over all (stream, window) anchors, per subject,
    as one op.

    ``z_r`` and ``z_d`` hold one projection per window as a (B, N_w, P)
    batch of subjects, and the result is the (B,) per-subject losses. For
    anchor i of a stream, positives are the in-range same-stream windows
    at i - delta and i + delta (loss averaged when both exist). Each
    denominator holds the positive's own term once, every cross-stream
    window, and all same-stream windows outside {i, i - delta, i + delta}.
    ``z_d = None`` is the one-stream case: anchors come from ``z_r`` alone,
    there are no cross-stream terms, and an anchor without negatives has
    denominator exp(s_pos), so it contributes 0. A batch is one (B, K, K)
    stack of cosine matrices with the constant (K, K) masks of
    :func:`_pair_weights` broadcast over subjects; one subject is the
    B = 1 batch. Norms are floored at COSINE_NORM_FLOOR and log arguments
    at ``diffcore.LOG_FLOOR``, with a zero gradient below either floor. A
    non-finite cosine raises NumericsError with its (subject, row, column)
    index, since exp would map -inf to 0.

    The forward makes the numpy calls of the op-by-op form in
    ``tests/composite_layers.py``. The adjoint works on unit rows
    u_k = z_k / n_k: with G the cosines' gradient and S = G + G^T, row k's
    gradient is (S U - (S * cos) 1 u_k^T)_k / n_k, the second term only
    where the norm is above its floor, so it takes one (K, K) @ (K, P)
    product per subject.
    """
    if z_r.data.ndim != 3:
        raise ShapeError(f"projections must be a (B, N_w, P) stack, got {z_r.data.shape}")
    if z_d is not None and z_d.data.shape != z_r.data.shape:
        raise ShapeError(f"streams disagree on projection shape: "
                         f"{z_r.data.shape} vs {z_d.data.shape}")
    b, n, width = z_r.data.shape
    if n < cfg.delta + 1:
        raise WindowBudgetError(
            f"need at least delta+1={cfg.delta + 1} windows, got {n}")

    parts = (z_r,) if z_d is None else (z_r, z_d)
    z = z_r.data if z_d is None else np.concatenate([z_r.data, z_d.data], axis=-2)  # (B, K, P)
    k = z.shape[-2]
    negative, weights = _pair_weights(n, k // n, cfg.delta)
    with np.errstate(over="ignore", invalid="ignore"):  # the checks report it
        sq = np.matmul(z * z, np.ones((b, width, 1)))
        above = sq > COSINE_NORM_FLOOR ** 2
        norms = np.sqrt(np.maximum(sq, COSINE_NORM_FLOOR ** 2))  # (B, K, 1)
        cos = np.matmul(z, z.swapaxes(-1, -2)) / np.matmul(norms, norms.swapaxes(-1, -2))
    dc.check_finite(cos, "contrastive_loss", "cosine in")
    e = np.exp(cos)
    arg = np.matmul(e * negative, np.ones((b, k, 1))) + e  # the base broadcasts along rows
    clipped = np.maximum(arg, dc.LOG_FLOOR)
    per_pair = np.log(clipped) - cos
    pair_weights = np.broadcast_to(weights.reshape(k * k, 1), (b, k * k, 1))
    loss = np.matmul(per_pair.reshape(b, 1, k * k), pair_weights).reshape(b)

    def bk(g):
        g_pair = g.reshape(b, 1, 1) * weights  # (B, K, K)
        g_arg = g_pair * (arg > dc.LOG_FLOOR) / clipped
        # exp's gradient: its own term, and the row sum through the masked base
        g_cos = (g_arg + g_arg.sum(axis=2, keepdims=True) * negative) * e
        g_cos -= g_pair
        s = g_cos + g_cos.swapaxes(1, 2)
        unit = z / norms
        g_z = np.matmul(s, unit)
        g_z -= (s * cos).sum(axis=2, keepdims=True) * above * unit
        g_z /= norms
        return [(t, g_z[:, i * n:(i + 1) * n]) for i, t in enumerate(parts)]

    return dc._make(loss, "contrastive_loss", parts, bk)
