"""Dual-stream GIN layers, attention readout, shared projection, and the
cross-window/cross-stream contrastive loss.

Each stream updates node features as MLP((eps I + A) H W) with its own
parameters; graph-level vectors come from a single-head query-key attention
over nodes. The contrastive loss treats every (stream, window) projection as
an anchor whose positives are the same-stream windows at offset +-delta; it
is one cosine matrix over all projections and a masked log-sum-exp, a fixed
19 autodiff ops whatever the window count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .errors import ContrastiveConfigError, ShapeError

COSINE_NORM_FLOOR = 1e-12


@dataclass(frozen=True)
class ContrastiveConfig:
    delta: int = 1
    alpha: float = 0.1

    def __post_init__(self):
        if self.delta < 1:
            raise ContrastiveConfigError(f"delta must be >= 1, got {self.delta}")
        if self.alpha < 0:
            raise ContrastiveConfigError(f"alpha must be >= 0, got {self.alpha}")


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


def gin_node_update(h_in: dc.Tensor, a: np.ndarray, p: GinLayerParams,
                    activation=dc.tanh) -> dc.Tensor:
    """MLP((eps I + A) H W) for one window and stream; returns (M, D) nodes."""
    m, d = h_in.data.shape
    if a.shape != (m, m):
        raise ShapeError(f"adjacency {a.shape} does not match {m} nodes")
    if p.w.data.shape != (d, d):
        raise ShapeError(f"w must be ({d}, {d}), got {p.w.data.shape}")
    mixed = dc.add(dc.scale(h_in, p.eps), dc.matmul(dc.const(a), h_in))
    x = dc.matmul(mixed, p.w)
    h1 = activation(dc.add_bias(dc.matmul(x, p.mlp_w1), p.mlp_b1))
    return dc.add_bias(dc.matmul(h1, p.mlp_w2), p.mlp_b2)


def attention_readout(h_nodes: dc.Tensor, w_q: dc.Tensor,
                      w_k: dc.Tensor) -> tuple[dc.Tensor, dc.Tensor]:
    """Graph vector = attention-weighted node sum; also returns the weights.

    Query is W_q applied to the node mean; per-node logits are scaled dot
    products with W_k keys.
    """
    m, d = h_nodes.data.shape
    q = dc.matvec(w_q, dc.mean_pool(h_nodes, axis=0))
    keys = dc.matmul(h_nodes, dc.transpose(w_k))  # (M, D)
    logits = dc.mul_scalar(dc.matvec(keys, q), 1.0 / np.sqrt(d))
    weights = dc.softmax(logits)
    readout = dc.matvec(dc.transpose(h_nodes), weights)
    return readout, weights


def gin_layer(h_in: dc.Tensor, a: np.ndarray, p: GinLayerParams,
              activation=dc.tanh) -> tuple[dc.Tensor, dc.Tensor, dc.Tensor]:
    """Node update plus readout: returns (H_out, readout vector, attention weights)."""
    h_out = gin_node_update(h_in, a, p, activation=activation)
    readout, weights = attention_readout(h_out, p.w_q, p.w_k)
    return h_out, readout, weights


def project(h: dc.Tensor, w1: dc.Tensor, b1: dc.Tensor, w2: dc.Tensor,
            b2: dc.Tensor) -> dc.Tensor:
    """Shared two-layer projection head; nonlinearity between layers only."""
    hidden = dc.tanh(dc.add(dc.matvec(w1, h), b1))
    return dc.add(dc.matvec(w2, hidden), b2)


def _pair_weights(n: int, streams: int, delta: int) -> tuple[np.ndarray, np.ndarray]:
    """Constant (K, K) masks over rows ``stream * n + window``: 0/1 negatives
    and the positive-pair weights 1 / (#positives of the anchor * #anchors)."""
    stream, window = np.divmod(np.arange(n * streams), n)
    same = stream[:, None] == stream[None, :]
    offset = np.abs(window[:, None] - window[None, :])
    positive = same & (offset == delta)
    negative = ~same | ((offset != 0) & (offset != delta))
    per_anchor = positive.sum(axis=1, keepdims=True)
    weights = positive / np.maximum(per_anchor, 1) / np.count_nonzero(per_anchor)
    return negative.astype(np.float64), weights


def contrastive_loss(z_r: list[dc.Tensor], z_d: list[dc.Tensor],
                     cfg: ContrastiveConfig) -> dc.Tensor:
    """Mean InfoNCE-style loss over all (stream, window) anchors.

    For anchor i of a stream, positives are the in-range same-stream windows
    at i - delta and i + delta (loss averaged when both exist). Each
    denominator holds the positive's own term once, every cross-stream
    window, and all same-stream windows outside {i, i - delta, i + delta}.
    An empty ``z_d`` is the one-stream case: anchors come from ``z_r`` alone,
    there are no cross-stream terms, and an anchor without negatives has
    denominator exp(s_pos), so it contributes 0.
    """
    n = len(z_r)
    if z_d and len(z_d) != n:
        raise ShapeError(f"streams disagree on window count: {n} vs {len(z_d)}")
    if n < cfg.delta + 1:
        raise ContrastiveConfigError(
            f"need at least delta+1={cfg.delta + 1} windows, got {n}")

    z = dc.stack_rows(z_r + z_d)  # (K, P)
    k, width = z.data.shape
    negative, weights = _pair_weights(n, k // n, cfg.delta)
    sq = dc.matmul(dc.mul(z, z), dc.const(np.ones((width, 1))))
    norms = dc.sqrt(dc.clip_min(sq, COSINE_NORM_FLOOR ** 2))  # (K, 1)
    cos = dc.div(dc.matmul(z, dc.transpose(z)),
                 dc.matmul(norms, dc.transpose(norms)))
    e = dc.exp(cos)
    base = dc.matmul(dc.mul(e, dc.const(negative)), dc.const(np.ones((k, 1))))
    denom = dc.add(dc.matmul(base, dc.const(np.ones((1, k)))), e)
    per_pair = dc.sub(dc.log(denom), cos)
    return dc.sum_all(dc.mul(per_pair, dc.const(weights)))
