"""Dual-stream GIN layers, attention readout, shared projection, and the
cross-window/cross-stream contrastive loss.

Each stream updates node features as MLP((eps I + A) H W) with its own
parameters; graph-level vectors come from a single-head query-key attention
over nodes. The contrastive loss treats every (stream, window) projection as
an anchor whose positives are the same-stream windows at offset +-delta.
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


def _norm(z: dc.Tensor) -> dc.Tensor:
    return dc.sqrt(dc.clip_min(dc.dot(z, z), COSINE_NORM_FLOOR ** 2))


def _cosine(u: dc.Tensor, v: dc.Tensor, nu: dc.Tensor, nv: dc.Tensor) -> dc.Tensor:
    return dc.div(dc.dot(u, v), dc.mul(nu, nv))


def _sum_scalars(terms: list[dc.Tensor]) -> dc.Tensor:
    total = terms[0]
    for t in terms[1:]:
        total = dc.add(total, t)
    return total


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

    norms_r = [_norm(z) for z in z_r]
    norms_d = [_norm(z) for z in z_d]
    streams = [(z_r, z_d, norms_r, norms_d)]
    if z_d:
        streams.append((z_d, z_r, norms_d, norms_r))
    anchor_losses = []
    for same, other, n_same, n_other in streams:
        for i in range(n):
            positives = [p for p in (i - cfg.delta, i + cfg.delta) if 0 <= p < n]
            if not positives:
                continue
            excluded = {i, i - cfg.delta, i + cfg.delta}
            terms = [dc.exp(_cosine(same[i], other[j], n_same[i], n_other[j]))
                     for j in range(len(other))]
            terms += [dc.exp(_cosine(same[i], same[j], n_same[i], n_same[j]))
                      for j in range(n) if j not in excluded]
            base = _sum_scalars(terms) if terms else None
            per_pos = []
            for p in positives:
                s_pos = _cosine(same[i], same[p], n_same[i], n_same[p])
                e_pos = dc.exp(s_pos)
                denom = e_pos if base is None else dc.add(base, e_pos)
                per_pos.append(dc.sub(dc.log(denom), s_pos))
            anchor_losses.append(dc.mul_scalar(_sum_scalars(per_pos),
                                               1.0 / len(per_pos)))
    return dc.mul_scalar(_sum_scalars(anchor_losses), 1.0 / len(anchor_losses))
