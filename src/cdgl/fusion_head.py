"""CBAM-style fusion over concatenated stream features, classifier, BCE.

The fused matrix per GIN layer is H_f of shape (N_w, 2D): window t's row is
[H_r(t) || H_d(t)]. Channel attention pools over windows and gates channels;
temporal attention pools over channels and gates windows. Attended features
are mean-pooled per layer, concatenated across layers, and classified by a
two-layer MLP with a sigmoid output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .errors import ShapeError

CHANNEL_REDUCTION = 2


@dataclass
class CbamLayerParams:
    """Channel MLP (shared by max and mean paths) and temporal conv kernel."""

    chan_w1: dc.Tensor  # (2D/rho, 2D)
    chan_b1: dc.Tensor  # (2D/rho,)
    chan_w2: dc.Tensor  # (2D, 2D/rho)
    chan_b2: dc.Tensor  # (2D,)
    temporal_kernel: dc.Tensor  # (2, w_k)


def temporal_kernel_width(n_windows: int) -> int:
    """Kernel width: CBAM's 7 shrunk to the largest odd width that fits."""
    if n_windows < 1:
        raise ShapeError("need at least one window")
    w = min(7, n_windows)
    return w if w % 2 == 1 else w - 1


def channel_attention(h_f: dc.Tensor, p: CbamLayerParams) -> dc.Tensor:
    """Per-channel factors in (0,1): sigmoid of summed MLP(max-pool) and MLP(mean-pool)."""
    def mlp(v):
        hidden = dc.tanh(dc.add(dc.matvec(p.chan_w1, v), p.chan_b1))
        return dc.add(dc.matvec(p.chan_w2, hidden), p.chan_b2)

    mx = dc.max_pool(h_f, axis=0)
    av = dc.mean_pool(h_f, axis=0)
    return dc.sigmoid(dc.add(mlp(mx), mlp(av)))


def temporal_attention(h_f: dc.Tensor, p: CbamLayerParams) -> dc.Tensor:
    """Per-window factors in (0,1) from a conv over channel-pooled traces.

    Max-pooled and mean-pooled sequences enter as the two input channels of a
    single zero-padded width-w_k convolution whose channel outputs are summed.
    """
    n_w = h_f.data.shape[0]
    mx = dc.reshape(dc.max_pool(h_f, axis=1), (1, n_w))
    av = dc.reshape(dc.mean_pool(h_f, axis=1), (1, n_w))
    stacked = dc.concat([mx, av], axis=0)  # (2, N_w)
    logits = dc.conv1d_same(stacked, p.temporal_kernel)
    return dc.sigmoid(logits)


def apply_attention(h_f: dc.Tensor, channel: dc.Tensor,
                    temporal: dc.Tensor) -> dc.Tensor:
    """H_a[t, c] = H_f[t, c] * channel[c] * temporal[t]."""
    n_w, c = h_f.data.shape
    if channel.data.shape != (c,) or temporal.data.shape != (n_w,):
        raise ShapeError(f"attention shapes {channel.data.shape}/{temporal.data.shape} "
                         f"do not fit features {h_f.data.shape}")
    ones_w = dc.const(np.ones((n_w, 1)))
    ones_c = dc.const(np.ones((1, c)))
    chan_grid = dc.matmul(ones_w, dc.reshape(channel, (1, c)))
    temp_grid = dc.matmul(dc.reshape(temporal, (n_w, 1)), ones_c)
    return dc.mul(dc.mul(h_f, chan_grid), temp_grid)


@dataclass
class ClassifierParams:
    w1: dc.Tensor  # (hidden, k*2D)
    b1: dc.Tensor  # (hidden,)
    w2: dc.Tensor  # (1, hidden)
    b2: dc.Tensor  # (1,)


def classify(h_a_layers: list[dc.Tensor], p: ClassifierParams) -> dc.Tensor:
    """Mean-pool each layer's attended windows, concat, two-layer MLP, sigmoid."""
    pooled = [dc.mean_pool(h_a, axis=0) for h_a in h_a_layers]
    feat = pooled[0] if len(pooled) == 1 else dc.concat(pooled, axis=0)
    hidden = dc.tanh(dc.add(dc.matvec(p.w1, feat), p.b1))
    logit = dc.add(dc.matvec(p.w2, hidden), p.b2)
    return dc.sigmoid(dc.reshape(logit, ()))


def bce(y_hat: dc.Tensor, y: int) -> dc.Tensor:
    """Two-term binary cross-entropy; log arguments are floored inside dc.log."""
    if y == 1:
        return dc.neg(dc.log(y_hat))
    return dc.neg(dc.log(dc.sub(dc.const(1.0), y_hat)))

