"""CBAM-style fusion over concatenated stream features, classifier, BCE.

Subjects are a batch axis throughout. The fused features of one GIN layer
are H_f of shape (B, N_w, 2D): subject b's window t is the row
[H_r(b, t) || H_d(b, t)]. Channel attention pools over each subject's
windows and gates channels; temporal attention pools over channels and
gates windows. Attended features are mean-pooled per layer, concatenated
across layers, and classified by a two-layer MLP with a sigmoid output:
one probability per subject.
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


def _check_features(h_f: dc.Tensor) -> None:
    if h_f.data.ndim != 3:
        raise ShapeError(f"fused features must be (B, N_w, C), got {h_f.data.shape}")


def channel_attention(h_f: dc.Tensor, p: CbamLayerParams) -> dc.Tensor:
    """Per-subject channel factors (B, C) in (0,1): sigmoid of summed
    MLP(max-pool) and MLP(mean-pool) over each subject's windows."""
    _check_features(h_f)
    w1_t, w2_t = dc.transpose(p.chan_w1), dc.transpose(p.chan_w2)

    def mlp(v):  # (B, C) rows
        hidden = dc.tanh(dc.add(dc.matmul(v, w1_t), p.chan_b1))
        return dc.add(dc.matmul(hidden, w2_t), p.chan_b2)

    mx = dc.max_pool(h_f, axis=1)
    av = dc.mean_pool(h_f, axis=1)
    return dc.sigmoid(dc.add(mlp(mx), mlp(av)))


def temporal_attention(h_f: dc.Tensor, p: CbamLayerParams) -> dc.Tensor:
    """Per-window factors (B, N_w) in (0,1) from a conv over channel-pooled traces.

    Max-pooled and mean-pooled sequences enter as the two input channels of a
    single zero-padded width-w_k convolution whose channel outputs are summed.
    """
    _check_features(h_f)
    b, n_w, _ = h_f.data.shape
    mx = dc.reshape(dc.max_pool(h_f, axis=2), (b, 1, n_w))
    av = dc.reshape(dc.mean_pool(h_f, axis=2), (b, 1, n_w))
    stacked = dc.concat([mx, av], axis=1)  # (B, 2, N_w)
    logits = dc.conv1d_same(stacked, p.temporal_kernel)
    return dc.sigmoid(logits)


def apply_attention(h_f: dc.Tensor, channel: dc.Tensor,
                    temporal: dc.Tensor) -> dc.Tensor:
    """H_a[b, t, c] = H_f[b, t, c] * channel[b, c] * temporal[b, t]."""
    _check_features(h_f)
    b, n_w, c = h_f.data.shape
    if channel.data.shape != (b, c) or temporal.data.shape != (b, n_w):
        raise ShapeError(f"attention shapes {channel.data.shape}/{temporal.data.shape} "
                         f"do not fit features {h_f.data.shape}")
    gated = dc.mul(h_f, dc.reshape(channel, (b, 1, c)))
    return dc.mul(gated, dc.reshape(temporal, (b, n_w, 1)))


@dataclass
class ClassifierParams:
    w1: dc.Tensor  # (hidden, k*2D)
    b1: dc.Tensor  # (hidden,)
    w2: dc.Tensor  # (1, hidden)
    b2: dc.Tensor  # (1,)


def classify(h_a_layers: list[dc.Tensor], p: ClassifierParams) -> dc.Tensor:
    """Mean-pool each layer's attended windows, concat, two-layer MLP, sigmoid:
    (B,) probabilities."""
    pooled = [dc.mean_pool(h_a, axis=1) for h_a in h_a_layers]  # (B, C) each
    feat = pooled[0] if len(pooled) == 1 else dc.concat(pooled, axis=1)
    hidden = dc.tanh(dc.add(dc.matmul(feat, dc.transpose(p.w1)), p.b1))
    logit = dc.add(dc.matmul(hidden, dc.transpose(p.w2)), p.b2)  # (B, 1)
    return dc.sigmoid(dc.reshape(logit, (logit.data.shape[0],)))


def bce(y_hat: dc.Tensor, y) -> dc.Tensor:
    """Binary cross-entropy -log(y p + (1 - y)(1 - p)), elementwise.

    ``y_hat`` holds probabilities p, one or a (B,) vector, and ``y`` the 0/1
    labels in the same shape. The log's argument is formed as
    (1 - y) + (2y - 1) p, which for a 0/1 label is exactly p or 1 - p; log
    arguments are floored inside dc.log.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != y_hat.data.shape:
        raise ShapeError(f"bce: labels {y.shape} vs probabilities {y_hat.data.shape}")
    arg = dc.add(dc.mul(y_hat, dc.const(2.0 * y - 1.0)), dc.const(1.0 - y))
    return dc.neg(dc.log(arg))
