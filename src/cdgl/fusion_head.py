"""CBAM-style fusion over concatenated stream features, classifier, BCE.

Subjects are a batch axis throughout. The fused features of one GIN layer
are H_f of shape (B, N_w, 2D): subject b's window t is the row
[H_r(b, t) || H_d(b, t)]. Channel attention pools over each subject's
windows and gates channels; temporal attention pools over channels and
gates windows. Attended features are mean-pooled per layer, concatenated
across layers, and classified by a two-layer MLP with a sigmoid output:
one probability per subject.

Channel attention, temporal attention and the gating that applies them are
one fused autodiff op each, with hand-written adjoints, so a fusion layer
is three ops. The classifier (pooling, concat, MLP and sigmoid) and the
binary cross-entropy are one op each. ``tests/composite_layers.py`` keeps
the op-by-op forms they replaced as their oracle. Each op checks the
arrays it feeds into tanh, the sigmoid or the log, which would turn an
infinity into a finite value or hide it.
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


def _taps(padded: np.ndarray, w: int) -> np.ndarray:
    """View (..., L, w) of the width-w windows along the last axis of a
    C-contiguous (..., L + w - 1) array, as sliding_window_view gives, built
    without its argument handling."""
    *lead, length = padded.shape
    return np.ndarray((*lead, length - w + 1, w), np.float64, padded, 0,
                      padded.strides + padded.strides[-1:])


def channel_attention(h_f: dc.Tensor, p: CbamLayerParams) -> dc.Tensor:
    """Per-subject channel factors (B, C) in (0,1), as one op: sigmoid of
    summed MLP(max-pool) and MLP(mean-pool) over each subject's windows.

    Parameters stacked along a fold axis F apply to F fold-major blocks of
    subjects, through batched matmuls. The max-pool's gradient goes to the
    first window holding the maximum. A non-finite MLP pre-activation or
    sigmoid argument raises NumericsError with its (subject, unit) index.
    """
    _check_features(h_f)
    h = h_f.data
    b, n_w, c = h.shape
    w1, w2 = p.chan_w1.data, p.chan_w2.data
    lead, r = w1.shape[:-2], w1.shape[-2]
    if w1.shape != (*lead, r, c) or w2.shape != (*lead, c, r) \
            or p.chan_b1.data.shape != (*lead, r) or p.chan_b2.data.shape != (*lead, c):
        raise ShapeError(f"channel MLP shapes {w1.shape}/{w2.shape} do not fit {c} channels")
    folds = dc.fold_count(p.chan_w1.data, 2, b)
    w1, w2 = w1.reshape(folds, r, c), w2.reshape(folds, c, r)
    b1, b2 = p.chan_b1.data.reshape(folds, 1, r), p.chan_b2.data.reshape(folds, 1, c)
    first = h.argmax(axis=1)  # (B, C): the window each max comes from
    mx = h.max(axis=1).reshape(folds, -1, c)
    with np.errstate(over="ignore", invalid="ignore"):  # the checks below report it
        av = (h.sum(axis=1) / n_w).reshape(mx.shape)  # bit-equal to h.mean(axis=1)
        w1_t, w2_t = w1.swapaxes(1, 2), w2.swapaxes(1, 2)
        pre_mx = np.matmul(mx, w1_t) + b1
        pre_av = np.matmul(av, w1_t) + b1
        dc.check_finite(pre_mx.reshape(b, r), "channel_attention",
                        "max-path MLP pre-activation in")
        dc.check_finite(pre_av.reshape(b, r), "channel_attention",
                        "mean-path MLP pre-activation in")
        hid_mx, hid_av = np.tanh(pre_mx), np.tanh(pre_av)
        logits = (np.matmul(hid_mx, w2_t) + b2) + (np.matmul(hid_av, w2_t) + b2)
        dc.check_finite(logits.reshape(b, c), "channel_attention", "sigmoid argument in")
    out = dc.sigmoid_array(logits).reshape(b, c)

    def bk(g):
        g_logits = (g * out * (1.0 - out)).reshape(mx.shape)
        g_hid = np.matmul(g_logits, w2)  # both paths' MLP outputs feed the sigmoid alike
        g_pre_mx = g_hid * (1.0 - hid_mx * hid_mx)
        g_pre_av = g_hid * (1.0 - hid_av * hid_av)
        g_logits_t = g_logits.swapaxes(1, 2)
        grads = [(p.chan_w2, np.matmul(g_logits_t, hid_mx) + np.matmul(g_logits_t, hid_av)),
                 (p.chan_b2, 2.0 * g_logits.sum(axis=1)),
                 (p.chan_w1, np.matmul(g_pre_mx.swapaxes(1, 2), mx)
                  + np.matmul(g_pre_av.swapaxes(1, 2), av)),
                 (p.chan_b1, g_pre_mx.sum(axis=1) + g_pre_av.sum(axis=1))]
        grads = [(t, grad.reshape(t.data.shape)) for t, grad in grads]
        if h_f.requires_grad:
            g_h = np.empty_like(h)
            g_h[...] = (np.matmul(g_pre_av, w1) / n_w).reshape(b, 1, c)
            g_h[np.arange(b)[:, None], first, np.arange(c)] += \
                np.matmul(g_pre_mx, w1).reshape(b, c)
            grads.append((h_f, g_h))
        return grads

    return dc._make(out, "channel_attention",
                    (h_f, p.chan_w1, p.chan_b1, p.chan_w2, p.chan_b2), bk)


def temporal_attention(h_f: dc.Tensor, p: CbamLayerParams) -> dc.Tensor:
    """Per-window factors (B, N_w) in (0,1) from a conv over channel-pooled
    traces, as one op.

    Max-pooled and mean-pooled sequences enter as the two input channels of a
    single zero-padded width-w_k convolution whose channel outputs are summed.
    A kernel stacked along a fold axis F convolves F fold-major blocks of
    subjects. The max-pool's gradient goes to the first channel holding the
    maximum. A non-finite sigmoid argument raises NumericsError with its
    (subject, window) index.
    """
    _check_features(h_f)
    h = h_f.data
    b, n_w, c = h.shape
    kernel = p.temporal_kernel.data
    if kernel.ndim not in (2, 3) or kernel.shape[-2] != 2 or kernel.shape[-1] % 2 != 1:
        raise ShapeError(f"temporal kernel must be (2, w) with w odd, got {kernel.shape}")
    folds = dc.fold_count(kernel, 2, b)
    w = kernel.shape[-1]
    kernel = kernel.reshape(folds, 2, w)
    pad = (w - 1) // 2
    first = h.argmax(axis=2)  # (B, N_w): the channel each max comes from
    traces = np.zeros((b, 2, n_w + 2 * pad))  # max and mean traces, zero-padded
    taps = _taps(traces, w).reshape(folds, b // folds, 2, n_w, w)
    traces[:, 0, pad:pad + n_w] = h.max(axis=2)
    with np.errstate(over="ignore", invalid="ignore"):  # the check below reports it
        traces[:, 1, pad:pad + n_w] = h.sum(axis=2) / c  # bit-equal to h.mean(axis=2)
        logits = np.einsum("fbclw,fcw->fbl", taps, kernel).reshape(b, n_w)
    dc.check_finite(logits, "temporal_attention", "sigmoid argument in")
    out = dc.sigmoid_array(logits)

    def bk(g):
        g_logits = (g * out * (1.0 - out)).reshape(folds, -1, n_w)
        grads = [(p.temporal_kernel, np.einsum("fbclw,fbl->fcw", taps, g_logits)
                  .reshape(p.temporal_kernel.data.shape))]
        if h_f.requires_grad:
            padded = np.zeros((folds, b // folds, n_w + 2 * pad))
            padded[..., pad:pad + n_w] = g_logits
            # the input's adjoint: the same convolution with the reversed kernel
            g_traces = np.einsum("fblw,fcw->fbcl", _taps(padded, w),
                                 kernel[..., ::-1]).reshape(b, 2, n_w)
            g_h = np.empty_like(h)
            g_h[...] = (g_traces[:, 1] / c)[:, :, None]
            g_h[np.arange(b)[:, None], np.arange(n_w), first] += g_traces[:, 0]
            grads.append((h_f, g_h))
        return grads

    return dc._make(out, "temporal_attention", (h_f, p.temporal_kernel), bk)


def apply_attention(h_f: dc.Tensor, channel: dc.Tensor,
                    temporal: dc.Tensor) -> dc.Tensor:
    """H_a[b, t, c] = H_f[b, t, c] * channel[b, c] * temporal[b, t], as one op."""
    _check_features(h_f)
    b, n_w, c = h_f.data.shape
    if channel.data.shape != (b, c) or temporal.data.shape != (b, n_w):
        raise ShapeError(f"attention shapes {channel.data.shape}/{temporal.data.shape} "
                         f"do not fit features {h_f.data.shape}")
    per_channel = channel.data.reshape(b, 1, c)
    per_window = temporal.data.reshape(b, n_w, 1)
    gated = h_f.data * per_channel
    out = gated * per_window

    def bk(g):
        g_gated = g * per_window
        grads = []
        if h_f.requires_grad:
            grads.append((h_f, g_gated * per_channel))
        if channel.requires_grad:
            grads.append((channel, (g_gated * h_f.data).sum(axis=1)))
        if temporal.requires_grad:
            grads.append((temporal, (g * gated).sum(axis=2)))
        return grads

    return dc._make(out, "apply_attention", (h_f, channel, temporal), bk)


@dataclass
class ClassifierParams:
    w1: dc.Tensor  # (hidden, k*2D)
    b1: dc.Tensor  # (hidden,)
    w2: dc.Tensor  # (1, hidden)
    b2: dc.Tensor  # (1,)


def classify(h_a_layers: list[dc.Tensor], p: ClassifierParams) -> dc.Tensor:
    """Mean-pool each layer's attended windows, concat, two-layer MLP, sigmoid:
    (B,) probabilities, as one op.

    Every layer's features are (B, N_w, C). Parameters stacked on a fold
    axis F apply to F fold-major blocks of subjects
    (:func:`diffcore.tanh_mlp`). A non-finite MLP pre-activation or
    sigmoid argument raises NumericsError with its subject index.
    """
    for h_a in h_a_layers:
        _check_features(h_a)
    shape = h_a_layers[0].data.shape
    if any(h_a.data.shape != shape for h_a in h_a_layers):
        raise ShapeError(f"classify: layer features {[h.data.shape for h in h_a_layers]} "
                         f"differ in shape")
    b, n_w, c = shape
    pooled = [h_a.data.sum(axis=1) / n_w for h_a in h_a_layers]  # (B, C) each, as mean_pool
    feat = pooled[0] if len(pooled) == 1 else np.concatenate(pooled, axis=1)
    logits, adjoint = dc.tanh_mlp(feat, p.w1, p.b1, p.w2, p.b2, "classify")
    logits = logits.reshape(b)
    dc.check_finite(logits, "classify", "sigmoid argument in")
    out = dc.sigmoid_array(logits)

    def bk(g):
        grads, g_feat = adjoint(g * out * (1.0 - out), True)
        for layer, h_a in enumerate(h_a_layers):
            if h_a.requires_grad:
                g_h = np.empty(shape)
                g_h[...] = (g_feat[:, layer * c:(layer + 1) * c] / n_w).reshape(b, 1, c)
                grads.append((h_a, g_h))
        return grads

    return dc._make(out, "classify", (*h_a_layers, p.w1, p.b1, p.w2, p.b2), bk)


def bce(y_hat: dc.Tensor, y) -> dc.Tensor:
    """Binary cross-entropy -log(y p + (1 - y)(1 - p)), elementwise, as one op.

    ``y_hat`` holds probabilities p, one or a (B,) vector, and ``y`` the 0/1
    labels in the same shape. The log's argument is formed as
    (1 - y) + (2y - 1) p, which for a 0/1 label is exactly p or 1 - p, and
    floored at ``diffcore.LOG_FLOOR``, with a zero gradient below the
    floor: a saturated wrong prediction costs -log(LOG_FLOOR), about 27.6.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != y_hat.data.shape:
        raise ShapeError(f"bce: labels {y.shape} vs probabilities {y_hat.data.shape}")
    sign = 2.0 * y - 1.0
    arg = y_hat.data * sign + (1.0 - y)
    dc.check_finite(arg, "bce", "log argument in")
    clipped = np.maximum(arg, dc.LOG_FLOOR)
    out = -np.log(clipped)

    def bk(g):
        return ((y_hat, -g * (arg > dc.LOG_FLOOR) / clipped * sign),)

    return dc._make(out, "bce", (y_hat,), bk)
