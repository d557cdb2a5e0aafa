"""Temporal context encoding: one LSTM pass per batch, node features per window.

The LSTM runs once over the whole normalized sequence; each window then takes
the hidden state at its endpoint timepoint. Node v's input feature for a
window is W_M [one_hot(v) || h_endpoint], so the one-hot block separates
nodes while the hidden block injects shared temporal context. Both steps
take only a batch: a (B, T, M) stack of subjects that share their windows
runs through one LSTM loop, and all their windows' node features come back
as one matrix. Each step is one fused autodiff op: the LSTM and the node
feature assembly. One subject is the B = 1 batch.
"""

from __future__ import annotations

import numpy as np

from . import diffcore as dc
from .errors import ShapeError


def lstm_forward(x: np.ndarray, w_x: dc.Tensor, w_h: dc.Tensor,
                 b: dc.Tensor) -> dc.Tensor:
    """Hidden sequences (B, T, D) of a single-layer LSTM over a (B, T, M) batch."""
    return dc.lstm(x, w_x, w_h, b)


def window_endpoints(starts: list[int], window_size: int, t: int) -> list[int]:
    ends = [s + window_size - 1 for s in starts]
    if any(e < 0 or e >= t for e in ends):
        raise ShapeError(f"window endpoint out of range for T={t}")
    return ends


def assemble_node_features(hidden: dc.Tensor, starts: list[int], window_size: int,
                           w_m: dc.Tensor, m: int) -> dc.Tensor:
    """Node features of every window as one (B * N_w * M, D) matrix, as one op.

    ``hidden`` is the (B, T, D) batch of subjects that share ``starts``;
    rows are subject-major, then window-major. W_M [one_hot(v) || h_tau]
    splits into a node term (the first M columns of W_M) and a window term
    (the rest applied to h_tau); their broadcast sum gives all windows at
    once without an (N_w * M)-row selector. A W_M stacked along a fold axis,
    (F, D, M + D), applies to F fold-major blocks of the batch.

    The window term is one batched product of the endpoint states with the
    context block of W_M. The adjoint sums the output's gradient over nodes
    for the window term and over windows for the node term; each endpoint
    row is picked once, so the hidden states' gradient is written, not
    accumulated.
    """
    if hidden.data.ndim != 3:
        raise ShapeError(f"hidden must be (B, T, D), got {hidden.data.shape}")
    b, t, d = hidden.data.shape
    if w_m.data.ndim not in (2, 3) or w_m.data.shape[-2:] != (d, m + d):
        raise ShapeError(f"w_m must be ({d}, {m + d}), got {w_m.data.shape}")
    ends = window_endpoints(starts, window_size, t)
    folds = dc.fold_count(w_m.data, 2, b)
    picked = (t * np.arange(b)[:, None] + np.asarray(ends)).ravel()  # (B * N_w,)
    windows = len(picked) // folds  # per fold
    x = hidden.data.reshape(b * t, d)[picked].reshape(folds, windows, d)
    w_m_t = w_m.data.swapaxes(-1, -2)  # (M + D, D), per fold
    w_context = w_m_t[..., np.arange(m, m + d), :]  # (D, D) per fold, a copy
    context = np.matmul(x, w_context)  # (F, B * N_w / F, D)
    node = w_m_t[..., :m, :].reshape(folds, 1, m, d)
    out = (context.reshape(folds, windows, 1, d) + node).reshape(len(picked) * m, d)

    def bk(g):
        g = g.reshape(folds, windows, m, d)
        g_context = g.sum(axis=2)  # (F, B * N_w / F, D)
        g_w_m = np.empty((folds, d, m + d))
        g_w_m[..., :m] = g.sum(axis=1).swapaxes(1, 2)
        g_w_m[..., m:] = np.matmul(x.swapaxes(1, 2), g_context).swapaxes(1, 2)
        grads = [(w_m, g_w_m.reshape(w_m.data.shape))]
        if hidden.requires_grad:
            g_hidden = np.zeros((b * t, d))
            g_hidden[picked] = np.matmul(g_context, w_context.swapaxes(-1, -2)).reshape(-1, d)
            grads.append((hidden, g_hidden.reshape(b, t, d)))
        return grads

    return dc._make(out, "assemble_node_features", (hidden, w_m), bk)
