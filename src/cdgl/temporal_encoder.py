"""Temporal context encoding: one LSTM pass per batch, node features per window.

The LSTM runs once over the whole normalized sequence; each window then takes
the hidden state at its endpoint timepoint. Node v's input feature for a
window is W_M [one_hot(v) || h_endpoint], so the one-hot block separates
nodes while the hidden block injects shared temporal context. Both steps
take only a batch: a (B, T, M) stack of subjects that share their windows
runs through one LSTM loop, and all their windows' node features come back
as one matrix. One subject is the B = 1 batch.
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
    """Node features of every window as one (B * N_w * M, D) matrix.

    ``hidden`` is the (B, T, D) batch of subjects that share ``starts``;
    rows are subject-major, then window-major. W_M [one_hot(v) || h_tau]
    splits into a node term (the first M columns of W_M) and a window term
    (the rest applied to h_tau); their broadcast sum gives all windows at
    once without an (N_w * M)-row selector. A W_M stacked along a fold axis, (F, D, M + D),
    applies to F fold-major blocks of the batch with the same ops.
    """
    if hidden.data.ndim != 3:
        raise ShapeError(f"hidden must be (B, T, D), got {hidden.data.shape}")
    b, t, d = hidden.data.shape
    if w_m.data.ndim not in (2, 3) or w_m.data.shape[-2:] != (d, m + d):
        raise ShapeError(f"w_m must be ({d}, {m + d}), got {w_m.data.shape}")
    ends = window_endpoints(starts, window_size, t)
    folds = dc.fold_count(w_m.data, 2, b)
    rows = dc.reshape(hidden, (b * t, d))
    picked = (t * np.arange(b)[:, None] + np.asarray(ends)).ravel()  # (B * N_w,)
    w_m_t = dc.transpose(w_m)  # (M + D, D), per fold
    node = dc.take_rows(w_m_t, np.arange(m))  # (M, D), per fold
    w_context = dc.transpose(dc.take_rows(w_m_t, np.arange(m, m + d)))  # (D, D), per fold
    context = dc.linear(dc.take_rows(rows, picked), w_context)  # (B * N_w, D)
    windows = len(picked) // folds  # per fold
    feats = dc.add(dc.reshape(context, (folds, windows, 1, d)),
                   dc.reshape(node, (folds, 1, m, d)))
    return dc.reshape(feats, (len(picked) * m, d))
