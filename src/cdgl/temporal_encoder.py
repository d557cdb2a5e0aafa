"""Temporal context encoding: one LSTM pass per subject, node features per window.

The LSTM runs once over the whole normalized sequence; each window then takes
the hidden state at its endpoint timepoint. Node v's input feature for a
window is W_M [one_hot(v) || h_endpoint], so the one-hot block separates
nodes while the hidden block injects shared temporal context. Windows are a
batch axis: all windows' node features come back as one matrix.
"""

from __future__ import annotations

import numpy as np

from . import diffcore as dc
from .errors import ShapeError


def lstm_forward(x: np.ndarray, w_x: dc.Tensor, w_h: dc.Tensor,
                 b: dc.Tensor) -> dc.Tensor:
    """Hidden sequence (T, D) of a single-layer LSTM over the (T, M) input."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"lstm_forward: (T, M) input required, got {x.shape}")
    return dc.lstm(x, w_x, w_h, b)


def window_endpoints(starts: list[int], window_size: int, t: int) -> list[int]:
    ends = [s + window_size - 1 for s in starts]
    if any(e < 0 or e >= t for e in ends):
        raise ShapeError(f"window endpoint out of range for T={t}")
    return ends


def assemble_node_features(hidden: dc.Tensor, starts: list[int], window_size: int,
                           w_m: dc.Tensor, m: int) -> dc.Tensor:
    """Node features of every window as one (N_w * M, D) matrix, window-major.

    W_M [one_hot(v) || h_tau] splits into a node term (the first M columns
    of W_M) and a window term (the rest applied to h_tau); their broadcast
    sum gives all windows at once without an (N_w * M)-row selector.
    """
    t, d = hidden.data.shape
    if w_m.data.shape != (d, m + d):
        raise ShapeError(f"w_m must be ({d}, {m + d}), got {w_m.data.shape}")
    ends = window_endpoints(starts, window_size, t)
    w_m_t = dc.transpose(w_m)  # (M + D, D)
    node = dc.take_rows(w_m_t, np.arange(m))  # (M, D)
    context = dc.matmul(dc.take_rows(hidden, ends),
                        dc.take_rows(w_m_t, np.arange(m, m + d)))  # (N_w, D)
    feats = dc.add(dc.reshape(context, (len(ends), 1, d)), dc.reshape(node, (1, m, d)))
    return dc.reshape(feats, (len(ends) * m, d))
