"""Temporal context encoding: one LSTM pass per subject, node features per window.

The LSTM runs once over the whole normalized sequence; each window then takes
the hidden state at its endpoint timepoint. Node v's input feature for a
window is W_M [one_hot(v) || h_endpoint], so the one-hot block separates
nodes while the hidden block injects shared temporal context.
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
                           w_m: dc.Tensor, m: int) -> list[dc.Tensor]:
    """Per-window (M, D) node feature blocks from shared endpoint hidden states.

    Computed as concat([I_M, 1 h_tau]) @ W_M^T so each window is a single
    matmul instead of M vector products.
    """
    t, d = hidden.data.shape
    if w_m.data.shape != (d, m + d):
        raise ShapeError(f"w_m must be ({d}, {m + d}), got {w_m.data.shape}")
    eye = dc.const(np.eye(m))
    ones = dc.const(np.ones((m, 1)))
    w_m_t = dc.transpose(w_m)
    blocks = []
    for tau in window_endpoints(starts, window_size, t):
        h_row = dc.reshape(dc.row(hidden, tau), (1, d))
        stacked = dc.concat([eye, dc.matmul(ones, h_row)], axis=1)  # (M, M+D)
        blocks.append(dc.matmul(stacked, w_m_t))  # (M, D)
    return blocks
