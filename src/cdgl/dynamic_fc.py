"""Sliding windows and windowed connectivity: correlation and negative-distance
similarity matrices plus their rank-thresholded binary adjacencies.

Windows are a batch axis. A subject's windows are one strided (N_w, WS, M)
view of its signals, and each step takes the whole stack at once (a single
(WS, M) window works too):

- Pearson is one batched product of the column-standardized windows; the
  standard deviation comes from the windows already centered for it.
- Euclidean and Mahalanobis distances use the Gram form
  q_ij = g_ii + g_jj - 2 g_ij with G = X S^-1 X^T, where X holds a window's
  ROI vectors minus their across-ROI mean and S^-1 is the inverse of the
  ridge-regularized ROI covariance (one batched inverse; the identity for
  Euclidean). Distances do not change under that shift, and centering keeps
  g_ii as small as the distances themselves, so the cancellation in q costs
  no more precision than the distances warrant even when the signals carry
  a large common offset.
- Manhattan distance has no Gram identity and keeps the elementwise form,
  for all windows at once in fixed-size chunks of ROI pairs.

A distance is negated and symmetrized in one scale, -(d + d^T) / 2.

Both streams are thresholded independently. Binarization is rank-based top-k
over the off-diagonal values with k = ceil(0.3 E), E = M(M-1)/2, which gives
every graph the exact same edge density regardless of the value distribution.
It reads the upper triangles through flat indices cached per M.

Every finiteness check takes one sum; a non-finite sum starts the search
for the first non-finite entry.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, ShapeError

EDGE_FRACTION = 0.3
PEARSON_STD_FLOOR = 1e-12
MANHATTAN_PAIRS = 256  # ROI pairs per chunk of the Manhattan difference

DISTANCE_KINDS = ("manhattan", "euclidean", "mahalanobis")


@dataclass(frozen=True)
class WindowSpec:
    window_size: int
    stride: int

    def __post_init__(self):
        if self.window_size < 2:
            raise ShapeError(f"window_size must be >= 2, got {self.window_size}")
        if self.stride < 1:
            raise ShapeError(f"stride must be >= 1, got {self.stride}")

    def count(self, t: int) -> int:
        if self.window_size > t:
            raise ShapeError(f"window_size {self.window_size} exceeds series length {t}")
        return (t - self.window_size) // self.stride + 1


@dataclass(frozen=True)
class DistanceKind:
    kind: str = "euclidean"
    ridge_scale: float = 1e-3

    def __post_init__(self):
        if self.kind not in DISTANCE_KINDS:
            raise ShapeError(f"unknown distance kind {self.kind!r}")
        if self.kind == "mahalanobis" and not (math.isfinite(self.ridge_scale)
                                               and self.ridge_scale > 0):
            raise ShapeError("mahalanobis requires a finite ridge_scale > 0")


@dataclass
class FcStacks:
    """One subject's windowed matrices for both streams, each (N_w, M, M), window-major."""

    starts: list[int]
    r: np.ndarray
    d: np.ndarray
    a_r: np.ndarray
    a_d: np.ndarray


def extract_windows(signals: np.ndarray, spec: WindowSpec) -> np.ndarray:
    """Fully contained windows starting at 0, SS, 2 SS, ... as one read-only
    (N_w, WS, M) view of ``signals``, not a copy."""
    signals = np.asarray(signals)
    spec.count(signals.shape[0])
    view = np.lib.stride_tricks.sliding_window_view(signals, spec.window_size, axis=0)
    return np.moveaxis(view[:: spec.stride], -1, 1)


def _as_windows(x, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (2, 3) or x.shape[-2] < 2:
        raise ShapeError(f"{name}: need a (WS, M) window or an (N_w, WS, M) stack "
                         f"with WS >= 2, got {x.shape}")
    return x


def _require_finite(values: np.ndarray, what: str) -> None:
    """NumericsError naming the first non-finite element of ``values``, if any.

    A finite sum has only finite terms, so one ``sum`` clears the common case;
    the elementwise search runs only when the sum is not finite (a non-finite
    entry, or finite entries whose sum overflows).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(values.sum()):
            return
    bad = ~np.isfinite(values)
    if bad.any():
        first = tuple(int(i) for i in np.argwhere(bad)[0])
        raise NumericsError(f"non-finite {what}", index=first, shape=values.shape)


def _set_diagonal(x: np.ndarray, value: float) -> None:
    idx = np.arange(x.shape[-1])
    x[..., idx, idx] = value


def pearson_matrix(windows: np.ndarray) -> np.ndarray:
    """Pairwise Pearson correlation of each window's ROI columns; flat columns
    get zero rows. (WS, M) -> (M, M), (N_w, WS, M) -> (N_w, M, M)."""
    x = _as_windows(windows, "pearson_matrix")
    with np.errstate(over="ignore", invalid="ignore"):  # reported by _require_finite
        z = x - x.mean(axis=-2, keepdims=True)
        std = np.square(z).sum(axis=-2, keepdims=True)  # x.std(axis=-2), from z
        std /= x.shape[-2]
        np.sqrt(std, out=std)
        live = std >= PEARSON_STD_FLOOR
        z /= np.where(live, std, 1.0)
        r = np.matmul(z.swapaxes(-1, -2), z)
        r /= x.shape[-2]
    _require_finite(r, "pearson correlation")
    dead = ~live
    if dead.any():
        r[dead | dead.swapaxes(-1, -2)] = 0.0
    r = r + r.swapaxes(-1, -2)
    r *= 0.5
    np.clip(r, -1.0, 1.0, out=r)
    _set_diagonal(r, 1.0)
    return r


def _manhattan(x: np.ndarray) -> np.ndarray:
    """sum_t |x_ti - x_tj| for every window, (..., WS, M) -> (..., M, M).

    ROI pairs (i < j) go in chunks of MANHATTAN_PAIRS through a time-major
    (WS, P, ...) difference, summed over time in order, one time step at a
    time: the order in which the per-window (M, M, WS) form, whose time axis
    lies outermost in memory, reduced it. |x_ti - x_tj| = |x_tj - x_ti|
    exactly, so the lower triangle is the upper one mirrored.
    """
    m = x.shape[-1]
    upper, source = _upper_flat(m)
    iu, ju = np.divmod(upper, m)
    xt = np.ascontiguousarray(np.moveaxis(x, (-2, -1), (0, 1)))  # (WS, M, ...)
    sums = np.zeros((len(upper) + 1,) + xt.shape[2:])  # row 0 stays the diagonal's 0
    # two difference buffers reused by every chunk: allocating the multi-MB
    # differences afresh per chunk made the whole call about twice as slow
    per_pair = xt.shape[0] * math.prod(xt.shape[2:])
    buf_i = np.empty(per_pair * min(MANHATTAN_PAIRS, len(upper)))
    buf_j = np.empty_like(buf_i)
    for lo in range(0, len(upper), MANHATTAN_PAIRS):
        i, j = iu[lo:lo + MANHATTAN_PAIRS], ju[lo:lo + MANHATTAN_PAIRS]
        shape = (xt.shape[0], len(i)) + xt.shape[2:]
        # mode="clip": the indices are in range, and "raise" would buffer ``out``
        a = np.take(xt, i, axis=1, out=buf_i[:per_pair * len(i)].reshape(shape), mode="clip")
        a -= np.take(xt, j, axis=1, out=buf_j[:a.size].reshape(shape), mode="clip")
        np.abs(a, out=a)
        acc = sums[1 + lo:1 + lo + len(i)]
        acc[...] = a[0]
        for step in a[1:]:
            acc += step
    return np.take(np.moveaxis(sums, 0, -1), source, axis=-1).reshape(x.shape[:-2] + (m, m))


def distance_matrix(windows: np.ndarray, kind: DistanceKind) -> np.ndarray:
    """Negative pairwise distance between each window's ROI column vectors (diag 0).
    (WS, M) -> (M, M), (N_w, WS, M) -> (N_w, M, M)."""
    x = _as_windows(windows, "distance_matrix")
    with np.errstate(over="ignore", invalid="ignore"):  # reported by _require_finite
        if kind.kind == "manhattan":
            d = _manhattan(x)
        else:
            centered = x - x.mean(axis=-1, keepdims=True)  # (..., WS, M)
            cols = centered.swapaxes(-1, -2)  # (..., M, WS) ROI vectors
            if kind.kind == "mahalanobis":
                ws = x.shape[-2]
                sigma = np.matmul(centered, cols)
                sigma /= x.shape[-1]
                lam = np.maximum(kind.ridge_scale * np.trace(sigma, axis1=-2, axis2=-1) / ws,
                                 1e-12)
                idx = np.arange(ws)
                sigma[..., idx, idx] += lam[..., None]
                _require_finite(sigma, "mahalanobis covariance")
                cols = np.matmul(cols, np.linalg.inv(sigma))
            d = np.matmul(cols, centered)  # Gram matrix G, turned into q in place
            g = np.diagonal(d, axis1=-2, axis2=-1).copy()
            d *= -2.0
            d += g[..., :, None]
            d += g[..., None, :]
            np.maximum(d, 0.0, out=d)
            np.sqrt(d, out=d)
    _require_finite(d, f"{kind.kind} distance")
    out = d + d.swapaxes(-1, -2)
    out *= -0.5  # negated: larger similarity = closer
    _set_diagonal(out, 0.0)
    return out


def topk_edge_count(m: int) -> int:
    e = m * (m - 1) // 2
    return math.ceil(EDGE_FRACTION * e)


@functools.lru_cache(maxsize=None)
def _upper_flat(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices for an (M, M) block seen as M*M entries: where the upper
    triangle's (i, j) pairs sit, in row-major order, and, for every entry,
    1 + the position of its pair in that order (0 on the diagonal)."""
    iu, ju = np.triu_indices(m, k=1)
    upper = iu * m + ju
    source = np.zeros(m * m, dtype=np.intp)
    source[upper] = source[ju * m + iu] = np.arange(1, len(upper) + 1)
    upper.setflags(write=False)
    source.setflags(write=False)
    return upper, source


def binarize_topk(s: np.ndarray) -> np.ndarray:
    """Keep the k largest off-diagonal values as symmetric {0,1} edges.

    (M, M) -> (M, M), (N_w, M, M) -> (N_w, M, M). Every entry must be finite;
    only the upper triangle is ranked. Ties at the cut go to the
    lexicographically smallest (i, j) pairs, so the result is a pure function
    of the input values.

    The upper triangle is read through flat (..., M*M) indices cached per
    M, and the output is one gather from the kept flags behind a leading
    zero. The cut is the k-th largest value; the values at or above it are
    kept, and only when some window has more of them than k (values equal to
    the cut straddle it) does a cumulative count over the ties keep the
    first ones in (i, j) order.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim not in (2, 3) or s.shape[-2] != s.shape[-1] or s.shape[-1] < 2:
        raise ShapeError(f"binarize_topk: square (M, M) or (N_w, M, M) input with M >= 2 "
                         f"required, got {s.shape}")
    _require_finite(s, "similarity")
    m = s.shape[-1]
    upper, source = _upper_flat(m)
    vals = np.take(s.reshape(s.shape[:-2] + (m * m,)), upper, axis=-1)  # (i, j) order
    e, k = len(upper), topk_edge_count(m)
    cut = np.partition(vals, e - k, axis=-1)[..., e - k:e - k + 1]  # k-th largest
    keep = vals >= cut
    if np.count_nonzero(keep) > k * (keep.size // e):  # some window has ties across the cut
        above = vals > cut
        tie = keep ^ above
        tie &= np.cumsum(tie, axis=-1) <= k - np.count_nonzero(above, axis=-1, keepdims=True)
        keep = above | tie
    flags = np.zeros(s.shape[:-2] + (e + 1,))
    flags[..., 1:] = keep
    return np.take(flags, source, axis=-1).reshape(s.shape)


def _stream_error(err: NumericsError, stream: str) -> NumericsError:
    window = f", window {err.index[0]}" if err.shape is not None and len(err.shape) == 3 else ""
    return NumericsError(f"stream {stream!r}{window}: {err}", err.index, err.shape)


def build_fc_pairs(signals: np.ndarray, spec: WindowSpec, kind: DistanceKind) -> FcStacks:
    """Windowed correlation and distance streams for one subject, in window order.

    A non-finite matrix raises :class:`NumericsError` naming the stream and
    the first window holding it.
    """
    windows = extract_windows(signals, spec)
    try:
        r = pearson_matrix(windows)
    except NumericsError as err:
        raise _stream_error(err, "r") from err
    try:
        d = distance_matrix(windows, kind)
    except NumericsError as err:
        raise _stream_error(err, "d") from err
    return FcStacks(starts=[t * spec.stride for t in range(len(windows))], r=r, d=d,
                    a_r=binarize_topk(r), a_d=binarize_topk(d))
