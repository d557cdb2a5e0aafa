"""Sliding windows and windowed connectivity: correlation and negative-distance
similarity matrices plus their rank-thresholded binary adjacencies.

Windows are a batch axis, and so are subjects. A subject's windows are one
strided (N_w, WS, M) view of its signals, and subjects of one series
length give one (S, N_w, WS, M) view of their stacked signals. Every step
takes any leading batch axes, (..., WS, M) windows and (..., M, M)
matrices, and works on each matrix alone, so a matrix comes out bit for
bit the same whatever stack it is computed in:

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
Each matrix's cut, its k-th largest upper value, comes from the upper
triangle gathered through flat indices cached per M; the adjacency is then
one compare of the whole matrix against its cut, kept to the upper
triangle and mirrored. Only in a stack where ties straddle some matrix's
cut are the kept ties ranked in (i, j) order before the mirror, and those
past the k slots cleared. An adjacency stack is bool, an
eighth of float64's bytes, and every matrix in it is symmetric with a zero
diagonal and exactly 2k true entries: the GIN layers
(:func:`cdgl.cdgin.gin_node_update`) rely on the symmetry.

A stream is built in blocks of whole windows (:func:`stream_graphs`), each
of at most BLOCK_ENTRIES matrix entries (512 KiB as float64, which fits a
core's L2 cache): runs of whole subjects while a subject's windows fit,
else ranges of one subject's windows. Each kernel writes a block's
similarities and adjacencies straight into its slice of one float64 and
one bool output stack (their ``out=``), so the kernels' temporaries are a
block's, never the stack's, and the outputs are bit-identical to an
unblocked call's.

Every finiteness check takes one sum; a non-finite sum starts the search
for the first non-finite entry.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, ShapeError

EDGE_FRACTION = 0.3
PEARSON_STD_FLOOR = 1e-12
MANHATTAN_PAIRS = 256  # ROI pairs per chunk of the Manhattan difference
BLOCK_ENTRIES = 1 << 16  # matrix entries per block of windows, 512 KiB as float64

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

    def starts(self, t: int) -> list[int]:
        """First timepoint of each window of a series of length ``t``."""
        return [w * self.stride for w in range(self.count(t))]


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
    """One subject's windowed matrices for both streams, each (N_w, M, M),
    window-major: float64 similarities ``r`` and ``d``, bool adjacencies
    ``a_r`` and ``a_d``."""

    starts: list[int]
    r: np.ndarray
    d: np.ndarray
    a_r: np.ndarray
    a_d: np.ndarray


def extract_windows(signals: np.ndarray, spec: WindowSpec) -> np.ndarray:
    """Fully contained windows starting at 0, SS, 2 SS, ... as one read-only
    view of ``signals``, not a copy: (T, M) -> (N_w, WS, M), and a
    (..., T, M) stack of series of one length -> (..., N_w, WS, M)."""
    signals = np.asarray(signals)
    spec.count(signals.shape[-2])
    view = np.lib.stride_tricks.sliding_window_view(signals, spec.window_size, axis=-2)
    return np.moveaxis(view[..., :: spec.stride, :, :], -1, -2)


def _as_windows(x, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2 or x.shape[-2] < 2:
        raise ShapeError(f"{name}: need a (..., WS, M) window stack with WS >= 2, "
                         f"got {x.shape}")
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


def _output(out, shape: tuple[int, ...], dtype, name: str) -> np.ndarray:
    """``out``, once checked to be a ``dtype`` array of ``shape``, or a new one."""
    if out is None:
        return np.empty(shape, dtype=dtype)
    if not isinstance(out, np.ndarray) or out.shape != shape or out.dtype != dtype:
        raise ShapeError(f"{name}: out must be a {np.dtype(dtype).name} array of shape "
                         f"{shape}, got {getattr(out, 'shape', type(out).__name__)}")
    return out


def pearson_matrix(windows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Pairwise Pearson correlation of each window's ROI columns.
    (..., WS, M) -> (..., M, M), written into ``out`` if given.

    A flat column (standard deviation below PEARSON_STD_FLOOR) correlates 0
    with every other column and keeps 1.0 on the diagonal: with the third of
    four ROIs flat, that row is [0, 0, 1, 0]."""
    x = _as_windows(windows, "pearson_matrix")
    out = _output(out, x.shape[:-2] + (x.shape[-1],) * 2, np.float64, "pearson_matrix")
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
    np.add(r, r.swapaxes(-1, -2), out=out)
    out *= 0.5
    np.clip(out, -1.0, 1.0, out=out)
    _set_diagonal(out, 1.0)
    return out


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


def distance_matrix(windows: np.ndarray, kind: DistanceKind,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Negative pairwise distance between each window's ROI column vectors (diag 0).
    (..., WS, M) -> (..., M, M), written into ``out`` if given."""
    x = _as_windows(windows, "distance_matrix")
    out = _output(out, x.shape[:-2] + (x.shape[-1],) * 2, np.float64, "distance_matrix")
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
        np.add(d, d.swapaxes(-1, -2), out=out)  # finite distances can overflow here too
    _require_finite(out, f"{kind.kind} distance")
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


@functools.lru_cache(maxsize=None)
def _upper_mask(m: int) -> np.ndarray:
    """Read-only (M, M) bool mask of the strict upper triangle."""
    mask = np.triu(np.ones((m, m), dtype=bool), k=1)
    mask.setflags(write=False)
    return mask


def binarize_topk(s: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Keep the k largest off-diagonal values as symmetric edges.

    (..., M, M) float -> (..., M, M) bool, written into ``out`` if given:
    each matrix is symmetric, with a zero diagonal and exactly 2k true
    entries. Every entry must be finite; only the upper triangle is ranked.
    Ties at the cut go to the lexicographically smallest (i, j) pairs, so
    the result is a pure function of the input values.

    The upper triangle is gathered through flat (..., M*M) indices cached
    per M and partitioned in place for each matrix's cut, its k-th largest
    value. The adjacency is then one pass over the block: every entry is
    compared with its matrix's cut, the upper triangle kept through a
    cached mask and mirrored. Only when some matrix has more than k upper
    entries at or above its cut (values equal to the cut straddle it) are
    the stack's ties trimmed before the mirror: a cumulative count ranks
    each matrix's kept entries equal to its cut in row-major, that is
    (i, j), order, and those past the slots that the entries above the cut
    leave are cleared.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim < 2 or s.shape[-2] != s.shape[-1] or s.shape[-1] < 2:
        raise ShapeError(f"binarize_topk: square (..., M, M) input with M >= 2 "
                         f"required, got {s.shape}")
    out = _output(out, s.shape, np.bool_, "binarize_topk")
    _require_finite(s, "similarity")
    m = s.shape[-1]
    upper, _ = _upper_flat(m)
    vals = np.take(s.reshape(s.shape[:-2] + (m * m,)), upper, axis=-1)
    e, k = len(upper), topk_edge_count(m)
    vals.partition(e - k, axis=-1)
    cut = vals[..., e - k:e - k + 1, None]  # k-th largest, (..., 1, 1)
    np.greater_equal(s, cut, out=out)
    out &= _upper_mask(m)
    if np.count_nonzero(out) > k * (vals.size // e):  # some matrix has ties across the cut
        tie = out & (s == cut)  # row-major order of the upper entries is (i, j) order
        room = k - np.count_nonzero(out & ~tie, axis=(-2, -1), keepdims=True)
        # a count below M*M fits int32 for any M < 46341, which sums it twice as fast
        rank = np.cumsum(tie.reshape(tie.shape[:-2] + (m * m,)), axis=-1, dtype=np.int32)
        tie &= rank.reshape(tie.shape) > room
        out &= ~tie  # drops the ties past each matrix's first ``room``
    out |= out.swapaxes(-1, -2)
    return out


def _window_blocks(lead: tuple[int, ...], entries: int) -> Iterator[tuple]:
    """Indexes that cut a stack of ``lead`` leading shape, with ``entries``
    per matrix, into blocks of whole windows in order, each of at most
    BLOCK_ENTRIES entries (or one window, if that is larger): runs along
    the first axis when one of its items fits, else one item at a time,
    blocked within. Every index is of ints and slices, so it takes a view."""
    if not lead:
        yield ()
        return
    item = math.prod(lead[1:]) * entries
    if item <= BLOCK_ENTRIES or len(lead) == 1:
        step = max(1, BLOCK_ENTRIES // item)
        for lo in range(0, lead[0], step):
            yield (slice(lo, lo + step),)
    else:
        for i in range(lead[0]):
            for rest in _window_blocks(lead[1:], entries):
                yield (i,) + rest


def _in_stack(err: NumericsError, block: tuple, lead: tuple[int, ...]) -> NumericsError:
    """``err`` of one block, with its index and shape in the whole stack."""
    local = iter(err.index)
    index = tuple(b if isinstance(b, int) else b.start + next(local) for b in block)
    return NumericsError(str(err), index + tuple(local), lead + err.shape[-2:])


def _stream_error(err: NumericsError, stream: str) -> NumericsError:
    window = f", window {err.index[-3]}" if err.shape is not None and len(err.shape) >= 3 else ""
    return NumericsError(f"stream {stream!r}{window}: {err}", err.index, err.shape)


def stream_graphs(windows: np.ndarray, stream: str,
                  kind: DistanceKind) -> tuple[np.ndarray, np.ndarray]:
    """(similarity, adjacency) stacks of one stream over an (..., N_w, WS, M)
    window stack: Pearson correlation for ``"r"``, negative ``kind``
    distance for ``"d"``, and its top-k binarization.

    Both are built in blocks of whole windows (:func:`_window_blocks`).
    The similarity kernel writes each block into its slice of one float64
    stack, and :func:`binarize_topk` compares that slice against its
    matrices' cuts into the same slice of one bool stack, so every block is
    written once and the kernels' temporaries are a block's, not the
    stack's. The kernels are looked up as this module's names on every
    call. The window view is only indexed, never reshaped, which would copy
    the overlapping windows.

    A non-finite matrix raises :class:`NumericsError` naming the stream and
    the first window holding it; with more leading axes than the windows',
    the error's index locates it in them. Blocks are built and checked in
    order, so the error is the first failing block's, with its index and
    shape in the whole stack.
    """
    x = _as_windows(windows, "pearson_matrix" if stream == "r" else "distance_matrix")
    lead, m = x.shape[:-2], x.shape[-1]
    s = np.empty(lead + (m, m))
    a = np.empty(s.shape, dtype=bool)
    for blk in _window_blocks(lead, m * m):
        try:
            if stream == "r":
                pearson_matrix(x[blk], out=s[blk])
            else:
                distance_matrix(x[blk], kind, out=s[blk])
        except NumericsError as err:
            raise _stream_error(_in_stack(err, blk, lead), stream) from err
        try:
            binarize_topk(s[blk], out=a[blk])
        except NumericsError as err:
            raise _in_stack(err, blk, lead) from err
    return s, a


def build_fc_pairs(signals: np.ndarray, spec: WindowSpec, kind: DistanceKind) -> FcStacks:
    """Windowed correlation and distance streams for one subject, in window
    order: :func:`stream_graphs` of ``"r"``, then of ``"d"``."""
    windows = extract_windows(signals, spec)
    r, a_r = stream_graphs(windows, "r", kind)
    d, a_d = stream_graphs(windows, "d", kind)
    return FcStacks(starts=spec.starts(len(signals)), r=r, d=d, a_r=a_r, a_d=a_d)
