"""Full model assembly: encoder, dual GIN streams, fusion head, per-subject loss.

Parameters live in a flat ParamStore under dotted names (encoder.*, cdgin.*,
project.*, fusion.*, classifier.*) so checkpoints and the optimizer see one
deterministic namespace. Adjacencies depend only on the data, so they are
precomputed once per subject as one bool (N_w, M, M) stack per stream and
reused across epochs; subjects of one series length are prepared as one
stack (:func:`prepare_batch`).

Subjects are a batch axis: subjects that share their windows (equal N_w
under one window spec) are stacked on a leading axis and run through one
graph, whose op count does not depend on the batch size. One subject is
the B = 1 case of the same code.

So are models. A store of F stacked models (``ParamStore.stack``, the
folds of a cross-validation trained in lockstep) runs a batch of F * B
subjects, fold-major: every layer applies model f's parameters to the
f-th block of B subjects, through the same ops as one model's graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import cdgin, diffcore as dc, dynamic_fc as dfc, fusion_head as fh
from . import temporal_encoder as te
from .data_io import RoiTimeSeries, zscore_columns
from .errors import NumericsError, ShapeError, WindowBudgetError

STREAMS = ("r", "d")


@dataclass(frozen=True)
class ModelDims:
    """Shape bundle; n_windows_ref fixes the temporal kernel width."""

    m: int
    d: int
    d_p: int
    layers: int
    n_windows_ref: int
    streams: tuple[str, ...] = STREAMS

    def __post_init__(self):
        sizes = (self.m, self.d, self.d_p, self.layers, self.n_windows_ref)
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in sizes) \
                or self.m < 2 or self.d < 1 or self.d_p < 1 or self.layers < 1 \
                or self.n_windows_ref < 1:
            raise ShapeError(f"invalid model dims {self}")
        if not self.streams or any(s not in STREAMS for s in self.streams):
            raise ShapeError(f"streams must be drawn from {STREAMS}, got {self.streams}")

    @property
    def fused_channels(self) -> int:
        return len(self.streams) * self.d

    @property
    def kernel_width(self) -> int:
        return fh.temporal_kernel_width(self.n_windows_ref)


def param_specs(dims: ModelDims) -> list[tuple[str, tuple[int, ...], tuple[int, int] | None]]:
    """(name, shape, Glorot (fan_in, fan_out) or None for zeros) of every
    parameter, in the order :func:`init_params` draws them."""
    m, d, d_p = dims.m, dims.d, dims.d_p
    specs = [("encoder.lstm.w_x", (m, 4 * d), (m, 4 * d)),
             ("encoder.lstm.w_h", (d, 4 * d), (d, 4 * d)),
             ("encoder.lstm.b", (4 * d,), None),
             ("encoder.w_m", (d, m + d), (m + d, d))]
    for layer in range(dims.layers):
        for s in dims.streams:
            base = f"cdgin.layer{layer}.{s}"
            specs += [(f"{base}.eps", (), None),
                      (f"{base}.w", (d, d), (d, d)),
                      (f"{base}.mlp.w1", (d, d), (d, d)),
                      (f"{base}.mlp.b1", (d,), None),
                      (f"{base}.mlp.w2", (d, d), (d, d)),
                      (f"{base}.mlp.b2", (d,), None),
                      (f"{base}.readout.w_q", (d, d), (d, d)),
                      (f"{base}.readout.w_k", (d, d), (d, d))]
    specs += [("project.w1", (d_p, d), (d, d_p)),
              ("project.b1", (d_p,), None),
              ("project.w2", (d_p, d_p), (d_p, d_p)),
              ("project.b2", (d_p,), None)]
    c = dims.fused_channels
    reduced = max(1, c // fh.CHANNEL_REDUCTION)
    for layer in range(dims.layers):
        base = f"fusion.layer{layer}"
        specs += [(f"{base}.chan.w1", (reduced, c), (c, reduced)),
                  (f"{base}.chan.b1", (reduced,), None),
                  (f"{base}.chan.w2", (c, reduced), (reduced, c)),
                  (f"{base}.chan.b2", (c,), None),
                  (f"{base}.temporal.kernel", (2, dims.kernel_width),
                   (2 * dims.kernel_width, 1))]
    hidden = 2 * d
    specs += [("classifier.w1", (hidden, dims.layers * c), (dims.layers * c, hidden)),
              ("classifier.b1", (hidden,), None),
              ("classifier.w2", (1, hidden), (hidden, 1)),
              ("classifier.b2", (1,), None)]
    return specs


def init_params(dims: ModelDims, seed: int) -> dc.ParamStore:
    """Glorot-initialized store; epsilons exactly zero, biases zero."""
    rng = np.random.default_rng(seed)
    return dc.ParamStore({name: np.zeros(shape) if fans is None
                          else dc.glorot_uniform(rng, shape, *fans)
                          for name, shape, fans in param_specs(dims)})


def gin_params(store: dc.ParamStore, layer: int, stream: str) -> cdgin.GinLayerParams:
    base = f"cdgin.layer{layer}.{stream}"
    return cdgin.GinLayerParams(
        eps=store[f"{base}.eps"], w=store[f"{base}.w"],
        mlp_w1=store[f"{base}.mlp.w1"], mlp_b1=store[f"{base}.mlp.b1"],
        mlp_w2=store[f"{base}.mlp.w2"], mlp_b2=store[f"{base}.mlp.b2"],
        w_q=store[f"{base}.readout.w_q"], w_k=store[f"{base}.readout.w_k"])


def cbam_params(store: dc.ParamStore, layer: int) -> fh.CbamLayerParams:
    base = f"fusion.layer{layer}"
    return fh.CbamLayerParams(
        chan_w1=store[f"{base}.chan.w1"], chan_b1=store[f"{base}.chan.b1"],
        chan_w2=store[f"{base}.chan.w2"], chan_b2=store[f"{base}.chan.b2"],
        temporal_kernel=store[f"{base}.temporal.kernel"])


def classifier_params(store: dc.ParamStore) -> fh.ClassifierParams:
    return fh.ClassifierParams(w1=store["classifier.w1"], b1=store["classifier.b1"],
                               w2=store["classifier.w2"], b2=store["classifier.b2"])


@dataclass
class PreparedSubject:
    """Parameter-independent per-subject work, cached across epochs."""

    subject_id: str
    label: int
    encoder_input: np.ndarray  # (T, M), z-scored
    starts: list[int]
    window_size: int
    # stream -> (N_w, M, M) bool A, window-major; every matrix symmetric with a
    # zero diagonal, as dynamic_fc.binarize_topk builds it and the GIN layers need
    adjacency: dict[str, np.ndarray]


def window_count(ts: RoiTimeSeries, wspec: dfc.WindowSpec) -> int:
    """Windows of ``ts`` under ``wspec``; :class:`WindowBudgetError` naming
    the subject when its series is shorter than one window."""
    if wspec.window_size > ts.signals.shape[0]:
        raise WindowBudgetError(
            f"subject {ts.subject_id!r}: window size {wspec.window_size} exceeds "
            f"T={ts.signals.shape[0]}")
    return wspec.count(ts.signals.shape[0])


def prepare_batch(subjects: list[RoiTimeSeries], wspec: dfc.WindowSpec,
                  kind: dfc.DistanceKind, streams: tuple[str, ...] = STREAMS,
                  normalize_fc: bool = True) -> list[PreparedSubject]:
    """Normalize, window, and binarize subjects of one series length as one stack.

    The encoder always sees z-scored signals. normalize_fc controls only the
    matrix construction input; both Pearson and the rank-based threshold are
    scale-invariant, so it matters to the distance stream alone.

    Subjects are a batch axis: their (S, T, M) signals give one
    (S, N_w, WS, M) window stack, so each step below covers all of them,
    and each subject's arrays are bit-identical to preparing it alone. One
    subject is the S = 1 case and runs on its (T, M) signals without a
    subject axis. The streams are built one at a time, correlation first,
    each in cache-sized blocks of whole windows
    (:func:`dynamic_fc.stream_graphs`); a stream's similarity stack is
    dropped once it is binarized, before the next is built, so one
    similarity stack and one block's temporaries are held at a time. A
    stream not in ``streams`` is not built. The subjects' arrays are views
    of the stacked results.

    Every subject's window budget is checked before any stack is built. A
    non-finite value raises :class:`NumericsError` naming the subject; in
    a batch, the first subject at the first step that fails, with an index
    into the batch's arrays.
    """
    for ts in subjects:
        window_count(ts, wspec)
    one = len(subjects) == 1
    x = subjects[0].signals if one else np.stack([ts.signals for ts in subjects])
    # With raw connectivity input its checks run first, so an overflowing
    # ROI is reported by the distance stream that reads the raw amplitudes.
    try:
        fc_input = zscore_columns(x) if normalize_fc else x
        windows = dfc.extract_windows(fc_input, wspec)
        adjacency = {s: dfc.stream_graphs(windows, s, kind)[1]
                     for s in STREAMS if s in streams}
        z = fc_input if normalize_fc else zscore_columns(x)
    except NumericsError as err:
        who = subjects[0 if one else err.index[0]].subject_id
        raise NumericsError(f"subject {who!r}: {err}", err.index, err.shape) from err
    if one:
        z, adjacency = z[None], {s: a[None] for s, a in adjacency.items()}
    starts = wspec.starts(x.shape[-2])
    return [PreparedSubject(subject_id=ts.subject_id, label=ts.label, encoder_input=z[i],
                            starts=starts, window_size=wspec.window_size,
                            adjacency={s: a[i] for s, a in adjacency.items()})
            for i, ts in enumerate(subjects)]


def prepare_subject(ts: RoiTimeSeries, wspec: dfc.WindowSpec,
                    kind: dfc.DistanceKind, streams: tuple[str, ...] = STREAMS,
                    normalize_fc: bool = True) -> PreparedSubject:
    """Normalize, window, and binarize one subject: the S = 1 case of
    :func:`prepare_batch`, on the subject's own (T, M) signals."""
    return prepare_batch([ts], wspec, kind, streams, normalize_fc)[0]


def group_by_windows(preps: list[PreparedSubject]) -> list[list[PreparedSubject]]:
    """Split subjects into batches that share their windows, in first-seen
    order; each batch keeps the input order."""
    groups: dict[tuple, list[PreparedSubject]] = {}
    for p in preps:
        groups.setdefault((p.window_size, tuple(p.starts)), []).append(p)
    return list(groups.values())


def _stack(preps: list[PreparedSubject]) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """(B, T', M) encoder input and per-stream (B * N_w, M, M) adjacency stacks.

    T' = starts[-1] + window_size. Later rows are never read, because the
    LSTM is causal and node features read only window endpoints, so
    subjects of different lengths need no padding.

    One subject's stacks are its own bool views. A batch's are concatenated
    as float64, since the concatenation copies anyway and the GIN products
    then read them without a cast; 0 and 1 are exact in either dtype, so
    the products give the same bits.
    """
    if not preps:
        raise ShapeError("empty batch")
    first = preps[0]
    for p in preps[1:]:
        if (p.starts, p.window_size) != (first.starts, first.window_size) \
                or p.adjacency.keys() != first.adjacency.keys():
            raise ShapeError(f"subject {p.subject_id!r} does not share the windows "
                             f"and streams of {first.subject_id!r}")
    t = first.starts[-1] + first.window_size
    if len(preps) == 1:  # views, no copies
        return first.encoder_input[None, :t], first.adjacency
    return (np.stack([p.encoder_input[:t] for p in preps]),
            {s: np.concatenate([p.adjacency[s] for p in preps], dtype=np.float64)
             for s in first.adjacency})


@dataclass
class SubjectForward:
    """Model outputs of one subject; :func:`forward_batch` gives them with a
    leading subject axis B, and readout weights as subject-major (B * N_w, M) rows."""

    y_hat: dc.Tensor  # () probability
    projections: dict[str, dc.Tensor]  # stream -> (N_w, P)
    channel_factors: list[dc.Tensor] = field(default_factory=list)  # per layer (C,)
    temporal_factors: list[dc.Tensor] = field(default_factory=list)  # per layer (N_w,)
    readout_weights: dict[str, list[dc.Tensor]] = field(default_factory=dict)  # per layer (N_w, M)


def forward_batch(store: dc.ParamStore, dims: ModelDims,
                  preps: list[PreparedSubject]) -> SubjectForward:
    """Probabilities, projections and attention records of subjects that
    share their windows, from one graph.

    Node features are one (B * N_w * M, D) matrix and each stream's
    adjacencies one (B * N_w, M, M) stack, so every op covers the whole
    batch. A non-finite value raises :class:`NumericsError` naming the
    subject and the op, in the encoder also the timepoint, and inside a
    GIN layer also the stream, layer and first window holding it.
    """
    if len(preps) % store.n_folds:
        raise ShapeError(f"{len(preps)} subjects do not split into the store's "
                         f"{store.n_folds} folds")
    x, adjacency = _stack(preps)
    try:
        return _forward(store, dims, x, adjacency, preps[0].starts, preps[0].window_size)
    except NumericsError as err:
        raise NumericsError(f"{_subject_of(err, preps, dims.m)}: {err}",
                            err.index, err.shape) from err


def forward_subject(store: dc.ParamStore, dims: ModelDims,
                    prep: PreparedSubject) -> SubjectForward:
    """One subject's probability, projections, and attention records: the
    B = 1 case of :func:`forward_batch`, with the subject axis dropped."""
    out = forward_batch(store, dims, [prep])

    def one(t: dc.Tensor) -> dc.Tensor:
        return dc.reshape(t, t.data.shape[1:])

    return SubjectForward(y_hat=one(out.y_hat),
                          projections={s: one(z) for s, z in out.projections.items()},
                          channel_factors=[one(f) for f in out.channel_factors],
                          temporal_factors=[one(f) for f in out.temporal_factors],
                          readout_weights=out.readout_weights)


def _subject_of(err: NumericsError, preps: list[PreparedSubject], m: int) -> str:
    """'subject <id>' for the subject holding an error's first non-finite entry.

    Batch arrays are subject-major along their first axis, with B, B * N_w
    or B * N_w * M rows.
    """
    b, n_w = len(preps), len(preps[0].starts)
    rows = err.shape[0] if err.shape else None
    per_subject = {b: 1, b * n_w: n_w, b * n_w * m: n_w * m}.get(rows)
    if b > 1 and per_subject is None:
        return "one of subjects " + ", ".join(repr(p.subject_id) for p in preps)
    index = err.index[0] // per_subject if b > 1 else 0
    return f"subject {preps[index].subject_id!r}"


def _window_of(err: NumericsError, b: int, n_w: int, m: int) -> str:
    """', window t' for an error in a GIN layer's subject-major (B * N_w, ...)
    or (B * N_w * M, ...) array."""
    per_window = {b * n_w: 1, b * n_w * m: m}.get(err.shape[0] if err.shape else None)
    return "" if per_window is None else f", window {err.index[0] // per_window % n_w}"


def _forward(store: dc.ParamStore, dims: ModelDims, x: np.ndarray,
             adjacency: dict[str, np.ndarray], starts: list[int],
             window_size: int) -> SubjectForward:
    b, n_w = x.shape[0], len(starts)
    try:
        hidden = te.lstm_forward(x, store["encoder.lstm.w_x"], store["encoder.lstm.w_h"],
                                 store["encoder.lstm.b"])  # (B, T', D)
    except NumericsError as err:
        raise NumericsError(f"timepoint {err.index[1]}: {err}", err.index, err.shape) from err
    node_feats = te.assemble_node_features(hidden, starts, window_size,
                                           store["encoder.w_m"], dims.m)

    readouts: dict[str, list[dc.Tensor]] = {}
    weights: dict[str, list[dc.Tensor]] = {}
    for s in dims.streams:
        h = node_feats
        readouts[s], weights[s] = [], []
        for layer in range(dims.layers):
            try:
                h, vec, attn = cdgin.gin_layer(h, adjacency[s], gin_params(store, layer, s))
            except NumericsError as err:
                raise NumericsError(
                    f"stream {s!r}, layer {layer}{_window_of(err, b, n_w, dims.m)}: {err}",
                    err.index, err.shape) from err
            readouts[s].append(vec)
            weights[s].append(attn)

    h_a_layers = []
    channel_factors = []
    temporal_factors = []
    for layer in range(dims.layers):
        parts = [readouts[s][layer] for s in dims.streams]
        h_f = parts[0] if len(parts) == 1 else dc.concat(parts, axis=1)  # (B * N_w, C)
        h_f = dc.reshape(h_f, (b, n_w, dims.fused_channels))
        p = cbam_params(store, layer)
        cf = fh.channel_attention(h_f, p)
        tf = fh.temporal_attention(h_f, p)
        h_a_layers.append(fh.apply_attention(h_f, cf, tf))
        channel_factors.append(cf)
        temporal_factors.append(tf)

    y_hat = fh.classify(h_a_layers, classifier_params(store))

    projections = {s: dc.reshape(cdgin.project(readouts[s][-1], store["project.w1"],
                                               store["project.b1"], store["project.w2"],
                                               store["project.b2"]), (b, n_w, dims.d_p))
                   for s in dims.streams}
    return SubjectForward(y_hat=y_hat, projections=projections,
                          channel_factors=channel_factors,
                          temporal_factors=temporal_factors,
                          readout_weights=weights)


def batch_loss_parts(
        store: dc.ParamStore, dims: ModelDims, preps: list[PreparedSubject],
        ccfg: cdgin.ContrastiveConfig,
) -> tuple[dc.Tensor, dc.Tensor, dc.Tensor | None]:
    """(total, bce term, contrastive term or None), each (B,), for subjects
    that share their windows; total = bce + alpha * contrastive. A
    non-finite value in either loss raises NumericsError naming the subject."""
    out = forward_batch(store, dims, preps)
    l_info = None
    n_w = len(preps[0].starts)
    if ccfg.alpha > 0.0 and n_w < ccfg.delta + 1:
        raise WindowBudgetError(
            f"subject {preps[0].subject_id!r}: {n_w} windows < delta+1="
            f"{ccfg.delta + 1} required by the contrastive term")
    try:
        if ccfg.alpha > 0.0:
            z = [out.projections[s] for s in dims.streams]
            l_info = cdgin.contrastive_loss(z[0], z[1] if len(z) == 2 else None, ccfg)
        l_bce = fh.bce(out.y_hat, [p.label for p in preps])
    except NumericsError as err:
        raise NumericsError(f"{_subject_of(err, preps, dims.m)}: {err}",
                            err.index, err.shape) from err
    total = l_bce
    if l_info is not None:
        total = dc.add(total, dc.mul_scalar(l_info, ccfg.alpha))
    return total, l_bce, l_info


def subject_loss_parts(
        store: dc.ParamStore, dims: ModelDims, prep: PreparedSubject,
        ccfg: cdgin.ContrastiveConfig,
) -> tuple[dc.Tensor, dc.Tensor, dc.Tensor | None]:
    """(total, bce term, contrastive term or None) for one subject, as
    scalars: the B = 1 case of :func:`batch_loss_parts`."""
    total, l_bce, l_info = batch_loss_parts(store, dims, [prep], ccfg)
    l_bce = dc.reshape(l_bce, ())
    if l_info is None:
        return l_bce, l_bce, None
    return dc.reshape(total, ()), l_bce, dc.reshape(l_info, ())
