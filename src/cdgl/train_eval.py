"""Training loop, evaluation metrics, and stratified cross-validation.

Everything here is deterministic for a fixed config: each model's batch
order comes from its own seeded generator, fold seeds are derived as
seed + fold_index, and every numeric path runs in float64, so repeated runs
produce identical loss logs, checkpoints, and reports. Subjects are a batch
axis: a train step builds one graph per group of minibatch subjects that
share their windows, and evaluation scores each such group in one forward
(split when it would stack very many adjacency entries). Scoring builds no
graph: its forwards run on the store's no-gradient view
(``ParamStore.no_grad``), so each intermediate is freed once its consumer
has returned.

Folds are a batch axis too. Cross-validation prepares its subjects once,
and its models (the folds, and the holdout model when asked for) whose
training subjects give the same model dims train in lockstep
(:func:`fit_folds`): they are the rows of one stacked store, and each
step's minibatches of consecutive rows run through one graph and one
backward call, as long as that graph stacks few node rows
(LOCKSTEP_STACK_ROWS): lockstep saves per-op overhead, which only
dominates at small shapes. No row is padded; a row whose minibatch
differs in shape runs that step alone, so each model is bit-identical to
the model trained alone. Every model trains through :func:`fit_folds`,
which returns it; :func:`save_model` writes it to a file.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from . import dynamic_fc as dfc
from . import model
from .cdgin import ContrastiveConfig
from .data_io import DatasetManifest, ManifestEntry, RoiTimeSeries, SplitPlan, stratified_split
from .errors import (ConfigError, NumericsError, ParseError, ShapeError, StratificationError,
                     WindowBudgetError)

STREAM_CHOICES = ("rd", "r", "d")
# Adjacency entries per stream that one scoring forward may stack. Scoring
# builds no graph, and its forward then peaks at about 28 bytes per stacked
# entry per stream: tracemalloc measured 350 MiB for 40 subjects at M = 90
# and 40 windows (12.96 M entries), against 560 MiB with the graph; the
# float64 copies of the two stacked adjacencies are 16 of those bytes. So
# this budget caps a forward near 28 MiB (45 MiB with the graph). Stacking
# more would not pay: on a 2-CPU host with one BLAS thread, time per subject
# stopped falling at 0.1-0.6 M entries per forward (M = 30 and 60) and rose
# beyond about 1.3 M (M = 90 and 40 windows: 11.4-11.5 ms at 4 subjects per
# forward, 17.3-18.0 ms at 40). The README demo's validation folds still
# take one forward each.
SCORE_STACK_ENTRIES = 1 << 20
# Node rows (subjects x windows x ROIs, summed over its folds) that one
# lockstep train step may stack. Lockstep saves time only while each op's
# arithmetic is small next to its fixed cost per call, and its graph holds
# the forward arrays of every fold it stacks until backward. On a 2-CPU
# host a 4-fold step ran 1.2-1.7x faster than four 1-fold steps up to
# about 3,000 rows, and no faster from about 5,700 (M = 90 with 4 subjects
# of 4 windows, or one subject of 58 windows, where it also took twice the
# memory). The README demo's 4-fold step stacks 640 rows; one subject of
# the 58-window, M = 90 shape stacks 5,220, so at that shape folds train
# one at a time. Preparation stacks subjects up to the same budget
# (prepare_dataset), for the same reason.
LOCKSTEP_STACK_ROWS = 4096


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one training run.

    Defaults follow the duloxetine setup: two GIN layers, batch size 4,
    lr 4e-4, weight decay 2e-4, windows of 35 with stride 25.
    Every value is checked here, from the command line, a config file or
    a checkpoint header alike; the float fields store an int as a float.
    """

    layers: int = 2
    batch_size: int = 4
    lr: float = 4e-4
    weight_decay: float = 2e-4
    window_size: int = 35
    stride: int = 25
    hidden_dim: int = 16
    proj_dim: int = 16
    alpha: float = 0.1
    delta: int = 1
    distance_kind: str = "euclidean"
    ridge_scale: float = 1e-3
    epochs: int = 100
    seed: int = 0
    streams: str = "rd"
    normalize_fc: bool = True

    def __post_init__(self):
        positive_ints = {
            "layers": self.layers, "batch_size": self.batch_size,
            "window_size": self.window_size, "stride": self.stride,
            "hidden_dim": self.hidden_dim, "proj_dim": self.proj_dim,
            "delta": self.delta, "epochs": self.epochs,
        }
        for name, value in positive_ints.items():
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        if self.window_size < 2:
            raise ConfigError(f"window_size must be >= 2, got {self.window_size}")
        for name in ("lr", "weight_decay", "alpha", "ridge_scale"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{name} must be a number, got {value!r}")
            if not abs(value) <= sys.float_info.max:  # nan, inf or an int beyond float range
                raise ConfigError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, float(value))
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.alpha < 0:
            raise ConfigError(f"alpha must be >= 0, got {self.alpha}")
        if self.ridge_scale <= 0:
            raise ConfigError(f"ridge_scale must be positive, got {self.ridge_scale}")
        if self.distance_kind not in dfc.DISTANCE_KINDS:
            raise ConfigError(
                f"distance_kind must be one of {dfc.DISTANCE_KINDS}, got {self.distance_kind!r}")
        if self.streams not in STREAM_CHOICES:
            raise ConfigError(f"streams must be one of {STREAM_CHOICES}, got {self.streams!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not isinstance(self.normalize_fc, bool):
            raise ConfigError(f"normalize_fc must be true or false, got {self.normalize_fc!r}")

    def window_spec(self) -> dfc.WindowSpec:
        return dfc.WindowSpec(self.window_size, self.stride)

    def distance(self) -> dfc.DistanceKind:
        return dfc.DistanceKind(self.distance_kind, self.ridge_scale)

    def contrastive(self) -> ContrastiveConfig:
        return ContrastiveConfig(delta=self.delta, alpha=self.alpha)

    def stream_tuple(self) -> tuple[str, ...]:
        return tuple(self.streams)


@dataclass(frozen=True)
class EvalReport:
    """Threshold-0.5 confusion counts plus ranking and rate metrics.

    Metrics whose denominator is empty are None and serialize as "n/a".
    """

    auc: float | None
    acc: float
    se: float | None
    sp: float | None
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def n(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    def as_dict(self) -> dict:
        return {
            "auc": _na(self.auc), "acc": self.acc,
            "se": _na(self.se), "sp": _na(self.sp),
            "tp": self.tp, "tn": self.tn, "fp": self.fp, "fn": self.fn,
        }


@dataclass
class TrainResult:
    store: dc.ParamStore
    dims: model.ModelDims
    epoch_log: list[dict]


@dataclass
class FoldResult(TrainResult):
    fold_index: int  # len(plan.folds) for the holdout model
    report: EvalReport


@dataclass
class CvResult:
    plan: SplitPlan
    folds: list[FoldResult]
    summary: dict[str, float | None]
    holdout: FoldResult | None  # scored on plan.test_ids; None unless asked for


def _na(value: float | None):
    return "n/a" if value is None else value


def prepare_dataset(subjects: list[RoiTimeSeries],
                    cfg: TrainConfig) -> list[model.PreparedSubject]:
    """Window and binarize every subject under cfg's graph settings, in input order.

    Subjects of one series length are prepared together
    (:func:`model.prepare_batch`), in chunks that stack at most
    LOCKSTEP_STACK_ROWS node rows (subjects x windows x ROIs); a subject
    above that budget is prepared alone. Below it each numpy call's fixed
    cost dominates, so the README demo's 60 subjects take one chunk, which
    is also one block of the similarity kernels. At large shapes a chunk
    is one subject, whose windows go in cache-sized blocks
    (:func:`dynamic_fc.stream_graphs`), so preparation holds one
    similarity stack and one block's temporaries. Every subject's window
    budget is checked before any stack is built. When a chunk fails, the
    subjects are prepared again one at a time, so the error is the first
    failing subject's own.
    """
    if not subjects:
        raise ConfigError("dataset is empty")
    m = subjects[0].signals.shape[1]
    for ts in subjects:
        if ts.signals.shape[1] != m:
            raise ShapeError(
                f"subject {ts.subject_id!r} has {ts.signals.shape[1]} ROIs, expected {m}")
    wspec = cfg.window_spec()
    kind = cfg.distance()
    streams = cfg.stream_tuple()
    by_length: dict[int, list[int]] = {}
    for i, ts in enumerate(subjects):
        by_length.setdefault(ts.signals.shape[0], []).append(i)
    chunks = []
    for ids in by_length.values():
        # window_count checks each length's first subject, so the first
        # subject shorter than a window raises before any stack is built
        size = max(1, LOCKSTEP_STACK_ROWS // (model.window_count(subjects[ids[0]], wspec) * m))
        chunks += [ids[lo:lo + size] for lo in range(0, len(ids), size)]
    preps: list[model.PreparedSubject | None] = [None] * len(subjects)
    try:
        for ids in chunks:
            batch = model.prepare_batch([subjects[i] for i in ids], wspec, kind, streams,
                                        cfg.normalize_fc)
            for i, prep in zip(ids, batch):
                preps[i] = prep
    except NumericsError:
        for ts in subjects:  # the first failing subject raises its own error
            model.prepare_subject(ts, wspec, kind, streams, cfg.normalize_fc)
        raise
    return preps


def _check_window_budget(preps: list[model.PreparedSubject], cfg: TrainConfig) -> None:
    if cfg.alpha <= 0.0:
        return
    for prep in preps:
        n_w = len(prep.starts)
        if n_w < cfg.delta + 1:
            raise WindowBudgetError(
                f"subject {prep.subject_id!r} yields {n_w} windows but the "
                f"contrastive term needs at least delta+1={cfg.delta + 1}; "
                "shrink window_size/stride or set alpha=0")


def make_dims(preps: list[model.PreparedSubject], cfg: TrainConfig) -> model.ModelDims:
    return _dims(cfg, preps[0].encoder_input.shape[1], min(len(p.starts) for p in preps))


def _dims(cfg: TrainConfig, m: int, n_windows_ref: int) -> model.ModelDims:
    return model.ModelDims(m=m, d=cfg.hidden_dim, d_p=cfg.proj_dim,
                           layers=cfg.layers, n_windows_ref=n_windows_ref,
                           streams=cfg.stream_tuple())


def resolved_config(cfg: TrainConfig, dims: model.ModelDims) -> dict:
    """The config and model dims a model was trained under: its checkpoint's
    header, and the content of ``config.resolved.json``."""
    return {"train_config": dataclasses.asdict(cfg), "dims": dataclasses.asdict(dims)}


def _norms(rows: np.ndarray) -> np.ndarray:
    """L2 norm of each row of a store's (F, P) buffer: one per fold's model."""
    return np.sqrt((rows * rows).sum(axis=1))


def _shape_key(groups: list[list[model.PreparedSubject]]) -> list[tuple]:
    """What a minibatch's graph shape depends on: each window group's windows and size."""
    return [(g[0].window_size, tuple(g[0].starts), len(g)) for g in groups]


def _lockstep_runs(groups: list[list[list[model.PreparedSubject]]],
                   m: int) -> list[tuple[int, int]]:
    """(lo, hi) of each run of consecutive folds whose minibatches have one
    shape, cut so that no run of two or more folds stacks more than
    LOCKSTEP_STACK_ROWS node rows; a fold without a minibatch in this step
    is in none."""
    runs: list[list] = []
    for f, fold_groups in enumerate(groups):
        if not fold_groups:
            continue
        key = _shape_key(fold_groups)
        rows = m * sum(len(g) * len(g[0].starts) for g in fold_groups)
        if runs and runs[-1][1] == f and runs[-1][2] == key \
                and (f + 1 - runs[-1][0]) * rows <= LOCKSTEP_STACK_ROWS:
            runs[-1][1] = f + 1
        else:
            runs.append([f, f + 1, key])
    return [(lo, hi) for lo, hi, _ in runs]


_SUM_KEYS = ("mean_loss", "bce", "info_loss")


def _lockstep_step(store: dc.ParamStore, dims: model.ModelDims,
                   groups: list[list[list[model.PreparedSubject]]],
                   ccfg: ContrastiveConfig, sums: list[dict]) -> None:
    """Forward and backward of one minibatch per fold of ``store``, in one graph.

    The folds' minibatches have one shape, so window group i of every fold
    stacks into one fold-major batch; each fold's per-subject losses are
    added to its ``sums`` in the order a lone fold adds them.
    """
    objective = None
    for parts in zip(*groups):  # window group i of every fold
        n = len(parts[0])
        total, l_bce, l_info = model.batch_loss_parts(
            store, dims, [p for part in parts for p in part], ccfg)
        for key, values in zip(_SUM_KEYS, (total, l_bce, l_info)):
            if values is not None:
                flat = values.data.tolist()
                for f, fold_sums in enumerate(sums):
                    fold_sums[key] += sum(flat[f * n:(f + 1) * n])
        part = dc.sum_all(total)
        objective = part if objective is None else dc.add(objective, part)
    dc.backward(dc.mul_scalar(objective, 1.0 / sum(len(g) for g in groups[0])))


def fit_folds(fold_preps: list[list[model.PreparedSubject]], cfg: TrainConfig,
              seeds: list[int]) -> list[TrainResult]:
    """Shuffled-minibatch Adam training of one model per fold, in lockstep.

    Fold f trains on ``fold_preps[f]`` from ``seeds[f]``, which seeds both
    its initial parameters and its batch order; the folds must give the same
    :class:`model.ModelDims`. Their models are the rows of one stacked
    store. Step s takes every fold's s-th minibatch: folds whose minibatches
    have one shape (the same window groups, of the same sizes) build one
    graph together, with one backward call, a run of them cut where the
    graph would stack more than LOCKSTEP_STACK_ROWS node rows, and a fold
    whose minibatch differs (a ragged last batch, other window groups) runs
    that step on its own. One Adam call then steps the folds that had a minibatch, each
    with its own step count. No fold is padded, so every fold's parameters
    and epoch log equal those it gets when trained alone. Every model that
    :func:`train` and :func:`cross_validate` return is trained here.

    A minibatch stacks into one graph per group of subjects that share
    their windows (one graph when all have the same N_w), adds up their
    per-subject losses and calls backward once; the objective is the
    minibatch mean of bce + alpha * info. Each epoch record holds the mean
    per-subject total loss and its BCE and contrastive components, the
    largest L2 norm of the model's gradient among the epoch's steps
    (``grad_norm``), the L2 norm of its parameters after its last step
    (``param_norm``) and, after that step, each stream's GIN epsilon per
    layer (``gin_eps``). Bit-reproducible for a fixed cfg.
    """
    for preps in fold_preps:
        _check_window_budget(preps, cfg)
    dims = make_dims(fold_preps[0], cfg)
    if any(make_dims(preps, cfg) != dims for preps in fold_preps[1:]):
        raise ShapeError("folds trained in lockstep must share their model dims")
    folds = len(fold_preps)
    store = dc.ParamStore.stack([model.init_params(dims, seed) for seed in seeds])
    adam = dc.AdamState(lr=cfg.lr, weight_decay=cfg.weight_decay)
    ccfg = cfg.contrastive()
    rngs = [np.random.default_rng(seed) for seed in seeds]
    sizes = [len(preps) for preps in fold_preps]
    logs: list[list[dict]] = [[] for _ in range(folds)]
    for epoch in range(cfg.epochs):
        orders = [rng.permutation(n) for rng, n in zip(rngs, sizes)]
        sums = [dict.fromkeys(_SUM_KEYS, 0.0) for _ in range(folds)]
        grad_norm = np.zeros(folds)
        for lo in range(0, max(sizes), cfg.batch_size):
            groups = [model.group_by_windows([preps[i] for i in order[lo:lo + cfg.batch_size]])
                      for preps, order in zip(fold_preps, orders)]
            store.zero_grad()
            for f0, f1 in _lockstep_runs(groups, dims.m):
                _lockstep_step(store.folds(f0, f1), dims, groups[f0:f1], ccfg, sums[f0:f1])
            # a fold without a minibatch has a zero gradient row
            grad_norm = np.maximum(grad_norm, _norms(store.rows()[1]))
            dc.adam_step(store, adam, [bool(g) for g in groups])
        param_norm = _norms(store.rows()[0])
        for f in range(folds):
            fold = store.fold(f)
            logs[f].append({
                "epoch": epoch, **{key: v / sizes[f] for key, v in sums[f].items()},
                "grad_norm": float(grad_norm[f]), "param_norm": float(param_norm[f]),
                "gin_eps": {s: [float(fold[f"cdgin.layer{layer}.{s}.eps"].data)
                                for layer in range(dims.layers)]
                            for s in dims.streams}})
    return [TrainResult(store=store.fold(f), dims=dims, epoch_log=logs[f])
            for f in range(folds)]


def train(subjects: list[RoiTimeSeries], cfg: TrainConfig) -> TrainResult:
    """Prepare ``subjects`` under cfg's graph settings and train one model on
    them from ``cfg.seed``: :func:`fit_folds` with one fold."""
    return fit_folds([prepare_dataset(subjects, cfg)], cfg, [cfg.seed])[0]


def predict(store: dc.ParamStore, dims: model.ModelDims,
            prep: model.PreparedSubject) -> float:
    """One subject's probability: :func:`score` of a batch of one."""
    return score(store, dims, [prep])[0]


def score(store: dc.ParamStore, dims: model.ModelDims,
          preps: list[model.PreparedSubject]) -> list[float]:
    """Probabilities in input order: one forward per group of subjects that
    share their windows, split into as few batches of near-equal size as
    keep every forward within SCORE_STACK_ENTRIES adjacency entries per
    stream. Equal sizes leave no subject alone where the budget holds three
    or more.

    The forwards run on ``store.no_grad()``, so they build no graph and
    leave every gradient as it was; the probabilities are those of a
    graph-building forward, bit for bit.
    """
    view = store.no_grad()
    score_of = {}
    for group in model.group_by_windows(preps):
        size = max(1, SCORE_STACK_ENTRIES // (len(group[0].starts) * dims.m * dims.m))
        parts = -(-len(group) // size)
        for k in range(parts):
            batch = group[k * len(group) // parts:(k + 1) * len(group) // parts]
            probs = model.forward_batch(view, dims, batch).y_hat.data
            score_of.update(zip(map(id, batch), probs.tolist()))
    return [score_of[id(p)] for p in preps]


def save_model(path: str, store: dc.ParamStore, dims: model.ModelDims,
               cfg: TrainConfig) -> None:
    """Write one model to a checkpoint at ``path`` whose header is
    :func:`resolved_config`: the file that :func:`load_model` reads back."""
    dc.save_params(path, store, resolved_config(cfg, dims))


def load_model(path: str) -> tuple[dc.ParamStore, model.ModelDims, TrainConfig]:
    """The model in the checkpoint at ``path``, its dims and the config it was
    trained under, from the file alone.

    The header must be a :func:`resolved_config` whose config and dims are
    valid and agree, and the tensors must be those its dims build; anything
    else is a ParseError naming the file. Prepare subjects for the model
    with ``prepare_dataset(subjects, cfg)``.
    """
    header, values = dc.load_params(path)
    try:
        cfg = TrainConfig(**header["train_config"])
        dims = _dims(cfg, header["dims"]["m"], header["dims"]["n_windows_ref"])
    except (KeyError, TypeError, ConfigError, ShapeError) as err:
        raise ParseError(f"{path}: invalid checkpoint header "
                         f"({type(err).__name__}: {err})") from None
    want = json.loads(json.dumps(resolved_config(cfg, dims)))
    if want != header:
        raise ParseError(f"{path}: checkpoint header {header} disagrees with the "
                         f"config and dims it resolves to, {want}")
    dc.check_tensors(path, values, {name: shape for name, shape, _ in model.param_specs(dims)})
    return dc.ParamStore(values), dims, cfg


def auc_mann_whitney(scores, labels) -> float | None:
    """Probability a positive outranks a negative; ties count one half.

    None when either class is absent.
    """
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    if not pos or not neg:
        return None
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def confusion_counts(scores, labels, threshold: float = 0.5) -> tuple[int, int, int, int]:
    """(tp, tn, fp, fn) predicting positive at score >= threshold."""
    tp = tn = fp = fn = 0
    for s, y in zip(scores, labels):
        pred = 1 if s >= threshold else 0
        if y == 1:
            tp, fn = (tp + 1, fn) if pred == 1 else (tp, fn + 1)
        else:
            tn, fp = (tn + 1, fp) if pred == 0 else (tn, fp + 1)
    return tp, tn, fp, fn


def evaluate(store: dc.ParamStore, dims: model.ModelDims,
             preps: list[model.PreparedSubject]) -> EvalReport:
    """Score the subjects (see :func:`score`) and compute AUC/ACC/SE/SP at
    threshold 0.5."""
    if not preps:
        raise ConfigError("evaluation set is empty")
    scores = score(store, dims, preps)
    labels = [p.label for p in preps]
    tp, tn, fp, fn = confusion_counts(scores, labels)
    return EvalReport(
        auc=auc_mann_whitney(scores, labels),
        acc=(tp + tn) / len(preps),
        se=tp / (tp + fn) if (tp + fn) > 0 else None,
        sp=tn / (tn + fp) if (tn + fp) > 0 else None,
        tp=tp, tn=tn, fp=fp, fn=fn)


def split_subjects(subjects: list[RoiTimeSeries], test_fraction: float,
                   k: int, seed: int) -> SplitPlan:
    """Stratified plan over in-memory subjects (paths left blank)."""
    manifest = DatasetManifest(
        entries=[ManifestEntry(ts.subject_id, "", ts.label) for ts in subjects],
        roi_count=subjects[0].signals.shape[1] if subjects else 0)
    return stratified_split(manifest, test_fraction, k, seed)


def run_folds(preps: list[model.PreparedSubject], cfg: TrainConfig, plan: SplitPlan,
              fold_indices: list[int]) -> list[FoldResult]:
    """Train the given folds on their training ids, evaluate each on its
    validation ids; results in ``fold_indices`` order.

    Fold i's seed is ``cfg.seed + i``. Index ``len(plan.folds)`` names the
    holdout model: it trains on ``plan.train_ids`` from ``cfg.seed`` and is
    evaluated on ``plan.test_ids``. Models whose training subjects give the
    same :class:`model.ModelDims` train in lockstep (:func:`fit_folds`), so
    each result equals that of its model trained alone. ``preps`` holds the
    prepared subjects that the given models train and are evaluated on;
    preparation depends only on the graph settings, which all models share,
    so no seed enters it.
    """
    by_id = {p.subject_id: p for p in preps}
    splits = [*plan.folds, (plan.train_ids, plan.test_ids)]
    seeds = [cfg.seed + i for i in range(len(plan.folds))] + [cfg.seed]
    train_preps = {i: [by_id[s] for s in splits[i][0]] for i in fold_indices}
    lockstep: dict[model.ModelDims, list[int]] = {}
    for i in fold_indices:
        lockstep.setdefault(make_dims(train_preps[i], cfg), []).append(i)
    done = {}
    for members in lockstep.values():
        trained = fit_folds([train_preps[i] for i in members], cfg, [seeds[i] for i in members])
        for i, result in zip(members, trained):
            report = evaluate(result.store, result.dims, [by_id[s] for s in splits[i][1]])
            done[i] = FoldResult(**vars(result), fold_index=i, report=report)
    return [done[i] for i in fold_indices]


def run_fold(preps: list[model.PreparedSubject], cfg: TrainConfig, plan: SplitPlan,
             fold_index: int) -> FoldResult:
    """Train on one fold's training ids, evaluate on its validation ids: the
    one-fold case of :func:`run_folds`."""
    return run_folds(preps, cfg, plan, [fold_index])[0]


def summarize_folds(reports: list[EvalReport]) -> dict[str, float | None]:
    """Per-metric mean and population std over folds, skipping undefined folds."""
    summary: dict[str, float | None] = {}
    for metric in ("auc", "acc", "se", "sp"):
        values = [getattr(r, metric) for r in reports]
        defined = [v for v in values if v is not None]
        if defined:
            summary[f"{metric}_mean"] = float(np.mean(defined))
            summary[f"{metric}_std"] = float(np.std(defined))
        else:
            summary[f"{metric}_mean"] = None
            summary[f"{metric}_std"] = None
    return summary


def cross_validate(subjects: list[RoiTimeSeries], cfg: TrainConfig, k: int = 4,
                   test_fraction: float = 0.2, jobs: int = 1,
                   holdout: bool = False) -> CvResult:
    """Every model of a cross-validation in one training pass: k fold models
    under one plan and, with ``holdout``, the holdout model, trained on all
    CV subjects and scored on the (then non-empty) test split. The summary
    is the mean and population std of each fold metric.

    The subjects are prepared once, here; the test subjects only with
    ``holdout``. The models (folds 0 to k - 1, then the holdout model) split
    into ``jobs`` contiguous groups, and each group trains in lockstep
    (:func:`run_folds`), in its own worker process when ``jobs`` > 1.
    Results keep fold order and do not depend on ``jobs``.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    plan = split_subjects(subjects, test_fraction, k, cfg.seed)
    if holdout and not plan.test_ids:
        raise StratificationError(
            f"the test split is empty: test_fraction={test_fraction} of {len(subjects)} "
            "subjects rounds to 0 test subjects per class, so no holdout model is scored")
    by_id = {ts.subject_id: ts for ts in subjects}
    ids = plan.train_ids + plan.test_ids if holdout else plan.train_ids
    preps = prepare_dataset([by_id[i] for i in ids], cfg)
    models = len(plan.folds) + 1 if holdout else len(plan.folds)
    chunks = [[int(i) for i in chunk]
              for chunk in np.array_split(np.arange(models), jobs) if len(chunk)]
    packed = [(preps, cfg, plan, chunk) for chunk in chunks]
    if jobs == 1:
        done = [run_folds(*args) for args in packed]
    else:
        with ProcessPoolExecutor(max_workers=len(packed)) as pool:
            done = list(pool.map(run_folds, *zip(*packed)))
    results = [result for group in done for result in group]
    folds = results[:len(plan.folds)]
    return CvResult(plan=plan, folds=folds, summary=summarize_folds([f.report for f in folds]),
                    holdout=results[-1] if holdout else None)


def format_m_s(mean: float | None, std: float | None) -> str:
    if mean is None or std is None:
        return "n/a"
    return f"{mean:.2f}±{std:.2f}"


def cv_report_dict(cv: CvResult) -> dict:
    """JSON-ready report: per-fold metrics plus the m/s summary, and the
    holdout model's metrics on the test split when it was trained."""
    report = {
        "per_fold": [{"fold": f.fold_index, **f.report.as_dict()} for f in cv.folds],
        "summary": {key: _na(value) for key, value in cv.summary.items()},
        "split": {"train_ids": cv.plan.train_ids, "test_ids": cv.plan.test_ids,
                  "seed": cv.plan.seed},
    }
    if cv.holdout is not None:
        report["holdout"] = cv.holdout.report.as_dict()
    return report
