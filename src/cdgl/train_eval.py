"""Training loop, evaluation metrics, and stratified cross-validation.

Everything here is deterministic for a fixed config: batch order comes from
one seeded generator, fold seeds are derived as seed + fold_index, and every
numeric path runs in float64, so repeated runs produce identical loss logs,
checkpoints, and reports. Subjects are a batch axis: a train step builds
one graph per group of minibatch subjects that share their windows, and
evaluation scores each such group in one forward (split when it would
stack very many adjacency entries). Cross-validation
prepares its subjects once and hands every fold the prepared subjects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import diffcore as dc
from . import dynamic_fc as dfc
from . import model
from .cdgin import ContrastiveConfig
from .data_io import DatasetManifest, ManifestEntry, RoiTimeSeries, SplitPlan, stratified_split
from .errors import ConfigError, ShapeError, WindowBudgetError

STREAM_CHOICES = ("rd", "r", "d")
# Adjacency entries per stream that one scoring forward may stack. A
# forward's graph holds all its intermediates until it returns, so at
# M = 90 and 40 windows 40 subjects in one forward peak near 1 GB; bigger
# shapes are scored a few subjects at a time, while the README demo's
# validation folds still take one forward each.
SCORE_STACK_ENTRIES = 1 << 20


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one training run.

    Defaults follow the duloxetine setup: two GIN layers, batch size 4,
    lr 4e-4, weight decay 2e-4, windows of 35 with stride 25.
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
            if not isinstance(value, int) or value < 1:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        floats = {"lr": self.lr, "weight_decay": self.weight_decay, "alpha": self.alpha,
                  "ridge_scale": self.ridge_scale}
        for name, value in floats.items():
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
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
        if not isinstance(self.seed, int):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")

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
class FoldResult:
    fold_index: int
    report: EvalReport
    epoch_log: list[dict]
    dims: model.ModelDims


@dataclass
class CvResult:
    plan: SplitPlan
    folds: list[FoldResult]
    summary: dict[str, float | None]
    preps: list[model.PreparedSubject]  # the CV subjects, in plan.train_ids order


def _na(value: float | None):
    return "n/a" if value is None else value


def prepare_dataset(subjects: list[RoiTimeSeries],
                    cfg: TrainConfig) -> list[model.PreparedSubject]:
    """Window and binarize every subject under cfg's graph settings."""
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
    return [model.prepare_subject(ts, wspec, kind, streams, cfg.normalize_fc)
            for ts in subjects]


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
    m = preps[0].encoder_input.shape[1]
    n_ref = min(len(p.starts) for p in preps)
    return model.ModelDims(m=m, d=cfg.hidden_dim, d_p=cfg.proj_dim,
                           layers=cfg.layers, n_windows_ref=n_ref,
                           streams=cfg.stream_tuple())


def _global_norm(arrays) -> float:
    """L2 norm of all entries of ``arrays`` together."""
    return math.sqrt(sum(float(np.vdot(a, a)) for a in arrays))


def fit(preps: list[model.PreparedSubject], cfg: TrainConfig,
        checkpoint_path: str | None = None) -> TrainResult:
    """Shuffled-minibatch Adam training on prepared subjects.

    A step stacks its minibatch into one graph per group of subjects that
    share their windows (one graph when all have the same N_w), adds up
    their per-subject losses and calls backward once; the objective is the
    minibatch mean of bce + alpha * info. Each epoch record holds the mean
    per-subject total loss and its BCE and contrastive components, the
    largest global gradient L2 norm among the epoch's steps (``grad_norm``),
    the global parameter L2 norm after its last step (``param_norm``) and,
    after that step, each stream's GIN epsilon per layer (``gin_eps``).
    Bit-reproducible for a fixed cfg.
    """
    _check_window_budget(preps, cfg)
    dims = make_dims(preps, cfg)
    store = model.init_params(dims, cfg.seed)
    adam = dc.AdamState(lr=cfg.lr, weight_decay=cfg.weight_decay)
    ccfg = cfg.contrastive()
    rng = np.random.default_rng(cfg.seed)
    n = len(preps)
    epoch_log = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        sums = {"mean_loss": 0.0, "bce": 0.0, "info_loss": 0.0}
        grad_norm = 0.0
        for lo in range(0, n, cfg.batch_size):
            batch = [preps[i] for i in order[lo:lo + cfg.batch_size]]
            store.zero_grad()
            objective = None
            for group in model.group_by_windows(batch):
                total, l_bce, l_info = model.batch_loss_parts(store, dims, group, ccfg)
                for key, values in zip(sums, (total, l_bce, l_info)):
                    if values is not None:
                        sums[key] += sum(values.data.tolist())
                part = dc.sum_all(total)
                objective = part if objective is None else dc.add(objective, part)
            dc.backward(dc.mul_scalar(objective, 1.0 / len(batch)))
            grad_norm = max(grad_norm, _global_norm(p.grad for _, p in store.items()))
            dc.adam_step(store, adam)
        epoch_log.append({"epoch": epoch, **{key: v / n for key, v in sums.items()},
                          "grad_norm": grad_norm,
                          "param_norm": _global_norm(p.data for _, p in store.items()),
                          "gin_eps": {s: [float(store[f"cdgin.layer{layer}.{s}.eps"].data)
                                          for layer in range(dims.layers)]
                                      for s in dims.streams}})
    if checkpoint_path is not None:
        dc.save_params(checkpoint_path, store)
    return TrainResult(store=store, dims=dims, epoch_log=epoch_log)


def train(subjects: list[RoiTimeSeries], cfg: TrainConfig,
          checkpoint_path: str | None = None) -> TrainResult:
    """Prepare ``subjects`` under cfg's graph settings, then :func:`fit`."""
    return fit(prepare_dataset(subjects, cfg), cfg, checkpoint_path)


def predict(store: dc.ParamStore, dims: model.ModelDims,
            prep: model.PreparedSubject) -> float:
    return float(model.forward_subject(store, dims, prep).y_hat.data)


def score(store: dc.ParamStore, dims: model.ModelDims,
          preps: list[model.PreparedSubject]) -> list[float]:
    """Probabilities in input order: one forward per group of subjects that
    share their windows, split so that no forward stacks more than
    SCORE_STACK_ENTRIES adjacency entries per stream."""
    score_of = {}
    for group in model.group_by_windows(preps):
        size = max(1, SCORE_STACK_ENTRIES // (len(group[0].starts) * dims.m * dims.m))
        for lo in range(0, len(group), size):
            batch = group[lo:lo + size]
            probs = model.forward_batch(store, dims, batch).y_hat.data
            score_of.update(zip(map(id, batch), probs.tolist()))
    return [score_of[id(p)] for p in preps]


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


def run_fold(preps: list[model.PreparedSubject], cfg: TrainConfig, plan: SplitPlan,
             fold_index: int, checkpoint_path: str | None = None) -> FoldResult:
    """Train on one fold's training ids, evaluate on its validation ids.

    ``preps`` holds the prepared CV subjects; preparation depends only on
    the graph settings, which folds share, so the fold's seed does not
    enter it.
    """
    by_id = {p.subject_id: p for p in preps}
    train_ids, val_ids = plan.folds[fold_index]
    fold_cfg = replace(cfg, seed=cfg.seed + fold_index)
    result = fit([by_id[i] for i in train_ids], fold_cfg, checkpoint_path=checkpoint_path)
    report = evaluate(result.store, result.dims, [by_id[i] for i in val_ids])
    return FoldResult(fold_index=fold_index, report=report,
                      epoch_log=result.epoch_log, dims=result.dims)


def _run_fold_packed(args) -> FoldResult:
    return run_fold(*args)


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
                   test_fraction: float = 0.2, mapper=None,
                   checkpoint_paths: list[str] | None = None) -> CvResult:
    """k independent fold runs under one plan; summary is mean and
    population std per metric.

    The CV subjects (``plan.train_ids``) are prepared once, here, and
    returned with the result for reuse. mapper, when given, is a map-like
    callable over the packed fold arguments (e.g. a process pool's map);
    results keep fold order.
    """
    plan = split_subjects(subjects, test_fraction, k, cfg.seed)
    if checkpoint_paths is None:
        checkpoint_paths = [None] * len(plan.folds)
    if len(checkpoint_paths) != len(plan.folds):
        raise ConfigError("checkpoint_paths must match the fold count")
    by_id = {ts.subject_id: ts for ts in subjects}
    preps = prepare_dataset([by_id[i] for i in plan.train_ids], cfg)
    packed = [(preps, cfg, plan, i, checkpoint_paths[i])
              for i in range(len(plan.folds))]
    if mapper is None:
        folds = [run_fold(*args) for args in packed]
    else:
        folds = list(mapper(_run_fold_packed, packed))
    summary = summarize_folds([f.report for f in folds])
    return CvResult(plan=plan, folds=folds, summary=summary, preps=preps)


def format_m_s(mean: float | None, std: float | None) -> str:
    if mean is None or std is None:
        return "n/a"
    return f"{mean:.2f}±{std:.2f}"


def cv_report_dict(cv: CvResult) -> dict:
    """JSON-ready report: per-fold metrics plus the m/s summary."""
    return {
        "per_fold": [{"fold": f.fold_index, **f.report.as_dict()} for f in cv.folds],
        "summary": {key: _na(value) for key, value in cv.summary.items()},
        "split": {"train_ids": cv.plan.train_ids, "test_ids": cv.plan.test_ids,
                  "seed": cv.plan.seed},
    }
