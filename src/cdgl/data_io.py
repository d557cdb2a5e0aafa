"""Dataset plumbing: ROI signal CSVs, JSON manifests, normalization, splits.

Signals travel as timepoints-by-ROIs CSV files (optional header row). A
manifest JSON binds subject ids to signal paths and binary labels. Splitting
is seeded and exactly stratified: per-class shuffle, then round-robin fold
assignment.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericsError, ParseError, ShapeError, StratificationError

MANIFEST_SCHEMA_VERSION = 1


@dataclass
class RoiTimeSeries:
    """One subject's signals: rows are timepoints, columns are ROIs."""

    subject_id: str
    signals: np.ndarray
    label: int


@dataclass
class ManifestEntry:
    subject_id: str
    path: str
    label: int


@dataclass
class DatasetManifest:
    entries: list[ManifestEntry]
    roi_count: int
    schema_version: int = MANIFEST_SCHEMA_VERSION


@dataclass
class SplitPlan:
    """Train/test ids plus stratified folds over the training ids."""

    train_ids: list[str]
    test_ids: list[str]
    folds: list[tuple[list[str], list[str]]]
    seed: int


# np.loadtxt arguments for one subject's CSV body: C-level parsing of
# comma-separated float64 cells, optionally double-quoted
_CSV_FORMAT = dict(delimiter=",", comments=None, quotechar='"', dtype=np.float64, ndmin=2)


def load_roi_csv(path: str, subject_id: str = "", label: int = 0) -> RoiTimeSeries:
    """Read a rectangular numeric CSV into a RoiTimeSeries.

    The text is UTF-8, with an optional byte-order mark. A first line with
    a cell that Python's ``float()`` rejects is a header and skipped. The
    rest is parsed in C by ``np.loadtxt``: every cell is a decimal or
    exponent float literal, ``nan`` or ``inf`` (the last two are rejected
    as non-finite), optionally padded with spaces or wrapped in double
    quotes; empty lines are skipped. Digit-group underscores (``1_0``) and
    non-ASCII digits are non-numeric. A ragged or non-numeric line, or a
    byte that is not UTF-8, is a :class:`ParseError` naming the file.
    Labels come from the manifest, not the file; the default here is a
    placeholder.
    """
    try:
        with open(path, encoding="utf-8-sig") as f:
            lines = f.readlines()
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: not UTF-8 text ({err})") from None
    start = 1 if lines and _is_header(lines[0]) else 0
    if all(line == "\n" for line in lines[start:]):
        raise ParseError(f"{path}: no data rows")
    try:
        signals = np.loadtxt(lines[start:], **_CSV_FORMAT)
    except ValueError as err:
        _raise_first_bad_line(path, lines, start)
        raise ParseError(f"{path}: {err}") from None
    if not np.all(np.isfinite(signals)):
        raise ParseError(f"{path}: non-finite value in signals")
    if signals.shape[0] < 2 or signals.shape[1] < 2:
        raise ShapeError(f"{path}: need T >= 2 and M >= 2, got {signals.shape}")
    return RoiTimeSeries(subject_id=subject_id, signals=signals, label=int(label))


def _is_header(line: str) -> bool:
    try:
        for cell in next(csv.reader([line]), []):
            float(cell)
    except ValueError:
        return True
    return False


def _raise_first_bad_line(path: str, lines: list[str], start: int) -> None:
    """Name the first line of ``lines[start:]`` that ``np.loadtxt`` rejects."""
    width = None
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if line == "\n":
            continue
        try:
            n = np.loadtxt([line], **_CSV_FORMAT).shape[1]
        except ValueError:
            raise ParseError(f"{path}:{lineno}: non-numeric cell") from None
        if width is not None and n != width:
            raise ParseError(f"{path}:{lineno}: ragged row ({n} cells, expected {width})")
        width = n


def write_roi_csv(path: str, signals: np.ndarray, header: bool = True) -> None:
    """Write a 2-D array as CSV with full float64 round-trip precision, under
    a ``roi_<j>`` header row unless ``header`` is False."""
    signals = np.asarray(signals, dtype=np.float64)
    if signals.ndim != 2:
        raise ShapeError(f"write_roi_csv: 2-D array required, got {signals.shape}")
    tmp = f"{path}.tmp"
    with open(tmp, "w", newline="") as f:
        if header:
            f.write(",".join(f"roi_{j}" for j in range(signals.shape[1])) + "\n")
        for row in signals:
            f.write(",".join(repr(float(v)) for v in row) + "\n")
    os.replace(tmp, path)


def zscore_columns(signals: np.ndarray) -> np.ndarray:
    """Standardize each ROI column (sample std, ``ddof = 1``); flat columns become 0.

    Takes one (T, M) series or a (..., T, M) stack of them, each column
    standardized over its own T timepoints. A column whose standard
    deviation is not finite (its squares overflow) raises
    :class:`NumericsError` naming the first such ROI; its index is into
    the (..., M) standard deviations.
    """
    signals = np.asarray(signals, dtype=np.float64)
    if signals.ndim < 2 or signals.shape[-2] < 2:
        raise ShapeError("zscore: need at least two timepoints")
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        centered = signals - signals.mean(axis=-2, keepdims=True)
        # signals.std(axis=-2, ddof=1), from the centered signals
        std = np.square(centered).sum(axis=-2, keepdims=True)
        std /= signals.shape[-2] - 1
        np.sqrt(std, out=std)
    bad = ~np.isfinite(std[..., 0, :])
    if bad.any():
        first = tuple(int(i) for i in np.argwhere(bad)[0])
        raise NumericsError(f"ROI {first[-1]}: non-finite standard deviation",
                            index=first, shape=bad.shape)
    return np.divide(centered, std, out=np.zeros_like(centered), where=std > 0.0)


def stratified_split(manifest: DatasetManifest, test_fraction: float,
                     k: int, seed: int) -> SplitPlan:
    """Seeded stratified train/test split plus k-fold partition of the training ids."""
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError(f"test_fraction must be in (0, 1), got {test_fraction}")
    if k < 2:
        raise ConfigError(f"k must be >= 2, got {k}")
    by_class: dict[int, list[str]] = {0: [], 1: []}
    for e in manifest.entries:
        by_class[e.label].append(e.subject_id)

    rng = np.random.default_rng(seed)
    train_by_class: dict[int, list[str]] = {}
    test_ids: list[str] = []
    for label in (1, 0):
        ids = sorted(by_class[label])
        rng.shuffle(ids)
        n_test = int(round(len(ids) * test_fraction))
        test_ids.extend(ids[:n_test])
        train_by_class[label] = ids[n_test:]
        if len(train_by_class[label]) < k:
            raise StratificationError(
                f"class {label} has {len(train_by_class[label])} training subjects, "
                f"need at least k={k}")

    fold_val: list[list[str]] = [[] for _ in range(k)]
    for label in (1, 0):
        for i, sid in enumerate(train_by_class[label]):
            fold_val[i % k].append(sid)

    train_ids = [sid for label in (1, 0) for sid in train_by_class[label]]
    folds = []
    for i in range(k):
        val = list(fold_val[i])
        tr = [sid for j in range(k) if j != i for sid in fold_val[j]]
        folds.append((tr, val))
    return SplitPlan(train_ids=train_ids, test_ids=test_ids, folds=folds, seed=seed)


def save_manifest(path: str, manifest: DatasetManifest) -> None:
    doc = {
        "schema_version": manifest.schema_version,
        "roi_count": manifest.roi_count,
        "entries": [{"id": e.subject_id, "path": e.path, "label": e.label}
                    for e in manifest.entries],
    }
    tmp = f"{path}.tmp"
    with open(tmp, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    os.replace(tmp, path)


def load_manifest(path: str) -> DatasetManifest:
    try:
        with open(path) as f:
            doc = json.load(f)
    except json.JSONDecodeError as err:
        raise ParseError(f"{path}: invalid JSON ({err})") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: manifest must be a JSON object, got {type(doc).__name__}")
    for key in ("schema_version", "roi_count", "entries"):
        if key not in doc:
            raise ParseError(f"{path}: manifest missing key {key!r}")
    if not isinstance(doc["roi_count"], int) or doc["roi_count"] < 2:
        raise ParseError(f"{path}: roi_count must be an integer >= 2")
    if not isinstance(doc["entries"], list):
        raise ParseError(f"{path}: entries must be a list, got {type(doc['entries']).__name__}")
    entries = []
    seen = set()
    for rec in doc["entries"]:
        try:
            sid, rel, label = rec["id"], rec["path"], rec["label"]
        except (TypeError, KeyError):
            raise ParseError(f"{path}: malformed manifest entry {rec!r}") from None
        if label not in (0, 1):
            raise ParseError(f"{path}: label for {sid!r} must be 0 or 1, got {label!r}")
        if sid in seen:
            raise ParseError(f"{path}: duplicate subject id {sid!r}")
        seen.add(sid)
        entries.append(ManifestEntry(subject_id=str(sid), path=str(rel), label=int(label)))
    return DatasetManifest(entries=entries, roi_count=doc["roi_count"],
                           schema_version=doc["schema_version"])


def load_dataset(manifest: DatasetManifest, base_dir: str) -> list[RoiTimeSeries]:
    """Load every manifest entry, enforcing the shared ROI count."""
    subjects = []
    for e in manifest.entries:
        path = e.path if os.path.isabs(e.path) else os.path.join(base_dir, e.path)
        ts = load_roi_csv(path, subject_id=e.subject_id, label=e.label)
        if ts.signals.shape[1] != manifest.roi_count:
            raise ShapeError(f"{path}: {ts.signals.shape[1]} ROIs, "
                             f"manifest says {manifest.roi_count}")
        subjects.append(ts)
    return subjects
