"""Command-line front end: synth, train, cv, gradcheck, fc-dump, attn-export.

train, cv, gradcheck and fc-dump get their settings from resolve_config
(TrainConfig defaults, --config file, --set overrides; TrainConfig checks
the values), attn-export from its checkpoint.

Exit codes: 0 success, 2 usage or config problem, 3 data problem,
4 gradient check over tolerance. Every output file is written atomically
(temp file + rename) and is byte-identical across reruns with the same
inputs and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys

import numpy as np

from . import diffcore as dc
from . import dynamic_fc as dfc
from . import model
from . import synthgen as sg
from . import train_eval as tv
from .data_io import (
    RoiTimeSeries,
    load_dataset,
    load_manifest,
    write_roi_csv,
    zscore_columns,
)
from .errors import (
    ConfigError,
    NumericsError,
    ParseError,
    ShapeError,
    SpecError,
    StratificationError,
    WindowBudgetError,
)

GRADCHECK_ROIS = 6
GRADCHECK_TIMEPOINTS = 40
PATH_KEYS = ("data", "out")

_USAGE_ERRORS = (ConfigError, SpecError)
_DATA_ERRORS = (ParseError, ShapeError, StratificationError, WindowBudgetError,
                NumericsError, FileNotFoundError)

_CONFIG_KEYS = frozenset(f.name for f in dataclasses.fields(tv.TrainConfig)) | set(PATH_KEYS)
_BARE_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_.\-/]*\Z")


# ---------------------------------------------------------------- config I/O

def _strip_comment(line: str) -> str:
    out = []
    quoted = False
    for ch in line:
        if ch == '"':
            quoted = not quoted
        if ch == "#" and not quoted:
            break
        out.append(ch)
    return "".join(out)


def _parse_value(token: str, where: str):
    token = token.strip()
    if token.startswith('"'):
        if len(token) >= 2 and token.endswith('"'):
            return token[1:-1]
        raise ConfigError(f"{where}: unterminated string {token!r}")
    if token in ("true", "false"):
        return token == "true"
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    if _BARE_WORD.match(token):
        return token
    raise ConfigError(f"{where}: cannot parse value {token!r}")


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Flat key = value lines; # comments; unknown keys rejected."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        key, eq, rest = line.partition("=")
        key = key.strip()
        where = f"{source}:{lineno}"
        if not eq or not key:
            raise ConfigError(f"{where}: expected key = value, got {raw.strip()!r}")
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{where}: unknown config key {key!r} "
                              f"(known: {', '.join(sorted(_CONFIG_KEYS))})")
        if key in values:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        values[key] = _parse_value(rest, where)
    return values


def resolve_config(config_path: str | None, overrides: list[str] | None,
                   base: tv.TrainConfig = tv.TrainConfig()) -> tuple[tv.TrainConfig, dict]:
    """``base``, then config file, then --set overrides; returns (cfg, paths)."""
    values: dict = {}
    if config_path is not None:
        if not os.path.isfile(config_path):
            raise ConfigError(f"config file not found: {config_path}")
        with open(config_path, encoding="utf-8") as f:
            values.update(parse_config_text(f.read(), source=config_path))
    for item in overrides or []:
        key, eq, rest = item.partition("=")
        key = key.strip()
        if not eq or not key:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"--set: unknown config key {key!r}")
        values[key] = _parse_value(rest, f"--set {key}")
    paths = {}
    for key in PATH_KEYS:
        if key in values:
            path = values.pop(key)
            if not isinstance(path, str):
                raise ConfigError(f"config key {key!r} expects a path string, got {path!r}")
            paths[key] = path
    return dataclasses.replace(base, **values), paths


# ------------------------------------------------------------- file plumbing

def _write_text(path: str, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        f.write(text)
    os.replace(tmp, path)


def _write_json(path: str, obj) -> None:
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_jsonl(path: str, records: list[dict]) -> None:
    _write_text(path, "".join(json.dumps(rec) + "\n" for rec in records))


def _load_subjects(data: str | None, subject: str | None = None,
                   first_only: bool = False) -> list[RoiTimeSeries]:
    """The data set's subjects, parsing only the CSVs of the entries kept.

    A manifest that lists no entries is a :class:`ConfigError`. ``subject``
    keeps that id alone, and an id not in the manifest is one too;
    otherwise ``first_only`` keeps the first entry, and by default every
    entry is kept.
    """
    if data is None:
        raise ConfigError("no data path given (use --data or the 'data' config key)")
    manifest_path = data if data.endswith(".json") else os.path.join(data, "manifest.json")
    if not os.path.isfile(manifest_path):
        raise ParseError(f"dataset manifest not found: {manifest_path}")
    manifest = load_manifest(manifest_path)
    entries = manifest.entries
    if not entries:
        raise ConfigError(f"dataset is empty: {manifest_path}")
    if subject is not None:
        entries = [e for e in entries if e.subject_id == subject]
        if not entries:
            ids = ", ".join(e.subject_id for e in manifest.entries[:8])
            raise ConfigError(f"subject {subject!r} not in dataset (ids: {ids} ...)")
    elif first_only:
        entries = entries[:1]
    return load_dataset(dataclasses.replace(manifest, entries=entries),
                        os.path.dirname(manifest_path) or ".")


def _require(value: str | None, paths: dict, key: str) -> str:
    got = value if value is not None else paths.get(key)
    if got is None:
        raise ConfigError(f"no {key} path given (use --{key} or the {key!r} config key)")
    return got


# ------------------------------------------------------------------ commands

def cmd_synth(args) -> int:
    spec = sg.SynthSpec(kind=args.kind, n_subjects=args.subjects, m=args.rois,
                        t=args.timepoints, noise_std=args.noise, seed=args.seed)
    manifest = sg.generate(spec, args.out)
    print(f"wrote {len(manifest.entries)} subjects ({args.kind}) to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg, paths = resolve_config(args.config, args.set)
    data = _require(args.data, paths, "data")
    out = _require(args.out, paths, "out")
    subjects = _load_subjects(data)
    os.makedirs(out, exist_ok=True)
    result = tv.train(subjects, cfg)
    tv.save_model(os.path.join(out, "checkpoint.ckpt"), result.store, result.dims, cfg)
    _write_jsonl(os.path.join(out, "epochs.jsonl"), result.epoch_log)
    _write_json(os.path.join(out, "config.resolved.json"),
                tv.resolved_config(cfg, result.dims))
    final = result.epoch_log[-1]["mean_loss"]
    print(f"trained on {len(subjects)} subjects for {cfg.epochs} epochs; "
          f"final mean loss {final:.6f}")
    print(f"checkpoint: {os.path.join(out, 'checkpoint.ckpt')}")
    return 0


def cmd_cv(args) -> int:
    cfg, paths = resolve_config(args.config, args.set)
    data = _require(args.data, paths, "data")
    out = _require(args.out, paths, "out")
    subjects = _load_subjects(data)
    os.makedirs(out, exist_ok=True)
    cv = tv.cross_validate(subjects, cfg, k=args.folds, jobs=args.jobs, holdout=args.holdout)
    for fold in cv.folds:
        stem = os.path.join(out, f"fold{fold.fold_index}")
        tv.save_model(f"{stem}.ckpt", fold.store, fold.dims, cfg)
        _write_jsonl(f"{stem}_epochs.jsonl", fold.epoch_log)
    if cv.holdout is not None:
        tv.save_model(os.path.join(out, "holdout.ckpt"), cv.holdout.store, cv.holdout.dims, cfg)
    # Fold 0's dims. Folds differ only in n_windows_ref, when subjects differ in
    # length; folds of equal dims train in lockstep, the others in their own groups.
    _write_json(os.path.join(out, "config.resolved.json"),
                tv.resolved_config(cfg, cv.folds[0].dims))
    _write_json(os.path.join(out, "report.json"), tv.cv_report_dict(cv))
    s = cv.summary
    for metric in ("auc", "acc", "se", "sp"):
        print(f"{metric}: {tv.format_m_s(s[f'{metric}_mean'], s[f'{metric}_std'])}")
    print(f"report: {os.path.join(out, 'report.json')}")
    return 0


def _gradcheck_defaults() -> tv.TrainConfig:
    return tv.TrainConfig(layers=2, batch_size=1, window_size=10, stride=5,
                          hidden_dim=8, proj_dim=8, alpha=0.1, delta=1,
                          distance_kind="euclidean", epochs=1)


def cmd_gradcheck(args) -> int:
    if args.coords < 1:
        raise ConfigError(f"--coords must be >= 1, got {args.coords}")
    if not 0.0 < args.tolerance < math.inf:  # false for nan
        raise ConfigError(f"--tolerance must be a finite positive number, got {args.tolerance}")
    cfg, _ = resolve_config(args.config, args.set, base=_gradcheck_defaults())
    rng = np.random.default_rng(cfg.seed)
    signals = rng.standard_normal((GRADCHECK_TIMEPOINTS, GRADCHECK_ROIS))
    ts = RoiTimeSeries("gradcheck", signals, 1)
    preps = tv.prepare_dataset([ts], cfg)
    dims = tv.make_dims(preps, cfg)
    store = model.init_params(dims, cfg.seed)
    ccfg = cfg.contrastive()

    def build_loss():
        return model.subject_loss_parts(store, dims, preps[0], ccfg)[0]

    coords = dc.sample_coords(store.items(), args.coords, rng)
    total = sum(len(ix) for ix in coords.values())
    report = dc.finite_diff_check(build_loss, store.items(), coords, h=1e-5)
    print(f"gradcheck: {total} coordinates over {len(store)} tensors, "
          f"max relative error {report.max_rel_err:.3e} "
          f"at {report.worst_param}[{report.worst_index}]")
    if report.max_rel_err < args.tolerance:
        print(f"PASS (< {args.tolerance:g})")
        return 0
    print(f"FAIL (>= {args.tolerance:g})")
    return 4


def cmd_fc_dump(args) -> int:
    cfg, paths = resolve_config(args.config, args.set)
    data = _require(args.data, paths, "data")
    out = _require(args.out, paths, "out")
    ts = _load_subjects(data, args.subject, first_only=True)[0]
    signals = zscore_columns(ts.signals) if cfg.normalize_fc else ts.signals
    fc = dfc.build_fc_pairs(signals, cfg.window_spec(), cfg.distance())
    n_w = len(fc.starts)
    os.makedirs(out, exist_ok=True)
    for t in range(n_w):
        for tag, stack in (("r", fc.r), ("d", fc.d), ("a_r", fc.a_r), ("a_d", fc.a_d)):
            name = f"{ts.subject_id}_w{t:03d}_{tag}.csv"
            write_roi_csv(os.path.join(out, name), stack[t], header=False)
    print(f"wrote {4 * n_w} matrices for {ts.subject_id} "
          f"({n_w} windows) to {out}")
    return 0


def _stream_block_means(channel: np.ndarray, streams: tuple[str, ...],
                        d: int) -> dict[str, float]:
    return {s: float(np.mean(channel[i * d:(i + 1) * d]))
            for i, s in enumerate(streams)}


def cmd_attn_export(args) -> int:
    if not os.path.isfile(args.checkpoint):
        raise ConfigError(f"checkpoint not found: {args.checkpoint}")
    store, dims, cfg = tv.load_model(args.checkpoint)
    subjects = _load_subjects(args.data, args.subject)
    m = subjects[0].signals.shape[1]
    if m != dims.m:
        raise ShapeError(f"{args.checkpoint}: the model was trained on {dims.m} ROIs, "
                         f"the data have {m}")
    preps = tv.prepare_dataset(subjects, cfg)
    os.makedirs(args.out, exist_ok=True)
    written = 0
    for prep in preps:
        fwd = model.forward_subject(store.no_grad(), dims, prep)
        series = {"subject": prep.subject_id, "label": prep.label, "layers": []}
        for layer in range(dims.layers):
            channel = fwd.channel_factors[layer].data
            temporal = fwd.temporal_factors[layer].data
            block = _stream_block_means(channel, dims.streams, dims.d)
            header = ["window_index", "start_timepoint", "temporal_factor"]
            header += [f"mean_channel_factor_{s}_block" for s in dims.streams]
            rows = [",".join(header)]
            for t, start in enumerate(prep.starts):
                row = [str(t), str(start), repr(float(temporal[t]))]
                row += [repr(block[s]) for s in dims.streams]
                rows.append(",".join(row))
            name = f"attn_{prep.subject_id}_layer{layer}.csv"
            _write_text(os.path.join(args.out, name), "\n".join(rows) + "\n")
            written += 1
            series["layers"].append({
                "layer": layer,
                "window_index": list(range(len(prep.starts))),
                "start_timepoint": list(prep.starts),
                "temporal_factor": [float(v) for v in temporal],
                "mean_channel_factor": block,
            })
        _write_json(os.path.join(args.out, f"attn_{prep.subject_id}.json"), series)
    print(f"wrote {written} attention CSVs (+ JSON series) for "
          f"{len(preps)} subjects to {args.out}")
    return 0


# -------------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdgl",
        description="Dual-stream dynamic graph learning on ROI time series.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p):
        p.add_argument("--config", default=None,
                       help="key = value config file (flat, # comments)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", default=[],
                       help="override one config key (repeatable)")

    p = sub.add_parser("synth", help="generate a labeled synthetic dataset",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--kind", required=True, choices=sg.KINDS)
    p.add_argument("--subjects", type=int, default=60, help="even subject count")
    p.add_argument("--rois", type=int, default=10)
    p.add_argument("--timepoints", type=int, default=120)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output dataset directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train once on a dataset",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    add_config_flags(p)
    p.add_argument("--data", default=None, help="dataset dir (or manifest.json path)")
    p.add_argument("--out", default=None, help="output dir for checkpoint and logs")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("cv", help="stratified cross-validation",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    add_config_flags(p)
    p.add_argument("--data", default=None, help="dataset dir (or manifest.json path)")
    p.add_argument("--out", default=None, help="output dir for report and checkpoints")
    p.add_argument("--folds", type=int, default=4)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes; the folds split into this many groups, each "
                        "trained in lockstep, with results byte-identical to --jobs 1")
    p.add_argument("--holdout", action="store_true",
                   help="also train on all fold data and score the held-out test split")
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("gradcheck",
                       help="finite-difference check of the full model gradient",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    add_config_flags(p)
    p.add_argument("--coords", type=int, default=240,
                   help="minimum number of coordinates to probe")
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("fc-dump",
                       help="write one subject's windowed matrices as CSVs, under the "
                            "config's window_size, stride, distance_kind, ridge_scale "
                            "and normalize_fc",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    add_config_flags(p)
    p.add_argument("--data", default=None, help="dataset dir (or manifest.json path)")
    p.add_argument("--subject", default=None, help="subject id (default: first)")
    p.add_argument("--out", default=None, help="output directory for the matrix CSVs")
    p.set_defaults(func=cmd_fc_dump)

    p = sub.add_parser("attn-export",
                       help="export fusion attention factors for plotting",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--checkpoint", required=True,
                   help="trained checkpoint path; its header gives the config and model dims")
    p.add_argument("--data", required=True, help="dataset dir (or manifest.json path)")
    p.add_argument("--subject", default=None, help="restrict to one subject id")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_attn_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _USAGE_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except _DATA_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
