"""The benchmark's workloads, driven only through cdgl's public functions and CLI.

A workload makes its inputs from the seed with synthgen, builds the state
its units need (the timed set-up), and runs units one at a time in this
process: a closed loop with a single client. Outputs are checked outside
the timed region. Why each workload is here is in README.md beside this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os

import numpy as np

from cdgl import cli, data_io, model, synthgen, train_eval
from cdgl import diffcore as dc

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
REFERENCE_SEED = 2311  # fixed inputs and init for the forward-value gate, whatever --seed is
REFERENCE_TOL = 1e-12
GRADCHECK_TOL = 1e-4
GRADCHECK_TENSORS = 12  # one coordinate in each of this many tensors, spread over the model


class UnitFailed(Exception):
    """A unit ended without its result, e.g. the CLI exited non-zero."""


def load_subjects(data_dir: str) -> list[data_io.RoiTimeSeries]:
    manifest = data_io.load_manifest(os.path.join(data_dir, "manifest.json"))
    return data_io.load_dataset(manifest, data_dir)


def sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


class Workload:
    name = ""
    unit = ""  # what one timed unit is
    stem = ""  # prefix of this workload's own metric names
    synth: dict  # SynthSpec fields apart from the seed
    cfg: train_eval.TrainConfig
    setup_reps = 3  # set-up is timed this many times; setup_s is their median
    cycle = 1  # units per pass over inputs whose op counts differ
    reference_subjects = 2

    def make_inputs(self, workdir: str, seed: int) -> None:
        self.workdir = workdir
        self.data = os.path.join(workdir, "data")
        synthgen.generate(synthgen.SynthSpec(**self.synth, seed=seed), self.data)

    def setup(self):
        raise NotImplementedError

    def run_unit(self, state, i: int):
        raise NotImplementedError

    def output(self, state, value):
        """What the checks need from one unit; called outside the timed region."""
        return value

    def check(self, state, outputs: list) -> dict[str, bool]:
        raise NotImplementedError

    def digests(self, outputs: list) -> dict[str, str]:
        """sha256 of the files a unit writes, for the byte-identity test."""
        return {}

    def named_metrics(self, p50_ms: float, tail_ms: float, outputs: list) -> dict:
        return {f"{self.stem}_p50": {"value": p50_ms, "unit": "ms"},
                f"{self.stem}_tail": {"value": tail_ms, "unit": "ms"}}


class DemoCv(Workload):
    name = "demo-cv"
    unit = "one `cdgl cv --folds 4` run"
    synth = dict(kind="correlation", n_subjects=60, m=10, t=120)
    cfg = train_eval.TrainConfig(epochs=2)  # README defaults; epochs cut to fit a run
    folds = 4
    setup_reps = 5
    reference_subjects = 3
    auc_floor = 0.9  # quality guard: 2 epochs reach 0.99-1.00 on this data

    def make_inputs(self, workdir: str, seed: int) -> None:
        super().make_inputs(workdir, seed)
        self.out = os.path.join(workdir, "cv")

    def setup(self):
        """The steps `cdgl cv` takes before its first train step."""
        subjects = load_subjects(self.data)
        preps = train_eval.prepare_dataset(subjects, self.cfg)
        model.init_params(train_eval.make_dims(preps, self.cfg), self.cfg.seed)

    def run_unit(self, state, i: int):
        argv = ["cv", "--data", self.data, "--out", self.out, "--folds", str(self.folds),
                "--set", f"epochs={self.cfg.epochs}"]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise UnitFailed(f"cdgl cv exited with code {code}")

    def output(self, state, value):
        files = ["report.json"] + [f"fold{k}.ckpt" for k in range(self.folds)]
        losses = []
        for k in range(self.folds):
            with open(os.path.join(self.out, f"fold{k}_epochs.jsonl"), encoding="utf-8") as f:
                for line in f:
                    rec = json.loads(line)
                    losses += [rec["mean_loss"], rec["bce"], rec["info_loss"]]
        with open(os.path.join(self.out, "report.json"), encoding="utf-8") as f:
            auc = json.load(f)["summary"]["auc_mean"]
        return {"digests": {name: sha256(os.path.join(self.out, name)) for name in files},
                "auc_mean": auc,
                "losses_finite": all(math.isfinite(x) for x in losses)}

    def check(self, state, outputs: list) -> dict[str, bool]:
        return {
            "losses_finite": all(o["losses_finite"] for o in outputs),
            "cv_auc_floor": all(isinstance(o["auc_mean"], float)
                                and o["auc_mean"] >= self.auc_floor for o in outputs),
            "reruns_byte_identical": all(o["digests"] == outputs[0]["digests"]
                                         for o in outputs),
        }

    def digests(self, outputs: list) -> dict[str, str]:
        return outputs[0]["digests"]

    def named_metrics(self, p50_ms: float, tail_ms: float, outputs: list) -> dict:
        return {"cv_wall_s": {"value": p50_ms / 1e3, "unit": "s"},
                "cv_wall_s_tail": {"value": tail_ms / 1e3, "unit": "s"},
                "cv_auc_mean": {"value": outputs[0]["auc_mean"], "unit": "auc"}}


class LongScanTrain(Workload):
    name = "long-scan-train"
    unit = "one subject's train step at batch_size=1"
    stem = "train_step_ms"
    synth = dict(kind="correlation", n_subjects=2, m=90, t=600)
    cfg = train_eval.TrainConfig(window_size=30, stride=10, batch_size=1)  # 58 windows
    cycle = 2  # the two subjects differ in label, and BCE takes one more op for label 0

    def setup(self):
        """What `train_eval.train` does before its first step."""
        preps = train_eval.prepare_dataset(load_subjects(self.data), self.cfg)
        dims = train_eval.make_dims(preps, self.cfg)
        store = model.init_params(dims, self.cfg.seed)
        adam = dc.AdamState(lr=self.cfg.lr, weight_decay=self.cfg.weight_decay)
        return preps, dims, store, adam

    def run_unit(self, state, i: int):
        preps, dims, store, adam = state
        store.zero_grad()
        total, l_bce, l_info = model.subject_loss_parts(store, dims, preps[i % len(preps)],
                                                        self.cfg.contrastive())
        dc.backward(dc.mul_scalar(total, 1.0))  # train_eval.train's mean over a batch of one
        dc.adam_step(store, adam)
        return float(total.data), float(l_bce.data), float(l_info.data)

    def check(self, state, outputs: list) -> dict[str, bool]:
        return {"losses_finite": all(math.isfinite(x) for losses in outputs for x in losses)}


class ScoreMahalanobis(Workload):
    name = "score-mahalanobis"
    unit = "one subject's CSV read, preparation and forward"
    stem = "score_subject_ms"
    synth = dict(kind="amplitude", n_subjects=40, m=90, t=230)
    cfg = train_eval.TrainConfig(window_size=35, stride=5,  # 40 windows
                                 distance_kind="mahalanobis")
    setup_reps = 9

    def dims(self, m: int) -> model.ModelDims:
        return model.ModelDims(m=m, d=self.cfg.hidden_dim, d_p=self.cfg.proj_dim,
                               layers=self.cfg.layers,
                               n_windows_ref=self.cfg.window_spec().count(self.synth["t"]),
                               streams=self.cfg.stream_tuple())

    def make_inputs(self, workdir: str, seed: int) -> None:
        super().make_inputs(workdir, seed)
        self.checkpoint = os.path.join(workdir, "score.ckpt")
        dc.save_params(self.checkpoint, model.init_params(self.dims(self.synth["m"]), seed))

    def setup(self):
        manifest = data_io.load_manifest(os.path.join(self.data, "manifest.json"))
        dims = self.dims(manifest.roi_count)
        store = model.init_params(dims, self.cfg.seed)
        dc.load_into(store, self.checkpoint)
        return manifest, dims, store

    def run_unit(self, state, i: int):
        manifest, dims, store = state
        entry = manifest.entries[i % len(manifest.entries)]
        ts = data_io.load_roi_csv(os.path.join(self.data, entry.path), entry.subject_id,
                                  entry.label)
        prep = model.prepare_subject(ts, self.cfg.window_spec(), self.cfg.distance(),
                                     self.cfg.stream_tuple(), self.cfg.normalize_fc)
        return train_eval.predict(store, dims, prep)

    def check(self, state, outputs: list) -> dict[str, bool]:
        return {
            "probabilities_in_range": all(0.0 < p < 1.0 for p in outputs),
            "rescore_identical": self.run_unit(state, 0) == outputs[0],
        }


WORKLOADS = {cls.name: cls for cls in (DemoCv, LongScanTrain, ScoreMahalanobis)}


def reference_probabilities(wl: Workload) -> list[float]:
    """Forward probabilities of the first fixed-seed subjects at the workload's shape."""
    spec = synthgen.SynthSpec(**wl.synth, seed=REFERENCE_SEED)
    subjects = synthgen.make_subjects(spec)[: wl.reference_subjects]
    preps = train_eval.prepare_dataset(subjects, wl.cfg)
    dims = train_eval.make_dims(preps, wl.cfg)
    store = model.init_params(dims, REFERENCE_SEED)
    return [train_eval.predict(store, dims, p) for p in preps]


def gradcheck_probe() -> float:
    """Max relative error of a few-coordinate finite-difference check.

    Inputs and config are those of `cdgl gradcheck` at its default seed;
    the command itself probes 250 coordinates and takes about 12 s.
    """
    cfg = train_eval.TrainConfig(layers=2, batch_size=1, window_size=10, stride=5,
                                 hidden_dim=8, proj_dim=8, alpha=0.1, delta=1, epochs=1)
    rng = np.random.default_rng(0)
    signals = rng.standard_normal((cli.GRADCHECK_TIMEPOINTS, cli.GRADCHECK_ROIS))
    preps = train_eval.prepare_dataset([data_io.RoiTimeSeries("gradcheck", signals, 1)], cfg)
    dims = train_eval.make_dims(preps, cfg)
    store = model.init_params(dims, 0)
    names = store.names()
    picked = names[:: max(1, len(names) // GRADCHECK_TENSORS)][:GRADCHECK_TENSORS]
    coords = {name: rng.integers(store[name].data.size, size=1) for name in picked}
    ccfg = cfg.contrastive()
    report = dc.finite_diff_check(
        lambda: model.subject_loss_parts(store, dims, preps[0], ccfg)[0],
        store.items(), coords)
    return report.max_rel_err


def common_checks(wl: Workload) -> dict[str, bool]:
    """The refactor gate (forward values within 1e-12) and the gradient probe."""
    with open(REFERENCE_PATH, encoding="utf-8") as f:
        expected = json.load(f).get(wl.name)
    got = reference_probabilities(wl)
    return {
        "reference_probabilities": expected is not None and len(expected) == len(got)
        and all(abs(a - b) <= REFERENCE_TOL for a, b in zip(got, expected)),
        "gradcheck_probe": gradcheck_probe() < GRADCHECK_TOL,
    }
