"""Synthetic ROI datasets with analytically known class structure.

Three generators, each isolating one signal pathway:

correlation: the two classes share a latent signal across different ROI
blocks, so their Pearson structure differs directly.

amplitude: matched subject pairs share the exact same latent draws; class 1
is rescaled per ROI block (tilted around an overall factor of 2). Pearson
matrices and rank-thresholded graphs are provably identical across classes,
while distance magnitudes and distance-graph topology differ, so only a
distance-aware model can separate the classes.

switching: both classes alternate between two block partitions with fresh
latents per segment, so instantaneous statistics match; class 1 flips once
at the midpoint while class 0 flips every eighth of the scan. Whole-sequence
correlations agree in expectation between classes; quarter-length windowed
correlations differ strongly because class 1 windows sit inside one regime.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .data_io import DatasetManifest, ManifestEntry, RoiTimeSeries, save_manifest, write_roi_csv
from .errors import SpecError

KINDS = ("correlation", "amplitude", "switching")


@dataclass(frozen=True)
class SynthSpec:
    kind: str
    n_subjects: int
    m: int
    t: int
    noise_std: float = 0.1
    seed: int = 0
    amp_factor: float = 2.0
    amp_tilt: float = 1.25

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SpecError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.n_subjects < 2 or self.n_subjects % 2 != 0:
            raise SpecError(f"n_subjects must be even and >= 2, got {self.n_subjects}")
        if self.m < 4:
            raise SpecError(f"m must be >= 4, got {self.m}")
        if self.t < 8:
            raise SpecError(f"t must be >= 8, got {self.t}")
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0):
            raise SpecError(f"noise_std must be finite and >= 0, got {self.noise_std}")
        if self.amp_factor <= 0 or self.amp_tilt <= 0:
            raise SpecError("amp_factor and amp_tilt must be positive")
        if self.seed < 0:
            raise SpecError(f"seed must be >= 0, got {self.seed}")


def _blocks(m: int) -> tuple[np.ndarray, np.ndarray]:
    idx = np.arange(m)
    return idx[: m // 2], idx[m // 2:]


def _correlation_subject(rng: np.random.Generator, spec: SynthSpec,
                         label: int) -> np.ndarray:
    block_a, block_b = _blocks(spec.m)
    block = block_a if label == 0 else block_b
    latent = rng.standard_normal(spec.t)
    x = np.empty((spec.t, spec.m))
    for roi in range(spec.m):
        if roi in block:
            x[:, roi] = latent
        else:
            x[:, roi] = rng.standard_normal(spec.t)
    x += spec.noise_std * rng.standard_normal((spec.t, spec.m))
    return x


def amplitude_scales(spec: SynthSpec) -> np.ndarray:
    """Per-ROI class-1 scale factors: block A up-tilted, block B down-tilted."""
    block_a, _ = _blocks(spec.m)
    scales = np.full(spec.m, spec.amp_factor / spec.amp_tilt)
    scales[block_a] = spec.amp_factor * spec.amp_tilt
    return scales


def _amplitude_pair(pair_seq: np.random.SeedSequence,
                    spec: SynthSpec) -> tuple[np.ndarray, np.ndarray]:
    latent_ss, noise0_ss, noise1_ss = pair_seq.spawn(3)
    latent_rng = np.random.default_rng(latent_ss)
    block_a, block_b = _blocks(spec.m)
    l_a = latent_rng.standard_normal(spec.t)
    l_b = latent_rng.standard_normal(spec.t)
    base = np.empty((spec.t, spec.m))
    base[:, block_a] = l_a[:, None]
    base[:, block_b] = l_b[:, None]
    noise0 = np.random.default_rng(noise0_ss).standard_normal((spec.t, spec.m))
    noise1 = np.random.default_rng(noise1_ss).standard_normal((spec.t, spec.m))
    x0 = base + spec.noise_std * noise0
    x1 = (base + spec.noise_std * noise1) * amplitude_scales(spec)[None, :]
    return x0, x1


SWITCH_SEGMENTS_CLASS0 = 8


def _switching_subject(rng: np.random.Generator, spec: SynthSpec,
                       label: int) -> np.ndarray:
    """Alternating pure-partition regimes; only the tempo separates classes.

    Both classes follow one group partition at a time with fresh iid latents
    per segment, so every instantaneous statistic matches across classes.
    Class 1 flips partition once at T//2; class 0 flips every T//8, fast
    enough that quarter-length windows always mix both partitions.
    """
    m, t = spec.m, spec.t
    partitions = (np.arange(m) < m // 2,  # partition 1: halves
                  np.arange(m) % 2 == 0)  # partition 2: even/odd
    n_seg = 2 if label == 1 else SWITCH_SEGMENTS_CLASS0
    bounds = [round(i * t / n_seg) for i in range(n_seg + 1)]
    x = np.empty((t, m))
    for seg in range(n_seg):
        lo, hi = bounds[seg], bounds[seg + 1]
        groups = partitions[seg % 2]
        latents = {True: rng.standard_normal(hi - lo),
                   False: rng.standard_normal(hi - lo)}
        for roi in range(m):
            x[lo:hi, roi] = latents[bool(groups[roi])]
    x += spec.noise_std * rng.standard_normal((t, m))
    return x


def make_subjects(spec: SynthSpec) -> list[RoiTimeSeries]:
    """Generate all subjects in memory; labels alternate 0, 1, 0, 1, ..."""
    root = np.random.SeedSequence(spec.seed)
    subjects = []
    if spec.kind == "amplitude":
        for pair, pair_seq in enumerate(root.spawn(spec.n_subjects // 2)):
            x0, x1 = _amplitude_pair(pair_seq, spec)
            subjects.append(RoiTimeSeries(f"sub{2 * pair:03d}", x0, 0))
            subjects.append(RoiTimeSeries(f"sub{2 * pair + 1:03d}", x1, 1))
        return subjects
    gen = _correlation_subject if spec.kind == "correlation" else _switching_subject
    for i, child in enumerate(root.spawn(spec.n_subjects)):
        rng = np.random.default_rng(child)
        label = i % 2
        subjects.append(RoiTimeSeries(f"sub{i:03d}", gen(rng, spec, label), label))
    return subjects


def generate(spec: SynthSpec, out_dir: str) -> DatasetManifest:
    """Write subject CSVs plus manifest.json under out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for ts in make_subjects(spec):
        fname = f"{ts.subject_id}.csv"
        write_roi_csv(os.path.join(out_dir, fname), ts.signals)
        entries.append(ManifestEntry(subject_id=ts.subject_id, path=fname,
                                     label=ts.label))
    manifest = DatasetManifest(entries=entries, roi_count=spec.m)
    save_manifest(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest
