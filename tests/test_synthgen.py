"""Synthetic generator tests: class structure, determinism, file output."""

import os

import numpy as np
import pytest

from cdgl import dynamic_fc as dfc
from cdgl import synthgen as sg
from cdgl.data_io import load_dataset, load_manifest
from cdgl.errors import SpecError


class TestSpecValidation:
    def test_bad_kind(self):
        with pytest.raises(SpecError):
            sg.SynthSpec("fourier", 10, 10, 100)

    def test_odd_subjects(self):
        with pytest.raises(SpecError):
            sg.SynthSpec("correlation", 11, 10, 100)

    def test_small_m(self):
        with pytest.raises(SpecError):
            sg.SynthSpec("correlation", 10, 3, 100)

    def test_negative_noise(self):
        with pytest.raises(SpecError):
            sg.SynthSpec("correlation", 10, 10, 100, noise_std=-0.1)

    @pytest.mark.parametrize("noise", [float("nan"), float("inf")])
    def test_non_finite_noise(self, noise):
        with pytest.raises(SpecError):
            sg.SynthSpec("correlation", 10, 10, 100, noise_std=noise)


def pearson(x):
    return dfc.pearson_matrix(x)


class TestCorrelationKind:
    def test_noiseless_block_structure(self):
        spec = sg.SynthSpec("correlation", 4, 8, 60, noise_std=0.0, seed=3)
        subs = sg.make_subjects(spec)
        for ts in subs:
            r = pearson(ts.signals)
            block = range(0, 4) if ts.label == 0 else range(4, 8)
            for i in block:
                for j in block:
                    if i != j:
                        assert r[i, j] == pytest.approx(1.0, abs=1e-10)
            others = [abs(r[i, j]) for i in range(8) for j in range(8)
                      if i < j and not (i in block and j in block)]
            assert np.mean(others) < 0.5

    def test_balanced_labels(self):
        spec = sg.SynthSpec("correlation", 20, 10, 50, seed=0)
        labels = [ts.label for ts in sg.make_subjects(spec)]
        assert labels.count(0) == labels.count(1) == 10


class TestAmplitudeKind:
    def test_paired_scaling_exact_at_zero_noise(self):
        spec = sg.SynthSpec("amplitude", 6, 10, 80, noise_std=0.0, seed=5)
        subs = sg.make_subjects(spec)
        scales = sg.amplitude_scales(spec)
        for k in range(3):
            x0, x1 = subs[2 * k].signals, subs[2 * k + 1].signals
            np.testing.assert_allclose(x1, x0 * scales[None, :], atol=1e-12)

    def test_pearson_identical_across_classes_at_zero_noise(self):
        spec = sg.SynthSpec("amplitude", 6, 10, 80, noise_std=0.0, seed=7)
        subs = sg.make_subjects(spec)
        for k in range(3):
            wins0 = dfc.extract_windows(subs[2 * k].signals, dfc.WindowSpec(20, 20))
            wins1 = dfc.extract_windows(subs[2 * k + 1].signals, dfc.WindowSpec(20, 20))
            for w0, w1 in zip(wins0, wins1):
                np.testing.assert_allclose(pearson(w1), pearson(w0), atol=1e-12)

    def test_geometric_mean_of_scales_is_factor(self):
        spec = sg.SynthSpec("amplitude", 2, 10, 20)
        scales = sg.amplitude_scales(spec)
        assert np.exp(np.log(scales).mean()) == pytest.approx(2.0, abs=1e-12)

    def test_mean_distance_ratio_near_two(self):
        # closed form at zero noise: within-block distances vanish, so the
        # class ratio is ||2.5 L_A - 1.6 L_B|| / ||L_A - L_B|| -> sqrt(8.81/2)
        expect = np.sqrt((2.5 ** 2 + 1.6 ** 2) / 2.0)
        ratios = []
        for seed in range(50):
            spec = sg.SynthSpec("amplitude", 2, 10, 100, noise_std=0.0, seed=seed)
            x0, x1 = (ts.signals for ts in sg.make_subjects(spec))
            kind = dfc.DistanceKind("euclidean")
            d0 = np.abs(dfc.distance_matrix(x0, kind)).mean()
            d1 = np.abs(dfc.distance_matrix(x1, kind)).mean()
            ratios.append(d1 / d0)
        assert np.mean(ratios) == pytest.approx(expect, abs=0.15)
        assert abs(np.mean(ratios) - 2.0) < 0.25

    def test_distance_graph_differs_but_pearson_graph_does_not(self):
        spec = sg.SynthSpec("amplitude", 6, 10, 80, noise_std=0.05, seed=9)
        subs = sg.make_subjects(spec)
        kind = dfc.DistanceKind("euclidean")
        block_b = set(range(5, 10))
        for k in range(3):
            x1 = subs[2 * k + 1].signals
            a_d = dfc.binarize_topk(dfc.distance_matrix(x1, kind))
            iu, ju = np.triu_indices(10, k=1)
            within_b = sum(a_d[i, j] for i, j in zip(iu, ju)
                           if i in block_b and j in block_b)
            assert within_b == 10  # all of block B's close pairs selected


class TestSwitchingKind:
    def test_static_pearson_expectation_matches(self):
        # pair categories over M=10: 8 both-partition pairs at r=1,
        # 24 single-partition pairs at r=0.5, 13 at r=0
        spec = sg.SynthSpec("switching", 40, 10, 200, noise_std=0.05, seed=11)
        subs = sg.make_subjects(spec)
        half = np.arange(10) < 5
        parity = np.arange(10) % 2 == 0
        sums = {0: [], 1: []}
        for ts in subs:
            r = pearson(ts.signals)
            iu, ju = np.triu_indices(10, k=1)
            for i, j in zip(iu, ju):
                same = int(half[i] == half[j]) + int(parity[i] == parity[j])
                if same == 2:
                    sums[ts.label].append(r[i, j])
        assert np.mean(sums[0]) == pytest.approx(1.0, abs=0.1)
        assert np.mean(sums[1]) == pytest.approx(1.0, abs=0.1)

    def test_windowed_structure_differs_for_class_one(self):
        spec = sg.SynthSpec("switching", 2, 10, 200, noise_std=0.05, seed=13)
        subs = sg.make_subjects(spec)
        ts1 = subs[1]
        first = pearson(ts1.signals[:100])
        second = pearson(ts1.signals[100:])
        half_pair = (0, 3)  # same half, different parity
        parity_pair = (0, 6)  # same parity, different half
        assert first[half_pair] > 0.9 and abs(second[half_pair]) < 0.4
        assert second[parity_pair] > 0.9 and abs(first[parity_pair]) < 0.4

    def test_class_zero_stationary(self):
        # Mean off-diagonal |r_first - r_second| is small for the static
        # blend and large for the switching class.
        spec = sg.SynthSpec("switching", 2, 10, 200, noise_std=0.05, seed=15)
        subs = sg.make_subjects(spec)
        iu, ju = np.triu_indices(10, k=1)

        def half_gap(ts):
            first = pearson(ts.signals[:100])
            second = pearson(ts.signals[100:])
            return np.mean(np.abs(first[iu, ju] - second[iu, ju]))

        assert half_gap(subs[0]) < 0.3
        assert half_gap(subs[1]) > 0.4


class TestGenerate:
    def test_files_and_manifest(self, tmp_path):
        spec = sg.SynthSpec("correlation", 6, 8, 40, seed=1)
        out = str(tmp_path / "data")
        manifest = sg.generate(spec, out)
        assert len(manifest.entries) == 6
        back = load_manifest(f"{out}/manifest.json")
        assert back == manifest
        subjects = load_dataset(back, out)
        assert all(ts.signals.shape == (40, 8) for ts in subjects)
        assert [ts.label for ts in subjects] == [0, 1, 0, 1, 0, 1]

    def test_byte_identical_across_runs(self, tmp_path):
        spec = sg.SynthSpec("switching", 4, 10, 60, seed=2)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        sg.generate(spec, out1)
        sg.generate(spec, out2)
        for name in sorted(os.listdir(out1)):
            b1 = open(f"{out1}/{name}", "rb").read()
            b2 = open(f"{out2}/{name}", "rb").read()
            assert b1 == b2, name

    def test_in_memory_matches_files(self, tmp_path):
        spec = sg.SynthSpec("amplitude", 4, 10, 50, seed=3)
        out = str(tmp_path / "data")
        manifest = sg.generate(spec, out)
        mem = sg.make_subjects(spec)
        disk = load_dataset(manifest, out)
        for a, b in zip(mem, disk):
            assert a.subject_id == b.subject_id and a.label == b.label
            np.testing.assert_array_equal(a.signals, b.signals)


