"""The benchmark's own test: traced counts repeat, match ROADMAP and ignore the seed.

    python3 -m pytest -q perfbench/test_perfbench.py

Takes about a minute: each traced case sets up a workload and traces one
pass of units over its inputs (one cv run, two train steps, one scored
subject).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

from run import OUT_DIR, ROOT, bootstrap, per_layer_metrics, tail

bootstrap()
import spans  # noqa: E402  (cdgl must be importable first)
import workloads  # noqa: E402

WORKLOADS = sorted(workloads.WORKLOADS)


def traced_pass(name: str, seed: int) -> tuple[dict, dict]:
    """(counts, digests) of one traced pass of a workload's units."""
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="test-", dir=OUT_DIR)
    try:
        wl = workloads.WORKLOADS[name]()
        wl.make_inputs(workdir, seed)
        state = wl.setup()
        with spans.Tracer() as tracer:
            outputs = [wl.output(state, tracer.run_unit(wl.run_unit, state, i))
                       for i in range(wl.cycle)]
        return tracer.counts(wl.cycle), wl.digests(outputs)
    finally:
        shutil.rmtree(workdir)


@pytest.fixture(scope="module")
def passes():
    done = {}

    def get(name: str, seed: int, rep: int = 0):
        if (name, seed, rep) not in done:
            done[name, seed, rep] = traced_pass(name, seed)
        return done[name, seed, rep]

    return get


@pytest.mark.parametrize("name", WORKLOADS)
def test_two_traced_passes_give_identical_counts_and_digests(passes, name):
    assert passes(name, 1, rep=0) == passes(name, 1, rep=1)


@pytest.mark.parametrize("name", WORKLOADS)
def test_counts_do_not_change_with_the_seed(passes, name):
    assert passes(name, 1)[0] == passes(name, 2)[0]


def test_demo_cv_writes_report_and_fold_checkpoints(passes):
    assert sorted(passes("demo-cv", 1)[1]) == [
        "fold0.ckpt", "fold1.ckpt", "fold2.ckpt", "fold3.ckpt", "report.json"]


def test_counts_match_roadmap(passes):
    readme_shape = passes("demo-cv", 1)[0]["ops_per_call"]
    assert readme_shape["model.forward_subject"] == 424
    assert readme_shape["cdgin.contrastive_loss"] == 340
    long_scan = passes("long-scan-train", 1)[0]["ops_per_call"]
    assert long_scan["model.forward_subject"] == 5230
    assert long_scan["cdgin.contrastive_loss"] == 67732


def test_scoring_builds_no_contrastive_or_backward_work(passes):
    calls = passes("score-mahalanobis", 1)[0]["calls_per_unit"]
    assert "cdgin.contrastive_loss" not in calls
    assert "diffcore.backward" not in calls
    assert calls["model.prepare_subject"] == 1


def test_benchmark_json_lists_the_traced_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        listed = {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}
    reported = per_layer_metrics(spans.Tracer(), spans.Tracer(), 1, 1.0)
    assert listed == {name: m["unit"] for name, m in reported.items()}


def test_tail_keeps_ten_samples_above_it():
    samples = [float(v) for v in range(1, 41)]  # 40 samples
    assert tail(samples) == (30.0, 75.0)
    assert tail(samples[:10]) == (10.0, 100.0)  # no percentile has ten above it


def test_fails_without_printing_a_result_outside_a_checkout():
    os.makedirs(OUT_DIR, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=OUT_DIR)
    try:
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "demo-cv", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
