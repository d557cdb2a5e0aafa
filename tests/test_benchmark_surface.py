"""Tier-1 guard for what the benchmark under ``perfbench/`` uses of cdgl.

The benchmark wraps cdgl functions by name for its traced run, and each
workload drives cdgl through its public functions and CLI. This module
imports the benchmark's own modules, unedited, and checks that every name
it wraps resolves, and that each workload sets up, runs a unit plain and
traced, and passes its checks: its own, the forward values against
``reference.json`` within 1e-12 and the finite-difference probe.
"""

import importlib
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _benchmark_module(name):
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(PERFBENCH)


spans = _benchmark_module("spans")
workloads = _benchmark_module("workloads")


def test_every_wrapped_name_resolves():
    for module, names in spans.WRAPPED.items():
        for name in names:
            assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
    with spans.Tracer():  # installs every wrapper, then restores the originals
        pass


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_and_passes_its_checks(name, tmp_path):
    wl = workloads.WORKLOADS[name]()
    wl.make_inputs(str(tmp_path), seed=1)
    state = wl.setup()
    outputs = [wl.output(state, wl.run_unit(state, i)) for i in range(wl.cycle)]
    with spans.Tracer() as tracer:
        outputs.append(wl.output(state, tracer.run_unit(wl.run_unit, state, 0)))
    assert tracer.layer_metrics(1) and tracer.counts(1)["ops_per_unit"]
    checks = wl.check(state, outputs)
    checks.update(workloads.common_checks(wl))
    assert checks and all(checks.values()), checks


def test_traced_scoring_times_every_preparation_kernel(tmp_path):
    """The preparation figures of a traced score-mahalanobis unit are nonzero:
    preparation still reaches the kernels through the names the tracer wraps."""
    wl = workloads.WORKLOADS["score-mahalanobis"]()
    wl.make_inputs(str(tmp_path), seed=1)
    state = wl.setup()
    with spans.Tracer() as tracer:
        tracer.run_unit(wl.run_unit, state, 0)
    metrics = tracer.layer_metrics(1)
    for name in ("dynamic_fc.pearson_ms", "dynamic_fc.distance_ms", "dynamic_fc.binarize_ms",
                 "dynamic_fc.windows"):
        assert metrics[name] > 0, name
