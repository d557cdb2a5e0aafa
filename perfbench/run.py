"""Run one benchmark workload and print its result as JSON.

    python3 perfbench/run.py --workload demo-cv --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; cdgl is imported from that checkout's
``src/`` and needs no install. ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced run. The last line
of standard output is the result, ``{"correct", "attempted", "failed",
"metrics"}``; the line before it holds the run's details: the workload's own
metric names, sample counts, the checks, and the machine and library
versions. Generated inputs and span dumps go under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
# Layer figures of one traced set-up, reported with a "setup." prefix.
SETUP_LAYER_METRICS = ("dynamic_fc.windows", "dynamic_fc.pearson_ms", "dynamic_fc.distance_ms",
                       "dynamic_fc.binarize_ms", "data_io.self_ms", "data_io.bytes_read",
                       "model.self_ms", "model.prepare_calls", "diffcore.ckpt_ms")


def bootstrap() -> None:
    """Pin BLAS and OpenMP to one thread and import cdgl from this checkout.

    Must run before numpy is first imported: OpenBLAS sizes its thread pool
    when it loads, one thread per core by default.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "cdgl", "__init__.py")):
        raise SystemExit(f"perfbench: no cdgl sources under {src}")
    sys.path.insert(0, src)
    import cdgl
    if os.path.dirname(os.path.dirname(os.path.abspath(cdgl.__file__))) != src:
        raise SystemExit(f"perfbench: cdgl imported from {cdgl.__file__}, not {src}")


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "threads": {var: os.environ.get(var) for var in THREAD_VARS}}


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it.

    With too few samples for any such percentile, the maximum (percentile 100).
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def measure(wl, state, seconds: float, clock, tracer=None) -> dict:
    """Closed loop: units back to back until ``seconds`` pass and the input cycle is whole.

    Each successful unit gives a (wall, scaled) pair of seconds from the host clock.
    """
    from cdgl.errors import CdglError
    from workloads import UnitFailed

    samples, outputs, failed, i = [], [], 0, 0
    deadline = time.perf_counter() + seconds
    while i == 0 or time.perf_counter() < deadline or i % wl.cycle:
        start = time.perf_counter()
        try:
            value = tracer.run_unit(wl.run_unit, state, i) if tracer else wl.run_unit(state, i)
        except (CdglError, UnitFailed) as err:
            failed += 1
            print(f"perfbench: unit {i} failed: {err}", file=sys.stderr)
        else:
            samples.append(clock.interval(start, time.perf_counter()))
            outputs.append(wl.output(state, value))
        i += 1
    if not samples:
        raise SystemExit(f"perfbench: every one of {i} units failed")
    return {"wall": [w for w, _ in samples], "scaled": [s for _, s in samples],
            "outputs": outputs, "attempted": i, "failed": failed}


def metric_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("bytes_read"):
        return "bytes"
    if name.endswith(("_useful", "_reuse", "_ratio")):
        return "ratio"
    return "count"


def per_layer_metrics(tracer, setup_tracer, units: int, overhead_ratio: float) -> dict:
    layers = tracer.layer_metrics(units)
    setup_layers = setup_tracer.layer_metrics(1)
    for key in SETUP_LAYER_METRICS:
        layers[f"setup.{key}"] = setup_layers[key]
    layers["trace.overhead_ratio"] = overhead_ratio
    return {key: {"value": value, "unit": metric_unit(key)} for key, value in layers.items()}


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """(result, detail) of one run; its generated inputs live and die in a work directory."""
    import hostclock

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        with hostclock.HostClock() as clock:
            return run_in(workdir, name, seed, seconds, trace, clock)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_in(workdir: str, name: str, seed: int, seconds: float, trace: bool, clock):
    import spans
    import workloads

    wl = workloads.WORKLOADS[name]()
    wl.make_inputs(workdir, seed)
    setup = []
    for _ in range(wl.setup_reps):
        start = time.perf_counter()
        state = wl.setup()
        setup.append(clock.interval(start, time.perf_counter()))
    checks = workloads.common_checks(wl)
    detail = {"workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "unit": wl.unit, "env": environment()}
    if not trace:
        runs = [measure(wl, state, seconds, clock)]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        scaled_ms = [1e3 * s for s in runs[0]["scaled"]]
        wall_ms = [1e3 * s for s in runs[0]["wall"]]
        p50_ms = statistics.median(scaled_ms)
        tail_ms, percentile = tail(scaled_ms)
        metrics = {"unit_ms_p50": {"value": p50_ms, "unit": "ms"},
                   "unit_ms_tail": {"value": tail_ms, "unit": "ms"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
                   "setup_s": {"value": statistics.median(s for _, s in setup), "unit": "s"}}
        detail["named_metrics"] = {
            **wl.named_metrics(p50_ms, tail_ms, runs[0]["outputs"]),
            "setup_s": metrics["setup_s"], "peak_rss_mb": metrics["peak_rss_mb"],
            "error_rate": {"value": runs[0]["failed"] / runs[0]["attempted"], "unit": "ratio"}}
        detail["tail"] = {"percentile": percentile, "samples": len(scaled_ms)}
        detail["setup_samples"] = len(setup)
        detail["wall"] = {"unit_ms_p50": statistics.median(wall_ms),
                          "unit_ms_tail": tail(wall_ms)[0],
                          "setup_s": statistics.median(w for w, _ in setup)}
    else:
        with spans.Tracer() as setup_tracer:
            wl.setup()
        plain = measure(wl, state, seconds / 2, clock)
        with spans.Tracer() as tracer:
            traced = measure(wl, state, seconds / 2, clock, tracer)
        runs = [plain, traced]
        units = len(traced["scaled"])
        metrics = per_layer_metrics(tracer, setup_tracer, units,
                                    statistics.median(traced["scaled"])
                                    / statistics.median(plain["scaled"]))
        detail["traced_units"] = units
        detail["counts"] = tracer.counts(units)
        detail["digests"] = wl.digests(traced["outputs"])
        dump = os.path.join(OUT_DIR, f"trace-{wl.name}-seed{seed}.json")
        tracer.dump(dump, workload=wl.name, seed=seed, units=units)
        detail["trace_file"] = os.path.relpath(dump, ROOT)
    detail["host_slowdown"] = clock.slowdown()
    checks.update(wl.check(state, [o for r in runs for o in r["outputs"]]))
    detail["checks"] = checks
    result = {"correct": all(checks.values()),
              "attempted": sum(r["attempted"] for r in runs),
              "failed": sum(r["failed"] for r in runs),
              "metrics": metrics}
    return result, detail


def main(argv=None) -> int:
    bootstrap()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
