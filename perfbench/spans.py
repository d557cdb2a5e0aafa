"""In-memory span tracer for the benchmark's traced run.

While installed, the tracer replaces public cdgl functions with wrappers
that open a span, call the original and close the span. Each wrapper is put
where the caller looks the name up: functions a module reaches through
another module's attribute (``dc.backward``) are wrapped on that module,
and names a caller imported directly (``cli.load_dataset``,
``model.zscore_columns``) are wrapped in the caller's module. A span is
named after the function's home module, so its time goes to that layer.

Autodiff ops are counted by op name and charged to the innermost open span.
The count hooks ``diffcore._make``, which every public primitive calls
exactly once per call: wrapping the primitives themselves would miss calls
bound earlier, such as the ``activation=dc.tanh`` default of
``cdgin.gin_node_update``.

A span's self time is its duration minus the time its child spans cover.
Spans stay in memory until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict

from cdgl import cdgin, cli, data_io, diffcore, dynamic_fc, fusion_head, model
from cdgl import temporal_encoder, train_eval

WRAPPED = {
    cli: ("main", "load_manifest", "load_dataset"),
    train_eval: ("cross_validate", "run_fold", "train", "evaluate", "prepare_dataset",
                 "make_dims", "predict"),
    data_io: ("load_manifest", "load_dataset", "load_roi_csv", "zscore_columns",
              "stratified_split"),
    model: ("init_params", "prepare_subject", "forward_subject", "subject_loss_parts",
            "zscore_columns"),
    dynamic_fc: ("build_fc_pairs", "extract_windows", "pearson_matrix", "distance_matrix",
                 "binarize_topk"),
    temporal_encoder: ("lstm_forward", "assemble_node_features"),
    cdgin: ("gin_layer", "project", "contrastive_loss"),
    fusion_head: ("channel_attention", "temporal_attention", "apply_attention", "classify",
                  "bce"),
    diffcore: ("backward", "adam_step", "save_params", "load_params", "load_into"),
}

UNIT_SPAN = "bench.unit"


def graph_nodes(loss: diffcore.Tensor) -> int:
    """Nodes that :func:`diffcore.backward` walks for ``loss``: every grad-carrying ancestor."""
    seen: set[int] = set()
    stack = [loss]
    while stack:
        node = stack.pop()
        if not node.requires_grad or id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    return len(seen)


def _count_bytes(tracer, args, result):
    tracer.counters["bytes_read"] += os.path.getsize(args[0])


def _count_backward_nodes(tracer, args, result):
    tracer.counters["backward_nodes"] += graph_nodes(args[0])


def _count_consumed_projections(tracer, args, result):
    tracer.counters["projections_consumed"] += len(args[0]) + len(args[1])


def _note_prepared(tracer, args, result):
    tracer.prepared[tracer.unit].append(args[0].subject_id)


def _count_windows(tracer, args, result):
    tracer.counters["windows"] += len(result)


# Run after the span closes; their cost is charged to no span's self time.
AFTER = {
    "data_io.load_roi_csv": _count_bytes,
    "diffcore.backward": _count_backward_nodes,
    "cdgin.contrastive_loss": _count_consumed_projections,
    "model.prepare_subject": _note_prepared,
    "dynamic_fc.extract_windows": _count_windows,
}


def layer_of(span: str) -> str:
    return span.partition(".")[0]


class Tracer:
    """Spans and op counts of one traced phase; use as a context manager."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, unit, name, start s, end s)
        self.calls = Counter()  # span name -> calls
        self.total_s = Counter()  # span name -> summed duration
        self.self_s = Counter()  # span name -> summed self time
        self.incl_ops = Counter()  # span name -> ops inside it, children included
        self.op_names = defaultdict(Counter)  # layer -> primitive -> ops charged there
        self.counters = Counter()
        self.prepared = defaultdict(list)  # unit -> subject ids prepared, in call order
        self.unit = -1  # index of the open unit; set-up work runs outside any unit
        self._next_id = 0
        self._stack: list[list] = []
        self._restore: list[tuple] = []
        self._t0 = time.perf_counter()

    # ------------------------------------------------------------ install

    def __enter__(self) -> Tracer:
        make = diffcore._make

        def counted_make(out, op, parents, backward):
            if self._stack:
                frame = self._stack[-1]
                frame[5] += 1
                self.op_names[layer_of(frame[2])][op] += 1
            else:
                self.op_names["(no span)"][op] += 1
            return make(out, op, parents, backward)

        self._patch(diffcore, "_make", counted_make)
        for module, names in WRAPPED.items():
            for name in names:
                self._patch(module, name, self.wrap(getattr(module, name)))
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            module, name, original = self._restore.pop()
            setattr(module, name, original)

    def _patch(self, module, name, replacement) -> None:
        self._restore.append((module, name, getattr(module, name)))
        setattr(module, name, replacement)

    def wrap(self, fn, name: str | None = None):
        """``fn`` inside a span named ``<home module>.<function>`` unless ``name`` is given."""
        span = name or f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"
        after = AFTER.get(span)

        def wrapped(*args, **kwargs):
            self._open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if after is not None:
                start = time.perf_counter()
                after(self, args, result)
                if self._stack:  # bookkeeping, not the caller's own time
                    self._stack[-1][4] += time.perf_counter() - start
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def run_unit(self, fn, *args):
        """Call one benchmark unit inside its own root span; its spans share its index."""
        self.unit += 1
        return self.wrap(fn, UNIT_SPAN)(*args)

    # -------------------------------------------------------------- spans

    def _open(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else None
        self._next_id += 1
        # id, parent id, name, start, child seconds, self ops, child ops
        self._stack.append([self._next_id, parent, name, time.perf_counter(), 0.0, 0, 0])

    def _close(self) -> None:
        end = time.perf_counter()
        span_id, parent, name, start, child_s, self_ops, child_ops = self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child_s
        self.incl_ops[name] += self_ops + child_ops
        if self._stack:
            self._stack[-1][4] += duration
            self._stack[-1][6] += self_ops + child_ops
        self.spans.append((span_id, parent, self.unit, name,
                           start - self._t0, end - self._t0))

    # ------------------------------------------------------------ reports

    def layer_metrics(self, units: int) -> dict[str, float]:
        """Per-layer figures, each per unit except the two ratios."""
        self_s = Counter()
        self_ops = Counter()
        for name, seconds in self.self_s.items():
            self_s[layer_of(name)] += seconds
        for layer, ops in self.op_names.items():
            self_ops[layer] = sum(ops.values())

        def ms(seconds: float) -> float:
            return 1e3 * seconds / units

        projected = self.calls["cdgin.project"]
        reuse = [len(set(ids)) / len(ids) for ids in self.prepared.values()]
        return {
            "cdgin.contrastive_ms": ms(self.total_s["cdgin.contrastive_loss"]),
            "cdgin.contrastive_ops": self.incl_ops["cdgin.contrastive_loss"] / units,
            "cdgin.gin_ms": ms(self.total_s["cdgin.gin_layer"]),
            "cdgin.gin_ops": self.incl_ops["cdgin.gin_layer"] / units,
            "cdgin.project_ms": ms(self.total_s["cdgin.project"]),
            "cdgin.project_useful": (self.counters["projections_consumed"] / projected
                                     if projected else 0.0),
            "model.forward_ops": self.incl_ops["model.forward_subject"] / units,
            "model.self_ms": ms(self_s["model"]),
            "model.prepare_calls": self.calls["model.prepare_subject"] / units,
            "model.prepare_reuse": sum(reuse) / len(reuse) if reuse else 0.0,
            "diffcore.backward_ms": ms(self.total_s["diffcore.backward"]),
            "diffcore.backward_nodes": self.counters["backward_nodes"] / units,
            "diffcore.adam_ms": ms(self.total_s["diffcore.adam_step"]),
            "diffcore.ckpt_ms": ms(self.self_s["diffcore.save_params"]
                                   + self.self_s["diffcore.load_params"]
                                   + self.self_s["diffcore.load_into"]),
            "temporal_encoder.self_ms": ms(self_s["temporal_encoder"]),
            "temporal_encoder.ops": self_ops["temporal_encoder"] / units,
            "fusion_head.self_ms": ms(self_s["fusion_head"]),
            "fusion_head.ops": self_ops["fusion_head"] / units,
            "dynamic_fc.windows": self.counters["windows"] / units,
            "dynamic_fc.pearson_ms": ms(self.total_s["dynamic_fc.pearson_matrix"]),
            "dynamic_fc.distance_ms": ms(self.total_s["dynamic_fc.distance_matrix"]),
            "dynamic_fc.binarize_ms": ms(self.total_s["dynamic_fc.binarize_topk"]),
            "data_io.self_ms": ms(self_s["data_io"]),
            "data_io.bytes_read": self.counters["bytes_read"] / units,
            "train_eval.self_ms": ms(self_s["train_eval"]),
            "cli.self_ms": ms(self_s["cli"]),
        }

    def counts(self, units: int) -> dict:
        """The deterministic part of the trace: op and call counts per unit and per call."""
        return {
            "ops_per_unit": {layer: {op: n / units for op, n in sorted(ops.items())}
                             for layer, ops in sorted(self.op_names.items())},
            "calls_per_unit": {name: n / units for name, n in sorted(self.calls.items())},
            "ops_per_call": {name: self.incl_ops[name] / n
                             for name, n in sorted(self.calls.items())},
        }

    def dump(self, path: str, **meta) -> None:
        """Write every span as [id, parent id, unit, name, start s, end s]."""
        with open(path, "w", encoding="utf-8") as f:
            json.dump({**meta, "spans": self.spans}, f)
