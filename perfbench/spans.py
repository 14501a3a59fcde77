"""Spans around the public functions of each cheegerlab module, recorded from
outside the program.

``Tracer.install`` wraps each target function and puts the wrapper into
every ``cheegerlab`` module namespace that holds the original, because the
modules import each other's functions by name.  A span records its name, the
job it ran in, its parent span, its start and end, and the work counts taken
at that boundary.  Spans stay in memory until the run ends.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import cheegerlab as cl
from cheegerlab import cli, io
from cheegerlab.graphs import subset_count


@dataclass
class Span:
    name: str
    job: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)


def _file_size(path) -> int:
    return os.stat(path).st_size


def _oracle_sets(args, kwargs, result) -> dict[str, int]:
    g = args[0]
    max_size = args[1] if len(args) > 1 else kwargs["max_size"]
    return {"oracle_sets": subset_count(len(cl.admissible_vertices(g)), max_size)}


def _quadruples(args, kwargs, result) -> dict[str, int]:
    space = args[0]
    n = len(space.points if isinstance(space, cl.FiniteMetricSpace) else space.vertices)
    return {"delta_quadruples": n**4 if result.mode == "exhaustive" else result.sample_count}


def _triples(args, kwargs, result) -> dict[str, int]:
    return {"validate_triples": len(args[0].points) ** 3}


def _eps_checked(args, kwargs, result) -> dict[str, int]:
    return {"eps_checked": result.checked_eps}


def _approx_size(args, kwargs, result) -> dict[str, int]:
    return {"vertices": len(result.graph.vertices), "edges": len(result.graph.edges)}


def _validation(args, kwargs, result) -> dict[str, int]:
    return {"validate_calls": 1, "piece_pairs": math.comb(len(args[0].pieces), 2)}


def _bytes_read(args, kwargs, result) -> dict[str, int]:
    return {"bytes_read": _file_size(args[0])}


def _bytes_written(args, kwargs, result) -> dict[str, int]:
    return {"bytes_written": _file_size(args[0])}


# (owner, attribute, span name or None for a count-only hook, counter)
TARGETS: list[tuple[Any, str, str | None, Callable | None]] = [
    (cli, "main", "cli.main", None),
    *[(io, f"load_{kind}", "io.load", None)
      for kind in ("graph", "metric", "tree", "leveled", "decomposition")],
    *[(io, f"save_{kind}", "io.save", None)
      for kind in ("graph", "metric", "tree", "leveled", "decomposition")],
    (io, "canonical_json_bytes", "io.report", None),
    (io, "sha256_file", "io.hash", _bytes_read),
    (io, "read_json", None, _bytes_read),
    (io, "write_canonical", None, _bytes_written),
    (cl.graphs, "interior_cheeger_bruteforce", "graphs.oracle", _oracle_sets),
    (cl.trees, "tree_cheeger_bounds", "trees.bounds", None),
    (cl.trees, "pseudo_regularity_index", "trees.pseudo_regularity", None),
    (cl.trees, "complementedness_index", "trees.complementedness", None),
    (cl.trees, "end_space", "trees.end_space", None),
    (cl.hyperbolicity, "delta_four_point", "hyperbolicity.delta", _quadruples),
    (cl.metric.FiniteMetricSpace, "__post_init__", "metric.validate", _triples),
    (cl.metric, "uniformly_perfect_check", "metric.perfectness", _eps_checked),
    (cl.metric, "two_point_perfectness_check", "metric.perfectness", _eps_checked),
    (cl.metric, "greedy_separated", "metric.greedy", None),
    (cl.metric, "strongly_bounded_geometry_profile", "metric.profile", None),
    (cl.metric, "epsilon_net", "metric.net", None),
    (cl.approximation, "build_truncated", "approximation.build", _approx_size),
    (cl.approximation, "relevel", "approximation.relevel", None),
    (cl.approximation, "structural_checks", "approximation.structural", None),
    (cl.approximation, "level_certificate", "approximation.level_certificate", None),
    (cl.decomposition, "graft", "decomposition.graft", None),
    (cl.decomposition, "graft_decomposition", "decomposition.graft", None),
    (cl.decomposition, "validate", "decomposition.validate", _validation),
    (cl.decomposition, "decomposition_bound", "decomposition.bound", None),
    (cl.decomposition, "converse_scan", "decomposition.scan", None),
]

# canonical_json_bytes inside a save is serialization of that save, not the report
_NOT_UNDER = {"io.report": "io.save"}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.job = ""
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    def _wrap(self, fn: Callable, name: str | None, counter: Callable | None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            top = spans[stack[-1]] if stack else None
            if name is None or (top is not None and top.name == _NOT_UNDER.get(name)):
                result = fn(*args, **kwargs)
                if counter is not None and top is not None:
                    for key, n in counter(args, kwargs, result).items():
                        top.counts[key] = top.counts.get(key, 0) + n
                return result
            span = Span(name, self.job, stack[-1] if stack else None, time.perf_counter())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                span.counts.update(counter(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in every cheegerlab namespace that holds it."""
        modules = [m for key, m in sys.modules.items()
                   if key == "cheegerlab" or key.startswith("cheegerlab.")]
        for owner, attr, name, counter in TARGETS:
            original = getattr(owner, attr)  # AttributeError: a target was renamed
            wrapper = self._wrap(original, name, counter)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, key, value))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            holder, key, value = self._restore.pop()
            setattr(holder, key, value)

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        out: dict[str, float] = {}
        for i, span in enumerate(self.spans):
            out[span.name] = out.get(span.name, 0.0) + (span.end - span.start) - child[i]
        return out

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for span in self.spans:
            for key, n in span.counts.items():
                out[key] = out.get(key, 0) + n
        return out

    def records(self, origin: float) -> list[dict]:
        return [
            {"name": s.name, "job": s.job, "parent": s.parent,
             "start": s.start - origin, "end": s.end - origin, "counts": s.counts}
            for s in self.spans
        ]


# Per-layer metrics: name -> (unit, better).  Times are summed self times
# over one traced pass of the job mix; counts repeat exactly run to run.
PER_LAYER: dict[str, tuple[str, str]] = {
    "cli.import_s": ("s", "lower"),
    "cli.main_s": ("s", "lower"),
    "io.load_s": ("s", "lower"),
    "io.save_s": ("s", "lower"),
    "io.report_s": ("s", "lower"),
    "io.hash_s": ("s", "lower"),
    "io.bytes_read": ("B", "lower"),
    "io.bytes_written": ("B", "lower"),
    "graphs.oracle_s": ("s", "lower"),
    "graphs.oracle_sets": ("count", "lower"),
    "graphs.oracle_sets_per_s": ("1/s", "higher"),
    "trees.bounds_s": ("s", "lower"),
    "trees.pseudo_regularity_s": ("s", "lower"),
    "trees.complementedness_s": ("s", "lower"),
    "trees.end_space_s": ("s", "lower"),
    "hyperbolicity.delta_s": ("s", "lower"),
    "hyperbolicity.delta_quadruples": ("count", "lower"),
    "hyperbolicity.delta_quadruples_per_s": ("1/s", "higher"),
    "metric.validate_s": ("s", "lower"),
    "metric.validate_triples": ("count", "lower"),
    "metric.perfectness_s": ("s", "lower"),
    "metric.eps_checked": ("count", "lower"),
    "metric.greedy_s": ("s", "lower"),
    "metric.profile_s": ("s", "lower"),
    "metric.net_s": ("s", "lower"),
    "approximation.build_s": ("s", "lower"),
    "approximation.relevel_s": ("s", "lower"),
    "approximation.structural_s": ("s", "lower"),
    "approximation.level_certificate_s": ("s", "lower"),
    "approximation.vertices": ("count", "lower"),
    "approximation.edges": ("count", "lower"),
    "decomposition.graft_s": ("s", "lower"),
    "decomposition.validate_s": ("s", "lower"),
    "decomposition.bound_s": ("s", "lower"),
    "decomposition.scan_s": ("s", "lower"),
    "decomposition.validate_calls": ("count", "lower"),
    "decomposition.piece_pairs": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

_COUNT_LAYER = {
    "bytes_read": "io", "bytes_written": "io", "oracle_sets": "graphs",
    "delta_quadruples": "hyperbolicity", "validate_triples": "metric",
    "eps_checked": "metric", "vertices": "approximation", "edges": "approximation",
    "validate_calls": "decomposition", "piece_pairs": "decomposition",
}


def layer_metrics(tracer: Tracer, import_s: float, overhead_ratio: float) -> dict[str, float]:
    """Every PER_LAYER metric from one traced pass; layers a workload never
    reaches read 0."""
    values: dict[str, float] = {name: 0 for name in PER_LAYER}
    for span, seconds in tracer.self_times().items():
        values[f"{span}_s"] = seconds
    for key, n in tracer.counts().items():
        values[f"{_COUNT_LAYER[key]}.{key}"] = n
    for rate, work, seconds in (
        ("graphs.oracle_sets_per_s", "graphs.oracle_sets", "graphs.oracle_s"),
        ("hyperbolicity.delta_quadruples_per_s", "hyperbolicity.delta_quadruples",
         "hyperbolicity.delta_s"),
    ):
        values[rate] = values[work] / values[seconds] if values[seconds] else 0
    values["cli.import_s"] = import_s
    values["trace.overhead_ratio"] = overhead_ratio
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"spans without a per-layer metric: {sorted(unknown)}")
    return values
