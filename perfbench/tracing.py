"""Span tracing of wrlab's layers, installed from outside the program.

``Tracer.install`` wraps the public functions of each traced ``wrlab``
module, plus three methods that carry per-point work, and rebinds every
module attribute that refers to an original function, so a function that
several modules import by name is traced wherever it is called from.  Each
call records one span (name, start, end, parent) in flat arrays kept in
memory; ``per_layer_metrics`` turns them into the benchmark's per-layer
figures, and ``save`` writes them out once the run is over.  The program's
source is not touched.
"""
from __future__ import annotations

import functools
import sys
import time
import types
from array import array
from collections import defaultdict

import numpy as np

from ess import effective_sample_size

TRACED_MODULES = (
    "cli",
    "config",
    "runner",
    "intensity",
    "geometry",
    "percolation",
    "wr_gibbs",
    "random_cluster",
)

# (module, class, attribute, span name): methods whose calls are the work unit
TRACED_METHODS = (
    ("geometry", "Configuration", "__init__", "geometry.Configuration"),
    ("intensity", "EnvironmentRealization", "density_at", "intensity.density_at"),
    ("random_cluster", "IncreasingStatistic", "__call__", "random_cluster.statistic"),
)

# Every per-layer metric, in the order BENCHMARK.json lists it: (name, unit, better).
LAYER_METRICS = (
    ("cli.import_s", "s", "lower"),
    ("config.load_config_s", "s", "lower"),
    ("runner.run_experiment.self_s", "s", "lower"),
    ("runner.output_bytes", "bytes", "lower"),
    ("intensity.realize_environment.self_s", "s", "lower"),
    ("intensity.realize_environment.calls", "count", "lower"),
    ("intensity.segments", "count", "lower"),
    ("intensity.sample_poisson.self_s", "s", "lower"),
    ("intensity.sample_poisson.calls", "count", "lower"),
    ("intensity.sample_poisson.points", "count", "lower"),
    ("intensity.sample_poisson.points_per_s", "1/s", "higher"),
    ("intensity.density_at.self_s", "s", "lower"),
    ("intensity.density_at.calls", "count", "lower"),
    ("geometry.build_components.self_s", "s", "lower"),
    ("geometry.build_components.calls", "count", "lower"),
    ("geometry.build_components.points", "count", "lower"),
    ("geometry.build_components.points_per_s", "1/s", "higher"),
    ("geometry.Configuration.self_s", "s", "lower"),
    ("geometry.Configuration.calls", "count", "lower"),
    ("percolation.estimate_crossing_probability.self_s", "s", "lower"),
    ("percolation.estimate_crossing_probability.calls", "count", "lower"),
    ("percolation.target_percolation_proxy.self_s", "s", "lower"),
    ("percolation.target_percolation_proxy.calls", "count", "lower"),
    ("wr_gibbs.run_wr_chain.self_s", "s", "lower"),
    ("wr_gibbs.run_wr_chain.calls", "count", "lower"),
    ("wr_gibbs.run_wr_chain.moves", "count", "lower"),
    ("wr_gibbs.run_wr_chain.moves_per_s", "1/s", "higher"),
    ("wr_gibbs.accept.birth", "ratio", "higher"),
    ("wr_gibbs.accept.death", "ratio", "higher"),
    ("wr_gibbs.accept.recolor", "ratio", "higher"),
    ("wr_gibbs.ess_per_s", "1/s", "higher"),
    ("random_cluster.run_rc_chain.self_s", "s", "lower"),
    ("random_cluster.run_rc_chain.calls", "count", "lower"),
    ("random_cluster.run_rc_chain.moves", "count", "lower"),
    ("random_cluster.run_rc_chain.moves_per_s", "1/s", "higher"),
    ("random_cluster.accept.birth", "ratio", "higher"),
    ("random_cluster.accept.death", "ratio", "higher"),
    ("random_cluster.ess_per_s", "1/s", "higher"),
    ("random_cluster.estimate_merge_bound.self_s", "s", "lower"),
    ("random_cluster.estimate_merge_bound.calls", "count", "lower"),
    ("random_cluster.statistic.self_s", "s", "lower"),
    ("random_cluster.statistic.calls", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _count_segments(tracer, args, result):
    if result.segments is not None:
        tracer.counts["intensity.segments"] += len(result.segments)


def _count_poisson_points(tracer, args, result):
    tracer.counts["intensity.sample_poisson.points"] += len(result)


def _count_component_points(tracer, args, result):
    tracer.counts["geometry.build_components.points"] += len(args[0])


def _chain_probe(layer):
    def probe(tracer, args, result):
        records, _, info = result
        tracer.counts[f"{layer}.moves"] += sum(info["proposed"].values())
        for move, n in info["proposed"].items():
            tracer.counts[f"{layer}.proposed.{move}"] += n
            tracer.counts[f"{layer}.accepted.{move}"] += info["accepted"][move]
        # the series is the recorded statistic; for recorded configurations
        # (the RC chain in a domination check) it is their point count
        series = [len(r) if hasattr(r, "__len__") else float(r) for r in records]
        tracer.series[layer].append(series)

    return probe


PROBES = {
    "intensity.realize_environment": _count_segments,
    "intensity.sample_poisson": _count_poisson_points,
    "geometry.build_components": _count_component_points,
    "wr_gibbs.run_wr_chain": _chain_probe("wr_gibbs.run_wr_chain"),
    "random_cluster.run_rc_chain": _chain_probe("random_cluster.run_rc_chain"),
}


class Tracer:
    """Flat in-memory span store and the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.series: defaultdict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        probe = PROBES.get(name)
        stack, name_id, parent, start, end = self._stack, self.name_id, self.parent, self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(end)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if probe is not None:
                probe(self, args, result)
            return result

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"wrlab.{short}"]
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and isinstance(obj, types.FunctionType)
                    and obj.__module__ == module.__name__
                ):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for module_name, module in list(sys.modules.items()):
            if module_name != "wrlab" and not module_name.startswith("wrlab."):
                continue
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self._restore.append((module, attr, obj))
        for short, cls_name, attr, name in TRACED_METHODS:
            cls = getattr(sys.modules[f"wrlab.{short}"], cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(name, original))
            self._restore.append((cls, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def aggregate(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        duration = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
        self_time = duration - covered
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=duration, minlength=k)
        own = np.bincount(ids, weights=self_time, minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, import_s: float, output_bytes: int, overhead_s: float) -> dict:
    """Every metric of ``LAYER_METRICS`` from one traced round."""
    spans = tracer.aggregate()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    counts = tracer.counts
    values = {
        "cli.import_s": import_s,
        "config.load_config_s": spans.get("config.load_config", empty)["total_s"],
        "runner.output_bytes": output_bytes,
        "intensity.segments": counts.get("intensity.segments", 0),
        "trace.overhead_s": overhead_s,
    }
    for name, _, _ in LAYER_METRICS:
        layer, _, field = name.rpartition(".")
        if field in ("self_s", "calls"):
            values[name] = spans.get(layer, empty)[field]
    for layer, throughput in (
        ("intensity.sample_poisson", "points"),
        ("geometry.build_components", "points"),
        ("wr_gibbs.run_wr_chain", "moves"),
        ("random_cluster.run_rc_chain", "moves"),
    ):
        amount = counts.get(f"{layer}.{throughput}", 0)
        values[f"{layer}.{throughput}"] = amount
        values[f"{layer}.{throughput}_per_s"] = _ratio(amount, spans.get(layer, empty)["total_s"])
    for module, chain, moves in (
        ("wr_gibbs", "wr_gibbs.run_wr_chain", ("birth", "death", "recolor")),
        ("random_cluster", "random_cluster.run_rc_chain", ("birth", "death")),
    ):
        for move in moves:
            values[f"{module}.accept.{move}"] = _ratio(
                counts.get(f"{chain}.accepted.{move}", 0), counts.get(f"{chain}.proposed.{move}", 0)
            )
        ess = sum(effective_sample_size(series) for series in tracer.series.get(chain, []))
        values[f"{module}.ess_per_s"] = _ratio(ess, spans.get(chain, empty)["total_s"])
    return {name: values[name] for name, _, _ in LAYER_METRICS}
