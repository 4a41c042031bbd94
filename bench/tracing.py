"""Traced mode: spans around the package's public functions, from outside.

`Tracer.install` replaces each listed function by a wrapper everywhere the
package holds a reference to it (its own module and every module that
imported the name), so calls between modules are traced as well.  Spans
(name, start, end, parent) stay in memory; `write` saves them at the end.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict

# (module, attribute path, name used in metrics)
TRACED = (
    ("tcspace.cli", "main", "cli.main"),
    ("tcspace.transport", "tc_norm", "transport.tc_norm"),
    ("tcspace.transport", "improving_cycle", "transport.improving_cycle"),
    ("tcspace.transport", "cancel_cycle", "transport.cancel_cycle"),
    ("tcspace.transport", "maximal_support", "transport.maximal_support"),
    ("tcspace.lp", "ExactLP.solve", "lp.solve"),
    ("tcspace.duality", "supporting_function", "duality.supporting_function"),
    ("tcspace.duality", "is_unique_supporting", "duality.is_unique_supporting"),
    ("tcspace.oracle", "oracle_tc_norm", "oracle.oracle_tc_norm"),
    ("tcspace.randgen", "random_metric_space", "randgen.random_metric_space"),
    ("tcspace.metric", "validate_metric", "metric.validate_metric"),
    ("tcspace.metric", "path_metric", "metric.path_metric"),
    ("tcspace.graph", "canonical_graph", "graph.canonical_graph"),
    ("tcspace.graph", "shortest_path_tree", "graph.shortest_path_tree"),
    ("tcspace.families", "diamond", "families.diamond"),
    ("tcspace.families", "recursive_family", "families.recursive_family"),
    ("tcspace.obstruction", "certify_no_linfty", "obstruction.certify_no_linfty"),
)

# Per-layer metrics reported by the traced run: (span name, field).
LAYER_METRICS = (
    ("transport.improving_cycle", "calls"), ("transport.improving_cycle", "s"),
    ("transport.cancel_cycle", "calls"), ("transport.cancel_cycle", "s"),
    ("transport.tc_norm", "calls"), ("transport.tc_norm", "s"),
    ("transport.tc_norm", "self_s"),
    ("lp.solve", "calls"), ("lp.solve", "s"),
    ("transport.maximal_support", "calls"), ("transport.maximal_support", "s"),
    ("transport.maximal_support", "self_s"),
    ("duality.supporting_function", "calls"), ("duality.supporting_function", "s"),
    ("duality.is_unique_supporting", "s"), ("duality.is_unique_supporting", "self_s"),
    ("oracle.oracle_tc_norm", "calls"), ("oracle.oracle_tc_norm", "s"),
    ("oracle.oracle_tc_norm", "self_s"),
    ("randgen.random_metric_space", "s"),
    ("metric.validate_metric", "calls"), ("metric.validate_metric", "s"),
    ("metric.path_metric", "calls"), ("metric.path_metric", "s"),
    ("graph.canonical_graph", "calls"), ("graph.canonical_graph", "s"),
    ("graph.canonical_graph", "self_s"),
    ("graph.shortest_path_tree", "calls"), ("graph.shortest_path_tree", "s"),
    ("families.diamond", "s"), ("families.recursive_family", "s"),
    ("obstruction.certify_no_linfty", "s"), ("obstruction.certify_no_linfty", "self_s"),
    ("cli.main", "calls"), ("cli.main", "self_s"),
)
UNITS = {"calls": "count", "s": "s", "self_s": "s"}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.peel_levels = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        peel = name == "obstruction.certify_no_linfty"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if peel:
                self.peel_levels += len(result.peeling)
            return result

        return traced

    def install(self) -> None:
        package = [m for n, m in sys.modules.items()
                   if n == "tcspace" or n.startswith("tcspace.")]
        for module_name, attr, name in TRACED:
            owner = sys.modules[module_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self._wrap(name, original)
            targets = [owner] if path else [m for m in package
                                            if getattr(m, leaf, None) is original]
            for target in targets:
                self._undo.append((target, leaf, original))
                setattr(target, leaf, wrapper)

    def uninstall(self) -> None:
        for target, leaf, original in reversed(self._undo):
            setattr(target, leaf, original)
        self._undo.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def summarize(spans, start: int, end: int) -> dict[str, dict[str, float]]:
    """Calls, total and self seconds per span name over spans[start:end]."""
    child_time = defaultdict(float)
    for span in spans[start:end]:
        _, s, e, parent = span
        if parent >= start:
            child_time[parent] += e - s
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for idx in range(start, end):
        name, s, e, _ = spans[idx]
        row = out[name]
        row["calls"] += 1
        row["s"] += e - s
        row["self_s"] += e - s - child_time[idx]
    return out


def layer_metrics(rounds: list[dict], peel_levels: list[int]) -> dict:
    """Per-layer metrics of one round: counts from the first round (they
    repeat exactly), times as medians over rounds."""
    metrics = {}
    for name, fld in LAYER_METRICS:
        values = [r.get(name, {}).get(fld, 0) for r in rounds]
        value = values[0] if fld == "calls" else statistics.median(values)
        metrics[f"{name}.{fld}"] = {"value": value, "unit": UNITS[fld]}
    karp = metrics["transport.improving_cycle.calls"]["value"]
    cancels = metrics["transport.cancel_cycle.calls"]["value"]
    metrics["transport.cancels_per_karp"] = {
        "value": cancels / karp if karp else 0.0, "unit": "ratio"}
    metrics["obstruction.peel_levels"] = {"value": peel_levels[0], "unit": "count"}
    return metrics
