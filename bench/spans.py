"""Spans around calls into cdclab's public functions, and the per-layer
metrics derived from them.

The tracer replaces each traced function, wherever a cdclab module
holds a reference to it, by a wrapper that records a span: the
function, its start and end, the enclosing span and a few counts
read from its arguments and result.  Calls between cdclab modules go
through module globals, so the spans nest the way the program calls
them, and a layer's self time is its spans' durations minus the time
their child spans cover.  Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict
from typing import Any, Callable

# (module, function, metric that takes its self time).  The cover
# search is split by mode and host below, in ``layer_metrics``.
TRACED = [
    ("cdc", "enumerate_covers", None),
    ("cdc", "validate_cover", "cdc.validate_cover_s"),
    ("cdc", "check_orientability", "cdc.check_orientability_s"),
    ("cdc", "translate_cover", "cdc.translate_s"),
    ("corpus", "select", "corpus.select_s"),
    ("planar_map", "dualize", "planar_map.dualize_s"),
    ("planar_map", "is_3_connected", "planar_map.is_3_connected_s"),
    ("planar_map", "underlying_graph", "planar_map.underlying_graph_s"),
    ("surgery", "complete_truncation", "surgery.complete_truncation_s"),
    ("surgery", "complete_augmentation", "surgery.complete_augmentation_s"),
    ("apollonian", "random_stacks", "apollonian.random_stacks_s"),
    ("apollonian", "generate_apollonian", "apollonian.generate_s"),
    ("apollonian", "is_apollonian", "apollonian.is_apollonian_s"),
    ("apollonian", "separating_triangles", "apollonian.separating_triangles_s"),
    ("apollonian", "check_edge_classification",
     "apollonian.edge_classification_s"),
    ("iso", "map_canonical_code", "iso.map_code_s"),
    ("iso", "verify_square", "iso.verify_square_s"),
    ("iso", "graph_canonical_code", "iso.graph_code_s"),
    ("io_formats", "map_to_json", "io_formats.write_s"),
    ("io_formats", "cover_to_json", "io_formats.write_s"),
    ("io_formats", "report_to_json", "io_formats.write_s"),
    ("io_formats", "dumps", "io_formats.write_s"),
    ("io_formats", "load_path", "io_formats.read_s"),
    ("io_formats", "map_from_json", "io_formats.read_s"),
    ("io_formats", "read_map", "io_formats.read_s"),
    ("io_formats", "read_cover", "io_formats.read_s"),
]

# name -> (unit, better); the order is the order of the output.
PER_LAYER = {
    "cdc.dart_search_s": ("s", "lower"),
    "cdc.dart_nodes": ("count", "lower"),
    "cdc.dart_nodes_per_s": ("1/s", "higher"),
    "cdc.dart_cubic_s": ("s", "lower"),
    "cdc.dart_noncubic_s": ("s", "lower"),
    "cdc.covers_per_knode": ("1/knode", "higher"),
    "cdc.oracle_s": ("s", "lower"),
    "cdc.oracle_nodes": ("count", "lower"),
    "cdc.validate_cover_s": ("s", "lower"),
    "cdc.check_orientability_s": ("s", "lower"),
    "cdc.translate_s": ("s", "lower"),
    "corpus.select_s": ("s", "lower"),
    "planar_map.dualize_s": ("s", "lower"),
    "planar_map.is_3_connected_s": ("s", "lower"),
    "planar_map.underlying_graph_s": ("s", "lower"),
    "surgery.complete_truncation_s": ("s", "lower"),
    "surgery.complete_augmentation_s": ("s", "lower"),
    "apollonian.random_stacks_s": ("s", "lower"),
    "apollonian.generate_s": ("s", "lower"),
    "apollonian.stacks_per_s": ("1/s", "higher"),
    "apollonian.is_apollonian_s": ("s", "lower"),
    "apollonian.separating_triangles_s": ("s", "lower"),
    "apollonian.edge_classification_s": ("s", "lower"),
    "iso.map_code_s": ("s", "lower"),
    "iso.verify_square_s": ("s", "lower"),
    "iso.graph_code_s": ("s", "lower"),
    "io_formats.write_s": ("s", "lower"),
    "io_formats.read_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _enumeration_info(args: tuple, kwargs: dict, result: Any) -> tuple:
    g = args[0] if args else kwargs["g"]
    cubic = all(len(nbrs) == 3 for nbrs in g.adjacency.values())
    return (kwargs.get("orientable_only", True), cubic,
            result.nodes, len(result.covers))


def _stack_count(args: tuple, kwargs: dict, result: Any) -> int:
    stacks = args[0] if args else kwargs["stacks"]
    return stacks if isinstance(stacks, int) else len(stacks)


_INFO: dict[str, Callable[[tuple, dict, Any], Any]] = {
    "enumerate_covers": _enumeration_info,
    "generate_apollonian": _stack_count,
}


class Tracer:
    """Records spans while ``active``; installed once per process.

    A span is ``[function, start, end, parent index, info]``.
    """

    def __init__(self) -> None:
        self.active = False
        self.spans: list[list[Any]] = []
        self._open: list[int] = []
        self._kept = 0
        self._metric: dict[str, str | None] = {}

    def install(self) -> None:
        """Wrap every traced function in every loaded cdclab module
        that holds a reference to it."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "cdclab" or name.startswith("cdclab.")]
        for module, func, metric in TRACED:
            original = getattr(sys.modules[f"cdclab.{module}"], func)
            wrapper = self._wrap(func, original)
            self._metric[func] = metric
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

    def _wrap(self, func: str, original: Callable) -> Callable:
        info = _INFO.get(func)
        spans = self.spans
        opened = self._open

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            index = len(spans)
            span = [func, 0.0, 0.0, opened[-1] if opened else -1, None]
            spans.append(span)
            opened.append(index)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                opened.pop()
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result

        return traced

    def keep(self) -> None:
        """Keep the spans recorded so far (the set-up) in every
        :meth:`take` from now on."""
        self._kept = len(self.spans)

    def take(self) -> dict[str, float]:
        """Per-layer metrics of the kept spans and of those recorded
        since the last call, which are then dropped."""
        metrics = layer_metrics(self.spans, self._metric)
        del self.spans[self._kept:]
        return metrics


def layer_metrics(spans: list[list[Any]],
                  metric_of: dict[str, str | None]) -> dict[str, float]:
    """Self times per layer, and the counts and ratios built on them."""
    covered = [0.0] * len(spans)
    for func, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    stacks = 0
    generate_inclusive = 0.0
    dart_covers = 0
    for (func, start, end, _, info), inner in zip(spans, covered):
        self_s = end - start - inner
        if func == "enumerate_covers":
            if info is None:  # the search raised; it found nothing
                continue
            orientable_only, cubic, nodes, covers = info
            if orientable_only:
                out["cdc.dart_search_s"] += self_s
                out["cdc.dart_cubic_s" if cubic
                    else "cdc.dart_noncubic_s"] += self_s
                out["cdc.dart_nodes"] += nodes
                dart_covers += covers
            else:
                out["cdc.oracle_s"] += self_s
                out["cdc.oracle_nodes"] += nodes
            continue
        out[metric_of[func]] += self_s
        if func == "generate_apollonian":
            stacks += info
            generate_inclusive += end - start
    if out["cdc.dart_search_s"]:
        out["cdc.dart_nodes_per_s"] = \
            out["cdc.dart_nodes"] / out["cdc.dart_search_s"]
    if out["cdc.dart_nodes"]:
        out["cdc.covers_per_knode"] = \
            dart_covers / (out["cdc.dart_nodes"] / 1000)
    if generate_inclusive:
        out["apollonian.stacks_per_s"] = stacks / generate_inclusive
    return {name: out.get(name, 0.0) for name in PER_LAYER
            if name != "trace.overhead_s"}


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(p[name] for p in passes)
            for name in passes[0]}
