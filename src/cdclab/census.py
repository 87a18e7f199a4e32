"""Corpus-wide cover census: decide "exactly one cover", compare duals.

Each entry independently decides whether one corpus graph has exactly
one orientable circuit double cover, and checks the uniqueness law:
the count is exactly one precisely when the dual is an Apollonian
network.  A cubic host is decided on its triangle-free core, a
non-cubic one by two checked covers; the dual is recognised apart, by
unstacking.  ``cdc enumerate`` gives full counts.  Entries run in a
process pool; the merged report is deterministic (and, with timing
stripped, byte-identical) for any worker count.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from functools import cache
from typing import Any, Sequence

from .apollonian import is_apollonian
from .cdc import (
    DEFAULT_MAX_EDGES,
    EnumerationResult,
    OrientedCover,
    _contract_triangles,
    _regrouped_cover,
    enumerate_covers,
    facial_cover,
    validate_cover,
    validate_oriented_cover,
)
from .corpus import default_census_corpus, k4, select
from .errors import BadEnvironment, NotSimpleDual, NotThreeConnected
from .io_formats import report_to_json
from .planar_map import PlanarMap, SimpleGraph, dualize, underlying_graph


@cache
def _k4_result() -> EnumerationResult:
    """K4's search, which decides every cubic host whose core is K4."""
    return enumerate_covers(underlying_graph(k4()), limit=2)


def _certificate(g: SimpleGraph, m: PlanarMap) -> EnumerationResult | None:
    """The facial and the regrouped cover, as two covers found, or None
    unless both pass the validators and differ."""
    covers = (facial_cover(m), _regrouped_cover(m))
    if covers[1] is None or \
            covers[0].canonical_form() == covers[1].canonical_form():
        return None
    for c in covers:
        if not validate_cover(g, c.circuits) or validate_oriented_cover(
                g, c, OrientedCover(c.orientation)):
            return None
    return EnumerationResult(covers, False, 0.0, 0, limit_reached=True,
                             search="certificate")


def census_entry(name: str, max_edges: int = DEFAULT_MAX_EDGES,
                 time_budget: float | None = None) -> dict[str, Any]:
    """Decide whether one corpus entry has exactly one orientable cover,
    and judge it against its dual.

    ``timing.search`` names the route.  ``core``: a cubic host
    contracts its triangles, which keeps the count; a K4 core takes
    K4's one cover, any other core is searched to two covers.
    ``certificate``: a non-cubic host has the facial cover and the
    regrouped one, so at least two.  ``transition``: a non-cubic host
    whose certificate fails a check (only outside the law's domain) is
    searched to two covers.  A search that neither finished nor
    reached two covers, and a graph over the edge cap (0 covers, no
    route), leave the entry undecided: its count is a lower bound, its
    verdict ``incomplete``, and it never counts for or against the
    census.  A map with a dual that is not simple is not 3-connected
    (Whitney), and raises :class:`NotThreeConnected` naming the entry.
    """
    start = time.monotonic()
    m = select(name)
    g = underlying_graph(m)
    try:
        dual = dualize(m)
    except NotSimpleDual as exc:
        raise NotThreeConnected(
            f"census entry {name!r} is not 3-connected: {exc}") from None
    dual_apollonian = is_apollonian(underlying_graph(dual))
    contractions = 0
    if len(g.edges) > max_edges:
        result = EnumerationResult((), False, 0.0, 0)
    elif all(len(nbrs) == 3 for nbrs in g.adjacency.values()):
        core, contractions = _contract_triangles(g)
        result = replace(_k4_result() if core.n == 4 else enumerate_covers(
            core, max_edges=max_edges, time_budget=time_budget, limit=2),
            search="core")
    else:
        result = _certificate(g, m) or enumerate_covers(
            g, max_edges=max_edges, time_budget=time_budget, limit=2)
    count = len(result.covers)
    if not (result.complete or result.limit_reached):
        verdict = "incomplete"
    elif (count == 1) == dual_apollonian:
        verdict = "pass"
    else:
        verdict = "fail"
    return {
        "name": name,
        "vertices": g.n,
        "edges": len(g.edges),
        "orientable_covers": count,
        "count_is_lower_bound": not result.complete,
        "complete": result.complete,
        "dual_apollonian": dual_apollonian,
        "verdict": verdict,
        "timing": {"elapsed": round(time.monotonic() - start, 3),
                   "nodes": result.nodes, "search": result.search,
                   "contractions": contractions},
    }


def _entry_args(args: tuple[str, int, float | None]) -> dict[str, Any]:
    return census_entry(*args)


def worker_count(requested: int | None, tasks: int) -> int:
    """Resolve the pool size from the request and CDCLAB_THREADS.

    Raises :class:`BadEnvironment` unless CDCLAB_THREADS, when set, is
    a positive integer.
    """
    count = requested if requested and requested > 0 else (os.cpu_count() or 1)
    cap = os.environ.get("CDCLAB_THREADS")
    if cap:
        try:
            limit = int(cap)
        except ValueError:
            limit = 0
        if limit < 1:
            raise BadEnvironment(
                f"CDCLAB_THREADS must be a positive integer, got {cap!r}")
        count = min(count, limit)
    return max(1, min(count, tasks))


def run_census(
    corpus: Sequence[str] | None = None,
    *,
    max_edges: int = DEFAULT_MAX_EDGES,
    time_budget: float | None = None,
    workers: int | None = None,
) -> dict[str, Any]:
    """Run the census over ``corpus`` (default corpus when omitted).

    The verdict is "pass" when every decided entry satisfies the
    uniqueness law, "fail" when any decided entry breaks it.
    ``completed`` counts the decided entries, see :func:`census_entry`.
    """
    names = list(corpus) if corpus is not None else default_census_corpus()
    start = time.monotonic()
    pool_size = worker_count(workers, len(names))
    args = [(name, max_edges, time_budget) for name in names]
    if pool_size == 1:
        entries = [census_entry(*a) for a in args]
    else:
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            entries = list(pool.map(_entry_args, args))

    failed = [e["name"] for e in entries if e["verdict"] == "fail"]
    incomplete = [e["name"] for e in entries if e["verdict"] == "incomplete"]
    verdict = "fail" if failed else "pass"
    return report_to_json("census", {
        "corpus": names,
        "entries": entries,
        "settings": {"max_edges": max_edges, "time_budget": time_budget},
        "completed": len(entries) - len(incomplete),
        "incomplete": sorted(incomplete),
        "failed": sorted(failed),
        "verdict": verdict,
        "timing": {"elapsed": round(time.monotonic() - start, 3),
                   "workers": pool_size},
    })
