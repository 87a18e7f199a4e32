"""Corpus-wide cover census: decide "exactly one cover", compare duals.

Each entry independently decides whether one corpus graph has exactly
one orientable circuit double cover, and checks the uniqueness law:
the count is exactly one precisely when the dual is an Apollonian
network.  A cubic host is decided on its triangle-free core, a
non-cubic one by two checked covers; the dual is recognised apart, by
unstacking.  ``cdc enumerate`` gives full counts.  Entries run
serially; only with more than one worker do they run in a process
pool, and only then is the pool machinery (``concurrent.futures``,
``multiprocessing``) imported.  The merged report is deterministic
(and, with timing stripped, byte-identical) for any worker count.
"""

from __future__ import annotations

import time
from functools import cache
from itertools import repeat
from typing import Any, Sequence

from .apollonian import is_apollonian
from .cdc import (
    DEFAULT_MAX_EDGES,
    CircuitDoubleCover,
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
from .errors import InvalidCover, NotSimpleDual, NotThreeConnected
from .io_formats import report_to_json
from .planar_map import (
    PlanarMap,
    SimpleGraph,
    dualize,
    is_3_connected,
    underlying_graph,
)


@cache
def _k4_result() -> EnumerationResult:
    """K4's search, which decides every cubic host whose core is K4."""
    return enumerate_covers(underlying_graph(k4()), limit=2)


def _certificate(name: str, g: SimpleGraph, m: PlanarMap
                 ) -> tuple[CircuitDoubleCover, CircuitDoubleCover]:
    """The facial and the regrouped cover; raises :class:`InvalidCover`
    naming the entry unless both pass the validators and differ, as
    they do on any 3-connected plane map."""
    covers = (facial_cover(m), _regrouped_cover(m))
    if covers[1] is None or \
            covers[0].canonical_form() == covers[1].canonical_form() or \
            any(not validate_cover(g, c.circuits) or validate_oriented_cover(
                g, c, OrientedCover(c.orientation)) for c in covers):
        raise InvalidCover(f"census entry {name!r}: its two-cover "
                           "certificate fails a check")
    return covers


def census_entry(name: str, max_edges: int = DEFAULT_MAX_EDGES,
                 time_budget: float | None = None) -> dict[str, Any]:
    """Decide whether one corpus entry has exactly one orientable cover,
    and judge it against its dual.

    ``timing.search`` names the route.  ``core``: a cubic host
    contracts its triangles, which keeps the count; a K4 core takes
    K4's one cover, any other core is searched to two covers.
    ``certificate``: a non-cubic host has the facial cover and the
    regrouped one, so at least two; a certificate that fails a check
    raises :class:`InvalidCover` naming the entry.  A search that
    neither finished nor reached two covers, and a graph over the edge
    cap (0 covers, no route), leave the entry undecided: its count is
    a lower bound, its verdict ``incomplete``, and it never counts for
    or against the census.  A map with a dual that is not simple is
    not 3-connected (Whitney), and raises :class:`NotThreeConnected`
    naming the entry; so does a non-cubic map that fails
    :func:`is_3_connected`.  A cubic map needs no further check: a
    simple dual rules out a bridge and a 2-edge cut, and a cubic
    graph's vertex connectivity equals its edge connectivity.
    """
    start = time.monotonic()
    m = select(name)
    g = underlying_graph(m)
    try:
        dual = dualize(m)
    except NotSimpleDual as exc:
        raise NotThreeConnected(
            f"census entry {name!r} is not 3-connected: {exc}") from None
    cubic = all(len(nbrs) == 3 for nbrs in g.adjacency.values())
    if not cubic and not is_3_connected(m):
        raise NotThreeConnected(
            f"census entry {name!r} is not 3-connected: "
            "two of its vertices separate it")
    dual_apollonian = is_apollonian(underlying_graph(dual))
    contractions = 0
    if len(g.edges) > max_edges:
        count, complete, nodes, search = 0, False, 0, None
    elif cubic:
        core, contractions = _contract_triangles(g)
        result = _k4_result() if core.n == 4 else enumerate_covers(
            core, max_edges=max_edges, time_budget=time_budget, limit=2)
        count, complete = len(result.covers), result.complete
        nodes, search = result.nodes, "core"
    else:
        count = len(_certificate(name, g, m))
        complete, nodes, search = False, 0, "certificate"
    if not (complete or count > 1):
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
        "count_is_lower_bound": not complete,
        "complete": complete,
        "dual_apollonian": dual_apollonian,
        "verdict": verdict,
        "timing": {"elapsed": round(time.monotonic() - start, 3),
                   "nodes": nodes, "search": search,
                   "contractions": contractions},
    }


def run_census(
    corpus: Sequence[str] | None = None,
    *,
    max_edges: int = DEFAULT_MAX_EDGES,
    time_budget: float | None = None,
    workers: int = 1,
) -> dict[str, Any]:
    """Run the census over ``corpus`` (default corpus when omitted).

    The verdict is "pass" when every decided entry satisfies the
    uniqueness law, "fail" when any decided entry breaks it.
    ``completed`` counts the decided entries, see :func:`census_entry`.
    A pool of at most one process per entry starts, and its machinery
    is imported, only when more than one worker is asked for.
    """
    names = list(corpus) if corpus is not None else default_census_corpus()
    start = time.monotonic()
    pool_size = max(1, min(workers, len(names)))
    args = (names, repeat(max_edges), repeat(time_budget))
    if pool_size == 1:
        entries = list(map(census_entry, *args))
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            entries = list(pool.map(census_entry, *args))

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
