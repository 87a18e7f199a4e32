"""Corpus-wide cover census: decide "exactly one cover", compare duals.

Each entry independently searches the orientable circuit double
covers of one corpus graph and checks the uniqueness law: the count is
exactly one precisely when the dual is an Apollonian network.  The
search stops at the second distinct cover, which already decides the
question; ``cdc enumerate`` gives full counts.  Entries run in a
process pool; the merged report is deterministic (and, with timing
stripped, byte-identical) for any worker count.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Sequence

from .apollonian import is_apollonian
from .cdc import DEFAULT_MAX_EDGES, EnumerationResult, enumerate_covers
from .corpus import default_census_corpus, select
from .errors import BadEnvironment, EdgeLimitExceeded
from .io_formats import report_to_json
from .planar_map import dualize, underlying_graph


def census_entry(name: str, max_edges: int = DEFAULT_MAX_EDGES,
                 time_budget: float | None = None) -> dict[str, Any]:
    """Decide whether one corpus entry has exactly one orientable cover,
    and judge it against its dual.

    The search stops at two distinct covers.  An entry is decided when
    the search finished or reached those two covers; any unfinished
    search reports its count as a lower bound.  A graph over the edge
    cap is not searched (0 covers, a lower bound).  Undecided entries
    get an ``incomplete`` verdict and never count for or against the
    census.
    """
    start = time.monotonic()
    m = select(name)
    g = underlying_graph(m)
    try:
        result = enumerate_covers(g, orientable_only=True,
                                  max_edges=max_edges,
                                  time_budget=time_budget, limit=2)
    except EdgeLimitExceeded:
        result = EnumerationResult((), False, True, 0.0, 0)
    dual_apollonian = is_apollonian(underlying_graph(dualize(m)))
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
                   "nodes": result.nodes, "search": result.search},
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
