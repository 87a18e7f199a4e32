"""The census's two routes, each against the search it replaced."""

import time
from random import Random

import pytest

from cdclab.apollonian import (
    apollonian_dual,
    generate_apollonian,
    is_apollonian,
    random_stacks,
)
from cdclab.cdc import (
    EnumerationResult,
    OrientedCover,
    _contract_triangles,
    _regrouped_cover,
    enumerate_covers,
    facial_cover,
    require_complete,
    validate_cover,
    validate_oriented_cover,
)
from cdclab import census
from cdclab.census import census_entry
from cdclab.cli import main
from cdclab.corpus import default_census_corpus, prism, select
from cdclab.errors import InvalidCover
from cdclab.io_formats import strip_timing
from cdclab.planar_map import SimpleGraph, dualize, underlying_graph
from cdclab.surgery import complete_augmentation, complete_truncation

STACKED = ["apollonian-dual:0,0,0", "apollonian-dual:1,2,3",
           "apollonian-dual:3,5,7", "apollonian-dual:2,4,1"]
ROUTED = default_census_corpus() + ["k222", "wheel:6", "wheel:7"] + STACKED
TRUNCATED = ["k4", "prism", "cube", "octahedron", "wheel:4", "wheel:5",
             "wheel:6"]


def _searched_entry(name, max_edges):
    """A census entry decided by the transition search on the host, to
    two covers, as the census decided every entry before its routes.
    The edge cap bounds only the search of a core other than K4, so
    the host is searched with no cap, and an entry is left undecided
    only when such a core is over the cap."""
    m = select(name)
    g = underlying_graph(m)
    core = _contract_triangles(g)[0] if _cubic(g) else None
    if core is not None and core.n > 4 and len(core.edges) > max_edges:
        result = EnumerationResult((), False, 0.0, 0)
    else:
        result = enumerate_covers(g, max_edges=len(g.edges), limit=2)
    dual_apollonian = is_apollonian(underlying_graph(dualize(m)))
    count = len(result.covers)
    if not (result.complete or result.limit_reached):
        verdict = "incomplete"
    else:
        verdict = "pass" if (count == 1) == dual_apollonian else "fail"
    return {"name": name, "vertices": g.n, "edges": len(g.edges),
            "orientable_covers": count,
            "count_is_lower_bound": not result.complete,
            "complete": result.complete,
            "dual_apollonian": dual_apollonian, "verdict": verdict}


def _cubic(g):
    return all(len(nbrs) == 3 for nbrs in g.adjacency.values())


def _count(g):
    return len(require_complete(enumerate_covers(g, max_edges=36)).covers)


def _relabel(g, seed):
    perm = list(range(g.n))
    Random(seed).shuffle(perm)
    return SimpleGraph(g.n, frozenset(
        tuple(sorted((perm[u], perm[v]))) for u, v in g.edges))


@pytest.mark.parametrize("max_edges", [16, 6, 0])
def test_routes_match_the_search(max_edges):
    routes = set()
    for name in ROUTED:
        entry = census_entry(name, max_edges=max_edges)
        assert strip_timing(entry) == _searched_entry(name, max_edges), name
        routes.add(entry["timing"]["search"])
    # only the cube's core (12 edges) is searched and over a cap
    want = {"core", "certificate"} if max_edges == 16 else \
        {"core", "certificate", None}
    assert routes == want


def test_search_free_routes_decide_large_hosts_at_the_default_cap():
    # a 1,000-stack dual (3,006 edges) has a K4 core, and wheel:2000
    # (4,000 edges) is decided by its certificate: neither is searched
    dual = "apollonian-dual:" + ",".join(map(str, random_stacks(1000, 0)))
    entry = census_entry(dual)
    assert (entry["edges"], entry["verdict"], entry["orientable_covers"],
            entry["complete"]) == (3006, "pass", 1, True)
    assert (entry["timing"]["search"],
            entry["timing"]["contractions"]) == ("core", 1000)
    entry = census_entry("wheel:2000")
    assert (entry["edges"], entry["verdict"], entry["timing"]["search"]) \
        == (4000, "pass", "certificate")


@pytest.mark.parametrize("stand_in", [lambda m: None, facial_cover],
                         ids=["no-certificate", "facial-again"])
def test_a_failed_certificate_fails_the_entry(monkeypatch, capsys, stand_in):
    monkeypatch.setattr(census, "_regrouped_cover", stand_in)
    with pytest.raises(InvalidCover, match="census entry 'wheel:4': "):
        census_entry("wheel:4")
    code = main(["census", "--corpus", "k4", "wheel:4"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ("failed: census entry 'wheel:4': its two-cover "
                            "certificate fails a check\n")
    assert captured.out == ""


def _truncations():
    return [(f"{name}^t", complete_truncation(select(name))[0])
            for name in TRUNCATED]


def test_core_is_k4_exactly_on_apollonian_duals():
    hosts = [(name, select(name)) for name in default_census_corpus()]
    hosts += [(f"{k}-stack dual, seed {s}", apollonian_dual(k, seed=s))
              for k in (5, 20, 100) for s in range(20)]
    hosts += _truncations()
    for name, m in hosts:
        g = underlying_graph(m)
        dual_apollonian = is_apollonian(underlying_graph(dualize(m)))
        if not _cubic(g):
            # the dual of a non-cubic host is not a triangulation
            assert not dual_apollonian, name
            continue
        core, contractions = _contract_triangles(g)
        assert _cubic(core), name
        assert core.n == g.n - 2 * contractions, name
        assert (core.n == 4) == dual_apollonian, name
    cores = {name: _contract_triangles(underlying_graph(m))[0].n
             for name, m in _truncations()}
    assert cores == {"k4^t": 4, "prism^t": 4, "cube^t": 8,
                     "octahedron^t": 24, "wheel:4^t": 8, "wheel:5^t": 10,
                     "wheel:6^t": 12}


def test_a_thousand_stack_dual_contracts_fast():
    g = underlying_graph(apollonian_dual(1000, seed=0))
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        core, contractions = _contract_triangles(g)
        best = min(best, time.perf_counter() - start)
    assert (core.n, contractions) == (4, 1000)
    assert best < 0.05


def test_contraction_keeps_the_count():
    hosts = [(name, underlying_graph(m)) for name, m in _truncations()]
    hosts += [(name, underlying_graph(select(name)))
              for name in default_census_corpus()]
    hosts += [(f"{k}-stack dual, seed {s}",
               underlying_graph(apollonian_dual(k, seed=s)))
              for k in range(1, 5) for s in range(5)]
    counts = {}
    for name, g in hosts:
        if not _cubic(g):
            continue
        core, contractions = _contract_triangles(g)
        if contractions == 0:
            # nothing contracted: the core is the host itself
            assert core == g, name
            continue
        counts[name] = _count(g)
        assert counts[name] == _count(core), name
    assert {name: counts[name] for name in
            ("k4^t", "prism^t", "cube^t", "wheel:4^t", "wheel:5^t",
             "wheel:6^t")} == {"k4^t": 1, "prism^t": 1, "cube^t": 8,
                               "wheel:4^t": 8, "wheel:5^t": 11,
                               "wheel:6^t": 42}


def test_core_is_label_independent():
    hosts = [(name, underlying_graph(m)) for name, m in _truncations()]
    hosts += [(f"dual {k}, seed {s}",
               underlying_graph(apollonian_dual(k, seed=s)))
              for k in (3, 20) for s in range(3)]
    for name, g in hosts:
        core, contractions = _contract_triangles(g)
        for seed in range(3):
            other, again = _contract_triangles(_relabel(g, seed))
            assert (other.n, len(other.edges), again) == \
                (core.n, len(core.edges), contractions), name


def _checked(g, cover):
    assert validate_cover(g, cover.circuits)
    assert validate_oriented_cover(
        g, cover, OrientedCover(cover.orientation)) == []


def _surgery_hosts():
    names = ["k4", "prism", "cube", "octahedron", "wheel:4", "wheel:5"]
    return [(name, select(name)) for name in names] + \
        [(f"prism{n}", prism(n)) for n in (5, 7)]


def _non_cubic_hosts(family):
    """3-connected non-cubic plane maps, the law's non-cubic domain."""
    if isinstance(family, int):
        return [(f"{family} stacks, seed {s}", generate_apollonian(
            family, seed=s)) for s in range(3)]
    if family == "wheels":
        return [(f"wheel:{n}", select(f"wheel:{n}")) for n in range(4, 61)]
    if family == "bipyramids":
        return [(f"prism{n}*", dualize(prism(n))) for n in range(3, 30)]
    if family == "augmentations":
        return [(f"{name}^a", complete_augmentation(m)[0])
                for name, m in _surgery_hosts()]
    # complete truncations are cubic, so their duals are triangulations
    return [(f"{name}^t*", dualize(complete_truncation(m)[0]))
            for name, m in _surgery_hosts()]


@pytest.mark.parametrize("family", [3, 10, 50, 200, "wheels", "bipyramids",
                                    "augmentations", "truncation-duals"])
def test_certificate_is_a_second_orientable_cover(family):
    for name, m in _non_cubic_hosts(family):
        g = underlying_graph(m)
        assert not _cubic(g), name
        cover = _regrouped_cover(m)
        _checked(g, cover)
        facial = facial_cover(m)
        assert cover.canonical_form() != facial.canonical_form(), name
        assert cover.k == facial.k - 1, name
        assert len(census._certificate(name, g, m)) == 2, name


def test_certificate_is_among_the_searched_covers():
    forms_by_edges = {}
    for name in ("wheel:4", "wheel:5", "wheel:6", "wheel:7", "wheel:8",
                 "octahedron", "k222", "apollonian:0", "apollonian:0,1"):
        m = select(name)
        g = underlying_graph(m)
        if g.edges not in forms_by_edges:
            full = require_complete(enumerate_covers(g))
            forms_by_edges[g.edges] = {c.canonical_form() for c in full.covers}
        cover = _regrouped_cover(m)
        _checked(g, cover)
        assert cover.canonical_form() in forms_by_edges[g.edges], name


def test_cubic_maps_have_no_certificate():
    assert _regrouped_cover(select("cube")) is None
