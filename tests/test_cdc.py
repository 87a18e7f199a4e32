"""Cover validation, enumeration, orientability, genus, translation."""

import hashlib
import re
import time
from collections import Counter, deque
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdclab import cdc
from cdclab.apollonian import (
    apollonian_dual,
    generate_apollonian,
    random_stacks,
)
from cdclab.cdc import (
    _Deadline,
    _enumerate_all,
    _enumerate_transitions,
    _facts,
    _orientation,
    CircuitDoubleCover,
    CircuitReport,
    CoverReport,
    OrientedCover,
    check_orientability,
    enumerate_covers,
    facial_cover,
    genus,
    require_complete,
    translate_cover,
    validate_circuit,
    validate_cover,
    validate_oriented_cover,
)
from cdclab.corpus import (
    cube,
    default_census_corpus,
    k4,
    octahedron,
    prism,
    select,
    wheel,
)
from cdclab.errors import (
    CorrespondenceMismatch,
    EdgeLimitExceeded,
    InvalidCover,
    OddCharacteristic,
    TimeBudgetExceeded,
    UnknownEdge,
)
from cdclab.planar_map import SimpleGraph, normalize_edge, underlying_graph
from cdclab.surgery import (
    complete_augmentation,
    complete_truncation,
    truncate_vertex,
)

from conftest import clear_memos, corpus_maps

K4_HAMILTONIANS = [
    [(0, 1), (1, 2), (2, 3), (0, 3)],
    [(0, 1), (1, 3), (2, 3), (0, 2)],
    [(0, 2), (1, 2), (1, 3), (0, 3)],
]


def _k222_walk_cover(m):
    """The four 6-edge circuits given as closed walks on labels 1..6."""
    lab = {l: i for i, l in enumerate(m.labels)}
    walks = [(1, 2, 3, 1, 4, 5), (1, 2, 5, 1, 3, 4),
             (6, 2, 3, 6, 4, 5), (6, 2, 5, 6, 3, 4)]
    circuits = []
    for w in walks:
        circuits.append([(lab[w[i]], lab[w[(i + 1) % len(w)]])
                         for i in range(len(w))])
    return CircuitDoubleCover.build(circuits)


def _relabel(g, seed):
    """A seeded random relabelling of ``g``, and the permutation."""
    perm = list(range(g.n))
    Random(seed).shuffle(perm)
    return SimpleGraph(g.n, frozenset(
        normalize_edge(perm[u], perm[v]) for u, v in g.edges)), perm


def test_triangle_is_a_cycle():
    g = underlying_graph(k4())
    rep = validate_circuit(g, [(0, 1), (1, 2), (0, 2)])
    assert rep.valid and rep.is_cycle


def test_bowtie_is_a_circuit_but_not_a_cycle():
    # two octahedron faces meeting at one vertex
    m = octahedron()
    g = underlying_graph(m)
    faces = m.faces
    pairs = [(a, b) for a in faces for b in faces if a.index < b.index
             and len(set(a.boundary) & set(b.boundary)) == 1]
    a, b = pairs[0]
    edges = [(m.vertex_of[d], m.vertex_of[d ^ 1]) for d in a.darts + b.darts]
    rep = validate_circuit(g, edges)
    assert rep.valid and not rep.is_cycle


def test_disconnected_even_set_is_not_a_circuit():
    m = octahedron()
    g = underlying_graph(m)
    faces = m.faces
    a, b = next((x, y) for x in faces for y in faces
                if not set(x.boundary) & set(y.boundary))
    edges = [(m.vertex_of[d], m.vertex_of[d ^ 1]) for d in a.darts + b.darts]
    rep = validate_circuit(g, edges)
    assert not rep.valid
    assert any("connected" in p for p in rep.problems)


def test_odd_degree_is_reported():
    g = underlying_graph(k4())
    rep = validate_circuit(g, [(0, 1), (1, 2)])
    assert not rep.valid
    assert any("odd degree" in p for p in rep.problems)


def test_unknown_edge_raises():
    g = underlying_graph(k4())
    with pytest.raises(UnknownEdge):
        validate_circuit(g, [(0, 9)])


def test_empty_circuit_is_invalid():
    g = underlying_graph(k4())
    assert not validate_circuit(g, [])


@pytest.mark.parametrize("name,m", corpus_maps())
def test_facial_cover_is_a_valid_oriented_cycle_cover(name, m):
    g = underlying_graph(m)
    cover = facial_cover(m)
    rep = validate_cover(g, cover.circuits)
    assert rep.valid and rep.is_cycle_cover, name
    assert cover.orientation is not None
    assert validate_oriented_cover(
        g, cover, OrientedCover(cover.orientation)) == [], name
    # V - E + F = 2 becomes genus 0 through the cover bookkeeping
    assert genus(g, cover).genus == 0, name


def test_cover_multiplicity_diagnostics():
    g = underlying_graph(k4())
    triangles = [c for c in facial_cover(k4()).circuits]
    rep = validate_cover(g, triangles[:3])
    assert not rep.valid
    assert any("covered 1" in p for p in rep.problems)


def test_k4_has_exactly_one_orientable_cover():
    g = underlying_graph(k4())
    result = require_complete(enumerate_covers(g))
    assert len(result.covers) == 1
    assert result.covers[0].canonical_form() == \
        facial_cover(k4()).canonical_form()


def test_k4_all_covers_is_facial_plus_hamiltonians():
    g = underlying_graph(k4())
    result = enumerate_covers(g, orientable_only=False)
    forms = {c.canonical_form() for c in result.covers}
    assert len(forms) == 2
    assert CircuitDoubleCover.build(K4_HAMILTONIANS).canonical_form() in forms
    assert facial_cover(k4()).canonical_form() in forms


def test_k4_three_hamiltonians_are_refused():
    g = underlying_graph(k4())
    cover = CircuitDoubleCover.build(K4_HAMILTONIANS)
    assert validate_cover(g, cover.circuits).valid
    assert check_orientability(g, cover) is None
    with pytest.raises(OddCharacteristic):
        genus(g, cover)


def test_invalid_cover_is_rejected_by_orientability():
    g = underlying_graph(k4())
    with pytest.raises(InvalidCover):
        check_orientability(g, [[(0, 1), (1, 2), (0, 2)]])


def test_k222_walk_cover():
    m = octahedron()
    g = underlying_graph(m)
    cover = _k222_walk_cover(m)
    rep = validate_cover(g, cover.circuits)
    assert rep.valid
    assert not rep.is_cycle_cover
    assert all(not r.is_cycle for r in rep.circuits)
    witness = check_orientability(g, cover)
    assert witness is not None
    assert validate_oriented_cover(g, cover, witness) == []
    gr = genus(g, cover)
    assert gr.chi == -2
    assert gr.genus == 2


@pytest.mark.parametrize("name,m", [c for c in corpus_maps()
                                    if c[0] in ("k4", "prism", "wheel:4",
                                                "wheel:5")])
def test_enumerators_agree_on_small_graphs(name, m):
    g = underlying_graph(m)
    direct = require_complete(enumerate_covers(g, orientable_only=True))
    oracle = require_complete(enumerate_covers(g, orientable_only=False))
    assert {c.canonical_form() for c in direct.covers} == \
        {c.canonical_form() for c in oracle.covers
         if c.orientation is not None}, name


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", ["k4", "prism", "cube", "wheel:4",
                                  "wheel:5", "k4^t"])
def test_dart_search_is_label_independent(name, seed):
    # the vertex order and the reversal cut both depend on the labels;
    # the cover set must not
    if name == "k4^t":
        g = underlying_graph(complete_truncation(k4())[0])
    else:
        g = underlying_graph(select(name))
    g2, perm = _relabel(g, seed)
    base = require_complete(enumerate_covers(g, max_edges=18)).covers
    moved = require_complete(enumerate_covers(g2, max_edges=18)).covers
    forms = {c.canonical_form() for c in moved}
    assert forms == {CircuitDoubleCover.build(
        [[(perm[u], perm[v]) for u, v in c] for c in cover.circuits]
    ).canonical_form() for cover in base}
    for cover in moved:
        assert validate_oriented_cover(
            g2, cover, OrientedCover(cover.orientation)) == []
    if len(g.edges) <= 10:
        oracle = require_complete(enumerate_covers(g2, orientable_only=False))
        assert forms == {c.canonical_form()
                         for c in oracle.orientable_covers}


def test_transition_search_node_counts():
    # node counts are deterministic; the dart search this replaced took
    # 84,973 nodes on wheel:6 and 20,790 on K4^t in sorted edge order
    # without its reversal cut
    wheel6 = enumerate_covers(underlying_graph(wheel(6)))
    k4t = enumerate_covers(underlying_graph(complete_truncation(k4())[0]),
                           max_edges=18)
    assert wheel6.complete and len(wheel6.covers) == 250
    assert wheel6.search == "transition"
    assert k4t.complete and len(k4t.covers) == 1
    assert wheel6.nodes <= 84_973 // 4
    assert k4t.nodes <= 20_790 // 4


def _host(name):
    head, _, arg = name.partition(":")
    if head == "prism":
        return underlying_graph(prism(int(arg)))
    if head == "dual":
        return underlying_graph(apollonian_dual(random_stacks(4, int(arg))))
    if name.endswith("^t"):
        return underlying_graph(complete_truncation(select(name[:-2]))[0])
    return underlying_graph(select(name))


# per host, a SHA-256 (first 20 hex digits) of its canonical cover sets
# under the identity and two seeded relabellings, as found by the
# rotation search (cubic hosts) and the dart search (the others) that
# the transition search replaced; prism:n is the n-gonal prism (prism:4
# is the cube), dual:s the dual of the seed-s 4-stack Apollonian network
CROSS_CHECK_GOLDEN = {
    "k4": "c568f75f4abec30b9521",
    "prism:3": "4d2a4aee8260494b438a",
    "prism:4": "9c55d821e373447669f3",
    "prism:5": "19d6962b8a7293b3ba4c",
    "prism:6": "35e9c4d0e22b554cb7a0",
    "prism:7": "67ccc200b2b2b3be51fd",
    "k4^t": "57d1f5e765b479a747e5",
    "prism^t": "14a131ef765584726f14",
    "dual:0": "dbffef08db772fe74717",
    "dual:1": "dea8c12c5dc0e4e52493",
    "dual:2": "5a4fa734dca4121e9b00",
    "dual:3": "1b511d09fdf8c728d60c",
    "dual:4": "e486fdf3cb83ce8f5386",
    "dual:5": "bcdf6516426ee731eddb",
    "wheel:4": "1bb5a41d198c2dd2560b",
    "wheel:5": "281bf6252d2db76fd90b",
    "wheel:6": "f1e6c7d0758a78036d94",
    "wheel:7": "89408b463feb70546c4f",
    "octahedron": "0bba984916960ef2a2f8",
}
# the oracle takes seconds here, so it checks the unrelabelled host only
ORACLE_UNRELABELLED = {"prism^t", "octahedron"}


@pytest.mark.parametrize("name", list(CROSS_CHECK_GOLDEN))
def test_rotation_search_matches_dart_search(name):
    # the transition search against the cover sets of the two searches
    # it replaced, and against the slot oracle's orientable covers
    g = _host(name)
    sha = hashlib.sha256()
    for seed in (None, 0, 1):
        g2 = g if seed is None else _relabel(g, seed)[0]
        full = require_complete(enumerate_covers(g2, max_edges=27))
        assert full.search == "transition"
        forms = [c.canonical_form() for c in full.covers]
        for form in forms:
            sha.update(f"{form}\n".encode())
        sha.update(b"--\n")
        if seed is None or name not in ORACLE_UNRELABELLED:
            oracle = require_complete(
                enumerate_covers(g2, orientable_only=False, max_edges=27))
            assert forms == [c.canonical_form()
                             for c in oracle.orientable_covers], name
        for cover in full.covers:
            assert validate_oriented_cover(
                g2, cover, OrientedCover(cover.orientation)) == [], name
        # the census's early exit agrees with the full search
        found = enumerate_covers(g2, max_edges=27, limit=2)
        assert len(found.covers) == min(2, len(forms))
        assert {c.canonical_form() for c in found.covers} <= set(forms)
        assert found.limit_reached == (len(forms) >= 2)
    assert sha.hexdigest()[:20] == CROSS_CHECK_GOLDEN[name]


# every transition cover of each host, in result order, with its
# circuits in cover order and its parts aligned with them, as
# `CircuitDoubleCover.build` made them from the search's walks; c5 is
# the 5-cycle, whose one cover holds one circuit twice
TRANSITION_HOSTS = ["wheel:4", "wheel:5", "wheel:6", "wheel:7",
                    "octahedron", "prism^t", "c5"]
TRANSITION_GOLDEN = \
    "11e542c8b50439626ce7d6379749f1af85ea73a67d9072048690a82d2c09c7c2"
# `validate_cover` reports and `check_orientability` witnesses on every
# wheel:7 transition cover, in result order
WHEEL7_CHECK_GOLDEN = \
    "7d41fc85d6bb582945b62608b12300f1124e92529be0004dba1f2a491bdba003"


def _cycle(n):
    return SimpleGraph(n, frozenset(normalize_edge(i, (i + 1) % n)
                                    for i in range(n)))


def _rows(parts):
    return tuple(tuple(sorted(p)) for p in parts)


def test_transition_covers_match_golden_digest():
    sha = hashlib.sha256()
    for name in TRANSITION_HOSTS:
        g = _cycle(5) if name == "c5" else _host(name)
        result = require_complete(enumerate_covers(g, max_edges=27))
        sha.update(f"{name}\n".encode())
        for cover in result.covers:
            sha.update(f"{_rows(cover.circuits)} "
                       f"{_rows(cover.orientation)}\n".encode())
    (cover,) = result.covers            # c5: the cycle walked both ways
    forward, backward = cover.orientation
    assert cover.circuits == (g.edges, g.edges)
    assert backward == {(v, u) for u, v in forward}
    assert sha.hexdigest() == TRANSITION_GOLDEN


def test_wheel7_checks_match_golden_digest():
    g = _host("wheel:7")
    covers = require_complete(enumerate_covers(g)).covers
    assert len(covers) == 1751
    sha = hashlib.sha256()
    for cover in covers:
        report = validate_cover(g, cover.circuits)
        witness = check_orientability(g, cover)
        sha.update(f"{report} {_rows(witness.parts)}\n".encode())
    assert sha.hexdigest() == WHEEL7_CHECK_GOLDEN


@pytest.mark.parametrize("name,distinct", [("wheel:7", 127),
                                           ("octahedron", 123)])
def test_transition_search_builds_each_circuit_once(name, distinct):
    # one search shares one object per distinct circuit and per
    # distinct arc set among all the covers it yields
    covers = require_complete(enumerate_covers(_host(name))).covers
    circuits = [c for cover in covers for c in cover.circuits]
    arcs = [p for cover in covers for p in cover.orientation]
    assert len(set(circuits)) == len({id(c) for c in circuits}) == distinct
    assert len(set(arcs)) == len({id(p) for p in arcs}) < len(arcs)


def test_transition_search_node_counts_on_cubic_hosts():
    # the dart search took 73,786 nodes on prism^t and 13,220,465 on
    # cube^t; a chain check that looks forwards only takes 1.7 million
    # on the 20-stack dual.  On cubic hosts the transition search counts
    # the nodes of the rotation search it replaced: 137, 950 and 9,542
    prism_t = enumerate_covers(
        underlying_graph(complete_truncation(prism())[0]), max_edges=27)
    cube_t = enumerate_covers(
        underlying_graph(complete_truncation(cube())[0]), max_edges=36)
    dual = enumerate_covers(
        underlying_graph(apollonian_dual(random_stacks(20, 0))),
        max_edges=66)
    assert prism_t.complete and len(prism_t.covers) == 1
    assert cube_t.complete and len(cube_t.covers) == 8
    assert dual.complete and len(dual.covers) == 1
    assert prism_t.nodes <= 1_000
    assert cube_t.nodes <= 10_000
    assert dual.nodes <= 20_000


def test_transition_search_does_not_recurse():
    # prism(600) has 1,200 vertices, far past the recursion limit in
    # depth; wheel(300) has 300 passages at the hub, inside which the
    # deadline must still be polled
    for g, seconds in ((underlying_graph(prism(600)), 3),
                       (underlying_graph(wheel(300)), 2)):
        start = time.monotonic()
        result = enumerate_covers(g, max_edges=10**4, time_budget=1.0)
        assert time.monotonic() - start < seconds
        assert result.search == "transition"
        assert not result.complete and not result.limit_reached
        assert result.covers


def test_orientation_must_align_with_circuits():
    triangles = [list(c) for c in facial_cover(k4()).circuits]
    with pytest.raises(InvalidCover, match="1 orientation parts"):
        CircuitDoubleCover.build(triangles[:2], [[(0, 1), (1, 2), (2, 0)]])


def test_enumeration_is_deterministic():
    g = underlying_graph(wheel(4))
    r1 = enumerate_covers(g)
    r2 = enumerate_covers(g)
    assert [c.canonical_form() for c in r1.covers] == \
        [c.canonical_form() for c in r2.covers]


def test_every_enumerated_witness_validates():
    m = wheel(4)
    g = underlying_graph(m)
    for cover in enumerate_covers(g).covers:
        assert cover.orientation is not None
        assert validate_oriented_cover(
            g, cover, OrientedCover(cover.orientation)) == []


def test_cubic_hosts_have_even_characteristic():
    # on cubic hosts every circuit is a cycle, the glued complex is a
    # closed surface, and chi is even; non-cubic hosts can pinch
    for name, m in corpus_maps():
        g = underlying_graph(m)
        if len(g.edges) > 12 or any(g.degree(v) != 3 for v in range(g.n)):
            continue
        covers = enumerate_covers(g).covers
        assert covers
        for cover in covers:
            assert (g.n - len(g.edges) + cover.k) % 2 == 0


def test_pinched_cover_has_odd_characteristic():
    # a circuit may run through a vertex twice; orienting the cover
    # then pinches the glued complex at that vertex and chi can be
    # odd.  smallest corpus example: wheel:4, hub revisited by a
    # six-edge circuit
    pinched = CircuitDoubleCover.build([
        [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)],
        [(0, 1), (0, 4), (1, 4)],
        [(0, 2), (0, 3), (2, 3)],
        [(1, 2), (1, 4), (2, 3), (3, 4)],
    ])
    g = underlying_graph(wheel(4))
    assert validate_cover(g, pinched.circuits).valid
    witness = check_orientability(g, pinched)
    assert witness is not None
    assert validate_oriented_cover(g, pinched, witness) == []
    assert (g.n - len(g.edges) + pinched.k) % 2 == 1
    with pytest.raises(OddCharacteristic):
        genus(g, pinched)
    # the enumerator returns it too
    found = {c.canonical_form() for c in enumerate_covers(g).covers}
    assert pinched.canonical_form() in found


def test_edge_limit_guard():
    out, _ = complete_truncation(k4())
    g = underlying_graph(out)
    with pytest.raises(EdgeLimitExceeded):
        enumerate_covers(g)
    result = enumerate_covers(g, max_edges=18)
    assert result.complete
    assert len(result.covers) == 1


def test_time_budget_flags_partial_results():
    g = underlying_graph(octahedron())
    result = enumerate_covers(g, time_budget=0.02)
    assert not result.complete
    with pytest.raises(TimeBudgetExceeded):
        require_complete(result)


def test_cover_limit_agrees_with_full_search():
    # the census's early exit against the unlimited search; octahedron
    # and its alias k222 share one graph, so one full search serves both
    names = default_census_corpus() + ["octahedron", "k222", "wheel:6",
                                       "cube"]
    exact_by_edges = {}
    for name in names:
        g = underlying_graph(select(name))
        if g.edges not in exact_by_edges:
            full = require_complete(enumerate_covers(g))
            exact_by_edges[g.edges] = {c.canonical_form()
                                       for c in full.covers}
        exact = exact_by_edges[g.edges]
        found = enumerate_covers(g, limit=2)
        forms = {c.canonical_form() for c in found.covers}
        assert len(forms) == len(found.covers) == min(2, len(exact)), name
        assert forms <= exact, name
        # no host here has exactly two covers, so stopping at the
        # limit means the full count is above two
        assert found.limit_reached == (len(exact) > 2), name
        assert found.complete is not found.limit_reached, name
    # the oracle stops the same way; K4 has exactly two covers in all,
    # and the search stops at the second without knowing there is no third
    for m in (k4(), wheel(4)):
        g = underlying_graph(m)
        full = {c.canonical_form()
                for c in enumerate_covers(g, orientable_only=False).covers}
        found = enumerate_covers(g, orientable_only=False, limit=2)
        assert len(found.covers) == 2 <= len(full)
        assert found.limit_reached and not found.complete
        assert {c.canonical_form() for c in found.covers} <= full
    with pytest.raises(TimeBudgetExceeded, match="cover limit"):
        require_complete(enumerate_covers(underlying_graph(cube()), limit=2))
    with pytest.raises(ValueError):
        enumerate_covers(underlying_graph(k4()), limit=0)


def test_translate_facial_cover_of_truncated_k4():
    m = k4()
    out, corr = complete_truncation(m)
    report = translate_cover(facial_cover(out), corr)
    assert report.cover.canonical_form() == \
        facial_cover(m).canonical_form()
    assert len(report.dropped) == 4
    assert all(report.is_cycle)
    assert report.oriented
    g = underlying_graph(m)
    assert validate_oriented_cover(
        g, report.cover, OrientedCover(report.cover.orientation)) == []


def test_translate_facial_cover_of_truncated_cube():
    m = cube()
    out, corr = complete_truncation(m)
    report = translate_cover(facial_cover(out), corr)
    assert report.cover.canonical_form() == \
        facial_cover(m).canonical_form()
    assert len(report.dropped) == m.vertex_count
    assert report.oriented


def test_translate_requires_truncation_correspondence():
    _, aug_corr = complete_augmentation(k4())
    cover = facial_cover(k4())
    with pytest.raises(CorrespondenceMismatch):
        translate_cover(cover, aug_corr)


def test_translate_requires_complete_truncation():
    out, corr = truncate_vertex(k4(), 0)
    with pytest.raises(CorrespondenceMismatch):
        translate_cover(facial_cover(out), corr)


def test_translate_rejects_invalid_cover():
    out, corr = complete_truncation(k4())
    broken = CircuitDoubleCover.build(
        [list(facial_cover(out).circuits[0])])
    with pytest.raises(InvalidCover):
        translate_cover(broken, corr)


def test_genus_of_augmented_facial_covers():
    # complete augmentation triples the edges; the facial cover still
    # describes the sphere
    for host in (k4(), prism(3)):
        out, _ = complete_augmentation(host)
        g = underlying_graph(out)
        assert genus(g, facial_cover(out)).genus == 0


@given(st.sampled_from(["k4", "prism"]))
@settings(max_examples=10, deadline=None)
def test_cubic_orientable_covers_have_genus(name):
    from cdclab.corpus import select
    m = select(name)
    g = underlying_graph(m)
    for cover in enumerate_covers(g).covers:
        gr = genus(g, cover)
        assert gr.chi % 2 == 0
        assert gr.genus >= 0


# -- the slot oracle, orientability and validation, pinned ---------------

ORACLE_HOSTS = ["k4", "prism", "cube", "wheel:4", "wheel:5", "wheel:6",
                "octahedron"]
RELABELLED_HOSTS = ORACLE_HOSTS[:5]
# every oracle cover of every host above, with its witness (None when
# not orientable), as computed by the sorted-order slot search and the
# per-circuit orientation search they replaced; the witness pins the
# orientation rows that `cdc enumerate --all` writes
ORACLE_GOLDEN = \
    "d65593e836ed89d5a32b78acf3d1c421b3557f779b2802fb03d29bb958f8e87c"


def test_oracle_matches_golden_digest():
    sha = hashlib.sha256()
    for name in ORACLE_HOSTS:
        g = underlying_graph(select(name))
        seeds = [None, 0, 1] if name in RELABELLED_HOSTS else [None]
        for seed in seeds:
            host = g if seed is None else _relabel(g, seed)[0]
            result = require_complete(
                enumerate_covers(host, orientable_only=False))
            sha.update(f"{name} {seed}\n".encode())
            for cover in result.covers:
                witness = cover.orientation and tuple(
                    tuple(sorted(part)) for part in cover.orientation)
                sha.update(f"{cover.canonical_form()} {witness}\n".encode())
                if witness:
                    assert validate_oriented_cover(
                        host, cover, OrientedCover(cover.orientation)) == []
    assert sha.hexdigest() == ORACLE_GOLDEN


def _orientable_by_brute_force(cover):
    """Try every direction of every edge in the first circuit holding
    it (the other circuit runs it backwards)."""
    holders: dict = {}
    for i, circuit in enumerate(cover.circuits):
        for e in circuit:
            holders.setdefault(e, []).append(i)
    edges = sorted(holders)
    for bits in range(1 << len(edges)):
        imbalance = [Counter() for _ in cover.circuits]
        for j, (u, v) in enumerate(edges):
            a, b = (u, v) if bits >> j & 1 else (v, u)
            first, second = holders[(u, v)]
            imbalance[first][a] += 1
            imbalance[first][b] -= 1
            imbalance[second][b] += 1
            imbalance[second][a] -= 1
        if not any(any(part.values()) for part in imbalance):
            return True
    return False


@pytest.mark.parametrize("name", ["k4", "prism", "wheel:4", "wheel:5"])
def test_orientability_matches_brute_force(name):
    g = underlying_graph(select(name))
    assert len(g.edges) <= 10
    covers = require_complete(
        enumerate_covers(g, orientable_only=False)).covers
    for cover in covers:
        witness = check_orientability(g, cover)
        assert (witness is not None) == _orientable_by_brute_force(cover)
        assert (witness is not None) == (cover.orientation is not None)
        if witness is not None:
            assert validate_oriented_cover(g, cover, witness) == []


def _reference_orientation(circuits):
    """The edge-level orientation search the trail version replaced:
    one unknown per edge (its direction in its first circuit), a parity
    union-find over the degree-2 vertices, rooted at each class's least
    edge, and a search over the roots of the wider ones, 0 before 1."""
    edge_id, parent, parity, rows, wide = {}, [], [], [], []

    def find(x):
        d = 0
        while parent[x] != x:
            d ^= parity[x]
            x = parent[x]
        return x, d

    for circuit in circuits:
        row = []
        for e in sorted(circuit):
            if e in edge_id:
                row.append((edge_id[e], 1))
            else:
                edge_id[e] = len(parent)
                parent.append(len(parent))
                parity.append(0)
                row.append((edge_id[e], 0))
        rows.append((circuit, row))
        at = {}
        for p, (u, v) in enumerate(sorted(circuit)):
            at.setdefault(u, []).append((p, 1))
            at.setdefault(v, []).append((p, 0))
        for group in at.values():
            # the edge at p leaves here iff x_e ^ side ^ back
            lits = [(row[p][0], side ^ row[p][1]) for p, side in group]
            if len(lits) > 2:
                wide.append(lits)
                continue
            (a, ca), (b, cb) = lits
            (ra, da), (rb, db) = find(a), find(b)
            d = 1 ^ ca ^ cb ^ da ^ db
            if ra == rb:
                if d:
                    return None
            else:
                lo, hi = min(ra, rb), max(ra, rb)
                parent[hi], parity[hi] = lo, d
    roots = sorted({find(e)[0] for lits in wide for e, _ in lits})
    value = {}

    def feasible():
        for lits in wide:
            known = [find(e) for e, _ in lits]
            leaving = [value[r] ^ d ^ c for (r, d), (_, c) in
                       zip(known, lits) if r in value]
            free = len(lits) - len(leaving)
            if not sum(leaving) <= len(lits) // 2 <= sum(leaving) + free:
                return False
        return True

    def search(i):
        if i == len(roots):
            return True
        for bit in (0, 1):
            value[roots[i]] = bit
            if feasible() and search(i + 1):
                return True
        del value[roots[i]]
        return False

    if not search(0):
        return None
    x = [value.get(r, 0) ^ d for r, d in map(find, range(len(parent)))]
    return tuple(
        frozenset((v, u) if x[eid] ^ back else (u, v)
                  for (u, v), (eid, back) in zip(sorted(circuit), row))
        for circuit, row in rows)


def _orient(circuits, edges):
    """`_orientation` on a valid cover, its facts read from the memo."""
    return _orientation(circuits, [_facts(c, edges) for c in circuits], edges)


def test_orientation_matches_the_edge_level_reference():
    # every oracle cover, orientable or not, of each host and of three
    # relabelled copies: the same witness parts, or None, as the edge
    # level search, byte for byte.  On the apollonian hosts some trails
    # join two different wide vertices, so there the search over the
    # constraints left runs; on apollonian:0,0 (taken once, it has 9,508
    # covers) the witnesses of some covers, and whether some are
    # orientable at all, turn on those constraints.
    hosts = [("apollonian:0,0", underlying_graph(select("apollonian:0,0")))]
    for name in ["k4", "prism", "cube", "wheel:4", "wheel:5", "wheel:6",
                 "apollonian:0"]:
        g = underlying_graph(select(name))
        hosts += [(name, g)] + [(name, _relabel(g, seed)[0])
                                for seed in range(3)]
    for name, host in hosts:
        covers = require_complete(
            enumerate_covers(host, orientable_only=False)).covers
        assert any(c.orientation is None for c in covers), name
        if name == "apollonian:0,0":
            # some circuit leaves a constraint, so the search past the
            # return for covers with none runs
            assert any(_facts(c, host.edges).wide
                       for cover in covers for c in cover.circuits)
        for cover in covers:
            expected = _reference_orientation(cover.circuits)
            assert cover.orientation == expected, name
            assert _orient(cover.circuits, host.edges) == expected, name
    c5 = _cycle(5)
    forward, backward = _orient((c5.edges, c5.edges), c5.edges)
    assert (forward, backward) == _reference_orientation((c5.edges,) * 2)
    assert backward == {(v, u) for u, v in forward}
    k4_graph = underlying_graph(k4())
    hamiltonians = [frozenset(c) for c in K4_HAMILTONIANS]
    assert _reference_orientation(hamiltonians) is None
    assert _orient(hamiltonians, k4_graph.edges) is None


def test_orientability_reads_the_circuits_as_validated():
    # a cover constructed directly, with every edge given from its
    # larger end, is valid, and its orientation is searched on its
    # circuits as the validation normalized them
    g = underlying_graph(k4())
    cover = facial_cover(k4())
    flipped = CircuitDoubleCover(tuple(frozenset((v, u) for u, v in c)
                                       for c in cover.circuits))
    assert validate_cover(g, flipped.circuits).valid
    assert check_orientability(g, flipped) == check_orientability(g, cover)


def _relabelled_cover(cover, perm):
    """``cover`` with every vertex v renamed ``perm[v]``."""
    return CircuitDoubleCover.build(
        [[(perm[u], perm[v]) for u, v in c] for c in cover.circuits],
        [[(perm[u], perm[v]) for u, v in p] for p in cover.orientation])


@pytest.mark.parametrize("name", ["wheel:7", "octahedron"])
def test_orientability_after_validation_matches_a_fresh_check(name):
    # check_orientability right after validate_cover on the same cover
    # reuses that validation; its witness is the one a check from cold
    # memos gives, and the one `_orientation` gives on facts worked out
    # afresh, on every transition cover of the host and of a relabelled
    # copy of the host
    g = _host(name)
    h, perm = _relabel(g, 0)
    covers = require_complete(enumerate_covers(g)).covers
    checked = [(g, c) for c in covers] + \
        [(h, _relabelled_cover(c, perm)) for c in covers]
    for host, cover in checked:
        assert validate_cover(host, cover.circuits).valid
        hits = cdc._last_validation.cache_info().hits
        after = check_orientability(host, cover)
        assert cdc._last_validation.cache_info().hits == hits + 1
        clear_memos()
        cold = check_orientability(host, cover)
        fresh = _orientation(
            cover.circuits,
            [_facts.__wrapped__(c, host.edges) for c in cover.circuits],
            host.edges)
        assert after == cold == OrientedCover(fresh), name
        assert validate_oriented_cover(host, cover, after) == [], name


def test_the_last_validation_answers_only_for_its_host():
    # one circuits tuple checked against wheel:7 and against wheel:7
    # with a chord, in turn: each host gets its own answer
    g = _host("wheel:7")
    chorded = SimpleGraph(g.n, g.edges | {(1, 3)})
    cover = enumerate_covers(g, limit=1).covers[0]
    missing = "edge (1, 3) covered 0 times, need 2"
    for _ in range(2):
        assert validate_cover(g, cover.circuits).valid
        report = validate_cover(chorded, cover.circuits)
        assert report.problems == (missing,)
        assert report == _reference_validate_cover(chorded, cover.circuits)
    assert validate_cover(g, cover.circuits).valid
    with pytest.raises(InvalidCover, match=re.escape(missing)):
        check_orientability(chorded, cover)
    assert validate_cover(chorded, cover.circuits) == report
    assert check_orientability(g, cover) is not None


def test_a_tuple_holding_lists_is_validated_without_the_memo():
    # only hashable circuits go through the memo; a tuple holding lists
    # is validated afresh, with the diagnostics a list of them gets
    g = underlying_graph(k4())
    triangles = [sorted(c) for c in facial_cover(k4()).circuits]
    frozen = [frozenset(map(tuple, c)) for c in triangles]
    doubled = (triangles[0], triangles[0], triangles[1], triangles[2])
    for circuits in (tuple(triangles), doubled,
                     tuple(frozen[:3]) + (triangles[3],),
                     tuple(triangles) + ([(0, 9)],)):
        report = validate_cover(g, circuits)
        assert report == validate_cover(g, list(circuits)) == \
            _reference_validate_cover(g, circuits)
    assert cdc._last_validation.cache_info().currsize == 0
    assert validate_cover(g, doubled).problems == (
        "edge (0, 1) covered 3 times, need 2",
        "edge (0, 2) covered 3 times, need 2",
        "edge (1, 3) covered 1 times, need 2",
        "edge (2, 3) covered 1 times, need 2")


def test_only_trails_between_two_wide_vertices_are_constrained():
    # a trail with both ends at one wide vertex (degree >= 4 in its
    # circuit) leaves it once whatever its bit, so its ends bind
    # nothing: a wheel's only wide vertex is its hub, and no circuit of
    # wheel:7's covers keeps a constraint, while on apollonian:0 some
    # trail joins two different wide vertices
    g7 = underlying_graph(wheel(7))
    covers = enumerate_covers(g7).covers
    assert len(covers) == 1751
    assert not any(_facts(c, g7.edges).wide
                   for cover in covers for c in cover.circuits)
    g = underlying_graph(select("apollonian:0"))
    covers = require_complete(
        enumerate_covers(g, orientable_only=False)).covers
    kept = [c for cover in covers for c in cover.circuits
            if _facts(c, g.edges).wide]
    assert len(covers) == 132 and len(kept) == 33
    for circuit in set(kept):
        for lits in _facts(circuit, g.edges).wide:
            # an even number of ends, none of them twice
            assert len(lits) % 2 == 0
            assert len(set(lits)) == len(lits)


def test_oracle_builds_each_circuit_once():
    # the oracle keys each part by its members, so its covers share one
    # object per distinct circuit
    covers = require_complete(enumerate_covers(
        underlying_graph(wheel(6)), orientable_only=False)).covers
    circuits = [c for cover in covers for c in cover.circuits]
    assert len(set(circuits)) == len({id(c) for c in circuits}) < \
        len(circuits)


def test_oracle_builds_each_cover_once(monkeypatch):
    # two parts opened by one edge stay interchangeable while their
    # members are equal; taking the later only with the earlier keeps
    # the search from reaching each cover twice
    built = Counter()
    init = CircuitDoubleCover.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built[self.canonical_form()] += 1

    # every cover constructed, by `build` or directly, is counted
    monkeypatch.setattr(CircuitDoubleCover, "__init__", counting_init)
    for name in ["k4", "prism", "cube", "wheel:4", "wheel:5", "wheel:6"]:
        built.clear()
        deadline = _Deadline(None)
        yielded = Counter()
        for key, cover in _enumerate_all(underlying_graph(select(name)),
                                         deadline):
            assert key == cover.canonical_form(), name
            yielded[key] += 1
        assert not deadline.hit, name
        assert set(yielded.values()) == {1}, name
        assert built == yielded, name


def test_transition_search_yields_each_cover_once():
    # the store drops a repeated form without a trace, so the search
    # itself is checked: one yield per canonical form, no more
    hosts = [(name, underlying_graph(select(name))) for name in [
        "k4", "prism", "cube", "octahedron", "wheel:4", "wheel:5",
        "wheel:6", "wheel:7", "apollonian-dual:0,1"]]
    hosts.append(("relabelled wheel:6",
                  _relabel(underlying_graph(wheel(6)), 5)[0]))
    for name, g in hosts:
        deadline = _Deadline(None)
        yielded = Counter()
        for key, cover in _enumerate_transitions(g, deadline):
            assert key == cover.canonical_form(), name
            yielded[key] += 1
        assert not deadline.hit, name
        assert set(yielded.values()) == {1}, name
        assert len(yielded) == len(enumerate_covers(g).covers), name


def test_enumerate_covers_keeps_each_form_once_in_order(monkeypatch):
    # neither search repeats a cover, so a stand-in search drives the
    # store: keys out of order, one of them twice
    covers = [CircuitDoubleCover((frozenset([(0, i)]),)) for i in range(4)]
    keys = [((0, 2),), ((0, 1),), ((0, 2),), ((0, 3),)]

    def search(g, deadline):
        for key, cover in zip(keys, covers):
            deadline.nodes += 1
            yield key, cover

    monkeypatch.setattr(cdc, "_enumerate_transitions", search)
    g = underlying_graph(k4())
    full = enumerate_covers(g)
    # the first cover of each key, in key order
    assert [id(c) for c in full.covers] == \
        [id(covers[1]), id(covers[0]), id(covers[3])]
    assert full.complete and not full.limit_reached
    assert full.nodes == 4
    cut = enumerate_covers(g, limit=2)
    assert [id(c) for c in cut.covers] == [id(covers[1]), id(covers[0])]
    assert cut.limit_reached and not cut.complete
    assert cut.nodes == 2


def test_oracle_node_counts():
    # the slot oracle in sorted edge order took 28,320 nodes on wheel:6
    result = enumerate_covers(underlying_graph(wheel(6)),
                              orientable_only=False)
    assert result.complete and len(result.covers) == 458
    assert len(result.orientable_covers) == 250
    assert result.nodes <= 28_320 // 4


@pytest.mark.parametrize("name,build", [
    ("dual of 100 stacks", lambda: apollonian_dual(random_stacks(100, 0))),
    ("600 stacks", lambda: generate_apollonian(600, seed=0)),
])
def test_large_facial_covers_are_orientable(name, build):
    # long circuits (the dual's longest has 36 edges) and over a
    # thousand circuits: neither may cost exponential time or
    # recursion depth
    m = build()
    g = underlying_graph(m)
    cover = CircuitDoubleCover.build(facial_cover(m).circuits)
    start = time.perf_counter()
    witness = check_orientability(g, cover)
    elapsed = time.perf_counter() - start
    assert witness is not None, name
    assert validate_oriented_cover(g, cover, witness) == [], name
    assert elapsed < 1.0, name


def test_oracle_budget_bounds_the_orientability_phase():
    budget = 0.5
    g = underlying_graph(wheel(40))
    start = time.monotonic()
    result = enumerate_covers(g, orientable_only=False, max_edges=10**6,
                              time_budget=budget)
    assert time.monotonic() - start < 6 * budget
    assert not result.complete
    assert result.covers
    # a cover whose verdict the budget cut off is dropped, never
    # returned as non-orientable
    for cover in result.covers:
        assert (check_orientability(g, cover) is not None) == \
            (cover.orientation is not None)


def test_oracle_budget_bounds_the_covers_left_undecided():
    # the slot search spends the whole budget on a 600-edge host; the
    # covers it found before the deadline come back decided, and none
    # builds a union-find after it
    budget = 1.0
    g = underlying_graph(wheel(300))
    start = time.monotonic()
    result = enumerate_covers(g, orientable_only=False, max_edges=10**4,
                              time_budget=budget)
    assert time.monotonic() - start < budget + 1
    assert not result.complete
    assert result.covers


def _reference_validate_circuit(g, circuit):
    degree = Counter()
    for u, v in circuit:
        degree[u] += 1
        degree[v] += 1
    problems = [f"odd degree {d} at vertex {v}"
                for v, d in sorted(degree.items()) if d % 2]
    touched = sorted(degree)
    adj = {v: [] for v in touched}
    for u, v in circuit:
        adj[u].append(v)
        adj[v].append(u)
    seen = {touched[0]}
    queue = deque([touched[0]])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                queue.append(y)
    if len(seen) != len(touched):
        problems.append("edge set is not connected")
    valid = not problems
    is_cycle = valid and all(d == 2 for d in degree.values())
    return CircuitReport(valid, is_cycle, tuple(problems))


def _reference_validate_cover(g, circuits):
    """The cover validator as it stood before its fast path."""
    sets = [frozenset(normalize_edge(u, v) for u, v in c) for c in circuits]
    problems = []
    reports = []
    for i, c in enumerate(sets):
        unknown = [f"edge {e} not in host graph"
                   for e in sorted(c) if e not in g.edges]
        if unknown:
            reports.append(CircuitReport(False, False, tuple(unknown)))
            problems.append(f"circuit {i}: unknown edges")
            continue
        if not c:
            rep = CircuitReport(False, False, ("empty edge set",))
        else:
            rep = _reference_validate_circuit(g, c)
        reports.append(rep)
        if not rep.valid:
            problems.append(f"circuit {i}: " + "; ".join(rep.problems))
    multiplicity = Counter()
    for c in sets:
        multiplicity.update(c)
    for e in sorted(g.edges):
        seen = multiplicity.get(e, 0)
        if seen != 2:
            problems.append(f"edge {e} covered {seen} times, need 2")
    for e in sorted(set(multiplicity) - g.edges):
        problems.append(f"edge {e} not in host graph")
    valid = not problems
    is_cycle_cover = valid and all(r.is_cycle for r in reports)
    return CoverReport(valid, is_cycle_cover, tuple(reports),
                       tuple(problems))


def _validation_inputs():
    """(host, circuits) pairs: valid covers and every defect above."""
    k4_graph = underlying_graph(k4())
    triangles = [sorted(c) for c in facial_cover(k4()).circuits]
    octa = octahedron()
    octa_graph = underlying_graph(octa)
    faces = octa.faces
    disjoint = next((x, y) for x in faces for y in faces
                    if not set(x.boundary) & set(y.boundary))
    touching = next((x, y) for x in faces for y in faces
                    if x.index < y.index
                    and len(set(x.boundary) & set(y.boundary)) == 1)
    octa_faces = [sorted(c) for c in facial_cover(octa).circuits]

    def walk_edges(pair):
        return [(octa.vertex_of[d], octa.vertex_of[d ^ 1])
                for d in pair[0].darts + pair[1].darts]

    w4 = underlying_graph(wheel(4))
    inputs = [
        (k4_graph, triangles),
        (k4_graph, K4_HAMILTONIANS),
        (k4_graph, [[(v, u) for u, v in c] for c in triangles]),
        (k4_graph, triangles[:3]),
        (k4_graph, triangles + triangles[:1]),
        (k4_graph, [[(0, 1), (1, 2), (0, 2)]]),
        (k4_graph, []),
        (k4_graph, triangles[:3] + [[]]),
        (k4_graph, triangles[:3] + [[(0, 1), (1, 2)]]),
        (k4_graph, triangles + [[(0, 9)]]),
        (k4_graph, triangles[:3] + [[(0, 1), (1, 9), (0, 9)]]),
        (k4_graph, [[(0, 1), (1, 2), (0, 2), (2, 7)]] + triangles[1:]),
        (octa_graph, octa_faces),
        (octa_graph, _k222_walk_cover(octa).circuits),
        (octa_graph, [walk_edges(disjoint)] + octa_faces),
        (octa_graph, [walk_edges(touching)] + octa_faces[2:]),
        (octa_graph, [sorted(octa_graph.edges)] * 2),
        (w4, [[(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)],
              [(0, 1), (0, 4), (1, 4)], [(0, 2), (0, 3), (2, 3)],
              [(1, 2), (1, 4), (2, 3), (3, 4)]]),
    ]
    # frozensets: taken as they are when every edge is a host edge, and
    # normalized otherwise
    frozen = [frozenset(map(tuple, c)) for c in triangles]
    inputs += [
        (k4_graph, frozen),
        (k4_graph, [frozenset((v, u) for u, v in c) for c in frozen]),
        (k4_graph, frozen[:3] + [frozenset({(1, 0), (0, 2), (2, 1)})]),
        (k4_graph, frozen[:3] + [frozenset({(0, 1), (1, 0), (1, 2)})]),
        (k4_graph, frozen[:3] + [frozenset({(0, 1), (1, 9), (0, 9)})]),
        (k4_graph, frozen[:3] + [frozenset({(0, 1), (9, 1), (0, 9)})]),
        (k4_graph, frozen + frozen[:1]),
        (k4_graph, frozen[:3] + [frozenset()]),
        (octa_graph, [octa_graph.edges] * 2),
        (octa_graph, [frozenset(walk_edges(touching))]
         + [frozenset(c) for c in octa_faces[2:]]),
    ]
    # each caught by one of the mask law's three conditions alone: an
    # edge met an odd number of times (a duplicated circuit in place of
    # another), an edge never met (one triangle four times: every count
    # even and 2|E| edge slots), and too many slots (a circuit twice
    # more, or one of foreign edges only)
    inputs += [
        (k4_graph, triangles[:3] + triangles[:1]),
        (k4_graph, triangles[:1] * 4),
        (k4_graph, frozen[:1] * 4),
        (k4_graph, triangles + triangles[:1] * 2),
        (k4_graph, triangles + [[(4, 5), (5, 6), (4, 6)]]),
        (k4_graph, frozen + [frozenset({(4, 5), (5, 6), (4, 6)})]),
        # a circuit given as a list, with an edge twice and reversed
        (k4_graph, [triangles[0] + [(v, u) for u, v in triangles[0]]]
         + triangles[1:]),
    ]
    for cover in enumerate_covers(w4, orientable_only=False).covers:
        inputs.append((w4, cover.circuits))
    return inputs


def _generated_inputs():
    """(host, make) pairs: ``make`` gives circuits as generators, read
    once, so each check gets its own."""
    k4_graph = underlying_graph(k4())
    triangles = [sorted(c) for c in facial_cover(k4()).circuits]
    return [
        (k4_graph, lambda: triangles[:3] + [(e for e in triangles[3])]),
        (k4_graph, lambda: ((e for e in c) for c in triangles)),
        (k4_graph, lambda: ((e for e in c) for c in triangles[:1] * 4)),
        (k4_graph, lambda: triangles[:3] + [(e for e in [(0, 9)])]),
    ]


def test_validate_cover_matches_reference():
    inputs = _validation_inputs()
    generated = _generated_inputs()
    clear_memos()
    for _ in range(2):          # from cold memos, then warm
        for g, circuits in inputs:
            # as given, and as a tuple: through the last-validation memo
            # when every circuit is hashable
            for given in (circuits, tuple(circuits)):
                assert validate_cover(g, given) == \
                    _reference_validate_cover(g, circuits), circuits
        for g, make in generated:
            assert validate_cover(g, make()) == \
                _reference_validate_cover(g, make())


def test_an_edge_that_is_not_a_pair_is_a_diagnostic():
    g = underlying_graph(k4())
    triangles = [sorted(c) for c in facial_cover(k4()).circuits]
    problem = "edge (0, 1, 2) is not a pair of vertices"
    for circuits, i in (([[(0, 1, 2)]], 0),
                        (triangles[:3] + [[(0, 1), (0, 1, 2)]], 3)):
        report = validate_cover(g, circuits)
        assert not report.valid and not report.is_cycle_cover
        assert report.circuits[i] == CircuitReport(False, False, (problem,))
        assert f"circuit {i}: {problem}" in report.problems
        with pytest.raises(InvalidCover, match="not a pair"):
            check_orientability(g, circuits)
        with pytest.raises(ValueError):     # the reference does not check
            _reference_validate_cover(g, circuits)
    # a cover built around the check is caught by the validation
    cover = CircuitDoubleCover((frozenset([(0, 1, 2)]),))
    assert validate_cover(g, cover.circuits).circuits == \
        (CircuitReport(False, False, (problem,)),)
    with pytest.raises(InvalidCover, match=re.escape(f"circuit 0: {problem}")):
        check_orientability(g, cover)
    with pytest.raises(InvalidCover, match="edge 7 is not a pair"):
        validate_circuit(g, [(0, 1), 7])
    # so is a circuit that is not a collection of edges at all
    for junk in (5, None):
        problem = f"{junk!r} is not a collection of edges"
        report = validate_cover(g, triangles[:3] + [junk])
        assert not report.valid
        assert report.circuits[3] == CircuitReport(False, False, (problem,))
        assert f"circuit 3: {problem}" in report.problems
        for call in (lambda: check_orientability(g, [junk]),
                     lambda: CircuitDoubleCover.build([junk])):
            with pytest.raises(InvalidCover, match=re.escape(problem)):
                call()
