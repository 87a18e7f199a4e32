"""Cover validation, enumeration, orientability, genus, translation."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdclab.cdc import (
    CircuitDoubleCover,
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

from conftest import corpus_maps

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
    # the search order and the reversal cut both depend on the labels;
    # the cover set must not
    if name == "k4^t":
        g = underlying_graph(complete_truncation(k4())[0])
    else:
        g = underlying_graph(select(name))
    perm = list(range(g.n))
    Random(seed).shuffle(perm)
    g2 = SimpleGraph(g.n, frozenset(
        normalize_edge(perm[u], perm[v]) for u, v in g.edges))
    base = require_complete(enumerate_covers(g, max_edges=18))
    moved = require_complete(enumerate_covers(g2, max_edges=18))
    forms = {c.canonical_form() for c in moved.covers}
    assert forms == {CircuitDoubleCover.build(
        [[(perm[u], perm[v]) for u, v in c] for c in cover.circuits]
    ).canonical_form() for cover in base.covers}
    for cover in moved.covers:
        assert validate_oriented_cover(
            g2, cover, OrientedCover(cover.orientation)) == []
    if len(g.edges) <= 10:
        oracle = require_complete(enumerate_covers(g2, orientable_only=False))
        assert forms == {c.canonical_form()
                         for c in oracle.orientable_covers}


def test_dart_search_node_counts():
    # node counts are deterministic; the sorted edge order without the
    # reversal cut took 84,973 nodes on wheel:6 and 20,790 on K4^t
    wheel6 = enumerate_covers(underlying_graph(wheel(6)))
    k4t = enumerate_covers(underlying_graph(complete_truncation(k4())[0]),
                           max_edges=18)
    assert wheel6.complete and len(wheel6.covers) == 250
    assert k4t.complete and len(k4t.covers) == 1
    assert wheel6.nodes <= 84_973 // 4
    assert k4t.nodes <= 20_790 // 4


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
