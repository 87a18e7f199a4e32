"""Apollonian generation, recognition, and the edge classification."""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdclab.apollonian import (
    EdgeClass,
    _stacked_graph,
    _unstack,
    apollonian_dual,
    check_edge_classification,
    generate_apollonian,
    is_apollonian,
    random_stacks,
    separating_triangles,
)
from cdclab.cli import main
from cdclab.corpus import cube, default_census_corpus, k4, octahedron, select
from cdclab.errors import BadSelector, NotApollonian
from cdclab.io_formats import report_to_json, strip_timing
from cdclab.iso import map_canonical_code
from cdclab.planar_map import (
    SimpleGraph,
    is_3_connected,
    underlying_graph,
)
from cdclab.surgery import augment_face

from conftest import apollonian_from_draws


def test_empty_sequence_is_k4():
    m = generate_apollonian([])
    assert m.vertex_count == 4
    assert m.edge_count == 6


def test_generation_counts_and_shape():
    m = generate_apollonian([0, 2, 5])
    assert m.vertex_count == 7
    assert m.edge_count == 15
    assert m.face_count == 10
    assert all(len(f.darts) == 3 for f in m.faces)
    assert is_3_connected(m)


def test_random_stacks_reproducible():
    assert random_stacks(12, 99) == random_stacks(12, 99)
    m1 = generate_apollonian(12, seed=99)
    m2 = generate_apollonian(random_stacks(12, 99))
    assert m1.sigma == m2.sigma


def test_bad_face_index_is_reported_with_step():
    with pytest.raises(BadSelector):
        generate_apollonian([99])
    with pytest.raises(BadSelector, match=r"^step 1: face 6 out of range "
                                          r"\(map has 6 faces\)$"):
        generate_apollonian([0, 6])
    with pytest.raises(BadSelector, match=r"^step 0: face -1 out of range "
                                          r"\(map has 4 faces\)$"):
        generate_apollonian([-1])


# SHA-256 over the canonical code, rotation lists and labels of every
# default-corpus selector and of generate_apollonian(20, seed=s) for
# s in 0..99, as built by chained augment_face calls.  A change here
# means an ``apollonian:<seq>`` selector or a (count, seed) pair now
# names a different map.
GOLDEN_DIGEST = (
    "458a6c08e2539b146fa483ea51dab8774145f2fe1f6995efc76821f85be61e0a")


def test_generated_maps_match_golden_digest():
    digest = hashlib.sha256()

    def feed(name, m):
        digest.update(name.encode())
        digest.update(map_canonical_code(m))
        digest.update(repr(m.rotation_lists()).encode())
        digest.update(repr(m.labels).encode())

    for name in default_census_corpus():
        feed(name, select(name))
    for seed in range(100):
        feed(f"stacks:20:{seed}", generate_apollonian(20, seed=seed))
    assert digest.hexdigest() == GOLDEN_DIGEST


def test_generation_matches_chained_augment_face():
    # The slow path: one augment_face per step, each re-checking
    # 3-connectivity, with faces drawn from the map's own face count.
    for seed in range(100):
        rng = random.Random(seed)
        m, seq = k4(), []
        for count in range(13):
            assert random_stacks(count, seed) == seq
            assert generate_apollonian(seq) == m
            assert generate_apollonian(count, seed=seed) == m
            assert is_3_connected(m)
            seq.append(rng.randrange(m.face_count))
            m, _ = augment_face(m, seq[-1])


def test_is_apollonian_accepts_generated_networks():
    rng = random.Random(0)
    for _ in range(10):
        m = apollonian_from_draws(
            [rng.randrange(10 ** 6) for _ in range(rng.randrange(12))])
        assert is_apollonian(m)


def test_is_apollonian_rejects_non_examples():
    assert not is_apollonian(octahedron())
    assert not is_apollonian(cube())
    k4_minus = SimpleGraph(4, frozenset(
        [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]))
    assert not is_apollonian(k4_minus)
    path = SimpleGraph(4, frozenset([(0, 1), (1, 2), (2, 3)]))
    assert not is_apollonian(path)


@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_recognition_is_order_independent(seed, shuffle_seed):
    # confluence: any greedy removal order gives the same verdict
    rng = random.Random(seed)
    m = apollonian_from_draws(
        [rng.randrange(10 ** 6) for _ in range(rng.randrange(10))])
    g = underlying_graph(m)
    # unstacking pops the least label first, so a random relabelling
    # gives a random removal order; replaying the seed recovers its
    # permutation
    perm = list(range(g.n))
    random.Random(shuffle_seed).shuffle(perm)
    shuffled = _relabel_graph(g, random.Random(shuffle_seed))
    assert is_apollonian(m) is is_apollonian(shuffled) is True
    # and the removed neighbourhoods do not depend on the order either
    back = {new: old for old, new in enumerate(perm)}
    assert {tuple(sorted(back[v] for v in t)) for t in _unstack(shuffled)} \
        == set(_unstack(m))


def test_apollonian_dual_is_cubic():
    m = apollonian_dual([0, 3])
    assert all(m.degree(v) == 3 for v in range(m.vertex_count))
    assert is_3_connected(m)


def test_k4_has_no_separating_triangle():
    report = separating_triangles(underlying_graph(k4()))
    assert report.separating == ()
    assert len(report.triangles) == 4


def test_one_stack_has_one_separating_triangle():
    m = generate_apollonian([0])
    report = separating_triangles(underlying_graph(m))
    assert len(report.separating) == 1
    # the stacked face's corners separate the apex from the rest
    (tri,) = report.separating
    g = underlying_graph(m)
    assert not g.is_connected(without=tri)


def test_edge_classification_holds_on_k4_and_one_stack():
    assert check_edge_classification(underlying_graph(k4())).passed
    assert check_edge_classification(
        underlying_graph(generate_apollonian([0]))).passed


def _two_adjacent_stacks():
    """K4 stacked into two faces that share an edge."""
    m = k4()
    face_a = next(f for f in m.faces
                  if {m.labels[v] for v in f.boundary} == {1, 2, 4})
    m2, _ = augment_face(m, face_a)
    face_b = next(f for f in m2.faces
                  if {m2.labels[v] for v in f.boundary} == {2, 3, 4})
    m3, _ = augment_face(m2, face_b)
    return m3


def test_edge_classification_counterexample_two_adjacent_stacks():
    # stack into two faces sharing an edge: the K4 edge disjoint from
    # the shared edge ends at two degree-4 vertices and lies in no
    # separating triangle, so the classification fails there
    g = underlying_graph(_two_adjacent_stacks())
    assert is_apollonian(g)
    report = check_edge_classification(g)
    assert not report.passed
    bad = [e.edge for e in report.entries if not e.ok]
    # internal ids: labels 1 and 3 sit at indices 0 and 2
    assert bad == [(0, 2)]
    assert g.degree(0) == 4 and g.degree(2) == 4


def test_edge_classification_rejects_non_apollonian():
    with pytest.raises(NotApollonian):
        check_edge_classification(underlying_graph(octahedron()))


def test_classification_report_has_all_edges():
    g = underlying_graph(generate_apollonian(6, seed=1))
    report = check_edge_classification(g)
    assert sorted(e.edge for e in report.entries) == sorted(g.edges)


def test_edge_class_keeps_its_public_face():
    e = EdgeClass((2, 5), False, True)
    assert EdgeClass._fields == ("edge", "degree_three",
                                 "in_separating_triangle")
    assert (e.edge, e.degree_three, e.in_separating_triangle) == \
        ((2, 5), False, True)
    assert e.ok and EdgeClass(edge=(2, 5), degree_three=False,
                              in_separating_triangle=False).ok is False
    assert repr(e) == ("EdgeClass(edge=(2, 5), degree_three=False, "
                       "in_separating_triangle=True)")
    with pytest.raises(AttributeError):
        e.ok = False
    with pytest.raises(AttributeError):
        e.edge = (0, 1)


# SHA-256 over repr(check_edge_classification(g).entries) for the
# networks generate_apollonian(20, seed=s), s in 0..19, as taken when
# EdgeClass was a frozen dataclass: its records read the same.
EDGE_CLASS_DIGEST = (
    "993cdc26f850b0ae01e6028c5b50df01a3cb4d9d1b06a7376faa90a6851a8f10")


def test_edge_classes_match_golden_digest():
    digest = hashlib.sha256()
    for seed in range(20):
        g = underlying_graph(generate_apollonian(20, seed=seed))
        digest.update(repr(check_edge_classification(g).entries).encode())
    assert digest.hexdigest() == EDGE_CLASS_DIGEST


@pytest.mark.parametrize("stacks", [0, 1, 2, 5, 20, 100])
def test_sweep_graph_is_the_generated_network(stacks):
    for seed in range(50):
        assert _stacked_graph(stacks, seed) == \
            underlying_graph(generate_apollonian(stacks, seed=seed))


def test_prop41_report_matches_the_generated_networks(capsys):
    entries = []
    for seed in range(100):
        report = check_edge_classification(
            underlying_graph(generate_apollonian(20, seed=seed)))
        entries.append({"seed": seed, "passed": report.passed, "bad_edges": [
            {"edge": list(e.edge), "degree_three_endpoint": e.degree_three,
             "in_separating_triangle": e.in_separating_triangle}
            for e in report.entries if not e.ok]})
    want = report_to_json("edge-classification", {
        "stacks": 20, "seeds": list(range(100)), "entries": entries,
        "passed": all(e["passed"] for e in entries)})
    code = main(["verify", "prop41", "--seeds", "0..99"])
    got = strip_timing(json.loads(capsys.readouterr().out))
    assert (code, got) == (0 if want["passed"] else 1, want)


def test_unstacking_reads_off_the_separating_triangles():
    graphs = [underlying_graph(generate_apollonian(k, seed=s))
              for k in (0, 1, 2, 5, 20, 50) for s in range(50)]
    graphs.append(underlying_graph(_two_adjacent_stacks()))
    for g in graphs:
        triangles = _unstack(g)
        assert len(triangles) == g.n - 4
        separating = separating_triangles(g).separating
        assert set(triangles) == set(separating)
        cut_by = [frozenset(t) for t in separating]
        reference = [
            ((u, v), g.degree(u) == 3 or g.degree(v) == 3,
             any({u, v} <= t for t in cut_by))
            for u, v in sorted(g.edges)]
        assert [(e.edge, e.degree_three, e.in_separating_triangle)
                for e in check_edge_classification(g).entries] == reference


def _relabel_graph(g: SimpleGraph, rng: random.Random) -> SimpleGraph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return SimpleGraph(g.n, frozenset(
        (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g.edges))


def _sorted_scan_unstack(g: SimpleGraph):
    """Reference reducer: after a connectivity check, each step scans
    the remaining vertices in sorted order and removes the first one of
    degree 3 whose neighbours are mutually adjacent."""
    if not g.is_connected():
        return None
    adj = {v: set(nbrs) for v, nbrs in g.adjacency.items()}
    removed = []
    while len(adj) > 4:
        for v in sorted(adj):
            nbrs = adj[v]
            if len(nbrs) == 3:
                a, b, c = nbrs
                if b in adj[a] and c in adj[a] and c in adj[b]:
                    break
        else:
            return None
        removed.append(tuple(sorted(adj[v])))
        for u in adj.pop(v):
            adj[u].discard(v)
    if len(adj) == 4 and all(len(nbrs) == 3 for nbrs in adj.values()):
        return removed
    return None


def test_unstacking_removes_the_least_removable_vertex_first():
    graphs = [underlying_graph(generate_apollonian(k, seed=s))
              for k in (0, 1, 2, 5, 20, 100) for s in range(10)]
    graphs.append(underlying_graph(_two_adjacent_stacks()))
    # stacking numbers each vertex after its triangle; random ids do not
    rng = random.Random(0)
    graphs += [_relabel_graph(g, rng) for g in graphs]
    for g in graphs:
        assert _unstack(g) == _sorted_scan_unstack(g)
    first = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    refused = [
        SimpleGraph(8, frozenset(first + [(u + 4, v + 4) for u, v in first])),
        SimpleGraph(5, frozenset(first)),
        underlying_graph(octahedron()),
        underlying_graph(select("wheel:5")),
        SimpleGraph(4, frozenset()),
    ]
    for g in refused:
        assert _unstack(g) is None
        assert _sorted_scan_unstack(g) is None
