"""Canonical codes, isomorphism, and the commuting-square check."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdclab.corpus import cube, k4, octahedron, prism, wheel
from cdclab.errors import NotThreeConnected, TooLarge
from cdclab.iso import (
    cross_check_isomorphism,
    graph_canonical_code,
    graphs_isomorphic,
    map_canonical_code,
    maps_isomorphic,
    verify_square,
)
from cdclab.planar_map import (
    SimpleGraph,
    from_rotation,
    mirror,
    underlying_graph,
)

from conftest import apollonian_from_draws, corpus_maps


def _relabel_map(m, rng: random.Random):
    perm = list(range(m.vertex_count))
    rng.shuffle(perm)
    rows = m.rotation_lists()
    return from_rotation(
        {perm[v]: [perm[w] for w in rows[v]] for v in range(m.vertex_count)})


@pytest.mark.parametrize("name,m", corpus_maps())
def test_map_code_is_relabel_invariant(name, m):
    rng = random.Random(7)
    code = map_canonical_code(m)
    for _ in range(20):
        assert map_canonical_code(_relabel_map(m, rng)) == code


@pytest.mark.parametrize("name,m", corpus_maps())
def test_map_code_identifies_mirror(name, m):
    assert map_canonical_code(mirror(m)) == map_canonical_code(m)
    assert maps_isomorphic(mirror(m), m)


def test_different_maps_have_different_codes():
    distinct = [m for _, m in corpus_maps()]
    codes = [map_canonical_code(m) for m in distinct]
    assert len(set(codes)) == len(codes)


def test_map_code_separates_same_graph_different_embedding():
    planar = k4()
    toroidal = from_rotation(
        {1: [2, 3, 4], 2: [1, 3, 4], 3: [1, 2, 4], 4: [1, 2, 3]},
        require_planar=False)
    assert graphs_isomorphic(underlying_graph(planar),
                             underlying_graph(toroidal))
    assert map_canonical_code(planar) != map_canonical_code(toroidal)


def _relabel_graph(g: SimpleGraph, rng: random.Random) -> SimpleGraph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = frozenset(
        (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g.edges)
    return SimpleGraph(g.n, edges)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=50, deadline=None)
def test_graph_code_is_relabel_invariant(seed):
    rng = random.Random(seed)
    g = underlying_graph(apollonian_from_draws(
        [rng.randrange(10 ** 6) for _ in range(rng.randrange(6))]))
    assert graph_canonical_code(_relabel_graph(g, rng)) == \
        graph_canonical_code(g)


def test_graph_iso_negative_same_degree_sequence():
    # hexagon vs two disjoint triangles: both 2-regular on 6 vertices
    hexagon = SimpleGraph(6, frozenset(
        (min(i, (i + 1) % 6), max(i, (i + 1) % 6)) for i in range(6)))
    triangles = SimpleGraph(6, frozenset(
        [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]))
    assert not graphs_isomorphic(hexagon, triangles)


def test_graph_iso_transitivity_spot_check():
    g = underlying_graph(cube())
    rng = random.Random(3)
    a = _relabel_graph(g, rng)
    b = _relabel_graph(a, rng)
    assert graphs_isomorphic(g, a)
    assert graphs_isomorphic(a, b)
    assert graphs_isomorphic(g, b)


def test_graph_code_too_large():
    n = 45
    edges = frozenset((i, i + 1) for i in range(n - 1))
    with pytest.raises(TooLarge):
        graph_canonical_code(SimpleGraph(n, edges))


def test_truncated_tetrahedron_fixture():
    # independent construction: vertices are ordered pairs (i, j) of
    # distinct K4 vertices; (i,j)-(j,i) plus (i,j)-(i,l) around i
    names = [(i, j) for i in range(4) for j in range(4) if i != j]
    index = {p: k for k, p in enumerate(names)}
    edges = set()
    for i, j in names:
        edges.add(tuple(sorted((index[(i, j)], index[(j, i)]))))
        for l in range(4):
            if l not in (i, j):
                edges.add(tuple(sorted((index[(i, j)], index[(i, l)]))))
    fixture = SimpleGraph(12, frozenset(edges))

    from cdclab.surgery import complete_truncation
    out, _ = complete_truncation(k4())
    assert graphs_isomorphic(underlying_graph(out), fixture)


@pytest.mark.parametrize("name,m", corpus_maps())
def test_verify_square_on_corpus(name, m):
    report = verify_square(m)
    assert report.isomorphic, name
    assert report.phi_valid, name
    assert report.passed, name
    assert report.code_a == report.code_b, name


def test_verify_square_requires_3_connected():
    square = from_rotation({1: [2, 4], 2: [3, 1], 3: [4, 2], 4: [1, 3]})
    with pytest.raises(NotThreeConnected):
        verify_square(square)


def test_verify_square_on_random_apollonian():
    rng = random.Random(11)
    for _ in range(5):
        m = apollonian_from_draws(
            [rng.randrange(10 ** 6) for _ in range(rng.randrange(1, 9))])
        assert verify_square(m).passed


@pytest.mark.parametrize("name,m", corpus_maps())
def test_cross_check_isomorphism(name, m):
    rng = random.Random(5)
    other = _relabel_map(m, rng)
    assert cross_check_isomorphism(m, other)
