"""Canonical codes, isomorphism, and the commuting-square check."""

import random
import struct
import time
from collections import Counter
from itertools import combinations_with_replacement, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdclab.apollonian import generate_apollonian
from cdclab.corpus import (
    cube,
    default_census_corpus,
    k4,
    octahedron,
    prism,
    select,
    wheel,
)
from cdclab.errors import NotThreeConnected, TooLarge
from cdclab.iso import (
    graph_canonical_code,
    graphs_isomorphic,
    map_canonical_code,
    maps_isomorphic,
    verify_square,
)
from cdclab.planar_map import (
    SimpleGraph,
    dualize,
    from_rotation,
    mirror,
    normalize_edge,
    underlying_graph,
)
from cdclab.surgery import complete_augmentation, complete_truncation

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
    # poles 1 and 2 joined by an edge, by 2-paths via 3 and via 4, and
    # by a 3-path via 5 and 6; the two plane embeddings differ in
    # where the 3-path runs, so in the lengths of their faces
    rows = {3: [1, 2], 4: [1, 2], 5: [1, 6], 6: [5, 2]}
    one = from_rotation({1: [2, 3, 4, 5], 2: [1, 6, 4, 3], **rows})
    other = from_rotation({1: [2, 3, 5, 4], 2: [1, 4, 6, 3], **rows})
    assert underlying_graph(one) == underlying_graph(other)
    assert sorted(map(len, one.faces)) == [3, 4, 4, 5]
    assert sorted(map(len, other.faces)) == [3, 3, 5, 5]
    assert map_canonical_code(one) != map_canonical_code(other)
    assert not maps_isomorphic(one, other)


def _bfs_rows(perm: tuple[int, ...], start: int) -> list[tuple[int, int]]:
    """Dart relabeling rows for one (orientation, start) run.

    Row ``j`` is ``(label of perm(d), label of alpha(d))`` for the dart
    ``d`` labeled ``j``.
    """
    n = len(perm)
    label = [-1] * n
    order = [0] * n
    label[start] = 0
    order[0] = start
    assigned = 1
    rows: list[tuple[int, int]] = []
    for j in range(n):
        d = order[j]
        nxt, opp = perm[d], d ^ 1
        if label[nxt] < 0:
            label[nxt] = assigned
            order[assigned] = nxt
            assigned += 1
        if label[opp] < 0:
            label[opp] = assigned
            order[assigned] = opp
            assigned += 1
        rows.append((label[nxt], label[opp]))
    return rows


def _all_starts_code(m):
    """The map code as the least run over every start dart in both
    orientations, with no start pruned."""
    sigma_inv = [0] * m.dart_count
    for d, e in enumerate(m.sigma):
        sigma_inv[e] = d
    best = None
    for perm in (m.sigma, tuple(sigma_inv)):
        for start in range(m.dart_count):
            rows = _bfs_rows(perm, start)
            if best is None or rows < best:
                best = rows
    return b"M1" + struct.pack(">I", m.dart_count) + \
        b"".join(struct.pack(">HH", a, b) for a, b in best)


def test_map_code_matches_all_starts_reference():
    corpus = [select(name) for name in default_census_corpus()]
    stacked = [generate_apollonian(k, seed=s)
               for k in (0, 1, 2, 3, 5, 8, 13, 21, 30, 40) for s in range(4)]
    maps = corpus + stacked + [dualize(m) for m in stacked]
    for host in corpus + stacked[::8]:
        maps += [complete_truncation(host)[0], complete_augmentation(host)[0]]
    rng = random.Random(5)
    maps += [mirror(m) for m in maps[::3]] + \
        [_relabel_map(m, rng) for m in maps[1::3]]
    octa = octahedron()
    maps += [complete_augmentation(dualize(octa))[0],
             dualize(complete_truncation(octa)[0])]
    # Two octahedra, each with an edge stacked by vertex 6, joined at
    # 6: minimum degree 4, yet a start of degree 5 gives the code.
    maps.append(from_rotation({
        0: [1, 2, 3, 4, 6], 1: [0, 6, 4, 5, 2], 2: [0, 1, 5, 3],
        3: [0, 2, 5, 4], 4: [0, 3, 5, 1], 5: [1, 4, 3, 2],
        6: [0, 10, 11, 1], 10: [11, 12, 13, 14, 6], 11: [10, 6, 14, 15, 12],
        12: [10, 11, 15, 13], 13: [10, 12, 15, 14], 14: [10, 13, 15, 11],
        15: [11, 14, 13, 12]}))
    maps += [from_rotation({1: [2], 2: [1, 3], 3: [2, 4], 4: [3]}),
             from_rotation({i: [(i - 1) % 7, (i + 1) % 7] for i in range(7)}),
             from_rotation({0: [1, 2, 3, 4], 1: [0], 2: [0], 3: [0], 4: [0]})]
    lows = {min(m.degree(v) for v in range(m.vertex_count)) for m in maps}
    assert lows == {1, 2, 3, 4}
    for m in maps:
        assert map_canonical_code(m) == _all_starts_code(m)


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


def _brute_force_code(g: SimpleGraph) -> tuple:
    """The least lower-triangular adjacency row string over all n!
    vertex orderings, with the vertex count."""
    adj = g.adjacency
    return g.n, min(
        tuple(order[i] in adj[order[j]] for j in range(g.n) for i in range(j))
        for order in permutations(range(g.n)))


def test_graph_code_matches_brute_force_minimum():
    # every second graph is a relabelled copy of the one before, so
    # both directions of "iff" are exercised at every size
    rng = random.Random(2014)
    graphs = []
    for k in range(300):
        if k % 2:
            graphs.append(_relabel_graph(graphs[-1], rng))
            continue
        n = rng.randint(1, 7)
        graphs.append(SimpleGraph(n, frozenset(
            (u, v) for u in range(n) for v in range(u + 1, n)
            if rng.random() < 0.5)))
    by_code: dict = {}
    by_brute: dict = {}
    for g in graphs:
        code, brute = graph_canonical_code(g), _brute_force_code(g)
        assert by_code.setdefault(code, brute) == brute
        assert by_brute.setdefault(brute, code) == code
    # many isomorphism classes, and far fewer than graphs
    assert 40 < len(by_code) < 150


def test_graph_iso_agrees_with_map_path():
    # 3-connected planar graphs have one embedding up to reflection, so
    # map codes decide isomorphism (Whitney); the corpus holds
    # isomorphic pairs under different stacking sequences
    rng = random.Random(9)
    maps = [select(name) for name in default_census_corpus()]
    maps += [_relabel_map(m, rng) for _, m in corpus_maps()]
    graphs = [underlying_graph(m) for m in maps]
    agree = Counter()
    for a, b in combinations_with_replacement(range(len(maps)), 2):
        same = graphs_isomorphic(graphs[a], graphs[b])
        assert same == maps_isomorphic(maps[a], maps[b]), (a, b)
        agree[same] += 1
    assert agree[True] > len(maps) and agree[False] > 0


def _graph(n: int, edges) -> SimpleGraph:
    return SimpleGraph(n, frozenset(normalize_edge(u, v) for u, v in edges))


@pytest.mark.parametrize("stacks", [16, 20, 26])
@pytest.mark.parametrize("seed", range(5))
def test_graph_code_on_apollonian_networks(stacks, seed):
    # the tie-keeping ordering search raised TooLarge from 20 vertices
    g = underlying_graph(generate_apollonian(stacks, seed=seed))
    code = graph_canonical_code(g)
    rng = random.Random(seed)
    for _ in range(2):
        assert graph_canonical_code(_relabel_graph(g, rng)) == code


SYMMETRIC_GRAPHS = {
    "C40": _graph(40, [(i, (i + 1) % 40) for i in range(40)]),
    "Q4": _graph(16, [(v, v ^ 1 << b) for v in range(16) for b in range(4)]),
    "Petersen": _graph(10, [(i, (i + 1) % 5) for i in range(5)]
                       + [(i, i + 5) for i in range(5)]
                       + [(i + 5, (i + 2) % 5 + 5) for i in range(5)]),
    "K3,3": _graph(6, [(i, j) for i in range(3) for j in range(3, 6)]),
    "cube^t": underlying_graph(complete_truncation(cube())[0]),
}


@pytest.mark.parametrize("name", sorted(SYMMETRIC_GRAPHS))
def test_graph_code_on_symmetric_graphs(name):
    g = SYMMETRIC_GRAPHS[name]
    code = graph_canonical_code(g)
    assert code[:6] == b"G2" + g.n.to_bytes(4, "big")
    rng = random.Random(17)
    for _ in range(2):
        assert graph_canonical_code(_relabel_graph(g, rng)) == code


def test_graph_code_node_cap():
    # K10 has 10! leaves and no refinement splits it: the node cap must
    # end the search long before that
    k10 = _graph(10, [(i, j) for i in range(10) for j in range(i)])
    start = time.monotonic()
    with pytest.raises(TooLarge):
        graph_canonical_code(k10)
    assert time.monotonic() - start < 5


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
    # map isomorphism against a relabelled copy of each corpus map
    rng = random.Random(5)
    other = _relabel_map(m, rng)
    assert maps_isomorphic(m, other)
