"""Maps, faces, duals, genus, and connectivity."""

import random

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
from cdclab.errors import (
    Disconnected,
    NonPlanarEmbedding,
    NonSymmetricAdjacency,
    NotSimple,
    OddEulerDefect,
    TooSmall,
)
from cdclab.planar_map import (
    PlanarMap,
    SimpleGraph,
    alpha,
    dualize,
    from_rotation,
    is_3_connected,
    mirror,
    underlying_graph,
)
from cdclab.surgery import (
    augment_face,
    complete_augmentation,
    complete_truncation,
    truncate_vertex,
)

from conftest import (
    TOROIDAL_K7,
    TORUS_K4,
    apollonian_from_draws,
    corpus_maps,
)


def test_k4_counts():
    m = k4()
    assert (m.vertex_count, m.edge_count, m.face_count) == (4, 6, 4)
    assert m.euler_genus() == 0
    assert all(len(f.darts) == 3 for f in m.faces)


def test_alpha_is_a_fixed_point_free_involution():
    m = cube()
    for d in range(2 * m.edge_count):
        assert alpha(d) != d
        assert alpha(alpha(d)) == d


def test_face_of_dart_partitions_darts():
    m = octahedron()
    seen = set()
    for f in m.faces:
        for d in f.darts:
            assert m.face_of_dart(d) == f.index
            seen.add(d)
    assert seen == set(range(2 * m.edge_count))


@pytest.mark.parametrize("name,m", corpus_maps())
def test_corpus_is_planar_and_3_connected(name, m):
    assert m.euler_genus() == 0
    assert is_3_connected(m)


def test_ascending_k4_rotation_is_toroidal():
    # same graph as k4(), different rotation: the embedding has genus 1
    with pytest.raises(NonPlanarEmbedding):
        from_rotation(TORUS_K4)
    m = from_rotation(TORUS_K4, require_planar=False)
    assert m.face_count == 2
    assert m.euler_genus() == 1


def test_mirror_of_k4_is_planar():
    rows = k4().rotation_lists()
    mirrored = from_rotation({v: list(reversed(r))
                              for v, r in enumerate(rows)})
    assert mirrored.euler_genus() == 0


def test_dual_of_a_toroidal_map_is_refused():
    # the toroidal K7 has a simple dual, so only the genus check stops it
    m = from_rotation(TOROIDAL_K7, require_planar=False)
    assert m.euler_genus() == 1
    faces = [{m.face_of_dart(d), m.face_of_dart(d ^ 1)}
             for d in range(0, m.dart_count, 2)]
    assert all(len(pair) == 2 for pair in faces)
    assert len({frozenset(pair) for pair in faces}) == m.edge_count
    with pytest.raises(NonPlanarEmbedding,
                       match="rotation system has Euler genus 1, not 0"):
        dualize(m)


def _derived_maps():
    """Every kind of map the library derives from a validated one:
    stacked networks, duals, mirrors and surgery outputs."""
    corpus = [select(name) for name in default_census_corpus()]
    stacked = [generate_apollonian(k, seed=s)
               for k in (0, 1, 2, 5, 20, 100) for s in range(10)]
    maps = corpus + stacked + [dualize(m) for m in stacked] + \
        [mirror(m) for m in stacked]
    for host in corpus:
        maps += [complete_truncation(host)[0], complete_augmentation(host)[0]]
        maps += [augment_face(host, f)[0] for f in range(host.face_count)]
        maps += [truncate_vertex(host, v)[0]
                 for v in range(host.vertex_count)]
    return maps


def _assert_same_as_validated(m, *, planar=True):
    full = PlanarMap(m.sigma, m.vertex_of, m.labels, require_planar=planar)
    assert (m.sigma, m.vertex_of, m.labels) == \
        (full.sigma, full.vertex_of, full.labels)
    assert m.faces == full.faces
    assert [m.darts_of_vertex(v) for v in range(m.vertex_count)] == \
        [full.darts_of_vertex(v) for v in range(full.vertex_count)]


def test_derived_maps_equal_their_validated_rebuilds():
    # derived maps skip validation; the full constructor must accept
    # each of them and agree on every slot, faces included
    for m in _derived_maps():
        _assert_same_as_validated(m)
    for rotation in (TOROIDAL_K7, TORUS_K4):
        m = from_rotation(rotation, require_planar=False)
        flipped = mirror(m)
        assert flipped.euler_genus() == 1
        assert [flipped.sigma[e] for e in m.sigma] == list(range(m.dart_count))
        _assert_same_as_validated(flipped, planar=False)


def test_derived_maps_check_their_labels():
    m = generate_apollonian(3, seed=0)
    labels = [10 * v + 3 for v in reversed(range(m.vertex_count))]
    relabelled = PlanarMap._derived(m.sigma, m.vertex_of, labels)
    assert relabelled.labels == tuple(labels)
    _assert_same_as_validated(relabelled)
    for bad in (labels[1:], labels[:-1] + labels[:1]):
        for build in (PlanarMap._derived, PlanarMap):
            with pytest.raises(OddEulerDefect,
                               match="labels must name each vertex once"):
                build(m.sigma, m.vertex_of, bad)


def test_loop_is_rejected():
    with pytest.raises(NotSimple):
        from_rotation({1: [1, 1, 2], 2: [1]}, require_planar=False)


def test_parallel_edge_is_rejected():
    with pytest.raises(NotSimple):
        from_rotation({1: [2, 2], 2: [1, 1]}, require_planar=False)


def test_asymmetric_adjacency_is_rejected():
    with pytest.raises(NonSymmetricAdjacency):
        from_rotation({1: [2], 2: []}, require_planar=False)


def test_disconnected_input_is_rejected():
    two_triangles = {
        1: [2, 3], 2: [3, 1], 3: [1, 2],
        4: [5, 6], 5: [6, 4], 6: [4, 5],
    }
    with pytest.raises(Disconnected):
        from_rotation(two_triangles, require_planar=False)


def test_rotation_lists_roundtrip():
    for name, m in corpus_maps():
        rows = m.rotation_lists()
        rebuilt = from_rotation({v: row for v, row in enumerate(rows)})
        assert rebuilt.sigma == m.sigma, name
        assert rebuilt.vertex_of == m.vertex_of, name


def test_dual_swaps_vertices_and_faces():
    for name, m in corpus_maps():
        d = dualize(m)
        assert d.vertex_count == m.face_count, name
        assert d.face_count == m.vertex_count, name
        assert d.edge_count == m.edge_count, name
        assert d.euler_genus() == 0, name


def test_double_dual_restores_sigma_exactly():
    # vertex ids may be renumbered (they follow dual face tracing
    # order), but the rotation permutation itself comes back intact
    for name, m in corpus_maps():
        dd = dualize(dualize(m))
        assert dd.sigma == m.sigma, name
        partition = {}
        for d in range(2 * m.edge_count):
            partition.setdefault(dd.vertex_of[d], set()).add(d)
        original = {}
        for d in range(2 * m.edge_count):
            original.setdefault(m.vertex_of[d], set()).add(d)
        assert sorted(map(sorted, partition.values())) == \
            sorted(map(sorted, original.values())), name


def test_dual_edges_match_face_adjacency():
    # oracle: recompute dual adjacency from shared primal edges
    for name, m in corpus_maps():
        d = dualize(m)
        dual_edges = set(d.edges())
        expected = set()
        for i in range(m.edge_count):
            fa = m.face_of_dart(2 * i)
            fb = m.face_of_dart(2 * i + 1)
            expected.add((fa, fb) if fa < fb else (fb, fa))
        assert dual_edges == expected, name


def test_cube_dual_is_octahedron_shape():
    d = dualize(cube())
    assert d.vertex_count == 6
    assert sorted(d.degree(v) for v in range(6)) == [4] * 6


def _pair_deletion_3_connected(g: SimpleGraph) -> bool:
    """Brute-force oracle: no 1- or 2-vertex cut, n >= 4, min degree 3."""
    if g.n < 4:
        raise TooSmall("need at least 4 vertices")
    if not g.is_connected():
        return False
    if min(g.degree(v) for v in range(g.n)) < 3:
        return False
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not g.is_connected(without=(u, v)):
                return False
    return True


def test_is_3_connected_matches_pair_deletion_oracle():
    cases = [m for _, m in corpus_maps()]
    cases.append(apollonian_from_draws([0, 3, 1, 7]))
    # negatives: a 6-cycle and K4 minus an edge
    cases.append(from_rotation({i: [(i + 1) % 6, (i - 1) % 6]
                                for i in range(6)}))
    cases.append(from_rotation({0: [1, 2], 1: [0, 2, 3], 2: [0, 3, 1],
                                3: [1, 2]}))
    # negatives of minimum degree 3: two K4s glued at vertex 3, so
    # m - 3 falls apart, and two K4s sharing the edge (2, 3); keyed by
    # the shift that turns the first K4 into the second
    first = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    glued = {
        3: from_rotation({0: [1, 2, 3], 1: [0, 3, 2], 2: [0, 1, 3],
                          3: [0, 2, 1, 4, 5, 6], 4: [3, 6, 5],
                          5: [3, 4, 6], 6: [3, 5, 4]}),
        2: from_rotation({0: [1, 2, 3], 1: [0, 3, 2], 2: [0, 1, 3, 4, 5],
                          3: [0, 5, 4, 2, 1], 4: [2, 3, 5], 5: [2, 4, 3]}),
    }
    for shift, m in glued.items():
        g = underlying_graph(m)
        assert g.edges == frozenset(first + [(u + shift, v + shift)
                                             for u, v in first])
        assert min(g.degree(v) for v in range(g.n)) == 3
        assert not _pair_deletion_3_connected(g)
    for m in cases + list(glued.values()):
        assert is_3_connected(m) == \
            _pair_deletion_3_connected(underlying_graph(m))


def test_is_3_connected_rejects_tiny_graphs():
    with pytest.raises(TooSmall):
        is_3_connected(from_rotation({0: [1, 2], 1: [2, 0], 2: [0, 1]}))


def _without_edges(m: PlanarMap, edges) -> PlanarMap:
    rows = m.rotation_lists()
    for u, v in edges:
        rows[u].remove(v)
        rows[v].remove(u)
    return from_rotation(dict(enumerate(rows)))


def test_face_criterion_matches_pair_deletion():
    # stacked networks and their duals, every one-edge deletion of
    # them, and every two-edge deletion of those with up to 8 vertices
    hosts = set()
    for k in range(8):
        for s in range(6):
            m = generate_apollonian(k, seed=s)
            hosts |= {m, dualize(m)}
    maps = set(hosts)
    for m in hosts:
        edges = m.edges()
        maps |= {_without_edges(m, [e]) for e in edges}
        if m.vertex_count <= 8:
            maps |= {_without_edges(m, [e, f]) for i, e in enumerate(edges)
                     for f in edges[i + 1:]}
    # a triangle with a tail: its one face visits 1, 2 and 4 twice,
    # yet the radial graph has as many 4-cycles as the map has edges
    maps.add(from_rotation({0: [4], 1: [2, 4], 2: [1, 3, 5], 3: [2, 5],
                            4: [0, 1], 5: [2, 3]}))
    verdicts = [is_3_connected(m) for m in maps]
    assert verdicts == [_pair_deletion_3_connected(underlying_graph(m))
                        for m in maps]
    assert (len(maps), sum(verdicts)) == (4059, 750)


def test_maps_of_positive_genus_are_refused():
    # the face criterion holds on the sphere only: the faces of K4 on
    # the torus pass every vertex twice, yet K4 is 3-connected
    torus_k4 = from_rotation(TORUS_K4, require_planar=False)
    assert any(len(set(f.boundary)) < len(f) for f in torus_k4.faces)
    for m in (torus_k4, from_rotation(TOROIDAL_K7, require_planar=False)):
        with pytest.raises(NonPlanarEmbedding,
                           match="rotation system has Euler genus 1, not 0"):
            is_3_connected(m)


def test_mirror_involution_and_genus():
    for name, m in corpus_maps():
        mm = mirror(mirror(m))
        assert mm.sigma == m.sigma, name
        assert mirror(m).euler_genus() == 0, name


def _random_rotation_of_k5(rng: random.Random) -> dict[int, list[int]]:
    adjacency = {}
    for v in range(5):
        others = [u for u in range(5) if u != v]
        rng.shuffle(others)
        adjacency[v] = others
    return adjacency


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_k5_has_no_genus_zero_rotation(seed):
    # K5 is not planar, so every rotation system has positive genus
    m = from_rotation(_random_rotation_of_k5(random.Random(seed)),
                      require_planar=False)
    assert m.euler_genus() >= 1


@given(st.lists(st.integers(0, 10 ** 6), max_size=10))
@settings(max_examples=40, deadline=None)
def test_apollonian_maps_satisfy_euler_formula(draws):
    m = apollonian_from_draws(draws)
    k = len(draws)
    assert m.vertex_count == 4 + k
    assert m.edge_count == 6 + 3 * k
    assert m.face_count == 4 + 2 * k
    assert m.vertex_count - m.edge_count + m.face_count == 2
    g = underlying_graph(m)
    assert sum(g.degree(v) for v in range(g.n)) == 2 * m.edge_count


def test_wheel_counts():
    for n in (4, 5, 6):
        m = wheel(n)
        assert m.vertex_count == n + 1
        assert m.edge_count == 2 * n
        assert m.face_count == n + 1


def test_prism_counts():
    for n in (3, 4, 5):
        m = prism(n)
        assert m.vertex_count == 2 * n
        assert m.edge_count == 3 * n
        assert m.face_count == n + 2
