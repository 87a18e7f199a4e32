"""Augmentation, truncation, and their correspondence tables."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdclab.apollonian import generate_apollonian
from cdclab.corpus import (
    cube,
    default_census_corpus,
    k4,
    prism,
    select,
    wheel,
)
from cdclab.errors import NonPlanarEmbedding, NotThreeConnected
from cdclab.io_formats import correspondence_to_json, dumps
from cdclab.iso import maps_isomorphic
from cdclab.planar_map import (
    dualize,
    from_rotation,
    is_3_connected,
    normalize_edge,
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


def test_complete_truncation_of_k4_counts():
    out, _ = complete_truncation(k4())
    assert (out.vertex_count, out.edge_count, out.face_count) == (12, 18, 8)
    assert sorted(len(f.darts) for f in out.faces) == [3, 3, 3, 3, 6, 6, 6, 6]


def test_complete_augmentation_of_cube_counts():
    out, _ = complete_augmentation(cube())
    assert (out.vertex_count, out.edge_count, out.face_count) == (14, 36, 24)


def test_complete_augmentation_of_k4_counts():
    out, _ = complete_augmentation(k4())
    assert (out.vertex_count, out.edge_count, out.face_count) == (8, 18, 12)


def test_single_truncation_of_k4():
    out, corr = truncate_vertex(k4(), 0)
    assert (out.vertex_count, out.edge_count, out.face_count) == (6, 9, 5)
    assert sorted(len(f.darts) for f in out.faces) == [3, 3, 4, 4, 4]
    assert len(corr.vertex_faces) == 1
    cycle = corr.vertex_faces[0]
    assert len(cycle) == 3
    for w in cycle:
        assert out.degree(w) == 3


def test_single_augmentation_of_k4():
    m = k4()
    out, corr = augment_face(m, 0)
    assert (out.vertex_count, out.edge_count, out.face_count) == (5, 9, 6)
    apex = corr.face_faces[0]
    assert out.degree(apex) == 3
    assert all(len(f.darts) == 3 for f in out.faces)


@pytest.mark.parametrize("name,m", corpus_maps())
def test_complete_augmentation_properties(name, m):
    out, corr = complete_augmentation(m)
    assert out.vertex_count == m.vertex_count + m.face_count
    assert out.edge_count == 3 * m.edge_count
    assert out.face_count == 2 * m.edge_count
    assert all(len(f.darts) == 3 for f in out.faces)
    assert out.euler_genus() == 0
    assert is_3_connected(out)
    # every apex is adjacent to exactly its face boundary
    g = underlying_graph(out)
    for face in m.faces:
        apex = corr.face_faces[face.index]
        assert g.neighbors(apex) == frozenset(face.boundary)


@pytest.mark.parametrize("name,m", corpus_maps())
def test_complete_truncation_properties(name, m):
    out, corr = complete_truncation(m)
    assert out.vertex_count == 2 * m.edge_count
    assert out.edge_count == 3 * m.edge_count
    assert out.face_count == m.face_count + m.vertex_count
    assert all(out.degree(v) == 3 for v in range(out.vertex_count))
    assert out.euler_genus() == 0
    assert is_3_connected(out)
    # vertex cycles have the original degrees as lengths
    assert sorted(len(c) for c in corr.vertex_faces.values()) == \
        sorted(m.degree(v) for v in range(m.vertex_count))


def test_truncation_correspondence_partitions_edges():
    m = prism(3)
    out, corr = complete_truncation(m)
    inherited = set(corr.inherited_edges.values())
    corner = set(corr.corner_edges.values())
    assert len(inherited) == m.edge_count
    assert len(corner) == 2 * m.edge_count
    assert not inherited & corner
    assert inherited | corner == set(out.edges())
    # each corner edge lies on the cycle of its vertex
    for (v, _), e in corr.corner_edges.items():
        cycle = corr.vertex_faces[v]
        assert set(e) <= set(cycle)


def test_truncation_face_faces_points_at_surviving_faces():
    m = cube()
    out, corr = complete_truncation(m)
    for face in m.faces:
        t_face = out.faces[corr.face_faces[face.index]]
        assert len(t_face.darts) == 2 * len(face.darts)
    vertex_face_indices = set(range(out.face_count)) - set(
        corr.face_faces.values())
    assert len(vertex_face_indices) == m.vertex_count


def test_truncation_faces_have_distinct_vertex_sets():
    # two faces of a 3-connected plane map share at most one edge, so
    # the truncation's face vertex sets differ and the faces of the
    # host's faces are found by their sets, apart from the corner faces
    hosts = [select(name) for name in default_census_corpus()]
    for k in (1, 5, 20):
        for seed in range(3):
            hosts.append(generate_apollonian(k, seed=seed))
            hosts.append(dualize(hosts[-1]))
    for m in hosts:
        out, corr = complete_truncation(m)
        face_sets = [frozenset(f.boundary) for f in out.faces]
        assert len(set(face_sets)) == out.face_count == \
            m.vertex_count + m.face_count
        images = list(corr.face_faces.values())
        assert len(set(images)) == len(images) == m.face_count
        corner_faces = {face_sets.index(frozenset(cycle))
                        for cycle in corr.vertex_faces.values()}
        assert len(corner_faces) == m.vertex_count
        assert not corner_faces & set(images)


def test_sequential_truncation_order_does_not_matter():
    # truncating vertices one at a time, in any order, matches the
    # simultaneous construction
    for m in (k4(), prism(3)):
        simultaneous, _ = complete_truncation(m)
        orders = [list(range(m.vertex_count)),
                  list(reversed(range(m.vertex_count)))]
        for order in orders:
            current = m
            position: list[int | None] = list(range(m.vertex_count))
            for v in order:
                internal = position[v]
                assert internal is not None
                current, _ = truncate_vertex(current, internal)
                for i, p in enumerate(position):
                    if p is None or i == v:
                        continue
                    if p > internal:
                        position[i] = p - 1
                position[v] = None
            assert maps_isomorphic(current, simultaneous)


def test_wheel_hub_truncation_is_a_prism():
    m = wheel(6)
    out, _ = truncate_vertex(m, 0)
    assert maps_isomorphic(out, prism(6))


def test_hexagonal_prism_face_augmentation():
    m = prism(6)
    inner = frozenset(range(6))
    face = next(f for f in m.faces if frozenset(f.boundary) == inner)
    out, corr = augment_face(m, face)
    apex = corr.face_faces[face.index]
    assert out.degree(apex) == 6
    assert out.vertex_count == 13
    assert out.face_count == m.face_count + 5


def test_augmentation_keeps_other_faces():
    m = cube()
    face = m.faces[0]
    out, _ = augment_face(m, face)
    untouched = sorted(
        tuple(sorted(f.boundary)) for f in m.faces if f.index != face.index)
    surviving = sorted(
        tuple(sorted(f.boundary)) for f in out.faces if len(f.darts) == 4)
    assert untouched == surviving


def test_surgery_requires_3_connected():
    square = from_rotation({1: [2, 4], 2: [3, 1], 3: [4, 2], 4: [1, 3]})
    with pytest.raises(NotThreeConnected):
        augment_face(square, 0)
    with pytest.raises(NotThreeConnected):
        complete_truncation(square)
    with pytest.raises(NotThreeConnected):
        complete_augmentation(square)


@pytest.mark.parametrize("surgery", [
    lambda m: augment_face(m, 0), complete_augmentation,
    complete_truncation, lambda m: truncate_vertex(m, 0)],
    ids=["augment_face", "complete_augmentation", "complete_truncation",
         "truncate_vertex"])
@pytest.mark.parametrize("rotation", [TORUS_K4, TOROIDAL_K7],
                         ids=["torus-k4", "toroidal-k7"])
def test_surgeries_refuse_a_host_of_positive_genus(surgery, rotation):
    # both hosts are 3-connected graphs, but no surgery output on the
    # torus would be the plane map the surgeries promise
    with pytest.raises(NonPlanarEmbedding,
                       match="rotation system has Euler genus 1, not 0"):
        surgery(from_rotation(rotation, require_planar=False))


def test_augment_then_check_inherited_edges_are_preserved():
    m = wheel(5)
    out, corr = complete_augmentation(m)
    g_out = underlying_graph(out)
    for e, img in corr.inherited_edges.items():
        assert e == img
        assert normalize_edge(*img) in g_out.edges


@given(st.lists(st.integers(0, 10 ** 6), min_size=0, max_size=8))
@settings(max_examples=30, deadline=None)
def test_truncation_of_apollonian_is_cubic_3_connected(draws):
    m = apollonian_from_draws(draws)
    out, _ = complete_truncation(m)
    assert all(out.degree(v) == 3 for v in range(out.vertex_count))
    assert out.euler_genus() == 0
    assert is_3_connected(out)


@given(st.lists(st.integers(0, 10 ** 6), min_size=0, max_size=8))
@settings(max_examples=30, deadline=None)
def test_augmentation_of_apollonian_is_a_triangulation(draws):
    m = apollonian_from_draws(draws)
    out, _ = complete_augmentation(m)
    assert all(len(f.darts) == 3 for f in out.faces)
    assert out.euler_genus() == 0


# SHA-256 over complete_augmentation and augment_face on every face of
# hosts with non-triangular faces: each output's sigma, vertex_of,
# labels and correspondence JSON.  A change here means an augmentation
# now numbers its apexes, darts or labels differently.
AUGMENTATION_DIGEST = (
    "91fd197fe8d37a3bb6733a3d58bde442c1e84b3a9e6639edf0034f9c0baea56f")


def test_augmentations_match_golden_digest():
    digest = hashlib.sha256()

    def feed(m, out, corr):
        digest.update(repr(out.sigma).encode())
        digest.update(repr(out.vertex_of).encode())
        digest.update(repr(out.labels).encode())
        digest.update(dumps(correspondence_to_json(corr, m, out)).encode())

    hosts = [select(name) for name in
             ("cube", "prism", "wheel:9", "apollonian-dual:0,1,2")]
    hosts += [dualize(generate_apollonian(20, seed=s)) for s in range(5)]
    for m in hosts:
        feed(m, *complete_augmentation(m))
        for face in m.faces:
            feed(m, *augment_face(m, face.index))
    assert digest.hexdigest() == AUGMENTATION_DIGEST
