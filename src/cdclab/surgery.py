"""Face augmentation and vertex truncation with correspondence tables.

Both surgeries edit rotation lists and number the darts of the result
directly.  Truncating a vertex or planting an apex in a face of a
3-connected planar map gives a 3-connected planar map again, so the
output is not re-validated; the host's 3-connectivity is checked once,
on entry.  One private ``_augment`` plants the apexes of a single face,
of every face, and of the duality square's augmented side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .errors import NotThreeConnected
from .planar_map import (
    Face,
    PlanarMap,
    _dart_numbering,
    alpha,
    is_3_connected,
    normalize_edge,
    require_face,
)

Edge = tuple[int, int]


@dataclass(frozen=True)
class Correspondence:
    """How pieces of the input map reappear in the surgery output.

    ``inherited_edges`` maps each input edge to its surviving image.
    ``corner_edges`` maps each (vertex, incident edge) corner of a
    truncated vertex to the new cycle edge that replaces it.
    ``vertex_faces`` maps each truncated vertex to the tuple of new
    vertices whose cycle bounds the face left behind.  ``face_faces``
    maps each input face index to its counterpart: a face index of the
    output for truncation, the apex vertex id for augmentation.
    ``vertex_map`` tracks surviving input vertices by id.
    """

    kind: str
    inherited_edges: dict[Edge, Edge] = field(default_factory=dict)
    corner_edges: dict[tuple[int, Edge], Edge] = field(default_factory=dict)
    vertex_faces: dict[int, tuple[int, ...]] = field(default_factory=dict)
    face_faces: dict[int, int] = field(default_factory=dict)
    vertex_map: dict[int, int] = field(default_factory=dict)


def _require_3_connected(m: PlanarMap) -> None:
    if not is_3_connected(m):
        raise NotThreeConnected("surgery requires a 3-connected host")


def augment_face(m: PlanarMap, f: Face | int) -> tuple[PlanarMap, Correspondence]:
    """Insert an apex vertex inside face ``f``, joined to its boundary.

    The face is subdivided into ``len(f)`` triangles; every other face
    is untouched.  The apex rotation runs against the face walk so the
    global orientation convention is preserved.
    """
    _require_3_connected(m)
    return _augment(m, [require_face(m, f)])


def complete_augmentation(m: PlanarMap) -> tuple[PlanarMap, Correspondence]:
    """Augment every face of ``m`` simultaneously.

    The result has V + F vertices and 3E edges, and every face is a
    triangle.  Apex for face ``i`` gets vertex id ``V + i``.
    """
    _require_3_connected(m)
    return _augment(m, m.faces)


def _augment(m: PlanarMap,
             faces: Sequence[Face]) -> tuple[PlanarMap, Correspondence]:
    """Plant an apex in each of ``faces`` of a host known 3-connected.

    The apex of ``faces[i]`` gets id ``V + i`` and label
    ``max(labels) + 1 + i``.  Each boundary vertex ``walk[j]`` takes it
    right after ``walk[j - 1]`` in its rotation (a face of a 3-connected
    map passes a vertex once, so apexes never share a gap), and the
    apex's rotation is the reversed walk.  Input ids are kept.
    """
    n = m.vertex_count
    rotation = m.rotation_lists()
    for i, face in enumerate(faces):
        walk = face.boundary
        for j, v in enumerate(walk):
            row = rotation[v]
            row.insert(row.index(walk[j - 1]) + 1, n + i)
        rotation.append(list(reversed(walk)))

    base = max(m.labels) + 1
    labels = m.labels + tuple(range(base, base + len(faces)))
    out = PlanarMap._derived(*_dart_numbering(rotation), labels)
    corr = Correspondence(
        kind="augment",
        inherited_edges={e: e for e in m.edges()},
        face_faces={face.index: n + i for i, face in enumerate(faces)},
        vertex_map={v: v for v in range(n)},
    )
    return out, corr


def truncate_vertex(m: PlanarMap, v: int) -> tuple[PlanarMap, Correspondence]:
    """Replace vertex ``v`` by a cycle of new vertices, one per corner.

    Each incident edge {v, u} is re-attached to the new vertex sitting
    in its corner; consecutive corners (in rotation order) are joined.
    Surviving vertices are re-indexed densely (ids above ``v`` shift
    down by one); the new cycle takes the top ids in rotation order.
    """
    _require_3_connected(m)
    m._check_vertex(v)
    n = m.vertex_count
    rotations = m.rotation_lists()
    ring = rotations[v]
    k = len(ring)

    def keep(u: int) -> int:
        return u if u < v else u - 1

    def w_id(j: int) -> int:
        return (n - 1) + (j % k)

    # surviving vertices in id order, then the new cycle
    rows = [[w_id(ring.index(u)) if x == v else keep(x) for x in rotations[u]]
            for u in range(n) if u != v]
    rows += [[keep(u), w_id(j + 1), w_id(j - 1)] for j, u in enumerate(ring)]
    base = max(m.labels) + 1
    labels = m.labels[:v] + m.labels[v + 1:] + tuple(range(base, base + k))
    out = PlanarMap._derived(*_dart_numbering(rows), labels)

    ring_edges = [normalize_edge(v, u) for u in ring]
    inherited: dict[Edge, Edge] = {}
    for e in m.edges():
        if v in e:
            u = e[0] if e[1] == v else e[1]
            inherited[e] = normalize_edge(w_id(ring.index(u)), keep(u))
        else:
            inherited[e] = normalize_edge(keep(e[0]), keep(e[1]))
    corr = Correspondence(
        kind="truncate",
        inherited_edges=inherited,
        corner_edges={
            (v, ring_edges[j]): normalize_edge(w_id(j), w_id(j + 1))
            for j in range(k)},
        vertex_faces={v: tuple(w_id(j) for j in range(k))},
        vertex_map={u: keep(u) for u in range(n) if u != v},
    )
    return out, corr


def complete_truncation(m: PlanarMap) -> tuple[PlanarMap, Correspondence]:
    """Truncate every vertex of ``m`` in one simultaneous pass.

    The output vertex set is the dart set of ``m``: the corner (v, e)
    becomes the dart of e with tail v.  Its three neighbors are the
    opposite dart (inherited edge) and the two rotation neighbors
    (corner-cycle edges), so the result is cubic with 2E vertices and
    3E edges.  A single pass makes the vertex processing order moot;
    order-invariance against sequential truncation is checked by test.
    """
    _require_3_connected(m)
    return _complete_truncation(m)


def _complete_truncation(m: PlanarMap) -> tuple[PlanarMap, Correspondence]:
    """:func:`complete_truncation` on a host known to be 3-connected."""
    sigma = m.sigma
    sigma_inv = [0] * m.dart_count
    for d, e in enumerate(sigma):
        sigma_inv[e] = d

    out = PlanarMap._derived(*_dart_numbering(
        [[alpha(d), sigma[d], sigma_inv[d]] for d in range(m.dart_count)]))

    inherited: dict[Edge, Edge] = {
        m.edge_endpoints(i): (2 * i, 2 * i + 1)
        for i in range(m.edge_count)}
    corner: dict[tuple[int, Edge], Edge] = {}
    vertex_faces: dict[int, tuple[int, ...]] = {}
    for v in range(m.vertex_count):
        d0 = m.darts_of_vertex(v)[0]
        cycle = [d0]
        d = sigma[d0]
        while d != d0:
            cycle.append(d)
            d = sigma[d]
        vertex_faces[v] = tuple(cycle)
        for j, dj in enumerate(cycle):
            e = m.edge_endpoints(dj // 2)
            corner[(v, e)] = normalize_edge(dj, cycle[(j + 1) % len(cycle)])

    face_sets = {frozenset(f.boundary): f.index for f in out.faces}
    face_faces: dict[int, int] = {}
    for face in m.faces:
        support = frozenset(face.darts) | frozenset(
            alpha(d) for d in face.darts)
        face_faces[face.index] = face_sets[support]

    corr = Correspondence(
        kind="truncate",
        inherited_edges=inherited,
        corner_edges=corner,
        vertex_faces=vertex_faces,
        face_faces=face_faces,
    )
    return out, corr
