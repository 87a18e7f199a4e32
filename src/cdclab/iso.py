"""Canonical codes and isomorphism tests for maps and small graphs.

Map codes relabel darts breadth-first from a (start dart, orientation)
pair and keep the lexicographic minimum over the starts at vertices of
minimum degree (every start when that degree exceeds 3), so two maps
get equal codes iff they are isomorphic up to reflection.  The starts
advance in lockstep, row by row, and each drops out at its first row
above the least; the code (format ``M1``) is the full run of the last
one left.  Graph codes keep the least adjacency bitstring over the
leaves of a colour refinement and individualisation search (format
``G2``; with no automorphism pruning, a node cap bounds highly
symmetric inputs).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .errors import NotThreeConnected, TooLarge
from .planar_map import (
    PlanarMap,
    SimpleGraph,
    dualize,
    is_3_connected,
    normalize_edge,
)
from .surgery import _augment, _complete_truncation

_MAP_CODE_VERSION = b"M1"
_GRAPH_CODE_VERSION = b"G2"


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


def _least_run(runs: list[tuple[tuple[int, ...], int]]
               ) -> tuple[tuple[int, ...], int]:
    """A run whose rows are least, found by advancing every run one row
    at a time and dropping each at the first row above that row's
    minimum.  Runs that tie to the end give the same rows."""
    n = len(runs[0][0])
    # Per run: perm, labels so far, darts in label order.
    live = [(perm, {start: 0}, [start]) for perm, start in runs]
    for j in range(n):
        if len(live) == 1:
            break
        low = n * n     # above every row (a, b), read as a * n + b
        for run in live:
            perm, label, order = run
            d = order[j]
            e = perm[d]
            a = label.get(e)
            if a is None:
                a = label[e] = len(order)
                order.append(e)
            e = d ^ 1
            b = label.get(e)
            if b is None:
                b = label[e] = len(order)
                order.append(e)
            row = a * n + b
            if row < low:
                low, keep = row, [run]
            elif row == low:
                keep.append(run)
        live = keep
    perm, _, order = live[0]
    return perm, order[0]


def map_canonical_code(m: PlanarMap) -> bytes:
    """Invariant byte code: equal codes iff maps are isomorphic.

    The code (``M1``) is the least run of :func:`_bfs_rows` over both
    global orientations, so mirror images compare equal, and over the
    start darts at vertices of the minimum degree when that degree is
    at most 3, else over every start dart.  Either way it is the least
    run over every start.  The candidate runs advance in lockstep, and
    only the last one left is built in full.
    """
    sigma = m.sigma
    sigma_inv = [0] * m.dart_count
    for d, e in enumerate(sigma):
        sigma_inv[e] = d
    # A map is simple, so rows 0-3 of a run depend only on the degree k
    # at the start dart: (0, 1) if k = 1 else (1, 2); (0, 3) if k = 2
    # else (3, 4); (5, 0) once every degree is at least 3; (0, 6) if
    # k = 3 else (6, 7).  For a minimum degree of at most 3, a start of
    # that degree beats any other start by row 3, in both orientations.
    degrees = [m.degree(v) for v in range(m.vertex_count)]
    low = min(degrees)
    starts = range(m.dart_count) if low > 3 else [
        d for v, k in enumerate(degrees) if k == low
        for d in m.darts_of_vertex(v)]
    best = _bfs_rows(*_least_run(
        [(perm, start) for perm in (sigma, tuple(sigma_inv))
         for start in starts]))
    payload = struct.pack(">I", m.dart_count)
    payload += b"".join(struct.pack(">HH", a, b) for a, b in best)
    return _MAP_CODE_VERSION + payload


def maps_isomorphic(m1: PlanarMap, m2: PlanarMap) -> bool:
    """Map isomorphism (reflections count as equal)."""
    if (m1.vertex_count, m1.edge_count) != (m2.vertex_count, m2.edge_count):
        return False
    return map_canonical_code(m1) == map_canonical_code(m2)


_NODE_CAP = 100_000
_MAX_N = 40


def _refine(adj: dict[int, set[int]],
            cells: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The coarsest equitable refinement of an ordered partition: split
    each cell by its vertices' sorted neighbour cells, in that order."""
    while True:
        cell_of = {v: i for i, cell in enumerate(cells) for v in cell}
        split: list[tuple[int, ...]] = []
        for cell in cells:
            if len(cell) == 1:
                split.append(cell)
                continue
            parts: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                key = tuple(sorted([cell_of[w] for w in adj[v]]))
                parts.setdefault(key, []).append(v)
            split.extend(tuple(parts[key]) for key in sorted(parts))
        if len(split) == len(cells):
            return cells
        cells = split


def graph_canonical_code(g: SimpleGraph) -> bytes:
    """Exact canonical form of a small abstract graph.

    Refines the unit partition, individualises each vertex of the first
    smallest non-singleton cell and recurses (McKay & Piperno, 2014);
    the code (G2) is the least lower-triangular adjacency bitstring over
    the discrete leaves.  No automorphism pruning: raises TooLarge past
    ``_MAX_N`` vertices or ``_NODE_CAP`` nodes (K8 takes 69,281).
    """
    if g.n > _MAX_N:
        raise TooLarge(f"graph code capped at {_MAX_N} vertices, got {g.n}")
    adj, size = g.adjacency, g.n * (g.n - 1) // 2
    stack = [_refine(adj, [tuple(range(g.n))] if g.n else [])]
    nodes, best = 1, 1 << size     # above every code of ``size`` bits
    while stack:
        cells = stack.pop()
        if len(cells) == g.n:
            pos = {cell[0]: i for i, cell in enumerate(cells)}
            best = min(best, sum(1 << (size - 1 - j * (j - 1) // 2 - pos[w])
                                 for j, (u,) in enumerate(cells)
                                 for w in adj[u] if pos[w] < j))
            continue
        k = min((len(c), i) for i, c in enumerate(cells) if len(c) > 1)[1]
        nodes += len(cells[k])
        if nodes > _NODE_CAP:
            raise TooLarge(f"canonical search passed {_NODE_CAP} nodes")
        for v in cells[k]:
            rest = tuple(w for w in cells[k] if w != v)
            stack.append(
                _refine(adj, cells[:k] + [(v,), rest] + cells[k + 1:]))
    return _GRAPH_CODE_VERSION + struct.pack(">I", g.n) + \
        best.to_bytes((size + 7) // 8, "big")


def graphs_isomorphic(g1: SimpleGraph, g2: SimpleGraph) -> bool:
    """Whether two abstract graphs admit an edge-preserving bijection."""
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return False
    if sorted(g1.degree(v) for v in range(g1.n)) != \
            sorted(g2.degree(v) for v in range(g2.n)):
        return False
    return graph_canonical_code(g1) == graph_canonical_code(g2)


@dataclass(frozen=True)
class SquareReport:
    """Outcome of the augmentation/truncation duality check.

    Side A is the complete augmentation of the dual; side B is the
    dual of the complete truncation.  ``isomorphic`` compares map
    codes; ``phi_valid`` checks the explicit vertex bijection built
    from the correspondence tables, edge by edge.
    """

    vertices: int
    edges: int
    isomorphic: bool
    phi_valid: bool
    code_a: str
    code_b: str
    phi: tuple[tuple[int, int], ...]

    @property
    def passed(self) -> bool:
        return self.isomorphic and self.phi_valid


def verify_square(m: PlanarMap) -> SquareReport:
    """Check that dualization commutes augmentation with truncation.

    Builds both sides for the host ``m``, compares canonical map
    codes, and independently validates the natural vertex bijection:
    faces of ``m`` pair the retained dual vertices with the face-faces
    of the truncation, and vertices of ``m`` pair the augmentation
    apexes with the corner cycles.

    3-connectivity is checked once, on ``m``: the dual of a
    3-connected planar map is 3-connected (Whitney), so both
    surgeries run without their own checks.
    """
    if not is_3_connected(m):
        raise NotThreeConnected("the square is stated for 3-connected hosts")
    dual = dualize(m)
    side_a, _ = _augment(dual, dual.faces)
    t_map, t_corr = _complete_truncation(m)
    side_b = dualize(t_map)

    code_a = map_canonical_code(side_a)
    code_b = map_canonical_code(side_b)

    # Vertex dictionary of side A: ids below F(m) are dual vertices
    # (faces of m); apex ids F(m) + fd stand for dual faces, and dual
    # face fd is the sigma orbit of a vertex of m.
    f_count = m.face_count
    vertex_of_dual_face = {
        f.index: m.vertex_of[f.darts[0]] for f in dual.faces}

    # Vertex dictionary of side B: ids are faces of the truncation;
    # face-faces realize faces of m, corner cycles realize vertices.
    t_face_index = {frozenset(f.boundary): f.index for f in t_map.faces}
    b_of_m_vertex = {
        v: t_face_index[frozenset(cycle)]
        for v, cycle in t_corr.vertex_faces.items()}

    phi: dict[int, int] = {}
    for a in range(side_a.vertex_count):
        if a < f_count:
            phi[a] = t_corr.face_faces[a]
        else:
            phi[a] = b_of_m_vertex[vertex_of_dual_face[a - f_count]]

    phi_valid = (
        side_a.vertex_count == side_b.vertex_count
        and sorted(phi.values()) == list(range(side_b.vertex_count))
        and {normalize_edge(phi[u], phi[v]) for u, v in side_a.edges()}
        == set(side_b.edges())
        and side_a.edge_count == side_b.edge_count)

    return SquareReport(
        vertices=side_a.vertex_count,
        edges=side_a.edge_count,
        isomorphic=code_a == code_b,
        phi_valid=phi_valid,
        code_a=code_a.hex(),
        code_b=code_b.hex(),
        phi=tuple(sorted(phi.items())),
    )


def cross_check_isomorphism(m1: PlanarMap, m2: PlanarMap) -> bool:
    """Graph-level isomorphism decided through the map-code path.

    Valid for 3-connected planar inputs, whose plane embedding is
    unique up to reflection; an alternative to the colour-refinement
    graph code.
    """
    if not (is_3_connected(m1) and is_3_connected(m2)):
        raise NotThreeConnected("map-code shortcut needs 3-connected inputs")
    return maps_isomorphic(m1, m2)
