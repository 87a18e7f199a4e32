"""Stacked triangulations: generation, recognition, duals, edge classes.

An Apollonian network grows from K4 by repeatedly planting a new
vertex inside a triangular face.  Recognition runs the construction
backwards; greedy removal is safe for these graphs (planar 3-trees)
and a randomized-order test backs that choice empirically.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from functools import cache
from heapq import heappop, heappush
from random import Random
from typing import NamedTuple, Sequence

from .corpus import MAX_SIZE, k4
from .errors import BadSelector, NotApollonian
from .planar_map import (
    PlanarMap,
    SimpleGraph,
    _dart_numbering,
    dualize,
)


@cache
def _base() -> PlanarMap:
    return k4()


def random_stacks(count: int, seed: int | None) -> list[int]:
    """A reproducible random stacking sequence of the given length.

    Stacking turns one triangle into three, so before step ``i`` the
    network has ``4 + 2i`` faces, and step ``i`` draws its face index
    uniformly from them.  A (count, seed) pair therefore names one
    network, and no map is built to draw the sequence.
    """
    if count < 0:
        raise BadSelector(f"negative stack count {count}")
    if count > MAX_SIZE:
        raise BadSelector(
            f"stack count {count} is over the cap of {MAX_SIZE}")
    rng = Random(seed)
    return [rng.randrange(4 + 2 * i) for i in range(count)]


def _dart_key(u: int, v: int) -> tuple[int, int, bool]:
    """Sort key of the dart u->v, in the dart order of ``_dart_numbering``."""
    return (u, v, False) if u < v else (v, u, True)


def _stacked_rotation(stacks: Sequence[int] | int,
                      seed: int | None) -> list[list[int]]:
    """Counterclockwise neighbour rows, by internal id, of the network
    that ``stacks`` names (see :func:`generate_apollonian`).

    Dart order, and with it the canonical face order, depends only on
    endpoint ids, which stacking never changes, so the faces are kept
    sorted by the key of their smallest dart instead of being
    re-traced.  A new triangle's smallest dart is the edge it keeps
    from the face it replaces.
    """
    if isinstance(stacks, int):
        stacks = random_stacks(stacks, seed)
    base = _base()
    rotation = base.rotation_lists()
    # (key of the smallest dart, boundary walk starting at that dart)
    faces = [(_dart_key(*f.boundary[:2]), f.boundary) for f in base.faces]
    for step, choice in enumerate(stacks):
        if not (isinstance(choice, int) and 0 <= choice < len(faces)):
            raise BadSelector(
                f"step {step}: face {choice} out of range "
                f"(map has {len(faces)} faces)")
        _, walk = faces.pop(choice)
        apex = len(rotation)
        for i, v in enumerate(walk):
            prev = walk[i - 1]
            row = rotation[v]
            row.insert(row.index(prev) + 1, apex)
            insort(faces, (_dart_key(prev, v), (prev, v, apex)))
        rotation.append(list(reversed(walk)))
    return rotation


def generate_apollonian(
    stacks: Sequence[int] | int,
    *,
    seed: int | None = None,
) -> PlanarMap:
    """Build an Apollonian network by face stacking.

    ``stacks`` is either an explicit sequence of face indices (each
    indexing the canonical face order of the map at that step) or a
    count, in which case faces are drawn by :func:`random_stacks`.  The
    empty sequence gives K4, and vertices are labelled ``1..n`` in the
    order they were planted.

    The result equals a chain of :func:`~cdclab.surgery.augment_face`
    calls, but the network grows in one rotation table whose darts are
    numbered once at the end.  Stacking into a face of a triangulation
    keeps it a 3-connected planar triangulation, so neither the steps
    nor the result are validated again.
    """
    rotation = _stacked_rotation(stacks, seed)
    return PlanarMap._derived(*_dart_numbering(rotation),
                              range(1, len(rotation) + 1))


def _stacked_graph(stacks: Sequence[int] | int,
                   seed: int | None) -> SimpleGraph:
    """``underlying_graph(generate_apollonian(stacks, seed=seed))``,
    with no darts numbered: the edge sweep reads only the graph."""
    rotation = _stacked_rotation(stacks, seed)
    return SimpleGraph(len(rotation), frozenset(
        (v, w) for v, row in enumerate(rotation) for w in row if v < w))


def apollonian_dual(stacks: Sequence[int] | int, *,
                    seed: int | None = None) -> PlanarMap:
    """Dual of the generated network: always cubic and 3-connected."""
    return dualize(generate_apollonian(stacks, seed=seed))


def _unstack(g: SimpleGraph) -> list[tuple[int, int, int]] | None:
    """Unstack ``g`` down to K4: the sorted neighbourhood of each removed
    vertex, or None when ``g`` does not reduce to K4.

    Each neighbourhood is the triangle its vertex was stacked into, so
    for an Apollonian network they are exactly its separating triangles.
    A vertex is removable when it has degree 3 and its neighbours are
    mutually adjacent.  Unstacking only deletes vertices, so degrees only
    fall, and a vertex of degree 3 stays removable, or not, until one of
    its neighbours goes.  A min-heap therefore holds the removable
    vertices, each pushed when it reaches degree 3, and every step pops
    the least one, skipping those that have lost a neighbour since.
    Removing a vertex whose neighbours form a triangle never empties or
    splits a component, so a disconnected graph never reduces to K4.
    """
    adj = [set(g.adjacency[v]) for v in range(g.n)]

    def removable(v: int) -> bool:
        if len(adj[v]) != 3:
            return False
        a, b, c = adj[v]
        return b in adj[a] and c in adj[a] and c in adj[b]

    # Ascending, so already a heap.
    heap = [v for v in range(g.n) if removable(v)]
    removed: list[tuple[int, int, int]] = []
    left, edges = g.n, len(g.edges)
    while left > 4 and heap:
        v = heappop(heap)
        nbrs = adj[v]
        if len(nbrs) != 3:
            continue
        removed.append(tuple(sorted(nbrs)))
        left, edges = left - 1, edges - 3
        for u in nbrs:
            adj[u].discard(v)
            if removable(u):
                heappush(heap, u)
    # K4 is the only simple graph with 4 vertices and 6 edges.
    return removed if (left, edges) == (4, 6) else None


def is_apollonian(g: SimpleGraph) -> bool:
    """Whether ``g`` reduces to K4 by unstacking degree-3 vertices."""
    return _unstack(g) is not None


@dataclass(frozen=True)
class Triangle:
    vertices: tuple[int, int, int]
    separating: bool


@dataclass(frozen=True)
class TriangleSet:
    """All induced triangles of a graph, flagged by the cut test."""

    triangles: tuple[Triangle, ...]

    @property
    def separating(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(t.vertices for t in self.triangles if t.separating)


def separating_triangles(g: SimpleGraph) -> TriangleSet:
    """Classify every triangle by whether deleting it disconnects ``g``."""
    adj = g.adjacency
    out: list[Triangle] = []
    for u in range(g.n):
        for v in adj[u]:
            if v <= u:
                continue
            for w in adj[u] & adj[v]:
                if w <= v:
                    continue
                separating = not g.is_connected(without=(u, v, w))
                out.append(Triangle((u, v, w), separating))
    return TriangleSet(tuple(out))


class EdgeClass(NamedTuple):
    edge: tuple[int, int]
    degree_three: bool
    in_separating_triangle: bool

    @property
    def ok(self) -> bool:
        return self.degree_three or self.in_separating_triangle


@dataclass(frozen=True)
class ClassificationReport:
    """Per-edge check: separating triangle or degree-3 endpoint."""

    entries: tuple[EdgeClass, ...]

    @property
    def passed(self) -> bool:
        return all(e.ok for e in self.entries)


def check_edge_classification(g: SimpleGraph) -> ClassificationReport:
    """Classify each edge of an Apollonian network.

    Every edge must lie in a separating triangle or touch a vertex of
    degree three; inputs failing :func:`is_apollonian` are rejected.
    The separating triangles are read off the one unstacking that
    recognises the network, not found by a cut test per triangle.
    """
    triangles = _unstack(g)
    if triangles is None:
        raise NotApollonian("edge classification is stated for "
                            "Apollonian networks")
    covered = {e for a, b, c in triangles for e in ((a, b), (a, c), (b, c))}
    cubic = {v for v, nbrs in g.adjacency.items() if len(nbrs) == 3}
    return ClassificationReport(tuple(
        EdgeClass((u, v), u in cubic or v in cubic, (u, v) in covered)
        for u, v in sorted(g.edges)))
