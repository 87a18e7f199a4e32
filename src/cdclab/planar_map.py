"""Embedded graphs as combinatorial maps over darts.

A map on ``2E`` darts is a pair of permutations: the involution
``alpha`` swaps the two darts of each edge (dart ``d`` pairs with
``d ^ 1``, so edge ``i`` owns darts ``2i`` and ``2i + 1``) and
``sigma`` sends each dart to the next dart counterclockwise around
its tail vertex.  The composite ``phi(d) = sigma(alpha(d))`` walks
face boundaries, which makes faces, Euler genus, and the dual map
purely combinatorial notions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import (
    Disconnected,
    FaceNotInMap,
    NonPlanarEmbedding,
    NonSymmetricAdjacency,
    NotSimple,
    NotSimpleDual,
    OddEulerDefect,
    TooSmall,
    VertexNotInMap,
)


def alpha(dart: int) -> int:
    """Return the opposite dart of the same edge."""
    return dart ^ 1


@dataclass(frozen=True, slots=True)
class Face:
    """One face of a map.

    ``darts`` lists the boundary darts in face order starting from the
    smallest dart id; ``boundary`` lists the tail vertex of each dart,
    so it is the closed vertex walk of the boundary.
    """

    index: int
    darts: tuple[int, ...]
    boundary: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.darts)


class PlanarMap:
    """Immutable connected simple map, planar unless told otherwise.

    Vertices are ``0 .. vertex_count - 1``.  ``labels[v]`` carries an
    external integer name for vertex ``v``; operations that create
    vertices extend it.  Construction validates the permutation
    structure, simplicity, and connectivity, and rejects positive
    genus unless ``require_planar=False``.
    """

    __slots__ = ("_sigma", "_vertex_of", "_labels", "_vertex_count",
                 "_faces", "_face_of_dart", "_vertex_darts")

    def __init__(
        self,
        sigma: Sequence[int],
        vertex_of: Sequence[int],
        labels: Sequence[int] | None = None,
        *,
        require_planar: bool = True,
    ) -> None:
        sigma = tuple(sigma)
        vertex_of = tuple(vertex_of)
        n_darts = len(sigma)
        if n_darts == 0 or n_darts % 2:
            raise OddEulerDefect("a map needs a positive even number of darts")
        if len(vertex_of) != n_darts:
            raise OddEulerDefect("sigma and vertex_of disagree on dart count")
        if sorted(sigma) != list(range(n_darts)):
            raise OddEulerDefect("sigma is not a permutation of the darts")

        if sorted(set(vertex_of)) != list(range(max(vertex_of) + 1)):
            raise OddEulerDefect("vertex ids are not dense")

        self._fill(sigma, vertex_of, labels)
        # Each vertex's darts must form a single sigma cycle.
        for v, incident in enumerate(self._vertex_darts):
            d0 = incident[0]
            seen = 1
            d = sigma[d0]
            while d != d0:
                if vertex_of[d] != v or seen > len(incident):
                    raise OddEulerDefect(
                        f"darts of vertex {v} do not form one rotation cycle")
                seen += 1
                d = sigma[d]
            if seen != len(incident):
                raise OddEulerDefect(
                    f"darts of vertex {v} do not form one rotation cycle")

        seen_edges: set[tuple[int, int]] = set()
        for d in range(0, n_darts, 2):
            u, v = vertex_of[d], vertex_of[d + 1]
            if u == v:
                raise NotSimple(f"loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen_edges:
                raise NotSimple(f"repeated edge {key}")
            seen_edges.add(key)

        reached = {0}
        queue = deque([0])
        while queue:
            d = queue.popleft()
            for nxt in (sigma[d], d ^ 1):
                if nxt not in reached:
                    reached.add(nxt)
                    queue.append(nxt)
        if len(reached) != n_darts:
            raise Disconnected("the map is not connected")

        genus = self.euler_genus()
        if require_planar and genus:
            raise NonPlanarEmbedding(
                f"rotation system has Euler genus {genus}, not 0")

    @classmethod
    def _derived(cls, sigma: Sequence[int], vertex_of: Sequence[int],
                 labels: Sequence[int] | None = None) -> "PlanarMap":
        """A map built from valid maps by a construction that keeps it
        valid (dual, mirror, stacking, surgery): only the labels are
        checked."""
        out = object.__new__(cls)
        out._fill(tuple(sigma), tuple(vertex_of), labels)
        return out

    def _fill(self, sigma: tuple[int, ...], vertex_of: tuple[int, ...],
              labels: Sequence[int] | None) -> None:
        n_vertices = max(vertex_of) + 1
        darts_at: list[list[int]] = [[] for _ in range(n_vertices)]
        for d, v in enumerate(vertex_of):
            darts_at[v].append(d)
        if labels is None:
            labels = tuple(range(n_vertices))
        else:
            labels = tuple(labels)
            if len(labels) != n_vertices or len(set(labels)) != n_vertices:
                raise OddEulerDefect("labels must name each vertex once")
        self._sigma = sigma
        self._vertex_of = vertex_of
        self._labels = labels
        self._vertex_count = n_vertices
        self._vertex_darts = tuple(map(tuple, darts_at))
        self._faces = None
        self._face_of_dart = None

    # -- basic views ---------------------------------------------------

    @property
    def sigma(self) -> tuple[int, ...]:
        return self._sigma

    @property
    def vertex_of(self) -> tuple[int, ...]:
        return self._vertex_of

    @property
    def labels(self) -> tuple[int, ...]:
        return self._labels

    @property
    def dart_count(self) -> int:
        return len(self._sigma)

    @property
    def edge_count(self) -> int:
        return len(self._sigma) // 2

    @property
    def vertex_count(self) -> int:
        return self._vertex_count

    @property
    def face_count(self) -> int:
        return len(self.faces)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._vertex_darts[v])

    def darts_of_vertex(self, v: int) -> tuple[int, ...]:
        """All darts whose tail is ``v``, in increasing id order."""
        self._check_vertex(v)
        return self._vertex_darts[v]

    def edge_endpoints(self, edge_index: int) -> tuple[int, int]:
        """Endpoints of edge ``i`` (darts ``2i`` and ``2i + 1``), sorted."""
        u = self._vertex_of[2 * edge_index]
        v = self._vertex_of[2 * edge_index + 1]
        return (u, v) if u < v else (v, u)

    def edges(self) -> tuple[tuple[int, int], ...]:
        """Endpoint pairs of all edges, indexed by edge id."""
        return tuple(self.edge_endpoints(i) for i in range(self.edge_count))

    def rotation_lists(self) -> list[list[int]]:
        """Counterclockwise neighbor list per vertex.

        Each list starts at the vertex's smallest dart, so the result
        is a canonical, reconstructible presentation of the map.
        """
        out: list[list[int]] = []
        for v in range(self.vertex_count):
            d0 = self._vertex_darts[v][0]
            nbrs = [self._vertex_of[d0 ^ 1]]
            d = self._sigma[d0]
            while d != d0:
                nbrs.append(self._vertex_of[d ^ 1])
                d = self._sigma[d]
            out.append(nbrs)
        return out

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self._vertex_count:
            raise VertexNotInMap(f"no vertex {v}")

    # -- faces ---------------------------------------------------------

    @property
    def faces(self) -> tuple[Face, ...]:
        """Faces in canonical order (sorted by their smallest dart)."""
        if self._faces is None:
            sigma = self._sigma
            n = len(sigma)
            seen = [False] * n
            cycles: list[tuple[int, ...]] = []
            for start in range(n):
                if seen[start]:
                    continue
                cycle = []
                d = start
                while not seen[d]:
                    seen[d] = True
                    cycle.append(d)
                    d = sigma[d ^ 1]
                cycles.append(tuple(cycle))
            faces = tuple(
                Face(i, c, tuple(self._vertex_of[d] for d in c))
                for i, c in enumerate(cycles))
            face_of = [0] * n
            for f in faces:
                for d in f.darts:
                    face_of[d] = f.index
            self._faces = faces
            self._face_of_dart = tuple(face_of)
        return self._faces

    def face_of_dart(self, d: int) -> int:
        """Index of the face whose boundary walk uses dart ``d``."""
        self.faces
        return self._face_of_dart[d]

    def euler_genus(self) -> int:
        """Genus of the closed orientable surface the map lives on."""
        chi = self.vertex_count - self.edge_count + self.face_count
        return (2 - chi) // 2

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlanarMap):
            return NotImplemented
        return (self._sigma == other._sigma
                and self._vertex_of == other._vertex_of
                and self._labels == other._labels)

    def __hash__(self) -> int:
        return hash((self._sigma, self._vertex_of, self._labels))

    def __repr__(self) -> str:
        return (f"PlanarMap(V={self.vertex_count}, E={self.edge_count}, "
                f"F={self.face_count}, genus={self.euler_genus()})")


@dataclass(frozen=True)
class SimpleGraph:
    """An abstract simple graph on vertices ``0 .. n - 1``."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise NotSimple(f"bad edge ({u}, {v}) for n={self.n}")

    @cached_property
    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in range(self.n)}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def neighbors(self, v: int) -> set[int]:
        if v not in self.adjacency:
            raise VertexNotInMap(f"no vertex {v}")
        return self.adjacency[v]

    def is_connected(self, without: Iterable[int] = ()) -> bool:
        """Connectivity of the graph with ``without`` vertices deleted."""
        banned = set(without)
        alive = [v for v in range(self.n) if v not in banned]
        if not alive:
            return False
        adj = self.adjacency
        seen = {alive[0]}
        queue = deque([alive[0]])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in banned and w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen) == len(alive)


def normalize_edge(u: int, v: int) -> tuple[int, int]:
    """Sorted endpoint pair, the canonical name of an undirected edge."""
    return (u, v) if u < v else (v, u)


def from_rotation(
    adjacency: Mapping[int, Sequence[int]],
    *,
    require_planar: bool = True,
) -> PlanarMap:
    """Build a map from counterclockwise neighbor lists.

    Keys become vertex labels (sorted order gives internal ids).  The
    table must be symmetric, loop-free, duplicate-free, and connected;
    the resulting rotation system must close up at genus 0 unless
    ``require_planar=False``.
    """
    names = sorted(adjacency)
    if not names:
        raise Disconnected("empty adjacency")
    index = {name: i for i, name in enumerate(names)}

    rotations: list[list[int]] = []
    for name in names:
        row = []
        for nbr in adjacency[name]:
            if nbr not in index:
                raise NonSymmetricAdjacency(
                    f"vertex {name} lists unknown neighbor {nbr}")
            row.append(index[nbr])
        rotations.append(row)

    for v, row in enumerate(rotations):
        if v in row:
            raise NotSimple(f"vertex {names[v]} lists itself")
        if len(set(row)) != len(row):
            raise NotSimple(f"vertex {names[v]} repeats a neighbor")
    for v, row in enumerate(rotations):
        for w in row:
            if v not in rotations[w]:
                raise NonSymmetricAdjacency(
                    f"arc {names[v]}->{names[w]} has no reverse")

    sigma, vertex_of = _dart_numbering(rotations)
    return PlanarMap(sigma, vertex_of, names, require_planar=require_planar)


def _dart_numbering(
        rotations: Sequence[Sequence[int]]) -> tuple[list[int], list[int]]:
    """``sigma`` and ``vertex_of`` of dense counterclockwise rows.

    Edges are numbered in sorted endpoint order, and the edge
    ``{v < w}`` owns dart ``v -> w`` (even) and ``w -> v`` (odd).
    """
    dart: dict[tuple[int, int], int] = {}
    for v, row in enumerate(rotations):
        for w in sorted(row):
            if w > v:
                dart[v, w] = d = len(dart)
                dart[w, v] = d + 1
    sigma = [0] * len(dart)
    vertex_of = [0] * len(dart)
    for v, row in enumerate(rotations):
        for w, nxt in zip(row, row[1:] + row[:1]):
            d = dart[v, w]
            vertex_of[d] = v
            sigma[d] = dart[v, nxt]
    return sigma, vertex_of


def mirror(m: PlanarMap) -> PlanarMap:
    """The same embedding with reversed global orientation."""
    inv = [0] * m.dart_count
    for d, e in enumerate(m.sigma):
        inv[e] = d
    return PlanarMap._derived(inv, m.vertex_of, m.labels)


def dualize(m: PlanarMap) -> PlanarMap:
    """Dual map on the same darts.

    Dart ids are preserved: dual vertex ``i`` is face ``i`` of ``m``
    and the dual rotation is the face walk ``phi``.  Faces of the dual
    are the vertices of ``m``, so applying ``dualize`` twice gives back
    the primal up to vertex renaming.  Raises :class:`NotSimpleDual`
    when two faces of ``m`` share several edges or a face touches
    itself across an edge, and :class:`NonPlanarEmbedding` when ``m``
    has positive genus.
    """
    m.faces
    face_of = m._face_of_dart

    seen_pairs: set[tuple[int, int]] = set()
    for d in range(0, m.dart_count, 2):
        f, g = face_of[d], face_of[d + 1]
        if f == g:
            raise NotSimpleDual(f"face {f} meets itself across edge {d // 2}")
        pair = normalize_edge(f, g)
        if pair in seen_pairs:
            raise NotSimpleDual(f"faces {pair} share more than one edge")
        seen_pairs.add(pair)
    genus = m.euler_genus()
    if genus:
        raise NonPlanarEmbedding(
            f"rotation system has Euler genus {genus}, not 0")

    sigma_star = [m.sigma[d ^ 1] for d in range(m.dart_count)]
    return PlanarMap._derived(sigma_star, face_of)


def underlying_graph(m: PlanarMap) -> SimpleGraph:
    """Forget the embedding, keep the abstract simple graph."""
    return SimpleGraph(m.vertex_count, frozenset(m.edges()))


def _has_cut_vertex(g: SimpleGraph, banned: int) -> bool:
    """Does ``g - banned`` have an articulation vertex (or fall apart)?"""
    adj = g.adjacency
    alive = [v for v in range(g.n) if v != banned]
    if len(alive) < 3:
        return False
    root = alive[0]

    # Iterative lowpoint DFS over g - banned.
    disc = {v: 0 for v in alive}
    low = {}
    parent = {root: None}
    order = 0
    stack = [(root, iter(adj[root]))]
    disc[root] = low[root] = order = 1
    root_children = 0
    visited = 1
    while stack:
        v, it = stack[-1]
        advanced = False
        for w in it:
            if w == banned:
                continue
            if disc[w] == 0:
                parent[w] = v
                if v == root:
                    root_children += 1
                order += 1
                visited += 1
                disc[w] = low[w] = order
                stack.append((w, iter(adj[w])))
                advanced = True
                break
            elif w != parent[v]:
                if disc[w] < low[v]:
                    low[v] = disc[w]
        if not advanced:
            stack.pop()
            p = parent[v]
            if p is not None:
                if low[v] < low[p]:
                    low[p] = low[v]
                if p != root and low[v] >= disc[p]:
                    return True
    if visited != len(alive):
        return True  # g - banned is already disconnected
    return root_children > 1


def _polyhedral(m: PlanarMap) -> bool:
    """The face criterion for a plane map with at least 4 vertices.

    The map is 3-connected iff every face boundary is a cycle and any
    two faces share nothing, one vertex, or exactly the two ends of one
    edge that lies on both boundaries (Mohar & Thomassen, *Graphs on
    Surfaces*, 2001, §5.5, after Whitney).  In the radial graph, whose
    nodes are the vertices and faces and whose edges are the corners,
    each edge of the map is a face bounded by a 4-cycle (its two ends
    and its two sides); the criterion says there are no other 4-cycles.
    They are counted from their highest node in degree order, which
    keeps the count linear in the size of a plane map (Chiba &
    Nishizeki, 1985).
    """
    n = m.vertex_count
    faces = m.faces
    if any(len(set(f.boundary)) != len(f) for f in faces):
        return False
    face_of = m._face_of_dart
    # Node v is vertex v, node n + f is face f.
    radial = [[n + face_of[d] for d in darts] for darts in m._vertex_darts]
    radial += [f.boundary for f in faces]
    rank = [0] * len(radial)
    for i, x in enumerate(sorted(range(len(radial)),
                                 key=lambda x: len(radial[x]))):
        rank[x] = i
    cycles = 0
    for x, nbrs in enumerate(radial):
        top = rank[x]
        paths: dict[int, int] = {}
        for y in nbrs:
            if rank[y] < top:
                for z in radial[y]:
                    if rank[z] < top:
                        paths[z] = paths.get(z, 0) + 1
        for k in paths.values():
            cycles += k * (k - 1) // 2
    return cycles == m.edge_count


def is_3_connected(g: SimpleGraph | PlanarMap) -> bool:
    """Whether the graph survives deletion of any two vertices.

    Raises :class:`TooSmall` below four vertices.  A plane map is
    decided from its faces in time linear in the map
    (:func:`_polyhedral`).  A :class:`SimpleGraph`, and a map of
    positive genus, whose faces cannot decide it, are checked for
    every vertex ``u``: ``g - u`` must be connected and free of
    articulation points, which is the same as testing every vertex
    pair, and one lowpoint DFS of ``g - u`` answers both.
    """
    if isinstance(g, PlanarMap):
        if g.vertex_count >= 4 and g.euler_genus() == 0:
            return _polyhedral(g)
        g = underlying_graph(g)
    if g.n < 4:
        raise TooSmall(f"3-connectivity needs at least 4 vertices, got {g.n}")
    if not g.is_connected():
        return False
    if min(g.degree(v) for v in range(g.n)) < 3:
        return False
    return not any(_has_cut_vertex(g, u) for u in range(g.n))


def require_face(m: PlanarMap, face: Face | int) -> Face:
    """Resolve ``face`` to a face of ``m`` or raise FaceNotInMap."""
    faces = m.faces
    if isinstance(face, int):
        if not 0 <= face < len(faces):
            raise FaceNotInMap(f"no face with index {face}")
        return faces[face]
    if not isinstance(face, Face):
        raise FaceNotInMap(f"not a face handle: {face!r}")
    if face.index >= len(faces) or faces[face.index].darts != face.darts:
        raise FaceNotInMap(f"face {face.index} does not belong to this map")
    return faces[face.index]
