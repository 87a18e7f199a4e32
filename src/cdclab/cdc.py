"""Circuit double covers: validation, search, orientability, translation.

A circuit is a connected even edge set; a cover is a multiset of
circuits hitting every edge exactly twice.  There are two searches.
The transition search finds the orientable covers: at each vertex it
picks a fixed-point-free bijection from in-edges to out-edges, and the
walks this makes, when none uses both darts (directed edges) of an
edge, are the oriented circuits.  On a cubic host the two bijections
at a vertex are its rotations, so there it searches rotation systems.
The unrestricted oracle partitions edge slots instead and decides each
cover's orientability as it finds it; it is the transition search's
cross-check.  Both searches are generators of (canonical form, cover)
pairs that share only a clock (`_Deadline`); `enumerate_covers` alone
deduplicates, orders and limits the covers they yield.

Exhaustive cover lists hold few distinct circuits (wheel:7's 1,751
orientable covers hold 9,045 circuits, 127 of them distinct), so each
circuit is worked out once: both searches build one object per
distinct circuit (the transition search also per arc set), and the
cover checks read a circuit's report, trails and orientation parts
from bounded memos.  Orientability works on trails: a circuit's
degree-2 vertices chain its edges into trails, each with one free
direction bit, and the trails of a cover join into components through
the edges they share, by bitmask, with a search left only at vertices
of degree >= 4.
"""

from __future__ import annotations

import time
from bisect import bisect
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Iterable, Iterator, Sequence

from .errors import (
    CorrespondenceMismatch,
    EdgeLimitExceeded,
    InvalidCover,
    OddCharacteristic,
    TimeBudgetExceeded,
    TranslationNotACover,
    UnknownEdge,
)
from .planar_map import PlanarMap, SimpleGraph, alpha, normalize_edge
from .surgery import Correspondence

Edge = tuple[int, int]
Arc = tuple[int, int]

DEFAULT_MAX_EDGES = 16
# entries kept by each per-circuit memo, least recently used dropped first
_MEMO_SIZE = 1024


def _normalize_circuit(edges: Iterable[Sequence[int]]) -> frozenset[Edge]:
    """Raises :class:`InvalidCover` on a circuit that is not iterable or
    an edge that is not a pair of vertices."""
    try:
        edges = iter(edges)
    except TypeError:
        raise InvalidCover(f"{edges!r} is not a collection of edges") from None
    circuit = set()
    for e in edges:
        try:
            u, v = e
            circuit.add(normalize_edge(u, v))
        except (TypeError, ValueError):
            problem = f"edge {e!r} is not a pair of vertices"
            raise InvalidCover(problem) from None
    return frozenset(circuit)


@dataclass(frozen=True)
class CircuitReport:
    """Validation outcome for one would-be circuit."""

    valid: bool
    is_cycle: bool
    problems: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.valid


@dataclass(frozen=True)
class CoverReport:
    """Validation outcome for a whole cover."""

    valid: bool
    is_cycle_cover: bool
    circuits: tuple[CircuitReport, ...]
    problems: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.valid


@dataclass(frozen=True)
class CircuitDoubleCover:
    """A multiset of circuits, canonically ordered.

    ``orientation``, when present, aligns with ``circuits``: part ``i``
    is a set of arcs (tail, head) orienting circuit ``i``.
    """

    circuits: tuple[frozenset[Edge], ...]
    orientation: tuple[frozenset[Arc], ...] | None = None

    @classmethod
    def build(
        cls,
        circuits: Iterable[Iterable[Sequence[int]]],
        orientation: Sequence[Iterable[Arc]] | None = None,
    ) -> "CircuitDoubleCover":
        """Canonicalize circuit order (keeping any orientation aligned).

        Raises :class:`InvalidCover` when ``orientation`` does not have
        one part per circuit, a circuit is not iterable or an edge is
        not a pair of vertices.
        """
        sets = [_normalize_circuit(c) for c in circuits]
        if orientation is None:
            return cls(tuple(sorted(sets, key=_circuit_key)))
        parts = [frozenset(p) for p in orientation]
        if len(parts) != len(sets):
            raise InvalidCover(f"{len(parts)} orientation parts "
                               f"for {len(sets)} circuits")
        paired = sorted(zip(sets, parts), key=lambda sp: _circuit_key(sp[0]))
        return cls(tuple(s for s, _ in paired), tuple(p for _, p in paired))

    @property
    def k(self) -> int:
        return len(self.circuits)

    def canonical_form(self) -> tuple[tuple[Edge, ...], ...]:
        """Hashable multiset identity: sorted circuits of sorted edges."""
        return tuple(sorted(tuple(sorted(c)) for c in self.circuits))


def _circuit_key(c: frozenset[Edge]) -> tuple[Edge, ...]:
    return tuple(sorted(c))


_CYCLE = CircuitReport(True, True)
_CIRCUIT = CircuitReport(True, False)


def _check_known_edges(g: SimpleGraph, edges: Iterable[Edge]) -> list[str]:
    return [f"edge {e} not in host graph"
            for e in sorted(set(edges)) if e not in g.edges]


@lru_cache(maxsize=_MEMO_SIZE)
def _circuit_report(circuit: frozenset[Edge]) -> CircuitReport:
    """Evenness and connectivity of a normalized edge set (memoised)."""
    if not circuit:
        return CircuitReport(False, False, ("empty edge set",))
    adj = _adjacency(circuit)
    even = not any(len(nbrs) & 1 for nbrs in adj.values())
    connected = _connected(adj)
    if even and connected:
        # every degree is at least 2, so all are 2 iff |V| = |E|
        return _CYCLE if len(adj) == len(circuit) else _CIRCUIT
    problems = [f"odd degree {len(adj[v])} at vertex {v}"
                for v in sorted(adj) if len(adj[v]) % 2]
    if not connected:
        problems.append("edge set is not connected")
    return CircuitReport(False, False, tuple(problems))


def validate_circuit(g: SimpleGraph, edges: Iterable[Sequence[int]]
                     ) -> CircuitReport:
    """Check that an edge set is an even connected subgraph.

    ``is_cycle`` additionally requires every touched vertex to have
    degree exactly two.  Unknown edges raise :class:`UnknownEdge`, and
    an edge that is not a pair raises :class:`InvalidCover`.
    """
    circuit = _normalize_circuit(edges)
    if not circuit <= g.edges:
        raise UnknownEdge("; ".join(_check_known_edges(g, circuit)))
    return _circuit_report(circuit)


def validate_cover(g: SimpleGraph,
                   circuits: Iterable[Iterable[Sequence[int]]]
                   ) -> CoverReport:
    """Check the double-cover law: every edge in exactly two circuits.

    A circuit given as a frozenset of host edges is taken as it is;
    any other is normalized first.  Each circuit's report comes from a
    memo that keeps the 1,024 most recently used circuits, so a circuit
    shared by many covers is walked once while a long-lived process
    holds a bounded number.  The law itself is decided by set algebra;
    the unknown-edge and per-edge diagnostics are built only when
    something is wrong.  Never raises; failures come back as
    diagnostics, a circuit that is not iterable or an edge that is not
    a pair among them (its circuit then counts no edges).
    """
    edges = g.edges
    sets: list[frozenset[Edge]] = []
    problems: list[str] = []
    reports: list[CircuitReport] = []
    for i, c in enumerate(circuits):
        try:
            if isinstance(c, frozenset) and c <= edges:
                rep = _circuit_report(c)
            else:
                c = _normalize_circuit(c)
                rep = _circuit_report(c) if c <= edges else None
        except InvalidCover as exc:
            c, rep = frozenset(), CircuitReport(False, False, (str(exc),))
        if rep is None:
            rep = CircuitReport(False, False,
                                tuple(_check_known_edges(g, c)))
            problems.append(f"circuit {i}: unknown edges")
        elif not rep.valid:
            problems.append(f"circuit {i}: " + "; ".join(rep.problems))
        sets.append(c)
        reports.append(rep)

    # every edge twice: an even count of each, all host edges and no
    # other met, and 2|E| edge slots in all
    odd: set[Edge] = set()
    for c in sets:
        odd ^= c
    if odd or sum(map(len, sets)) != 2 * len(edges) or \
            set().union(*sets) != edges:
        multiplicity = Counter(chain.from_iterable(sets))
        for e in sorted(edges):
            seen = multiplicity.get(e, 0)
            if seen != 2:
                problems.append(f"edge {e} covered {seen} times, need 2")
        for e in sorted(multiplicity.keys() - edges):
            problems.append(f"edge {e} not in host graph")

    valid = not problems
    is_cycle_cover = valid and all(r.is_cycle for r in reports)
    return CoverReport(valid, is_cycle_cover, tuple(reports),
                       tuple(problems))


def facial_cover(m: PlanarMap) -> CircuitDoubleCover:
    """The cover formed by all face boundaries, oriented by the face
    walks themselves (hence always orientable for a valid simple map
    whose faces repeat no edge)."""
    circuits = []
    orientation = []
    for f in m.faces:
        arcs = {(m.vertex_of[d], m.vertex_of[alpha(d)]) for d in f.darts}
        circuits.append([(u, v) for u, v in arcs])
        orientation.append(arcs)
    return CircuitDoubleCover.build(circuits, orientation)


@dataclass(frozen=True)
class OrientedCover:
    """Arc sets witnessing orientability, aligned with a cover."""

    parts: tuple[frozenset[Arc], ...]


def check_orientability(g: SimpleGraph,
                        cover: CircuitDoubleCover | Iterable[Iterable[Sequence[int]]]
                        ) -> OrientedCover | None:
    """Search for opposite-direction orientations of all circuits.

    Returns a witness, or None when the cover admits none.  Invalid
    covers are rejected with :class:`InvalidCover`.

    Where a circuit has degree 2, one edge leaves, so its degree-2
    vertices chain its edges into trails, each with one free direction
    bit; an edge shared by two trails runs opposite ways in them, which
    fixes their relative bit or refutes the cover.  Where a circuit
    has degree 2m >= 4, m edges leave; only these constraints are
    searched, iteratively, over the components of trails they touch.
    The witness is the least solution in edge order (circuits in
    order, edges sorted, an edge's first circuit leaving its smaller
    end first).
    """
    if not isinstance(cover, CircuitDoubleCover):
        cover = CircuitDoubleCover.build(cover)
    report = validate_cover(g, cover.circuits)
    if not report.valid:
        raise InvalidCover("; ".join(report.problems))
    parts = _orientation(cover.circuits, g.edges)
    return None if parts is None else OrientedCover(parts)


@lru_cache(maxsize=16)
def _edge_bits(edges: frozenset[Edge]) -> dict[Edge, int]:
    """Each host edge's bit, the edges sorted (memoised; read only)."""
    return {e: 1 << i for i, e in enumerate(sorted(edges))}


@lru_cache(maxsize=_MEMO_SIZE)
def _trails(circuit: frozenset[Edge], edges: frozenset[Edge]
            ) -> tuple[tuple[tuple[int, int, int], ...], int, tuple]:
    """A circuit's trails, base flips and wide-vertex literals
    (memoised).

    The edge at position p of the circuit's sorted edges is flipped
    when it runs from its larger end, and it leaves its smaller end iff
    it is not.  At a vertex of degree 2 exactly one of the two edges
    leaves, which fixes their relative flip; these links chain the
    edges into trails, taken in order of their least positions.  A
    trail's bit is the flip of its least edge, and setting it flips
    every edge of the trail.  Per trail: the host-edge bitmask of its edges, that
    of those flipped at bit 0, and its position mask.  ``base`` holds
    the flips (as position bits) with every trail bit 0.  Per vertex
    of degree >= 4, in order of first appearance, the literals (trail,
    c): an edge there leaves it iff its trail's bit ^ c is 1.
    """
    bit = _edge_bits(edges)
    ordered = sorted(circuit)
    at: dict[int, list[tuple[int, int]]] = {}  # vertex -> (position, side)
    for p, (u, v) in enumerate(ordered):
        at.setdefault(u, []).append((p, 1))    # side 1: the smaller end
        at.setdefault(v, []).append((p, 0))
    across = {}
    for group in at.values():
        if len(group) == 2:
            a, b = group
            across[a], across[b] = b, a
    trail_of = [-1] * len(ordered)
    flip = [0] * len(ordered)
    trails = []
    base = 0
    for start in range(len(ordered)):
        if trail_of[start] >= 0:
            continue
        trail_of[start] = len(trails)
        mask = pattern = pos = 0
        stack = [start]
        while stack:
            p = stack.pop()
            mask |= bit[ordered[p]]
            pos |= 1 << p
            if flip[p]:
                pattern |= bit[ordered[p]]
                base |= 1 << p
            for side in (0, 1):
                q, other = across.get((p, side), (p, side))
                if trail_of[q] < 0:     # one of p, q leaves this vertex
                    trail_of[q] = len(trails)
                    flip[q] = flip[p] ^ side ^ other ^ 1
                    stack.append(q)
        trails.append((mask, pattern, pos))
    wide = tuple(tuple((trail_of[p], flip[p] ^ side) for p, side in group)
                 for group in at.values() if len(group) > 2)
    return tuple(trails), base, wide


@lru_cache(maxsize=_MEMO_SIZE)
def _part(circuit: frozenset[Edge], flips: int) -> frozenset[Arc]:
    """The arcs orienting ``circuit``: the edge at position p of its
    sorted edges runs from its larger end iff bit p of ``flips`` is set
    (memoised)."""
    return frozenset([(v, u) if flips >> p & 1 else (u, v)
                      for p, (u, v) in enumerate(sorted(circuit))])


def _orientation(circuits: Sequence[frozenset[Edge]],
                 edges: frozenset[Edge],
                 deadline: _Deadline | None = None
                 ) -> tuple[frozenset[Arc], ...] | None:
    """The witness parts of :func:`check_orientability` for a valid
    cover of the host with edge set ``edges``, or None.

    Each circuit's trails come from the memo :func:`_trails` and each
    witness part from the memo :func:`_part`, keyed by the circuit and
    its flips, so covers sharing a circuit share its parts.  Trails
    are taken in circuit order.  A component of trails keeps the
    bitmask of its open edges (seen once) and of those flipped when
    its root, its first trail, has bit 0.  A trail meeting a component
    shares edges with it, which it runs the other way: one AND and XOR
    on those edges either fixes its bit relative to the root or
    refutes the cover.  A trail meeting several components joins them
    under the oldest root, so no trail's parent is younger than it and
    one pass in trail order flattens every component.

    The least edge of a component's first circuit comes first among
    its edges in edge order, and the component's root holds it at its
    least position, as the root's bit.  Trying 0 before 1 in root order
    therefore finds the least solution in edge order.  With
    ``deadline``, raises :class:`TimeBudgetExceeded` once the budget
    has run out, before building anything if it already has.
    """
    if deadline is not None and deadline.late():
        raise TimeBudgetExceeded("no time left for the orientation search")
    parent: list[int] = []      # per trail: an older trail of its component
    parity: list[int] = []      # its bit xor that trail's
    live: list[list[int]] = []  # [root, open mask, flipped mask], by root
    shapes = []
    for circuit in circuits:
        shape = _trails(circuit, edges)
        shapes.append((circuit, len(parent), shape))
        for mask, pattern, _ in shape[0]:
            t = len(parent)
            parent.append(t)
            parity.append(0)
            fresh = mask                # its edges seen for the first time
            host = None
            for comp in live:
                shared = comp[1] & mask
                if not shared:
                    continue
                same = (pattern ^ comp[2]) & shared
                if same and same != shared:
                    return None
                comp[1] ^= shared
                fresh ^= shared
                rel = 0 if same else 1  # t's bit xor the root's
                if host is None:
                    host = comp
                    parent[t], parity[t] = comp[0], rel
                else:                   # join comp under host's root
                    rel ^= parity[t]
                    parent[comp[0]], parity[comp[0]] = host[0], rel
                    host[1] |= comp[1]
                    host[2] |= comp[2] ^ comp[1] if rel else comp[2]
                    comp[1] = 0
            if host is None:
                live.append([t, mask, pattern])
            else:
                host[1] |= fresh
                host[2] |= (pattern ^ mask if parity[t] else pattern) & fresh
                live = [comp for comp in live if comp[1]]
    for x, y in enumerate(parent):      # y < x is already flat
        if y != x:
            parent[x] = parent[y]
            parity[x] ^= parity[y]

    # constraint k needs need[k] more leaving edges among free[k] open
    need: list[int] = []
    free: list[int] = []
    occ: dict[int, list[tuple[int, int]]] = {}
    for _, first, (_, _, wide) in shapes:
        for lits in wide:
            k = len(need)
            need.append(len(lits) // 2)
            free.append(len(lits))
            for j, c in lits:
                r = parent[first + j]
                entry = (k, parity[first + j] ^ c)
                if r in occ:
                    occ[r].append(entry)
                else:
                    occ[r] = [entry]
    order = sorted(occ)

    def place(r: int, x: int, sign: int) -> bool:
        ok = True
        for k, q in occ[r]:
            free[k] -= sign
            need[k] -= sign * (x ^ q)
            ok = ok and 0 <= need[k] <= free[k]
        return ok

    tried = [0] * len(order)    # values tried at each depth
    depth = 0
    while 0 <= depth < len(order):
        if deadline is not None and deadline.late():
            raise TimeBudgetExceeded("orientation search ran out of time")
        r, t = order[depth], tried[depth]
        if t:
            place(r, t - 1, -1)
        tried[depth] = (t + 1) % 3
        if t == 2:
            depth -= 1
        elif place(r, t, 1):
            depth += 1
    if depth < 0:
        return None

    value = {r: t - 1 for r, t in zip(order, tried)}
    parts = []
    for circuit, first, (trails, flips, _) in shapes:
        for j, (_, _, pos) in enumerate(trails, first):
            if value.get(parent[j], 0) ^ parity[j]:
                flips ^= pos
        parts.append(_part(circuit, flips))
    return tuple(parts)


def validate_oriented_cover(g: SimpleGraph, cover: CircuitDoubleCover,
                            witness: OrientedCover) -> list[str]:
    """Diagnostics for an orientation witness (empty list means valid)."""
    problems: list[str] = []
    if len(witness.parts) != cover.k:
        return ["wrong number of parts"]
    for i, (circuit, arcs) in enumerate(zip(cover.circuits, witness.parts)):
        if {normalize_edge(u, v) for u, v in arcs} != circuit:
            problems.append(f"part {i} does not orient its circuit")
        imbalance: Counter[int] = Counter()
        for u, v in arcs:
            imbalance[u] += 1
            imbalance[v] -= 1
        bad = [v for v, x in imbalance.items() if x]
        if bad:
            problems.append(f"part {i} unbalanced at {sorted(bad)}")
    seen_arcs: set[Arc] = set().union(*witness.parts)
    for e in g.edges:
        u, v = e
        if not ((u, v) in seen_arcs and (v, u) in seen_arcs):
            problems.append(f"edge {e} not traversed in both directions")
    return problems


@dataclass(frozen=True)
class GenusReport:
    """Euler bookkeeping for the surface a cover describes."""

    circuits: int
    chi: int
    genus: int


def genus(g: SimpleGraph, cover: CircuitDoubleCover) -> GenusReport:
    """chi = V - E + k; genus = (2 - chi) / 2.

    Raises :class:`OddCharacteristic` when chi is odd (the glued
    complex is then pinched at some vertex and is not a closed
    surface, so no genus is defined) and :class:`InvalidCover` on
    bad input.  Odd chi does occur for orientable covers of
    non-cubic hosts: a circuit that runs through a vertex twice can
    pinch the complex there.  For cubic hosts every circuit is a
    cycle and chi is always even.
    """
    report = validate_cover(g, cover.circuits)
    if not report.valid:
        raise InvalidCover("; ".join(report.problems))
    chi = g.n - len(g.edges) + cover.k
    if chi % 2:
        raise OddCharacteristic(f"chi = {chi} is odd")
    return GenusReport(cover.k, chi, (2 - chi) // 2)


@dataclass(frozen=True)
class EnumerationResult:
    """Covers found by exhaustive search, plus completeness flags.

    ``complete`` is True only when the search ran to exhaustion.  It is
    False when the time budget ran out or when the cover limit was
    reached (then ``limit_reached`` is True); the covers found so far
    are still returned (a lower bound, never silently truncated).
    ``search`` names the enumerator that ran: ``"transition"`` or
    ``"slot"`` (None when no search ran).
    """

    covers: tuple[CircuitDoubleCover, ...]
    complete: bool
    orientable_only: bool
    elapsed: float
    nodes: int
    limit_reached: bool = False
    search: str | None = None

    @property
    def orientable_covers(self) -> tuple[CircuitDoubleCover, ...]:
        return tuple(c for c in self.covers if c.orientation is not None)


def require_complete(result: EnumerationResult) -> EnumerationResult:
    """Raise :class:`TimeBudgetExceeded` unless the search finished."""
    if result.limit_reached:
        raise TimeBudgetExceeded(
            f"search stopped at the cover limit "
            f"with {len(result.covers)} covers found")
    if not result.complete:
        raise TimeBudgetExceeded(
            f"search stopped after {result.elapsed:.1f} s "
            f"with {len(result.covers)} covers found")
    return result


class _Deadline:
    """A search's clock: the time budget and the nodes counted so far.
    ``hit`` is set once :meth:`late` finds the budget spent."""

    __slots__ = ("at", "hit", "nodes")

    def __init__(self, budget: float | None):
        self.at = None if budget is None else time.monotonic() + budget
        self.hit = False
        self.nodes = 0

    def late(self) -> bool:
        """True (and the stop flag set) once the time budget is spent."""
        if self.at is not None and time.monotonic() > self.at:
            self.hit = True
            return True
        return False


def _adjacency(edges: Iterable[Edge]) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    return adj


def _connected(adj: dict[int, list[int]]) -> bool:
    start = next(iter(adj))
    seen = {start}
    stack = [start]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(adj)


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, ascending."""
    return [i for i, b in enumerate(bin(mask)[:1:-1]) if b == "1"]


def _search_order(g: SimpleGraph) -> list[Edge]:
    """The slot oracle's edge order: close vertices as early as possible.

    Edges are picked greedily by, in turn: the number of endpoints the
    edge completes (places the last unplaced edge at), most first; the
    number of endpoints already touched, most first; the unplaced edge
    count at the emptier endpoint, then at both endpoints, fewest
    first; and last the edge itself.
    """
    deg = [g.degree(v) for v in range(g.n)]
    unplaced = deg[:]
    left = set(g.edges)
    order: list[Edge] = []

    def key(e: Edge) -> tuple:
        a, b = unplaced[e[0]], unplaced[e[1]]
        completes = (a == 1) + (b == 1)
        touched = (a < deg[e[0]]) + (b < deg[e[1]])
        return -completes, -touched, min(a, b), a + b, e

    while left:
        e = min(left, key=key)
        left.remove(e)
        order.append(e)
        unplaced[e[0]] -= 1
        unplaced[e[1]] -= 1
    return order


def _enumerate_transitions(g: SimpleGraph, deadline: _Deadline
                           ) -> Iterator[tuple[tuple, CircuitDoubleCover]]:
    """Backtrack over transition systems; project them to covers.

    An oriented cover passes through each vertex by a fixed-point-free
    bijection from in-edges to out-edges.  Conversely every such choice
    whose walks never use both darts of one edge is an oriented cover,
    its walks being the circuits and their orientation at once
    (compatible circuit decompositions, Fleischner 1990).  At a cubic
    vertex the two bijections are its two rotations (Heffter-Edmonds).

    Vertices come by degree, then most neighbours already placed, then
    label.  At each, the passages (in-darts) pick an unused out-dart in
    neighbour order, never one that leaves the last passage a fixed
    point.  Each pick links two chains of darts; every open chain keeps
    its end darts and the edge mask of its darts, so the pick is cut in
    constant time where the two masks share an edge (the joined chain
    would hold both of its darts).  Inverting every bijection reverses
    every walk, so the first vertex keeps a bijection only when it is
    no larger than its inverse.  One node is counted per completed
    vertex.  A circuit through a vertex twice has several tours, so
    covers repeat among the leaves; each is built and yielded once, as
    (canonical form, cover).  A chain also keeps its dart mask, so a
    closed walk is two masks, and the leaf reads its circuit (edge
    list and edge set) from a per-search dict keyed by the edge mask
    and its arcs from one keyed by the dart mask, building each only
    the first time: covers share one object per distinct circuit and
    arc set, whose edges and arcs are the host's own tuples.  The
    circuits are sorted by edge list alone, stably, so a circuit walked
    twice keeps its parts aligned, and those edge lists in order are
    the canonical form.  Runs iteratively, one stack level per passage,
    and polls the clock once per 512 links.
    """
    edges = sorted(g.edges)
    # dart 2i runs edges[i] from its smaller end and dart 2i + 1 back, so
    # d ^ 1 reverses d, and the out-darts of a vertex ascend with the
    # neighbour they reach
    tail = [v for e in edges for v in e]
    # per dart: its arc
    arc = [a for e in edges for a in (e, e[::-1])]
    outs: list[list[int]] = [[] for _ in range(g.n)]
    for d, t in enumerate(tail):
        outs[t].append(d)

    # vertices by degree, then most neighbours already placed, then
    # label: the least rank (degree * n - placed) * n + label
    n = g.n
    rank = [len(outs[v]) * n * n + v for v in range(n)]
    left = {v for v in range(n) if outs[v]}
    order: list[int] = []
    while left:
        v = min(left, key=rank.__getitem__)
        left.remove(v)
        order.append(v)
        for o in outs[v]:
            rank[tail[o ^ 1]] -= n

    # per passage: its in-dart, its vertex's out-darts and the number of
    # passages after it at the vertex
    p_in: list[int] = []
    p_outs: list[list[int]] = []
    p_left: list[int] = []
    for v in order:
        p_in += [o ^ 1 for o in outs[v]]
        p_outs += [outs[v]] * len(outs[v])
        p_left += range(len(outs[v]) - 1, -1, -1)
    n_pass = len(p_in)
    first_last = len(outs[order[0]]) - 1 if n_pass else -1
    succ = [-1] * len(tail)             # in-dart -> out-dart at its head
    pred = [-1] * len(tail)

    def options(p: int) -> list[int]:
        """The out-darts passage ``p`` may take, last first.  While the
        out-dart back to the last neighbour is free, the second-to-last
        passage must take it."""
        outs_p = p_outs[p]
        if p_left[p] == 1 and pred[outs_p[-1]] < 0:
            return [outs_p[-1]]
        back = p_in[p] ^ 1
        return [o for o in reversed(outs_p) if pred[o] < 0 and o != back]

    # every open chain of linked darts keeps, at both of its end darts,
    # the dart at its other end and the edge and dart masks of its darts
    other = list(range(len(tail)))
    emask = [1 << (d >> 1) for d in range(len(tail))]
    dmask = [1 << d for d in range(len(tail))]
    # per passage: the chain ends and masks its link joined, for undoing
    joined: list[tuple[int, ...] | None] = [None] * n_pass

    def mirrored() -> bool:
        """Is the first vertex's bijection larger than its inverse?"""
        return [succ[d] for d in p_in[:first_last + 1]] > \
            [pred[o] ^ 1 for o in p_outs[0]]

    built: set[tuple[int, ...]] = set()  # walk edge masks, sorted
    closes = [0] * n_pass               # per passage: edge mask of the
    closes_d = [0] * n_pass             # walk its link closed, else 0,
                                        # and that walk's dart mask
    # one object per distinct circuit and per distinct arc set
    circuit_of: dict[int, tuple[tuple[Edge, ...], frozenset[Edge]]] = {}
    arcs_of: dict[int, frozenset[Arc]] = {}

    def leaf() -> tuple[tuple, CircuitDoubleCover] | None:
        """The cover the walks make, keyed; None if already built."""
        walked = [(m, dm) for m, dm in zip(closes, closes_d) if m]
        masks = tuple(sorted([m for m, _ in walked]))
        if masks in built:
            return None
        built.add(masks)
        walks = []
        for mask, darts in walked:
            circuit = circuit_of.get(mask)
            if circuit is None:
                # edge ids ascend with the edges: the circuit's key
                key = tuple([edges[i] for i in _bits(mask)])
                circuit = circuit_of[mask] = key, frozenset(key)
            arcs = arcs_of.get(darts)
            if arcs is None:
                arcs = arcs_of[darts] = frozenset(
                    [arc[d] for d in _bits(darts)])
            walks.append((*circuit, arcs))
        # stable, so a circuit walked twice keeps its parts aligned
        walks.sort(key=lambda w: w[0])
        keys, circuits, parts = zip(*walks)
        return keys, CircuitDoubleCover(circuits, parts)

    if not n_pass:                      # no edges: the empty cover
        yield (), CircuitDoubleCover((), ())
        return
    opts: list[list[int]] = [[] for _ in range(n_pass)]  # untried options
    opts[0] = options(0)
    depth, steps = 0, 0
    while depth >= 0:
        d = p_in[depth]
        o = succ[d]
        if o >= 0:                      # undo the link taken here
            pred[o] = -1
            if joined[depth]:
                a, b, emask[a], emask[b], dmask[a], dmask[b] = joined[depth]
                other[a], other[b] = d, o
                joined[depth] = None
        if not opts[depth]:
            succ[d] = -1
            depth -= 1
            continue
        o = opts[depth].pop()
        succ[d], pred[o] = o, d
        steps += 1
        if not steps % 512 and deadline.late():
            break
        # the link d -> o joins the chain a .. d to the chain o .. b
        a = other[d]
        if a == o:                      # one chain: it closes a walk
            closes[depth], closes_d[depth] = emask[d], dmask[d]
        else:
            mask_a, mask_b = emask[d], emask[o]
            if mask_a & mask_b:         # both darts of some edge
                continue
            b = other[o]
            darts_a, darts_b = dmask[d], dmask[o]
            closes[depth] = 0
            joined[depth] = a, b, mask_a, mask_b, darts_a, darts_b
            other[a], other[b] = b, a
            emask[a] = emask[b] = mask_a | mask_b
            dmask[a] = dmask[b] = darts_a | darts_b
        if not p_left[depth]:
            if depth == first_last and mirrored():
                continue
            deadline.nodes += 1
        if depth + 1 == n_pass:
            item = leaf()
            if item:
                yield item
        else:
            depth += 1
            opts[depth] = options(depth)


def _enumerate_all(g: SimpleGraph, deadline: _Deadline
                   ) -> Iterator[tuple[tuple, CircuitDoubleCover]]:
    """Backtrack over edge slots; yields every cover as (canonical
    form, cover), each with its orientability decided (a witness
    attached where one exists) as it is found, so a cut search yields
    only decided covers.

    Edges come in :func:`_search_order`, which completes vertices
    early.  Each edge contributes two slots going to two distinct parts
    (restricted growth, ordered pairs).  Pruning: at each vertex the
    number of odd-degree parts cannot exceed twice the unassigned
    incident edge count.  Every part keeps a bitmask of its odd-degree
    vertices, so the change a pair of parts makes to that number at
    both ends is read off before anything is mutated, and only pairs
    that pass are placed.  Evenness is then automatic at completion;
    connectivity is checked per part.  Runs iteratively, one stack
    frame per placed edge, and polls the clock once per 512 nodes.
    """
    edges = _search_order(g)
    n_edges = len(edges)

    part_odd: list[int] = []            # bitmask of odd-degree vertices
    part_members: list[list[int]] = []  # edge indices per part
    odd_count = [0] * g.n
    rem_e = [g.degree(v) for v in range(g.n)]

    # per member tuple: the part's (key, circuit), None if disconnected
    part_of: dict[tuple[int, ...], tuple | None] = {}

    def leaf() -> tuple[tuple, CircuitDoubleCover] | None:
        """The cover the parts make, keyed and decided; None if a part
        is not connected or the budget ran out before the decision."""
        keyed = []
        for members in part_members:
            members = tuple(members)
            if members in part_of:
                kc = part_of[members]
            else:
                part = [edges[i] for i in members]
                kc = part_of[members] = (
                    (_circuit_key(part), frozenset(part))
                    if _connected(_adjacency(part)) else None)
            if kc is None:
                return None
            keyed.append(kc)
        keyed.sort(key=lambda kc: kc[0])
        circuits = tuple(c for _, c in keyed)
        try:
            parts = _orientation(circuits, g.edges, deadline)
        except TimeBudgetExceeded:
            return None     # undecided when the budget ran out: left out
        return tuple(k for k, _ in keyed), CircuitDoubleCover(circuits, parts)

    def pairs(i: int) -> list[tuple[int, int, int, int]]:
        """The part pairs edge ``i`` may join, with the change each
        makes to the odd-part count at both ends; edge ``i`` is already
        counted out of ``rem_e``."""
        u, v = edges[i]
        bu, bv = 1 << u, 1 << v
        # how far the odd-part count may still rise at u and at v
        room_u = 2 * rem_e[u] - odd_count[u]
        room_v = 2 * rem_e[v] - odd_count[v]
        n_parts = len(part_members)
        # taking the edge makes a part odd (+1) or even (-1) at u, v;
        # the two trailing entries are fresh parts
        du = [-1 if m & bu else 1 for m in part_odd] + [1, 1]
        dv = [-1 if m & bv else 1 for m in part_odd] + [1, 1]
        # a part with the members of the one before it was opened with
        # it by one edge; the twins are interchangeable, so the later
        # one is never taken without the earlier
        twin = [j > 0 and part_members[j] == part_members[j - 1]
                for j in range(n_parts)] + [False, False]
        return [(pa, pb, du[pa] + du[pb], dv[pa] + dv[pb])
                for pa in range(n_parts + 1) if not twin[pa]
                for pb in range(pa + 1, n_parts + (2 if pa == n_parts else 1))
                if (pa == pb - 1 or not twin[pb])
                and du[pa] + du[pb] <= room_u and dv[pa] + dv[pb] <= room_v]

    frames: list[list] = []     # per open edge: pairs, next pair, parts before
    enter = True
    while not deadline.hit:
        if enter:
            deadline.nodes += 1
            if not deadline.nodes % 512 and deadline.late():
                break
            if len(frames) == n_edges:
                item = leaf()
                if item:
                    yield item
            else:
                u, v = edges[len(frames)]
                rem_e[u] -= 1
                rem_e[v] -= 1
                frames.append([pairs(len(frames)), 0, len(part_members)])
        if not frames:
            break
        i = len(frames) - 1
        options, k, n_parts = frames[-1]
        u, v = edges[i]
        flip = (1 << u) | (1 << v)
        if k:
            pa, pb, su, sv = options[k - 1]
            part_members[pb].pop()
            part_members[pa].pop()
            odd_count[u] -= su
            odd_count[v] -= sv
            part_odd[pb] ^= flip
            part_odd[pa] ^= flip
            del part_members[n_parts:], part_odd[n_parts:]
        if k == len(options):
            rem_e[u] += 1
            rem_e[v] += 1
            frames.pop()
            enter = False
            continue
        frames[-1][1] = k + 1
        pa, pb, su, sv = options[k]
        for _ in range(pb + 1 - len(part_members)):
            part_members.append([])
            part_odd.append(0)
        part_odd[pa] ^= flip
        part_odd[pb] ^= flip
        odd_count[u] += su
        odd_count[v] += sv
        part_members[pa].append(i)
        part_members[pb].append(i)
        enter = True


def enumerate_covers(
    g: SimpleGraph,
    *,
    orientable_only: bool = True,
    max_edges: int = DEFAULT_MAX_EDGES,
    time_budget: float | None = None,
    limit: int | None = None,
) -> EnumerationResult:
    """Exhaustively list circuit double covers of a small graph.

    With ``orientable_only`` (the default) only orientable covers are
    produced, each carrying a witness, by the transition search.
    Otherwise ALL covers are produced by the slot-partition oracle,
    which decides each cover's orientability as it finds it (witnesses
    are attached where they exist).  That decision shares the time
    budget: a cover still undecided when it runs out is left out of the
    result, which is then not ``complete``.

    ``max_edges`` guards against oversized hosts (EdgeLimitExceeded);
    ``time_budget`` (seconds) turns long searches into flagged partial
    results rather than exceptions, see :class:`EnumerationResult`.
    ``limit`` stops the search once that many distinct covers (of any
    orientability) have been found; the result then has
    ``limit_reached`` set and is not ``complete``.  The result's
    ``search`` names the enumerator that ran.

    Both searches yield (canonical form, cover) pairs, and this is the
    one place that keeps covers: the first cover of each canonical form,
    in the order of those forms, kept sorted as covers come, so a
    search cut by the budget has no sort left to do.
    """
    if len(g.edges) > max_edges:
        raise EdgeLimitExceeded(
            f"{len(g.edges)} edges exceed the cap of {max_edges}")
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    start = time.monotonic()
    deadline = _Deadline(time_budget)
    if orientable_only:
        search, enumerate_ = "transition", _enumerate_transitions
    else:
        search, enumerate_ = "slot", _enumerate_all
    keys: list[tuple] = []
    covers: list[CircuitDoubleCover] = []
    limit_reached = False
    for key, cover in enumerate_(g, deadline):
        i = bisect(keys, key)
        if i and keys[i - 1] == key:
            continue
        keys.insert(i, key)
        covers.insert(i, cover)
        if len(keys) == limit:
            limit_reached = True
            break
    return EnumerationResult(
        covers=tuple(covers),
        complete=not (deadline.hit or limit_reached),
        orientable_only=orientable_only,
        elapsed=time.monotonic() - start,
        nodes=deadline.nodes,
        limit_reached=limit_reached,
        search=search,
    )


@dataclass(frozen=True)
class TranslationReport:
    """Outcome of pushing a cover through a truncation correspondence.

    ``dropped`` lists input circuit indices erased by the translation
    (those made of corner edges only, the faces standing for vertices
    of the target).  ``kept`` aligns with ``cover.circuits`` and names
    each image's source index; ``is_cycle`` flags record which images
    are honest cycles rather than general circuits.
    """

    cover: CircuitDoubleCover
    dropped: tuple[int, ...]
    kept: tuple[int, ...]
    is_cycle: tuple[bool, ...]
    oriented: bool


def source_graph(corr: Correspondence) -> SimpleGraph:
    """The truncation output graph recorded in a correspondence."""
    edges = set(corr.inherited_edges.values()) | set(
        corr.corner_edges.values())
    n = 1 + max(max(e) for e in edges)
    return SimpleGraph(n, frozenset(edges))


def target_graph(corr: Correspondence) -> SimpleGraph:
    """The truncation input graph recorded in a correspondence."""
    edges = set(corr.inherited_edges.keys())
    n = 1 + max(max(e) for e in edges)
    return SimpleGraph(n, frozenset(edges))


def translate_cover(
    cover: CircuitDoubleCover,
    corr: Correspondence,
) -> TranslationReport:
    """Pull a cover of a complete truncation back to its host.

    Per circuit: corner edges are discarded and inherited edges map
    through the edge bijection; circuits with no inherited edges
    vanish (they bound the faces that replaced host vertices).  Images
    are validated as circuits and the result as a double cover; both
    must succeed for covers that are valid upstream.  An orientation
    witness, when present, is pushed through the same bijection and
    revalidated.
    """
    if corr.kind != "truncate":
        raise CorrespondenceMismatch(
            f"expected a truncation correspondence, got kind={corr.kind!r}")
    g = target_graph(corr)
    gt = source_graph(corr)
    covered = {w for cycle in corr.vertex_faces.values() for w in cycle}
    if covered != set(range(gt.n)):
        raise CorrespondenceMismatch(
            "corner cycles do not cover the source graph; "
            "only complete truncations translate")

    report = validate_cover(gt, cover.circuits)
    if not report.valid:
        raise InvalidCover("input cover invalid upstream: "
                           + "; ".join(report.problems))

    back = {img: e for e, img in corr.inherited_edges.items()}
    if len(back) != len(corr.inherited_edges):
        raise CorrespondenceMismatch("inherited edge table is not injective")

    w_vertex = {w: v for v, cycle in corr.vertex_faces.items() for w in cycle}

    images: list[frozenset[Edge]] = []
    kept: list[int] = []
    dropped: list[int] = []
    parts: list[frozenset[Arc]] = []
    for i, circuit in enumerate(cover.circuits):
        image = frozenset(back[e] for e in circuit if e in back)
        if not image:
            dropped.append(i)
            continue
        images.append(image)
        kept.append(i)
        if cover.orientation is not None:
            arcs = frozenset(
                (w_vertex[a], w_vertex[b])
                for a, b in cover.orientation[i]
                if normalize_edge(a, b) in back)
            parts.append(arcs)

    out_report = validate_cover(g, images)
    for i, rep in zip(kept, out_report.circuits):
        if not rep.valid:
            raise TranslationNotACover(
                f"image of circuit {i} is not a circuit: "
                + "; ".join(rep.problems))
    if not out_report.valid:
        raise TranslationNotACover("translated multiset is not a double "
                                   "cover: " + "; ".join(out_report.problems))

    order = sorted(range(len(images)), key=lambda j: _circuit_key(images[j]))
    result = CircuitDoubleCover(
        tuple(images[j] for j in order),
        tuple(parts[j] for j in order) if parts else None,
    )
    if result.orientation is not None:
        problems = validate_oriented_cover(g, result, OrientedCover(result.orientation))
        if problems:
            raise TranslationNotACover(
                "pushed orientation invalid: " + "; ".join(problems))
    return TranslationReport(
        cover=result,
        dropped=tuple(dropped),
        kept=tuple(kept[j] for j in order),
        is_cycle=tuple(out_report.circuits[j].is_cycle for j in order),
        oriented=result.orientation is not None,
    )
