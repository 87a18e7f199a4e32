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
cross-check.
"""

from __future__ import annotations

import time
from bisect import bisect
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

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


def _normalize_circuit(edges: Iterable[Sequence[int]]) -> frozenset[Edge]:
    return frozenset(normalize_edge(u, v) for u, v in edges)


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
        one part per circuit.
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


def _circuit_report(circuit: frozenset[Edge]) -> CircuitReport:
    """Evenness and connectivity of a normalized edge set."""
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
    degree exactly two.  Unknown edges raise :class:`UnknownEdge`.
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
    any other is normalized first.  The unknown-edge and per-edge
    diagnostics are built only when something is wrong.  Never raises;
    failures come back as diagnostics.
    """
    edges = g.edges
    sets: list[frozenset[Edge]] = []
    problems: list[str] = []
    reports: list[CircuitReport] = []
    for i, c in enumerate(circuits):
        if not (isinstance(c, frozenset) and c <= edges):
            c = _normalize_circuit(c)
        sets.append(c)
        if c <= edges:
            rep = _circuit_report(c)
            if not rep.valid:
                problems.append(f"circuit {i}: " + "; ".join(rep.problems))
        else:
            rep = CircuitReport(False, False,
                                tuple(_check_known_edges(g, c)))
            problems.append(f"circuit {i}: unknown edges")
        reports.append(rep)

    multiplicity = Counter(chain.from_iterable(sets))
    if multiplicity.keys() != edges or \
            any(m != 2 for m in multiplicity.values()):
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

    Each edge has one unknown, its direction in the first circuit
    holding it; the second runs it backwards.  Where a circuit has
    degree 2, one edge leaves: an XOR constraint, applied by a parity
    union-find (a contradiction means no witness).  Where it has degree
    2m >= 4, m edges leave; only these constraints are searched,
    iteratively, over the union-find roots they touch.  The witness is
    the least solution in edge order (circuits in order, edges sorted,
    an edge's first circuit leaving its smaller end first).
    """
    if not isinstance(cover, CircuitDoubleCover):
        cover = CircuitDoubleCover.build(cover)
    report = validate_cover(g, cover.circuits)
    if not report.valid:
        raise InvalidCover("; ".join(report.problems))
    parts = _orientation(cover.circuits)
    return None if parts is None else OrientedCover(parts)


def _orientation(circuits: Sequence[frozenset[Edge]],
                 deadline: _Deadline | None = None
                 ) -> tuple[frozenset[Arc], ...] | None:
    """The witness parts of :func:`check_orientability`, or None.

    Edge ids follow first appearance, and x_e = 1 when e's first
    circuit runs it from its larger end.  The parity union-find is
    inline: a find halves its path, and each class is rooted at its
    least edge, so no parent is larger than its child and one pass in
    id order flattens every class.  Trying 0 before 1 in root order
    then finds the least solution.  With ``deadline``, raises
    :class:`TimeBudgetExceeded` once the budget has run out, before
    building anything if it already has.
    """
    if deadline is not None and deadline.late():
        raise TimeBudgetExceeded("no time left for the orientation search")
    edge_id: dict[Edge, int] = {}
    parent: list[int] = []
    parity: list[int] = []      # x_e xor x_parent
    rows = []                   # per circuit: (edge, id, runs it back)
    wide: list[list[tuple[int, int]]] = []
    for circuit in circuits:
        # per vertex: (edge, c) with "the edge leaves here" = x_e ^ c
        at: dict[int, list[tuple[int, int]]] = {}
        row = []
        for e in sorted(circuit):
            eid = edge_id.get(e)
            back = eid is not None
            if not back:
                eid = edge_id[e] = len(parent)
                parent.append(eid)
                parity.append(0)
            row.append((e, eid, back))
            u, v = e
            lits = at.get(u)
            if lits is None:
                at[u] = [(eid, 1 ^ back)]
            else:
                lits.append((eid, 1 ^ back))
            lits = at.get(v)
            if lits is None:
                at[v] = [(eid, 0 ^ back)]
            else:
                lits.append((eid, 0 ^ back))
        rows.append(row)
        for lits in at.values():
            if len(lits) > 2:
                wide.append(lits)
                continue
            d = 1                       # x_a ^ x_b ^ ca ^ cb = 1
            roots = []
            for x, c in lits:
                d ^= c
                while parent[x] != x:
                    y = parent[x]
                    if parent[y] != y:  # halve: skip to the grandparent
                        parity[x] ^= parity[y]
                        parent[x] = y = parent[y]
                    d ^= parity[x]
                    x = y
                roots.append(x)
            ra, rb = roots
            if ra == rb:
                if d:
                    return None
            elif ra < rb:
                parent[rb], parity[rb] = ra, d
            else:
                parent[ra], parity[ra] = rb, d
    for x, y in enumerate(parent):      # y < x is already flat
        if y != x:
            parent[x] = parent[y]
            parity[x] ^= parity[y]

    # constraint k needs need[k] more leaving edges among free[k] open
    need = [len(lits) // 2 for lits in wide]
    free = [len(lits) for lits in wide]
    occ: dict[int, list[tuple[int, int]]] = {}
    for k, lits in enumerate(wide):
        for eid, c in lits:
            r = parent[eid]
            entry = (k, parity[eid] ^ c)
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
    x = [value.get(r, 0) ^ p for r, p in zip(parent, parity)]
    return tuple(frozenset((e[1], e[0]) if x[eid] ^ back else e
                           for e, eid, back in row) for row in rows)


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
    """The search's stop flag: set when the time budget runs out or
    when ``limit`` distinct covers have been recorded.  ``covers``
    holds the covers recorded in the order of their canonical forms,
    ``keys``, both kept sorted as covers come."""

    __slots__ = ("at", "hit", "nodes", "limit", "limit_reached", "keys",
                 "covers")

    def __init__(self, budget: float | None, limit: int | None):
        self.at = None if budget is None else time.monotonic() + budget
        self.hit = False
        self.nodes = 0
        self.limit = limit
        self.limit_reached = False
        self.keys: list[tuple] = []
        self.covers: list[CircuitDoubleCover] = []

    def tick(self) -> bool:
        """Count a node; True when the search must stop."""
        self.nodes += 1
        if self.nodes % 512 == 0:
            self.late()
        return self.hit

    def late(self) -> bool:
        """True (and the stop flag set) once the time budget is spent."""
        if self.at is not None and time.monotonic() > self.at:
            self.hit = True
            return True
        return False

    def record(self, found: dict[tuple, CircuitDoubleCover],
               cover: CircuitDoubleCover) -> None:
        """Keep the first cover of each canonical form; stop at the
        limit."""
        key = cover.canonical_form()
        if key in found:
            return
        found[key] = cover
        i = bisect(self.keys, key)
        self.keys.insert(i, key)
        self.covers.insert(i, cover)
        if self.limit is not None and len(found) >= self.limit:
            self.hit = self.limit_reached = True


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
                           ) -> dict[tuple, CircuitDoubleCover]:
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
    covers repeat among the leaves; each is built once, straight from
    its walks' darts: their edges and arcs are the host's own tuples,
    already normal, and the circuits are sorted by edge list alone,
    stably, so a circuit walked twice keeps its parts aligned.  Runs
    iteratively, one stack level per passage, and polls the deadline
    per passage.
    """
    edges = sorted(g.edges)
    # dart 2i runs edges[i] from its smaller end and dart 2i + 1 back, so
    # d ^ 1 reverses d, and the out-darts of a vertex ascend with the
    # neighbour they reach
    tail = [v for e in edges for v in e]
    # per dart: its edge and its arc, shared by every cover built
    edge_of = [e for e in edges for _ in e]
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
    # the dart at its other end and the edge mask of its darts
    other = list(range(len(tail)))
    emask = [1 << (d >> 1) for d in range(len(tail))]
    # per passage: the chain ends and masks its link joined, for undoing
    joined: list[tuple[int, int, int, int] | None] = [None] * n_pass

    def mirrored() -> bool:
        """Is the first vertex's bijection larger than its inverse?"""
        return [succ[d] for d in p_in[:first_last + 1]] > \
            [pred[o] ^ 1 for o in p_outs[0]]

    found: dict[tuple, CircuitDoubleCover] = {}
    built: set[tuple[int, ...]] = set()  # walk edge masks, sorted
    closes = [0] * n_pass               # per passage: mask of the walk
                                        # its link closed, else 0

    def record() -> None:
        key = tuple(sorted(m for m in closes if m))
        if key in built:
            return
        built.add(key)
        walks = []
        for d, mask in zip(p_in, closes):
            if mask:
                walk = [d]
                x = succ[d]
                while x != d:
                    walk.append(x)
                    x = succ[x]
                walks.append((frozenset(map(edge_of.__getitem__, walk)),
                              frozenset(map(arc.__getitem__, walk))))
        # stable, so a circuit walked twice keeps its parts aligned
        walks.sort(key=lambda w: _circuit_key(w[0]))
        deadline.record(found, CircuitDoubleCover(
            tuple(c for c, _ in walks), tuple(p for _, p in walks)))

    if not n_pass:
        record()                        # no edges: the empty cover
        return found
    opts: list[list[int]] = [[] for _ in range(n_pass)]  # untried options
    opts[0] = options(0)
    depth, steps = 0, 0
    while depth >= 0 and not deadline.hit:
        d = p_in[depth]
        o = succ[d]
        if o >= 0:                      # undo the link taken here
            pred[o] = -1
            if joined[depth]:
                a, b, emask[a], emask[b] = joined[depth]
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
            closes[depth] = emask[d]
        else:
            mask_a, mask_b = emask[d], emask[o]
            if mask_a & mask_b:         # both darts of some edge
                continue
            b = other[o]
            closes[depth] = 0
            joined[depth] = a, b, mask_a, mask_b
            other[a], other[b] = b, a
            emask[a] = emask[b] = mask_a | mask_b
        if not p_left[depth]:
            if depth == first_last and mirrored():
                continue
            deadline.tick()
        if depth + 1 == n_pass:
            record()
        else:
            depth += 1
            opts[depth] = options(depth)
    return found


def _enumerate_all(g: SimpleGraph, deadline: _Deadline
                   ) -> dict[tuple, CircuitDoubleCover]:
    """Backtrack over edge slots; yields every cover, each with its
    orientability decided (a witness attached where one exists) as it
    is found, so a cut search returns only decided covers.

    Edges come in :func:`_search_order`, which completes vertices
    early.  Each edge contributes two slots going to two distinct parts
    (restricted growth, ordered pairs).  Pruning: at each vertex the
    number of odd-degree parts cannot exceed twice the unassigned
    incident edge count.  Every part keeps a bitmask of its odd-degree
    vertices, so the change a pair of parts makes to that number at
    both ends is read off before anything is mutated, and only pairs
    that pass are placed.  Evenness is then automatic at completion;
    connectivity is checked per part.  Runs iteratively, one stack
    frame per placed edge.
    """
    edges = _search_order(g)
    n_edges = len(edges)

    part_odd: list[int] = []            # bitmask of odd-degree vertices
    part_members: list[list[int]] = []  # edge indices per part
    odd_count = [0] * g.n
    rem_e = [g.degree(v) for v in range(g.n)]

    found: dict[tuple, CircuitDoubleCover] = {}

    def record() -> None:
        circuits = []
        for members in part_members:
            part = [edges[i] for i in members]
            if not _connected(_adjacency(part)):
                return
            circuits.append(frozenset(part))
        circuits.sort(key=_circuit_key)
        try:
            parts = _orientation(circuits, deadline)
        except TimeBudgetExceeded:
            return      # undecided when the budget ran out: left out
        deadline.record(found, CircuitDoubleCover(tuple(circuits), parts))

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
            if deadline.tick():
                break
            if len(frames) == n_edges:
                record()
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
    return found


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
    ``search`` names the enumerator that ran.  Covers come in the order
    of their canonical forms, kept as each is recorded, so a search cut
    by the budget has no sort left to do.
    """
    if len(g.edges) > max_edges:
        raise EdgeLimitExceeded(
            f"{len(g.edges)} edges exceed the cap of {max_edges}")
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    start = time.monotonic()
    deadline = _Deadline(time_budget, limit)
    if orientable_only:
        search, enumerate_ = "transition", _enumerate_transitions
    else:
        search, enumerate_ = "slot", _enumerate_all
    enumerate_(g, deadline)
    return EnumerationResult(
        covers=tuple(deadline.covers),
        complete=not deadline.hit,
        orientable_only=orientable_only,
        elapsed=time.monotonic() - start,
        nodes=deadline.nodes,
        limit_reached=deadline.limit_reached,
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
