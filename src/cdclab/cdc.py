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
distinct circuit (the transition search also per arc set), and both
cover checks read a circuit's facts (its report, its host-edge
bitmask and its trails) from one bounded memo, and its orientation
parts from another.  A third memo keeps the last cover validated, so
`check_orientability` right after `validate_cover` on the same cover
and host validates it once.  The double-cover law is decided by mask
algebra on those bitmasks.  Orientability works on trails: a circuit's
degree-2 vertices chain its edges into trails, each with one free
direction bit, and the trails of a cover join into components through
the edges they share, by bitmask.  A search is left only for trails
between two different vertices of degree >= 4 in their circuit; a
wheel has none.
"""

from __future__ import annotations

import time
from bisect import bisect
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

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


def _check_known_edges(host: frozenset[Edge], edges: Iterable[Edge]
                       ) -> list[str]:
    return [f"edge {e} not in host graph"
            for e in sorted(set(edges)) if e not in host]


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


@lru_cache(maxsize=16)
def _edge_bits(edges: frozenset[Edge]) -> dict[Edge, int]:
    """Each host edge's bit, the edges sorted (memoised; read only)."""
    return {e: 1 << i for i, e in enumerate(sorted(edges))}


class _Facts(NamedTuple):
    """What the cover checks read of a circuit of a host."""

    report: CircuitReport
    mask: int       # the bits of its edges among the host's
    trails: tuple   # these two as _trails gives them, both empty
    wide: tuple     # unless the circuit is valid


# a cover's report, its circuits as normalized and their facts
_Validation = tuple[CoverReport, list[frozenset[Edge]], list[_Facts]]


@lru_cache(maxsize=_MEMO_SIZE)
def _facts(circuit: frozenset[Edge], edges: frozenset[Edge]
           ) -> _Facts | None:
    """The facts of a circuit of the host with edge set ``edges``, or
    None when the circuit holds an edge the host lacks (memoised).
    Both cover checks read them, so each distinct circuit is walked
    once for both."""
    if not circuit <= edges:
        return None
    report = _circuit_report(circuit)
    bit = _edge_bits(edges)
    mask = 0
    for e in circuit:
        mask |= bit[e]
    if not report.valid:
        return _Facts(report, mask, (), ())
    return _Facts(report, mask, *_trails(circuit, bit))


def validate_circuit(g: SimpleGraph, edges: Iterable[Sequence[int]]
                     ) -> CircuitReport:
    """Check that an edge set is an even connected subgraph.

    ``is_cycle`` additionally requires every touched vertex to have
    degree exactly two.  Unknown edges raise :class:`UnknownEdge`, and
    an edge that is not a pair raises :class:`InvalidCover`.
    """
    circuit = _normalize_circuit(edges)
    facts = _facts(circuit, g.edges)
    if facts is None:
        raise UnknownEdge("; ".join(_check_known_edges(g.edges, circuit)))
    return facts.report


def validate_cover(g: SimpleGraph,
                   circuits: Iterable[Iterable[Sequence[int]]]
                   ) -> CoverReport:
    """Check the double-cover law: every edge in exactly two circuits.

    A circuit given as a frozenset of host edges is taken as it is;
    any other is normalized first.  Each circuit's report and host-edge
    bitmask come from a memo that keeps the 1,024 most recently used
    circuits, so a circuit shared by many covers is walked once while a
    long-lived process holds a bounded number.  The law is decided by
    mask algebra: it holds iff the XOR of the masks is 0 (every edge met
    an even number of times), their OR is the full mask (every edge
    met) and the circuits' edge counts sum to 2|E| (so no edge is met
    more than twice and none is foreign).  The unknown-edge and
    per-edge diagnostics are built only when something is wrong.  The
    last tuple of circuits validated is kept with its host's edges, so
    a cover just validated for the same host is not validated again.
    Never raises; failures come back as diagnostics, a circuit that is
    not iterable or an edge that is not a pair among them (its circuit
    then counts no edges).
    """
    return _validate(g, circuits)[0]


def _validate(g: SimpleGraph, circuits: Iterable[Iterable[Sequence[int]]]
              ) -> _Validation:
    """:func:`validate_cover`'s report, with the circuits as normalized
    and their facts.  A tuple of hashable circuits goes through the
    one-entry memo; any other input is validated afresh."""
    if isinstance(circuits, tuple):
        try:
            return _last_validation(g.edges, circuits)
        except TypeError:   # a circuit that is not hashable: a list, say
            pass
    return _last_validation.__wrapped__(g.edges, circuits)


@lru_cache(maxsize=1)
def _last_validation(edges: frozenset[Edge],
                     circuits: Iterable[Iterable[Sequence[int]]]
                     ) -> _Validation:
    """:func:`_validate` for the host with edge set ``edges``, keeping
    the last result (memoised; read only): a cover checked twice in a
    row is validated once."""
    sets: list[frozenset[Edge]] = []
    facts: list[_Facts] = []
    problems: list[str] = []
    odd = met = slots = 0
    for i, c in enumerate(circuits):
        try:
            f = _facts(c, edges) if isinstance(c, frozenset) else None
            if f is None:
                c = _normalize_circuit(c)
                f = _facts(c, edges)
        except InvalidCover as exc:
            c = frozenset()
            f = _Facts(CircuitReport(False, False, (str(exc),)), 0, (), ())
        if f is None:
            # its host edges are left out of the masks; its edge count
            # alone breaks the law
            f = _Facts(CircuitReport(False, False,
                                     tuple(_check_known_edges(edges, c))),
                       0, (), ())
            problems.append(f"circuit {i}: unknown edges")
        elif not f.report.valid:
            problems.append(f"circuit {i}: " + "; ".join(f.report.problems))
        odd ^= f.mask
        met |= f.mask
        slots += len(c)
        sets.append(c)
        facts.append(f)

    if odd or met != (1 << len(edges)) - 1 or slots != 2 * len(edges):
        multiplicity = Counter(chain.from_iterable(sets))
        for e in sorted(edges):
            seen = multiplicity.get(e, 0)
            if seen != 2:
                problems.append(f"edge {e} covered {seen} times, need 2")
        for e in sorted(multiplicity.keys() - edges):
            problems.append(f"edge {e} not in host graph")

    valid = not problems
    reports = tuple([f.report for f in facts])
    is_cycle_cover = valid and all(r.is_cycle for r in reports)
    return (CoverReport(valid, is_cycle_cover, reports, tuple(problems)),
            sets, facts)


def facial_cover(m: PlanarMap) -> CircuitDoubleCover:
    """The cover formed by all face boundaries, oriented by the face
    walks themselves (hence always orientable for a valid simple map
    whose faces repeat no edge)."""
    arcs = [{(m.vertex_of[d], m.vertex_of[alpha(d)]) for d in f.darts}
            for f in m.faces]
    return CircuitDoubleCover.build(arcs, arcs)


def _regrouped_cover(m: PlanarMap) -> CircuitDoubleCover | None:
    """The facial cover with two faces at one vertex merged into one
    circuit, or None when no vertex has degree 4 or more.

    At the least vertex v of degree >= 4, the faces of a dart d and of
    sigma(sigma(d)) are not consecutive at v (``darts_of_vertex`` is in
    id order, not rotation order), so in a 3-connected map they share
    only v.  Their union, oriented by both face walks, is a circuit.
    Callers validate the cover.
    """
    v = next((v for v in range(m.vertex_count)
              if len(m.darts_of_vertex(v)) >= 4), None)
    if v is None:
        return None
    d = m.darts_of_vertex(v)[0]
    a, b = m.face_of_dart(d), m.face_of_dart(m.sigma[m.sigma[d]])
    faces = m.faces
    walks = [f.darts for f in faces if f.index not in (a, b)]
    walks.append(faces[a].darts + faces[b].darts)
    arcs = [{(m.vertex_of[e], m.vertex_of[alpha(e)]) for e in w}
            for w in walks]
    return CircuitDoubleCover.build(arcs, arcs)


def _contract_triangles(g: SimpleGraph) -> tuple[SimpleGraph, int]:
    """The core of a cubic graph and the number of contractions.

    One triangle at a time, its three vertices become one vertex joined
    to their outside neighbours; in a cubic graph a triangle is a
    circuit of every orientable cover, so the count is kept.  This is
    unstacking in the dual: a 3-connected host's core is K4 iff its
    dual is Apollonian.  Stops at K4, or at a triangle whose outside
    neighbours are not distinct.  Only the merged vertex can lie on a
    new triangle, so only it goes back on the work list.
    """
    adj = [set(g.adjacency[v]) for v in range(g.n)]
    todo = list(range(g.n))
    left = g.n
    while todo and left > 4:
        a = todo.pop()
        if not adj[a]:
            continue  # merged into another vertex
        x, y, z = adj[a]
        for b, c, a_out in ((x, y, z), (x, z, y), (y, z, x)):
            if c in adj[b]:
                break
        else:
            continue
        (b_out,) = adj[b] - {a, c}
        (c_out,) = adj[c] - {a, b}
        if len({a_out, b_out, c_out}) < 3:
            break
        adj[a] = {a_out, b_out, c_out}
        for old, out in ((b, b_out), (c, c_out)):
            adj[out].remove(old)
            adj[out].add(a)
            adj[old] = set()
        left -= 2
        todo.append(a)
    keep = [v for v in range(g.n) if adj[v]]
    new = {v: i for i, v in enumerate(keep)}
    core = SimpleGraph(len(keep), frozenset(
        (new[u], new[w]) for u in keep for w in adj[u] if u < w))
    return core, (g.n - len(keep)) // 2


@dataclass(frozen=True)
class OrientedCover:
    """Arc sets witnessing orientability, aligned with a cover."""

    parts: tuple[frozenset[Arc], ...]


def check_orientability(g: SimpleGraph,
                        cover: CircuitDoubleCover | Iterable[Iterable[Sequence[int]]]
                        ) -> OrientedCover | None:
    """Search for opposite-direction orientations of all circuits.

    Returns a witness, or None when the cover admits none.  Invalid
    covers are rejected with :class:`InvalidCover`; the check is
    :func:`validate_cover`'s mask algebra, on facts the search reads
    too, and its result is reused when the same cover was just
    validated for the same host.

    Where a circuit has degree 2, one edge leaves, so its degree-2
    vertices chain its edges into trails, each with one free direction
    bit; an edge shared by two trails runs opposite ways in them, which
    fixes their relative bit or refutes the cover.  Where a circuit
    has degree 2m >= 4, m edges leave; a trail with both ends there
    always leaves once, so only trails between two different such
    vertices are constrained, and only those constraints are searched,
    iteratively, over the components of trails they touch.  The witness
    is the least solution in edge order (circuits in order, edges
    sorted, an edge's first circuit leaving its smaller end first).
    """
    if not isinstance(cover, CircuitDoubleCover):
        cover = CircuitDoubleCover.build(cover)
    report, circuits, facts = _validate(g, cover.circuits)
    if not report.valid:
        raise InvalidCover("; ".join(report.problems))
    parts = _orientation(circuits, facts, g.edges)
    return None if parts is None else OrientedCover(parts)


def _trails(circuit: frozenset[Edge], bit: dict[Edge, int]
            ) -> tuple[tuple[tuple[int, int], ...],
                       tuple[tuple[tuple[int, int], ...], ...]]:
    """A valid circuit's trails and the constraints left on them, by
    host-edge bit.

    An edge is flipped when it runs from its larger end.  At a vertex
    of degree 2 exactly one of the two edges leaves, which fixes their
    relative flip; these links chain the edges into trails, taken in
    order of their least edges.  A trail's bit is the flip of its least
    edge, and setting it flips every edge of the trail.  Per trail: the
    bitmask of its edges and that of those flipped at bit 0.

    At a vertex of degree 2m >= 4 (a wide vertex) m edges leave.  Each
    trail ends at wide vertices (or closes on itself, in a cycle), and
    one with both ends at the same wide vertex leaves it exactly once
    whatever its bit, so that pair of ends is dropped.  What is left
    binds only trails that join two different wide vertices: per wide
    vertex with ends left, in order of first appearance, the literals
    (edge bit, side), where the edge leaves the vertex iff its flip xor
    side is 1 (side 1: the vertex is its smaller end).  A circuit with
    one wide vertex, as every circuit of a wheel, has none.
    """
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
    for start in range(len(ordered)):
        if trail_of[start] >= 0:
            continue
        trail_of[start] = len(trails)
        mask = pattern = 0
        stack = [start]
        while stack:
            p = stack.pop()
            mask |= bit[ordered[p]]
            if flip[p]:
                pattern |= bit[ordered[p]]
            for side in (0, 1):
                q, other = across.get((p, side), (p, side))
                if trail_of[q] < 0:     # one of p, q leaves this vertex
                    trail_of[q] = len(trails)
                    flip[q] = flip[p] ^ side ^ other ^ 1
                    stack.append(q)
        trails.append((mask, pattern))
    wide = []
    for group in at.values():
        if len(group) > 2:
            ends = Counter(trail_of[p] for p, _ in group)
            lits = tuple((bit[ordered[p]], side) for p, side in group
                         if ends[trail_of[p]] == 1)
            if lits:
                wide.append(lits)
    return tuple(trails), tuple(wide)


@lru_cache(maxsize=_MEMO_SIZE)
def _part(circuit: frozenset[Edge], edges: frozenset[Edge], flips: int
          ) -> frozenset[Arc]:
    """The arcs orienting ``circuit``: an edge runs from its larger end
    iff its host-edge bit is set in ``flips`` (memoised)."""
    bit = _edge_bits(edges)
    return frozenset([(v, u) if bit[u, v] & flips else (u, v)
                      for u, v in sorted(circuit)])


def _orientation(circuits: Sequence[frozenset[Edge]],
                 facts: Sequence[_Facts],
                 edges: frozenset[Edge],
                 deadline: _Deadline | None = None
                 ) -> tuple[frozenset[Arc], ...] | None:
    """The witness parts of :func:`check_orientability` for a valid
    cover of the host with edge set ``edges``, given its circuits'
    facts, or None.

    Trails are taken in circuit order.  The first trail not yet placed
    roots a component at bit 0, and the component keeps the bitmasks of
    its edges, of its open ones (held by one trail so far) and of those
    flipped there.  A trail sharing open edges with it runs them the
    other way: one AND and XOR on those edges settles its bit or
    refutes the cover.  Passes over the trails left grow the component
    until none of its edges is open.  Each circuit's flips, with every
    root at bit 0, collect in one host-edge bitmask.

    A component's root holds its least edge at its least position, as
    its bit.  Only the constraints :func:`_trails` leaves are searched,
    over the components they touch, iteratively, trying 0 before 1 in
    root order, and a component set to 1 flips every edge it holds; so
    the witness is the least solution in edge order.  When no circuit
    leaves a constraint, as on every wheel, every root stays at 0 and
    the search is not set up.  Each part comes from the memo
    :func:`_part`, keyed by the circuit and its flips, so covers
    sharing a circuit share its parts.  With ``deadline``,
    raises :class:`TimeBudgetExceeded` once the budget has run out,
    before building anything if it already has.
    """
    if deadline is not None and deadline.late():
        raise TimeBudgetExceeded("no time left for the orientation search")
    flips = [0] * len(facts)    # per circuit, with every root at bit 0
    comps: list[int] = []       # per component, oldest root first: its edges
    pending = [(mask, pattern, i)
               for i, f in enumerate(facts) for mask, pattern in f.trails]
    while pending:
        held, flipped, i = pending[0]
        flips[i] |= flipped
        open_ = held
        rest = pending[1:]
        while open_:
            left = []
            for trail in rest:
                mask, pattern, i = trail
                shared = mask & open_
                if not shared:
                    left.append(trail)
                    continue
                differ = (pattern ^ flipped) & shared
                if differ != shared:    # bit 0 fails on some shared edge
                    if differ:
                        return None
                    pattern ^= mask
                flips[i] |= pattern
                open_ ^= mask
                flipped |= pattern
                held |= mask
            if len(left) == len(rest):  # an edge met once: no double cover
                return None
            rest = left
        comps.append(held)
        pending = rest
    if not any([f.wide for f in facts]):    # no constraint: every root at 0
        return tuple([_part(c, edges, x) for c, x in zip(circuits, flips)])

    # constraint k needs need[k] more leaving edges among free[k] open
    need: list[int] = []
    free: list[int] = []
    occ: dict[int, list[tuple[int, int]]] = {}
    for i, f in enumerate(facts):
        for lits in f.wide:
            k = len(need)
            need.append(len(lits) // 2)
            free.append(len(lits))
            for b, side in lits:
                r = next(j for j, comp in enumerate(comps) if comp & b)
                entry = (k, side ^ 1 if flips[i] & b else side)
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

    inverted = 0                # the edges of the components set to 1
    for r, t in zip(order, tried):
        if t == 2:
            inverted |= comps[r]
    return tuple([_part(c, edges, x ^ (inverted & f.mask))
                  for c, f, x in zip(circuits, facts, flips)])


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
    return GenusReport(chi, (2 - chi) // 2)


@dataclass(frozen=True)
class EnumerationResult:
    """Covers found by exhaustive search, plus completeness flags.

    ``complete`` is True only when the search ran to exhaustion.  It is
    False when the time budget ran out or when the cover limit was
    reached (then ``limit_reached`` is True); the covers found so far
    are still returned (a lower bound, never silently truncated).
    ``search`` names the enumerator that ran: ``"transition"`` or
    ``"slot"``.
    """

    covers: tuple[CircuitDoubleCover, ...]
    complete: bool
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
    closed walk is two masks, kept on a stack as its link closes it and
    dropped when that link is undone; a leaf reads only that stack.  It
    reads each walk (edge list, edge set and arcs) from a per-search
    dict keyed by the dart mask, building it only the first time, with
    the circuit from one keyed by the edge mask: covers share one
    object per distinct circuit and arc set, whose edges and arcs are
    the host's own tuples.  The circuits are sorted by edge list alone,
    stably, so a circuit walked twice keeps its parts aligned, and
    those edge lists in order are the canonical form.  Runs
    iteratively, one stack level per passage, and polls the clock once
    per 512 links.
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
    # the closed walks, oldest link first: (edge mask, dart mask)
    closed: list[tuple[int, int]] = []
    # one object per distinct circuit, and per dart mask its walk:
    # (key, circuit, arcs)
    circuit_of: dict[int, tuple[tuple[Edge, ...], frozenset[Edge]]] = {}
    walk_of: dict[int, tuple[tuple[Edge, ...], frozenset[Edge],
                             frozenset[Arc]]] = {}

    def leaf() -> tuple[tuple, CircuitDoubleCover] | None:
        """The cover the walks make, keyed; None if already built."""
        masks = tuple(sorted([m for m, _ in closed]))
        if masks in built:
            return None
        built.add(masks)
        walks = []
        for mask, darts in closed:
            walk = walk_of.get(darts)
            if walk is None:
                circuit = circuit_of.get(mask)
                if circuit is None:
                    # edge ids ascend with the edges: the circuit's key
                    key = tuple([edges[i] for i in _bits(mask)])
                    circuit = circuit_of[mask] = key, frozenset(key)
                walk = walk_of[darts] = (*circuit, frozenset(
                    [arc[d] for d in _bits(darts)]))
            walks.append(walk)
        # stable, so a circuit walked twice keeps its parts aligned
        walks.sort(key=itemgetter(0))
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
            else:                       # it closed a walk
                closed.pop()
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
            closed.append((emask[d], dmask[d]))
        else:
            mask_a, mask_b = emask[d], emask[o]
            if mask_a & mask_b:         # both darts of some edge: undone
                succ[d] = pred[o] = -1  # now, so a link kept either joins
                continue                # two chains or closes a walk
            b = other[o]
            darts_a, darts_b = dmask[d], dmask[o]
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

    # per member tuple: the part's (key, circuit, facts), None if
    # disconnected (a part is even once every edge is placed)
    part_of: dict[tuple[int, ...], tuple | None] = {}

    def leaf() -> tuple[tuple, CircuitDoubleCover] | None:
        """The cover the parts make, keyed and decided; None if a part
        is not connected or the budget ran out before the decision."""
        keyed = []
        for members in part_members:
            members = tuple(members)
            if members in part_of:
                kcf = part_of[members]
            else:
                circuit = frozenset([edges[i] for i in members])
                facts = _facts(circuit, g.edges)
                kcf = part_of[members] = (
                    (_circuit_key(circuit), circuit, facts)
                    if facts.report.valid else None)
            if kcf is None:
                return None
            keyed.append(kcf)
        keyed.sort(key=lambda kcf: kcf[0])
        circuits = tuple([c for _, c, _ in keyed])
        try:
            parts = _orientation(circuits, [f for _, _, f in keyed],
                                 g.edges, deadline)
        except TimeBudgetExceeded:
            return None     # undecided when the budget ran out: left out
        return (tuple([k for k, _, _ in keyed]),
                CircuitDoubleCover(circuits, parts))

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
        found = []
        for pa in range(n_parts + 1):
            if twin[pa]:
                continue
            # the room left for the second part, which moves each count
            # by 1 or -1
            left_u, left_v = room_u - du[pa], room_v - dv[pa]
            if left_u < -1 or left_v < -1:
                continue
            for pb in range(pa + 1, n_parts + (2 if pa == n_parts else 1)):
                if (pa == pb - 1 or not twin[pb]) \
                        and du[pb] <= left_u and dv[pb] <= left_v:
                    found.append((pa, pb, du[pa] + du[pb], dv[pa] + dv[pb]))
        return found

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


def _graph_of(edges: Iterable[Edge]) -> SimpleGraph:
    """The graph on ``0 .. max id`` with exactly these edges."""
    edges = frozenset(edges)
    return SimpleGraph(1 + max(max(e) for e in edges), edges)


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
    g = _graph_of(corr.inherited_edges)
    gt = _graph_of(chain(corr.inherited_edges.values(),
                         corr.corner_edges.values()))
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
