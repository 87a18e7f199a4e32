"""Circuit double covers: validation, search, orientability, translation.

A circuit is a connected even edge set; a cover is a multiset of
circuits hitting every edge exactly twice.  The orientable search
partitions darts (directed edges) into balanced connected parts with
the two darts of each edge in different parts; the unrestricted oracle
partitions edge slots instead and decides orientability afterwards.
"""

from __future__ import annotations

import time
from collections import Counter, deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import (
    CorrespondenceMismatch,
    EdgeLimitExceeded,
    InvalidCover,
    OddCharacteristic,
    TimeBudgetExceeded,
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
        """Canonicalize circuit order (keeping any orientation aligned)."""
        sets = [_normalize_circuit(c) for c in circuits]
        if orientation is None:
            return cls(tuple(sorted(sets, key=_circuit_key)))
        paired = sorted(
            zip(sets, (frozenset(p) for p in orientation)),
            key=lambda sp: _circuit_key(sp[0]))
        return cls(tuple(s for s, _ in paired), tuple(p for _, p in paired))

    @property
    def k(self) -> int:
        return len(self.circuits)

    def canonical_form(self) -> tuple[tuple[Edge, ...], ...]:
        """Hashable multiset identity: sorted circuits of sorted edges."""
        return tuple(sorted(tuple(sorted(c)) for c in self.circuits))


def _circuit_key(c: frozenset[Edge]) -> tuple[Edge, ...]:
    return tuple(sorted(c))


def _check_known_edges(g: SimpleGraph, edges: Iterable[Edge]) -> list[str]:
    return [f"edge {e} not in host graph"
            for e in sorted(set(edges)) if e not in g.edges]


def validate_circuit(g: SimpleGraph, edges: Iterable[Sequence[int]]
                     ) -> CircuitReport:
    """Check that an edge set is an even connected subgraph.

    ``is_cycle`` additionally requires every touched vertex to have
    degree exactly two.  Unknown edges raise :class:`UnknownEdge`.
    """
    circuit = _normalize_circuit(edges)
    unknown = _check_known_edges(g, circuit)
    if unknown:
        raise UnknownEdge("; ".join(unknown))
    if not circuit:
        return CircuitReport(False, False, ("empty edge set",))

    degree: Counter[int] = Counter()
    for u, v in circuit:
        degree[u] += 1
        degree[v] += 1
    problems = [f"odd degree {d} at vertex {v}"
                for v, d in sorted(degree.items()) if d % 2]

    touched = sorted(degree)
    adj: dict[int, list[int]] = {v: [] for v in touched}
    for u, v in circuit:
        adj[u].append(v)
        adj[v].append(u)
    seen = {touched[0]}
    queue = deque([touched[0]])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                queue.append(y)
    if len(seen) != len(touched):
        problems.append("edge set is not connected")

    valid = not problems
    is_cycle = valid and all(d == 2 for d in degree.values())
    return CircuitReport(valid, is_cycle, tuple(problems))


def validate_cover(g: SimpleGraph,
                   circuits: Iterable[Iterable[Sequence[int]]]
                   ) -> CoverReport:
    """Check the double-cover law: every edge in exactly two circuits.

    Never raises; failures come back as diagnostics.
    """
    sets = [_normalize_circuit(c) for c in circuits]
    problems: list[str] = []
    reports: list[CircuitReport] = []
    for i, c in enumerate(sets):
        unknown = _check_known_edges(g, c)
        if unknown:
            reports.append(CircuitReport(False, False, tuple(unknown)))
            problems.append(f"circuit {i}: unknown edges")
            continue
        rep = validate_circuit(g, c)
        reports.append(rep)
        if not rep.valid:
            problems.append(f"circuit {i}: " + "; ".join(rep.problems))

    multiplicity: Counter[Edge] = Counter()
    for c in sets:
        multiplicity.update(c)
    for e in sorted(g.edges):
        seen = multiplicity.get(e, 0)
        if seen != 2:
            problems.append(f"edge {e} covered {seen} times, need 2")
    for e in sorted(set(multiplicity) - g.edges):
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


def _balanced_orientations(circuit: Sequence[Edge],
                           forced: Mapping[Edge, Arc]):
    """Yield arc sets giving every vertex equal in/out degree.

    ``forced`` pins arcs for edges already oriented by the partner
    circuit (which must run through them the opposite way).
    """
    imbalance: Counter[int] = Counter()
    arcs: list[Arc] = []

    def extend(i: int):
        if i == len(circuit):
            if not any(imbalance.values()):
                yield frozenset(arcs)
            return
        u, v = circuit[i]
        choices = ((u, v), (v, u))
        if circuit[i] in forced:
            choices = (forced[circuit[i]],)
        remaining = len(circuit) - i - 1
        for a, b in choices:
            imbalance[a] += 1
            imbalance[b] -= 1
            arcs.append((a, b))
            # Each later edge can change a vertex imbalance by one.
            if sum(map(abs, imbalance.values())) <= 2 * remaining:
                yield from extend(i + 1)
            arcs.pop()
            imbalance[a] -= 1
            imbalance[b] += 1

    yield from extend(0)


def check_orientability(g: SimpleGraph,
                        cover: CircuitDoubleCover | Iterable[Iterable[Sequence[int]]]
                        ) -> OrientedCover | None:
    """Search for opposite-direction orientations of all circuits.

    Returns a witness, or None when the cover admits none.  Invalid
    covers are rejected with :class:`InvalidCover`.
    """
    if not isinstance(cover, CircuitDoubleCover):
        cover = CircuitDoubleCover.build(cover)
    report = validate_cover(g, cover.circuits)
    if not report.valid:
        raise InvalidCover("; ".join(report.problems))

    circuits = [sorted(c) for c in cover.circuits]
    chosen: list[frozenset[Arc]] = []
    oriented_by: dict[Edge, Arc] = {}

    def solve(i: int) -> bool:
        if i == len(circuits):
            return True
        forced = {e: (oriented_by[e][1], oriented_by[e][0])
                  for e in circuits[i] if e in oriented_by}
        for arcs in _balanced_orientations(circuits[i], forced):
            added = []
            for u, v in arcs:
                e = normalize_edge(u, v)
                if e not in oriented_by:
                    oriented_by[e] = (u, v)
                    added.append(e)
            chosen.append(arcs)
            if solve(i + 1):
                return True
            chosen.pop()
            for e in added:
                del oriented_by[e]
        return False

    if solve(0):
        return OrientedCover(tuple(chosen))
    return None


def validate_oriented_cover(g: SimpleGraph, cover: CircuitDoubleCover,
                            witness: OrientedCover) -> list[str]:
    """Diagnostics for an orientation witness (empty list means valid)."""
    problems: list[str] = []
    if len(witness.parts) != cover.k:
        return ["wrong number of parts"]
    arc_count: Counter[Edge] = Counter()
    for i, (circuit, arcs) in enumerate(zip(cover.circuits, witness.parts)):
        if {normalize_edge(u, v) for u, v in arcs} != circuit:
            problems.append(f"part {i} does not orient its circuit")
        imbalance: Counter[int] = Counter()
        for u, v in arcs:
            imbalance[u] += 1
            imbalance[v] -= 1
            arc_count[normalize_edge(u, v)] += 1
        bad = [v for v, x in imbalance.items() if x]
        if bad:
            problems.append(f"part {i} unbalanced at {sorted(bad)}")
    seen_arcs: set[Arc] = set()
    for part in witness.parts:
        seen_arcs |= part
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
    """

    covers: tuple[CircuitDoubleCover, ...]
    complete: bool
    orientable_only: bool
    elapsed: float
    nodes: int
    limit_reached: bool = False

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
    when ``limit`` distinct covers have been recorded."""

    __slots__ = ("at", "hit", "nodes", "limit", "limit_reached")

    def __init__(self, budget: float | None, limit: int | None):
        self.at = None if budget is None else time.monotonic() + budget
        self.hit = False
        self.nodes = 0
        self.limit = limit
        self.limit_reached = False

    def tick(self) -> bool:
        """Count a node; True when the budget has just run out."""
        self.nodes += 1
        if self.at is not None and self.nodes % 512 == 0 \
                and time.monotonic() > self.at:
            self.hit = True
        return self.hit

    def record(self, found: dict[tuple, CircuitDoubleCover],
               cover: CircuitDoubleCover) -> None:
        """Keep the first cover of each canonical form; stop at the
        limit."""
        found.setdefault(cover.canonical_form(), cover)
        if self.limit is not None and len(found) >= self.limit:
            self.hit = self.limit_reached = True


def _edge_connected(edges: list[Edge]) -> bool:
    if not edges:
        return False
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    start = edges[0][0]
    seen = {start}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return len(seen) == len(adj)


def _enumerate_oriented(g: SimpleGraph, deadline: _Deadline
                        ) -> dict[tuple, CircuitDoubleCover]:
    """Backtrack over darts; project oriented partitions to covers.

    Darts 2i and 2i+1 are the two directions of edge i (in sorted edge
    order).  A dart joins an existing part or opens the next fresh one
    (restricted growth), subject to: its edge not yet in the part, its
    opposite dart elsewhere, and per-vertex balance feasibility
    (total absolute imbalance cannot exceed unassigned incident
    darts).  Parts are checked for connectivity at completion.
    """
    edges = sorted(g.edges)
    n_darts = 2 * len(edges)
    tail = [0] * n_darts
    head = [0] * n_darts
    for i, (u, v) in enumerate(edges):
        tail[2 * i], head[2 * i] = u, v
        tail[2 * i + 1], head[2 * i + 1] = v, u

    part_of = [-1] * n_darts
    part_edges: list[int] = []          # edge bitmask per part
    part_imb: list[list[int]] = []      # per part, per vertex imbalance
    rem = [0] * g.n                     # unassigned darts incident to v
    for v in range(g.n):
        rem[v] = 2 * g.degree(v)
    total_imb = [0] * g.n               # sum over parts of |imbalance|

    found: dict[tuple, CircuitDoubleCover] = {}

    def record() -> None:
        groups: dict[int, list[int]] = {}
        for d, p in enumerate(part_of):
            groups.setdefault(p, []).append(d)
        circuits = []
        orientation = []
        for p in sorted(groups):
            darts = groups[p]
            part = [(tail[d], head[d]) for d in darts]
            if not _edge_connected(part):
                return
            circuits.append([normalize_edge(u, v) for u, v in part])
            orientation.append(part)
        deadline.record(found, CircuitDoubleCover.build(circuits, orientation))

    def assign(d: int) -> None:
        if deadline.hit or deadline.tick():
            return
        if d == n_darts:
            record()
            return
        bit = 1 << (d >> 1)
        t, h = tail[d], head[d]
        banned = part_of[d - 1] if d & 1 else -1
        n_parts = len(part_edges)
        for p in range(n_parts + 1):
            if p == banned:
                continue
            if p < n_parts:
                if part_edges[p] & bit:
                    continue
                imb = part_imb[p]
                dt = 1 if imb[t] >= 0 else -1
                dh = -1 if imb[h] > 0 else 1
            else:
                dt = dh = 1
            if total_imb[t] + dt > rem[t] - 1 or \
                    total_imb[h] + dh > rem[h] - 1:
                continue
            if p == n_parts:
                part_edges.append(0)
                part_imb.append([0] * g.n)
                imb = part_imb[p]
            part_of[d] = p
            part_edges[p] |= bit
            imb[t] += 1
            imb[h] -= 1
            total_imb[t] += dt
            total_imb[h] += dh
            rem[t] -= 1
            rem[h] -= 1

            assign(d + 1)

            rem[t] += 1
            rem[h] += 1
            total_imb[t] -= dt
            total_imb[h] -= dh
            imb[t] -= 1
            imb[h] += 1
            part_edges[p] &= ~bit
            part_of[d] = -1
            if p == n_parts:
                part_edges.pop()
                part_imb.pop()
            if deadline.hit:
                return

    assign(0)
    return found


def _enumerate_all(g: SimpleGraph, deadline: _Deadline
                   ) -> dict[tuple, CircuitDoubleCover]:
    """Backtrack over edge slots; yields every cover, unoriented.

    Each edge contributes two slots going to two distinct parts
    (restricted growth, ordered pairs).  Pruning: at each vertex the
    number of odd-degree parts cannot exceed twice the unassigned
    incident edge count.  Evenness is then automatic at completion;
    connectivity is checked per part.
    """
    edges = sorted(g.edges)
    n_edges = len(edges)

    slot_parts: list[tuple[int, int]] = []
    part_odd: list[set[int]] = []       # vertices with odd degree in part
    part_members: list[list[int]] = []  # edge indices per part
    odd_count = [0] * g.n
    rem_e = [g.degree(v) for v in range(g.n)]

    found: dict[tuple, CircuitDoubleCover] = {}

    def record() -> None:
        circuits = []
        for members in part_members:
            part = [edges[i] for i in members]
            if not _edge_connected(part):
                return
            circuits.append(part)
        deadline.record(found, CircuitDoubleCover.build(circuits))

    def flip(p: int, u: int, v: int) -> None:
        for x in (u, v):
            odd = part_odd[p]
            if x in odd:
                odd.remove(x)
                odd_count[x] -= 1
            else:
                odd.add(x)
                odd_count[x] += 1

    def assign(i: int) -> None:
        if deadline.hit or deadline.tick():
            return
        if i == n_edges:
            record()
            return
        u, v = edges[i]
        rem_e[u] -= 1
        rem_e[v] -= 1
        n_parts = len(part_members)
        for pa in range(n_parts + 1):
            pb_limit = n_parts + (2 if pa == n_parts else 1)
            for pb in range(pa + 1, pb_limit):
                while len(part_members) < max(pa, pb) + 1:
                    part_members.append([])
                    part_odd.append(set())
                flip(pa, u, v)
                flip(pb, u, v)
                if odd_count[u] <= 2 * rem_e[u] and \
                        odd_count[v] <= 2 * rem_e[v]:
                    slot_parts.append((pa, pb))
                    part_members[pa].append(i)
                    part_members[pb].append(i)

                    assign(i + 1)

                    part_members[pb].pop()
                    part_members[pa].pop()
                    slot_parts.pop()
                flip(pb, u, v)
                flip(pa, u, v)
                while part_members and not part_members[-1]:
                    part_members.pop()
                    part_odd.pop()
                if deadline.hit:
                    break
            if deadline.hit:
                break
        rem_e[u] += 1
        rem_e[v] += 1

    assign(0)
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
    produced, each carrying a witness, via the dart-partition search.
    Otherwise ALL covers are produced by the slot-partition oracle and
    each cover's orientability is decided afterwards (witnesses are
    attached where they exist).

    ``max_edges`` guards against oversized hosts (EdgeLimitExceeded);
    ``time_budget`` (seconds) turns long searches into flagged partial
    results rather than exceptions, see :class:`EnumerationResult`.
    ``limit`` stops the search once that many distinct covers (of any
    orientability) have been found; the result then has
    ``limit_reached`` set and is not ``complete``.
    """
    if len(g.edges) > max_edges:
        raise EdgeLimitExceeded(
            f"{len(g.edges)} edges exceed the cap of {max_edges}")
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    start = time.monotonic()
    deadline = _Deadline(time_budget, limit)
    if orientable_only:
        found = _enumerate_oriented(g, deadline)
        covers = [found[key] for key in sorted(found)]
    else:
        found = _enumerate_all(g, deadline)
        covers = []
        for key in sorted(found):
            cover = found[key]
            witness = check_orientability(g, cover)
            if witness is not None:
                cover = CircuitDoubleCover(cover.circuits, witness.parts)
            covers.append(cover)
    return EnumerationResult(
        covers=tuple(covers),
        complete=not deadline.hit,
        orientable_only=orientable_only,
        elapsed=time.monotonic() - start,
        nodes=deadline.nodes,
        limit_reached=deadline.limit_reached,
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

    from .errors import TranslationNotACover

    images: list[frozenset[Edge]] = []
    kept: list[int] = []
    dropped: list[int] = []
    cycle_flags: list[bool] = []
    parts: list[frozenset[Arc]] = []
    for i, circuit in enumerate(cover.circuits):
        image = frozenset(back[e] for e in circuit if e in back)
        if not image:
            dropped.append(i)
            continue
        rep = validate_circuit(g, image)
        if not rep.valid:
            raise TranslationNotACover(
                f"image of circuit {i} is not a circuit: "
                + "; ".join(rep.problems))
        images.append(image)
        kept.append(i)
        cycle_flags.append(rep.is_cycle)
        if cover.orientation is not None:
            arcs = frozenset(
                (w_vertex[a], w_vertex[b])
                for a, b in cover.orientation[i]
                if normalize_edge(a, b) in back)
            parts.append(arcs)

    out_report = validate_cover(g, images)
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
        is_cycle=tuple(cycle_flags[j] for j in order),
        oriented=result.orientation is not None,
    )
