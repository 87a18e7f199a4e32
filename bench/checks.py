"""Output checkers for the benchmark, sharing no code with cdclab.

Every checker works on plain data (ints, tuples, sets, lists and the
dicts that ``json`` parses) and returns a list of problems; an empty
list means the output passed.  Expectations come from the
constructions and from the uniqueness law (a 3-connected planar graph
has exactly one orientable circuit double cover iff its dual is an
Apollonian network), never from what the program printed before.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Iterable, Mapping, Sequence

Edge = tuple[int, int]
Arc = tuple[int, int]
Rotation = Mapping[int, Sequence[int]]


def edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def canonical(circuits: Iterable[Iterable[Edge]]) -> tuple:
    """Multiset identity of a cover: sorted circuits of sorted edges."""
    return tuple(sorted(tuple(sorted(edge(u, v) for u, v in c))
                        for c in circuits))


def _connected(adj: Mapping[int, Iterable[int]],
               removed: frozenset[int] = frozenset()) -> bool:
    alive = [v for v in adj if v not in removed]
    if not alive:
        return True
    seen = {alive[0]}
    queue = deque(seen)
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in seen and y not in removed:
                seen.add(y)
                queue.append(y)
    return len(seen) == len(alive)


def cover_problems(host_edges: Iterable[Edge],
                   circuits: Sequence[Iterable[Edge]],
                   orientation: Sequence[Iterable[Arc]] | None = None,
                   ) -> list[str]:
    """The double-cover law for one cover.

    Each edge of the host lies in exactly two circuits, and each
    circuit is a nonempty, even, connected set of host edges.  With an
    orientation, part ``i`` runs each edge of circuit ``i`` exactly
    once, is balanced at every vertex, and over all parts each host
    edge is run once in each direction.
    """
    host = {edge(u, v) for u, v in host_edges}
    problems: list[str] = []
    times: Counter[Edge] = Counter()
    sets = []
    for i, c in enumerate(circuits):
        cs = [edge(u, v) for u, v in c]
        if len(set(cs)) != len(cs):
            problems.append(f"circuit {i} repeats an edge")
        cs_set = set(cs)
        sets.append(cs_set)
        times.update(cs_set)
        if not cs_set:
            problems.append(f"circuit {i} is empty")
            continue
        if cs_set - host:
            problems.append(f"circuit {i} uses edges not in the host")
        degree: Counter[int] = Counter()
        adj: dict[int, list[int]] = {}
        for u, v in cs_set:
            degree[u] += 1
            degree[v] += 1
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        odd = sorted(v for v, d in degree.items() if d % 2)
        if odd:
            problems.append(f"circuit {i} has odd degree at {odd}")
        if not _connected(adj):
            problems.append(f"circuit {i} is not connected")
    for e in sorted(host):
        if times[e] != 2:
            problems.append(f"edge {e} lies in {times[e]} circuits, not 2")
    if orientation is None:
        return problems

    parts = [list(p) for p in orientation]
    if len(parts) != len(sets):
        return problems + [f"{len(parts)} parts orient {len(sets)} circuits"]
    runs: Counter[Arc] = Counter()
    for i, (cs_set, part) in enumerate(zip(sets, parts)):
        if len(part) != len(cs_set) or \
                {edge(u, v) for u, v in part} != cs_set:
            problems.append(f"part {i} does not run circuit {i} once")
        balance: Counter[int] = Counter()
        for u, v in part:
            balance[u] += 1
            balance[v] -= 1
        unbalanced = sorted(v for v, b in balance.items() if b)
        if unbalanced:
            problems.append(f"part {i} is unbalanced at {unbalanced}")
        runs.update(part)
    for u, v in sorted(host):
        if runs[(u, v)] != 1 or runs[(v, u)] != 1:
            problems.append(f"edge {(u, v)} is not run once each way")
    return problems


def covers_problems(host_edges: Iterable[Edge],
                    covers: Sequence[tuple[Sequence[Iterable[Edge]],
                                           Sequence[Iterable[Arc]] | None]],
                    ) -> list[str]:
    """:func:`cover_problems` for each cover, and pairwise distinctness.

    ``covers`` holds ``(circuits, orientation)`` pairs; the orientation
    may be None for covers the search left unoriented.
    """
    host = [edge(u, v) for u, v in host_edges]
    problems: list[str] = []
    seen: dict[tuple, int] = {}
    for k, (circuits, orientation) in enumerate(covers):
        problems += [f"cover {k}: {p}"
                     for p in cover_problems(host, circuits, orientation)]
        key = canonical(circuits)
        if key in seen:
            problems.append(f"cover {k} repeats cover {seen[key]}")
        seen.setdefault(key, k)
    return problems


def faces(rotation: Rotation) -> list[list[Arc]]:
    """Face walks of a rotation system, each as its list of arcs.

    After arc (x, y) the walk leaves y towards the neighbour that
    follows x in y's counterclockwise rotation.
    """
    at = {(v, w): i for v, nbrs in rotation.items()
          for i, w in enumerate(nbrs)}
    seen: set[Arc] = set()
    walks = []
    for start in at:
        if start in seen:
            continue
        walk = []
        arc = start
        while arc not in seen:
            seen.add(arc)
            walk.append(arc)
            x, y = arc
            nbrs = rotation[y]
            arc = (y, nbrs[(at[(y, x)] + 1) % len(nbrs)])
        walks.append(walk)
    return walks


def rotation_problems(rotation: Rotation) -> list[str]:
    """A rotation system must describe a simple graph: no loops, no
    repeated neighbours, and every adjacency listed from both ends."""
    problems = []
    for v, nbrs in rotation.items():
        if v in nbrs or len(set(nbrs)) != len(nbrs):
            problems.append(f"vertex {v} has a loop or a repeated neighbour")
        for w in nbrs:
            if w not in rotation or v not in rotation[w]:
                problems.append(f"edge ({v}, {w}) is listed from one end")
    return problems


def facial_cover(rotation: Rotation) -> tuple:
    """Canonical form of the cover made of all face boundaries."""
    return canonical([[edge(u, v) for u, v in walk]
                      for walk in faces(rotation)])


def stacked_map_problems(rotation: Rotation, stacks: int) -> list[str]:
    """A map grown from K4 by ``stacks`` stackings is a triangulation
    with V = 4 + n, E = 6 + 3n and F = 4 + 2n."""
    problems = rotation_problems(rotation)
    if problems:
        return problems
    v_count = len(rotation)
    e_count = sum(len(nbrs) for nbrs in rotation.values()) // 2
    walks = faces(rotation)
    for name, got, want in (("V", v_count, 4 + stacks),
                            ("E", e_count, 6 + 3 * stacks),
                            ("F", len(walks), 4 + 2 * stacks)):
        if got != want:
            problems.append(f"{name} = {got}, expected {want}")
    long_faces = sum(1 for w in walks if len(w) != 3)
    if long_faces:
        problems.append(f"{long_faces} faces are not triangles")
    return problems


def classification_bad_edges(adj: Mapping[int, Iterable[int]]) -> set[Edge]:
    """Edges with no degree-3 endpoint and in no separating triangle.

    A triangle separates when deleting its three vertices disconnects
    the graph.
    """
    adj = {v: set(nbrs) for v, nbrs in adj.items()}
    separating: set[Edge] = set()
    for u in adj:
        for v in adj[u]:
            if v <= u:
                continue
            for w in adj[u] & adj[v]:
                if w <= v:
                    continue
                if not _connected(adj, frozenset((u, v, w))):
                    separating |= {edge(u, v), edge(u, w), edge(v, w)}
    return {edge(u, v) for u in adj for v in adj[u]
            if u < v and len(adj[u]) != 3 and len(adj[v]) != 3
            and edge(u, v) not in separating}


def prop41_problems(report: Mapping, exit_code: int,
                    expected_bad: Mapping[int, set[Edge]]) -> list[str]:
    """The edge-classification sweep against recomputed bad edges."""
    problems = []
    seeds = list(expected_bad)
    if report.get("seeds") != seeds:
        problems.append("the report does not list the requested seeds")
    entries = {e.get("seed"): e for e in report.get("entries", [])}
    if sorted(entries) != sorted(seeds):
        problems.append("the report does not have one entry per seed")
    for seed in seeds:
        entry = entries.get(seed, {})
        got = {edge(*b["edge"]) for b in entry.get("bad_edges", [])}
        if got != expected_bad[seed]:
            problems.append(f"seed {seed}: bad edges {sorted(got)}, "
                            f"expected {sorted(expected_bad[seed])}")
        if entry.get("passed") is not (not expected_bad[seed]):
            problems.append(f"seed {seed}: wrong pass flag")
    all_pass = not any(expected_bad.values())
    if report.get("passed") is not all_pass:
        problems.append("wrong overall pass flag")
    if exit_code != (0 if all_pass else 1):
        problems.append(f"exit code {exit_code} disagrees with the sweep")
    return problems


def expected_dual_apollonian(name: str) -> bool | None:
    """Whether a census selector's dual is Apollonian, by construction.

    Duals of stacked networks, K4 (self-dual, and the wheel with three
    spokes) and the triangular prism (dual: K4 stacked once) are
    Apollonian.  The duals of the cube (the octahedron), of the
    octahedron and its alias k222 (the cube) and of a wheel with n >= 4
    spokes (the same wheel) have no degree-3 vertex whose neighbours
    form a triangle, so they cannot be unstacked.  None means the
    benchmark knows no construction for the name.
    """
    if name.startswith("apollonian-dual:") or name in ("k4", "prism"):
        return True
    if name in ("cube", "octahedron", "k222"):
        return False
    if name.startswith("wheel:") and name[6:].isdigit():
        return int(name[6:]) == 3
    return None


def census_problems(report: Mapping, exit_code: int) -> list[str]:
    """Each census entry judged by the law, without pinning the corpus.

    An entry whose dual is Apollonian needs a complete count of exactly
    one; any other needs at least two, which a lower bound may show.
    """
    problems = []
    entries = report.get("entries", [])
    if not entries:
        problems.append("the report has no entries")
    if [e.get("name") for e in entries] != report.get("corpus"):
        problems.append("entries do not match the corpus list")
    for e in entries:
        name = e.get("name", "?")
        want = expected_dual_apollonian(name)
        count = e.get("orientable_covers", 0)
        lower = e.get("count_is_lower_bound", False)
        if want is None:
            problems.append(f"{name}: no construction known")
            continue
        if e.get("dual_apollonian") is not want:
            problems.append(f"{name}: dual_apollonian should be {want}")
        if want and (lower or count != 1):
            problems.append(f"{name}: needs exactly one cover, "
                            f"got {count}{'+' if lower else ''}")
        if not want and count < 2:
            problems.append(f"{name}: needs at least two covers, got {count}")
        if e.get("verdict") != "pass":
            problems.append(f"{name}: verdict {e.get('verdict')}")
    if report.get("verdict") != "pass" or report.get("failed"):
        problems.append("the census verdict is not pass")
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    return problems


def square_problems(report: Mapping, exit_code: int,
                    vertices: int, edges: int) -> list[str]:
    """Both sides of the square have V + F vertices and 3E edges, and
    their map codes agree."""
    faces_ = 2 - vertices + edges
    problems = []
    if report.get("vertices") != vertices + faces_:
        problems.append(f"{report.get('vertices')} vertices, "
                        f"expected {vertices + faces_}")
    if report.get("edges") != 3 * edges:
        problems.append(f"{report.get('edges')} edges, expected {3 * edges}")
    if not (report.get("passed") and report.get("isomorphic")
            and report.get("phi_valid")):
        problems.append("the square does not close")
    if report.get("code_a") != report.get("code_b"):
        problems.append("map codes differ")
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    return problems


def graph_code_problems(code: bytes, relabelled: bytes, n: int) -> list[str]:
    """A graph code names its vertex count and ignores vertex names."""
    problems = []
    if code[2:6] != n.to_bytes(4, "big"):
        problems.append(f"code header does not name {n} vertices")
    if code != relabelled:
        problems.append("a relabelled copy gets another code")
    return problems
