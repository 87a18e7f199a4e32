"""Named example maps and the graph-selector grammar used by the CLI.

Selectors: ``k4``, ``prism``, ``cube``, ``octahedron``, ``k222``,
``wheel:n``, ``apollonian:<i,j,...>``, ``apollonian-dual:<i,j,...>``,
or ``@path.json`` for a ``planar-map/v1`` file.
"""

from __future__ import annotations

from .errors import BadSelector
from .planar_map import PlanarMap, from_rotation

# The largest wheel, stack count or seed range a command builds; past
# it a size is refused before anything is built, not run out of memory.
MAX_SIZE = 100_000


def k4() -> PlanarMap:
    """Complete graph on four vertices, embedded as the tetrahedron."""
    return from_rotation({
        1: [2, 3, 4],
        2: [1, 4, 3],
        3: [1, 2, 4],
        4: [1, 3, 2],
    })


def wheel(n: int) -> PlanarMap:
    """Wheel: hub vertex 1 joined to an n-cycle on vertices 2..n+1."""
    if n < 3:
        raise BadSelector(f"a wheel needs at least 3 rim vertices, got {n}")
    if n > MAX_SIZE:
        raise BadSelector(f"wheel size {n} is over the cap of {MAX_SIZE}")
    rim = [i + 2 for i in range(n)]
    adjacency: dict[int, list[int]] = {1: rim}
    for j, r in enumerate(rim):
        prev = rim[(j - 1) % n]
        nxt = rim[(j + 1) % n]
        adjacency[r] = [1, prev, nxt]
    return from_rotation(adjacency)


def prism(n: int = 3) -> PlanarMap:
    """n-gonal prism: inner cycle 1..n, outer cycle n+1..2n, rungs i..i+n."""
    if n < 3:
        raise BadSelector(f"a prism needs at least 3-gonal bases, got {n}")
    adjacency: dict[int, list[int]] = {}
    for j in range(n):
        inner = j + 1
        outer = j + 1 + n
        inner_next = (j + 1) % n + 1
        inner_prev = (j - 1) % n + 1
        adjacency[inner] = [outer, inner_next, inner_prev]
        adjacency[outer] = [inner, inner_prev + n, inner_next + n]
    return from_rotation(adjacency)


def cube() -> PlanarMap:
    """The cube, realized as the square prism."""
    return prism(4)


def octahedron() -> PlanarMap:
    """The octahedron (complete tripartite K_{2,2,2}).

    Labels follow the hand-drawn plane embedding used by the cover
    fixtures: the non-adjacent pairs are {1,6}, {2,4}, {3,5}.
    """
    return from_rotation({
        1: [5, 2, 3, 4],
        2: [3, 1, 5, 6],
        3: [1, 2, 6, 4],
        4: [6, 5, 1, 3],
        5: [6, 2, 1, 4],
        6: [3, 2, 5, 4],
    })


def k222() -> PlanarMap:
    """Alias for :func:`octahedron`, under its tripartite name."""
    return octahedron()


def _parse_stacks(arg: str) -> list[int]:
    arg = arg.strip()
    if not arg:
        return []
    try:
        return [int(part) for part in arg.split(",")]
    except ValueError as exc:
        raise BadSelector(f"bad stacking sequence {arg!r}") from exc


def select(name: str) -> PlanarMap:
    """Resolve a selector string to a map.

    Raises :class:`BadSelector` for anything unparseable; file selectors
    propagate I/O and format errors.
    """
    name = name.strip()
    if name.startswith("@"):
        from .io_formats import read_map
        return read_map(name[1:])
    head, sep, arg = name.partition(":")
    simple = {
        "k4": k4,
        "prism": prism,
        "cube": cube,
        "octahedron": octahedron,
        "k222": k222,
    }
    if head in simple:
        if sep:
            raise BadSelector(f"{head} takes no argument")
        return simple[head]()
    if head == "wheel":
        if not sep:
            raise BadSelector("wheel needs a size, e.g. wheel:5")
        try:
            n = int(arg)
        except ValueError as exc:
            raise BadSelector(f"bad wheel size {arg!r}") from exc
        return wheel(n)
    if head in ("apollonian", "apollonian-dual"):
        from . import apollonian  # local import: apollonian builds on k4()
        if head == "apollonian":
            return apollonian.generate_apollonian(_parse_stacks(arg))
        return apollonian.apollonian_dual(_parse_stacks(arg))
    raise BadSelector(f"unknown graph selector {name!r}")


def default_census_corpus() -> list[str]:
    """Selectors the census runs when none are given.

    Straddles both sides of the unique-cover characterisation: the
    Apollonian duals (expected count 1) and a band of small non-duals
    (expected count at least 2), all within the default edge budget.
    The alias ``k222`` is left out: it is the octahedron again.
    """
    names = ["k4", "prism", "cube", "octahedron", "wheel:4", "wheel:5"]
    sequences: list[list[int]] = [[]]
    sequences += [[i] for i in range(4)]
    sequences += [[i, j] for i in range(4) for j in range(6)]
    names += ["apollonian-dual:" + ",".join(map(str, s)) for s in sequences]
    return names
