"""JSON wire formats: planar-map/v1, cover/v1, correspondence/v1, report/v1.

Files speak the label space of their host map (vertex ids as given by
the user); library objects speak dense internal ids.  The helpers here
convert between the two explicitly.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from .cdc import CircuitDoubleCover, Edge
from .errors import BadSelector, UnknownEdge
from .planar_map import PlanarMap, from_rotation
from .surgery import Correspondence

MAP_FORMAT = "planar-map/v1"
COVER_FORMAT = "cover/v1"
CORRESPONDENCE_FORMAT = "correspondence/v1"
REPORT_FORMAT = "report/v1"


def _expect_format(data: Any, wanted: str) -> None:
    if not isinstance(data, Mapping):
        raise BadSelector(
            f"{wanted} needs a JSON object, got {type(data).__name__}")
    got = data.get("format")
    if got != wanted:
        raise BadSelector(f"expected format {wanted!r}, got {got!r}")


def map_to_json(m: PlanarMap) -> dict[str, Any]:
    rows = []
    rotations = m.rotation_lists()
    for v in range(m.vertex_count):
        rows.append({
            "id": m.labels[v],
            "rotation": [m.labels[w] for w in rotations[v]],
        })
    return {"format": MAP_FORMAT, "vertices": rows}


def map_from_json(data: Any) -> PlanarMap:
    if isinstance(data, Mapping) and data.get("format") == REPORT_FORMAT \
            and isinstance(data.get("map"), Mapping):
        # surgery reports embed their output map; accept them directly
        return map_from_json(data["map"])
    _expect_format(data, MAP_FORMAT)
    rows = data.get("vertices")
    if not isinstance(rows, list) or not rows:
        raise BadSelector("planar-map/v1 needs a nonempty 'vertices' list")
    adjacency: dict[int, list[int]] = {}
    for row in rows:
        try:
            adjacency[int(row["id"])] = [int(x) for x in row["rotation"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise BadSelector(f"bad vertex row {row!r}") from exc
    if len(adjacency) != len(rows):
        raise BadSelector("duplicate vertex ids")
    return from_rotation(adjacency)


def _index_of(m: PlanarMap) -> dict[int, int]:
    return {label: i for i, label in enumerate(m.labels)}


def cover_to_json(cover: CircuitDoubleCover, host: str,
                  m: PlanarMap | None = None) -> dict[str, Any]:
    """Serialize a cover, converting internal ids to host labels."""
    lab = (lambda v: v) if m is None else (lambda v: m.labels[v])
    out: dict[str, Any] = {
        "format": COVER_FORMAT,
        "host": host,
        "circuits": [
            sorted([lab(u), lab(v)] for u, v in c) for c in cover.circuits
        ],
    }
    if cover.orientation is not None:
        out["orientation"] = [
            sorted([lab(u), lab(v)] for u, v in part)
            for part in cover.orientation
        ]
    return out


def cover_from_json(data: Any,
                    m: PlanarMap | None = None) -> CircuitDoubleCover:
    """Parse a cover, converting host labels to internal ids."""
    _expect_format(data, COVER_FORMAT)
    circuits = data.get("circuits")
    if not isinstance(circuits, list):
        raise BadSelector("cover/v1 needs a 'circuits' list")
    idx = None if m is None else _index_of(m)

    def vid(x: Any) -> int:
        x = int(x)
        if idx is None:
            return x
        if x not in idx:
            raise UnknownEdge(f"vertex {x} not in host map")
        return idx[x]

    def pairs(rows: Any) -> list[list[tuple[int, int]]]:
        try:
            return [[(vid(u), vid(v)) for u, v in row] for row in rows]
        except (TypeError, ValueError) as exc:
            raise BadSelector(
                f"cover/v1 rows must be lists of [u, v] pairs: {exc}") from exc

    parsed = pairs(circuits)
    orientation = data.get("orientation")
    if orientation is None:
        return CircuitDoubleCover.build(parsed)
    return CircuitDoubleCover.build(
        parsed, [frozenset(p) for p in pairs(orientation)])


def _edge_out(e: Edge, lab) -> list[int]:
    return sorted([lab(e[0]), lab(e[1])])


def correspondence_to_json(corr: Correspondence,
                           source: PlanarMap | None = None,
                           result: PlanarMap | None = None) -> dict[str, Any]:
    """Serialize the four tables, keyed by source-map labels.

    ``source`` labels the modified map's side of each table,
    ``result`` the produced map's side; identity when omitted.
    """
    slab = (lambda v: v) if source is None else (lambda v: source.labels[v])
    rlab = (lambda v: v) if result is None else (lambda v: result.labels[v])
    return {
        "format": CORRESPONDENCE_FORMAT,
        "kind": corr.kind,
        "inherited_edges": sorted(
            [_edge_out(e, slab), _edge_out(img, rlab)]
            for e, img in corr.inherited_edges.items()),
        "corner_edges": sorted(
            [[slab(v), _edge_out(e, slab)], _edge_out(img, rlab)]
            for (v, e), img in corr.corner_edges.items()),
        "vertex_faces": sorted(
            [slab(v), [rlab(w) for w in cycle]]
            for v, cycle in corr.vertex_faces.items()),
        "face_faces": sorted(
            [f, rlab(img) if corr.kind == "augment" else img]
            for f, img in corr.face_faces.items()),
        "vertex_map": sorted(
            [slab(v), rlab(w)] for v, w in corr.vertex_map.items()),
    }


def report_to_json(kind: str, body: Mapping[str, Any]) -> dict[str, Any]:
    out: dict[str, Any] = {"format": REPORT_FORMAT, "kind": kind}
    out.update(body)
    return out


def strip_timing(obj: Any) -> Any:
    """Copy of a JSON tree with every 'timing' member removed.

    Reports compare byte-identical across runs once timing is gone.
    """
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k != "timing"}
    if isinstance(obj, list):
        return [strip_timing(x) for x in obj]
    return obj


def dumps(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def load_path(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_map(path: str) -> PlanarMap:
    """Load a planar-map/v1 file."""
    return map_from_json(load_path(path))


def read_cover(path: str, m: PlanarMap | None = None) -> CircuitDoubleCover:
    """Load a cover/v1 file, resolving labels against ``m`` if given."""
    return cover_from_json(load_path(path), m)
