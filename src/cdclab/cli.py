"""Command-line workbench.

Machine output is JSON on stdout (or ``--out``); diagnostics go to
stderr.  Exit codes: 0 success or pass, 1 verification failure,
2 usage error, 3 budget exhaustion.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from typing import Any, Sequence

from . import __version__
from .apollonian import (
    _stacked_graph,
    check_edge_classification,
    generate_apollonian,
    random_stacks,
)
from .cdc import (
    DEFAULT_MAX_EDGES,
    OrientedCover,
    check_orientability,
    enumerate_covers,
    translate_cover,
    validate_cover,
    validate_oriented_cover,
)
from .census import run_census
from .corpus import MAX_SIZE, select
from .errors import (
    BadSelector,
    CdcLabError,
    EdgeLimitExceeded,
    NotApollonian,
    TimeBudgetExceeded,
    UnknownEdge,
)
from .io_formats import (
    cover_to_json,
    correspondence_to_json,
    dumps,
    map_to_json,
    read_cover,
    read_map,
    report_to_json,
)
from .iso import verify_square
from .planar_map import PlanarMap, dualize, underlying_graph
from .surgery import (
    augment_face,
    complete_augmentation,
    complete_truncation,
    truncate_vertex,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _emit(ns: argparse.Namespace, obj: Any) -> None:
    text = dumps(obj)
    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {ns.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def _cmd_show(ns: argparse.Namespace) -> int:
    m = select(ns.graph)
    _emit(ns, report_to_json("show", {
        "name": ns.graph,
        "vertices": m.vertex_count,
        "edges": m.edge_count,
        "faces": m.face_count,
        "genus": m.euler_genus(),
        "face_lengths": sorted(len(f.darts) for f in m.faces),
        "faces_by_vertex_labels": [
            [m.labels[v] for v in f.boundary] for f in m.faces],
    }))
    return EXIT_PASS


def _cmd_dual(ns: argparse.Namespace) -> int:
    m = select(ns.graph)
    _emit(ns, map_to_json(dualize(m)))
    return EXIT_PASS


def _cmd_truncate(ns: argparse.Namespace) -> int:
    m = select(ns.graph)
    if ns.vertex is not None:
        try:
            v = m.labels.index(ns.vertex)
        except ValueError:
            raise BadSelector(f"vertex {ns.vertex} not in {ns.graph}")
        out, corr = truncate_vertex(m, v)
    else:
        out, corr = complete_truncation(m)
    _emit(ns, report_to_json("truncate", {
        "host": ns.graph,
        "map": map_to_json(out),
        "correspondence": correspondence_to_json(corr, m, out),
    }))
    return EXIT_PASS


def _cmd_augment(ns: argparse.Namespace) -> int:
    m = select(ns.graph)
    if ns.face is not None:
        if not 0 <= ns.face < m.face_count:
            raise BadSelector(f"face {ns.face} not in {ns.graph}")
        out, corr = augment_face(m, ns.face)
    else:
        out, corr = complete_augmentation(m)
    _emit(ns, report_to_json("augment", {
        "host": ns.graph,
        "map": map_to_json(out),
        "correspondence": correspondence_to_json(corr, m, out),
    }))
    return EXIT_PASS


def _cmd_apollonian_generate(ns: argparse.Namespace) -> int:
    stacks = random_stacks(ns.stacks, ns.seed)
    m = generate_apollonian(stacks)
    sys.stderr.write(f"stack sequence: {','.join(map(str, stacks))}\n")
    _emit(ns, map_to_json(m))
    return EXIT_PASS


def _cmd_apollonian_check(ns: argparse.Namespace) -> int:
    m = read_map(ns.file)
    g = underlying_graph(m)
    body: dict[str, Any] = {
        "file": ns.file,
        "vertices": g.n,
        "edges": len(g.edges),
    }
    try:
        report = check_edge_classification(g)
    except NotApollonian:
        body["apollonian"] = False
    else:
        body["apollonian"] = True
        body["edge_classification_holds"] = report.passed
    _emit(ns, report_to_json("apollonian-check", body))
    return EXIT_PASS if body["apollonian"] else EXIT_FAIL


def _surface(cover, g) -> dict[str, Any]:
    """chi = V - E + k of a valid cover, and its genus (None when chi
    is odd: the surface is pinched)."""
    chi = g.n - len(g.edges) + cover.k
    return {"chi": chi, "genus": (2 - chi) // 2 if chi % 2 == 0 else None}


def _cover_entry(cover, m: PlanarMap, g) -> dict[str, Any]:
    entry = cover_to_json(cover, "", m)
    del entry["format"]
    del entry["host"]
    entry["circuits_count"] = cover.k
    entry["orientable"] = cover.orientation is not None
    entry.update(_surface(cover, g))
    return entry


def _cmd_cdc_enumerate(ns: argparse.Namespace) -> int:
    m = select(ns.graph)
    g = underlying_graph(m)
    orientable_only = not ns.all
    result = enumerate_covers(g, orientable_only=orientable_only,
                              max_edges=ns.max_edges, time_budget=ns.budget)
    covers = [_cover_entry(c, m, g) for c in result.covers]
    orientable = sum(1 for c in result.covers if c.orientation is not None)
    _emit(ns, report_to_json("enumeration", {
        "host": ns.graph,
        "orientable_only": orientable_only,
        "complete": result.complete,
        "count": len(result.covers),
        "orientable_count": orientable,
        "covers": covers,
        "settings": {"max_edges": ns.max_edges, "time_budget": ns.budget},
        "timing": {"elapsed": round(result.elapsed, 3),
                   "nodes": result.nodes, "search": result.search},
    }))
    if not result.complete:
        print(f"budget: search stopped after {result.elapsed:.1f} s "
              f"with {len(result.covers)} covers found", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_PASS


def _cmd_cdc_validate(ns: argparse.Namespace) -> int:
    m = select(ns.graph)
    g = underlying_graph(m)
    cover = read_cover(ns.cover, m)
    report = validate_cover(g, cover.circuits)
    body: dict[str, Any] = {
        "host": ns.graph,
        "cover": ns.cover,
        "valid": report.valid,
        "cycle_cover": report.is_cycle_cover,
        "circuits": [{"is_cycle": r.is_cycle, "problems": list(r.problems)}
                     for r in report.circuits],
        "problems": list(report.problems),
    }
    if report.valid:
        body["orientable"] = check_orientability(g, cover) is not None
        body.update(_surface(cover, g))
    passed = report.valid
    if cover.orientation is not None:
        problems = validate_oriented_cover(
            g, cover, OrientedCover(cover.orientation))
        body["orientation_problems"] = problems
        passed = passed and not problems
    _emit(ns, report_to_json("cover-validation", body))
    return EXIT_PASS if passed else EXIT_FAIL


def _cmd_cdc_translate(ns: argparse.Namespace) -> int:
    m = select(ns.graph)
    mt, corr = complete_truncation(m)
    cover = read_cover(ns.cover, mt)
    report = translate_cover(cover, corr)
    out_cover = cover_to_json(report.cover, ns.graph, m)
    _emit(ns, report_to_json("translation", {
        "host": ns.graph,
        "truncation_cover": ns.cover,
        "dropped": list(report.dropped),
        "kept": list(report.kept),
        "is_cycle": list(report.is_cycle),
        "oriented": report.oriented,
        "cover": out_cover,
    }))
    return EXIT_PASS


def _cmd_verify_square(ns: argparse.Namespace) -> int:
    m = select(ns.graph)
    report = verify_square(m)
    _emit(ns, report_to_json("square", {
        "host": ns.graph,
        "vertices": report.vertices,
        "edges": report.edges,
        "isomorphic": report.isomorphic,
        "phi_valid": report.phi_valid,
        "passed": report.passed,
        "code_a": report.code_a,
        "code_b": report.code_b,
    }))
    return EXIT_PASS if report.passed else EXIT_FAIL


def _parse_seed_range(text: str) -> list[int]:
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            lo, hi = int(lo), int(hi)
        except ValueError:
            raise BadSelector(f"bad seed range {text!r}")
        if hi - lo >= MAX_SIZE:
            raise BadSelector(
                f"seed range {text!r} holds more than {MAX_SIZE} seeds")
        seeds = list(range(lo, hi + 1))
        if not seeds:
            raise BadSelector(f"empty seed range {text!r}")
        return seeds
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise BadSelector(f"bad seed list {text!r}")


def _cmd_verify_prop41(ns: argparse.Namespace) -> int:
    seeds = _parse_seed_range(ns.seeds)
    start = time.monotonic()
    entries = []
    all_pass = True
    for seed in seeds:
        report = check_edge_classification(_stacked_graph(ns.stacks, seed))
        bad = [{"edge": list(e.edge),
                "degree_three_endpoint": e.degree_three,
                "in_separating_triangle": e.in_separating_triangle}
               for e in report.entries if not e.ok]
        entries.append({"seed": seed, "passed": report.passed,
                        "bad_edges": bad})
        all_pass = all_pass and report.passed
    _emit(ns, report_to_json("edge-classification", {
        "stacks": ns.stacks,
        "seeds": seeds,
        "entries": entries,
        "passed": all_pass,
        "timing": {"elapsed": round(time.monotonic() - start, 3)},
    }))
    return EXIT_PASS if all_pass else EXIT_FAIL


def _cmd_census(ns: argparse.Namespace) -> int:
    report = run_census(ns.corpus, max_edges=ns.max_edges,
                        time_budget=ns.budget, workers=ns.workers)
    _emit(ns, report)
    if report["verdict"] != "pass":
        return EXIT_FAIL
    if report["incomplete"]:
        return EXIT_BUDGET
    return EXIT_PASS


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line on stderr."""

    def error(self, message: str):
        self.exit(EXIT_USAGE, f"error: {self.prog}: {message}\n")


def _budget(text: str) -> float:
    """A time budget in seconds: finite and not negative."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(
            f"need a finite number of seconds >= 0, got {text!r}")
    return value


def _at_least(least: int):
    """An argparse type for integers of at least ``least``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = least - 1
        if value < least:
            raise argparse.ArgumentTypeError(
                f"need an integer >= {least}, got {text!r}")
        return value
    return parse


def _branch(argv: Sequence[str] | None, level: int,
            names: tuple[str, ...]) -> tuple[str, ...]:
    """The subcommands to build at one level of the parser tree.

    The top-level and group parsers take no option with a value, so
    argparse reads ``argv[level]`` as this level's command whenever it
    is one of ``names``, and the siblings would go unused.  (A group
    reads ``argv[1]`` unless options come before its name, and then
    ``argv[1]`` is an option or that name, never one of ``names``.)
    Any other token (help, ``--version``, a typo, none at all) gets
    the level in full, so every message that lists the commands is
    unchanged.
    """
    if argv is not None and level < len(argv) and argv[level] in names:
        return (argv[level],)
    return names


def build_parser(argv: Sequence[str] | None = None
                 ) -> argparse.ArgumentParser:
    """The command-line parser: the full tree, or with ``argv`` only the
    branch that ``argv`` takes (see :func:`_branch`)."""
    parser = _Parser(
        prog="cdclab",
        description="planar-map surgeries and circuit double covers")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    build = _branch(argv, 0, ("show", "dual", "truncate", "augment",
                              "apollonian", "cdc", "verify", "census"))

    def add_out(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", help="write JSON here instead of stdout")

    if "show" in build:
        p = sub.add_parser("show", help="counts, faces, genus")
        p.add_argument("graph")
        add_out(p)
        p.set_defaults(func=_cmd_show)

    if "dual" in build:
        p = sub.add_parser("dual", help="planar dual as planar-map/v1")
        p.add_argument("graph")
        add_out(p)
        p.set_defaults(func=_cmd_dual)

    if "truncate" in build:
        p = sub.add_parser("truncate", help="vertex truncation")
        p.add_argument("graph")
        grp = p.add_mutually_exclusive_group()
        grp.add_argument("--vertex", type=int,
                         help="truncate one vertex label")
        grp.add_argument("--all", action="store_true",
                         help="complete truncation (default)")
        add_out(p)
        p.set_defaults(func=_cmd_truncate)

    if "augment" in build:
        p = sub.add_parser("augment", help="face augmentation")
        p.add_argument("graph")
        grp = p.add_mutually_exclusive_group()
        grp.add_argument("--face", type=int, help="augment one face index")
        grp.add_argument("--all", action="store_true",
                         help="complete augmentation (default)")
        add_out(p)
        p.set_defaults(func=_cmd_augment)

    if "apollonian" in build:
        p = sub.add_parser("apollonian", help="generate or recognize")
        asub = p.add_subparsers(dest="subcommand", required=True)
        leaves = _branch(argv, 1, ("generate", "check"))
        if "generate" in leaves:
            pg = asub.add_parser("generate", help="random stacking from K4")
            pg.add_argument("--stacks", type=int, default=10)
            pg.add_argument("--seed", type=int, default=0)
            add_out(pg)
            pg.set_defaults(func=_cmd_apollonian_generate)
        if "check" in leaves:
            pc = asub.add_parser("check",
                                 help="recognize a planar-map/v1 file")
            pc.add_argument("file")
            add_out(pc)
            pc.set_defaults(func=_cmd_apollonian_check)

    if "cdc" in build:
        p = sub.add_parser("cdc", help="circuit double covers")
        csub = p.add_subparsers(dest="subcommand", required=True)
        leaves = _branch(argv, 1, ("enumerate", "validate", "translate"))
        if "enumerate" in leaves:
            pe = csub.add_parser("enumerate", help="exhaustive cover search")
            pe.add_argument("graph")
            pe.add_argument("--all", action="store_true",
                            help="all covers, orientability decided per "
                                 "cover")
            pe.add_argument("--max-edges", type=_at_least(0),
                            default=DEFAULT_MAX_EDGES)
            pe.add_argument("--budget", type=_budget, default=None,
                            help="time budget in seconds")
            add_out(pe)
            pe.set_defaults(func=_cmd_cdc_enumerate)
        if "validate" in leaves:
            pv = csub.add_parser("validate", help="check a cover/v1 file")
            pv.add_argument("graph")
            pv.add_argument("--cover", required=True)
            add_out(pv)
            pv.set_defaults(func=_cmd_cdc_validate)
        if "translate" in leaves:
            pt = csub.add_parser(
                "translate", help="pull a truncation cover back to the host")
            pt.add_argument("graph", help="the host; its complete "
                                          "truncation carries the cover")
            pt.add_argument("--cover", required=True)
            add_out(pt)
            pt.set_defaults(func=_cmd_cdc_translate)

    if "verify" in build:
        p = sub.add_parser("verify", help="machine checks")
        vsub = p.add_subparsers(dest="subcommand", required=True)
        leaves = _branch(argv, 1, ("square", "prop41"))
        if "square" in leaves:
            pvs = vsub.add_parser(
                "square", help="augment-the-dual vs dualize-the-truncation")
            pvs.add_argument("graph")
            add_out(pvs)
            pvs.set_defaults(func=_cmd_verify_square)
        if "prop41" in leaves:
            pvp = vsub.add_parser("prop41", help="edge classification sweep")
            pvp.add_argument("--seeds", default="0..99",
                             help="range a..b or comma list")
            pvp.add_argument("--stacks", type=int, default=20)
            add_out(pvp)
            pvp.set_defaults(func=_cmd_verify_prop41)

    if "census" in build:
        p = sub.add_parser("census", help="orientable-cover census")
        p.add_argument("--corpus", nargs="+", metavar="SELECTOR",
                       help="one or more selectors (default: the built-in "
                            "corpus)")
        p.add_argument("--max-edges", type=_at_least(0),
                       default=DEFAULT_MAX_EDGES)
        p.add_argument("--budget", type=_budget, default=None,
                       help="time budget in seconds per entry")
        p.add_argument("--workers", type=_at_least(1), default=1,
                       help="census processes (default 1)")
        add_out(p)
        p.set_defaults(func=_cmd_census)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return ns.func(ns)
    except (BadSelector, UnknownEdge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (EdgeLimitExceeded, TimeBudgetExceeded) as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CdcLabError as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
