"""The benchmark's workloads: census, exact-search and stacking.

Each ``setup`` builds one workload's inputs from the seed and returns
the operations of one pass, in order.  An operation makes one call
into cdclab (a CLI command run in-process, or a library call), and its
check judges the output with the independent checkers in ``checks``.
A check may read the outputs of earlier operations of the same pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from random import Random
from typing import Any, Callable

import checks

# Past the census cap of 16 edges, so the 27-edge truncated prism runs.
MAX_EDGES = 32
NAMED = ["k4", "prism", "cube", "octahedron", "k222", "wheel:4", "wheel:5"]


@dataclass
class Op:
    name: str
    run: Callable[[dict[str, Any]], Any]
    check: Callable[[dict[str, Any], Any], list[str]]


def _cli(cd, argv: list[str]) -> tuple[int, str]:
    """One cdclab command, in-process: its exit code and its stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cd.cli.main(argv)
    return code, err.getvalue()


def _read(path: str) -> Any:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _rotation_of_file(path: str) -> dict[int, list[int]]:
    """The rotation system of a planar-map/v1 file, by vertex label."""
    return {row["id"]: row["rotation"] for row in _read(path)["vertices"]}


def _rotation(m) -> dict[int, list[int]]:
    return dict(enumerate(m.rotation_lists()))


def _relabel(cd, g, rng: Random):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return cd.SimpleGraph(g.n, frozenset(
        checks.edge(perm[u], perm[v]) for u, v in g.edges)), perm


def _plain(covers) -> list[tuple]:
    return [(c.circuits, c.orientation) for c in covers]


# -- census --------------------------------------------------------------

def census(cd, seed: int, work: str) -> list[Op]:
    """The paper's headline command over the default corpus.

    The corpus is fixed, so the seed changes nothing here.
    """
    out = os.path.join(work, "census.json")

    def run(_):
        return _cli(cd, ["census", "--workers", "1", "--out", out])[0]

    def check(_, code):
        return checks.census_problems(_read(out), code)

    return [Op("census", run, check)]


# -- exact-search ----------------------------------------------------------

def exact_search(cd, seed: int, work: str) -> list[Op]:
    """Exact cover counts on cubic and non-cubic hosts, and the
    validation and translation paths that read covers back."""
    select, graph = cd.corpus.select, cd.underlying_graph
    prism_t, _ = cd.complete_truncation(select("prism"))
    k4 = select("k4")
    k4_t, k4_corr = cd.complete_truncation(k4)
    dual = cd.apollonian_dual(cd.random_stacks(4, seed))
    w7, w6 = select("wheel:7"), select("wheel:6")
    g7, g6, gk4 = graph(w7), graph(w6), graph(k4)
    g6_copy, perm = _relabel(cd, g6, Random(seed))
    facial6 = checks.facial_cover(_rotation(w6))
    facial6_copy = checks.canonical(
        [[(perm[u], perm[v]) for u, v in c] for c in facial6])
    facial_k4 = checks.facial_cover(_rotation(k4))

    def law(found, unique: bool, facial: tuple) -> list[str]:
        problems = [] if found.complete else ["the search did not finish"]
        if any(c.orientation is None for c in found.covers):
            problems.append("a cover came without its orientation")
        count = len(found.covers)
        if unique and count != 1:
            problems.append(f"{count} covers, the law says exactly one")
        if not unique and count < 2:
            problems.append(f"{count} covers, the law says at least two")
        if facial not in {checks.canonical(c.circuits) for c in found.covers}:
            problems.append("the facial cover is missing")
        return problems

    def search(name: str, g, unique: bool, facial: tuple,
               same_count_as: str | None = None) -> Op:
        def run(_):
            return cd.enumerate_covers(g, max_edges=MAX_EDGES)

        def check(results, found):
            problems = checks.covers_problems(g.edges, _plain(found.covers))
            problems += law(found, unique, facial)
            if same_count_as is not None and \
                    len(found.covers) != len(results[same_count_as].covers):
                problems.append(f"count differs from {same_count_as}")
            return problems

        return Op(name, run, check)

    def oracle(_):
        return cd.enumerate_covers(g6, orientable_only=False,
                                   max_edges=MAX_EDGES)

    def check_oracle(results, found):
        problems = checks.covers_problems(g6.edges, _plain(found.covers))
        oriented = {checks.canonical(c.circuits)
                    for c in found.covers if c.orientation is not None}
        dart = {checks.canonical(c.circuits)
                for c in results["dart wheel:6"].covers}
        if oriented != dart:
            problems.append("orientable covers differ from the dart search")
        if not found.complete:
            problems.append("the search did not finish")
        return problems

    def validate(results):
        return [(cd.validate_cover(g7, c.circuits),
                 cd.check_orientability(g7, c))
                for c in results["dart wheel:7"].covers]

    def check_validate(results, out):
        problems = []
        for k, ((report, witness), cover) in enumerate(
                zip(out, results["dart wheel:7"].covers)):
            if not report.valid:
                problems.append(f"cover {k} judged invalid")
            if witness is None:
                problems.append(f"cover {k} judged not orientable")
                continue
            problems += [f"cover {k}: {p}" for p in checks.cover_problems(
                g7.edges, cover.circuits, witness.parts)]
        return problems

    def translate(results):
        return [cd.translate_cover(c, k4_corr)
                for c in results["dart k4^t"].covers]

    def check_translate(_, reports):
        problems = []
        for r in reports:
            problems += checks.cover_problems(
                gk4.edges, r.cover.circuits, r.cover.orientation)
            if not r.oriented:
                problems.append("the translated cover lost its orientation")
            if checks.canonical(r.cover.circuits) != facial_k4:
                problems.append("the translated cover is not K4's faces")
        return problems

    return [
        search("dart prism^t", graph(prism_t), True,
               checks.facial_cover(_rotation(prism_t))),
        search("dart k4^t", graph(k4_t), True,
               checks.facial_cover(_rotation(k4_t))),
        search("dart apollonian-dual", graph(dual), True,
               checks.facial_cover(_rotation(dual))),
        search("dart wheel:7", g7, False, checks.facial_cover(_rotation(w7))),
        search("dart wheel:6", g6, False, facial6),
        search("dart wheel:6 relabelled", g6_copy, False, facial6_copy,
               same_count_as="dart wheel:6"),
        Op("oracle wheel:6", oracle, check_oracle),
        Op("validate wheel:7 covers", validate, check_validate),
        Op("translate k4^t covers", translate, check_translate),
    ]


# -- stacking --------------------------------------------------------------

GENERATE_STACKS = 100
PROP41_SEEDS = 100
PROP41_STACKS = 20
# Bad edges per sweep seed, built once per process: each pass and each
# set-up would otherwise spend seconds rebuilding the same networks.
_SWEEP_BAD_EDGES: dict[int, set] = {}


def stacking(cd, seed: int, work: str) -> list[Op]:
    """The map side: stacking, recognition, the edge-classification
    sweep, the duality square and graph codes.  No cover search runs."""
    generated = os.path.join(work, "generated.json")
    maps = {name: cd.corpus.select(name) for name in NAMED}
    graphs = {name: cd.underlying_graph(m) for name, m in maps.items()}
    rng = Random(seed)
    copies = {name: _relabel(cd, g, rng)[0] for name, g in graphs.items()}
    # The 30-vertex network whose graph code fails: fixed, not seeded.
    big = "apollonian 26 stacks"
    graphs[big] = cd.underlying_graph(cd.generate_apollonian(26, seed=0))
    copies[big], _ = _relabel(cd, graphs[big], Random(0))
    first = PROP41_SEEDS * seed
    sweep_seeds = list(range(first, first + PROP41_SEEDS))

    def command(name: str, argv: list[str], check_report) -> Op:
        out = os.path.join(work, name.replace(" ", "_") + ".json")

        def run(_):
            return _cli(cd, argv + ["--out", out])[0]

        def check(_, code):
            return check_report(_read(out), code)

        return Op(name, run, check)

    def generate(_):
        return _cli(cd, ["apollonian", "generate",
                         "--stacks", str(GENERATE_STACKS),
                         "--seed", str(seed), "--out", generated])

    def check_generate(_, output):
        code, stderr = output
        problems = [] if code == 0 else [f"exit code {code}"]
        line = [x for x in stderr.splitlines()
                if x.startswith("stack sequence: ")]
        sequence = [int(x) for x in line[0].split(": ")[1].split(",")] \
            if line else []
        if len(sequence) != GENERATE_STACKS or any(
                not 0 <= c < 4 + 2 * i for i, c in enumerate(sequence)):
            problems.append("the stack sequence is not one face per step")
        return problems + checks.stacked_map_problems(
            _rotation_of_file(generated), GENERATE_STACKS)

    def check_recognition(report, code):
        rotation = _rotation_of_file(generated)
        holds = not checks.classification_bad_edges(rotation)
        problems = [] if code == 0 else [f"exit code {code}"]
        if report.get("apollonian") is not True:
            problems.append("a stacked network was not recognized")
        if (report.get("vertices"), report.get("edges")) != \
                (4 + GENERATE_STACKS, 6 + 3 * GENERATE_STACKS):
            problems.append("wrong vertex or edge count")
        if report.get("edge_classification_holds") is not holds:
            problems.append("edge classification verdict is wrong")
        return problems

    def check_sweep(report, code):
        for s in sweep_seeds:
            if s not in _SWEEP_BAD_EDGES:
                g = cd.underlying_graph(
                    cd.generate_apollonian(PROP41_STACKS, seed=s))
                _SWEEP_BAD_EDGES[s] = checks.classification_bad_edges(
                    g.adjacency)
        return checks.prop41_problems(
            report, code, {s: _SWEEP_BAD_EDGES[s] for s in sweep_seeds})

    def square(name: str, selector: str, vertices: int, edges: int) -> Op:
        return command(f"square {name}", ["verify", "square", selector],
                       lambda report, code: checks.square_problems(
                           report, code, vertices, edges))

    def graph_code(name: str) -> Op:
        def run(_):
            return (cd.graph_canonical_code(graphs[name]),
                    cd.graph_canonical_code(copies[name]))

        def check(results, codes):
            g = graphs[name]
            problems = checks.graph_code_problems(*codes, g.n)
            key = _invariant(g)
            for other in NAMED:
                done = results.get(f"graph code {other}")
                if done is None or other == name:
                    continue
                if (done[0] == codes[0]) != (_invariant(graphs[other]) == key):
                    problems.append(f"code equality with {other} is wrong")
            return problems

        return Op(f"graph code {name}", run, check)

    ops = [
        Op("apollonian generate", generate, check_generate),
        command("apollonian check", ["apollonian", "check", generated],
                check_recognition),
        command("verify prop41",
                ["verify", "prop41", "--seeds",
                 f"{sweep_seeds[0]}..{sweep_seeds[-1]}",
                 "--stacks", str(PROP41_STACKS)], check_sweep),
    ]
    ops += [square(name, name, m.vertex_count, m.edge_count)
            for name, m in maps.items()]
    ops.append(square("generated", "@" + generated, 4 + GENERATE_STACKS,
                      6 + 3 * GENERATE_STACKS))
    ops += [graph_code(name) for name in graphs]
    return ops


def _invariant(g) -> tuple:
    """Vertex count and degree sequence, which tell the named graphs
    apart exactly (only the octahedron and k222 share them)."""
    return g.n, sorted(len(g.adjacency[v]) for v in range(g.n))


WORKLOADS = {
    "census": census,
    "exact-search": exact_search,
    "stacking": stacking,
}
