"""Each checker accepts a correct output and rejects a broken one.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
from pathlib import Path

import checks
import run
import spans

K4 = {1: [2, 3, 4], 2: [1, 4, 3], 3: [1, 2, 4], 4: [1, 3, 2]}


def k4_edges():
    return {checks.edge(u, v) for u, nbrs in K4.items() for v in nbrs}


def facial(rotation):
    walks = checks.faces(rotation)
    return ([[checks.edge(u, v) for u, v in w] for w in walks],
            [list(w) for w in walks])


def stack(rotation, walk):
    """Plant a new vertex in the face with vertex walk ``walk``."""
    out = {v: list(nbrs) for v, nbrs in rotation.items()}
    apex = max(out) + 1
    for i, v in enumerate(walk):
        out[v].insert(out[v].index(walk[i - 1]) + 1, apex)
    out[apex] = list(reversed(walk))
    return out


def face_walk(rotation, containing):
    for w in checks.faces(rotation):
        if {u for u, _ in w} == set(containing):
            return [u for u, _ in w]
    raise AssertionError(f"no face on {containing}")


def test_cover_law_accepts_the_facial_cover():
    circuits, orientation = facial(K4)
    assert checks.cover_problems(k4_edges(), circuits, orientation) == []


def test_cover_law_rejects_a_dropped_edge():
    circuits, orientation = facial(K4)
    circuits[0] = circuits[0][1:]
    assert checks.cover_problems(k4_edges(), circuits) != []


def test_cover_law_rejects_a_flipped_arc():
    circuits, orientation = facial(K4)
    u, v = orientation[0][0]
    orientation[0][0] = (v, u)
    assert checks.cover_problems(k4_edges(), circuits) == []
    assert checks.cover_problems(k4_edges(), circuits, orientation) != []


def test_cover_law_rejects_an_odd_or_split_circuit():
    edges = k4_edges()
    # Two disjoint edges, twice: every edge of that pair is covered
    # twice, but the circuits are neither even nor connected.
    bad = [[(1, 2), (3, 4)], [(1, 2), (3, 4)]]
    problems = checks.cover_problems({(1, 2), (3, 4)}, bad)
    assert any("odd degree" in p for p in problems)
    assert any("not connected" in p for p in problems)
    assert checks.cover_problems(edges, bad) != []


def test_covers_reject_a_duplicated_cover():
    cover = facial(K4)
    assert checks.covers_problems(k4_edges(), [cover]) == []
    problems = checks.covers_problems(k4_edges(), [cover, cover])
    assert problems == ["cover 1 repeats cover 0"]


def test_stacked_map_counts():
    once = stack(K4, face_walk(K4, (1, 2, 3)))
    assert checks.stacked_map_problems(K4, 0) == []
    assert checks.stacked_map_problems(once, 1) == []
    assert checks.stacked_map_problems(once, 2) != []


def test_stacked_map_rejects_a_dropped_edge_and_a_long_face():
    once = stack(K4, face_walk(K4, (1, 2, 3)))
    once[1].remove(5)
    assert checks.stacked_map_problems(once, 1) != []
    once[5].remove(1)   # now symmetric again, but one face is a square
    problems = checks.stacked_map_problems(once, 1)
    assert "1 faces are not triangles" in problems


def two_adjacent_stacks():
    """K4 stacked into two faces sharing the edge (1, 2).

    Vertices 3 and 4 end with degree 4, and both triangles through the
    edge (3, 4) are faces, so that edge is the one bad edge.
    """
    once = stack(K4, face_walk(K4, (1, 2, 3)))
    return stack(once, face_walk(once, (1, 2, 4)))


def test_classification_finds_the_shared_edge():
    assert checks.classification_bad_edges(K4) == set()
    assert checks.classification_bad_edges(two_adjacent_stacks()) == {(3, 4)}


def sweep_report(bad_by_seed):
    return {
        "seeds": list(bad_by_seed),
        "entries": [{"seed": s, "passed": not bad,
                     "bad_edges": [{"edge": list(e)} for e in sorted(bad)]}
                    for s, bad in bad_by_seed.items()],
        "passed": not any(bad_by_seed.values()),
    }


def test_sweep_check():
    expected = {0: set(), 1: {(1, 2)}}
    assert checks.prop41_problems(sweep_report(expected), 1, expected) == []
    assert checks.prop41_problems(sweep_report(expected), 0, expected) != []
    dropped = sweep_report({0: set(), 1: set()})
    assert checks.prop41_problems(dropped, 0, expected) != []


def census_entry(name, count, dual_apollonian, lower=False):
    return {"name": name, "orientable_covers": count,
            "count_is_lower_bound": lower,
            "dual_apollonian": dual_apollonian, "verdict": "pass"}


def census_report(entries):
    return {"corpus": [e["name"] for e in entries], "entries": entries,
            "verdict": "pass", "failed": []}


def test_census_follows_the_law():
    good = [census_entry("k4", 1, True),
            census_entry("apollonian-dual:0,1", 1, True),
            census_entry("cube", 2, False, lower=True),
            census_entry("wheel:5", 47, False)]
    assert checks.census_problems(census_report(good), 0) == []
    for broken in (census_entry("k4", 2, True),
                   census_entry("prism", 1, True, lower=True),
                   census_entry("cube", 1, False),
                   census_entry("wheel:4", 5, True),
                   census_entry("petersen", 1, False)):
        assert checks.census_problems(census_report([broken]), 0) != []
    assert checks.census_problems(census_report(good), 1) != []


def test_square_check():
    report = {"vertices": 8, "edges": 18, "passed": True,
              "isomorphic": True, "phi_valid": True,
              "code_a": "ab", "code_b": "ab"}
    assert checks.square_problems(report, 0, 4, 6) == []
    assert checks.square_problems(dict(report, edges=17), 0, 4, 6) != []
    assert checks.square_problems(dict(report, code_b="ac"), 0, 4, 6) != []


def test_graph_code_check():
    code = b"G1" + (4).to_bytes(4, "big") + b"\x3f"
    assert checks.graph_code_problems(code, code, 4) == []
    assert checks.graph_code_problems(code, code, 5) != []
    assert checks.graph_code_problems(code, code + b"\x00", 4) != []


def test_self_time_excludes_child_spans():
    metric_of = {"generate_apollonian": "apollonian.generate_s",
                 "random_stacks": "apollonian.random_stacks_s"}
    recorded = [["generate_apollonian", 0.0, 4.0, -1, 8],
                ["random_stacks", 1.0, 2.0, 0, None],
                ["enumerate_covers", 5.0, 7.0, -1, (True, True, 4000, 2)]]
    m = spans.layer_metrics(recorded, metric_of)
    assert m["apollonian.generate_s"] == 3.0
    assert m["apollonian.random_stacks_s"] == 1.0
    assert m["apollonian.stacks_per_s"] == 2.0
    assert m["cdc.dart_cubic_s"] == m["cdc.dart_search_s"] == 2.0
    assert m["cdc.dart_nodes_per_s"] == 2000.0
    assert m["cdc.covers_per_knode"] == 0.5


def test_benchmark_json_names_what_the_runs_print():
    spec = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json")
        .read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == spans.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
