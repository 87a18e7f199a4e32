"""JSON formats and the command-line surface."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cdclab.apollonian
from cdclab import cli
from cdclab.cdc import CircuitDoubleCover, check_orientability, facial_cover
from cdclab.cli import main
from cdclab.apollonian import random_stacks
from cdclab.corpus import MAX_SIZE, k4, select
from cdclab.errors import BadSelector, UnknownEdge
from cdclab.io_formats import (
    COVER_FORMAT,
    MAP_FORMAT,
    cover_from_json,
    cover_to_json,
    correspondence_to_json,
    dumps,
    map_from_json,
    map_to_json,
    report_to_json,
    strip_timing,
)
from cdclab.iso import maps_isomorphic
from cdclab.planar_map import underlying_graph
from cdclab.surgery import complete_truncation

from conftest import corpus_maps


# ---------------------------------------------------------------- formats

def test_map_round_trip_on_corpus():
    for name, m in corpus_maps():
        data = map_to_json(m)
        assert data["format"] == MAP_FORMAT
        back = map_from_json(json.loads(dumps(data)))
        assert maps_isomorphic(m, back), name


def test_map_json_speaks_labels():
    m = select("apollonian:0,1")
    data = map_to_json(m)
    ids = [row["id"] for row in data["vertices"]]
    assert sorted(ids) == sorted(m.labels)
    for row in data["vertices"]:
        assert set(row["rotation"]) <= set(ids)


def test_map_from_json_rejects_junk():
    with pytest.raises(BadSelector):
        map_from_json({"format": "nope"})
    with pytest.raises(BadSelector):
        map_from_json({"format": MAP_FORMAT, "vertices": [{"id": 1}]})


def test_cover_round_trip_with_orientation():
    m = k4()
    g = underlying_graph(m)
    cover = facial_cover(m)
    witness = check_orientability(g, cover)
    assert witness is not None
    data = cover_to_json(cover, "k4", m)
    assert data["format"] == COVER_FORMAT
    assert "orientation" in data
    back = cover_from_json(json.loads(dumps(data)), m)
    assert back.canonical_form() == cover.canonical_form()


def test_cover_from_json_checks_edges():
    m = k4()
    data = {
        "format": COVER_FORMAT,
        "host": "k4",
        "circuits": [[[1, 2], [2, 9], [1, 9]]],
    }
    with pytest.raises(UnknownEdge):
        cover_from_json(data, m)


def test_correspondence_json_shape():
    m = k4()
    out, corr = complete_truncation(m)
    data = correspondence_to_json(corr, source=m, result=out)
    assert data["kind"] == "truncate"
    assert len(data["inherited_edges"]) == 6
    assert len(data["corner_edges"]) == 12
    # rows are [source, image] pairs; images partition the output edges
    images = {tuple(img) for _, img in data["inherited_edges"]}
    images |= {tuple(img) for _, img in data["corner_edges"]}
    assert len(images) == 18
    assert len(data["vertex_faces"]) == 4
    assert data["vertex_faces"] == sorted(data["vertex_faces"])


def test_strip_timing_is_recursive():
    doc = {
        "timing": {"elapsed": 1.0},
        "entries": [{"name": "x", "timing": {"nodes": 3}}],
        "keep": 1,
    }
    clean = strip_timing(doc)
    assert clean == {"entries": [{"name": "x"}], "keep": 1}
    # original untouched
    assert "timing" in doc


def test_report_wrapper_carries_map():
    m = k4()
    doc = report_to_json("truncate", {"map": map_to_json(m)})
    # @file selectors accept reports that embed a map
    back = map_from_json(doc)
    assert maps_isomorphic(m, back)


def test_dumps_is_stable():
    a = dumps({"b": 1, "a": [2, 1]})
    b = dumps({"a": [2, 1], "b": 1})
    assert a == b
    assert a.endswith("\n")


# ---------------------------------------------------------------- cli

def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_show_reports_counts(capsys):
    code, out, _ = run_cli(capsys, "show", "k4")
    assert code == 0
    doc = json.loads(out)
    assert doc["vertices"] == 4
    assert doc["edges"] == 6
    assert doc["faces"] == 4
    assert doc["genus"] == 0


def test_show_accepts_file_selector(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(dumps(map_to_json(select("wheel:4"))))
    code, out, _ = run_cli(capsys, "show", f"@{path}")
    assert code == 0
    assert json.loads(out)["vertices"] == 5


def test_bad_selector_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "show", "dodecahedron")
    assert code == 2
    assert "error" in err


def test_dual_emits_plain_map(capsys):
    code, out, _ = run_cli(capsys, "dual", "cube")
    assert code == 0
    doc = json.loads(out)
    assert doc["format"] == MAP_FORMAT
    assert len(doc["vertices"]) == 6


def test_truncate_and_augment_report_correspondence(capsys):
    code, out, _ = run_cli(capsys, "truncate", "k4", "--all")
    assert code == 0
    doc = json.loads(out)
    assert doc["correspondence"]["kind"] == "truncate"
    assert len(doc["map"]["vertices"]) == 12

    code, out, _ = run_cli(capsys, "augment", "k4", "--all")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["map"]["vertices"]) == 8


def test_apollonian_generate_then_check(tmp_path, capsys):
    path = tmp_path / "ap.json"
    code, _, _ = run_cli(capsys, "apollonian", "generate", "--stacks", "6",
                         "--seed", "3", "--out", str(path))
    assert code == 0
    code, out, _ = run_cli(capsys, "apollonian", "check", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["apollonian"] is True


def test_apollonian_check_rejects_cube(tmp_path, capsys):
    path = tmp_path / "cube.json"
    path.write_text(dumps(map_to_json(select("cube"))))
    code, out, _ = run_cli(capsys, "apollonian", "check", str(path))
    assert code == 1
    assert json.loads(out)["apollonian"] is False


def test_apollonian_check_recognises_once(tmp_path, capsys, monkeypatch):
    calls = []
    recognise = cdclab.apollonian._unstack

    def counting(g):
        calls.append(g)
        return recognise(g)

    monkeypatch.setattr(cdclab.apollonian, "_unstack", counting)
    for name, exit_code in (("apollonian:0,1,2", 0), ("cube", 1)):
        path = tmp_path / "map.json"
        path.write_text(dumps(map_to_json(select(name))))
        calls.clear()
        code, _, _ = run_cli(capsys, "apollonian", "check", str(path))
        assert (code, len(calls)) == (exit_code, 1), name


def test_enumerate_to_file_and_validate(tmp_path, capsys):
    covers = tmp_path / "covers.json"
    code, _, err = run_cli(capsys, "cdc", "enumerate", "k4",
                           "--out", str(covers))
    assert code == 0
    assert "wrote" in err
    doc = json.loads(covers.read_text())
    assert doc["count"] == 1

    single = tmp_path / "one.json"
    entry = doc["covers"][0]
    single.write_text(dumps({
        "format": COVER_FORMAT,
        "host": "k4",
        "circuits": entry["circuits"],
    }))
    code, out, _ = run_cli(capsys, "cdc", "validate", "k4",
                           "--cover", str(single))
    assert code == 0
    body = json.loads(out)
    assert body["valid"] is True
    assert body["orientable"] is True
    assert body["genus"] == 0


def test_validate_flags_bad_cover(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(dumps({
        "format": COVER_FORMAT,
        "host": "k4",
        "circuits": [[[1, 2], [2, 3], [1, 3]]],
    }))
    code, out, _ = run_cli(capsys, "cdc", "validate", "k4",
                           "--cover", str(bad))
    assert code == 1
    assert json.loads(out)["valid"] is False


def test_validate_checks_orientation_rows(tmp_path, capsys):
    doc = cover_to_json(facial_cover(k4()), "k4", k4())
    witness = tmp_path / "good.json"
    witness.write_text(dumps(doc))
    code, out, _ = run_cli(capsys, "cdc", "validate", "k4",
                           "--cover", str(witness))
    assert code == 0
    assert json.loads(out)["orientation_problems"] == []

    # every part is the same unbalanced arc set 1->2, 2->3, 1->3
    bad = tmp_path / "bad.json"
    bad.write_text(dumps(
        {**doc, "orientation": [[[1, 2], [2, 3], [1, 3]]] * 4}))
    code, out, _ = run_cli(capsys, "cdc", "validate", "k4",
                           "--cover", str(bad))
    assert code == 1
    body = json.loads(out)
    assert body["valid"] is True
    assert body["orientation_problems"]
    assert any("unbalanced" in p for p in body["orientation_problems"])


def test_enumerate_respects_edge_budget(capsys):
    code, _, err = run_cli(capsys, "cdc", "enumerate", "cube",
                           "--max-edges", "4")
    assert code == 3
    assert "budget" in err


def test_translate_pipeline(tmp_path, capsys):
    trunc = tmp_path / "tk4.json"
    code, _, _ = run_cli(capsys, "truncate", "k4", "--all",
                         "--out", str(trunc))
    assert code == 0

    covers = tmp_path / "covers.json"
    code, _, _ = run_cli(capsys, "cdc", "enumerate", f"@{trunc}",
                         "--max-edges", "18", "--out", str(covers))
    assert code == 0
    entry = json.loads(covers.read_text())["covers"][0]

    one = tmp_path / "cover.json"
    one.write_text(dumps({
        "format": COVER_FORMAT,
        "host": "(k4)^t",
        "circuits": entry["circuits"],
        "orientation": entry["orientation"],
    }))
    code, out, _ = run_cli(capsys, "cdc", "translate", "k4",
                           "--cover", str(one))
    assert code == 0
    body = json.loads(out)
    assert len(body["kept"]) + len(body["dropped"]) == len(entry["circuits"])
    assert len(body["dropped"]) == 4
    assert body["oriented"] is True


def test_verify_square_subcommand(capsys):
    code, out, _ = run_cli(capsys, "verify", "square", "prism")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_prop41_reports_failures(capsys):
    # seed 0 already contains the two-stack counterexample shape
    code, out, _ = run_cli(capsys, "verify", "prop41",
                           "--seeds", "0..2", "--stacks", "6")
    doc = json.loads(out)
    assert code in (0, 1)
    assert doc["seeds"] == [0, 1, 2]
    failed = [r for r in doc["entries"] if not r["passed"]]
    assert (code == 1) == bool(failed)


def test_verify_prop41_rejects_empty_seed_range(capsys):
    code, out, err = run_cli(capsys, "verify", "prop41", "--seeds", "5..1")
    assert_one_line_usage_error(code, err)
    assert "empty seed range" in err
    assert out == ""


def test_census_small_corpus(tmp_path, capsys):
    path = tmp_path / "census.json"
    code, _, _ = run_cli(capsys, "census", "--corpus", "k4", "prism",
                         "--out", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["verdict"] == "pass"
    counts = {e["name"]: e["orientable_covers"] for e in doc["entries"]}
    assert counts == {"k4": 1, "prism": 1}


def test_census_takes_stacked_selectors(tmp_path, capsys):
    # selectors are separate arguments; a stacking sequence keeps its commas
    path = tmp_path / "census.json"
    code, _, _ = run_cli(capsys, "census", "--corpus", "apollonian-dual:0,1",
                         "apollonian-dual:2,0,3", "wheel:4", "--workers", "1",
                         "--out", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["corpus"] == ["apollonian-dual:0,1", "apollonian-dual:2,0,3",
                             "wheel:4"]
    entries = {e["name"]: e for e in doc["entries"]}
    assert entries["apollonian-dual:0,1"]["orientable_covers"] == 1
    assert entries["apollonian-dual:2,0,3"]["orientable_covers"] == 1
    assert doc["verdict"] == "pass"
    assert {name: e["timing"]["search"] for name, e in entries.items()} == {
        "apollonian-dual:0,1": "core",
        "apollonian-dual:2,0,3": "core",
        "wheel:4": "certificate"}


@pytest.mark.parametrize("graph,flags,search", [
    ("cube", [], "transition"),
    ("wheel:4", [], "transition"),
    ("cube", ["--all"], "slot"),
])
def test_enumerate_reports_the_search(capsys, graph, flags, search):
    code, out, _ = run_cli(capsys, "cdc", "enumerate", graph, *flags)
    assert code == 0
    assert json.loads(out)["timing"]["search"] == search


def test_oracle_past_the_recursion_limit_is_a_budget_exit(tmp_path, capsys):
    # 1,200 edges: the slot oracle keeps one stack frame per edge
    path = tmp_path / "covers.json"
    code, _, err = run_cli(capsys, "cdc", "enumerate", "wheel:600", "--all",
                           "--max-edges", "2000", "--budget", "2",
                           "--out", str(path))
    assert code == 3
    assert "Traceback" not in err
    wrote, budget = err.splitlines()
    assert wrote == f"wrote {path}"
    assert budget.startswith("budget: search stopped after")
    assert json.loads(path.read_text())["complete"] is False


def test_enumerate_counts_every_octahedron_cover(tmp_path, capsys):
    # the census stops at two covers; full counts come from cdc enumerate
    path = tmp_path / "covers.json"
    code, _, _ = run_cli(capsys, "cdc", "enumerate", "octahedron",
                         "--out", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert (doc["count"], doc["complete"]) == (6663, True)


def test_census_entry_over_the_edge_cap_is_incomplete(tmp_path, capsys):
    # the cap bounds only a searched core: the cube's core is the cube
    # (12 edges) and is left undecided, the prism's core is K4 and is
    # not searched; the rest of the census runs
    path = tmp_path / "census.json"
    code, _, _ = run_cli(capsys, "census", "--corpus", "k4", "prism", "cube",
                         "--workers", "1", "--max-edges", "6",
                         "--out", str(path))
    assert code == 3
    doc = json.loads(path.read_text())
    entries = {e["name"]: e for e in doc["entries"]}
    assert entries["k4"]["verdict"] == entries["prism"]["verdict"] == "pass"
    cube = entries["cube"]
    assert (cube["verdict"], cube["orientable_covers"],
            cube["count_is_lower_bound"], cube["complete"],
            cube["timing"]["search"], cube["timing"]["nodes"]) == \
        ("incomplete", 0, True, False, None, 0)
    assert (doc["verdict"], doc["completed"], doc["incomplete"]) == \
        ("pass", 2, ["cube"])

    code, _, _ = run_cli(capsys, "census", "--workers", "1",
                         "--max-edges", "0", "--out", str(path))
    assert code == 3
    doc = json.loads(path.read_text())
    assert (doc["verdict"], doc["incomplete"]) == ("pass", ["cube"])
    assert doc["completed"] == len(doc["corpus"]) - 1


_SERIAL_CENSUS_IMPORTS = """
import json, sys
import cdclab, cdclab.cli
code = cdclab.cli.main(["census", *sys.argv[2:], "--corpus", "k4",
                        "wheel:4", "--out", sys.argv[1]])
with open(sys.argv[1]) as f:
    workers = json.load(f)["timing"]["workers"]
print(code, workers, sorted(m for m in ("concurrent.futures",
                                        "multiprocessing")
                            if m in sys.modules))
"""


def test_serial_census_loads_no_pool_machinery(tmp_path):
    # the pool, and multiprocessing under it, load only when one starts;
    # a census with no --workers is serial
    src = Path(__file__).resolve().parent.parent / "src"
    for workers in (["--workers", "1"], []):
        done = subprocess.run(
            [sys.executable, "-c", _SERIAL_CENSUS_IMPORTS,
             str(tmp_path / "census.json"), *workers], capture_output=True,
            text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert done.returncode == 0, done.stderr
        assert done.stdout == "0 1 []\n", workers


def test_default_census_decides_at_two_covers(tmp_path, capsys):
    path = tmp_path / "census.json"
    code, _, _ = run_cli(capsys, "census", "--workers", "1",
                         "--out", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["verdict"] == "pass"
    entries = {e["name"]: e for e in doc["entries"]}
    assert "k222" not in entries
    octa = entries["octahedron"]
    assert (octa["orientable_covers"], octa["count_is_lower_bound"],
            octa["complete"], octa["verdict"]) == (2, True, False, "pass")
    assert doc["incomplete"] == []
    assert doc["completed"] == len(entries)


def assert_one_line_usage_error(code, err):
    assert code == 2
    assert err.startswith("error:")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["show", "@{path}"],
    ["cdc", "validate", "k4", "--cover", "{path}"],
    ["apollonian", "check", "{path}"],
])
@pytest.mark.parametrize("payload", [
    "[1, 2]", "3", "null", '"map"',
    # nested past the recursion limit of the JSON decoder
    pytest.param("[" * 100_000 + "]" * 100_000, id="deep")])
def test_json_top_level_must_be_object(tmp_path, capsys, argv, payload):
    path = tmp_path / "doc.json"
    path.write_text(payload)
    code, _, err = run_cli(capsys, *[a.format(path=path) for a in argv])
    assert_one_line_usage_error(code, err)


@pytest.mark.parametrize("argv", [
    ["show", "@{path}"],
    ["apollonian", "check", "{path}"],
    ["census", "--workers", "1", "--corpus", "@{path}"],
    # two entries, so the default pool size can exceed one
    ["census", "--corpus", "k4", "@{path}"],
], ids=["show", "apollonian-check", "census-serial", "census-default"])
@pytest.mark.parametrize("rotation", [
    # the ascending K4 closes up on the torus
    {1: [2, 3, 4], 2: [1, 3, 4], 3: [1, 2, 4], 4: [1, 2, 3]},
    {1: [1, 2, 3], 2: [1, 3], 3: [1, 2]},
    # a planar K4 once each id is truncated to an integer; ids must be
    # JSON integers, so each of these is refused
    {1.5: [2, 3, 4], 2: [1.9, 4, 3], 3: [1, 2, 4], 4: [1, 3, 2]},
    {1: [2.0, 3, 4], 2: [1, 4, 3], 3: [1, 2, 4], 4: [1, 3, 2]},
    {True: [2, 3, 4], 2: [1, 4, 3], 3: [1, 2, 4], 4: [1, 3, 2]},
    {1: [2, 3, 4], "2": [1, 4, 3], 3: [1, 2, 4], 4: [1, 3, 2]},
], ids=["toroidal-k4", "loop", "float-id", "integral-float-neighbour",
        "bool-id", "string-id"])
def test_malformed_map_files_are_usage_errors(tmp_path, capsys, argv,
                                              rotation):
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"format": MAP_FORMAT, "vertices": [
        {"id": v, "rotation": row} for v, row in rotation.items()]}))
    code, out, err = run_cli(capsys, *[a.format(path=path) for a in argv])
    assert_one_line_usage_error(code, err)
    assert out == ""


@pytest.mark.parametrize("workers", [
    ["--workers", "1"], [], ["--workers", "2"],
    # refused before the edge cap, which would leave it undecided
    ["--workers", "1", "--max-edges", "0"],
], ids=["serial", "default", "pool", "serial-over-cap"])
@pytest.mark.parametrize("rotation", [
    {1: [2, 4], 2: [3, 1], 3: [4, 2], 4: [1, 3]},
    {1: [3, 4, 5], 2: [5, 4, 3], 3: [1, 2], 4: [1, 2], 5: [1, 2]},
    # two copies of K4 minus an edge glued at that edge's ends: non-cubic,
    # 2-connected, and its dual is simple
    {1: [3, 4, 5, 6], 2: [3, 6, 5, 4], 3: [1, 2, 4], 4: [1, 3, 2],
     5: [1, 2, 6], 6: [1, 5, 2]},
], ids=["4-cycle", "k23", "glued-k4-minus-edge"])
def test_census_entry_that_is_not_3_connected_fails(tmp_path, capsys,
                                                    workers, rotation):
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"format": MAP_FORMAT, "vertices": [
        {"id": v, "rotation": row} for v, row in rotation.items()]}))
    code, out, err = run_cli(capsys, "census", *workers, "--corpus", "k4",
                             f"@{path}")
    assert code == 1
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"failed: census entry '@{path}' is not "
                          "3-connected: ")
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["augment", "k4", "--face", "99"],
    ["augment", "k4", "--face", "-1"],
    ["truncate", "k4", "--vertex", "99"],
    ["augment", "k4", "--face", "4"],
])
def test_out_of_range_surgery_sites_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert_one_line_usage_error(code, err)
    assert f"{argv[-1]} not in k4" in err
    assert out == ""


@pytest.mark.parametrize("body", [
    {"circuits": [[1]]},
    {"circuits": [[[1, 2, 3]]]},
    {"circuits": [[[1, None]]]},
    {"circuits": [[[1, 2]]], "orientation": 5},
    # two circuits, one orientation part
    {"circuits": [[[1, 2], [2, 3], [1, 3]], [[1, 2], [2, 4], [1, 4]]],
     "orientation": [[[1, 2], [2, 3], [3, 1]]]},
    # vertex ids are JSON integers: no float, bool or string
    {"circuits": [[[1.2, 2]]]},
    {"circuits": [[[1, 2.0]]]},
    {"circuits": [[[True, 2]]]},
    {"circuits": [[["1", 2]]]},
    {"circuits": [[[1, 2], [2, 3], [1, 3]]],
     "orientation": [[[1, 2], [2, 3], [3, 1.0]]]},
])
def test_malformed_cover_rows_are_usage_errors(tmp_path, capsys, body):
    path = tmp_path / "cover.json"
    path.write_text(json.dumps({"format": COVER_FORMAT, **body}))
    code, _, err = run_cli(capsys, "cdc", "validate", "k4",
                           "--cover", str(path))
    assert_one_line_usage_error(code, err)


@pytest.mark.parametrize("argv", [
    ["cdc", "enumerate", "octahedron", "--budget", "-1"],
    ["cdc", "enumerate", "k4", "--budget", "nan"],
    ["cdc", "enumerate", "k4", "--budget", "inf"],
    ["census", "--corpus", "k4", "--budget", "-0.5"],
    ["census", "--corpus", "k4", "--budget", "nan"],
    ["census", "--corpus", "k4", "--workers", "0"],
    ["census", "--corpus", "k4", "--workers", "-2"],
    ["cdc", "enumerate", "k4", "--max-edges", "-5"],
    ["census", "--corpus", "k4", "--max-edges", "-1"],
    ["cdc", "enumerate", "k4", "--orientable-only"],
])
def test_bad_flag_values_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert_one_line_usage_error(code, err)
    assert out == ""


# Sizes just past the cap, refused before anything is built.  Do not
# try a size far past it on a build without the cap: it fills the
# memory of the machine.
@pytest.mark.parametrize("argv,message", [
    (["show", f"wheel:{MAX_SIZE + 1}"],
     f"wheel size {MAX_SIZE + 1} is over the cap of {MAX_SIZE}"),
    (["apollonian", "generate", "--stacks", f"{MAX_SIZE + 1}"],
     f"stack count {MAX_SIZE + 1} is over the cap of {MAX_SIZE}"),
    (["verify", "prop41", "--stacks", f"{MAX_SIZE + 1}", "--seeds", "0"],
     f"stack count {MAX_SIZE + 1} is over the cap of {MAX_SIZE}"),
    (["verify", "prop41", "--seeds", f"0..{MAX_SIZE}"],
     f"seed range '0..{MAX_SIZE}' holds more than {MAX_SIZE} seeds"),
], ids=["wheel", "stacks", "prop41-stacks", "seed-range"])
def test_sizes_over_the_cap_are_usage_errors(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert_one_line_usage_error(code, err)
    assert err == f"error: {message}\n"
    assert out == ""


def test_sizes_at_the_cap_are_accepted():
    assert len(cli._parse_seed_range(f"1..{MAX_SIZE}")) == MAX_SIZE
    assert len(random_stacks(MAX_SIZE, 0)) == MAX_SIZE


def test_usage_error_on_missing_subcommand(capsys):
    code, _, _ = run_cli(capsys, "cdc")
    assert code == 2


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "show", "k4", "--frobnicate")
    assert code == 2


# ------------------------------------------------- one parser branch

LEAVES = [["show"], ["dual"], ["truncate"], ["augment"],
          ["apollonian", "generate"], ["apollonian", "check"],
          ["cdc", "enumerate"], ["cdc", "validate"], ["cdc", "translate"],
          ["verify", "square"], ["verify", "prop41"], ["census"]]
GROUPS = [["apollonian"], ["cdc"], ["verify"]]


def _parser_cases(tmp_path):
    """Help at every level, bad and missing commands, ``--``, options
    before the command, and one valid run of each leaf command."""
    ap = tmp_path / "ap.json"
    ap.write_text(dumps(map_to_json(select("apollonian:0,1"))))
    cover = tmp_path / "cover.json"
    cover.write_text(dumps(cover_to_json(facial_cover(k4()), "k4", k4())))
    mt, _ = complete_truncation(k4())
    tcover = tmp_path / "tcover.json"
    tcover.write_text(dumps(cover_to_json(facial_cover(mt), "(k4)^t", mt)))
    generated = tmp_path / "generated.json"
    usage = [[], ["-h"], ["--help"], ["--version"], ["--"],
             ["--", "show", "k4"], ["--out", "x", "show", "k4"],
             ["-x", "verify", "square", "k4"], ["-1"], [""], ["sho", "k4"],
             ["nope"], ["-h", "verify"], ["--version", "show"],
             ["show", "k4", "--version"], ["show", "k4", "junk"],
             ["verify", "--", "square", "k4"], ["verify", "generate"],
             ["apollonian", "square"], ["cdc", "--version"],
             ["apollonian", "gen"], ["census", "--workers", "0"]]
    usage += [group + flag for group in GROUPS for flag in ([], ["-h"])]
    usage += [leaf + ["-h"] for leaf in LEAVES]
    runs = [["show", "k4"], ["dual", "prism"],
            ["truncate", "k4", "--vertex", "1"],
            ["augment", "k4", "--face", "0"],
            ["apollonian", "generate", "--stacks", "3", "--seed", "2",
             "--out", str(generated)],
            ["apollonian", "check", str(ap)],
            ["cdc", "enumerate", "prism"],
            ["cdc", "validate", "k4", "--cover", str(cover)],
            ["cdc", "translate", "k4", "--cover", str(tcover)],
            ["verify", "square", "k4"],
            ["verify", "prop41", "--seeds", "0..3", "--stacks", "4"],
            ["census", "--corpus", "k4", "prism", "--workers", "1"]]
    return usage, runs


def _run_main(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    try:
        out = dumps(strip_timing(json.loads(out)))
    except ValueError:
        pass
    return code, out, err


def test_one_branch_parser_matches_the_full_tree(tmp_path, capsys,
                                                 monkeypatch):
    usage, runs = _parser_cases(tmp_path)
    assert len(runs) == len(LEAVES)
    shipped = [_run_main(capsys, argv) for argv in usage + runs]
    # help and --version exit 0; the prop41 sweep finds bad edges (1)
    assert all(code in (0, 2) for code, _, _ in shipped[:len(usage)])
    assert all(code in (0, 1) for code, _, _ in shipped[len(usage):])
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv=None: full())
    for argv, got in zip(usage + runs, shipped):
        assert _run_main(capsys, argv) == got, argv


def test_a_named_command_builds_one_branch():
    parser = cli.build_parser(["verify", "square", "k4"])
    (top,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert list(top.choices) == ["verify"]
