"""JSON formats and the command-line surface."""

import json

import pytest

from cdclab.cdc import CircuitDoubleCover, check_orientability, facial_cover
from cdclab.census import worker_count
from cdclab.cli import main
from cdclab.corpus import k4, select
from cdclab.errors import BadEnvironment, BadSelector, UnknownEdge
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


def test_census_small_corpus(tmp_path, capsys):
    path = tmp_path / "census.json"
    code, _, _ = run_cli(capsys, "census", "--corpus", "k4,prism",
                         "--out", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["verdict"] == "pass"
    counts = {e["name"]: e["orientable_covers"] for e in doc["entries"]}
    assert counts == {"k4": 1, "prism": 1}


def test_enumerate_counts_every_octahedron_cover(tmp_path, capsys):
    # the census stops at two covers; full counts come from cdc enumerate
    path = tmp_path / "covers.json"
    code, _, _ = run_cli(capsys, "cdc", "enumerate", "octahedron",
                         "--out", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert (doc["count"], doc["complete"]) == (6663, True)


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
@pytest.mark.parametrize("payload", ["[1, 2]", "3", "null", '"map"'])
def test_json_top_level_must_be_object(tmp_path, capsys, argv, payload):
    path = tmp_path / "doc.json"
    path.write_text(payload)
    code, _, err = run_cli(capsys, *[a.format(path=path) for a in argv])
    assert_one_line_usage_error(code, err)


@pytest.mark.parametrize("body", [
    {"circuits": [[1]]},
    {"circuits": [[[1, 2, 3]]]},
    {"circuits": [[[1, None]]]},
    {"circuits": [[[1, 2]]], "orientation": 5},
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
])
def test_bad_flag_values_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert_one_line_usage_error(code, err)
    assert out == ""


@pytest.mark.parametrize("value", ["junk", "0", "-3", "1.5"])
def test_junk_thread_cap_is_usage_error(monkeypatch, capsys, value):
    monkeypatch.setenv("CDCLAB_THREADS", value)
    with pytest.raises(BadEnvironment):
        worker_count(None, 4)
    code, out, err = run_cli(capsys, "census", "--corpus", "k4")
    assert_one_line_usage_error(code, err)
    assert "CDCLAB_THREADS" in err
    assert out == ""


def test_thread_cap_limits_workers(monkeypatch):
    monkeypatch.setenv("CDCLAB_THREADS", "1")
    assert worker_count(8, 4) == 1


def test_usage_error_on_missing_subcommand(capsys):
    code, _, _ = run_cli(capsys, "cdc")
    assert code == 2


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "show", "k4", "--frobnicate")
    assert code == 2
