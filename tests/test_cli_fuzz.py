"""Arbitrary JSON files fed to the CLI end in a documented exit code,
and arbitrary argv parses the same through one parser branch as
through the full tree."""

import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from cdclab.cli import build_parser, main

_scalar = (st.none() | st.booleans() | st.integers(-3, 8)
           | st.integers() | st.floats() | st.text(max_size=4))
_json = st.recursive(
    _scalar,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=24)
# Documents shaped like the wire formats, so parsing gets past the
# format check and reaches the rows.
_label = st.integers(-1, 6) | st.sampled_from(
    [math.inf, -math.inf, math.nan, 1.5, 10 ** 30, "2", "x", None, True])
_rows = st.lists(st.lists(st.lists(_label, max_size=3) | _json, max_size=4)
                 | _json, max_size=5)
_map_doc = st.fixed_dictionaries({
    "format": st.just("planar-map/v1"),
    "vertices": st.lists(
        st.fixed_dictionaries({
            "id": _label,
            "rotation": st.lists(_label, max_size=5) | _json,
        }) | _json, max_size=7) | _json,
})
_cover_doc = st.fixed_dictionaries(
    {"format": st.just("cover/v1"), "circuits": _rows},
    optional={"orientation": _rows, "host": _json})
_report_doc = st.fixed_dictionaries(
    {"format": st.just("report/v1"), "map": _map_doc | _json})
_document = _json | _map_doc | _cover_doc | _report_doc

COMMANDS = [
    ["show", "@{path}"],
    ["cdc", "validate", "k4", "--cover", "{path}"],
    ["apollonian", "check", "{path}"],
]


@given(_document, st.sampled_from(COMMANDS))
@settings(max_examples=300, deadline=None)
def test_cli_survives_arbitrary_json(doc, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([a.format(path=path) for a in argv])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


_token = st.sampled_from([
    "show", "dual", "truncate", "augment", "apollonian", "generate",
    "check", "cdc", "enumerate", "validate", "translate", "verify",
    "square", "prop41", "census", "-h", "--help", "--version", "--",
    "--out", "--vertex", "--all", "--face", "--stacks", "--seed",
    "--max-edges", "--budget", "--cover", "--seeds", "--corpus",
    "--workers", "k4", "0..3", "-", "-1", "",
]) | st.integers(-2, 12).map(str) | st.text(max_size=5)


def _parse(parser, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@given(st.lists(_token, max_size=6))
@settings(max_examples=300, deadline=None)
def test_one_branch_parses_as_the_full_tree(argv):
    assert _parse(build_parser(argv), argv) == _parse(build_parser(), argv)
