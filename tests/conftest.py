"""Shared helpers for the test suite."""

from __future__ import annotations

import pytest

from cdclab import cdc
from cdclab.corpus import cube, k4, octahedron, prism, wheel
from cdclab.planar_map import PlanarMap
from cdclab.surgery import augment_face

NAMED_CORPUS = ["k4", "prism", "cube", "octahedron", "wheel:4", "wheel:5"]


def clear_memos() -> None:
    """Empty the per-circuit memos of the cover checks."""
    for memo in (cdc._circuit_report, cdc._shape, cdc._part):
        memo.cache_clear()


@pytest.fixture(autouse=True)
def cold_memos():
    """Every test starts from cold memos, so none passes only because
    an earlier one warmed them."""
    clear_memos()


def corpus_maps() -> list[tuple[str, PlanarMap]]:
    return [
        ("k4", k4()),
        ("prism", prism(3)),
        ("cube", cube()),
        ("octahedron", octahedron()),
        ("wheel:4", wheel(4)),
        ("wheel:5", wheel(5)),
    ]


def apollonian_from_draws(draws: list[int]) -> PlanarMap:
    """Deterministic Apollonian network from arbitrary integers.

    Draw i picks a face index mod the current face count (4 + 2i), so
    every integer list is a valid stacking sequence.
    """
    m = k4()
    for i, d in enumerate(draws):
        m, _ = augment_face(m, d % (4 + 2 * i))
    return m
