"""Shared helpers for the test suite."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import cdclab
from cdclab.corpus import cube, k4, octahedron, prism, wheel
from cdclab.planar_map import PlanarMap
from cdclab.surgery import augment_face

NAMED_CORPUS = ["k4", "prism", "cube", "octahedron", "wheel:4", "wheel:5"]

# Rotation tables of genus 1, which the map constructor refuses: K4
# with every rotation ascending (two faces, each passing every vertex
# twice) and K7 on the torus (14 triangles, a simple dual).
TORUS_K4 = {1: [2, 3, 4], 2: [1, 3, 4], 3: [1, 2, 4], 4: [1, 2, 3]}
TOROIDAL_K7 = {i: [(i + k) % 7 for k in (1, 3, 2, 6, 4, 5)]
               for i in range(7)}


def _memos() -> list:
    """Every function with a ``cache_clear`` in the cdclab modules."""
    memos = {}
    for info in pkgutil.iter_modules(cdclab.__path__):
        module = importlib.import_module(f"cdclab.{info.name}")
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                memos[id(value)] = value
    return list(memos.values())


MEMOS = _memos()


def clear_memos() -> None:
    """Empty every memo of the cdclab modules."""
    for memo in MEMOS:
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
