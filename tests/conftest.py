from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from hellykit.geometry import Halfspace, Hyperplane, Polyhedron, polytope_from_vertices

FIXTURES = Path(__file__).parent / "fixtures"

sys.path.insert(0, str(Path(__file__).parent))

PROPERTY = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
SMALL = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def points(d, elems=SMALL):
    return st.tuples(*([elems] * d))


@st.composite
def polyhedra(draw, d):
    """Hulls of 1..d+2 points (points and segments carry equality rows),
    random halfspace systems (often unbounded or empty), or the whole space."""
    kind = draw(st.sampled_from(["hull", "halfspaces", "whole"]))
    if kind == "hull":
        return polytope_from_vertices(d, draw(st.lists(points(d), min_size=1, max_size=d + 2)))
    if kind == "whole":
        return Polyhedron.whole_space(d)
    normals = st.tuples(*([st.integers(-3, 3)] * d)).filter(any)
    ineqs = draw(st.lists(st.builds(Halfspace, normals, SMALL), max_size=4))
    eqs = draw(st.lists(st.builds(Hyperplane, normals, SMALL), max_size=1))
    return Polyhedron(d, tuple(ineqs), tuple(eqs))


def load_fixture(name: str):
    with open(FIXTURES / name, "r", encoding="utf-8") as fh:
        return json.load(fh)


def count_calls(monkeypatch, module, name: str) -> list:
    """Rebind module.name to a wrapper that records each call's arguments;
    returns the list it records into."""
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def corpus_paths() -> list[Path]:
    return sorted((FIXTURES / "corpus").glob("*.json"))


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES
