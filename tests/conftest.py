from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"

sys.path.insert(0, str(Path(__file__).parent))


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
