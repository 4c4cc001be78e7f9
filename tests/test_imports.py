"""Every name a hellykit module imports is used in that module."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCES = sorted(
    p
    for p in (Path(__file__).parent.parent / "src" / "hellykit").glob("*.py")
    if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_flags_an_unused_name():
    source = "import os\nfrom itertools import chain, product\nprint(chain)\n"
    assert unused_imports(source) == ["os (line 1)", "product (line 2)"]
