"""Every name a hellykit module imports is used in that module, and
importing the package loads nothing outside it and the standard library."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src"
SOURCES = sorted(p for p in (SRC / "hellykit").glob("*.py") if p.name != "__init__.py")


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


def test_import_pulls_no_third_party_modules():
    # numpy and scipy may be installed; an import of either would show in
    # the start-up of every command
    code = (
        "import json, sys; before = set(sys.modules); import hellykit; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = json.loads(out.stdout)
    assert "hellykit" in loaded
    foreign = [
        m for m in loaded if m.partition(".")[0] not in sys.stdlib_module_names | {"hellykit"}
    ]
    assert foreign == []
