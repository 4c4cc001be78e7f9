"""Every name a hellykit module imports is used in that module, every
module-level definition is reached from the package (or named on a short
list of test and benchmark helpers), only the package defines `__all__`,
importing the package loads nothing
outside it and the standard library, and a CLI request loads only the
package modules its subcommand runs."""

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


def top_level_definitions(tree: ast.Module) -> dict[str, int]:
    """Functions, classes and assigned names a module defines at top level
    (dunder names aside), with their lines."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        defined[n.id] = node.lineno
    return {k: v for k, v in defined.items() if not (k.startswith("__") and k.endswith("__"))}


def unreached_definitions(sources: dict[str, str], exported: dict[str, str]) -> list[str]:
    """`module.name (line n)` for each top-level definition that nothing
    reaches.  A definition is reached when the package exports it from its
    module (`exported` maps name -> module), when its own module reads it,
    when another module imports it from its module, or when any module
    reads an attribute of that name."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = {
        module: {
            n.id
            for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for module, tree in trees.items()
    }
    attributes = {
        n.attr for tree in trees.values() for n in ast.walk(tree) if isinstance(n, ast.Attribute)
    }
    imported = {
        (node.module.rpartition(".")[2], alias.name)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module
        for alias in node.names
    }
    return [
        f"{module}.{name} (line {line})"
        for module, tree in trees.items()
        for name, line in top_level_definitions(tree).items()
        if exported.get(name) != module
        and name not in reads[module]
        and (module, name) not in imported
        and name not in attributes
    ]


# Defined for the tests and the benchmark, which use all nine, and reached
# from nothing in the package: the seeded instance generators, the reference
# Fourier-Motzkin projection, the name of the rational backend and the
# hypergraph writer.
UNREACHED_BY_DESIGN = [
    "instances.random_ch_family",
    "instances.random_ch_pair",
    "instances.random_fractional_instance",
    "instances.random_hypergraph",
    "instances.random_polygon_family",
    "instances.random_two_colored",
    "projection.affine_project",
    "rationals.RATIONAL_BACKEND",
    "serialize.hypergraph_to_doc",
]


def test_every_module_level_definition_is_reached():
    import hellykit

    sources = {
        p.stem: p.read_text(encoding="utf-8") for p in sorted((SRC / "hellykit").glob("*.py"))
    }
    found = unreached_definitions(sources, hellykit._MODULE_OF)
    assert sorted(entry.partition(" ")[0] for entry in found) == UNREACHED_BY_DESIGN


def test_guard_flags_an_unreached_definition():
    sources = {
        "a": "def used():\n    pass\n\n\ndef planted():\n    pass\n",
        "b": "from .a import used\n\nLIMIT = 3\nused()\n",
        "c": "import a\n\n\nclass Kept:\n    pass\n\n\nprint(a.LIMIT)\n",
    }
    assert unreached_definitions(sources, {"Kept": "c"}) == ["a.planted (line 5)"]


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


def run_python(code: str, *args: str) -> str:
    """Stdout of `code` run in a fresh interpreter with the sources on the path."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout


LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.startswith('hellykit.'))))"


def test_import_loads_no_submodule():
    assert json.loads(run_python(f"import json, sys; import hellykit; {LOADED}")) == []


FIXTURES = Path(__file__).parent / "fixtures"
NOT_FOR_QUERIES = {"colorful", "constructions", "bounds", "projection", "instances"}
NOT_FOR_COLORED = {"constructions", "projection", "instances"}


@pytest.mark.parametrize(
    "argv, absent",
    [
        (("duality", "--input", "hypergraph_fano.json", "--b", "2"), NOT_FOR_QUERIES),
        (("pierce", "--input", "corpus/four_grid_boxes.json"), NOT_FOR_QUERIES),
        (("line-cover", "--input", "corpus/four_grid_boxes.json"), NOT_FOR_QUERIES),
        (("check-ch", "--input", "family_ch_d2.json"), NOT_FOR_COLORED),
        (("generic-line", "--input", "ch_pair_d2.json"), NOT_FOR_COLORED),
    ],
    ids=["duality", "pierce", "line-cover", "check-ch", "generic-line"],
)
def test_a_request_loads_only_its_subcommand_modules(argv, absent):
    # the report goes to stderr so that stdout holds only the module list
    code = (
        "import contextlib, json, sys\n"
        "from hellykit.cli import main\n"
        "with contextlib.redirect_stdout(sys.stderr):\n"
        "    assert main(sys.argv[1:]) == 0\n"
        f"{LOADED}\n"
    )
    command, flag, name, *rest = argv
    loaded = json.loads(run_python(code, command, flag, str(FIXTURES / name), *rest))
    assert "hellykit.cli" in loaded
    assert sorted(m for m in loaded if m.removeprefix("hellykit.") in absent) == []


def test_every_public_name_resolves_to_its_defining_module():
    # the star import runs first, while every name is still unresolved
    code = (
        "import importlib, json\n"
        "import hellykit\n"
        "star = {}\n"
        "exec('from hellykit import *', star)\n"
        "wrong = []\n"
        "for name in hellykit.__all__:\n"
        "    value = getattr(hellykit, name)\n"
        "    module = importlib.import_module(f'hellykit.{hellykit._MODULE_OF[name]}')\n"
        "    home = value.__module__ if callable(value) else module.__name__\n"
        "    if value is not getattr(module, name) or home != module.__name__:\n"
        "        wrong.append(name)\n"
        "    elif star.get(name) is not value:\n"
        "        wrong.append(name)\n"
        "print(json.dumps([wrong, sorted(set(star) - {'__builtins__'}), hellykit.__all__]))\n"
    )
    wrong, star, names = json.loads(run_python(code))
    assert wrong == []
    assert star == names
    assert len(names) == 81


def test_only_the_package_defines_an_export_list():
    # one export list, `hellykit._EXPORTS`, so no module's list can disagree
    defining = [
        p.name
        for p in sorted((SRC / "hellykit").glob("*.py"))
        if any(
            isinstance(n, ast.Name) and n.id == "__all__" and isinstance(n.ctx, ast.Store)
            for n in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
        )
    ]
    assert defining == ["__init__.py"]


def test_an_unknown_attribute_raises_attribute_error():
    code = (
        "import hellykit\n"
        "try:\n"
        "    hellykit.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert run_python(code) == "module 'hellykit' has no attribute 'no_such_name'\n"
