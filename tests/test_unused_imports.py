"""Every name a module of the package imports at module level is read in
that module, or exported through its ``__all__``; no function imports a
module of the package, and no module is over the size that one compile
may take."""

import ast
import tokenize
from pathlib import Path

import pytest

import sgk

MODULES = sorted(Path(sgk.__file__).parent.glob("*.py"))


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        targets = getattr(node, "targets", [])
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            read |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_level_import_goes_unread(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unread_import_is_found():
    source = "from os import path, sep\nimport json\n__all__ = ['sep']\n"
    assert _unused_imports(source) == ["json (line 2)", "path (line 1)"]


def _function_level_package_imports(source: str) -> list:
    """The line of each relative or ``sgk`` import made inside a function."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "sgk"):
                    found.append(node.lineno)
                if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "sgk" for a in node.names):
                    found.append(node.lineno)
    return sorted(set(found))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_function_imports_a_module_of_the_package(path):
    """A module imported inside a function is compiled inside the timed
    run of a command, not at import."""
    assert _function_level_package_imports(path.read_text(encoding="utf-8")) == []


def test_a_function_level_import_is_found():
    source = "import os\ndef f():\n    from .perm import closure\n    import json\n    import sgk.io\n"
    assert _function_level_package_imports(source) == [3, 5]


# Without a bytecode cache CPython compiles each module in one piece, so
# the largest module's compile sets every run's peak memory.
TOKEN_CEILING = 3000


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_is_over_the_token_ceiling(path):
    with open(path, encoding="utf-8") as fh:
        tokens = sum(1 for _ in tokenize.generate_tokens(fh.readline))
    assert tokens <= TOKEN_CEILING
