"""Every name a module of the package imports at module level is read in
that module, or exported through its ``__all__``."""

import ast
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
