"""The package's export lists: every name in ``sgk.__all__`` resolves, none
appears twice, every public attribute of the package is exported, and
every exported function has a caller."""

import ast
import types
from pathlib import Path

import sgk
import sgk.io


def test_exports_resolve_once_and_cover_the_package():
    names = sgk.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(sgk, n)] == []
    public = {
        n for n, v in vars(sgk).items()
        if not n.startswith("_") and not isinstance(v, types.ModuleType)
    }
    assert sorted(public - set(names)) == []


def _names_read() -> set:
    """Names read anywhere in the package, except inside the top-level
    definition of the same name, plus the names the acceptance test
    imports."""
    read = set()
    for path in Path(sgk.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(top, "name", None)
            read |= {
                node.id for node in ast.walk(top)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id != own
            }
    acceptance = Path(__file__).with_name("test_acceptance.py").read_text(encoding="utf-8")
    for node in ast.walk(ast.parse(acceptance)):
        if isinstance(node, ast.ImportFrom):
            read |= {alias.name for alias in node.names}
    return read


def test_every_exported_function_has_a_caller():
    """An exported function that only its own unit tests call is dead
    weight; classes are exempt."""
    read = _names_read()
    idle = sorted(
        f"{module.__name__}.{name}"
        for module in (sgk, sgk.io)
        for name in module.__all__
        if isinstance(getattr(module, name), types.FunctionType) and name not in read
    )
    assert idle == []
