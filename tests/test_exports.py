"""The package's export lists: every name in ``sgk.__all__`` resolves, none
appears twice, every public attribute of the package is exported, and
every exported function, and every public method and property of an
exported class, has a reader."""

import ast
import types
from functools import cached_property
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


def _attributes_read() -> tuple:
    """The attribute names loaded, and those called, anywhere in the
    package or the acceptance test."""
    paths = [
        *Path(sgk.__file__).parent.glob("*.py"), Path(__file__).with_name("test_acceptance.py")
    ]
    loaded, called = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                called.add(node.func.attr)
    return loaded, called


def _members(cls):
    """(name, is a property) for each public method and property that the
    class itself defines."""
    for name, value in vars(cls).items():
        if name.startswith("_"):
            continue
        if isinstance(value, (property, cached_property)):
            yield name, True
        elif isinstance(value, (types.FunctionType, classmethod, staticmethod)):
            yield name, False


def idle_members(loaded: set, called: set) -> list:
    """``Class.name`` of each public method and property of an exported
    class that nothing reads.  A property is read wherever ``x.name`` is
    loaded.  So is a method, unless some exported class has a property of
    that name; then only a call ``x.name(...)`` reads the method, since a
    bare ``x.name`` would be that property: reading ``group.order`` says
    nothing of a method ``order`` on permutations."""
    classes = [v for n in sgk.__all__ if isinstance(v := getattr(sgk, n), type)]
    properties = {name for cls in classes for name, prop in _members(cls) if prop}
    return sorted(
        f"{cls.__name__}.{name}"
        for cls in classes
        for name, prop in _members(cls)
        if name not in (loaded if prop or name not in properties else called)
    )


def test_every_method_and_property_of_an_exported_class_has_a_reader():
    assert idle_members(*_attributes_read()) == []


def test_the_member_scan_tells_a_method_from_a_property_of_its_name():
    """``StabChain.elements`` is a method, and ``GroupTable.elements`` and
    ``DoubleCoset.elements`` are properties: a bare ``x.elements`` reads
    only the properties, a call reads the method."""
    loaded, called = _attributes_read()
    assert idle_members(loaded, called - {"elements"}) == ["StabChain.elements"]
    assert idle_members(loaded - {"elements"}, called) == [
        "DoubleCoset.elements", "GroupTable.elements"
    ]
