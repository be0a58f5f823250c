"""One composition kernel: image tuples are composed by ``perm._compose``
alone, so no module of the package builds ``tuple(map(x.__getitem__, y))``
anywhere else."""

import ast
from pathlib import Path

import sgk


def _is_hand_composition(node) -> bool:
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
        return False
    if node.func.id != "tuple" or len(node.args) != 1:
        return False
    inner = node.args[0]
    return (
        isinstance(inner, ast.Call)
        and isinstance(inner.func, ast.Name)
        and inner.func.id == "map"
        and bool(inner.args)
        and isinstance(inner.args[0], ast.Attribute)
        and inner.args[0].attr == "__getitem__"
    )


def _kernel_spans(tree) -> list:
    return [
        (node.lineno, node.end_lineno)
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_compose"
    ]


def hand_compositions(source: str, path: str) -> list:
    """``path:line`` of each hand-rolled composition in ``source``, outside
    the body of a top-level ``_compose`` in ``perm.py``."""
    tree = ast.parse(source)
    spans = _kernel_spans(tree) if Path(path).name == "perm.py" else []
    return [
        f"{path}:{node.lineno}"
        for node in ast.walk(tree)
        if _is_hand_composition(node)
        and not any(lo <= node.lineno <= hi for lo, hi in spans)
    ]


def test_no_composition_outside_the_kernel():
    found = []
    for path in sorted(Path(sgk.__file__).parent.glob("*.py")):
        found += hand_compositions(path.read_text(encoding="utf-8"), path.name)
    assert found == []


def test_the_scan_sees_a_hand_composition():
    src = "def f(a, b):\n    return tuple(map(b.__getitem__, a))\n"
    assert hand_compositions(src, "subgroups.py") == ["subgroups.py:2"]
    assert hand_compositions(src.replace("f(", "_compose("), "perm.py") == []
    assert hand_compositions(src.replace("f(", "_compose("), "designs.py") == ["designs.py:2"]
