"""A permutation inside the package is its image tuple: a group lists its
elements as the chain's tuples, generators, coset representatives and
involutions are tuples too, and ``Perm`` is built only to print cycles.
So listing M11 in ``sgk group`` makes no ``Perm`` per element, the
commands run with ``Perm`` multiplication switched off, and no module
but ``perm.py`` reads ``.images``."""

import ast
from pathlib import Path

import pytest

import sgk
from conftest import FIXDIR
from sgk import cli
from sgk.groups import GroupTable
from sgk.perm import Perm, parse_cycles

M11 = ("(1 2 3 4 5 6 7 8 9 10 11)", "(3 7 11 8)(4 10 5 6)")
SRC = Path(sgk.__file__).parent


def test_group_lists_m11_without_a_perm_per_element(tmp_path, monkeypatch, capsys):
    path = tmp_path / "m11.grp"
    path.write_text("degree: 11\n" + "\n".join(M11) + "\n")
    built = []
    init = Perm.__init__

    def counted(self, images):
        built.append(None)
        init(self, images)

    monkeypatch.setattr(Perm, "__init__", counted)
    assert cli.main(["group", "--group", str(path)]) == 0
    assert '"order": 7920' in capsys.readouterr().out
    assert len(built) < 100


def test_elements_are_a_tuple_of_image_tuples():
    group = GroupTable(11, [parse_cycles(text, 11) for text in M11])
    listed = group.elements
    assert type(listed) is tuple and len(listed) == 7920
    assert all(type(x) is tuple and len(x) == 11 for x in listed)
    assert listed[0] == tuple(range(11)) and tuple(group) == listed


def _biggs_k4_s4_z2(tmp_path):
    twist, chain = tmp_path / "twist", tmp_path / "chain"
    twist.write_text("trivial\n")
    chain.write_text("arc 1 2 (1 2)\n")
    return ["biggs", "--graph", str(FIXDIR / "k4.graph"), "--group", str(FIXDIR / "s4.grp"),
            "--n", str(FIXDIR / "z2.grp"), "--twist", str(twist), "--chain", str(chain)]


# the commands whose involutions, coset representatives, transversals and
# semidirect generators are image tuples
COMMANDS = {
    "cosetgraph-petersen": lambda tmp_path: [
        "cosetgraph", "--group", str(FIXDIR / "s5.grp"),
        "--subgroup", "(1 2),(3 4),(4 5)", "--involution", "(1 3)(2 4)",
    ],
    "extend-arcs-octahedron": lambda tmp_path: [
        "extend", "--via", "arcs", "--group", str(FIXDIR / "octahedron-aut.grp"),
        "--subgroup", "(2 3)(5 6),(2 5)(3 6),(3 6)", "--over", "(3 6),(2 5)",
        "--involution", "(1 2)(4 5)",
    ],
    "lattice-d6": lambda tmp_path: ["lattice", "--group", str(FIXDIR / "d6.grp")],
    "biggs-k4-s4-z2": _biggs_k4_s4_z2,
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_commands_multiply_no_perm(name, tmp_path, monkeypatch, capsys):
    def refuse(self, other):
        raise AssertionError("a Perm was multiplied")

    monkeypatch.setattr(Perm, "__mul__", refuse)
    assert cli.main(COMMANDS[name](tmp_path)) == 0, capsys.readouterr()


def _trees():
    for path in sorted(SRC.glob("*.py")):
        if path.name != "perm.py":
            yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def test_no_module_but_perm_reads_images():
    reads = [
        f"{name}:{node.lineno}"
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "images"
        and isinstance(node.ctx, ast.Load)
    ]
    assert reads == []


def test_every_perm_outside_perm_py_is_printed_at_once():
    """A ``Perm(...)`` built outside ``perm.py`` is only ever there to
    print its cycles."""
    printed, built = set(), []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "cycle_string":
                printed.add(node.value)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Perm":
                built.append((f"{name}:{node.lineno}", node))
    assert [where for where, node in built if node not in printed] == []
