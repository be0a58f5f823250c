"""Small worked groups and graphs used across the tests and the examples.

Each builder returns a fully enumerated group or a graph; ``write_all``
lays the standard fixture files out in a directory using the text formats,
so the files on disk never drift from the builders.
"""

from itertools import combinations
from pathlib import Path

from .graphs import Graph, complete_graph, cycle_graph
from .io import format_graph, format_group
from .groups import GroupTable, group_from_generators
from .perm import parse_cycles

__all__ = [
    "s4",
    "s5",
    "d4",
    "d6",
    "z2",
    "z6",
    "octahedron_aut",
    "k4_graph",
    "c6_graph",
    "q3_graph",
    "octahedron_graph",
    "petersen_graph",
    "petersen_group",
    "write_all",
]


def _group(degree: int, *cycles: str) -> GroupTable:
    return group_from_generators([parse_cycles(c, degree) for c in cycles])


def s4() -> GroupTable:
    return _group(4, "(1 2)", "(1 2 3 4)")


def s5() -> GroupTable:
    return _group(5, "(1 2)", "(1 2 3 4 5)")


def d4() -> GroupTable:
    return _group(4, "(1 2 3 4)", "(2 4)")


def d6() -> GroupTable:
    return _group(6, "(1 2 3 4 5 6)", "(2 6)(3 5)")


def z2() -> GroupTable:
    return _group(2, "(1 2)")


def z6() -> GroupTable:
    return _group(6, "(1 2 3 4 5 6)")


def octahedron_aut() -> GroupTable:
    """Full automorphism group of the octahedron, order 48."""
    return _group(6, "(1 2 3)(4 5 6)", "(1 2 4 5)", "(1 4)(2 5)(3 6)")


def k4_graph() -> Graph:
    return complete_graph(4)


def c6_graph() -> Graph:
    return cycle_graph(6)


def q3_graph() -> Graph:
    """Cube graph on 0..7, adjacency by single bit flips."""
    edges = [(u, u ^ b) for u in range(8) for b in (1, 2, 4) if u < (u ^ b)]
    return Graph.from_edges(8, edges)


def octahedron_graph() -> Graph:
    """Six vertices, adjacent unless antipodal (three apart)."""
    edges = [(i, j) for i in range(6) for j in range(i + 1, 6) if j - i != 3]
    return Graph.from_edges(6, edges)


def petersen_graph() -> Graph:
    """Kneser form: 2-subsets of a 5-set in lexicographic order, edges
    between disjoint pairs."""
    pairs = list(combinations(range(5), 2))
    edges = [
        (i, j)
        for i, a in enumerate(pairs)
        for j, b in enumerate(pairs)
        if i < j and not set(a) & set(b)
    ]
    return Graph.from_edges(10, edges)


def petersen_group() -> GroupTable:
    """S5 on the ten 2-subsets, ordered like the Kneser vertex list."""
    pairs = list(combinations(range(5), 2))
    pos = {p: i for i, p in enumerate(pairs)}
    gens = []
    for cycles in ("(1 2)", "(1 2 3 4 5)"):
        g = parse_cycles(cycles, 5)
        gens.append(tuple(pos[tuple(sorted((g[a], g[b])))] for (a, b) in pairs))
    return group_from_generators(gens, 10)


def write_all(directory) -> list:
    """Create the standard fixture files; returns the paths written."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    files = {
        "s4.grp": format_group(s4()),
        "s5.grp": format_group(s5()),
        "d4.grp": format_group(d4()),
        "d6.grp": format_group(d6()),
        "z2.grp": format_group(z2()),
        "z6.grp": format_group(z6()),
        "octahedron-aut.grp": format_group(octahedron_aut()),
        "k4.graph": format_graph(k4_graph()),
        "c6.graph": format_graph(c6_graph()),
        "petersen.graph": format_graph(petersen_graph()),
        "q3.graph": format_graph(q3_graph()),
    }
    written = []
    for name, text in files.items():
        path = d / name
        path.write_text(text)
        written.append(path)
    return written
