"""Graphs, transitivity measurement, and isomorphism testing."""

import json
import random

import pytest

from conftest import brute_force_isomorphic, enumerate_s_arcs, pgl2
from sgk import graphs
from sgk.cli import main
from sgk.errors import NotInvariant
from sgk.graphs import (
    DirectedSubgraph,
    Graph,
    are_isomorphic,
    complete_graph,
    connected_components,
    cycle_graph,
    is_connected,
    s_arc_level,
    tuple_orbits,
    verify_action,
)
from sgk.io import format_graph, format_group
from sgk.groups import Action, GroupTable, group_from_generators
from sgk.perm import parse_cycles


def test_builders():
    k4 = complete_graph(4)
    assert (k4.n, k4.edge_count, k4.valency()) == (4, 6, 3)
    c5 = cycle_graph(5)
    assert (c5.n, c5.edge_count, c5.valency()) == (5, 5, 2)
    e3 = Graph.from_edges(3, [])
    assert (e3.n, e3.edge_count) == (3, 0)


def test_from_edges_rejects_loops_and_range():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])


def test_arcs_are_both_directions(k4):
    assert (0, 1) in k4.arcs and (1, 0) in k4.arcs
    assert k4.arc_count == 12
    assert k4.has_arc(2, 3) and not k4.has_arc(2, 2)


def test_valency_none_when_irregular():
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert path.valency() is None


def test_connectivity(q3):
    assert is_connected(q3)
    two = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert not is_connected(two)
    assert sorted(len(c) for c in connected_components(two)) == [2, 2]


def test_induced_subgraph(petersen):
    sub, old = petersen.induced_subgraph([0, 1, 2, 3, 4])
    assert sub.n == 5
    assert old == (0, 1, 2, 3, 4)
    # outer 5-cycle of the standard drawing is an independent set plus edges
    assert sub.edge_count == len(
        [(u, v) for u in range(5) for v in range(u + 1, 5) if petersen.has_arc(u, v)]
    )


def test_enumerate_s_arcs_counts(k4, c6):
    # K4: 12 arcs, each extends to 2 two-arcs, each of those to 2 three-arcs
    assert len(enumerate_s_arcs(k4, 1)) == 12
    assert len(enumerate_s_arcs(k4, 2)) == 24
    assert len(enumerate_s_arcs(k4, 3)) == 48
    # a cycle has exactly two s-arcs per starting arc
    assert len(enumerate_s_arcs(c6, 3)) == 12


def test_verify_action_full_symmetric(k4, s4):
    report = verify_action(k4, s4)
    assert report.symmetric
    assert report.acts_as_automorphisms
    assert report.vertex_transitive
    assert report.arc_transitive
    assert report.locally_transitive
    assert s_arc_level(verify_action(k4, s4)) == 2
    assert Action.natural(s4).kernel_size() == 1


def test_verify_action_cycle(c6, d6, z6):
    full = verify_action(c6, d6)
    assert full.symmetric
    # a cycle is s-arc transitive as far as we look
    assert s_arc_level(verify_action(c6, d6)) == 5
    half = verify_action(c6, z6)
    assert half.vertex_transitive
    assert not half.arc_transitive
    assert not half.symmetric


def _dihedral(n):
    return GroupTable(
        n, [tuple((x + 1) % n for x in range(n)), tuple(-x % n for x in range(n))]
    )


def _split_level(graph, group):
    """Reference: list every s-arc and split the list into orbits."""
    rows = group.generators
    level = 0
    for s in range(1, graphs.S_ARC_LIMIT + 1):
        walks = enumerate_s_arcs(graph, s)
        if not walks or len(tuple_orbits(walks, rows)) != 1:
            break
        level = s
    return level


def test_s_arc_level_walks_one_orbit(capsys, tmp_path, monkeypatch, petersen, petersen_group):
    """The level comes from one s-arc's orbit and a count of the s-arcs:
    with the split made to raise, it matches listing and splitting."""
    cases = [(complete_graph(q + 1), pgl2(q)) for q in (5, 7, 11)]
    cases += [(cycle_graph(n), _dihedral(n)) for n in (6, 12)]
    cases += [(petersen, petersen_group), (Graph([], []), GroupTable(0, []))]
    expected = [_split_level(graph, group) for graph, group in cases]
    assert expected == [2, 2, 2, 5, 5, 3, 0]
    reports = [verify_action(graph, group) for graph, group in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("the s-arcs were listed or split")

    with monkeypatch.context() as m:
        m.setattr(graphs, "tuple_orbits", refuse)
        assert [s_arc_level(report) for report in reports] == expected
    (tmp_path / "k12.graph").write_text(format_graph(complete_graph(12)))
    (tmp_path / "pgl.grp").write_text(format_group(pgl2(11)))
    argv = ["verify", "--graph", str(tmp_path / "k12.graph"), "--group", str(tmp_path / "pgl.grp")]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["facts"]["s_arc_transitive_up_to"] == 2


def test_tuple_orbits_split_an_invariant_set_and_refuse_another(c6, d6):
    rows = d6.generators
    arcs = sorted(c6.arcs)
    assert [len(orb) for orb in tuple_orbits(arcs, rows)] == [12]
    with pytest.raises(NotInvariant):
        tuple_orbits(arcs[:6], rows)


def test_verify_action_not_automorphisms(k4):
    broken = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    act_group = group_from_generators([parse_cycles("(1 2 3 4)", 4)], degree=4)
    report = verify_action(broken, act_group)
    assert not report.acts_as_automorphisms
    assert not report.symmetric


def test_symmetric_iff_arc_transitive(k4, c6, q3, s4, d6):
    for graph, group in ((k4, s4), (c6, d6)):
        report = verify_action(graph, group)
        assert report.symmetric == report.arc_transitive


def test_are_isomorphic_reflexive_symmetric(k4, c6, q3, petersen):
    for g in (k4, c6, q3, petersen):
        assert are_isomorphic(g, g) is not None
    assert are_isomorphic(k4, c6) is None
    assert are_isomorphic(c6, q3) is None


def test_are_isomorphic_returns_real_mapping(q3):
    rnd = random.Random(5)
    relabel = list(range(8))
    rnd.shuffle(relabel)
    other = Graph.from_edges(
        8, sorted({tuple(sorted((relabel[u], relabel[v]))) for u, v in q3.arcs if u < v})
    )
    mapping = are_isomorphic(q3, other)
    assert mapping is not None
    for u, v in q3.arcs:
        assert (mapping[u], mapping[v]) in other.arcs


def test_are_isomorphic_agrees_with_brute_force_random():
    rnd = random.Random(99)
    for trial in range(30):
        n = 6
        edges_a = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < 0.45
        ]
        a = Graph.from_edges(n, edges_a)
        if trial % 2 == 0:
            pi = list(range(n))
            rnd.shuffle(pi)
            edges_b = sorted({tuple(sorted((pi[u], pi[v]))) for u, v in edges_a})
            b = Graph.from_edges(n, edges_b)
        else:
            edges_b = [
                (u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < 0.45
            ]
            b = Graph.from_edges(n, edges_b)
        assert (are_isomorphic(a, b) is not None) == brute_force_isomorphic(a, b)


def test_same_size_non_isomorphic_pair():
    # both 3-regular on 6 vertices: K(3,3) has no triangle, the prism does
    k33 = Graph.from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)])
    prism = Graph.from_edges(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
    )
    assert are_isomorphic(k33, prism) is None
    assert not brute_force_isomorphic(k33, prism)


def test_directed_subgraph_identity():
    sub = DirectedSubgraph.make([0, 2, 3], [(2, 3), (3, 0), (0, 2)])
    assert sub.key() == DirectedSubgraph.make([3, 0, 2], [(0, 2), (2, 3), (3, 0)]).key()
    row = (1, 2, 3, 0)  # the 4-cycle
    moved = sub.image(row)
    assert moved.key() == DirectedSubgraph.make([1, 3, 0], [(3, 0), (0, 1), (1, 3)]).key()


def test_isomorphism_search_is_not_bounded_by_the_recursion_limit():
    import sys

    g = cycle_graph(1100)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        mapping = are_isomorphic(g, g)
    finally:
        sys.setrecursionlimit(limit)
    assert mapping is not None
    assert sorted(mapping) == list(range(g.n))
    assert {(mapping[u], mapping[v]) for u, v in g.arcs} == g.arcs
