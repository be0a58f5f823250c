"""The quotient layer against oracles built outside it: networkx's
quotient graph, and brute force over a listed group for cross-section
flag transitivity, the labelling test and three-arc graphs.

The groups are small transitive groups drawn by hypothesis (the strategy
of ``test_block_oracles``), the graphs their self-paired orbital graphs
quotiented by every nontrivial block system, and the three-arc graphs of
K4, K5 and K6 under their symmetric and alternating groups and of K8
under PGL(2,7).
"""

import itertools

import pytest

nx = pytest.importorskip("networkx")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings  # noqa: E402

from conftest import enumerate_s_arcs, pgl2  # noqa: E402
from test_block_oracles import transitive_groups  # noqa: E402

from sgk.coset_graphs import orbitals  # noqa: E402
from sgk.arc_graphs import check_condition_pe, three_arc_graph, three_arc_orbits  # noqa: E402
from sgk.errors import CertificationFailed  # noqa: E402
from sgk.graphs import Graph, complete_graph, verify_action  # noqa: E402
from sgk.groups import GroupTable, group_from_generators, is_transitive  # noqa: E402
from sgk.quotients import (  # noqa: E402
    cross_section_design,
    quotient,
    quotient_is_nontrivial,
)
from sgk.subgroups import all_block_systems  # noqa: E402

ORDER_LIMIT = 1500


def _cases(images):
    """(listed group, orbital graph, block system) for each self-paired
    orbital graph with arcs and each nontrivial block system."""
    n = len(images[0])
    assume(GroupTable(n, images).order <= ORDER_LIMIT)
    group = group_from_generators([tuple(g) for g in images], degree=n)
    assume(is_transitive(group))
    systems = [s for s in all_block_systems(group) if 1 < s.n_blocks < s.n_points]
    labels = [str(i + 1) for i in range(n)]
    graphs = [Graph(labels, ob.pairs) for ob in orbitals(group)
              if ob.self_paired and not ob.diagonal]
    assume(systems and graphs)
    return [(group, graph, system) for graph in graphs for system in systems]


def _block_stabiliser(group, partition, b):
    """Every listed element that fixes block b, as image tuples."""
    blk = set(partition.blocks[b])
    return [g for g in group.elements if {g[p] for p in blk} == blk]


def _block_image(partition, row, c):
    return partition.block_of[row[partition.blocks[c][0]]]


def _reference_labelling(group, q):
    """The labelling test by brute force over the listed group: the first
    bijection of block 0 onto its quotient neighbours, in permutation
    order, that commutes with every element of the block's stabiliser,
    carried to every vertex by every element."""
    partition, graph = q.partition, q.source.graph
    members, nbrs = partition.blocks[0], q.graph.adj[0]
    if len(members) != len(nbrs):
        return None
    stab = _block_stabiliser(group, partition, 0)
    for perm in itertools.permutations(nbrs):
        table = dict(zip(members, perm))
        if all(table[h[m]] == _block_image(partition, h, table[m])
               for h in stab for m in members):
            break
    else:
        return None
    labelling = {}
    for g in group.elements:
        for m in members:
            label = _block_image(partition, g, table[m])
            assert labelling.setdefault(g[m], label) == label
    return tuple(labelling[v] for v in range(graph.n))


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(transitive_groups())
def test_quotients_match_the_oracles(images):
    for group, graph, partition in _cases(images):
        q = quotient(verify_action(graph, group), partition)
        # the quotient graph against networkx, self-loops dropped
        base = nx.Graph()
        base.add_nodes_from(range(graph.n))
        base.add_edges_from(graph.arcs)
        expected = set()
        for bu, bv in nx.quotient_graph(base, [set(b) for b in partition.blocks]).edges():
            u, v = partition.block_of[min(bu)], partition.block_of[min(bv)]
            if u != v:
                expected |= {(u, v), (v, u)}
        assert set(q.graph.arcs) == expected
        if not quotient_is_nontrivial(graph, partition):
            continue
        # flag transitivity of each block's stabiliser on its cross section
        for b in range(partition.n_blocks):
            points = partition.blocks[b]
            nbrs = q.graph.adj[b]
            flags = {(p, c) for p in points for c in nbrs
                     if any(partition.block_of[w] == c for w in graph.adj[p])}
            p0, c0 = min(flags)
            orbit = {(h[p0], _block_image(partition, h, c0))
                     for h in _block_stabiliser(group, partition, b)}
            try:
                section = cross_section_design(q, b)
            except CertificationFailed:
                assert orbit != flags
            else:
                assert orbit == flags
                assert section.points == points
                assert {(points[i], nbrs[j]) for i, j in section.design.flags} == flags
        assert check_condition_pe(q) == _reference_labelling(group, q)


def _symmetric(n):
    return group_from_generators(
        [(1, 0) + tuple(range(2, n)), tuple(range(1, n)) + (0,)], degree=n
    )


def _alternating(n):
    three = (1, 2, 0) + tuple(range(3, n))
    long = tuple(range(1, n)) + (0,) if n % 2 else (0,) + tuple(range(2, n)) + (1,)
    return group_from_generators([three, long], degree=n)


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("make", [_symmetric, _alternating])
def test_three_arc_graphs_match_their_definition(n, make):
    """(u,v) ~ (x,y) exactly when (v,u,x,y) lies in the orbit, with the
    orbit listed by brute force; the labelling test against brute force on
    the initial-vertex quotient."""
    _check_three_arc_graphs(complete_graph(n), make(n))


def test_three_arc_graphs_of_k8_under_pgl27():
    """Blocks of 7 arcs, the largest the permutation search of the
    reference labelling gets through."""
    _check_three_arc_graphs(complete_graph(8), pgl2(7))


def _check_three_arc_graphs(graph, group):
    walks = enumerate_s_arcs(graph, 3)
    report = verify_action(graph, group)
    for orb in three_arc_orbits(report):
        rep = orb.arcs[0]
        orbit = {tuple(g[x] for x in rep) for g in group.elements}
        assert orbit == set(orb.arcs)
        if not orb.self_paired:
            continue
        tag = three_arc_graph(report, orb)
        # the walk (v,u,x,y) joins the arc (u,v) to the arc (x,y)
        expected = {((u, v), (x, y)) for (v, u, x, y) in walks if (v, u, x, y) in orbit}
        got = {(tag.vertices[i], tag.vertices[j]) for i, j in tag.graph.arcs}
        assert got == expected
        q = tag.certificate.source
        reference = _reference_labelling(_arc_group(group, tag), q)
        assert check_condition_pe(q) == reference


def _arc_group(group, tag):
    """The group listed by its action on the arcs of the base graph."""
    index = {a: i for i, a in enumerate(tag.vertices)}
    rows = {tuple(index[(g[u], g[v])] for u, v in tag.vertices) for g in group.elements}
    return GroupTable(len(tag.vertices), sorted(rows))
