"""three_arc_orbits and three_arc_graph against references that list every
3-arc: the orbits split off the list by the listed group, and the
three-arc graph joined by testing every pair of arcs.  On the random
actions of ``test_transitivity_oracle``, where an action that is not
symmetric must be refused, and on fixed symmetric graphs: K_(q+1) under
PGL(2,q), the Petersen graph, C6 under D6, K2 and edgeless graphs.

Half the random graphs are single orbits on edges, which are symmetric
far more often than the graphs of ``test_transitivity_oracle``."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import enumerate_s_arcs, pgl2  # noqa: E402
from test_transitivity_oracle import actions, graphs_for, reference  # noqa: E402

from sgk import arc_graphs, graphs  # noqa: E402
from sgk import fixtures as fx  # noqa: E402
from sgk.arc_graphs import three_arc_graph, three_arc_orbits  # noqa: E402
from sgk.errors import NotSymmetric  # noqa: E402
from sgk.graphs import Graph, complete_graph, verify_action  # noqa: E402
from sgk.groups import Action, GroupTable  # noqa: E402
from sgk.perm import orbits  # noqa: E402


def reference_orbits(graph, act) -> list:
    """(orbit, self-paired, partner) for each orbit on 3-arcs: the list of
    every 3-arc, split in its order by the images of each 3-arc not yet
    placed under every listed element."""
    rows = [p[:graph.n] for p in act.group.elements]
    where, split = {}, []
    for t in enumerate_s_arcs(graph, 3):
        if t not in where:
            orbit = tuple(sorted({tuple(row[x] for x in t) for row in rows}))
            where.update(dict.fromkeys(orbit, len(split)))
            split.append(orbit)
    partners = [where[orb[0][::-1]] for orb in split]
    return [(orb, p == k, p) for k, (orb, p) in enumerate(zip(split, partners))]


def pairwise_arcs(graph, delta) -> set:
    """Reference three-arc graph: every pair of arcs (σ, τ), (σ′, τ′),
    joined when (τ, σ, σ′, τ′) lies in the orbit."""
    averts = sorted(graph.arcs)
    return {
        (i, j)
        for i, (sigma, tau) in enumerate(averts)
        for j, (s2, t2) in enumerate(averts)
        if (tau, sigma, s2, t2) in delta
    }


def check_against_references(graph, act) -> list:
    got = three_arc_orbits(verify_action(graph, act))
    assert [(o.arcs, o.self_paired, o.partner) for o in got] == reference_orbits(graph, act)
    for orb in got:
        if orb.self_paired:
            tag = three_arc_graph(verify_action(graph, act), orb)
            assert set(tag.graph.arcs) == pairwise_arcs(graph, set(orb.arcs))
    return got


@st.composite
def cases(draw):
    """An action of ``actions`` with a graph of ``graphs_for`` or one orbit
    of the action on edges."""
    act = draw(actions())
    if draw(st.booleans()):
        return draw(graphs_for(act)), act
    n = act.n_points
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rows = act.generator_rows()
    edge_orbits = orbits(pairs, lambda e: [tuple(sorted((r[e[0]], r[e[1]]))) for r in rows])
    edges = draw(st.sampled_from(edge_orbits)) if edge_orbits else []
    return Graph.from_edges(n, edges), act


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cases())
def test_three_arc_layer_matches_the_split(case):
    graph, act = case
    (acts, vertex_tr, _, local, _), _ = reference(graph, act)
    if acts and vertex_tr and local:
        check_against_references(graph, act)
    else:
        with pytest.raises(NotSymmetric):
            three_arc_orbits(verify_action(graph, act))


def _cyclic(n):
    return GroupTable(n, [tuple(range(1, n)) + (0,)])


@pytest.mark.parametrize("graph, group, count", [
    pytest.param(complete_graph(6), pgl2(5), 4, id="K6-PGL(2,5)"),
    pytest.param(complete_graph(8), pgl2(7), 6, id="K8-PGL(2,7)"),
    pytest.param(complete_graph(12), pgl2(11), 10, id="K12-PGL(2,11)"),
    pytest.param(fx.petersen_graph(), fx.petersen_group(), 1, id="Petersen-S5"),
    pytest.param(fx.c6_graph(), fx.d6(), 1, id="C6-D6"),
    pytest.param(complete_graph(2), _cyclic(2), 0, id="K2"),
    pytest.param(Graph.from_edges(3, []), _cyclic(3), 0, id="edgeless"),
    pytest.param(Graph([], []), GroupTable(0, []), 0, id="empty"),
])
def test_three_arc_layer_on_symmetric_graphs(graph, group, count, monkeypatch):
    """With the split of a listed set made to raise: the orbits come from
    walking the 3-arcs through one arc, not from splitting a list."""

    def refuse(*args, **kwargs):
        raise AssertionError("a list of 3-arcs was split")

    monkeypatch.setattr(graphs, "tuple_orbits", refuse)
    monkeypatch.setattr(arc_graphs, "tuple_orbits", refuse, raising=False)
    assert len(check_against_references(graph, Action.natural(group))) == count
