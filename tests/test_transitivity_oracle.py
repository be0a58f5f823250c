"""verify_action and s_arc_level checked against references written from
the definitions, on actions drawn by hypothesis: random graphs and random
generators on at most 8 points, including actions that break arcs,
actions that are not vertex transitive, and unfaithful ones."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import enumerate_s_arcs  # noqa: E402
from sgk.graphs import Graph, s_arc_level, verify_action  # noqa: E402
from sgk.groups import Action, StabChain, group_from_generators  # noqa: E402
from sgk.perm import orbits  # noqa: E402

ORDER_CAP = 720


def reference_locally_transitive(graph, rows, vertex_transitive):
    """The stabiliser of each vertex, scanned row by row, is transitive on
    its neighbours; with vertex transitivity one vertex decides."""
    targets = [0] if vertex_transitive and graph.n else range(graph.n)
    for v in targets:
        nbrs = graph.adj[v]
        if len(nbrs) <= 1:
            continue
        stab_rows = [row for row in rows if row[v] == v]
        if len({row[nbrs[0]] for row in stab_rows}) != len(nbrs):
            return False
    return True


def _transitive_on(tuples, rows):
    """Every row's image of the first tuple, against the whole set."""
    return {tuple(row[x] for x in tuples[0]) for row in rows} == set(tuples)


def reference(graph, act):
    """Every report field and the s-arc level, from all rows of the action:
    each listed element of the group cut down to the graph's points."""
    rows = [p[:graph.n] for p in act.group.elements]
    acts = all((row[u], row[v]) in graph.arcs for row in rows for (u, v) in graph.arcs)
    vertex_tr = {row[0] for row in rows} == set(range(graph.n)) if graph.n else True
    kernel = sum(1 for row in rows if row == tuple(range(graph.n)))
    if not acts:
        return (False, vertex_tr, False, False, kernel), 0
    arcs = sorted(graph.arcs)
    arc_tr = _transitive_on(arcs, rows) if arcs else True
    local = reference_locally_transitive(graph, rows, vertex_tr)
    level = 0
    if vertex_tr:
        for s in range(1, 6):
            walks = enumerate_s_arcs(graph, s)
            if not walks or not _transitive_on(walks, rows):
                break
            level = s
    return (True, vertex_tr, arc_tr, local, kernel), level


@st.composite
def actions(draw):
    """A group on n + m points that keeps the first n points together,
    acting on those n; the generators are the longest prefix of the drawn
    ones whose group has at most ORDER_CAP elements."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(0, 2))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        head = draw(st.permutations(range(n)))
        tail = draw(st.permutations(range(m)))
        gens.append(tuple(head) + tuple(n + x for x in tail))
    group = group_from_generators(gens[:1], degree=n + m)  # order at most 30
    for k in range(2, len(gens) + 1):
        if StabChain(n + m, gens[:k]).order > ORDER_CAP:
            break
        group = group_from_generators(gens[:k], degree=n + m)
    return Action(group, n, [g[:n] for g in group.generators])


@st.composite
def graphs_for(draw, act):
    """A random graph, a union of orbits on edges (which the action keeps),
    or such a union with one pair toggled."""
    n = act.n_points
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    kind = draw(st.sampled_from(["random", "orbits", "toggled"]))
    if kind == "random":
        return Graph.from_edges(n, [p for p in pairs if draw(st.booleans())])
    gen_rows = act.generator_rows()
    edge_orbits = orbits(pairs, lambda e: [tuple(sorted((r[e[0]], r[e[1]]))) for r in gen_rows])
    edges = {e for orb in edge_orbits if draw(st.booleans()) for e in orb}
    if kind == "toggled" and pairs:
        edges ^= {draw(st.sampled_from(pairs))}
    return Graph.from_edges(n, sorted(edges))


@st.composite
def cases(draw):
    act = draw(actions())
    return draw(graphs_for(act)), act


@settings(max_examples=400, deadline=None, derandomize=True)
@given(cases())
def test_report_and_s_arc_level_match_the_definitions(case):
    graph, act = case
    report = verify_action(graph, act)
    fields = (
        report.acts_as_automorphisms,
        report.vertex_transitive,
        report.arc_transitive,
        report.locally_transitive,
        act.kernel_size(),
    )
    assert (fields, s_arc_level(report)) == reference(graph, act)
