"""are_isomorphic checked against networkx on graphs drawn by hypothesis:
random graphs of at most 9 vertices, paired with relabelled copies of
themselves and with independent random graphs."""

import pytest

nx = pytest.importorskip("networkx")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sgk.graphs import Graph, are_isomorphic  # noqa: E402


@st.composite
def edge_sets(draw, n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return [p for p in pairs if draw(st.booleans())]


@st.composite
def graph_pairs(draw):
    n = draw(st.integers(0, 9))
    edges = draw(edge_sets(n))
    if draw(st.booleans()):
        relabel = draw(st.permutations(range(n)))
        other = [(relabel[u], relabel[v]) for u, v in edges]
    else:
        other = draw(edge_sets(n))
    return n, edges, other


def _nx(n, edges):
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


@settings(max_examples=300, deadline=None, derandomize=True)
@given(graph_pairs())
def test_isomorphism_matches_networkx(pair):
    n, edges, other = pair
    a, b = Graph.from_edges(n, edges), Graph.from_edges(n, other)
    mapping = are_isomorphic(a, b)
    assert (mapping is not None) == nx.is_isomorphic(_nx(n, edges), _nx(n, other))
    if mapping is not None:
        assert sorted(mapping) == list(range(n))
        assert {(mapping[u], mapping[v]) for u, v in a.arcs} == b.arcs
