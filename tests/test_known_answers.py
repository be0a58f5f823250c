"""Known answers from theorems, on families built from formulas.

- The odd graph O_(k+1) under S_(2k+1) is 3-arc transitive and not
  4-arc transitive (Biggs, *Algebraic Graph Theory*, the chapter on odd
  graphs); O_3 is the Petersen graph.
- PSL(2, q), q ≡ 3 mod 4, is 2-transitive on the projective line, so it
  is arc transitive on K_(q+1); it has half as many elements as the
  (q+1)q(q−1) 2-arcs, so s = 1.  A negative control.
- PGL(2, q) is sharply 3-transitive on the projective line, so it acts
  regularly on the 2-arcs of K_(q+1) and the q − 1 ways to continue a
  2-arc fall into q − 1 orbits of 3-arcs.
- The incidence graph of the projective plane PG(2, q), q prime, is
  4-arc transitive and not 5-arc transitive under PGL(3, q) extended by
  a polarity (Weiss 1981; Biggs, *Algebraic Graph Theory*); that group
  has order 2q³(q³−1)(q²−1), twice |PGL(3, q)|.  For q = 2 the graph is
  the Heawood graph.  PGL(3, q) alone keeps points and lines apart, so
  it is not vertex transitive and s = 0: a negative control.
"""

import math

import pytest

from conftest import odd_graph, pg2_incidence, pgl2, psl2
from sgk.arc_graphs import three_arc_orbits
from sgk.graphs import complete_graph, s_arc_level, verify_action
from sgk.groups import GroupTable


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_odd_graphs_are_three_arc_transitive(k):
    graph, group = odd_graph(k)
    assert graph.n == math.comb(2 * k + 1, k) and graph.valency() == k + 1
    assert group.order == math.factorial(2 * k + 1)
    assert s_arc_level(verify_action(graph, group)) == 3


@pytest.mark.parametrize("q", [7, 11, 19, 23])
def test_complete_graphs_under_psl2_are_only_arc_transitive(q):
    group = psl2(q)
    assert group.order == q * (q * q - 1) // 2
    assert s_arc_level(verify_action(complete_graph(q + 1), group)) == 1


@pytest.mark.parametrize("q", [5, 7, 11])
def test_complete_graphs_under_pgl2_have_q_minus_one_three_arc_orbits(q):
    group = pgl2(q)
    assert group.order == q * (q * q - 1)
    orbits = three_arc_orbits(verify_action(complete_graph(q + 1), group))
    assert len(orbits) == q - 1
    assert {orbit.size for orbit in orbits} == {group.order}


@pytest.mark.parametrize("q", [2, 3, 5])
def test_projective_plane_incidence_graphs_are_four_arc_transitive(q):
    graph, collineations, polarity = pg2_incidence(q)
    assert graph.n == 2 * (q * q + q + 1) and graph.valency() == q + 1
    group = GroupTable(graph.n, [*collineations, polarity])
    assert group.order == 2 * q**3 * (q**3 - 1) * (q * q - 1)
    assert s_arc_level(verify_action(graph, group)) == 4
    assert s_arc_level(verify_action(graph, GroupTable(graph.n, collineations))) == 0


def test_the_fano_plane_incidence_graph_is_the_heawood_graph():
    nx = pytest.importorskip("networkx")
    graph, _, _ = pg2_incidence(2)
    edges = [(u, v) for u in range(graph.n) for v in graph.adj[u] if u < v]
    assert nx.is_isomorphic(nx.Graph(edges), nx.heawood_graph())
