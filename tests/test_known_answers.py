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
"""

import math

import pytest

from conftest import odd_graph, pgl2, psl2
from sgk.constructions import three_arc_orbits
from sgk.graphs import complete_graph, s_arc_level


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_odd_graphs_are_three_arc_transitive(k):
    graph, group = odd_graph(k)
    assert graph.n == math.comb(2 * k + 1, k) and graph.valency() == k + 1
    assert group.order == math.factorial(2 * k + 1)
    assert s_arc_level(graph, group) == 3


@pytest.mark.parametrize("q", [7, 11, 19, 23])
def test_complete_graphs_under_psl2_are_only_arc_transitive(q):
    group = psl2(q)
    assert group.order == q * (q * q - 1) // 2
    assert s_arc_level(complete_graph(q + 1), group) == 1


@pytest.mark.parametrize("q", [5, 7, 11])
def test_complete_graphs_under_pgl2_have_q_minus_one_three_arc_orbits(q):
    group = pgl2(q)
    assert group.order == q * (q * q - 1)
    orbits = three_arc_orbits(complete_graph(q + 1), group)
    assert len(orbits) == q - 1
    assert {orbit.size for orbit in orbits} == {group.order}
