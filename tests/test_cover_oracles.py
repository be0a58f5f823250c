"""Biggs covers and the design round trip against oracles built outside
the package.

N⋊G is multiplied out pair by pair from the listings of N and G: the pair
(η, g) sends the cover vertex (n, u) to (n^ρ(g)·η, u^g), with ρ(g) composed
along G from the twist's generator images (Biggs, *Algebraic Graph
Theory*, 2nd ed., 1993, ch. 19).  Those rows must be exactly the group
that the cover action's generator rows generate, arc transitive on the
cover when |N⋊G| ≤ 2000, and sympy must find the semidirect order for the
group of the cover rows.  The twists are trivial, inverting (Z_m under
D_n on C_n), the sign of S4 on Z3, and S4 conjugating its normal V4.

``design from-graph`` followed by ``design to-graph`` must give back a
graph that networkx finds isomorphic to the input, on the fixtures and on
self-paired orbital graphs of small transitive groups whose vertices
have pairwise different neighbourhoods.
"""

import pytest

nx = pytest.importorskip("networkx")
sympy_comb = pytest.importorskip("sympy.combinatorics")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings  # noqa: E402

from conftest import FIXDIR, SemidirectPairs, inverse, product  # noqa: E402
from test_block_oracles import transitive_groups  # noqa: E402

from sgk.cli import main  # noqa: E402
from sgk.constructions import biggs_cover, chain_from_seeds, semidirect_product  # noqa: E402
from sgk.coset_graphs import orbitals  # noqa: E402
from sgk.graphs import Graph, complete_graph, cycle_graph  # noqa: E402
from sgk.io import format_graph, parse_graph_file  # noqa: E402
from sgk.groups import GroupTable, group_from_generators, is_transitive  # noqa: E402
from sgk.perm import Perm, closure, parse_cycles  # noqa: E402

AGL32 = ("(1 2)(3 4)(5 6)(7 8)", "(2 5 3)(4 6 7)", "(3 4)(7 8)")
V4 = ("(1 2)(3 4)", "(1 3)(2 4)")


def _group(degree, cycles):
    return group_from_generators([parse_cycles(c, degree) for c in cycles], degree=degree)


def _dihedral(n):
    rotation = "(" + " ".join(str(i) for i in range(1, n + 1)) + ")"
    reflection = "".join(f"({i} {n + 2 - i})" for i in range(2, n + 1) if i < n + 2 - i)
    return _group(n, [rotation, reflection])


def _cyclic(m):
    return _group(m, ["(" + " ".join(str(i) for i in range(1, m + 1)) + ")"])


def _cases():
    """name -> (graph, G, N, twist as generator images, chain seeds)."""
    s4, s5 = _group(4, ["(1 2)", "(1 2 3 4)"]), _group(5, ["(1 2)", "(1 2 3 4 5)"])
    z2, z3, v4 = _cyclic(2), _cyclic(3), _group(4, V4)
    k4, k5 = complete_graph(4), complete_graph(5)

    def trivial(n_part, g_part):
        return [list(n_part.generators) for _ in g_part.generators]

    def inverting(m, n):
        """Z_m under D_n: the rotation acts trivially, the reflection inverts."""
        gen = _cyclic(m).generators[0]
        return [[gen], [inverse(gen)]]

    def conjugating(g_part):
        """S4 acting on its normal subgroup V4 by conjugation."""
        return [
            [product(product(inverse(s), a), s) for a in v4.generators]
            for s in g_part.generators
        ]

    # the position of V4's first generator in its listing
    v4_first = v4.elements.index(v4.generators[0])
    out = {
        "k4-s4-z2": (k4, s4, z2, trivial(z2, s4), {(0, 1): 1}),
        "k5-s5-v4": (k5, s5, v4, trivial(v4, s5), {(0, 1): v4_first}),
        # both generators of S4 are odd, so only the identity chain is compatible
        "k4-s4-z3-sign": (k4, s4, z3, [[inverse(z3.generators[0])]] * 2, {(0, 1): 0}),
        "k4-s4-v4-conj": (k4, s4, v4, conjugating(s4), {(0, 1): v4_first}),
        "k8-agl-z2": (complete_graph(8), _group(8, AGL32), z2, trivial(z2, _group(8, AGL32)),
                      {(0, 1): 1}),
    }
    for n, m in ((5, 2), (6, 2), (5, 3), (4, 4), (6, 5)):
        out[f"c{n}-d{n}-z{m}-inv"] = (cycle_graph(n), _dihedral(n), _cyclic(m), inverting(m, n),
                                      {(0, 1): 1})
    return out


CASES = _cases()


def _formula_rows(graph, g_part, n_part, twist):
    """The row of every pair (η, g) on the cover's vertices n·|V| + u."""
    ref = SemidirectPairs(n_part, g_part, twist)
    return [ref.cover_row(x, graph.n) for x in ref.pairs]


def _cover(name):
    graph, g_part, n_part, twist, seeds = CASES[name]
    sd = semidirect_product(n_part, g_part, twist)
    return sd, biggs_cover(graph, g_part, sd, chain_from_seeds(graph, g_part, sd, seeds))


SMALL = [name for name in CASES if name != "k8-agl-z2"]


@pytest.mark.parametrize("name", SMALL)
def test_semidirect_product_acts_on_the_cover(name):
    """The cover rows generate exactly the formula rows of the |N|·|G|
    pairs, and those carry one arc of the cover onto every arc."""
    graph, g_part, n_part, twist, _ = CASES[name]
    _, bc = _cover(name)
    rows = _formula_rows(graph, g_part, n_part, twist)
    assert len(set(rows)) == len(rows) == len(n_part.elements) * len(g_part.elements) <= 2000
    gen_rows = bc.action.generator_rows()
    generated = set(closure([tuple(range(bc.cover.n))],
                            lambda r: [tuple(s[x] for x in r) for s in gen_rows]))
    assert generated == set(rows)
    u, v = min(bc.cover.arcs)
    assert {(r[u], r[v]) for r in rows} == set(bc.cover.arcs)


@pytest.mark.parametrize("name", list(CASES))
def test_semidirect_order_matches_sympy(name):
    _, g_part, n_part, _, _ = CASES[name]
    sd, bc = _cover(name)
    group = sympy_comb.PermutationGroup(
        [sympy_comb.Permutation(list(r)) for r in bc.action.generator_rows()]
    )
    assert group.order() == len(sd) == len(n_part.elements) * len(g_part.elements)


def _nx(graph):
    g = nx.Graph()
    g.add_nodes_from(range(graph.n))
    g.add_edges_from(graph.arcs)
    return g


def _round_trip(tmp_path, graph_text, group_text):
    """``design from-graph`` then ``design to-graph``; the rebuilt graph."""
    paths = {name: tmp_path / name for name in ("in.graph", "in.grp", "out.design",
                                                 "out.graph", "cert.json")}
    paths["in.graph"].write_text(graph_text)
    paths["in.grp"].write_text(group_text)
    group, cert = str(paths["in.grp"]), ["--certificate", str(paths["cert.json"])]
    assert main(["design", "from-graph", "--graph", str(paths["in.graph"]), "--group", group,
                 "--out", "design", "--out-file", str(paths["out.design"])] + cert) == 0
    assert main(["design", "to-graph", "--design", str(paths["out.design"]), "--group", group,
                 "--out", "edges", "--out-file", str(paths["out.graph"])] + cert) == 0
    return parse_graph_file(paths["out.graph"].read_text())


@pytest.mark.parametrize("graph, group", [
    ("k4.graph", "s4.grp"), ("c6.graph", "d6.grp"), ("petersen.graph", None),
])
def test_design_round_trip_fixtures(tmp_path, graph, group):
    graph_text = (FIXDIR / graph).read_text()
    if group is None:
        # the Petersen graph under S5 acting on the pairs of {1..5}
        from sgk.fixtures import petersen_group

        gens = petersen_group().generators
        group_text = f"degree: 10\n" + "".join(Perm(g).cycle_string() + "\n" for g in gens)
    else:
        group_text = (FIXDIR / group).read_text()
    rebuilt = _round_trip(tmp_path, graph_text, group_text)
    assert nx.is_isomorphic(_nx(rebuilt), _nx(parse_graph_file(graph_text)))


@settings(
    max_examples=8,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow,
                           HealthCheck.function_scoped_fixture],
)
@given(transitive_groups())
def test_design_round_trip_orbital_graphs(tmp_path, images):
    n = len(images[0])
    gens = [tuple(g) for g in images]
    assume(GroupTable(n, gens).order <= 1500)
    group = group_from_generators(gens, degree=n)
    assume(is_transitive(group))
    labels = [str(i + 1) for i in range(n)]
    graphs = [Graph(labels, ob.pairs) for ob in orbitals(group)
              if ob.self_paired and not ob.diagonal]
    # two vertices with one neighbourhood give a design with a repeated
    # block, which the design commands refuse
    graphs = [g for g in graphs if len({frozenset(g.adj[v]) for v in range(n)}) == n]
    assume(graphs)
    group_text = f"degree: {n}\n" + "".join(Perm(g).cycle_string() + "\n" for g in gens)
    for graph in graphs:
        rebuilt = _round_trip(tmp_path, format_graph(graph), group_text)
        assert nx.is_isomorphic(_nx(rebuilt), _nx(graph))
