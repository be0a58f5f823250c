"""The fibre pipeline against oracles built outside it: networkx's
isomorphism test for the extract-then-reconstruct round trip; brute
force over the listed group for the regular normal subgroup N, for the
flag orbital Δ as one G_B-orbit, and for the Biggs covers the round trips
start from; and a point-by-point search for the rebuilt arcs.

The inputs are K4 × Z2 under S4 × Z2, the double covers of C_n under
D_n × Z2, the cycles C_n and 2K2 under D_n and D4 by singleton blocks,
and K8 × Z2 under AGL(3,2) × Z2.  Each cover is a Biggs cover by Z2 with
the constant chain, its group the semidirect product acting on the cover
as a permutation group.
"""

import pytest

nx = pytest.importorskip("networkx")

from sgk.constructions import biggs_cover, constant_chain, semidirect_product, trivial_twist  # noqa: E402
from sgk.extensions import extract_fibre_data, flag_orbital_reconstruction  # noqa: E402
from sgk.graphs import Graph, complete_graph, cycle_graph, verify_action  # noqa: E402
from sgk.groups import group_from_generators  # noqa: E402
from sgk.perm import _compose, _invert, parse_cycles  # noqa: E402
from sgk.quotients import quotient  # noqa: E402
from sgk.subgroups import BlockSystem  # noqa: E402

AGL32 = ("(1 2)(3 4)(5 6)(7 8)", "(2 5 3)(4 6 7)", "(3 4)(7 8)")


def _group(degree, cycles):
    return group_from_generators([parse_cycles(c, degree) for c in cycles], degree=degree)


def _dihedral(n):
    rotation = "(" + " ".join(str(i) for i in range(1, n + 1)) + ")"
    reflection = "".join(f"({i} {n + 2 - i})" for i in range(2, n + 1) if i < n + 2 - i)
    return _group(n, [rotation] + ([reflection] if reflection else []))


def _double_cover(graph, group):
    """The Biggs cover of the graph by Z2 with the constant chain, its
    group listed on the cover's points, and the fibres."""
    z2 = _group(2, ["(1 2)"])
    bc = biggs_cover(graph, group, semidirect_product(z2, group, trivial_twist(z2, group)),
                     constant_chain(graph, 1))
    on_cover = group_from_generators(bc.action.generator_rows(), degree=bc.cover.n)
    return bc, on_cover


def _singletons(n):
    return BlockSystem.from_blocks(n, [[v] for v in range(n)])


def _cases():
    k4, s4 = complete_graph(4), _group(4, ["(1 2)", "(1 2 3 4)"])
    cases = {"k4-z2": (k4, s4), "k8-z2-agl": (complete_graph(8), _group(8, AGL32))}
    cases.update({f"c{n}-z2": (cycle_graph(n), _dihedral(n)) for n in range(3, 9)})
    return cases


COVERS = _cases()


def _covers():
    out = {}
    for name, (graph, group) in COVERS.items():
        bc, on_cover = _double_cover(graph, group)
        out[name] = (bc.cover, on_cover, bc.fibres)
    return out


def _by_singletons():
    two_k2 = Graph.from_edges(4, [(0, 2), (1, 3)])
    out = {"2k2-d4": (two_k2, _dihedral(4), _singletons(4))}
    out.update({f"c{n}-d{n}": (cycle_graph(n), _dihedral(n), _singletons(n)) for n in (4, 5, 6)})
    out["k4-s4"] = (complete_graph(4), _group(4, ["(1 2)", "(1 2 3 4)"]), _singletons(4))
    return out


@pytest.fixture(scope="module")
def inputs():
    return {**_covers(), **_by_singletons()}


NAMES = list(COVERS) + ["2k2-d4", "c4-d4", "c5-d5", "c6-d6", "k4-s4"]


def _nx(graph):
    g = nx.Graph()
    g.add_nodes_from(range(graph.n))
    g.add_edges_from(graph.arcs)
    return g


@pytest.mark.parametrize("name", NAMES)
def test_round_trip_is_isomorphic(inputs, name):
    graph, group, blocks = inputs[name]
    fx = extract_fibre_data(quotient(verify_action(graph, group), blocks))
    rb = flag_orbital_reconstruction(fx)
    assert rb.graph.n == graph.n
    assert nx.is_isomorphic(_nx(rb.graph), _nx(graph))
    assert rb.report.symmetric


@pytest.mark.parametrize("name", NAMES)
def test_normal_subgroup_is_normal_and_regular(inputs, name):
    """Brute force over every listed element: N is closed, normal, and
    carries block 0 to each block by exactly one element."""
    graph, group, blocks = inputs[name]
    fx = extract_fibre_data(quotient(verify_action(graph, group), blocks))
    members = set(fx.normal)
    assert all(tuple(b[i] for i in a) in members for a in members for b in members)
    for g in group.elements:
        inv = _invert(g)
        assert all(_compose(_compose(inv, x), g) in members for x in members)
    targets = sorted(blocks.block_of[x[blocks.blocks[0][0]]] for x in members)
    assert targets == list(range(blocks.n_blocks))


@pytest.mark.parametrize("name", list(COVERS))
def test_biggs_projection_is_a_covering(name):
    """The projection (n, v) -> v maps every neighbourhood of the cover
    bijectively onto the neighbourhood below, and the cover has |N|·n
    vertices (Biggs, Algebraic Graph Theory, ch. 19)."""
    graph, group = COVERS[name]
    bc, _ = _double_cover(graph, group)
    assert bc.cover.n == 2 * graph.n
    for x in range(bc.cover.n):
        below = [y % graph.n for y in bc.cover.adj[x]]
        assert sorted(below) == sorted(graph.adj[x % graph.n])


@pytest.mark.parametrize("name", NAMES)
def test_flag_orbital_is_the_block_stabiliser_orbit_of_one_pair(inputs, name):
    """Δ read off every arc equals the orbit of the least arc's flag pair
    under G_B, listed here by brute force as the elements fixing block 0."""
    graph, group, blocks = inputs[name]
    fx = extract_fibre_data(quotient(verify_action(graph, group), blocks))
    points, nbrs = blocks.blocks[0], fx.quotient.adj[0]
    back = [_invert(x) for x in fx.normal]

    def flag(u, v):
        """The flag (fibre point, neighbour number) that u sees towards v,
        both carried back to block 0 by the element of N that takes u's
        block there."""
        x = back[blocks.block_of[u]]
        return points.index(x[u]), fx.eta[blocks.block_of[x[v]]]

    u, v = min(graph.arcs)
    pair = (flag(u, v), flag(v, u))
    orbit = {
        tuple((points.index(g[points[p]]), fx.eta[blocks.image(nbrs[j], g)]) for p, j in pair)
        for g in group.elements
        if blocks.image(0, g) == 0
    }
    assert fx.delta == orbit


@pytest.mark.parametrize("name", NAMES)
def test_rebuilt_arcs_match_the_pointwise_search(inputs, name):
    """For each quotient arc (p, b), every pair of fibre points whose
    transported flags form a pair in Δ, tried one pair at a time."""
    graph, group, blocks = inputs[name]
    fx = extract_fibre_data(quotient(verify_action(graph, group), blocks))
    quo, flags, eta = fx.quotient, fx.design.flags, fx.eta
    back = [_invert(row) for row in fx.normal_block_rows]
    npoints = fx.design.n_points
    arcs = set()
    for p, b in quo.arcs:
        jc, jd = eta[back[p][b]], eta[back[b][p]]
        for x in range(npoints):
            for y in range(npoints):
                if (x, jc) in flags and (y, jd) in flags and ((x, jc), (y, jd)) in fx.delta:
                    arcs.add((x * quo.n + p, y * quo.n + b))
    assert flag_orbital_reconstruction(fx).graph.arcs == arcs
