"""Semidirect products, covers, three-arc graphs, subgraph graphs, and the
two extension routes."""

import pytest

from conftest import SemidirectPairs, inverse, order, product
from sgk.arc_graphs import (
    check_condition_pe,
    check_three_arc_necessity,
    subgraph_graph,
    three_arc_graph,
    three_arc_orbits,
)
from sgk.constructions import (
    biggs_cover,
    chain_from_seeds,
    constant_chain,
    semidirect_product,
    trivial_twist,
    validate_nchain,
)
from sgk.designs import design_from_graph
from sgk.extensions import arc_partition_extension, extract_fibre_data, flag_orbital_reconstruction
from sgk.errors import (
    DegenerateInvolution,
    NoStrictChain,
    NotCompatible,
    NotInvolution,
    NotSemidirect,
    NotSymmetric,
    TwistNotHomomorphism,
)
from sgk.graphs import (
    DirectedSubgraph,
    Graph,
    are_isomorphic,
    complete_graph,
    connected_components,
    cycle_graph,
    verify_action,
)
from sgk.groups import group_from_generators
from sgk.perm import Perm, parse_cycles
from sgk.quotients import induced_bipartite, quotient
from sgk.subgroups import (
    BlockSystem,
    stabilizer_subgroup,
    subgroup_from_generators,
)


def _z3():
    return group_from_generators([parse_cycles("(1 2 3)", 3)], degree=3)


def _z5():
    return group_from_generators([parse_cycles("(1 2 3 4 5)", 5)], degree=5)


# ---- semidirect products -----------------------------------------------------


def test_semidirect_trivial_twist_orders(z2, s4):
    sd = semidirect_product(z2, s4, trivial_twist(z2, s4))
    assert len(sd) == 48
    # N's generator on N's two elements, then S4's generators on points 3..6
    assert [Perm(g).cycle_string() for g in sd.generators] == ["(1 2)", "(3 4)", "(3 4 5 6)"]


def test_semidirect_inverting_twist_is_s3(z2):
    z3 = _z3()
    inv = [[inverse(z3.generators[0])]]
    sd = semidirect_product(z3, z2, inv)
    assert len(sd) == 6
    ref = SemidirectPairs(z3, z2, inv)
    assert {ref.perm(x) for x in ref.pairs} == set(sd.elements)
    # element orders 1, 2, 3 with multiplicities of the symmetric group
    shape = {}
    for p in sd.elements:
        shape[order(p)] = shape.get(order(p), 0) + 1
    assert shape == {1: 1, 2: 3, 3: 2}


def test_semidirect_product_law_associative(z2, s4):
    """Pairs multiplied on the test side, against the permutations the
    group makes of them, on random triples."""
    sd = semidirect_product(z2, s4, trivial_twist(z2, s4))
    ref = SemidirectPairs(z2, s4, trivial_twist(z2, s4))
    assert {ref.perm(x) for x in ref.pairs} == set(sd.elements)
    import random

    rnd = random.Random(17)
    for _ in range(60):
        x, y, z = (rnd.choice(ref.pairs) for _ in range(3))
        assert ref.perm(ref.mul(x, y)) == product(ref.perm(x), ref.perm(y))
        assert ref.mul(ref.mul(x, y), z) == ref.mul(x, ref.mul(y, z))


def test_semidirect_twist_must_be_bijection(z2):
    with pytest.raises(TwistNotHomomorphism) as err:
        semidirect_product(z2, z2, [[(0, 1)]])
    assert "bijection" in str(err.value)


def test_semidirect_twist_must_extend(z2):
    z5 = _z5()
    squared = [[product(z5.generators[0], z5.generators[0])]]
    with pytest.raises(TwistNotHomomorphism) as err:
        semidirect_product(z5, z2, squared)
    assert "homomorphism" in str(err.value)


def _cyclic(m):
    return group_from_generators([tuple((i + 1) % m for i in range(m))], degree=m)


def _numbering(group):
    """Each listed image tuple of the group mapped to its position."""
    return {x: i for i, x in enumerate(group.elements)}


def _products(group):
    """The multiplication table of the group on its listing positions."""
    number = _numbering(group)
    return [[number[product(x, y)] for y in group.elements] for x in group.elements]


def _automorphisms_by_generator_images(n_part):
    """Every bijection of N that is multiplicative on every pair, keyed by
    its images of the generators of N."""
    import itertools

    size = len(n_part)
    table = _products(n_part)
    gens = [_numbering(n_part)[g] for g in n_part.generators]
    auts = {}
    for f in itertools.permutations(range(size)):
        if all(f[table[i][j]] == table[f[i]][f[j]] for i in range(size) for j in range(size)):
            auts[tuple(f[i] for i in gens)] = f
    return auts


def _reference_twist_rows(n_part, g_part, auts, twist):
    """The twist by definition, or None: each generator's images must be
    those of an automorphism of N, and the rows must satisfy
    rows[ij] = rows[j]∘rows[i] on every pair of elements of G."""
    n_number, g_number, g_table = _numbering(n_part), _numbering(g_part), _products(g_part)
    gen_rows = [auts.get(tuple(n_number[img] for img in images)) for images in twist]
    if None in gen_rows:
        return None
    rows = {0: tuple(range(len(n_part)))}
    while len(rows) < len(g_part):
        for x in list(rows):
            for s, srow in zip((g_number[g] for g in g_part.generators), gen_rows):
                rows.setdefault(g_table[x][s], tuple(srow[v] for v in rows[x]))
    for i in range(len(g_part)):
        for j in range(len(g_part)):
            if rows[g_table[i][j]] != tuple(rows[j][v] for v in rows[i]):
                return None
    return tuple(rows[i] for i in range(len(g_part)))


def test_semidirect_accepts_exactly_the_homomorphic_twists(z2, s4, d6):
    """Every twist of Z2..Z6 by Z2, Z4, S4 and D6, against the pairwise
    definition of a homomorphism into Aut(N)."""
    import itertools

    accepted = 0
    for m in range(2, 7):
        n_part = _cyclic(m)
        auts = _automorphisms_by_generator_images(n_part)
        for g_part in (z2, _cyclic(4), s4, d6):
            for images in itertools.product(n_part.elements, repeat=len(g_part.generators)):
                twist = [[img] for img in images]
                expected = _reference_twist_rows(n_part, g_part, auts, twist)
                try:
                    sd = semidirect_product(n_part, g_part, twist)
                except TwistNotHomomorphism:
                    assert expected is None
                    continue
                assert expected is not None
                # the elements of N ⋊ G fixing N's identity are the (1, g):
                # ρ(g) on N's elements, then g on G's points
                m = len(n_part)
                got = {
                    tuple(p - m for p in x[m:]): x[:m]
                    for x in sd.elements
                    if x[0] == 0
                }
                assert got == dict(zip(g_part.elements, expected))
                accepted += 1
    assert accepted == 46


# ---- chains ------------------------------------------------------------------


def test_constant_chain_validates(k4, s4, z2):
    sd = semidirect_product(z2, s4, trivial_twist(z2, s4))
    chain = constant_chain(k4, 1)
    report = validate_nchain(k4, s4, sd, chain)
    assert report.arc_orbit_count == 1
    assert report.orbit_representatives == ((0, 1),)
    assert report.representative_values == (1,)


def test_mixed_chain_rejected(k4, s4, z2):
    sd = semidirect_product(z2, s4, trivial_twist(z2, s4))
    from sgk.constructions import NChain

    values = {arc: (1 if arc == (0, 1) or arc == (1, 0) else 0) for arc in k4.arcs}
    with pytest.raises(NotCompatible):
        validate_nchain(k4, s4, sd, NChain.from_map(values))


def test_chain_from_seeds_propagates(k4, s4, z2):
    sd = semidirect_product(z2, s4, trivial_twist(z2, s4))
    chain = chain_from_seeds(k4, s4, sd, {(0, 1): 1})
    assert chain.assignment == constant_chain(k4, 1).assignment


# ---- Biggs covers ------------------------------------------------------------


def test_biggs_cover_of_k4_is_cube(k4, s4, z2, q3):
    sd = semidirect_product(z2, s4, trivial_twist(z2, s4))
    bc = biggs_cover(k4, s4, sd, constant_chain(k4, 1))
    assert bc.cover.n == 8
    assert bc.cover.valency() == 3
    assert are_isomorphic(bc.cover, q3) is not None
    assert bc.report.symmetric
    assert bc.certificate.cover_class == "cover"
    assert are_isomorphic(bc.certificate.quotient, k4) is not None
    p = bc.certificate.design_params
    assert (p.v, p.b, p.k, p.lam, p.multiplicity) == (2, 3, 2, 3, 3)


def test_biggs_fibre_matchings(k4, s4, z2):
    sd = semidirect_product(z2, s4, trivial_twist(z2, s4))
    bc = biggs_cover(k4, s4, sd, constant_chain(k4, 1))
    quo = bc.certificate.quotient
    for b, c in sorted(quo.arcs):
        if b < c:
            pattern = induced_bipartite(bc.cover, bc.fibres, b, c)
            assert pattern.valency() == 1
            assert pattern.n == 4


def test_biggs_identity_chain_splits(k4, s4, z2):
    sd = semidirect_product(z2, s4, trivial_twist(z2, s4))
    bc = biggs_cover(k4, s4, sd, constant_chain(k4, 0))
    comps = connected_components(bc.cover)
    assert sorted(len(c) for c in comps) == [4, 4]
    for comp in comps:
        piece, _ = bc.cover.induced_subgraph(comp)
        assert are_isomorphic(piece, complete_graph(4)) is not None


def test_biggs_c6_cover_splits_into_hexagons(c6, d6, z2):
    sd = semidirect_product(z2, d6, trivial_twist(z2, d6))
    bc = biggs_cover(c6, d6, sd, constant_chain(c6, 1))
    assert bc.cover.n == 12
    assert bc.cover.valency() == 2
    comps = connected_components(bc.cover)
    assert sorted(len(c) for c in comps) == [6, 6]


def test_biggs_action_is_homomorphism(k4, s4, z2):
    """Each pair's row, read off the action by the pair's permutation,
    composed with another's is the row of their product, multiplied on
    the test side."""
    sd = semidirect_product(z2, s4, trivial_twist(z2, s4))
    bc = biggs_cover(k4, s4, sd, constant_chain(k4, 1))
    ref = SemidirectPairs(z2, s4, trivial_twist(z2, s4))
    rows = {x: bc.action.rows[sd.elements.index(ref.perm(x))] for x in ref.pairs}
    for x in ref.pairs:
        for y in ref.pairs:
            z = ref.mul(x, y)
            for v in range(bc.cover.n):
                assert rows[y][rows[x][v]] == rows[z][v]


# ---- three-arc graphs ----------------------------------------------------------


def test_three_arc_orbits_k4(k4, s4):
    orbs = three_arc_orbits(verify_action(k4, s4))
    assert len(orbs) == 2
    assert [ob.size for ob in orbs] == [24, 24]
    assert all(ob.self_paired for ob in orbs)
    reps = sorted(min(ob.arcs) for ob in orbs)
    # one orbit closes a triangle, the other walks a path
    assert reps[0][0] == reps[0][3]
    assert reps[1][0] != reps[1][3]


def test_three_arc_graph_triangle_orbit(k4, s4):
    report = verify_action(k4, s4)
    orbs = three_arc_orbits(report)
    closed = [ob for ob in orbs if min(ob.arcs)[0] == min(ob.arcs)[3]][0]
    t = three_arc_graph(report, closed)
    assert t.graph.n == 12
    assert t.graph.valency() == 2
    assert t.report.symmetric
    comps = connected_components(t.graph)
    assert sorted(len(c) for c in comps) == [3, 3, 3, 3]


def test_three_arc_graph_path_orbit(k4, s4):
    report = verify_action(k4, s4)
    orbs = three_arc_orbits(report)
    open_walk = [ob for ob in orbs if min(ob.arcs)[0] != min(ob.arcs)[3]][0]
    t = three_arc_graph(report, open_walk)
    assert t.graph.n == 12
    assert t.graph.valency() == 2
    comps = connected_components(t.graph)
    assert sorted(len(c) for c in comps) == [4, 4, 4]


def test_three_arc_partition_collapses_to_base(k4, s4):
    report = verify_action(k4, s4)
    for ob in three_arc_orbits(report):
        t = three_arc_graph(report, ob)
        assert t.partition.n_blocks == k4.n
        collapsed = set()
        for u, v in t.graph.arcs:
            collapsed.add(
                (t.vertices[u][0], t.vertices[v][0])
            )
        assert collapsed == set(k4.arcs)


def test_three_arc_c6(c6, d6):
    report = verify_action(c6, d6)
    orbs = three_arc_orbits(report)
    assert len(orbs) == 1
    assert orbs[0].size == 12
    t = three_arc_graph(report, orbs[0])
    assert t.graph.n == 12
    assert t.graph.valency() == 1


ANTIPODAL6 = BlockSystem.from_blocks(6, [[0, 3], [1, 4], [2, 5]])

REFUSALS = [
    (lambda report: quotient(report, ANTIPODAL6), "quotients are taken of symmetric graphs only"),
    (three_arc_orbits, "three-arc data needs a symmetric graph"),
    (lambda report: three_arc_graph(report, [(0, 1, 2, 3)]),
     "three-arc graphs are built over symmetric graphs"),
    (design_from_graph, "the design construction needs a symmetric graph"),
]


@pytest.mark.parametrize(
    "build, message", REFUSALS,
    ids=["quotient", "three_arc_orbits", "three_arc_graph", "design_from_graph"],
)
def test_each_construction_refuses_a_report_that_is_not_symmetric(c6, z6, build, message):
    """C6 under its rotations alone is vertex transitive but not locally
    transitive; a construction handed that report refuses it."""
    report = verify_action(c6, z6)
    assert not report.symmetric
    with pytest.raises(NotSymmetric) as exc:
        build(report)
    assert str(exc.value) == message


def test_design_from_graph_refuses_isolated_vertices(z6):
    """An edgeless graph is symmetric under any transitive group, and its
    neighbourhood design would have empty blocks."""
    report = verify_action(Graph.from_edges(6, []), z6)
    assert report.symmetric
    with pytest.raises(NotSymmetric) as exc:
        design_from_graph(report)
    assert str(exc.value) == "isolated vertices would give empty blocks"


def test_three_arc_orbits_empty_when_too_short():
    single = complete_graph(2)
    z2_on_2 = group_from_generators([parse_cycles("(1 2)", 2)], degree=2)
    assert three_arc_orbits(verify_action(single, z2_on_2)) == []


def test_condition_pe_on_k4_tags(k4, s4):
    report = verify_action(k4, s4)
    for ob in three_arc_orbits(report):
        t = three_arc_graph(report, ob)
        labelling = check_condition_pe(quotient(t.report, t.partition))
        assert labelling is not None
        assert labelling == tuple(v for (_, v) in t.vertices)
        assert check_three_arc_necessity(quotient(t.report, t.partition), labelling)


def test_condition_pe_rejects_covers(q3, k4, s4, z2, d6, c6):
    sd = semidirect_product(z2, s4, trivial_twist(z2, s4))
    bc = biggs_cover(k4, s4, sd, constant_chain(k4, 1))
    assert check_condition_pe(quotient(bc.report, bc.fibres)) is None


def test_necessity_counterexample():
    c4 = cycle_graph(4)
    d4g = group_from_generators(
        [parse_cycles("(1 2 3 4)", 4), parse_cycles("(2 4)", 4)], degree=4
    )
    part = BlockSystem.from_blocks(4, [[0, 2], [1, 3]])
    labelling = (1, 0, 1, 0)
    assert not check_three_arc_necessity(quotient(verify_action(c4, d4g), part), labelling)


# ---- subgraph graphs -----------------------------------------------------------


def test_subgraph_graph_cube(k4, s4, q3):
    tri = DirectedSubgraph.make([0, 2, 3], [(2, 3), (3, 0), (0, 2)])
    res = subgraph_graph(k4, s4, tri, parse_cycles("(1 2)", 4))
    assert res.graph.n == 8
    assert res.graph.valency() == 3
    assert res.stabilizer_order == 3
    assert not res.dropped_loops
    assert are_isomorphic(res.graph, q3) is not None
    assert res.report.vertex_transitive and res.report.arc_transitive


def test_subgraph_graph_directed_triangle_variant(k4, s4):
    tri = DirectedSubgraph.make([0, 1, 2], [(0, 1), (1, 2), (2, 0)])
    res = subgraph_graph(k4, s4, tri, parse_cycles("(1 2)", 4))
    assert res.graph.n == 8
    assert res.graph.valency() == 1
    comps = connected_components(res.graph)
    assert sorted(len(c) for c in comps) == [2, 2, 2, 2]


def test_subgraph_graph_single_arc(k4, s4):
    arc = DirectedSubgraph.make([0, 1], [(0, 1)])
    res = subgraph_graph(k4, s4, arc, parse_cycles("(1 2)", 4))
    assert res.graph.n == 12
    assert res.graph.valency() == 1


def test_subgraph_graph_orbit_times_stabilizer(k4, s4):
    tri = DirectedSubgraph.make([0, 2, 3], [(2, 3), (3, 0), (0, 2)])
    res = subgraph_graph(k4, s4, tri, parse_cycles("(1 2)", 4))
    assert len(res.subgraphs) * res.stabilizer_order == len(s4)


def test_subgraph_graph_matches_its_definition(k4, s4):
    """Arcs {Υ^g, Υ^{ag}} and one action row per element g, straight from
    the definition, on K4/S4 and K6/S6; the edge case fixes its subgraph."""
    k6 = complete_graph(6)
    s6 = group_from_generators(
        [parse_cycles("(1 2 3 4 5 6)", 6), parse_cycles("(1 2)", 6)]
    )
    tri = [[0, 2, 3], [(2, 3), (3, 0), (0, 2)]]
    path = [[0, 1, 2], [(0, 1), (1, 2)]]
    edge = [[0, 1], [(0, 1), (1, 0)]]
    cases = [
        (k4, s4, tri, "(1 2)"),
        (k4, s4, path, "(1 3)"),
        (k4, s4, edge, "(1 2)"),
        (k6, s6, tri, "(1 2)"),
        (k6, s6, path, "(1 4)(2 5)"),
        (k6, s6, edge, "(1 2)(3 4)"),
    ]
    for graph, group, (vs, arcs), a_text in cases:
        sub = DirectedSubgraph.make(vs, arcs)
        a = parse_cycles(a_text, graph.n)
        res = subgraph_graph(graph, group, sub, a)
        where = {s.key(): i for i, s in enumerate(res.subgraphs)}
        assert set(where) == {sub.image(g).key() for g in group}
        pairs = {
            (where[sub.image(g).key()], where[sub.image(product(a, g)).key()])
            for g in group
        }
        expected = {(i, j) for i, j in pairs if i != j}
        assert res.graph.arcs == expected | {(j, i) for i, j in expected}
        assert res.dropped_loops == (expected != pairs)
        assert res.action.rows == tuple(
            tuple(where[s.image(g).key()] for s in res.subgraphs) for g in group
        )
    assert res.dropped_loops and not res.graph.arcs


def test_subgraph_graph_needs_involution(k4, s4):
    tri = DirectedSubgraph.make([0, 2, 3], [(2, 3), (3, 0), (0, 2)])
    with pytest.raises(NotInvolution):
        subgraph_graph(k4, s4, tri, parse_cycles("(1 2 3)", 4))


# ---- arc partition extensions --------------------------------------------------


def _octahedron_setup(oct_aut):
    h = stabilizer_subgroup(oct_aut, 0)
    k = subgroup_from_generators(
        oct_aut, (parse_cycles("(3 6)", 6), parse_cycles("(2 5)", 6))
    )
    a = parse_cycles("(1 2)(4 5)", 6)
    return h, k, a


def test_arc_extension_octahedron(oct_aut):
    h, k, a = _octahedron_setup(oct_aut)
    ext = arc_partition_extension(oct_aut, h, k, a)
    assert ext.r == 2
    assert ext.extension.n == 12
    assert ext.extension.valency() == 2
    assert ext.base.graph.n == 6
    assert ext.base.valency == 4
    assert ext.extension.edge_count == ext.base.graph.edge_count
    assert ext.exact
    comps = connected_components(ext.extension)
    assert sorted(len(c) for c in comps) == [4, 4, 4]


def test_arc_extension_head_collapse(oct_aut):
    h, k, a = _octahedron_setup(oct_aut)
    ext = arc_partition_extension(oct_aut, h, k, a)
    collapsed = {(ext.head_map[u], ext.head_map[v]) for u, v in ext.extension.arcs}
    assert collapsed == set(ext.base.graph.arcs)


def test_arc_extension_degenerate_involution(oct_aut):
    h, k, _ = _octahedron_setup(oct_aut)
    with pytest.raises(DegenerateInvolution):
        arc_partition_extension(oct_aut, h, k, parse_cycles("(3 6)", 6))


def test_arc_extension_needs_strict_chain(s4):
    h = stabilizer_subgroup(s4, 0)
    k = subgroup_from_generators(s4, (parse_cycles("(3 4)", 4),))
    with pytest.raises(NoStrictChain):
        arc_partition_extension(s4, h, k, parse_cycles("(1 2)", 4))


# ---- fibre extraction and reconstruction ---------------------------------------


def test_extract_and_reconstruct_biggs_cover(k4, s4, z2):
    sd = semidirect_product(z2, s4, trivial_twist(z2, s4))
    bc = biggs_cover(k4, s4, sd, constant_chain(k4, 1))
    fx = extract_fibre_data(quotient(bc.report, bc.fibres))
    assert fx.normal_order == 4
    assert fx.stabilizer_order == 12
    assert len(fx.delta) == 6
    assert fx.design.n_points == 2
    assert fx.design.n_blocks == 3
    assert len(fx.design.flags) == 6
    rb = flag_orbital_reconstruction(fx)
    assert rb.graph.n == bc.cover.n
    remap = [code[0] * fx.quotient.n + code[1] for code in fx.vertex_code]
    assert sorted(remap) == list(range(bc.cover.n))
    assert {(remap[u], remap[v]) for u, v in bc.cover.arcs} == set(rb.graph.arcs)
    assert rb.report.symmetric


def test_extract_trivial_fibres_k4(k4, s4):
    singles = BlockSystem.from_blocks(4, [[v] for v in range(4)])
    fx = extract_fibre_data(quotient(verify_action(k4, s4), singles))
    rb = flag_orbital_reconstruction(fx)
    assert are_isomorphic(rb.graph, k4) is not None


def test_extract_needs_regular_normal_subgroup():
    c4 = cycle_graph(4)
    d4g = group_from_generators(
        [parse_cycles("(1 2 3 4)", 4), parse_cycles("(2 4)", 4)], degree=4
    )
    part = BlockSystem.from_blocks(4, [[0, 2], [1, 3]])
    with pytest.raises(NotSemidirect):
        extract_fibre_data(quotient(verify_action(c4, d4g), part))
