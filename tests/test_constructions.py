"""Semidirect products, covers, three-arc graphs, subgraph graphs, and the
two extension routes."""

import pytest

from conftest import SemidirectPairs, inverse, order, product
from sgk.arc_graphs import (
    ThreeArcOrbit,
    check_condition_pe,
    check_three_arc_necessity,
    subgraph_graph,
    three_arc_graph,
    three_arc_orbits,
)
from sgk.constructions import (
    NChain,
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
    CertificationFailed,
    DegenerateInvolution,
    DegreeMismatch,
    InvalidChain,
    InverseSymmetryViolated,
    NoStrictChain,
    NotCompatible,
    NotInvolution,
    NotSelfPaired,
    NotSemidirect,
    NotSubgraph,
    NotSymmetric,
    TrivialQuotient,
    TwistNotHomomorphism,
    ValencyTooSmall,
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
from sgk.groups import Action, GroupTable, group_from_generators
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


def _z4_by_two_generators():
    """Z4 generated by a 4-cycle and by its square."""
    return group_from_generators(
        [parse_cycles("(1 2 3 4)", 4), parse_cycles("(1 3)(2 4)", 4)], degree=4
    )


TWIST_REFUSALS = [
    (lambda z2, s4: semidirect_product(z2, s4, trivial_twist(z2, s4) + [[(1, 0)]]),
     "3 automorphisms for 2 generators of G"),
    (lambda z2, s4: semidirect_product(z2, s4, [[(1, 0), (1, 0)]] * 2),
     "2 images for 1 generators of N"),
    (lambda z2, s4: semidirect_product(
        GroupTable(3, [(1, 0, 2)]), z2, [[parse_cycles("(2 3)", 3)]]),
     "image (2 3) lies outside N"),
    # the square of the 4-cycle must go where the 4-cycle's image squares to
    (lambda z2, s4: semidirect_product(
        _z4_by_two_generators(), z2, [[parse_cycles("(1 2 3 4)", 4)] * 2]),
     "generator images contradict each other on N"),
]


@pytest.mark.parametrize("build, message", TWIST_REFUSALS,
                         ids=["rows-for-G", "images-for-N", "image-outside-N", "contradiction"])
def test_a_twist_that_is_no_homomorphism_is_refused_by_name(z2, s4, build, message):
    with pytest.raises(TwistNotHomomorphism) as exc:
        build(z2, s4)
    assert str(exc.value) == message


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
    values = {arc: (1 if arc == (0, 1) or arc == (1, 0) else 0) for arc in k4.arcs}
    with pytest.raises(NotCompatible):
        validate_nchain(k4, s4, sd, NChain.from_map(values))


def test_chain_from_seeds_propagates(k4, s4, z2):
    sd = semidirect_product(z2, s4, trivial_twist(z2, s4))
    chain = chain_from_seeds(k4, s4, sd, {(0, 1): 1})
    assert chain.assignment == constant_chain(k4, 1).assignment


def _a4():
    return group_from_generators(
        [parse_cycles("(1 2 3)", 4), parse_cycles("(2 3 4)", 4)], degree=4
    )


def _constant_except(graph, value, changed):
    """The constant chain ``value`` with the arcs of ``changed`` reset."""
    return NChain.from_map({**{arc: value for arc in graph.arcs}, **changed})


CHAIN_REFUSALS = [
    (lambda k4, s4, sd: chain_from_seeds(k4, s4, sd, {(0, 0): 1}),
     InvalidChain, "seed arc (1, 1) is not an arc of the graph"),
    (lambda k4, s4, sd: chain_from_seeds(k4, s4, sd, {(0, 1): 2}),
     InvalidChain, "seed value 2 is outside N"),
    # N = Z2 is abelian, so the reverse of (1, 2) carries the same value
    (lambda k4, s4, sd: chain_from_seeds(k4, s4, sd, {(0, 1): 0, (1, 0): 1}),
     NotCompatible, "propagation assigns two values to some arc"),
    (lambda k4, s4, sd: chain_from_seeds(k4, _a4(), sd, {(0, 1): 1}),
     DegreeMismatch, "the twist was built over a different group"),
    (lambda k4, s4, sd: validate_nchain(
        k4, s4, sd, NChain.from_map({arc: 0 for arc in k4.arcs if arc != (2, 3)})),
     InvalidChain, "no value on arc (2, 3)"),
    (lambda k4, s4, sd: validate_nchain(k4, s4, sd, _constant_except(k4, 0, {(2, 3): 2})),
     InvalidChain, "value on arc (2, 3) is outside N"),
    (lambda k4, s4, sd: validate_nchain(k4, s4, sd, _constant_except(k4, 0, {(0, 1): 1})),
     InverseSymmetryViolated, "value on (1, 0) is not the inverse of the value on (0, 1)"),
]


@pytest.mark.parametrize(
    "build, error, message", CHAIN_REFUSALS,
    ids=["seed-arc", "seed-value", "seeds-clash", "other-group", "missing-arc",
         "value-outside-N", "not-inverse"],
)
def test_a_chain_that_is_no_chain_is_refused_by_name(k4, s4, z2, build, error, message):
    sd = semidirect_product(z2, s4, trivial_twist(z2, s4))
    with pytest.raises(error) as exc:
        build(k4, s4, sd)
    assert str(exc.value) == message


# ---- Biggs covers ------------------------------------------------------------


def test_biggs_cover_of_k4_is_cube(k4, s4, z2, q3):
    sd = semidirect_product(z2, s4, trivial_twist(z2, s4))
    bc = biggs_cover(k4, s4, sd, constant_chain(k4, 1))
    assert bc.graph.n == 8
    assert bc.graph.valency() == 3
    assert are_isomorphic(bc.graph, q3) is not None
    assert bc.symmetric
    assert bc.certificate.cover_class == "cover"
    assert are_isomorphic(bc.certificate.source.graph, k4) is not None
    p = bc.certificate.design_params
    assert (p.v, p.b, p.k, p.lam, p.multiplicity) == (2, 3, 2, 3, 3)


def test_biggs_fibre_matchings(k4, s4, z2):
    sd = semidirect_product(z2, s4, trivial_twist(z2, s4))
    bc = biggs_cover(k4, s4, sd, constant_chain(k4, 1))
    quo = bc.certificate.source.graph
    for b, c in sorted(quo.arcs):
        if b < c:
            pattern = induced_bipartite(bc.graph, bc.certificate.source.partition, b, c)
            assert pattern.valency() == 1
            assert pattern.n == 4


def test_biggs_identity_chain_splits(k4, s4, z2):
    sd = semidirect_product(z2, s4, trivial_twist(z2, s4))
    bc = biggs_cover(k4, s4, sd, constant_chain(k4, 0))
    comps = connected_components(bc.graph)
    assert sorted(len(c) for c in comps) == [4, 4]
    for comp in comps:
        piece, _ = bc.graph.induced_subgraph(comp)
        assert are_isomorphic(piece, complete_graph(4)) is not None


def test_biggs_c6_cover_splits_into_hexagons(c6, d6, z2):
    sd = semidirect_product(z2, d6, trivial_twist(z2, d6))
    bc = biggs_cover(c6, d6, sd, constant_chain(c6, 1))
    assert bc.graph.n == 12
    assert bc.graph.valency() == 2
    comps = connected_components(bc.graph)
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
            for v in range(bc.graph.n):
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
    assert t.symmetric
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
        assert t.certificate.source.partition.n_blocks == k4.n
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


def test_three_arc_graph_names_an_orbit_that_is_not_self_paired(k4):
    """A4 splits K4's 3-arcs into four orbits; orbits 0 and 2 are each
    other's reversal, and the refusal names the least 3-arc by labels."""
    orbs = three_arc_orbits(verify_action(k4, _a4()))
    assert [(ob.self_paired, ob.partner) for ob in orbs] == [
        (False, 2), (True, 1), (False, 0), (True, 3)]
    with pytest.raises(NotSelfPaired) as exc:
        three_arc_graph(verify_action(k4, _a4()), orbs[0])
    assert str(exc.value) == (
        "the orbit of (1, 2, 3, 1) is not self-paired: its reversals form orbit 2"
    )


def test_three_arc_graph_of_an_orbit_of_another_group_fails_certification(k4, s4):
    """An A4-orbit is no union of S4-orbits; the three-arc graph it would
    give is not symmetric under S4, which certification catches."""
    orbit = three_arc_orbits(verify_action(k4, _a4()))[1]
    with pytest.raises(CertificationFailed) as exc:
        three_arc_graph(verify_action(k4, s4), orbit)
    assert "the arc action is symmetric on the three-arc graph" in str(exc.value)


def test_a_self_paired_orbit_of_valency_one_has_a_labelling_but_no_necessity(k4):
    """A4's self-paired orbits on K4 give three-arc graphs of valency 1:
    the labelling exists, and the necessity argument, which reads 3-arcs,
    refuses the graph."""
    report = verify_action(k4, _a4())
    for ob in three_arc_orbits(report):
        if not ob.self_paired:
            continue
        tag = three_arc_graph(report, ob)
        assert (tag.graph.n, tag.graph.valency()) == (12, 1)
        source = tag.certificate.source
        labelling = check_condition_pe(source)
        assert labelling is not None
        with pytest.raises(ValencyTooSmall) as exc:
            check_three_arc_necessity(source, labelling)
        assert str(exc.value) == "the necessity argument needs valency at least 2"


def test_labelling_tests_refuse_what_is_not_a_labelling(k4, s4):
    report = verify_action(k4, s4)
    one_block = quotient(report, BlockSystem.from_blocks(4, [range(4)]))
    with pytest.raises(TrivialQuotient) as exc:
        check_condition_pe(one_block)
    assert str(exc.value) == "the labelling test applies to nontrivial quotients"
    source = three_arc_graph(report, three_arc_orbits(report)[0]).certificate.source
    with pytest.raises(ValueError) as exc:
        check_three_arc_necessity(source, (0,))
    assert str(exc.value) == "one quotient vertex per graph vertex is required"
    # each vertex named by its own block: no arc (C, B) of the quotient has C = B
    assert not check_three_arc_necessity(source, source.partition.block_of)


ANTIPODAL6 = BlockSystem.from_blocks(6, [[0, 3], [1, 4], [2, 5]])

REFUSALS = [
    (lambda report: quotient(report, ANTIPODAL6), "quotients are taken of symmetric graphs only"),
    (three_arc_orbits, "three-arc data needs a symmetric graph"),
    (lambda report: three_arc_graph(report, ThreeArcOrbit(((0, 1, 2, 3),), True, 0)),
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
        q = quotient(t, t.certificate.source.partition)
        labelling = check_condition_pe(q)
        assert labelling is not None
        assert labelling == tuple(v for (_, v) in t.vertices)
        assert check_three_arc_necessity(q, labelling)


def test_condition_pe_rejects_covers(q3, k4, s4, z2, d6, c6):
    sd = semidirect_product(z2, s4, trivial_twist(z2, s4))
    bc = biggs_cover(k4, s4, sd, constant_chain(k4, 1))
    assert check_condition_pe(quotient(bc, bc.certificate.source.partition)) is None


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
    assert res.vertex_transitive and res.arc_transitive


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


def test_subgraph_graph_refuses_what_does_not_fit_the_graph(k4, s4):
    # S3 on K3 through conjugation by (1 2 3): (1 2) acts by the row (2 3),
    # so its own image tuple would pair 2>3 with the wrong subgraph
    s3 = GroupTable(3, [(1, 0, 2), (1, 2, 0)])
    action = Action(s3, 3, gen_rows=[(0, 2, 1), (1, 2, 0)])
    arc = DirectedSubgraph.make([1, 2], [(1, 2)])
    with pytest.raises(TypeError) as exc:
        subgraph_graph(complete_graph(3), action, arc, (1, 0, 2))
    assert str(exc.value) == "subgraph graphs take a group on the graph's vertices, not an Action"
    with pytest.raises(NotSubgraph) as exc:
        subgraph_graph(k4, s4, DirectedSubgraph.make([0, 9], [(0, 9)]), (1, 0, 2, 3))
    assert str(exc.value) == "vertex 9 is outside the graph"


# ---- arc partition extensions --------------------------------------------------


def _octahedron_setup(oct_aut):
    h = stabilizer_subgroup(oct_aut, 0)
    k = subgroup_from_generators(
        oct_aut, (parse_cycles("(3 6)", 6), parse_cycles("(2 5)", 6))
    )
    a = parse_cycles("(1 2)(4 5)", 6)
    return h, k, a


def test_arc_extension_octahedron(oct_aut, octahedron):
    h, k, a = _octahedron_setup(oct_aut)
    ext = arc_partition_extension(oct_aut, h, k, a)
    assert ext.r == 2
    assert ext.graph.n == 12
    assert ext.graph.valency() == 2
    assert ext.base.graph.n == 6
    assert are_isomorphic(ext.base.graph, octahedron) is not None
    assert ext.base.valency == 4
    assert ext.graph.edge_count == ext.base.graph.edge_count
    assert ext.exact
    comps = connected_components(ext.graph)
    assert sorted(len(c) for c in comps) == [4, 4, 4]


def test_arc_extension_head_collapse(oct_aut):
    h, k, a = _octahedron_setup(oct_aut)
    ext = arc_partition_extension(oct_aut, h, k, a)
    collapsed = {(ext.head_map[u], ext.head_map[v]) for u, v in ext.graph.arcs}
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


@pytest.mark.parametrize("involution, message", [
    ("(1 2)", "(1 2) is not in the group"),
    ("(1 2 3)(4 5 6)", "(1 2 3)(4 5 6) is not an involution"),
])
def test_arc_extension_needs_an_involution_of_the_group(oct_aut, involution, message):
    h, k, _ = _octahedron_setup(oct_aut)
    with pytest.raises(NotInvolution) as exc:
        arc_partition_extension(oct_aut, h, k, parse_cycles(involution, 6))
    assert str(exc.value) == message


# ---- fibre extraction and reconstruction ---------------------------------------


def test_extract_and_reconstruct_biggs_cover(k4, s4, z2):
    sd = semidirect_product(z2, s4, trivial_twist(z2, s4))
    bc = biggs_cover(k4, s4, sd, constant_chain(k4, 1))
    fx = extract_fibre_data(quotient(bc, bc.certificate.source.partition))
    assert fx.normal_order == 4
    assert fx.stabilizer_order == 12
    assert len(fx.delta) == 6
    assert fx.design.n_points == 2
    assert fx.design.n_blocks == 3
    assert len(fx.design.flags) == 6
    rb = flag_orbital_reconstruction(fx)
    assert rb.graph.n == bc.graph.n
    remap = [code[0] * fx.source.graph.n + code[1] for code in fx.vertex_code]
    assert sorted(remap) == list(range(bc.graph.n))
    assert {(remap[u], remap[v]) for u, v in bc.graph.arcs} == set(rb.graph.arcs)
    assert rb.symmetric


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
