"""Quotients along invariant partitions and the quotient dictionary."""

import pytest

from sgk.errors import (
    CertificationFailed,
    DegenerateQuotient,
    NotInvariant,
    NotNested,
    NotQuotientArc,
    TrivialQuotient,
)
from sgk.graphs import Graph, are_isomorphic, complete_graph, cycle_graph, verify_action
from sgk.groups import coerce_action
from sgk.perm import parse_cycles
from sgk.quotients import (
    certify_quotient,
    cover_class,
    cross_section_design,
    induced_bipartite,
    quotient_action,
    quotient,
    quotient_as_coset_graph,
    quotient_is_nontrivial,
    quotient_as_coset_graph,
)
from sgk.subgroups import BlockSystem, subgroup_from_generators


def _antipodal6():
    return BlockSystem.from_blocks(6, [[0, 3], [1, 4], [2, 5]])


def _singletons(n):
    return BlockSystem.from_blocks(n, [[v] for v in range(n)])


def test_quotient_action_rows(c6, d6):
    part = _antipodal6()
    act = coerce_action(d6, 6)
    qact = quotient_action(part, act)
    assert qact.n_points == 3
    for row, qrow in zip(act.rows, qact.rows):
        for v in range(6):
            assert part.block_of[row[v]] == qrow[part.block_of[v]]


def test_quotient_action_rejects_non_invariant(d6):
    bad = BlockSystem.from_blocks(6, [[0, 1], [2, 3], [4, 5]])
    with pytest.raises(NotInvariant) as err:
        quotient_action(bad, coerce_action(d6, 6))
    # the split block travels as its vertices, and the message counts from 1
    assert err.value.vertices == (0, 1)
    assert str(err.value) == "a generator splits block {1, 2}"


def test_c6_antipodal_quotient_is_triangle(c6, d6):
    qc = certify_quotient(quotient(verify_action(c6, d6), _antipodal6()))
    assert qc.nontrivial
    assert are_isomorphic(qc.source.graph, complete_graph(3)) is not None
    assert qc.cover_class == "cover"
    p = qc.design_params
    assert (p.v, p.k, p.lam, p.b, p.multiplicity) == (2, 2, 2, 2, 2)
    assert qc.source.symmetric
    assert qc.bipartite_uniform


def test_k4_singleton_quotient_is_identity_cover(k4, s4):
    qc = certify_quotient(quotient(verify_action(k4, s4), _singletons(4)))
    assert qc.nontrivial
    assert qc.cover_class == "cover"
    assert qc.source.graph.arcs == k4.arcs
    p = qc.design_params
    assert (p.v, p.k, p.lam, p.b) == (1, 1, 3, 3)


def test_q3_antipodal_gives_k4(q3):
    # fold the cube along its space diagonal pairs
    from sgk.groups import group_from_generators

    xor1 = tuple(v ^ 1 for v in range(8))
    swap01 = tuple((v & 4) | ((v & 1) << 1) | ((v & 2) >> 1) for v in range(8))
    swap12 = tuple((v & 1) | ((v & 2) << 1) | ((v & 4) >> 1) for v in range(8))
    group = group_from_generators([xor1, swap01, swap12], degree=8)
    assert len(group) == 48
    part = BlockSystem.from_blocks(8, [[0, 7], [1, 6], [2, 5], [3, 4]])
    qc = certify_quotient(quotient(verify_action(q3, group), part))
    assert are_isomorphic(qc.source.graph, complete_graph(4)) is not None
    assert qc.cover_class == "cover"


def test_trivial_quotient_raises(c6, d6):
    part = BlockSystem.from_blocks(6, [[0, 1, 2, 3, 4, 5]])
    with pytest.raises(TrivialQuotient):
        certify_quotient(quotient(verify_action(c6, d6), part))
    qc = certify_quotient(quotient(verify_action(c6, d6), part), allow_trivial=True)
    assert not qc.nontrivial
    assert qc.cover_class is None
    assert qc.design_params is None


def test_quotient_is_nontrivial_flags(c6):
    assert quotient_is_nontrivial(c6, _antipodal6())
    assert not quotient_is_nontrivial(
        c6, BlockSystem.from_blocks(6, [[0, 1, 2, 3, 4, 5]])
    )
    assert not quotient_is_nontrivial(Graph.from_edges(2, []), BlockSystem(2, ((0,), (1,))))


def test_readers_of_a_quotient_refuse_a_trivial_one(c6, d6):
    """Halving C6 into two paths keeps an arc inside each block."""
    halves = BlockSystem.from_blocks(6, [[0, 1, 2], [3, 4, 5]])
    one_block = quotient(verify_action(c6, d6), BlockSystem.from_blocks(6, [range(6)]))
    with pytest.raises(TrivialQuotient) as exc:
        cover_class(c6, halves)
    assert str(exc.value) == "cover classification needs a nontrivial quotient"
    with pytest.raises(TrivialQuotient) as exc:
        cross_section_design(one_block, 0)
    assert str(exc.value) == "cross sections are cut through nontrivial quotients"


@pytest.mark.parametrize("read, message", [
    (lambda c6, q: induced_bipartite(c6, q.partition, 0, 3), "no blocks numbered 0 and 3"),
    (lambda c6, q: induced_bipartite(c6, BlockSystem(6, tuple((v,) for v in range(6))), 0, 2),
     "blocks 0 and 2 are not adjacent in the quotient"),
    (lambda c6, q: cross_section_design(q, 3), "no block numbered 3"),
], ids=["bipartite-block", "bipartite-adjacency", "section-block"])
def test_readers_of_a_quotient_name_a_block_it_lacks(c6, d6, read, message):
    q = quotient(verify_action(c6, d6), _antipodal6())
    with pytest.raises(NotQuotientArc) as exc:
        read(c6, q)
    assert str(exc.value) == message


def test_cover_class_multicover(c6, d6):
    # halving a hexagon: each vertex sees two of the three opposite members
    part = BlockSystem.from_blocks(6, [[0, 2, 4], [1, 3, 5]])
    assert cover_class(c6, part) == "multicover_proper"
    qc = certify_quotient(quotient(verify_action(c6, d6), part))
    assert qc.cover_class == "multicover_proper"
    assert qc.source.graph.n == 2 and qc.source.graph.edge_count == 1


def test_induced_bipartite_pattern(c6, petersen):
    part = _antipodal6()
    pattern = induced_bipartite(c6, part, 0, 1)
    # antipodal folding of a hexagon leaves a two-edge matching between fibres
    assert pattern.edge_count == 2
    assert pattern.valency() == 1
    with pytest.raises(NotQuotientArc):
        induced_bipartite(c6, part, 0, 0)


def test_cross_section_design(c6, d6):
    section = cross_section_design(quotient(verify_action(c6, d6), _antipodal6()), 0)
    p = section.params
    assert (p.v, p.k, p.lam, p.b) == (2, 2, 2, 2)
    assert p.v * p.lam == p.b * p.k


def test_cross_section_crash_is_not_a_certification_failure(c6, d6, monkeypatch):
    from sgk import quotients

    def crash(inc):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(quotients, "validate_design", crash)
    with pytest.raises(RecursionError) as info:
        cross_section_design(quotient(verify_action(c6, d6), _antipodal6()), 0)
    assert not isinstance(info.value, CertificationFailed)


def test_a_cross_section_that_is_no_design_is_a_certification_failure(c6, d6, monkeypatch):
    """A symmetric graph's cross sections are uniform; were one not, the
    fault is the program's, not the input's."""
    from sgk import quotients
    from sgk.errors import NotUniformBlocks

    def uneven(inc):
        raise NotUniformBlocks("block sizes vary: [1, 2]")

    monkeypatch.setattr(quotients, "validate_design", uneven)
    with pytest.raises(CertificationFailed) as info:
        cross_section_design(quotient(verify_action(c6, d6), _antipodal6()), 0)
    assert str(info.value) == (
        "certification failed: cross section is not uniform (block sizes vary: [1, 2])"
    )


def test_quotient_as_coset_graph_d6(d6):
    h = subgroup_from_generators(d6, (parse_cycles("(2 6)(3 5)", 6),))
    k = subgroup_from_generators(
        d6,
        (parse_cycles("(2 6)(3 5)", 6), parse_cycles("(1 4)(2 5)(3 6)", 6)),
    )
    a = parse_cycles("(1 2)(3 6)(4 5)", 6)
    form = quotient_as_coset_graph(d6, h, a, k)
    assert form.exact
    assert form.base.graph.n == 6
    assert are_isomorphic(form.quotient, cycle_graph(3)) is not None
    assert are_isomorphic(form.model.graph, cycle_graph(3)) is not None
    assert sorted(form.vertex_map) == [0, 1, 2]


def test_quotient_as_coset_graph_refuses_degenerate(d6):
    h = subgroup_from_generators(d6, (parse_cycles("(2 6)(3 5)", 6),))
    k = subgroup_from_generators(
        d6,
        (parse_cycles("(2 6)(3 5)", 6), parse_cycles("(1 4)(2 5)(3 6)", 6)),
    )
    inside = parse_cycles("(1 4)(2 3)(5 6)", 6)
    assert inside in k or inside in set(k.elements)
    with pytest.raises(DegenerateQuotient):
        quotient_as_coset_graph(d6, h, inside, k)


def test_quotient_as_coset_graph_needs_nesting(d6):
    h = subgroup_from_generators(d6, (parse_cycles("(2 6)(3 5)", 6),))
    other = subgroup_from_generators(d6, (parse_cycles("(1 4)(2 5)(3 6)", 6),))
    a = parse_cycles("(1 2)(3 6)(4 5)", 6)
    with pytest.raises(NotNested):
        quotient_as_coset_graph(d6, h, a, other)
    with pytest.raises(NotNested) as exc:
        quotient_as_coset_graph(d6, h, a, h)
    assert str(exc.value) == "the containment H < K must be strict"
    with pytest.raises(NotNested) as exc:
        quotient_as_coset_graph(d6, h, a, d6)
    assert str(exc.value) == "K must be a proper subgroup; one block is no quotient"


def test_quotient_partition_has_the_graph_size(k4, s4):
    with pytest.raises(NotInvariant) as exc:
        quotient(verify_action(k4, s4), _antipodal6())
    assert str(exc.value) == "partition of 6 points against a graph on 4"


def test_consumers_read_the_quotient_and_derive_nothing(k4, s4, z2, monkeypatch):
    """Given a Quotient, none of its five consumers derives it again: with
    every way of taking a quotient or a symmetry report made to raise,
    each still answers."""
    from sgk import arc_graphs, constructions, extensions, quotients
    from sgk.arc_graphs import (
        check_condition_pe,
        check_three_arc_necessity,
        three_arc_graph,
        three_arc_orbits,
    )
    from sgk.constructions import biggs_cover, constant_chain, semidirect_product, trivial_twist
    from sgk.extensions import extract_fibre_data

    sd = semidirect_product(z2, s4, trivial_twist(z2, s4))
    cover = biggs_cover(k4, s4, sd, constant_chain(k4, 1)).certificate.source
    report = verify_action(k4, s4)
    tag = three_arc_graph(report, three_arc_orbits(report)[0]).certificate.source

    def derive(*args, **kwargs):
        raise AssertionError("a consumer derived its quotient again")

    for module, name in (
        (quotients, "quotient"),
        (quotients, "quotient_action"),
        (quotients, "verify_action"),
        (constructions, "quotient"),
        (constructions, "verify_action"),
        (arc_graphs, "quotient"),
        (arc_graphs, "verify_action"),
        (extensions, "verify_action"),
    ):
        monkeypatch.setattr(module, name, derive)
    qc = certify_quotient(cover)
    assert qc.source is cover and qc.cover_class == "cover"
    p = cross_section_design(cover, 0).params
    assert (p.v, p.k, p.b) == (2, 2, 3)
    fx = extract_fibre_data(cover)
    assert fx.source is cover
    assert fx.normal_order == 4
    labelling = check_condition_pe(tag)
    assert labelling is not None
    assert check_three_arc_necessity(tag, labelling)
