"""Coset graphs, orbitals, and the double coset dictionary."""

import pytest

from conftest import inverse, product, setwise_stabilizer
from sgk.coset_graphs import (
    orbital_double_coset_map,
    orbitals,
    symmetric_coset_graph,
)
from sgk.errors import (
    InsideSubgroup,
    NotInvolution,
    NotTransitive,
)
from sgk.graphs import Graph, are_isomorphic, complete_graph
from sgk.groups import GroupTable, group_from_generators
from sgk.perm import is_involution, parse_cycles
from sgk.subgroups import (
    double_cosets,
    right_cosets,
    stabilizer_subgroup,
    subgroup_from_generators,
)


def _stab_plus(group, point):
    return stabilizer_subgroup(group, point)


def test_golden_s4_gives_k4(s4):
    sub = subgroup_from_generators(
        s4, (parse_cycles("(2 3)", 4), parse_cycles("(3 4)", 4))
    )
    res = symmetric_coset_graph(s4, sub, parse_cycles("(1 2)", 4))
    assert res.graph.n == 4
    assert res.valency == 3
    assert res.valency == sub.order // res.arc_stabilizer_order == 6 // 2
    assert are_isomorphic(res.graph, complete_graph(4)) is not None
    assert res.report.symmetric
    assert res.connected


def test_golden_s5_gives_k5(s5):
    sub = subgroup_from_generators(
        s5,
        (
            parse_cycles("(2 3)", 5),
            parse_cycles("(3 4)", 5),
            parse_cycles("(4 5)", 5),
        ),
    )
    res = symmetric_coset_graph(s5, sub, parse_cycles("(1 2)", 5))
    assert res.graph.n == 5
    assert res.valency == 4 == 24 // 6
    assert are_isomorphic(res.graph, complete_graph(5)) is not None


def test_valency_law_everywhere(d6, oct_aut):
    for group, a_text in ((d6, "(1 2)(3 6)(4 5)"), (oct_aut, "(1 2)(4 5)")):
        sub = _stab_plus(group, 0)
        a = parse_cycles(a_text, group.degree)
        res = symmetric_coset_graph(group, sub, a)
        meet = sum(
            1
            for h in sub.elements
            if product(product(inverse(a), h), a) in set(sub.elements)
        )
        assert res.arc_stabilizer_order == meet
        for v in range(res.graph.n):
            assert len(res.graph.adj[v]) == sub.order // meet


def test_involution_guards(s4):
    sub = subgroup_from_generators(
        s4, (parse_cycles("(2 3)", 4), parse_cycles("(3 4)", 4))
    )
    with pytest.raises(NotInvolution):
        symmetric_coset_graph(s4, sub, parse_cycles("(1 2 3)", 4))
    with pytest.raises(InsideSubgroup):
        symmetric_coset_graph(s4, sub, parse_cycles("(2 3)", 4))


def test_orbitals_s4_natural(s4):
    orbs = orbitals(s4)
    assert len(orbs) == 2
    diag = [o for o in orbs if o.diagonal]
    off = [o for o in orbs if not o.diagonal]
    assert len(diag) == 1 and diag[0].size == 4
    assert len(off) == 1 and off[0].size == 12
    assert off[0].self_paired


def test_orbitals_petersen_rank_three(petersen_group):
    orbs = orbitals(petersen_group)
    assert len(orbs) == 3
    assert sorted(o.size for o in orbs) == [10, 30, 60]


def test_orbitals_requires_transitive():
    fixer = group_from_generators([parse_cycles("(1 2)", 4)], degree=4)
    with pytest.raises(NotTransitive):
        orbitals(fixer)


def test_orbital_graph_petersen(petersen_group, petersen):
    orbs = orbitals(petersen_group)
    off = [o for o in orbs if not o.diagonal]
    labels = [str(i + 1) for i in range(10)]
    graphs = [Graph(labels, o.pairs) for o in off]
    matches = [g for g in graphs if are_isomorphic(g, petersen) is not None]
    assert len(matches) == 1


def test_orbital_double_coset_dictionary(s4):
    sub = _stab_plus(s4, 0)
    pairs = orbital_double_coset_map(s4, sub)
    assert len(pairs) == 2
    sizes = sorted(dc.size for dc, _ in pairs)
    assert sizes == [6, 18]
    for dc, ob in pairs:
        if dc.rep == tuple(range(s4.degree)):
            assert ob.diagonal
        else:
            assert not ob.diagonal
            assert dc.contains_involution
        # |orbital| = degree * |HxH| / |H|
        assert ob.size * sub.order == s4.degree * dc.size


def test_double_coset_count_equals_rank(s4, d6, oct_aut):
    for group in (s4, d6, oct_aut):
        sub = _stab_plus(group, 0)
        assert len(double_cosets(group, sub).classes) == len(orbitals(group))


FIXTURE_GROUPS = ["s4", "s5", "d4", "d6", "z2", "z6", "oct_aut"]


@pytest.mark.parametrize("name", FIXTURE_GROUPS)
def test_coset_graph_matches_its_definition(name, request):
    """Arcs against {(Hx, Hy) : x·y⁻¹ ∈ HaH}, with HaH formed in full
    from the products h₁·a·h₂, for every involution a outside H, where H
    is a point stabiliser, the trivial subgroup or the stabiliser of
    {1, 2}."""
    group = request.getfixturevalue(name)
    for sub in (
        stabilizer_subgroup(group, 0),
        GroupTable(group.degree, ()),
        setwise_stabilizer(group, (0, 1)),
    ):
        reps = right_cosets(group, sub).reps
        # H·HaH·H = HaH, so coset representatives decide x·y⁻¹ ∈ HaH
        quotients = [
            (i, j, product(x, inverse(y)))
            for i, x in enumerate(reps)
            for j, y in enumerate(reps)
        ]
        for a in group.elements:
            if not is_involution(a) or a in sub:
                continue
            res = symmetric_coset_graph(group, sub, a)
            hah = {
                product(product(h1, a), h2) for h1 in sub.elements for h2 in sub.elements
            }
            assert res.graph.arcs == {(i, j) for i, j, q in quotients if q in hah}
