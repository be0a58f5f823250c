"""Incidence structures, polarities, and the graph dictionary."""

import pytest

from conftest import product
from sgk.designs import (
    IncidenceStructure,
    check_polarity,
    design_from_graph,
    find_polarities,
    graph_from_design,
    is_flag_transitive,
    validate_design,
)
from sgk.errors import (
    DegenerateDesign,
    NotPolarity,
    NotSymmetric,
    NotUniformBlocks,
    NotUniformPoints,
)
from sgk.graphs import are_isomorphic, verify_action


def block_rows(inc, group):
    """Reference block action: one row per group element, in element
    order, sending each block to the block whose trace is its image."""
    trace_index = {inc.trace(b): b for b in range(inc.n_blocks)}
    return [
        tuple(trace_index[frozenset(g[p] for p in inc.trace(b))] for b in range(inc.n_blocks))
        for g in group.elements
    ]


def _fano():
    lines = [
        (0, 1, 2),
        (0, 3, 4),
        (0, 5, 6),
        (1, 3, 5),
        (1, 4, 6),
        (2, 3, 6),
        (2, 4, 5),
    ]
    flags = frozenset((p, b) for b, line in enumerate(lines) for p in line)
    return IncidenceStructure(
        tuple(str(i + 1) for i in range(7)),
        tuple(f"L{b + 1}" for b in range(7)),
        flags,
    )


def test_validate_fano():
    p = validate_design(_fano())
    assert (p.v, p.b, p.k, p.lam, p.multiplicity) == (7, 7, 3, 3, 1)
    assert p.v * p.lam == p.b * p.k


def test_trace_and_star():
    inc = _fano()
    assert inc.trace(0) == frozenset({0, 1, 2})
    assert inc.star(0) == frozenset({0, 1, 2})


def test_validate_rejects_nonuniform():
    flags = frozenset({(0, 0), (1, 0), (0, 1)})
    inc = IncidenceStructure(("1", "2"), ("A", "B"), flags)
    with pytest.raises((NotUniformBlocks, NotUniformPoints)):
        validate_design(inc)


def test_repeated_blocks_multiplicity():
    base = _fano()
    doubled = IncidenceStructure(
        base.point_labels,
        base.block_labels + tuple(f"L{b + 1}x" for b in range(7)),
        frozenset(
            set(base.flags) | {(p, b + 7) for (p, b) in base.flags}
        ),
    )
    assert validate_design(base).multiplicity == 1
    assert validate_design(doubled).multiplicity == 2


def test_design_from_graph_k4(k4, s4):
    inc, pol = design_from_graph(verify_action(k4, s4))
    p = validate_design(inc)
    assert (p.v, p.b, p.k, p.lam, p.multiplicity) == (4, 4, 3, 3, 1)
    check_polarity(inc, s4, pol)
    rebuilt = graph_from_design(inc, s4, pol).graph
    assert rebuilt.arcs == k4.arcs


def test_design_from_graph_c6(c6, d6):
    inc, pol = design_from_graph(verify_action(c6, d6))
    p = validate_design(inc)
    assert (p.v, p.b, p.k, p.lam) == (6, 6, 2, 2)
    rebuilt = graph_from_design(inc, d6, pol).graph
    assert are_isomorphic(rebuilt, c6) is not None


def test_design_from_graph_petersen(petersen, petersen_group):
    inc, pol = design_from_graph(verify_action(petersen, petersen_group))
    p = validate_design(inc)
    assert (p.v, p.b, p.k, p.lam) == (10, 10, 3, 3)
    assert is_flag_transitive(inc, petersen_group)
    rebuilt = graph_from_design(inc, petersen_group, pol).graph
    assert rebuilt.arcs == petersen.arcs


def test_design_from_graph_needs_symmetry(c6, z6):
    with pytest.raises(NotSymmetric):
        design_from_graph(verify_action(c6, z6))


def test_flag_transitivity(s4, k4):
    inc, _ = design_from_graph(verify_action(k4, s4))
    assert is_flag_transitive(inc, s4)


def test_block_rows_is_homomorphism(s4, k4):
    inc, _ = design_from_graph(verify_action(k4, s4))
    rows = block_rows(inc, s4)
    number = {x: i for i, x in enumerate(s4.elements)}
    for i, x in enumerate(s4.elements):
        for j, y in enumerate(s4.elements):
            k = number[product(x, y)]
            assert tuple(rows[j][rows[i][b]] for b in range(4)) == tuple(rows[k])


def test_polarity_commutation_details(k4, s4):
    inc, pol = design_from_graph(verify_action(k4, s4))
    rows = block_rows(inc, s4)
    for i, g in enumerate(s4.elements):
        for p in range(4):
            assert pol.point_map[g[p]] == rows[i][pol.point_map[p]]


def test_graph_from_design_refuses_absolute_points(s4, k4):
    inc, pol = design_from_graph(verify_action(k4, s4))
    # swapping two polar images puts a point on its own block
    from sgk.designs import Polarity

    pm = list(pol.point_map)
    bm = list(pol.block_map)
    tr0 = sorted(inc.trace(pm[0]))
    bad_point = tr0[0]
    pm[bad_point], pm[0] = pm[0], pm[bad_point]
    crooked = Polarity(tuple(pm), tuple(bm))
    with pytest.raises((DegenerateDesign, NotPolarity, Exception)):
        graph_from_design(inc, s4, crooked)


def test_find_polarities_k4(k4, s4):
    inc, _ = design_from_graph(verify_action(k4, s4))
    pols = find_polarities(inc, s4)
    assert len(pols) >= 1
    for pol in pols:
        check_polarity(inc, s4, pol)


def test_find_polarities_needs_flag_transitivity():
    from sgk.errors import NotFlagTransitive
    from sgk.groups import group_from_generators

    triv = group_from_generators([tuple(range(7))], degree=7)
    with pytest.raises(NotFlagTransitive):
        find_polarities(_fano(), triv)


def _dihedral(n):
    from sgk.groups import group_from_generators

    return group_from_generators(
        [tuple((i + 1) % n for i in range(n)), tuple((-i) % n for i in range(n))]
    )


def _reference_polarity(inc, group, pm, bm) -> bool:
    """Equivariant polarity by definition: mutually inverse bijections,
    duality on every point-block pair, commutation with every element."""
    n = inc.n_points
    if sorted(pm) != list(range(n)) or any(bm[pm[p]] != p for p in range(n)):
        return False
    if any(
        ((p, b) in inc.flags) != ((bm[b], pm[p]) in inc.flags)
        for p in range(n)
        for b in range(n)
    ):
        return False
    rows = block_rows(inc, group)
    return all(
        pm[g[p]] == rows[i][pm[p]] for i, g in enumerate(group.elements) for p in range(n)
    )


def _reference_polarities(inc, group) -> list:
    """For each seed block, the relation g(0) -> g(seed) over every element
    g, kept when it is a map and a polarity by definition."""
    n = inc.n_points
    rows = block_rows(inc, group)
    found = []
    for seed in range(n):
        images = {}
        for i, g in enumerate(group.elements):
            images.setdefault(g[0], set()).add(rows[i][seed])
        if sorted(images) != list(range(n)) or any(len(v) != 1 for v in images.values()):
            continue
        pm = [images[p].pop() for p in range(n)]
        bm = [pm.index(b) if b in pm else -1 for b in range(n)]
        if _reference_polarity(inc, group, pm, bm):
            found.append((tuple(pm), tuple(bm)))
    return found


def _polarity_cases(k4, s4, c6, d6):
    from sgk.graphs import cycle_graph

    yield k4, s4
    yield c6, d6
    # C4 is left out: its opposite vertices share a neighbourhood
    for n in [3] + list(range(5, 25)):
        yield cycle_graph(n), _dihedral(n)


def test_polarities_match_their_definition(k4, s4, c6, d6):
    """find_polarities against the seeds that commute with every element;
    check_polarity against the definition on every map given by a group
    element and on random bijections."""
    import random

    from sgk.designs import Polarity

    rnd = random.Random(11)
    for graph, group in _polarity_cases(k4, s4, c6, d6):
        inc, _ = design_from_graph(verify_action(graph, group))
        got = [(pol.point_map, pol.block_map) for pol in find_polarities(inc, group)]
        assert got == _reference_polarities(inc, group)
        maps = [list(g) for g in group.elements]
        for _ in range(5):
            maps.append(rnd.sample(range(graph.n), graph.n))
        for pm in maps:
            bm = [pm.index(b) for b in range(graph.n)]
            try:
                check_polarity(inc, group, Polarity(tuple(pm), tuple(bm)))
                accepted = True
            except NotPolarity:
                accepted = False
            assert accepted == _reference_polarity(inc, group, pm, bm)


def test_check_polarity_matches_its_definition_off_flag_transitivity():
    """The Fano plane as translates of {0, 1, 3} mod 7, under Z7 and under
    the trivial group, with the maps p -> c ± p: the minus signs respect
    incidence, and under the trivial group every map commutes."""
    from sgk.designs import Polarity
    from sgk.groups import group_from_generators

    lines = [tuple((i + d) % 7 for d in (0, 1, 3)) for i in range(7)]
    inc = IncidenceStructure(
        tuple(str(p) for p in range(7)),
        tuple(f"L{i}" for i in range(7)),
        frozenset((p, i) for i, line in enumerate(lines) for p in line),
    )
    z7 = group_from_generators([tuple((p + 1) % 7 for p in range(7))])
    trivial = group_from_generators([tuple(range(7))])
    verdicts = []
    for group in (z7, trivial):
        for c in range(7):
            for sign in (1, -1):
                pm = [(c + sign * p) % 7 for p in range(7)]
                bm = [pm.index(b) for b in range(7)]
                try:
                    check_polarity(inc, group, Polarity(tuple(pm), tuple(bm)))
                    accepted = True
                except NotPolarity:
                    accepted = False
                assert accepted == _reference_polarity(inc, group, pm, bm)
                verdicts.append(accepted)
    assert True in verdicts and False in verdicts
