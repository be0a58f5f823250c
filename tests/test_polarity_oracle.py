"""``find_polarities`` against an independent method, and known answers at
scale.

The oracle pairs each generator's point images with its block row, so
that one image tuple on 2n points carries both actions, and takes the
Schreier generators of the stabiliser of point 0 in that action.  The
blocks they all fix are the seeds; each seed extends along the
generators to at most one polarity.  ``find_polarities`` must try
exactly those seeds, in increasing order, and return the same
polarities.  Every case is relabelled and has its generators shuffled.
"""

import random

import pytest

from sgk import designs, groups, perm
from sgk.designs import (
    Polarity,
    check_polarity,
    design_from_graph,
    find_polarities,
    generator_block_rows,
)
from sgk.errors import NotPolarity
from sgk.fixtures import petersen_graph, petersen_group, q3_graph
from sgk.graphs import Graph, complete_graph, cycle_graph, verify_action
from sgk.groups import group_from_generators, stabilizer
from sgk.perm import orbit_map, point_step


def _dihedral_gens(n):
    return [tuple((i + 1) % n for i in range(n)), tuple((-i) % n for i in range(n))]


def _symmetric_gens(n):
    return [(1, 0) + tuple(range(2, n)), tuple((i + 1) % n for i in range(n))]


def _q3_gens():
    """The full group of the cube, order 48: a bit flip and two
    permutations of the three bits."""
    def bits(f):
        return tuple(f(x) for x in range(8))

    return [
        bits(lambda x: x ^ 1),
        bits(lambda x: ((x << 1) | (x >> 2)) & 7),
        bits(lambda x: (x & 4) | ((x & 1) << 1) | ((x & 2) >> 1)),
    ]


def _relabelled(graph, gens, rnd):
    """The graph and generators under a random relabelling of the
    vertices, with the generators in shuffled order."""
    n = graph.n
    sigma = rnd.sample(range(n), n)
    moved = Graph(graph.labels, [(sigma[u], sigma[v]) for u, v in graph.arcs])
    conj = []
    for g in gens:
        images = [0] * n
        for p in range(n):
            images[sigma[p]] = sigma[g[p]]
        conj.append(tuple(images))
    rnd.shuffle(conj)
    return moved, group_from_generators(conj, n)


def _cases():
    rnd = random.Random(21)
    for n in range(3, 8):
        yield f"K{n}", _relabelled(complete_graph(n), _symmetric_gens(n), rnd)
    yield "Petersen", _relabelled(petersen_graph(), list(petersen_group().generators), rnd)
    yield "Q3", _relabelled(q3_graph(), _q3_gens(), rnd)
    # C4 is left out: its opposite vertices share a neighbourhood
    for n in (3, 5, 6, 7, 8, 9, 10, 12, 15, 16):
        yield f"C{n}", _relabelled(cycle_graph(n), _dihedral_gens(n), rnd)


def _paired_seeds(inc, group) -> list:
    """The blocks that every Schreier generator of the stabiliser of 0
    fixes, in the action on points and blocks side by side."""
    n = inc.n_points
    paired = [
        g + tuple(n + b for b in row)
        for g, row in zip(group.generators, generator_block_rows(inc, group))
    ]
    stab = stabilizer(0, 2 * n, paired, point_step(paired))[1].generators
    return [c for c in range(n) if all(s[n + c] == n + c for s in stab)]


def _paired_polarities(inc, group, seeds) -> list:
    """Each seed's orbit of (0, seed) read as a point map, kept when it
    is a bijection that ``check_polarity`` accepts."""
    n = inc.n_points
    step = designs._flag_step(inc, group)
    out = []
    for seed in seeds:
        table = orbit_map(((0, seed),), step)
        if table is None or len(table) != n or len(set(table.values())) != n:
            continue
        pm = tuple(table[p] for p in range(n))
        bm = tuple(sorted(range(n), key=pm.__getitem__))
        try:
            check_polarity(inc, group, Polarity(pm, bm))
        except NotPolarity:
            continue
        out.append((pm, bm))
    return out


CASES = list(_cases())


@pytest.mark.parametrize("graph,group", [c for _, c in CASES], ids=[name for name, _ in CASES])
def test_polarities_match_the_paired_schreier_generators(graph, group, monkeypatch):
    inc, _ = design_from_graph(verify_action(graph, group))
    seeds = _paired_seeds(inc, group)
    tried = []

    def recording_orbit_map(pairs, step):
        pairs = tuple(pairs)
        tried.append(pairs[0][1])
        return orbit_map(pairs, step)

    monkeypatch.setattr(designs, "orbit_map", recording_orbit_map)
    got = [(pol.point_map, pol.block_map) for pol in find_polarities(inc, group)]
    assert tried == seeds
    assert got == _paired_polarities(inc, group, seeds)
    # v -> N(v) is always one
    assert (tuple(range(graph.n)), tuple(range(graph.n))) in got


def test_polarities_compose_only_rows_of_length_n(monkeypatch):
    """No Schreier generator is built, and every product the walk takes
    is of block rows, never of rows on points and blocks together."""
    group = group_from_generators(_dihedral_gens(30))
    inc, _ = design_from_graph(verify_action(cycle_graph(30), group))
    lengths = []
    compose = perm._compose

    def recording_compose(a, b):
        lengths.append(max(len(a), len(b)))
        return compose(a, b)

    def refuse(*args):
        raise AssertionError("find_polarities built Schreier generators")

    monkeypatch.setattr(perm, "_compose", recording_compose)
    monkeypatch.setattr(groups, "_compose", recording_compose)
    monkeypatch.setattr(groups, "stabilizer", refuse)
    monkeypatch.setattr(designs, "stabilizer", refuse, raising=False)
    assert len(find_polarities(inc, group)) == 2
    assert lengths and max(lengths) <= inc.n_points


@pytest.mark.parametrize("n,shifts", [(1500, [0, 750]), (1499, [0])])
def test_long_cycles_have_their_known_polarities(n, shifts):
    """C_n under D_n: v -> N(v) always, and for even n that map composed
    with the antipodal map v -> v + n/2 too; block v is N(v)."""
    graph = cycle_graph(n)
    group = group_from_generators(_dihedral_gens(n))
    inc, _ = design_from_graph(verify_action(graph, group))
    pols = find_polarities(inc, group)
    want = [tuple((v + s) % n for v in range(n)) for s in shifts]
    assert [pol.point_map for pol in pols] == want
    assert [pol.block_map for pol in pols] == [tuple((v - s) % n for v in range(n)) for s in shifts]
