"""Stabiliser chains against sympy and against the elements listed by
breadth-first closure (``closure_listing``), which uses no chain.

Groups of degree at most 12: the fixtures, random generator sets, and
relabelled dihedral groups, direct products of symmetric groups on
disjoint blocks (intransitive) and wreath products S_k wr S_m
(transitive, imprimitive).  Groups of order above LIST_LIMIT are checked
against sympy only; the rest are listed too, and the chain's listing
(``GroupTable.elements``) must be the closure listing in the same order.
Schreier generators are checked on cosets and on blocks as well as on
points.
"""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest
from sympy.combinatorics import Permutation, PermutationGroup

from conftest import closure_listing, product
from sgk import fixtures as fx
from sgk.groups import GroupTable, StabChain, stabilizer
from sgk.perm import _witnesses, closure, point_step
from sgk.subgroups import CosetSpace, all_block_systems

LIST_LIMIT = 2000
MAX_DEGREE = 12
FIXTURES = [fx.s4(), fx.s5(), fx.d4(), fx.d6(), fx.z2(), fx.z6(), fx.octahedron_aut()]


def _symmetric_on(points):
    """Generators of the symmetric group on ``points``, as cycles."""
    if len(points) < 2:
        return []
    return [[points[0], points[1]], list(points)]


def _images(n, cycles):
    images = list(range(n))
    for cyc in cycles:
        for i, p in enumerate(cyc):
            images[p] = cyc[(i + 1) % len(cyc)]
    return tuple(images)


@st.composite
def generator_sets(draw):
    """(degree, generator image tuples)."""
    kind = draw(st.sampled_from(["random", "dihedral", "product", "wreath"]))
    if kind == "random":
        n = draw(st.integers(1, MAX_DEGREE))
        perms = st.permutations(range(n)).map(tuple)
        return n, draw(st.lists(perms, min_size=1, max_size=3))
    if kind == "dihedral":
        n = draw(st.integers(3, MAX_DEGREE))
        gens = [[tuple(range(n))], [(i, n - i) for i in range(1, (n + 1) // 2)]]
    elif kind == "product":
        sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
        n, gens = 0, []
        for size in sizes:
            if n + size > MAX_DEGREE:
                break
            gens += [[c] for c in _symmetric_on(list(range(n, n + size)))]
            n += size
        n = max(n, 1)
    else:
        k, m = draw(st.sampled_from([(2, 2), (2, 3), (2, 4), (3, 2), (4, 2), (3, 3),
                                     (2, 6), (6, 2), (3, 4), (4, 3)]))
        n = k * m
        blocks = [list(range(b * k, (b + 1) * k)) for b in range(m)]
        gens = [[c] for c in _symmetric_on(blocks[0])]
        gens.append([list(col) for col in zip(*blocks)])
        gens.append([list(col) for col in zip(blocks[0], blocks[1])])
    relabel = draw(st.permutations(range(n)))
    gens = [[[relabel[p] for p in cyc] for cyc in g if len(cyc) > 1] for g in gens]
    return n, [_images(n, g) for g in gens] or [tuple(range(n))]


def _listed(n, gens):
    """The elements' image tuples, by closure, sorted."""
    return closure_listing(n, gens)


def _sympy(gens):
    return PermutationGroup([Permutation(list(g)) for g in gens])


def _check_against_sympy(n, gens):
    """The chain and, when the order is at most LIST_LIMIT, the listing."""
    chain = StabChain(n, gens)
    oracle = _sympy(gens)
    assert chain.order == oracle.order()
    for p in range(n):
        assert chain.stabilizer(p).order == oracle.stabilizer(p).order()
    if chain.order > LIST_LIMIT:
        return chain, None
    listed = _listed(n, gens)
    assert chain.order == len(listed)
    assert all(chain.contains(g) for g in listed)
    table = GroupTable(n, gens)
    assert list(table.elements) == listed
    return chain, listed


@pytest.mark.parametrize("index", range(len(FIXTURES)))
def test_fixture_chains_match_sympy(index):
    group = FIXTURES[index]
    _check_against_sympy(group.degree, group.generators)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(generator_sets(), st.data())
def test_chain_matches_sympy_and_the_listing(group, data):
    n, gens = group
    chain, listed = _check_against_sympy(n, gens)
    oracle = _sympy(gens)
    for images in data.draw(st.lists(st.permutations(range(n)).map(tuple), max_size=5)):
        member = oracle.contains(Permutation(list(images)))
        if listed is not None:
            assert member == any(g == images for g in listed)
        assert chain.contains(images) == member


@settings(max_examples=40, deadline=None, derandomize=True)
@given(generator_sets(), st.data())
def test_least_coset_element_matches_the_listed_coset(group, data):
    n, gens = group
    if _sympy(gens).order() > LIST_LIMIT:
        return
    elements = _listed(n, gens)
    pick = st.sampled_from(elements)
    sub_gens = data.draw(st.lists(pick, min_size=1, max_size=2))
    sub = _listed(n, sub_gens)
    sub_chain = StabChain(n, sub_gens)
    assert sub_chain.order == len(sub)
    for g in data.draw(st.lists(pick, min_size=1, max_size=4)):
        assert sub_chain.least_in_coset(g) == min(product(h, g) for h in sub)


def _check_schreier(order, gens, rows, item, fixes):
    """The Schreier generators of ``item``, under the action that the rows
    of ``gens`` give, each fix it (``fixes(item, image tuple)``) and
    generate a group of order |G| over the item's orbit length; the walk
    that comes with them is the witness walk from ``item``."""
    n = len(gens[0])
    step = point_step(rows)
    walk, stab = stabilizer(item, n, gens, step)
    assert walk == _witnesses(item, tuple(range(n)), gens, step)
    found = stab.generators
    assert all(fixes(item, s) for s in found)
    orbit = list(closure((item,), point_step(rows)))
    assert StabChain(n, found).order * len(orbit) == order


@settings(max_examples=40, deadline=None, derandomize=True)
@given(generator_sets(), st.data())
def test_schreier_generators_on_cosets_and_blocks(group, data):
    """On the right cosets of a subgroup made of words in the generators,
    for groups of order up to LIST_LIMIT, and on the blocks of every
    block system of a transitive group."""
    n, gens = group
    table = GroupTable(n, gens)
    if table.order <= LIST_LIMIT:
        letters = st.lists(st.sampled_from(table.generators), min_size=1, max_size=6)
        words = data.draw(st.lists(letters, min_size=1, max_size=2))
        sub = GroupTable(n, [functools.reduce(product, w) for w in words])
        space = CosetSpace(table, sub)
        coset = data.draw(st.integers(0, space.n_cosets - 1))
        _check_schreier(table.order, gens, space.generator_rows(), coset,
                        lambda c, s: space.rows([s])[0][c] == c)
    if len(list(closure((0,), point_step(gens)))) == n:
        for system in all_block_systems(table):
            rows = [system.row(g) for g in gens]
            for b in range(system.n_blocks):
                _check_schreier(table.order, gens, rows, b,
                                lambda b, s: system.image(b, s) == b)
