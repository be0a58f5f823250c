"""Subgroups, cosets, double cosets, blocks, and the lattice dictionary."""

import random

import pytest

from conftest import inverse, product, setwise_stabilizer
from sgk.errors import NotASubgroup, NotTransitive
from sgk import subgroups
from sgk.groups import GroupTable, group_from_generators
from sgk.perm import closure, parse_cycles
from sgk.subgroups import (
    BlockSystem,
    all_block_systems,
    core,
    double_cosets,
    lattice_is_order_isomorphic,
    right_cosets,
    stabilizer_subgroup,
    subgroup_block_lattice,
    subgroup_from_generators,
    system_from_block,
)


def test_stabilizer_subgroup_orders(s4, d6):
    assert stabilizer_subgroup(s4, 0).order == 6
    assert stabilizer_subgroup(d6, 0).order == 2


def test_subgroup_from_generators_rejects_outsiders(d4):
    with pytest.raises(NotASubgroup):
        subgroup_from_generators(d4, (parse_cycles("(1 2)", 4),))


def test_right_cosets_partition(s4):
    sub = stabilizer_subgroup(s4, 0)
    cosets = right_cosets(s4, sub)
    assert cosets.n_cosets == 4
    seen = set()
    number = {x: i for i, x in enumerate(s4.elements)}
    for rep in cosets.reps:
        block = {number[product(h, rep)] for h in sub.elements}
        assert not (seen & block)
        seen |= block
    assert seen == set(range(24))


def test_coset_reps_are_lex_least(s4):
    sub = stabilizer_subgroup(s4, 0)
    cosets = right_cosets(s4, sub)
    for rep in cosets.reps:
        members = sorted(product(h, rep) for h in sub.elements)
        assert members[0] == rep


def test_coset_action_is_transitive_with_point_stabilizer(s4):
    sub = stabilizer_subgroup(s4, 1)
    act = right_cosets(s4, sub).action()
    assert act.orbit_of(0) == frozenset(range(4))


def test_double_coset_sizing_random(s4, d6, oct_aut):
    # |HxH| * |x^-1 H x n H| = |H|^2 for every class
    rnd = random.Random(3)
    for group in (s4, d6, oct_aut):
        for _ in range(3):
            point = rnd.randrange(group.degree)
            sub = stabilizer_subgroup(group, point)
            dec = double_cosets(group, sub)
            h_set = set(sub.elements)
            total = 0
            for cls in dec.classes:
                x = cls.rep
                meet = sum(1 for h in sub.elements if product(product(inverse(x), h), x) in h_set)
                assert cls.size * meet == sub.order ** 2
                total += cls.size
            assert total == len(group)


def test_double_coset_reps_sorted_and_involution_flag(s4):
    sub = stabilizer_subgroup(s4, 0)
    dec = double_cosets(s4, sub)
    reps = [cls.rep for cls in dec.classes]
    assert reps == sorted(reps)
    assert reps[0] == tuple(range(4))
    sizes = sorted(cls.size for cls in dec.classes)
    assert sizes == [6, 18]
    big = max(dec.classes, key=lambda c: c.size)
    assert big.contains_involution


def test_core_equals_coset_action_kernel(s4, d6, oct_aut):
    for group in (s4, d6, oct_aut):
        sub = stabilizer_subgroup(group, 0)
        act = right_cosets(group, sub).action()
        assert core(group, sub).order == act.kernel_size()


def test_core_is_normal(d6):
    sub = subgroup_from_generators(
        d6, (parse_cycles("(1 4)(2 5)(3 6)", 6), parse_cycles("(2 6)(3 5)", 6))
    )
    c = core(d6, sub)
    members = set(c.elements)
    for g in d6.elements:
        assert {product(product(inverse(g), x), g) for x in members} == members


def test_block_system_validation():
    with pytest.raises(ValueError):
        BlockSystem(4, (((0, 1)), (1, 2)))  # overlap
    with pytest.raises(ValueError):
        BlockSystem(4, ((0, 1),))  # not covering
    sysm = BlockSystem.from_blocks(4, [[1, 0], [3, 2]])
    assert sysm.blocks == ((0, 1), (2, 3))
    assert sysm.block_of == (0, 0, 1, 1)


def test_system_from_block_closure(d4):
    sysm = system_from_block(d4, (0, 2))
    assert sysm.blocks == ((0, 2), (1, 3))
    with pytest.raises(ValueError):
        system_from_block(d4, (0, 1))


def test_all_block_systems_d4(d4):
    systems = all_block_systems(d4)
    plain = {s.blocks for s in systems}
    # singletons, the diagonals, and the whole square; edges do not close
    assert ((0, 2), (1, 3)) in plain
    assert ((0, 1), (2, 3)) not in plain
    proper = [s for s in systems if 1 < s.n_blocks < s.n_points]
    assert len(proper) == 1


def test_all_block_systems_requires_transitive():
    fixer = group_from_generators([parse_cycles("(1 2)", 4)], degree=4)
    with pytest.raises(NotTransitive):
        all_block_systems(fixer)


def test_block_invariance_everywhere(d6):
    for sysm in all_block_systems(d6):
        blocks = set(sysm.blocks)
        for g in d6.generators:
            for blk in sysm.blocks:
                assert tuple(sorted(g[p] for p in blk)) in blocks


def test_setwise_stabilizer(d6):
    stab = setwise_stabilizer(d6, (0, 3))
    for g in stab.elements:
        assert {g[0], g[3]} == {0, 3}
    assert stab.order == 4


def _dihedral(n):
    rotation = tuple((i + 1) % n for i in range(n))
    reflection = tuple((-i) % n for i in range(n))
    return group_from_generators([rotation, reflection])


def test_dihedral_block_systems_count_divisors():
    # D_n on the n-gon: one system per divisor d of n, blocks {i, i+d, ...}
    for n in range(3, 41):
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        assert len(all_block_systems(_dihedral(n))) == len(divisors), n


def _relabelled(group, seed):
    """The group with its points renamed at random and its generators
    listed in a random order."""
    rnd = random.Random(seed)
    n = group.degree
    label = list(range(n))
    rnd.shuffle(label)
    back = [0] * n
    for i, r in enumerate(label):
        back[r] = i
    gens = [tuple(label[g[back[x]]] for x in range(n)) for g in group.generators]
    rnd.shuffle(gens)
    return group_from_generators(gens, degree=n)


@pytest.mark.parametrize("n", [360, 720])
def test_block_search_work_follows_the_blocks(monkeypatch, n):
    """On a relabelled D_n the block walks yield at most 5·n·d(n) points
    in all: one walk per block found, not per suborbit, each stopped once
    it passes n/2 points, and no walk for a join decided by size alone.
    Walking every suborbit in full yields 9.4·n·d(n) on D_360 and
    12.0·n·d(n) on D_720."""
    yielded = []

    def counting(seed, step):
        for x in closure(seed, step):
            yielded.append(x)
            yield x

    monkeypatch.setattr(subgroups, "closure", counting)
    n_divisors = sum(1 for d in range(1, n + 1) if n % d == 0)
    found = subgroups._blocks_through(_relabelled(_dihedral(n), n), 0)[-1]
    assert len(found) == n_divisors
    assert len(yielded) <= 5 * n * n_divisors


def test_lattice_d4_is_chain(d4):
    pairs = subgroup_block_lattice(d4, 0)
    assert len(pairs) == 3
    assert lattice_is_order_isomorphic(pairs)
    orders = sorted(p.subgroup.order for p in pairs)
    assert orders == [2, 4, 8]
    by_order = sorted(pairs, key=lambda p: p.subgroup.order)
    for small, large in zip(by_order, by_order[1:]):
        assert set(small.subgroup.elements) <= set(large.subgroup.elements)
        assert set(small.block) <= set(large.block)


def test_lattice_s4_natural(s4):
    pairs = subgroup_block_lattice(s4, 0)
    assert len(pairs) == 2
    assert lattice_is_order_isomorphic(pairs)
    assert sorted(p.subgroup.order for p in pairs) == [6, 24]
    assert sorted(len(p.block) for p in pairs) == [1, 4]


def test_lattice_generators_give_the_stated_orders(s4, oct_aut):
    """Each G_B's generators carry the base point into B and generate a
    group of order |G|/n·|B|, the order the pair states: on D_n for
    n <= 40 at the first and last point, S4 at its third point and the
    octahedron's group."""
    cases = [(_dihedral(n), base) for n in range(3, 41) for base in (0, n - 1)]
    for group, base in cases + [(s4, 2), (oct_aut, 0)]:
        pairs = subgroup_block_lattice(group, base)
        assert lattice_is_order_isomorphic(pairs)
        for pair in pairs:
            gens = pair.subgroup.generators
            assert all(g[base] in pair.block for g in gens), (group, base, pair.block)
            expect = group.order // group.degree * len(pair.block)
            assert GroupTable(group.degree, gens).order == pair.order == expect


def test_fiber_evaluation(d6):
    # alpha^{G_Delta} = Delta for every block of every system
    for sysm in all_block_systems(d6):
        for blk in sysm.blocks:
            stab = setwise_stabilizer(d6, blk)
            swept = {g[blk[0]] for g in stab.elements}
            assert swept == set(blk)

