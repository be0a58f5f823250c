"""Groups checked against sympy on generators drawn by hypothesis: group
order and point orbits on transitive and intransitive groups, primitivity
and the minimal block systems on transitive ones.  Every block through a
point, and the order of the subgroup each traces out, are checked against
a brute-force search over the subsets of the domain.  On named families
up to 60 points, relabelled, the blocks through 0 are checked against
sympy's least blocks closed under joins."""

import itertools
import random

import pytest

sympy_comb = pytest.importorskip("sympy.combinatorics")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sgk.groups import group_from_generators, is_transitive, orbit  # noqa: E402
from sgk.subgroups import all_block_systems, subgroup_block_lattice  # noqa: E402


@st.composite
def transitive_groups(draw):
    """Generators on at most 10 points, as random elements of a wreath
    product S_a wr S_b (imprimitive) or of S_n for n <= 7 (often
    primitive), relabelled at random; only transitive groups are kept."""
    n = draw(st.integers(2, 10))
    splits = [a for a in range(2, n) if n % a == 0]
    gens = []
    if splits and (n > 7 or draw(st.booleans())):
        a = draw(st.sampled_from(splits))
        b = n // a
        for _ in range(draw(st.integers(1, 3))):
            outer = draw(st.permutations(range(b)))
            img = []
            for blk in range(b):
                inner = draw(st.permutations(range(a)))
                img.extend(outer[blk] * a + inner[j] for j in range(a))
            gens.append(img)
    else:
        gens = [draw(st.permutations(range(n))) for _ in range(draw(st.integers(1, 2)))]
    relabel = draw(st.permutations(range(n)))
    back = [0] * n
    for i, r in enumerate(relabel):
        back[r] = i
    return [[relabel[g[back[x]]] for x in range(n)] for g in gens]


def _partition(labels):
    classes = {}
    for point, label in enumerate(labels):
        classes.setdefault(label, []).append(point)
    return frozenset(tuple(c) for c in classes.values())


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(transitive_groups())
def test_block_systems_match_sympy(images):
    n = len(images[0])
    group = group_from_generators([tuple(g) for g in images], degree=n)
    assume(is_transitive(group))
    oracle = sympy_comb.PermutationGroup([sympy_comb.Permutation(g) for g in images])
    systems = all_block_systems(group)
    nontrivial = [s for s in systems if 1 < s.n_blocks < s.n_points]
    assert (not nontrivial) == oracle.is_primitive(randomized=False)
    if not nontrivial:
        return
    block0 = {s.blocks: set(s.blocks[0]) for s in nontrivial}
    minimal = {
        frozenset(s.blocks)
        for s in nontrivial
        if not any(block0[t.blocks] < block0[s.blocks] for t in nontrivial)
    }
    expected = {_partition(labels) for labels in oracle.minimal_blocks(randomized=False)}
    assert minimal == expected


def _tiles(images, subset, n):
    """The images of ``subset`` under the group the generators ``images``
    generate, found breadth first, are disjoint and cover the domain."""
    seen, frontier = {subset}, [subset]
    while frontier:
        found = {frozenset(g[p] for p in s) for s in frontier for g in images}
        frontier = list(found - seen)
        seen |= found
    return sum(map(len, seen)) == n and len(frozenset().union(*seen)) == n


def _brute_force_blocks(images, base):
    """Every subset containing ``base`` whose images tile the domain."""
    n = len(images[0])
    others = [p for p in range(n) if p != base]
    subsets = (
        frozenset((base,) + rest)
        for k in range(n)
        for rest in itertools.combinations(others, k)
    )
    return {s for s in subsets if _tiles(images, s, n)}


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(transitive_groups(), st.data())
def test_block_lattice_matches_brute_force(images, data):
    """The blocks through a random base point of every block system, and
    the lattice's blocks there with their subgroups' orders |G|/n·|B|."""
    n = len(images[0])
    group = group_from_generators([tuple(g) for g in images], degree=n)
    assume(is_transitive(group))
    base = data.draw(st.integers(0, n - 1))
    expected = _brute_force_blocks(images, base)
    through = {
        frozenset(blk)
        for system in all_block_systems(group)
        for blk in system.blocks
        if base in blk
    }
    assert through == expected
    pairs = subgroup_block_lattice(group, base)
    assert {frozenset(p.block) for p in pairs} == expected
    order = sympy_comb.PermutationGroup([sympy_comb.Permutation(g) for g in images]).order()
    assert all(p.order == order // n * len(p.block) for p in pairs)


@st.composite
def intransitive_groups(draw):
    """Generators on at most 9 points that preserve a random split into
    parts of at most 5 points, each generator permuting every part on its
    own; relabelled at random."""
    n = draw(st.integers(1, 9))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1))) if n > 1 else []
    bounds = [0] + cuts + [n]
    parts = [list(range(a, b)) for a, b in zip(bounds, bounds[1:])]
    assume(all(len(part) <= 5 for part in parts))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        img = list(range(n))
        for part in parts:
            for x, y in zip(part, draw(st.permutations(part))):
                img[x] = y
        gens.append(img)
    relabel = draw(st.permutations(range(n)))
    back = [0] * n
    for i, r in enumerate(relabel):
        back[r] = i
    return [[relabel[g[back[x]]] for x in range(n)] for g in gens]


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(st.one_of(transitive_groups(), intransitive_groups()))
def test_order_and_orbits_match_sympy(images):
    n = len(images[0])
    group = group_from_generators([tuple(g) for g in images], degree=n)
    oracle = sympy_comb.PermutationGroup(
        [sympy_comb.Permutation(g, size=n) for g in images]
    )
    assert len(group) == oracle.order()
    expected = {frozenset(orb) for orb in oracle.orbits()}
    assert {orbit(group, p) for p in range(n)} == expected


def _cyclic(n):
    return [[(i + 1) % n for i in range(n)]]


def _dihedral(n):
    return _cyclic(n) + [[(-i) % n for i in range(n)]]


def _affine(p):
    """AGL(1, p): x -> x + 1 and x -> g·x for a primitive root g."""
    root = next(g for g in range(2, p) if len({pow(g, k, p) for k in range(p)}) == p - 1)
    return [[(x + 1) % p for x in range(p)], [root * x % p for x in range(p)]]


def _regular_abelian(a, b):
    """C_a × C_b acting on itself, the point a'·b + b' standing for (a', b')."""
    n = a * b
    return [
        [(x // b + 1) % a * b + x % b for x in range(n)],
        [x // b * b + (x % b + 1) % b for x in range(n)],
    ]


def _wreath(a, b):
    """S_a wr S_b on b blocks of a points: S_a on the first block, and S_b
    on the blocks by a swap and a cycle."""
    n = a * b

    def on_blocks(img):
        return [img[x // a] * a + x % a for x in range(n)]

    inner_swap = [1, 0] + list(range(2, n))
    inner_cycle = [(x + 1) % a if x < a else x for x in range(n)]
    return [inner_swap, inner_cycle,
            on_blocks([1, 0] + list(range(2, b))),
            on_blocks([(k + 1) % b for k in range(b)])]


_PRIMES = [p for p in range(3, 60) if all(p % q for q in range(2, p))]
FAMILIES = {
    "cyclic": [_cyclic(n) for n in range(2, 61)],
    "dihedral": [_dihedral(n) for n in range(3, 61)],
    "affine": [_affine(p) for p in _PRIMES],
    "regular-abelian": [
        _regular_abelian(a, b)
        for a, b in [(2, 2), (2, 4), (3, 3), (2, 6), (4, 4), (2, 8), (3, 6),
                     (5, 5), (4, 6), (2, 12), (3, 9), (6, 6), (4, 8), (5, 10)]
    ],
    "wreath": [
        _wreath(a, b)
        for a, b in [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (2, 6), (6, 2),
                     (3, 4), (4, 3), (4, 4), (2, 9), (5, 4), (6, 6), (3, 12), (12, 5)]
    ],
}


def _relabel(images, rnd):
    """The generators with the points renamed and the generators shuffled."""
    n = len(images[0])
    label = list(range(n))
    rnd.shuffle(label)
    back = [0] * n
    for i, r in enumerate(label):
        back[r] = i
    out = [[label[g[back[x]]] for x in range(n)] for g in images]
    rnd.shuffle(out)
    return out


def _sympy_blocks_through_zero(images):
    """The least block through 0 and b, for every b, by sympy's
    ``minimal_block``, and the least block holding any two of those found,
    until no new block turns up."""
    oracle = sympy_comb.PermutationGroup([sympy_comb.Permutation(g) for g in images])

    def least(points):
        labels = oracle.minimal_block(sorted(points))
        return frozenset(p for p, label in enumerate(labels) if label == labels[0])

    n = len(images[0])
    found = {frozenset((0,))} | {least((0, b)) for b in range(1, n)}
    frontier = list(found)
    while frontier:
        joins = {least(x | y) for x in frontier for y in found}
        frontier = list(joins - found)
        found |= joins
    return found


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_blocks_through_zero_match_sympy_on_families(family):
    """Every block through 0 of every system, and every lattice block at
    base 0, against sympy, on relabelled groups with shuffled generators;
    C_n and D_n have exactly d(n) systems, one per divisor."""
    rnd = random.Random(family)
    for images in FAMILIES[family]:
        n = len(images[0])
        images = _relabel(images, rnd)
        group = group_from_generators([tuple(g) for g in images], degree=n)
        assert is_transitive(group), (family, n)
        systems = all_block_systems(group)
        expected = _sympy_blocks_through_zero(images)
        through = {frozenset(blk) for system in systems for blk in system.blocks if 0 in blk}
        assert through == expected, (family, n)
        assert {frozenset(p.block) for p in subgroup_block_lattice(group, 0)} == expected
        if family in ("cyclic", "dihedral"):
            assert len(systems) == sum(1 for d in range(1, n + 1) if n % d == 0), (family, n)
