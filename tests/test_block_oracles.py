"""Groups checked against sympy on generators drawn by hypothesis: group
order and point orbits on transitive and intransitive groups, primitivity
and the minimal block systems on transitive ones.  Every block through a
point, and the order of the subgroup each traces out, are checked against
a brute-force search over the subsets of the domain."""

import itertools

import pytest

sympy_comb = pytest.importorskip("sympy.combinatorics")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sgk.perm import group_from_generators, is_transitive, orbit  # noqa: E402
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
