"""Subgroups, cosets, double cosets, and blocks of imprimitivity."""

from __future__ import annotations

from functools import cached_property
from itertools import islice
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import (
    DomainTooLarge,
    NotASubgroup,
    NotTransitive,
    PointOutOfRange,
)
from .groups import Action, GroupTable, StabChain, is_transitive, stabilizer
from .perm import Perm, Record, _compose, capped, closure, is_involution, orbits, point_step

DOMAIN_LIMIT = 512


def subgroup_from_generators(parent: GroupTable, generators: Sequence[tuple]) -> GroupTable:
    for g in generators:
        if g not in parent:
            raise NotASubgroup(f"{Perm(g).cycle_string()} lies outside the parent group")
    return GroupTable(parent.degree, generators)


def stabilizer_subgroup(parent: GroupTable, point: int) -> GroupTable:
    """The stabiliser of ``point``, given by the strong generators of its
    chain, which it keeps."""
    if not 0 <= point < parent.degree:
        raise PointOutOfRange(f"point {point} outside the domain of the group")
    chain = parent.chain.stabilizer(point)
    sub = GroupTable(parent.degree, chain.generators)
    sub.chain = chain
    return sub


# ---- cosets -------------------------------------------------------------------


class CosetSpace:
    """Right cosets Hg, acted on by right multiplication.

    Each coset is named by its least element, which H's stabiliser chain
    finds without listing H.  The cosets are the closure of H under the
    group's generators, listed by representative, so the coset of H
    itself comes first; their number is held to the element cap.
    """

    def __init__(self, group: GroupTable, sub: GroupTable):
        self.group, self.sub = group, sub
        least = sub.least_in_coset
        gens = group.generators
        successors = {}

        def step(x):
            successors[x] = [least(_compose(x, g)) for g in gens]
            return successors[x]

        reps = sorted(capped(closure((tuple(range(group.degree)),), step), "cosets"))
        self._number = {r: i for i, r in enumerate(reps)}
        self.reps = tuple(reps)
        self._gen_rows = tuple(
            tuple(self._number[successors[r][k]] for r in reps) for k in range(len(gens))
        )

    @property
    def n_cosets(self) -> int:
        return len(self.reps)

    def coset_of(self, x: tuple) -> int:
        """The number of the coset of ``x``, an element of the group."""
        return self._number[self.sub.least_in_coset(x)]

    def generator_rows(self) -> tuple:
        """The action of the group's generators, in generator order."""
        return self._gen_rows

    def action(self) -> Action:
        """The action on the cosets; rows for elements other than the
        generators are composed on first use."""
        return Action(self.group, len(self.reps), gen_rows=self._gen_rows)

    def rows(self, elements: Sequence[tuple]) -> list:
        """The rows of ``elements``, elements of the group, on the cosets."""
        number, least = self._number, self.sub.least_in_coset
        return [tuple(number[least(_compose(r, x))] for r in self.reps) for x in elements]

    def stabilizer(self, generators: Sequence[tuple], coset: int) -> GroupTable:
        """The stabiliser of coset number ``coset`` in the group that
        ``generators``, elements of the group, generate, as the subgroup
        its Schreier generators generate."""
        step = point_step(self.rows(generators))
        return stabilizer(coset, self.group.degree, generators, step)[1]


def right_cosets(group: GroupTable, sub: GroupTable) -> CosetSpace:
    if not all(p in group for p in sub.generators):
        raise NotASubgroup("the subgroup does not live inside this group")
    return CosetSpace(group, sub)


def core(group: GroupTable, sub: GroupTable) -> GroupTable:
    """Largest normal subgroup of the parent inside ``sub``, the kernel of
    the coset action: in a chain of each generator's row on the m cosets
    followed by its point row shifted past m, the strong generators that
    fix every coset generate it."""
    cosets = right_cosets(group, sub)
    m = cosets.n_cosets
    paired = [
        row + tuple(m + x for x in g)
        for row, g in zip(cosets.generator_rows(), group.generators)
    ]
    kernel = [
        tuple(x - m for x in g[m:])
        for g in StabChain(m + group.degree, paired).generators
        if g[:m] == tuple(range(m))
    ]
    return GroupTable(group.degree, kernel)


# ---- double cosets --------------------------------------------------------------


class DoubleCoset(Record):
    """HxH as the numbers of its cosets in ``space``, with its least element
    ``rep``, the first coset's; its elements are composed only on access."""

    rep: tuple
    cosets: tuple
    space: CosetSpace

    @property
    def size(self) -> int:
        return self.space.sub.order * len(self.cosets)

    @cached_property
    def elements(self) -> tuple:
        """The image tuples of HxH, sorted."""
        reps, sub = self.space.reps, self.space.sub
        return tuple(sorted(
            _compose(h, reps[c]) for c in self.cosets for h in sub.elements
        ))

    @property
    def contains_involution(self) -> bool:
        return any(map(is_involution, self.elements))


class DoubleCosetDecomposition(Record):
    group: GroupTable
    sub: GroupTable
    classes: tuple


def double_cosets(group: GroupTable, sub: GroupTable) -> DoubleCosetDecomposition:
    """Decompose the group into H x H classes, least representatives first:
    the orbits of H on its cosets, which are numbered by least element, so
    each orbit's first coset gives its class's least element and order."""
    cosets = right_cosets(group, sub)
    rows = cosets.rows(sub.generators)
    classes = tuple(
        DoubleCoset(cosets.reps[orb[0]], tuple(orb), cosets)
        for orb in orbits(range(cosets.n_cosets), point_step(rows))
    )
    return DoubleCosetDecomposition(group, sub, classes)


# ---- blocks of imprimitivity ----------------------------------------------------


def _blocks_through(group: GroupTable, point: int) -> tuple:
    """The witness walk from α = ``point``, G_α from its Schreier
    generators, and every block of a transitive group through α, each
    mapped to the t's that make it.

    A block through α is α^H for some H ⊇ G_α, so the least block through
    α and b is the orbit of α under G_α and a t carrying α to b.  G_α fixes
    that block, so one b per G_α-suborbit finds them all; and once t is
    walked, no suborbit through α^(t^k) is, for k prime to the length L of
    t's cycle through α: some k′ ≡ k (mod L) is prime to t's order, so
    t^k′ carries α there and ⟨G_α, t^k′⟩ = ⟨G_α, t⟩.  Every block is the
    join of those it contains, and the join of two is the larger where one
    holds the other, else the orbit of α under G_α and the t's of both.  A
    proper block has at most n/2 points, and both sizes divide the join's:
    a walk past n/2 points is the whole domain, and so is a join of blocks
    whose sizes have their least common multiple past n/2.  One witness
    walk gives the t's and, by Schreier's lemma, G_α.
    """
    n, gens = group.degree, group.generators
    carry, g_alpha = stabilizer(point, n, gens, point_step(gens))
    stab = g_alpha.generators
    half, whole = n // 2, frozenset(carry)

    def block(ts: tuple) -> frozenset:
        blk = frozenset(islice(closure((point,), point_step(stab + ts)), half + 1))
        return whole if len(blk) > half else blk

    done: set = set()
    minimal: dict = {}
    for suborbit in orbits(carry, point_step(stab))[1:]:
        if done.isdisjoint(suborbit):
            t = carry[suborbit[0]]
            minimal.setdefault(block((t,)), (t,))
            cycle = [t[point]]
            while cycle[-1] != point:
                cycle.append(t[cycle[-1]])
            done.update(b for k, b in enumerate(cycle, 1) if gcd(k, len(cycle)) == 1)
    found = {frozenset((point,)): (), **minimal}

    def joins(blk: frozenset) -> list:
        out = []
        for m, ts in minimal.items():
            if not m <= blk:
                both = found[blk] + ts
                if blk < m:
                    out.append(m)
                elif lcm(len(blk), len(m)) > half:
                    out.append(whole)
                else:
                    out.append(block(both))
                found.setdefault(out[-1], both)
        return out

    for _ in closure(minimal, joins):
        pass
    return carry, g_alpha, found


class BlockSystem(Record):
    """A partition of the domain into blocks, canonically ordered."""

    n_points: int
    blocks: tuple

    def __post_init__(self):
        seen = [False] * self.n_points
        for blk in self.blocks:
            if not blk or tuple(sorted(blk)) != tuple(blk):
                raise ValueError("blocks must be nonempty sorted tuples")
            for p in blk:
                if not 0 <= p < self.n_points:
                    raise ValueError(f"point {p} outside the domain")
                if seen[p]:
                    raise ValueError(f"point {p} appears in two blocks")
                seen[p] = True
        if not all(seen):
            raise ValueError("blocks do not cover the domain")
        if list(self.blocks) != sorted(self.blocks, key=lambda b: b[0]):
            raise ValueError("blocks must be listed by least member")
        block_of = [0] * self.n_points
        for i, blk in enumerate(self.blocks):
            for p in blk:
                block_of[p] = i
        object.__setattr__(self, "block_of", tuple(block_of))

    @classmethod
    def from_blocks(cls, n_points: int, blocks: Iterable[Iterable[int]]) -> "BlockSystem":
        normal = sorted(tuple(sorted(set(b))) for b in blocks)
        return cls(n_points, tuple(normal))

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def image(self, b: int, x: Sequence[int]) -> int:
        """The block that the point permutation x sends block b to: the
        block of the image of b's least member."""
        return self.block_of[x[self.blocks[b][0]]]

    def row(self, x: Sequence[int]) -> tuple:
        """The row of the point permutation x on the blocks, by ``image``."""
        return tuple(self.block_of[x[blk[0]]] for blk in self.blocks)


def system_from_block(group: GroupTable, block: Iterable[int]) -> BlockSystem:
    """Close one block under the group; the images must tile the domain."""
    gen_rows = group.generators
    images = closure(
        (frozenset(block),), lambda blk: [frozenset(row[p] for p in blk) for row in gen_rows]
    )
    try:
        return BlockSystem.from_blocks(group.degree, images)
    except ValueError as exc:
        raise ValueError(f"the set is not a block: {exc}") from None


def _carried_system(carry: dict, block: frozenset) -> BlockSystem:
    """The system of a block B through α, read off the t_x that carry α
    to each point x: x's block is B^(t_x), taken at each point not yet
    placed.  ``BlockSystem`` checks that the blocks tile the domain."""
    placed: set = set()
    blocks = []
    for x, t in carry.items():
        if x not in placed:
            blocks.append([t[p] for p in block])
            placed.update(blocks[-1])
    return BlockSystem.from_blocks(len(carry), blocks)


def all_block_systems(group: GroupTable) -> list:
    """Every invariant partition of a transitive action, the trivial two
    included, ordered by block size and then by blocks.

    A system is fixed by its block through point 0, and those blocks come
    from joins of minimal blocks (see ``_blocks_through``); each system is
    read off the carriers of that walk.
    """
    if group.degree > DOMAIN_LIMIT:
        raise DomainTooLarge(
            f"domain of size {group.degree} exceeds the limit {DOMAIN_LIMIT}"
        )
    if not is_transitive(group):
        raise NotTransitive("block systems are defined for transitive actions")
    carry, _, found = _blocks_through(group, 0)
    systems = [_carried_system(carry, blk) for blk in found]
    systems.sort(key=lambda bs: (len(bs.blocks[0]), bs.blocks))
    return systems


class LatticePair(Record):
    """A block B through the base point α and the subgroup G_B =
    {g : α^g ∈ B} it traces out, given by generators, with its order
    |G_α|·|B|."""

    subgroup: GroupTable
    block: tuple
    base_point: int
    order: int


def subgroup_block_lattice(group: GroupTable, base_point: int = 0) -> list:
    """Subgroups above the stabiliser of ``base_point``, paired with the
    block each one traces out; containment matches containment both ways.

    Each block B through the base point α gives G_B = ⟨G_α, t's⟩, the t's
    those that ``_blocks_through`` made B from, of order |G_α|·|B|: |G_α|
    comes from a chain of G_α's Schreier generators, so neither G nor any
    G_B needs a chain of its own.  Listed by block size, then block.
    """
    if not 0 <= base_point < group.degree:
        raise PointOutOfRange(f"point {base_point} outside the domain of the group")
    if not is_transitive(group):
        raise NotTransitive("the lattice correspondence needs a transitive action")
    _, stab, blocks = _blocks_through(group, base_point)
    pairs = [
        LatticePair(GroupTable(group.degree, stab.generators + ts), tuple(sorted(blk)),
                    base_point, stab.order * len(blk))
        for blk, ts in blocks.items()
    ]
    pairs.sort(key=lambda pr: (len(pr.block), pr.block))
    return pairs


def lattice_is_order_isomorphic(pairs: Sequence[LatticePair]) -> bool:
    """Pairwise containment of subgroups matches containment of blocks;
    G_B lies in G_B′ exactly when its generators carry the base point
    into B′."""
    for a in pairs:
        for b in pairs:
            sub_le = all(g[b.base_point] in b.block for g in a.subgroup.generators)
            if sub_le != (set(a.block) <= set(b.block)):
                return False
    return True
