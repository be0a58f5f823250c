"""Subgroups, cosets, double cosets, and blocks of imprimitivity."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (
    DomainTooLarge,
    NotASubgroup,
    NotTransitive,
    PointOutOfRange,
)
from .perm import (
    Action,
    GroupTable,
    Perm,
    capped,
    closure,
    is_transitive,
    schreier_generators,
    transversal,
)

DOMAIN_LIMIT = 512


class Subgroup:
    """A subgroup of ``parent``: its own table on the parent's points,
    given by generators or by its full element list.  Order and
    membership come from the table's chain, and the elements are listed
    only on request.
    """

    def __init__(self, parent: GroupTable, elements=None, generators=None):
        self.parent = parent
        self.table = GroupTable(parent.degree, generators, elements)

    @property
    def elements(self) -> tuple:
        return self.table.elements

    @property
    def generators(self) -> tuple:
        return self.table.generators

    @property
    def order(self) -> int:
        return self.table.order

    def __contains__(self, perm) -> bool:
        return perm in self.table

    def least_in_coset(self, g) -> tuple:
        return self.table.least_in_coset(g)

    @cached_property
    def _members(self) -> frozenset:
        return frozenset(p.images for p in self.elements)

    def member_images(self) -> frozenset:
        return self._members

    def as_group(self) -> GroupTable:
        """The subgroup as a standalone group on the same points."""
        return self.table

    def __repr__(self) -> str:
        return f"<subgroup of order {self.order}>"


def _sorted_unique(perms: Iterable[Perm]) -> tuple:
    by_images = {p.images: p for p in perms}
    return tuple(sorted(by_images.values(), key=lambda p: p.images))


def make_subgroup(parent: GroupTable, elements: Iterable[Perm]) -> Subgroup:
    """Validate membership and closure, then wrap.

    The element list is deduplicated and put into the parent's order
    convention (plain lexicographic sort, identity in front).
    """
    elems = _sorted_unique(elements)
    if not elems or not elems[0].is_identity():
        raise NotASubgroup("the identity is missing")
    members = set()
    for p in elems:
        if p not in parent:
            raise NotASubgroup(f"{p.cycle_string()} lies outside the parent group")
        members.add(p.images)
    for a in elems:
        if a.inverse().images not in members:
            raise NotASubgroup(f"{a.cycle_string()} has no inverse in the set")
        for b in elems:
            if (a * b).images not in members:
                raise NotASubgroup(
                    f"closure fails at {a.cycle_string()} * {b.cycle_string()}"
                )
    return Subgroup(parent, elems)


def subgroup_from_generators(parent: GroupTable, generators: Sequence[Perm]) -> Subgroup:
    for g in generators:
        if g not in parent:
            raise NotASubgroup(f"{g.cycle_string()} lies outside the parent group")
    return Subgroup(parent, generators=generators)


def trivial_subgroup(parent: GroupTable) -> Subgroup:
    return Subgroup(parent, (parent.identity(),))


def full_subgroup(parent: GroupTable) -> Subgroup:
    return Subgroup(parent, parent.elements)


def stabilizer_subgroup(parent: GroupTable, point: int) -> Subgroup:
    if not 0 <= point < parent.degree:
        raise PointOutOfRange(f"point {point} outside the domain of the group")
    return Subgroup(parent, generators=map(Perm, parent.chain.stabilizer(point).generators))


def conjugate_subgroup(sub: Subgroup, by: Perm) -> Subgroup:
    if by not in sub.parent:
        raise NotASubgroup(f"{by.cycle_string()} lies outside the parent group")
    inv = by.inverse()
    return Subgroup(sub.parent, _sorted_unique(inv * h * by for h in sub.elements))


def _require_sub(group: GroupTable, sub: Subgroup) -> None:
    if sub.parent is group:
        return
    if not all(p in group for p in sub.generators):
        raise NotASubgroup("the subgroup does not live inside this group")


# ---- cosets -------------------------------------------------------------------


class CosetSpace:
    """Right cosets Hg, acted on by right multiplication.

    Each coset is named by its least element, which H's stabiliser chain
    finds without listing H.  The cosets are the closure of H under the
    group's generators, listed by representative, so the coset of H
    itself comes first; their number is held to the element cap.
    ``coset_of_element`` lists G and is built on first access.
    """

    def __init__(self, group: GroupTable, sub: Subgroup):
        self.group, self.sub = group, sub
        least = sub.least_in_coset
        gens = [g.images for g in group.generators]
        successors = {}

        def step(x):
            successors[x] = [least(tuple(map(g.__getitem__, x))) for g in gens]
            return successors[x]

        reps = sorted(capped(closure((tuple(range(group.degree)),), step), "cosets"))
        self._number = {r: i for i, r in enumerate(reps)}
        self.reps = tuple(Perm(r) for r in reps)
        self._gen_rows = tuple(
            tuple(self._number[successors[r][k]] for r in reps) for k in range(len(gens))
        )

    @property
    def n_cosets(self) -> int:
        return len(self.reps)

    def coset_of(self, perm: Perm) -> int:
        try:
            return self._number[self.sub.least_in_coset(perm.images)]
        except KeyError:
            raise KeyError(f"{perm.cycle_string()} is not in this group") from None

    @cached_property
    def coset_of_element(self) -> tuple:
        """The coset of each group element, in element order."""
        index = self.group.index
        out = [-1] * len(self.group)
        for c, rep in enumerate(self.reps):
            for h in self.sub.elements:
                out[index(h * rep)] = c
        return tuple(out)

    def generator_rows(self) -> tuple:
        """The action of the group's generators, in generator order."""
        return self._gen_rows

    def action(self) -> Action:
        """The action on the cosets; rows for elements other than the
        generators are composed on first use."""
        return Action(self.group, len(self.reps), gen_rows=self._gen_rows)

    def stabilizer(self, generators: Sequence[Perm], coset: int) -> Subgroup:
        """The stabiliser of coset number ``coset`` in the group that
        ``generators``, elements of the group, generate, as the subgroup
        its Schreier generators generate."""
        number, least = self._number, self.sub.least_in_coset
        reps = [r.images for r in self.reps]
        schreier = schreier_generators(
            self.group.degree,
            [g.images for g in generators],
            coset,
            lambda c, g: number[least(tuple(map(g.__getitem__, reps[c])))],
        )
        return Subgroup(self.group, generators=map(Perm, schreier))


def right_cosets(group: GroupTable, sub: Subgroup) -> CosetSpace:
    _require_sub(group, sub)
    return CosetSpace(group, sub)


def core(group: GroupTable, sub: Subgroup) -> Subgroup:
    """Largest normal subgroup of the parent lying inside ``sub``."""
    _require_sub(group, sub)
    keep = set(sub.member_images())
    base = list(sub.elements)
    for x in group.elements:
        xi = x.inverse()
        keep &= {(xi * h * x).images for h in base}
        if len(keep) == 1:
            break
    return Subgroup(group, tuple(sorted(Perm(im) for im in keep)))


# ---- double cosets --------------------------------------------------------------


@dataclass(frozen=True)
class DoubleCoset:
    rep: Perm
    elements: tuple
    contains_involution: bool

    @property
    def size(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class DoubleCosetDecomposition:
    group: GroupTable
    sub: Subgroup
    classes: tuple

    def __post_init__(self):
        where = {}
        for ci, cls in enumerate(self.classes):
            for p in cls.elements:
                where[p.images] = ci
        object.__setattr__(self, "_where", where)

    def class_of(self, perm: Perm) -> int:
        return self._where[perm.images]


def double_cosets(group: GroupTable, sub: Subgroup) -> DoubleCosetDecomposition:
    """Decompose the group into H x H classes, least representatives first."""
    _require_sub(group, sub)
    assigned = {}
    classes = []
    for g in group.elements:
        if g.images in assigned:
            continue
        block = {}
        for h1 in sub.elements:
            left = h1 * g
            for h2 in sub.elements:
                q = left * h2
                block[q.images] = q
        elems = tuple(sorted(block.values(), key=lambda p: p.images))
        has_inv = any(p.is_involution() for p in elems)
        ci = len(classes)
        for im in block:
            assigned[im] = ci
        classes.append(DoubleCoset(g, elems, has_inv))
    return DoubleCosetDecomposition(group, sub, tuple(classes))


# ---- blocks of imprimitivity ----------------------------------------------------


def _smallest_block(n: int, gen_rows: Sequence[tuple], points: Iterable[int]) -> frozenset:
    """Smallest block of imprimitivity containing every one of ``points``.

    Union-find closure (Atkinson): merge the points into one class, then
    propagate every merge through the generators until the partition is
    a congruence; the class of the points is the block.
    """
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> bool:
        rx, ry = find(x), find(y)
        if rx == ry:
            return False
        parent[ry] = rx
        return True

    first, *rest = points
    queue = [(first, p) for p in rest if union(first, p)]
    while queue:
        u, v = queue.pop()
        for row in gen_rows:
            a, b = row[u], row[v]
            if union(a, b):
                queue.append((a, b))
    root = find(first)
    return frozenset(x for x in range(n) if find(x) == root)


def minimal_block(group: GroupTable, alpha: int, beta: int) -> frozenset:
    """Smallest block of imprimitivity containing both seed points."""
    n = group.degree
    for p in (alpha, beta):
        if not 0 <= p < n:
            raise PointOutOfRange(f"point {p} outside the domain of the group")
    if alpha == beta:
        raise ValueError("seed points must differ")
    if not is_transitive(group):
        raise NotTransitive("blocks are defined for transitive actions")
    return _smallest_block(n, [g.images for g in group.generators], (alpha, beta))


def _blocks_through(n: int, gen_rows: Sequence[tuple], point: int) -> list:
    """Every block of a transitive action that contains ``point``.

    Each block B through the point is the join of the minimal blocks
    {point, b} for b in B, so closing the minimal blocks under joins with
    one another reaches them all; the singleton is added by hand.
    """
    minimal = {_smallest_block(n, gen_rows, (point, b)) for b in range(n) if b != point}

    def joins(blk: frozenset) -> list:
        return [_smallest_block(n, gen_rows, sorted(blk | m)) for m in minimal if not m <= blk]

    return [frozenset((point,))] + list(closure(sorted(minimal, key=sorted), joins))


@dataclass(frozen=True)
class BlockSystem:
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

    def is_trivial(self) -> bool:
        return len(self.blocks) in (1, self.n_points)


def system_from_block(group: GroupTable, block: Iterable[int]) -> BlockSystem:
    """Close one block under the group; the images must tile the domain."""
    gen_rows = [g.images for g in group.generators]
    images = closure(
        (frozenset(block),), lambda blk: [frozenset(row[p] for p in blk) for row in gen_rows]
    )
    try:
        return BlockSystem.from_blocks(group.degree, images)
    except ValueError as exc:
        raise ValueError(f"the set is not a block: {exc}") from None


def intermediate_subgroups(group: GroupTable, bottom: Subgroup) -> list:
    """All subgroups between ``bottom`` and the whole group, by order and
    then by element list.

    The subgroups containing H = ``bottom`` match the blocks through the
    coset H in the action on right cosets of H: block B gives the
    subgroup {g : Hg in B}.
    """
    _require_sub(group, bottom)
    cosets = right_cosets(group, bottom)
    cfe = cosets.coset_of_element
    subs = [
        Subgroup(group, tuple(g for g, c in zip(group.elements, cfe) if c in blk))
        for blk in _blocks_through(cosets.n_cosets, cosets.generator_rows(), 0)
    ]
    return sorted(subs, key=lambda s: (s.order, tuple(p.images for p in s.elements)))


def all_block_systems(group: GroupTable) -> list:
    """Every invariant partition of a transitive action, the trivial two
    included, ordered by block size and then by blocks.

    A system is fixed by its block through point 0, and those blocks come
    from joins of minimal blocks (see ``_blocks_through``).
    """
    if group.degree > DOMAIN_LIMIT:
        raise DomainTooLarge(
            f"domain of size {group.degree} exceeds the limit {DOMAIN_LIMIT}"
        )
    if not is_transitive(group):
        raise NotTransitive("block systems are defined for transitive actions")
    gen_rows = [g.images for g in group.generators]
    systems = [
        system_from_block(group, blk) for blk in _blocks_through(group.degree, gen_rows, 0)
    ]
    systems.sort(key=lambda bs: (len(bs.blocks[0]), bs.blocks))
    return systems


@dataclass(frozen=True)
class LatticePair:
    """A block B through the base point α and the subgroup G_B =
    {g : α^g ∈ B} it traces out, given by generators, with its order
    |G_α|·|B|."""

    subgroup: Subgroup
    block: tuple
    base_point: int
    order: int


def subgroup_block_lattice(group: GroupTable, base_point: int = 0) -> list:
    """Subgroups above the stabiliser of ``base_point``, paired with the
    block each one traces out; containment matches containment both ways.

    Each block B through the base point α gives G_B = ⟨G_α, t_β : β ∈ B⟩,
    t_β an element carrying α to β, of order |G_α|·|B|: G_α comes from
    the group's chain, so no subgroup needs a chain of its own.  Listed
    by block size, then block.
    """
    if not 0 <= base_point < group.degree:
        raise PointOutOfRange(f"point {base_point} outside the domain of the group")
    if not is_transitive(group):
        raise NotTransitive("the lattice correspondence needs a transitive action")
    stab = group.chain.stabilizer(base_point)
    carry = transversal(group, base_point)
    gen_rows = [g.images for g in group.generators]
    pairs = []
    for blk in _blocks_through(group.degree, gen_rows, base_point):
        gens = [Perm(g) for g in stab.generators] + [carry[b] for b in sorted(blk)]
        sub = Subgroup(group, generators=gens)
        pairs.append(LatticePair(sub, tuple(sorted(blk)), base_point, stab.order * len(blk)))
    pairs.sort(key=lambda pr: (len(pr.block), pr.block))
    return pairs


def lattice_is_order_isomorphic(pairs: Sequence[LatticePair]) -> bool:
    """Pairwise containment of subgroups matches containment of blocks;
    G_B lies in G_B′ exactly when its generators carry the base point
    into B′."""
    for a in pairs:
        for b in pairs:
            sub_le = all(g.images[b.base_point] in b.block for g in a.subgroup.generators)
            if sub_le != (set(a.block) <= set(b.block)):
                return False
    return True
