"""Subgroups, cosets, double cosets, and blocks of imprimitivity."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DomainTooLarge, NotASubgroup, NotTransitive, PointOutOfRange
from .perm import (
    Action,
    GroupTable,
    Perm,
    closure,
    extend_on_generators,
    is_transitive,
    small_generating_set,
    stabilizer,
)

DOMAIN_LIMIT = 512


@dataclass(frozen=True)
class Subgroup:
    """A subgroup carried by its full element list inside a parent group."""

    parent: GroupTable
    elements: tuple

    def __post_init__(self):
        object.__setattr__(self, "_members", frozenset(p.images for p in self.elements))

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, perm) -> bool:
        return isinstance(perm, Perm) and perm.images in self._members

    def member_images(self) -> frozenset:
        return self._members

    def as_group(self) -> GroupTable:
        """The subgroup as a standalone group on the same points."""
        gens = small_generating_set(self.parent.degree, self.elements)
        return GroupTable(self.parent.degree, gens, self.elements)

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
    elems = closure((parent.identity(),), lambda p: [p * g for g in generators])
    return Subgroup(parent, _sorted_unique(elems))


def trivial_subgroup(parent: GroupTable) -> Subgroup:
    return Subgroup(parent, (parent.identity(),))


def full_subgroup(parent: GroupTable) -> Subgroup:
    return Subgroup(parent, parent.elements)


def stabilizer_subgroup(parent: GroupTable, point: int) -> Subgroup:
    table = stabilizer(parent, point)
    return Subgroup(parent, table.elements)


def setwise_stabilizer(parent: GroupTable, points: Iterable[int]) -> Subgroup:
    pts = frozenset(points)
    for p in pts:
        if not 0 <= p < parent.degree:
            raise PointOutOfRange(f"point {p} outside the domain of the group")
    elems = [g for g in parent.elements if frozenset(g.images[x] for x in pts) == pts]
    return Subgroup(parent, tuple(elems))


def conjugate_subgroup(sub: Subgroup, by: Perm) -> Subgroup:
    if by not in sub.parent:
        raise NotASubgroup(f"{by.cycle_string()} lies outside the parent group")
    inv = by.inverse()
    return Subgroup(sub.parent, _sorted_unique(inv * h * by for h in sub.elements))


def _require_sub(group: GroupTable, sub: Subgroup) -> None:
    if sub.parent is not group and not sub.member_images() <= {
        p.images for p in group.elements
    }:
        raise NotASubgroup("the subgroup does not live inside this group")


# ---- cosets -------------------------------------------------------------------


@dataclass(frozen=True)
class CosetSpace:
    """Right cosets Hg, acted on by right multiplication.

    Representatives are the lexicographically least elements of their
    cosets, listed in that order, so the coset of H itself comes first.
    """

    group: GroupTable
    sub: Subgroup
    reps: tuple
    coset_of_element: tuple

    @property
    def n_cosets(self) -> int:
        return len(self.reps)

    def coset_of(self, perm: Perm) -> int:
        return self.coset_of_element[self.group.index(perm)]

    def generator_rows(self) -> tuple:
        """The action of the group's generators, in generator order."""
        index, cfe = self.group.index, self.coset_of_element
        return tuple(
            tuple(cfe[index(rep * g)] for rep in self.reps) for g in self.group.generators
        )

    def action(self) -> Action:
        """One row per element, composed from the generator rows along the
        Cayley graph of the group."""
        n = len(self.reps)
        rows = extend_on_generators(
            self.group, self.generator_rows(), tuple(range(n)), lambda r, s: tuple(s[x] for x in r)
        )
        return Action(self.group, n, tuple(rows[i] for i in range(len(self.group))))

    def kernel(self) -> Subgroup:
        ident = tuple(range(len(self.reps)))
        act = self.action()
        elems = [
            self.group.elements[i]
            for i, row in enumerate(act.rows)
            if row == ident
        ]
        return Subgroup(self.group, tuple(elems))


def right_cosets(group: GroupTable, sub: Subgroup) -> CosetSpace:
    _require_sub(group, sub)
    coset_of = [-1] * len(group)
    reps = []
    for i, g in enumerate(group.elements):
        if coset_of[i] >= 0:
            continue
        # scanning in element order makes g the least member of a new coset
        reps.append(g)
        c = len(reps) - 1
        for h in sub.elements:
            coset_of[group.index(h * g)] = c
    return CosetSpace(group, sub, tuple(reps), tuple(coset_of))


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
    subgroup: Subgroup
    block: tuple


def subgroup_block_lattice(group: GroupTable, base_point: int = 0) -> list:
    """Subgroups above the stabiliser of ``base_point``, paired with the
    block each one traces out; containment matches containment both ways.

    Each block B through the base point gives the subgroup
    {g : base_point^g in B}, listed by block size, then block.
    """
    if not 0 <= base_point < group.degree:
        raise PointOutOfRange(f"point {base_point} outside the domain of the group")
    if not is_transitive(group):
        raise NotTransitive("the lattice correspondence needs a transitive action")
    gen_rows = [g.images for g in group.generators]
    pairs = []
    for blk in _blocks_through(group.degree, gen_rows, base_point):
        sub = Subgroup(group, tuple(g for g in group.elements if g.images[base_point] in blk))
        pairs.append(LatticePair(sub, tuple(sorted(blk))))
    pairs.sort(key=lambda pr: (len(pr.block), pr.block, pr.subgroup.order))
    return pairs


def lattice_is_order_isomorphic(pairs: Sequence[LatticePair]) -> bool:
    """Pairwise containment of subgroups matches containment of blocks."""
    for a in pairs:
        for b in pairs:
            sub_le = a.subgroup.member_images() <= b.subgroup.member_images()
            blk_le = set(a.block) <= set(b.block)
            if sub_le != blk_le:
                return False
    return True
