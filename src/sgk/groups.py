"""Permutation groups given by generators, their stabiliser chains, and
their actions on points.  Elements are image tuples, composed as in
``perm``."""

from __future__ import annotations

import math
from functools import cached_property
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence, Union

from .errors import CapExceeded, DegreeMismatch, PointOutOfRange
from .perm import Perm, _compose, _invert, _witnesses, closure, element_cap, orbit_map, point_step


class GroupTable:
    """A permutation group on {0, ..., degree-1}, given by its generators;
    a subgroup is a group on the same points.

    Order, membership and least coset elements come from a stabiliser
    chain (``chain``), built on first use.  The elements are the chain's
    listing of image tuples, read on first access of ``elements`` under
    the element cap and sorted; the identity's image tuple is the
    lexicographic minimum of all permutations, so it always comes first.
    Whoever numbers elements numbers them in this order.
    """

    def __init__(self, degree: int, generators: Iterable[Sequence[int]]):
        self.degree = degree
        self.generators = tuple(map(tuple, generators))
        for g in self.generators:
            if len(g) != degree:
                raise DegreeMismatch(
                    f"generator {Perm(g).cycle_string()} has degree {len(g)}, expected {degree}"
                )

    @cached_property
    def elements(self) -> tuple:
        # CapExceeded, before any element is listed, past the cap
        limit = element_cap()
        if self.order > limit:
            raise CapExceeded(f"group exceeds the element cap of {limit}")
        return tuple(self.chain.elements())

    @cached_property
    def chain(self) -> "StabChain":
        return StabChain(self.degree, self.generators)

    @cached_property
    def order(self) -> int:
        return self.chain.order

    def __len__(self) -> int:
        return self.order

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, element) -> bool:
        """An image tuple of this group's degree, in the group."""
        return isinstance(element, tuple) and self.chain.contains(element)

    def __repr__(self) -> str:
        return f"<group of order {len(self)} on {self.degree} points>"

    def least_in_coset(self, g: Sequence[int]) -> tuple:
        """The least image tuple in the right coset Hg, H this group."""
        return self.chain.least_in_coset(g)


# ---- stabiliser chains ---------------------------------------------------------


def _first_moved(images: tuple, start: int = 0) -> Optional[int]:
    for i in range(start, len(images)):
        if images[i] != i:
            return i
    return None


class StabChain:
    """A stabiliser chain of the group that some image tuples generate,
    with base 0, 1, ..., n-1 (Sims 1970; Seress, *Permutation Group
    Algorithms*, 2003, ch. 4).

    Level b is kept when the stabiliser of 0, ..., b-1 moves b.  It holds,
    for each point of that stabiliser's orbit of b, one element carrying b
    there, with its inverse.  The order is the product of the orbit
    lengths, membership is sifting through the levels, and
    ``least_in_coset`` descends them in base order.

    Deterministic Schreier-Sims: a strong generator belongs to every level
    up to the first point it moves.  Levels are closed from the deepest
    up.  Each Schreier generator t_p.g.t_(p^g)^-1 is sifted once, and the
    first one that does not sift to the identity becomes a strong
    generator, after which the levels it joins are closed again.
    Transversals only ever gain points, so a generator that sifted once
    still sifts.
    """

    __slots__ = ("degree", "_strong", "_levels", "_base", "_checked")

    def __init__(self, degree: int, generators: Iterable[Sequence[int]]):
        self.degree = degree
        self._strong: list = []  # (first moved point, images)
        self._levels: dict = {}  # base point -> {orbit point: (t, t^-1)}
        self._base: list = []
        self._checked: dict = {}  # base point -> {(orbit point, generator number)}
        for g in generators:
            residue = self._sift(tuple(g))
            if residue is not None:
                self._add(residue)
        k = len(self._base) - 1
        while k >= 0:
            residue = self._close(self._base[k])
            if residue is None:
                k -= 1
            else:
                b = self._add(residue)
                k = self._base.index(b)

    def _add(self, g: tuple) -> int:
        b = _first_moved(g)
        self._strong.append((b, g))
        if b not in self._levels:
            ident = tuple(range(self.degree))
            self._levels[b] = {b: (ident, ident)}
            self._checked[b] = set()
            self._base = sorted(self._levels)
        return b

    def _close(self, b: int) -> Optional[tuple]:
        """Close the orbit of b under the strong generators fixing 0..b-1
        and sift each Schreier generator not sifted before; the first
        residue that is not the identity comes back."""
        level, checked = self._levels[b], self._checked[b]
        gens = [g for m, g in self._strong if m >= b]
        found = []

        def step(p):
            if found:
                return ()
            t = level[p][0]
            images = []
            for k, g in enumerate(gens):
                q = g[p]
                images.append(q)
                if (p, k) in checked:
                    continue
                checked.add((p, k))
                tg = _compose(t, g)
                if q not in level:
                    level[q] = (tg, _invert(tg))
                    continue
                residue = self._sift(_compose(tg, level[q][1]))
                if residue is not None:
                    found.append(residue)
                    break
            return images

        for _ in closure(list(level), step):
            if found:
                break
        return found[0] if found else None

    def _sift(self, g: tuple) -> Optional[tuple]:
        """What is left of g after dividing out the levels, or None when
        that is the identity, which is when g lies in the group."""
        levels = self._levels
        b = _first_moved(g)
        while b is not None:
            level = levels.get(b)
            if level is None or g[b] not in level:
                return g
            g = _compose(g, level[g[b]][1])
            b = _first_moved(g, b + 1)
        return None

    @property
    def order(self) -> int:
        return math.prod(len(level) for level in self._levels.values())

    @property
    def generators(self) -> list:
        """A strong generating set, as image tuples."""
        return [g for _, g in self._strong]

    def contains(self, images: Sequence[int]) -> bool:
        return len(images) == self.degree and self._sift(tuple(images)) is None

    def stabilizer(self, point: int) -> "StabChain":
        """The chain of the stabiliser of ``point``.  The strong generators
        fixing 0 generate G_0 (all of G when G fixes 0); a point that 0
        reaches by t, 0 itself by the identity, has the stabiliser t⁻¹G_0t;
        elsewhere Schreier generators on the orbit of the point generate it."""
        g0 = [g for b, g in self._strong if b > 0]
        identity = tuple(range(self.degree))
        orbit = self._levels.get(0, {0: (identity, identity)})
        if point in orbit:
            t, t_inv = orbit[point]
            return StabChain(self.degree, [_compose(_compose(t_inv, g), t) for g in g0])
        return stabilizer(point, self.degree, self.generators, point_step(self.generators))[1].chain

    def elements(self) -> list:
        """Every element's image tuple, in lexicographic order.

        An element is t_k...t_1.t_0, one transversal element per level, the
        deepest applied first, so its image of base point b is c[p], for c
        the product of the levels above b and p the orbit point b goes to.
        Expanding each c with those p sorted by c[p] keeps the list sorted:
        a point between base points is fixed by whatever fixes the base
        points before it, so two elements first differ at a base point.
        Above the first level c is the identity, so that level is copied.
        Each transversal element gets one getter, built once per listing,
        that composes it with every c.
        """
        if not self._base:
            return [tuple(range(self.degree))]
        first = self._levels[self._base[0]]
        out = [first[p][0] for p in sorted(first)]
        for b in self._base[1:]:
            level = self._levels[b]
            get = {p: itemgetter(*t) for p, (t, _) in level.items()}
            out = [get[p](c) for c in out for p in sorted(level, key=c.__getitem__)]
        return out

    def least_in_coset(self, g: Sequence[int]) -> tuple:
        """The least image tuple in the right coset H.g, H this chain's
        group: level by level in base order, carry the base point to the
        orbit point that g sends lowest."""
        g = tuple(g)
        for b in self._base:
            level = self._levels[b]
            g = _compose(level[min(level, key=g.__getitem__)][0], g)
        return g


def stabilizer(start, degree: int, gens: Sequence[tuple], step: Callable) -> tuple:
    """The ``_witnesses`` walk of ``gens`` from ``start``, acting as ``step``
    says, and the stabiliser of ``start`` in the group they generate:
    ``step(x)[k]`` is the image of x under ``gens[k]``, as ``closure``
    takes it.  Schreier's lemma: the elements t_x.g.t_(x^g)^-1, for x in
    the orbit and g a generator, generate the stabiliser; each is kept
    once, and the identity not at all."""
    walk = _witnesses(start, tuple(range(degree)), gens, step)
    inverse: dict = {}
    found: dict = {}
    for x, t in walk.items():
        for g, y in zip(gens, step(x)):
            tg = _compose(t, g)
            # a tree edge, t_x.g = t_(x^g), gives the identity
            if tg != walk[y]:
                if y not in inverse:
                    inverse[y] = _invert(walk[y])
                found[_compose(tg, inverse[y])] = None
    return walk, GroupTable(degree, found)


def paired_order(generators: Sequence[tuple], values: Sequence[tuple]) -> int:
    """The order of the group that the pairs (g, value at g) generate, for
    g in ``generators``, each pair written as one image tuple with the
    value on points of its own after g's.

    That group maps onto the group the generators generate, and its
    elements over the identity are the pairs (1, v); so g ↦ value at g
    extends to a homomorphism exactly when the two orders agree.
    """
    shift = len(generators[0])
    paired = [g + tuple(shift + x for x in v) for g, v in zip(generators, values)]
    return StabChain(shift + len(values[0]), paired).order


def group_from_generators(generators: Sequence[tuple], degree: Optional[int] = None) -> GroupTable:
    gens = tuple(generators)
    if degree is None:
        if not gens:
            raise ValueError("cannot infer a degree from an empty generator list")
        degree = len(gens[0])
    return GroupTable(degree, gens)


def orbit(group: GroupTable, point: int) -> frozenset:
    if not 0 <= point < group.degree:
        raise PointOutOfRange(f"point {point} outside the domain of the group")
    return frozenset(closure((point,), point_step(group.generators)))


def is_transitive(group: GroupTable) -> bool:
    return len(orbit(group, 0)) == group.degree


class Action:
    """A finite group acting on {0, ..., n_points-1}.

    ``group`` is a GroupTable and may act unfaithfully here; that is the
    point of keeping rows separate from the group's own degree.  The
    action is given by one image row per generator of the group
    (``gen_rows``); the rows of the other elements are composed along the
    Cayley graph on first access of ``rows``.  The rows are not checked
    to compose; whoever builds them answers for that.  Orbits and
    invariance are decided on the generator rows alone.
    """

    def __init__(self, group: GroupTable, n_points: int, gen_rows: Sequence[tuple]):
        self.group = group
        self.n_points = n_points
        self._gen_rows = tuple(gen_rows)

    @classmethod
    def natural(cls, group: GroupTable) -> "Action":
        return cls(group, group.degree, gen_rows=group.generators)

    def _is_natural(self) -> bool:
        return self._gen_rows == self.group.generators

    @cached_property
    def rows(self) -> tuple:
        """The row of each element of the group, in the group's listing order."""
        elements = self.group.elements
        if self._is_natural():
            return elements
        steps = list(zip(self.group.generators, self._gen_rows))
        values = orbit_map(
            ((elements[0], tuple(range(self.n_points))),),
            lambda xv: [(_compose(xv[0], s), _compose(xv[1], r)) for s, r in steps],
        )
        return tuple(values[x] for x in elements)

    def generator_rows(self) -> tuple:
        return self._gen_rows

    def kernel_size(self) -> int:
        """The order of the kernel: 1 when a group acts on its own points,
        otherwise |G| over the order of the group that the generator rows
        generate, read off a stabiliser chain of those rows."""
        if self._is_natural():
            return 1
        return len(self.group) // StabChain(self.n_points, self.generator_rows()).order

    def orbit_of(self, point: int) -> frozenset:
        return frozenset(closure((point,), point_step(self.generator_rows())))


GroupLike = Union[GroupTable, Action]


def coerce_action(group_or_action: GroupLike, n_points: int) -> Action:
    if isinstance(group_or_action, Action):
        act = group_or_action
    elif isinstance(group_or_action, GroupTable):
        act = Action.natural(group_or_action)
    else:
        raise TypeError("expected a GroupTable or an Action")
    if act.n_points != n_points:
        raise DegreeMismatch(
            f"action on {act.n_points} points where {n_points} were needed"
        )
    return act
