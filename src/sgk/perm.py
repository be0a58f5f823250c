"""Permutations of {0, ..., n-1}, permutation groups and their stabiliser chains.

A permutation is its tuple of images.  Composition reads left to right:
``_compose(p, q)[i] == q[p[i]]``, the right action convention, so the
conjugate of x by g is g⁻¹xg and stabilisers transform the way orbits
do.  Points are 0-based in memory; cycle notation at the text boundary
is 1-based, read by ``parse_cycles`` and printed by ``Perm``.
"""

from __future__ import annotations

import math
import os
from functools import cached_property
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .errors import (
    CapExceeded,
    CycleSyntaxError,
    DegreeMismatch,
    PointOutOfRange,
    RepeatedPoint,
)

DEFAULT_ELEMENT_CAP = 200_000
_CAP_ENV = "SGK_ELEMENT_CAP"


def element_cap() -> int:
    """Enumeration cap currently in force; SGK_ELEMENT_CAP overrides it."""
    raw = os.environ.get(_CAP_ENV)
    if raw is None or not raw.strip():
        return DEFAULT_ELEMENT_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = -1  # refused below, with the negative values
    if cap >= 0:
        return cap
    raise ValueError(f"{_CAP_ENV} must be a non-negative integer, got {raw!r}")


class Record:
    """Base of the frozen result types.  The fields are the class's annotations,
    after those of the record it extends; equality and hash read them alone."""

    _fields = ()

    def __init_subclass__(cls):
        cls._fields += tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        values = dict(zip(self._fields, args), **kwargs)
        if len(args) + len(kwargs) != len(self._fields) or values.keys() != set(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(self._fields)}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def asdict(self) -> dict:
        return {f: getattr(self, f) for f in self._fields}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.asdict() == other.asdict()

    def __hash__(self):
        return hash(tuple(self.asdict().values()))

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in self.asdict().items())
        return f"{type(self).__qualname__}({fields})"

    def _frozen(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __setattr__ = __delattr__ = _frozen


class Perm:
    """A permutation's image tuple, wrapped to print as cycles."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        self.images = tuple(images)

    # nothing in the package multiplies Perms; clibench's tracer wraps this
    # method to count products, so it stays
    def __mul__(self, other: "Perm") -> "Perm":
        return Perm(_compose(self.images, other.images))

    def cycles(self) -> list:
        """Cycles of length at least two, each starting at its least point."""
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            nxt = self.images[start]
            while nxt != start:
                cyc.append(nxt)
                seen[nxt] = True
                nxt = self.images[nxt]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        """1-based cycle notation; the identity prints as ``id``."""
        cycs = self.cycles()
        if not cycs:
            return "id"
        return "".join(
            "(" + " ".join(str(p + 1) for p in cyc) + ")" for cyc in cycs
        )

    def __repr__(self) -> str:
        return f"Perm[{self.cycle_string()}]"


def parse_cycles(text: str, degree: int) -> tuple:
    """Parse 1-based disjoint cycle notation into an image tuple.

    ``id``, ``()`` and the empty string denote the identity.  Each point
    must lie in 1..degree and may appear at most once; commas inside a
    cycle count as spaces.
    """
    images = list(range(degree))
    used = set()
    stripped = text.strip()
    if stripped in ("", "id", "()"):
        return tuple(images)
    pos, n = 0, len(stripped)
    while pos < n:
        ch = stripped[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch != "(":
            raise CycleSyntaxError(f"expected '(' at position {pos} in {text!r}")
        end = stripped.find(")", pos)
        if end < 0:
            raise CycleSyntaxError(f"unclosed cycle in {text!r}")
        points = []
        for tok in stripped[pos + 1 : end].replace(",", " ").split():
            if not (tok.isascii() and tok.isdigit()):
                raise CycleSyntaxError(f"bad point {tok!r} in {text!r}")
            p = int(tok) - 1
            if not 0 <= p < degree:
                raise PointOutOfRange(f"point {tok} outside 1..{degree} in {text!r}")
            if p in used:
                raise RepeatedPoint(f"point {tok} repeated in {text!r}")
            used.add(p)
            points.append(p)
        if not points:
            raise CycleSyntaxError(f"empty cycle in {text!r}")
        for i, p in enumerate(points):
            images[p] = points[(i + 1) % len(points)]
        pos = end + 1
    return tuple(images)


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


def _compose(a: tuple, b: tuple) -> tuple:
    """Image tuple of a followed by b: the package's one composition kernel.
    ``itemgetter`` with two or more indices gathers the images in C; with
    one it would return a bare int, and with none it raises."""
    if len(a) > 1:
        return itemgetter(*a)(b)
    return tuple(map(b.__getitem__, a))


def _invert(a: tuple) -> tuple:
    out = [0] * len(a)
    for src, dst in enumerate(a):
        out[dst] = src
    return tuple(out)


def is_involution(x: tuple) -> bool:
    """Order exactly two."""
    identity = tuple(range(len(x)))
    return x != identity and _compose(x, x) == identity


def _first_moved(images: tuple, start: int = 0) -> Optional[int]:
    for i in range(start, len(images)):
        if images[i] != i:
            return i
    return None


def _witnesses(start, identity: tuple, gens: Sequence[tuple], step: Callable) -> dict:
    """For each item that ``gens`` reach from ``start``, the first product
    of generators found carrying ``start`` there, as an image tuple:
    breadth first, generators in listed order.  ``step`` is the step that
    ``closure`` takes: ``step(x)[k]`` is the image of x under ``gens[k]``."""
    wit = {start: identity}

    def visit(x):
        images = step(x)
        for g, y in zip(gens, images):
            if y not in wit:
                wit[y] = _compose(wit[x], g)
        return images

    for _ in closure((start,), visit):
        pass
    return wit


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


def point_step(rows: Sequence[tuple]) -> Callable:
    """``step(x)`` for ``closure``: the images of the point x under each row."""
    return lambda x: [row[x] for row in rows]


def tuple_step(rows: Sequence[tuple]) -> Callable:
    """``step(t)`` for ``closure``: the images of t, a tuple of two or more
    points, under each row."""
    return lambda t: list(map(itemgetter(*t), rows))


def closure(seed: Iterable, step: Callable) -> Iterator:
    """Yield everything reachable from ``seed``, where ``step(x)`` yields
    the images of ``x``.

    Breadth first: the seeds come first, then each item as it is first
    reached, so a caller can stop the walk early.  Items must be hashable.
    This is the package's one orbit walk: orbits of points, tuples,
    blocks, subgraphs and group elements are all closures under a step.
    """
    found = list(dict.fromkeys(seed))
    seen = set(found)
    yield from found
    for x in found:
        for y in step(x):
            if y not in seen:
                seen.add(y)
                found.append(y)
                yield y


def orbit_map(seeds: Iterable, step: Callable) -> Optional[dict]:
    """The map that the (key, value) pairs reachable from ``seeds`` under
    ``step`` make, or None as soon as a key gets a second value.

    A value carried along generators this way is equivariant: every pair's
    images are pairs of the map.  Breadth first, as ``closure``.
    """
    out: dict = {}
    for key, value in closure(seeds, step):
        if key in out:
            return None
        out[key] = value
    return out


def capped(items: Iterable, what: str) -> Iterator:
    """Yield ``items``, raising CapExceeded before one past the element cap."""
    cap = element_cap()
    for count, x in enumerate(items):
        if count == cap:
            raise CapExceeded(f"the {what} exceed the element cap of {cap}")
        yield x


def orbits(items: Iterable, step: Callable) -> list:
    """Split ``items`` into closures under ``step``.

    Each orbit comes back sorted, and the orbits are listed in the order
    of their first member in ``items``.
    """
    seen: set = set()
    out = []
    for x in items:
        if x not in seen:
            orb = sorted(closure((x,), step))
            seen.update(orb)
            out.append(orb)
    return out


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
