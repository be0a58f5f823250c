"""Permutations of {0, ..., n-1} and fully enumerated permutation groups.

Composition reads left to right: ``(p * q)(i) == q(p(i))``, the right
action convention, so conjugation ``x ** g`` means ``g⁻¹ x g`` and
stabilisers transform the way orbits do.  Points are 0-based in memory;
cycle notation at the text boundary is 1-based.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
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
        return int(raw)
    except ValueError:
        raise ValueError(f"{_CAP_ENV} must be an integer, got {raw!r}") from None


class Perm:
    """A permutation stored as its tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        self.images = tuple(images)

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, text: str, degree: int) -> "Perm":
        """Parse 1-based cycle notation such as ``(1 2)(3 4)``."""
        return cls(parse_cycles(text, degree))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Perm") -> "Perm":
        img = other.images
        return Perm(img[i] for i in self.images)

    def inverse(self) -> "Perm":
        out = [0] * len(self.images)
        for src, dst in enumerate(self.images):
            out[dst] = src
        return Perm(out)

    def conjugated_by(self, g: "Perm") -> "Perm":
        return g.inverse() * self * g

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images))

    def is_involution(self) -> bool:
        """Order exactly two."""
        return not self.is_identity() and (self * self).is_identity()

    def order(self) -> int:
        n, p = 1, self
        while not p.is_identity():
            p = p * self
            n += 1
        return n

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

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __lt__(self, other: "Perm") -> bool:
        return self.images < other.images

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
            if not tok.isdigit():
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


@dataclass(frozen=True)
class GroupSpec:
    """Degree plus a nonempty generator list, the raw input to enumeration."""

    degree: int
    generators: tuple

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be at least 1")
        if not self.generators:
            raise ValueError("at least one generator is required")
        for g in self.generators:
            if g.degree != self.degree:
                raise DegreeMismatch(
                    f"generator {g.cycle_string()} has degree {g.degree}, "
                    f"expected {self.degree}"
                )


class GroupTable:
    """A fully enumerated permutation group with a fixed element order.

    Elements are sorted by image tuple; the identity's image tuple is the
    lexicographic minimum of all permutations, so it always sits at index 0.
    Everything downstream indexes into this order.
    """

    __slots__ = ("degree", "generators", "elements", "_pos")

    def __init__(self, degree: int, generators: Sequence[Perm], elements: Sequence[Perm]):
        self.degree = degree
        self.generators = tuple(generators)
        self.elements = tuple(elements)
        self._pos = {p.images: i for i, p in enumerate(self.elements)}

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, perm) -> bool:
        return isinstance(perm, Perm) and perm.images in self._pos

    def __repr__(self) -> str:
        return f"<group of order {len(self.elements)} on {self.degree} points>"

    @property
    def order(self) -> int:
        return len(self.elements)

    def index(self, perm: Perm) -> int:
        try:
            return self._pos[perm.images]
        except KeyError:
            raise KeyError(f"{perm.cycle_string()} is not in this group") from None

    def element(self, i: int) -> Perm:
        return self.elements[i]

    def identity(self) -> Perm:
        return self.elements[0]

    def generator_indices(self) -> tuple:
        return tuple(self.index(g) for g in self.generators)

    def product_index(self, i: int, j: int) -> int:
        return self._pos[(self.elements[i] * self.elements[j]).images]

    def inverse_index(self, i: int) -> int:
        return self._pos[self.elements[i].inverse().images]


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


def extend_on_generators(group, gen_values: Sequence, identity, then: Callable) -> Optional[dict]:
    """Extend values on the generators of ``group`` (element 0 the identity)
    along its Cayley graph: x·s gets ``then(value at x, value at s)``.

    The walk is the closure of (0, ``identity``) under the pairs (s, value
    at s), so it evaluates every edge; None as soon as an element gets two
    values.  Otherwise the map is a homomorphism, by induction on word
    length, on every element the generators reach, keyed by index.
    """
    steps = list(zip(group.generator_indices(), gen_values))

    def step(item):
        x, val = item
        return [(group.product_index(x, s), then(val, v)) for s, v in steps]

    values: dict = {}
    for x, val in closure(((0, identity),), step):
        if x in values:
            return None
        values[x] = val
    return values


def _generated(degree: int, generators: Sequence[Perm], limit: Optional[int]) -> list:
    """Image tuples of every product of the generators, identity first;
    CapExceeded as soon as the count would pass ``limit``."""
    lookups = [g.images.__getitem__ for g in generators]
    elements = []
    for im in closure((tuple(range(degree)),), lambda x: [tuple(map(f, x)) for f in lookups]):
        if limit is not None and len(elements) >= limit:
            raise CapExceeded(f"group exceeds the element cap of {limit}")
        elements.append(im)
    return elements


def enumerate_group(spec: GroupSpec, cap: Optional[int] = None) -> GroupTable:
    """Close the generators under multiplication, breadth first.

    Raises CapExceeded as soon as the element count would pass the cap
    (SGK_ELEMENT_CAP, or 200000 by default).
    """
    limit = element_cap() if cap is None else cap
    elements = [Perm(im) for im in sorted(_generated(spec.degree, spec.generators, limit))]
    return GroupTable(spec.degree, spec.generators, elements)


def group_from_generators(
    generators: Sequence[Perm],
    degree: Optional[int] = None,
    cap: Optional[int] = None,
) -> GroupTable:
    gens = tuple(generators)
    if degree is None:
        if not gens:
            raise ValueError("cannot infer a degree from an empty generator list")
        degree = gens[0].degree
    return enumerate_group(GroupSpec(degree, gens), cap=cap)


def small_generating_set(degree: int, elements: Sequence[Perm]) -> tuple:
    """Greedy generating set for an already closed element list."""
    target = len(set(p.images for p in elements))
    gens: list = []
    closed = {Perm.identity(degree).images}
    for p in sorted(elements, key=lambda q: q.images):
        if p.images in closed:
            continue
        gens.append(p)
        closed = set(_generated(degree, gens, None))
        if len(closed) == target:
            break
    return tuple(gens) if gens else (Perm.identity(degree),)


def orbit(group: GroupTable, point: int) -> frozenset:
    if not 0 <= point < group.degree:
        raise PointOutOfRange(f"point {point} outside the domain of the group")
    gen_rows = [g.images for g in group.generators]
    return frozenset(closure((point,), lambda x: [row[x] for row in gen_rows]))


def transversal(group: GroupTable, point: int) -> dict:
    """For each point in the orbit, one group element carrying ``point``
    there.  Breadth first with generators in listed order, so reproducible.
    """
    if not 0 <= point < group.degree:
        raise PointOutOfRange(f"point {point} outside the domain of the group")
    wit = {point: group.identity()}
    frontier = [point]
    while frontier:
        new = []
        for x in frontier:
            for g in group.generators:
                y = g.images[x]
                if y not in wit:
                    wit[y] = wit[x] * g
                    new.append(y)
        frontier = new
    return wit


def stabilizer(group: GroupTable, point: int) -> GroupTable:
    """Point stabiliser as a group in its own right (same degree)."""
    if not 0 <= point < group.degree:
        raise PointOutOfRange(f"point {point} outside the domain of the group")
    elems = [p for p in group.elements if p.images[point] == point]
    gens = small_generating_set(group.degree, elems)
    return GroupTable(group.degree, gens, elems)


def is_transitive(group: GroupTable, domain_size: Optional[int] = None) -> bool:
    if domain_size is not None and domain_size != group.degree:
        raise DegreeMismatch(
            f"group degree {group.degree} does not match domain size {domain_size}"
        )
    return len(orbit(group, 0)) == group.degree


@dataclass(frozen=True)
class Action:
    """A finite group acting on {0, ..., n_points-1}, one image row per
    group element.

    ``group`` indexes the rows and may act unfaithfully here; that is the
    point of keeping rows separate from the group's own degree.  Any object
    with ``__len__``, ``generator_indices()`` and ``product_index(i, j)``
    can stand in for a GroupTable.  The rows are not checked to compose;
    whoever builds them answers for that.  Orbits and invariance are
    decided on the generator rows alone.
    """

    group: object
    n_points: int
    rows: tuple

    def __post_init__(self):
        if len(self.rows) != len(self.group):
            raise DegreeMismatch("need exactly one image row per group element")

    @classmethod
    def natural(cls, group: GroupTable) -> "Action":
        return cls(group, group.degree, tuple(p.images for p in group))

    def generator_rows(self) -> tuple:
        return tuple(self.rows[i] for i in self.group.generator_indices())

    def kernel_size(self) -> int:
        ident = tuple(range(self.n_points))
        return sum(1 for r in self.rows if r == ident)

    def is_faithful(self) -> bool:
        return len(set(self.rows)) == len(self.rows)

    def stabilizer_indices(self, point: int) -> list:
        return [i for i, r in enumerate(self.rows) if r[point] == point]

    def orbit_of(self, point: int) -> frozenset:
        gen_rows = self.generator_rows()
        return frozenset(closure((point,), lambda x: [row[x] for row in gen_rows]))


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
