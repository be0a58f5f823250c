"""Permutations of {0, ..., n-1} as image tuples, and the orbit walks on them.

A permutation is its tuple of images.  Composition reads left to right:
``_compose(p, q)[i] == q[p[i]]``, the right action convention, so the
conjugate of x by g is g⁻¹xg and stabilisers transform the way orbits
do.  Points are 0-based in memory; cycle notation at the text boundary
is 1-based, read by ``parse_cycles`` and printed by ``Perm``.  The groups
these generate, and their stabiliser chains, are in ``groups``.
"""

from __future__ import annotations

import os
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import (
    CapExceeded,
    CycleSyntaxError,
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
