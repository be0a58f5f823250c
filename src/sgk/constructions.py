"""Covers that grow new symmetric graphs out of old ones: semidirect
products, the chain labellings over them, and the covers those chains
gate.  The graphs on arcs and subgraphs are in ``arc_graphs``; arc
partition extensions and the fibre reconstruction in ``extensions``.
"""

from __future__ import annotations

from typing import Dict, Sequence

from .errors import (
    DegreeMismatch,
    InvalidChain,
    InverseSymmetryViolated,
    NotCompatible,
    TwistNotHomomorphism,
    certify,
)
from .graphs import Graph, TransitivityReport, tuple_orbits, verify_action
from .groups import Action, GroupLike, GroupTable, coerce_action, paired_order
from .perm import Perm, Record, _compose, _invert, orbit_map
from .quotients import QuotientCertificate, certify_quotient, quotient
from .subgroups import BlockSystem


# ---- semidirect products ---------------------------------------------------


def _automorphism_from_generator_images(n_part: GroupTable, images: Sequence[tuple]) -> tuple:
    """Extend generator images of N to a full automorphism row, on the
    numbers of N's elements in its listing.

    The extension is checked on every edge of the Cayley graph of N, which
    makes it multiplicative; a clash or a failure to reach a bijection
    means the images do not define an automorphism.
    """
    gens = n_part.generators
    if len(images) != len(gens):
        raise TwistNotHomomorphism(
            f"{len(images)} images for {len(gens)} generators of N"
        )
    for img in images:
        if img not in n_part:
            raise TwistNotHomomorphism(
                f"image {Perm(img).cycle_string()} lies outside N"
            )
    # listing N first refuses an N past the element cap before the walk
    number = {x: i for i, x in enumerate(n_part.elements)}
    steps = list(zip(gens, images))
    identity = tuple(range(n_part.degree))
    values = orbit_map(
        ((identity, identity),),
        lambda xv: [(_compose(xv[0], s), _compose(xv[1], v)) for s, v in steps],
    )
    if values is None:
        raise TwistNotHomomorphism("generator images contradict each other on N")
    if len(values) != len(n_part) or len(set(values.values())) != len(n_part):
        raise TwistNotHomomorphism("the induced map on N is not a bijection")
    return tuple(number[values[x]] for x in n_part.elements)


class SemidirectGroup(GroupTable):
    """N ⋊ G under a twist ρ: G → Aut(N), as a permutation group on the
    elements of N, numbered as N lists them, followed by the points of G:
    the pair (η, g) sends n to n^ρ(g)·η and the point p to p^g.

    Pairs multiply as (n₁, g₁)(n₂, g₂) = (n₁^{ρ(g₂)} n₂, g₁g₂), the left
    factor acting first as everywhere in this package, which is
    associative exactly when ρ(gh) = ρ(g) followed by ρ(h).  The
    generators are N's, (η, 1), then G's, (1, s); ``twists`` holds ρ(s)
    for each generator s of G as a row on N's element numbers, and
    ``n_number`` maps each image tuple of N to its number.
    """

    def __init__(self, n_part: GroupTable, g_part: GroupTable, twists: Sequence[tuple]):
        number = {x: i for i, x in enumerate(n_part.elements)}
        m = len(number)
        fixed = tuple(range(m, m + g_part.degree))
        right = [
            tuple(number[_compose(x, eta)] for x in n_part.elements) + fixed
            for eta in n_part.generators
        ]
        twisted = [
            row + tuple(m + p for p in s) for row, s in zip(twists, g_part.generators)
        ]
        super().__init__(m + g_part.degree, right + twisted)
        self.n_part = n_part
        self.g_part = g_part
        self.twists = tuple(twists)
        self.n_number = number


def semidirect_product(
    n_part: GroupTable, g_part: GroupTable, twist: Sequence[Sequence[tuple]]
) -> SemidirectGroup:
    """Form N ⋊_ρ G from generator data for the twist.

    ``twist`` lists, for each generator of G in order, the images of the
    generators of N under ρ of that generator.  ρ extends to a
    homomorphism on G exactly when the pairs (s, ρ(s)) generate a group
    of order |G| (``paired_order``), so no element of G is listed.
    """
    if len(twist) != len(g_part.generators):
        raise TwistNotHomomorphism(
            f"{len(twist)} automorphisms for {len(g_part.generators)} generators of G"
        )
    twists = [_automorphism_from_generator_images(n_part, images) for images in twist]
    if paired_order(g_part.generators, twists) != len(g_part):
        raise TwistNotHomomorphism("the twist does not extend to a homomorphism on G")
    sd = SemidirectGroup(n_part, g_part, twists)
    certify(len(sd) == len(n_part) * len(g_part), "N ⋊ G has |N|·|G| elements")
    return sd


def trivial_twist(n_part: GroupTable, g_part: GroupTable) -> list:
    return [list(n_part.generators) for _ in g_part.generators]


# ---- chains ----------------------------------------------------------------


class NChain(Record):
    """An arc labelling by elements of N, stored as element indices."""

    assignment: tuple

    def __post_init__(self):
        object.__setattr__(self, "_map", dict(self.assignment))

    @classmethod
    def from_map(cls, mapping: Dict[tuple, int]) -> "NChain":
        return cls(tuple(sorted((tuple(arc), int(v)) for arc, v in mapping.items())))

    def value(self, u: int, v: int) -> int:
        return self._map[(u, v)]

    def has(self, u: int, v: int) -> bool:
        return (u, v) in self._map


def constant_chain(graph: Graph, n_index: int) -> NChain:
    return NChain.from_map({arc: n_index for arc in graph.arcs})


def chain_from_seeds(
    graph: Graph, group: GroupLike, sd: SemidirectGroup, seeds: Dict[tuple, int]
) -> NChain:
    """Grow a chain from values on some arcs by orbit propagation.

    Images under the group must carry the value through the twist, and
    reverses must carry inverses; a contradiction means no compatible
    chain extends the seeds, and unreached arcs mean the seeds touch too
    few orbits.
    """
    act = coerce_action(group, graph.n)
    n_part = sd.n_part
    start = []
    for arc, v in sorted(seeds.items()):
        arc = tuple(arc)
        if arc not in graph.arcs:
            raise InvalidChain(f"seed arc {_arc_label(graph, arc)} is not an arc of the graph")
        if not 0 <= v < len(n_part):
            raise InvalidChain(f"seed value {v} is outside N")
        start.append((arc, v))
    gen_pairs = list(zip(act.generator_rows(), _twists_for_generators(act, sd)))
    number, elements = sd.n_number, n_part.elements

    def step(item):
        (u, v), val = item
        return [((v, u), number[_invert(elements[val])])] + [
            ((row[u], row[v]), trow[val]) for row, trow in gen_pairs
        ]

    values = orbit_map(start, step)
    if values is None:
        raise NotCompatible("propagation assigns two values to some arc")
    missing = graph.arcs - set(values)
    if missing:
        raise InvalidChain(
            f"{len(missing)} arcs are in orbits no seed touches, "
            f"first {_arc_label(graph, min(missing))}"
        )
    return NChain.from_map(values)


def _arc_label(graph: Graph, arc: tuple) -> str:
    """An arc as error messages name it, by the labels of its ends."""
    return "({}, {})".format(*(graph.labels[v] for v in arc))


def _twists_for_generators(act: Action, sd: SemidirectGroup) -> tuple:
    """ρ of each generator of the acting group, which must be the G that
    the twist was built over."""
    if act.group.generators != sd.g_part.generators:
        raise DegreeMismatch("the twist was built over a different group")
    return sd.twists


class ChainReport(Record):
    """What validation saw: the arc orbits and the values that pin the
    whole chain down, one representative per orbit."""

    arc_orbit_count: int
    orbit_representatives: tuple
    representative_values: tuple


def validate_nchain(
    graph: Graph, group: GroupLike, sd: SemidirectGroup, chain: NChain
) -> ChainReport:
    """Check a chain is a chain: inverse symmetry on every arc and the
    compatibility square on every (arc, generator) pair.

    Compatibility for generators extends to the whole group because the
    twist is a homomorphism, so the check is complete.
    """
    act = coerce_action(group, graph.n)
    gen_twists = _twists_for_generators(act, sd)
    n_part = sd.n_part
    for arc in graph.arcs:
        if not chain.has(*arc):
            raise InvalidChain(f"no value on arc {arc}")
        if not 0 <= chain.value(*arc) < len(n_part):
            raise InvalidChain(f"value on arc {arc} is outside N")
    number, elements = sd.n_number, n_part.elements
    for (u, v) in sorted(graph.arcs):
        if chain.value(v, u) != number[_invert(elements[chain.value(u, v)])]:
            raise InverseSymmetryViolated(
                f"value on ({v}, {u}) is not the inverse of the value on ({u}, {v})"
            )
    gen_rows = act.generator_rows()
    for (u, v) in sorted(graph.arcs):
        val = chain.value(u, v)
        for row, trow in zip(gen_rows, gen_twists):
            if chain.value(row[u], row[v]) != trow[val]:
                raise NotCompatible(
                    f"the square fails at arc ({u}, {v}) under a generator"
                )
    arc_orbits = tuple_orbits(sorted(graph.arcs), gen_rows)
    reps = tuple(orb[0] for orb in arc_orbits)
    return ChainReport(
        arc_orbit_count=len(arc_orbits),
        orbit_representatives=reps,
        representative_values=tuple(chain.value(*arc) for arc in reps),
    )


# ---- covers over chains ----------------------------------------------------


class BiggsCover(TransitivityReport):
    """The cover's report under N ⋊ G, with the chain, its validation
    report and the certificate of the quotient by the fibres."""

    chain: NChain
    chain_report: ChainReport
    certificate: QuotientCertificate


def biggs_cover(
    graph: Graph, group: GroupLike, sd: SemidirectGroup, chain: NChain
) -> BiggsCover:
    """The cover of the graph gated by a compatible chain.

    Vertices are N × V; the copy of (v₁, v₂) at n₁ runs to n₂ = φ(v₁,v₂)·n₁,
    so walking an edge multiplies the chain value in from the left.  The
    semidirect product acts by (n, v) ↦ (n^{ρ(g)}·η, v^g), and the whole
    bundle of cover facts is certified on the way out.
    """
    chain_report = validate_nchain(graph, group, sd, chain)
    act = coerce_action(group, graph.n)
    n_part = sd.n_part
    number, elements = sd.n_number, n_part.elements
    m = len(elements)
    labels = []
    for x in elements:
        stamp = Perm(x).cycle_string()
        labels.extend(f"{stamp}|{lbl}" for lbl in graph.labels)
    arcs = []
    for (u, v) in graph.arcs:
        row = elements[chain.value(u, v)]
        for ni, x in enumerate(elements):
            arcs.append((ni * graph.n + u, number[_compose(row, x)] * graph.n + v))
    cover = Graph(labels, arcs)
    # a generator (η, g) sends (n, u) to (n^ρ(g)·η, u^g): its row on the
    # elements of N, then the row of g on the graph, the identity for N's
    g_rows = [tuple(range(graph.n))] * len(n_part.generators) + list(act.generator_rows())
    action = Action(sd, cover.n, [
        tuple(x[ni] * graph.n + g_row[u] for ni in range(m) for u in range(graph.n))
        for x, g_row in zip(sd.generators, g_rows)
    ])
    report = verify_action(cover, action)
    certify(report.symmetric, "the semidirect product is symmetric on the cover")
    fibres = BlockSystem.from_blocks(
        cover.n, [[ni * graph.n + u for ni in range(m)] for u in range(graph.n)]
    )
    certificate = certify_quotient(
        quotient(report, fibres), allow_trivial=not graph.arcs
    )
    certify(
        certificate.source.graph.arcs == graph.arcs,
        "collapsing the fibres returns the base graph",
    )
    if graph.arcs:
        certify(
            certificate.cover_class == "cover",
            "every vertex meets each adjacent fibre exactly once",
        )
        certify(
            cover.valency() == graph.valency(),
            "the cover keeps the valency of the base",
        )
    return BiggsCover(
        **report.asdict(), chain=chain, chain_report=chain_report, certificate=certificate
    )
