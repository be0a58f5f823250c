"""Constructions that grow new symmetric graphs out of old ones.

Semidirect products with chain labellings and their covers, three-arc
graphs with the labelling test that recognises them, subgraph graphs,
arc-partition extensions, and the fibre reconstruction from design data.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Optional, Sequence

from .coset_graphs import CosetGraphResult, symmetric_coset_graph
from .designs import IncidenceStructure
from .errors import (
    DegenerateInvolution,
    DegreeMismatch,
    InvalidChain,
    InverseSymmetryViolated,
    NoStrictChain,
    NotCompatible,
    NotInvariant,
    NotInvolution,
    NotSelfPaired,
    NotSemidirect,
    NotSubgraph,
    NotSymmetric,
    TrivialQuotient,
    TwistNotHomomorphism,
    ValencyTooSmall,
    certify,
)
from .graphs import (
    DirectedSubgraph,
    Graph,
    TransitivityReport,
    tuple_orbits,
    verify_action,
)
from .perm import (
    Action,
    GroupLike,
    GroupTable,
    Perm,
    Record,
    StabChain,
    _compose,
    _invert,
    _witnesses,
    capped,
    closure,
    coerce_action,
    is_involution,
    orbit_map,
    orbits,
    paired_order,
    point_step,
    stabilizer,
    tuple_step,
)
from .quotients import (
    Quotient,
    QuotientCertificate,
    _quotient,
    certify_quotient,
    cross_section_design,
    quotient_is_nontrivial,
)
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

    def arcs(self):
        return self._map.keys()


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


class BiggsCover(Record):
    cover: Graph
    action: Action
    sd: SemidirectGroup
    chain: NChain
    fibres: BlockSystem
    report: TransitivityReport
    certificate: QuotientCertificate
    chain_report: ChainReport


def biggs_cover(
    graph: Graph, group: GroupLike, sd: SemidirectGroup, chain: NChain
) -> BiggsCover:
    """The cover of the graph gated by a compatible chain.

    Vertices are N × V; the copy of (v₁, v₂) at n₁ runs to n₂ = φ(v₁,v₂)·n₁,
    so walking an edge multiplies the chain value in from the left.  The
    semidirect product acts by (n, v) ↦ (n^{ρ(g)}·η, v^g), and the whole
    bundle of cover facts is certified on the way out; the result keeps
    the chain's validation report and the certified fibre quotient.
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
        _quotient(cover, action, fibres), allow_trivial=not graph.arcs
    )
    certify(
        certificate.quotient.arcs == graph.arcs,
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
    return BiggsCover(cover, action, sd, chain, fibres, report, certificate, chain_report)


# ---- three-arc graphs ------------------------------------------------------


class ThreeArcOrbit(Record):
    arcs: tuple
    self_paired: bool
    partner: int

    @property
    def size(self) -> int:
        return len(self.arcs)


def three_arc_orbits(graph: Graph, group: GroupLike) -> list:
    """Orbits on 3-arcs, each with its reversal partner worked out.

    The orbits are sorted and listed in the order of their least 3-arc.
    A symmetric group is transitive on the vertices, and the stabiliser
    of 0 on its neighbours, so the least 3-arc of each orbit runs through
    the base arc (0, a), a the least neighbour of 0: the orbits of those
    3-arcs, taken in lex order, are all of them in that order.
    """
    act = coerce_action(group, graph.n)
    if not verify_action(graph, act).symmetric:
        raise NotSymmetric("three-arc data needs a symmetric graph")
    if not graph.arcs:
        return []
    adj = graph.adj
    a = adj[0][0]
    seeds = [(0, a, y, z) for y in adj[a] if y != 0 for z in adj[y] if z != a]
    walk_orbits = orbits(seeds, tuple_step(act.generator_rows()))
    where = {t: idx for idx, orb in enumerate(walk_orbits) for t in orb}
    out = []
    for idx, orb in enumerate(walk_orbits):
        partner = where[tuple(reversed(orb[0]))]
        out.append(
            ThreeArcOrbit(tuple(orb), self_paired=(partner == idx), partner=partner)
        )
    return out


class ThreeArcGraph(Record):
    graph: Graph
    vertices: tuple
    action: Action
    report: TransitivityReport
    partition: BlockSystem
    certificate: QuotientCertificate
    reverse_adjacent: bool


def three_arc_graph(graph: Graph, group: GroupLike, orbit) -> ThreeArcGraph:
    """The graph on the arcs of a symmetric graph, joined through a
    self-paired orbit on 3-arcs: (σ,τ) meets (σ′,τ′) when (τ,σ,σ′,τ′)
    lies in the orbit.

    Grouping the vertices by initial vertex gives back the original
    graph, which is certified along with symmetry of the induced action;
    the certified quotient stays on the result's ``certificate``.
    """
    act = coerce_action(group, graph.n)
    if not verify_action(graph, act).symmetric:
        raise NotSymmetric("three-arc graphs are built over symmetric graphs")
    delta = frozenset(
        tuple(t) for t in (orbit.arcs if isinstance(orbit, ThreeArcOrbit) else orbit)
    )
    for t in delta:
        if len(t) != 4:
            raise NotSelfPaired(f"{t} is not a 3-arc")
    if not delta:
        raise NotSelfPaired("the orbit is empty")
    for t in delta:
        if tuple(reversed(t)) not in delta:
            raise NotSelfPaired(f"the reversal of {t} is missing from the orbit")
    gen_rows = act.generator_rows()
    step = tuple_step(gen_rows)
    for t in delta:
        if any(img not in delta for img in step(t)):
            raise NotInvariant("the set given is not a union of orbits")
    averts = sorted(graph.arcs)
    index = {a: i for i, a in enumerate(averts)}
    labels = [f"({graph.labels[u]},{graph.labels[v]})" for (u, v) in averts]
    # (τ, σ, σ′, τ′) joins (σ, τ) to (σ′, τ′); a 4-tuple whose (σ, τ) or
    # (σ′, τ′) is not an arc joins nothing
    arcs = sorted(
        (index[(sigma, tau)], index[(s2, t2)])
        for tau, sigma, s2, t2 in delta
        if (sigma, tau) in index and (s2, t2) in index
    )
    taggraph = Graph(labels, arcs)
    action = Action(
        act.group,
        len(averts),
        gen_rows=[tuple(index[(row[u], row[v])] for (u, v) in averts) for row in gen_rows],
    )
    tag_report = verify_action(taggraph, action)
    certify(tag_report.symmetric, "the arc action is symmetric on the three-arc graph")
    reverse_adjacent = any(
        taggraph.has_arc(i, index[(v, u)]) for i, (u, v) in enumerate(averts)
    )
    partition = BlockSystem.from_blocks(
        len(averts), _initial_vertex_blocks(graph, averts)
    )
    certificate = certify_quotient(_quotient(taggraph, action, partition))
    certify(
        certificate.quotient.arcs == graph.arcs,
        "grouping arcs by initial vertex returns the original graph",
    )
    return ThreeArcGraph(
        taggraph, tuple(averts), action, tag_report, partition, certificate,
        reverse_adjacent,
    )


def _initial_vertex_blocks(graph: Graph, averts: Sequence[tuple]) -> list:
    blocks = [[] for _ in range(graph.n)]
    for i, (u, _) in enumerate(averts):
        blocks[u].append(i)
    return [b for b in blocks if b]


# ---- the labelling test ----------------------------------------------------

def check_condition_pe(q: Quotient) -> Optional[tuple]:
    """Look for a labelling of each block of a quotient by the quotient's
    neighbouring blocks that the group respects.

    Returns a tuple assigning each vertex a quotient vertex: within block
    B the map is a bijection onto Γ_𝓑(B) commuting with the setwise
    stabilizer of B, transported to the other blocks along the group.
    None when the sizes differ or no equivariant bijection exists.
    The stabiliser of a block of a symmetric graph is transitive on it, so
    an equivariant table is fixed by its value at the first member: that
    value runs through the neighbours in order, carried along the Schreier
    generators of the stabiliser.  Each block is reached by the first
    product of generators found carrying block 0 there; an equivariant
    labelling does not depend on that choice.
    """
    graph, act, partition = q.base, q.action, q.partition
    quo, block_of, blocks = q.graph, partition.block_of, partition.blocks
    if not quotient_is_nontrivial(graph, partition):
        raise TrivialQuotient("the labelling test applies to nontrivial quotients")
    members = blocks[0]
    nbrs = quo.adj[0]
    if len(members) != len(nbrs):
        return None
    gen_rows = act.generator_rows()
    block_step = point_step(q.block_action.generator_rows())
    carrier, stab = stabilizer(0, graph.n, gen_rows, block_step)

    def step(item):
        m, c = item
        return [(row[m], partition.image(c, row)) for row in stab.generators]

    tables = (orbit_map(((members[0], c),), step) for c in nbrs)
    rho0 = next((t for t in tables if t is not None and sorted(t.values()) == sorted(nbrs)), None)
    if rho0 is None:
        return None
    # carry the block-0 labelling everywhere along a transversal
    labelling = [-1] * graph.n
    for row in carrier.values():
        for m in members:
            labelling[row[m]] = partition.image(rho0[m], row)
    certify(-1 not in labelling, "the transversal reaches every block")
    certify(
        all(
            labelling[row[v]] == qrow[labelling[v]]
            for row, qrow in zip(gen_rows, q.block_action.generator_rows())
            for v in range(graph.n)
        ),
        "the labelling commutes with the whole group",
    )
    certify(
        len({(block_of[v], labelling[v]) for v in range(graph.n)}) == graph.n,
        "vertices are named by distinct quotient arcs",
    )
    return tuple(labelling)


def check_three_arc_necessity(q: Quotient, labelling: Sequence[int]) -> bool:
    """Whether every arc of the quotient's base graph reads as a 3-arc of
    the quotient under the labelling: an arc from v_{BC} to v_{DE} must
    make (C,B,D,E) a 3-arc, which is exactly what membership in a
    three-arc graph requires."""
    graph, partition, quo = q.base, q.partition, q.graph
    valency = graph.valency()
    if valency is None or valency < 2:
        raise ValencyTooSmall("the necessity argument needs valency at least 2")
    lab = tuple(labelling)
    if len(lab) != graph.n:
        raise ValueError("one quotient vertex per graph vertex is required")
    for (alpha, beta) in graph.arcs:
        b, c = partition.block_of[alpha], lab[alpha]
        d, e = partition.block_of[beta], lab[beta]
        if c == d or b == e:
            return False
        if not (quo.has_arc(c, b) and quo.has_arc(b, d) and quo.has_arc(d, e)):
            return False
    return True


# ---- subgraph graphs -------------------------------------------------------


class SubgraphGraph(Record):
    graph: Graph
    subgraphs: tuple
    action: Action
    report: TransitivityReport
    base_index: int
    stabilizer_order: int
    dropped_loops: bool


def subgraph_graph(
    graph: Graph, group: GroupLike, sub: DirectedSubgraph, a: tuple
) -> SubgraphGraph:
    """The graph on the orbit of a directed subgraph, with Υ^g joined to
    Υ^{ag} for every group element.

    When the involution fixes the subgraph those pairs are loops; they
    are dropped, which leaves the orbit edgeless, so the involution must
    move the subgraph for the construction to say anything.
    """
    act = coerce_action(group, graph.n)
    if a not in act.group:
        raise NotInvolution(f"{Perm(a).cycle_string()} is not in the group")
    if not is_involution(a):
        raise NotInvolution(f"{Perm(a).cycle_string()} is not an involution")
    if len(a) != graph.n:
        raise DegreeMismatch("the involution acts on the wrong number of points")
    for v in sub.vertices:
        if not 0 <= v < graph.n:
            raise NotSubgraph(f"vertex {v} is outside the graph")
    for arc in sub.arcs:
        if arc not in graph.arcs:
            raise NotSubgraph(f"{_arc_label(graph, arc)} is not an arc of the graph")
    gen_rows = act.generator_rows()
    walk = closure((sub,), lambda s: [s.image(row) for row in gen_rows])
    orbit = {s.key(): s for s in capped(walk, "subgraphs")}
    keys = sorted(orbit)
    where = {k: i for i, k in enumerate(keys)}
    subgraphs = tuple(orbit[k] for k in keys)
    labels = [_subgraph_label(graph, s) for s in subgraphs]
    n = len(subgraphs)
    sub_rows = tuple(
        tuple(where[s.image(row).key()] for s in subgraphs) for row in gen_rows
    )
    # Υ^g joins (Υ^a)^g, so the arcs are the orbit of (Υ, Υ^a) and its reverse
    base_index = where[sub.key()]
    base_arc = (base_index, where[sub.image(a).key()])
    dropped = base_arc[0] == base_arc[1]
    arcs = [] if dropped else closure((base_arc, base_arc[::-1]), tuple_step(sub_rows))
    out = Graph(labels, arcs)
    action = Action(act.group, n, gen_rows=sub_rows)
    report = verify_action(out, action)
    certify(report.symmetric, "the group is symmetric on the subgraph graph")
    # the stabiliser of the base subgraph, from its Schreier generators, times
    # the kernel of the action on the graph, which fixes every subgraph
    stab = stabilizer(base_index, graph.n, gen_rows, point_step(sub_rows))[1].order
    stab *= act.kernel_size()
    certify(
        stab * len(subgraphs) == len(act.group),
        "the point stabilizer is the stabilizer of the subgraph",
    )
    return SubgraphGraph(out, subgraphs, action, report, base_index, stab, dropped)


def _subgraph_label(graph: Graph, sub: DirectedSubgraph) -> str:
    vs = ",".join(graph.labels[v] for v in sorted(sub.vertices))
    ar = ";".join(
        f"{graph.labels[u]}>{graph.labels[v]}" for (u, v) in sorted(sub.arcs)
    )
    return f"[{vs}|{ar}]"


# ---- arc partition extensions ----------------------------------------------


class ArcExtension(Record):
    extension: Graph
    base: CosetGraphResult
    model: CosetGraphResult
    blocks: tuple
    head_map: tuple
    vertex_map: tuple
    r: int
    block_valency: int
    exact: bool


def arc_partition_extension(
    group: GroupTable, sub: GroupTable, over: GroupTable, a: tuple
) -> ArcExtension:
    """Unfold the coset graph on H into the one on K < H by cutting each
    vertex into r = [H : K] bundles of arcs.

    Arcs of the base correspond to cosets of the arc stabilizer; grouping
    them by K-cosets and joining bundles that share a reversed arc builds
    the extension, which is certified to match the coset graph on K and
    to collapse back onto the base when bundles at a vertex are merged.
    """
    if a not in group:
        raise NotInvolution(f"{Perm(a).cycle_string()} is not in the group")
    if not is_involution(a):
        raise NotInvolution(f"{Perm(a).cycle_string()} is not an involution")
    if not all(k in sub for k in over.generators):
        raise NoStrictChain("K must sit inside H")
    if a in over:
        raise DegenerateInvolution("the involution lies in K; arcs would fold flat")
    base = symmetric_coset_graph(group, sub, a)
    bar = base.arc_stabilizer  # a⁻¹Ha ∩ H
    if not (bar.order < over.order and all(h in over for h in bar.generators)):
        raise NoStrictChain(
            "K must strictly contain the arc stabilizer a⁻¹Ha ∩ H"
        )
    if over.order == sub.order:
        raise NoStrictChain("K must sit strictly inside H")
    model = symmetric_coset_graph(group, over, a)
    # a⁻¹Ka ∩ K against a⁻¹Ha ∩ H: equal orders, each side's generators
    # in the other
    kbar = model.arc_stabilizer
    certify(
        kbar.order == bar.order
        and all(h in over and _compose(_compose(a, h), a) in over for h in bar.generators)
        and all(k in sub and _compose(_compose(a, k), a) in sub for k in kbar.generators),
        "the arc stabilizer survives the descent to K",
    )
    # witness one group element per arc, breadth first from (H, Ha)
    h_cosets = base.cosets
    identity = tuple(range(group.degree))
    base_arc = (h_cosets.coset_of(identity), h_cosets.coset_of(a))
    arc_step = tuple_step(base.action.generator_rows())
    witness = _witnesses(base_arc, identity, group.generators, arc_step)
    certify(set(witness) == base.graph.arcs, "the group walks to every arc")
    k_cosets = model.cosets
    bundle_of = {arc: k_cosets.coset_of(w) for arc, w in witness.items()}
    bundles: Dict[int, list] = {}
    for arc in sorted(bundle_of):
        bundles.setdefault(bundle_of[arc], []).append(arc)
    order = sorted(bundles, key=lambda c: bundles[c][0])
    renum = {c: i for i, c in enumerate(order)}
    blocks = tuple(tuple(bundles[c]) for c in order)
    r = sub.order // over.order
    v = over.order // bar.order
    certify(all(len(b) == v for b in blocks), "bundles have [K : a⁻¹Ha ∩ H] arcs")
    certify(len(blocks) == r * base.graph.n, "r bundles sit over each vertex")
    heads = []
    for blk in blocks:
        hs = {arc[0] for arc in blk}
        certify(len(hs) == 1, "a bundle's arcs share their initial vertex")
        heads.append(hs.pop())
    ext_arcs = set()
    for blk_i, blk in enumerate(blocks):
        for (x, y) in blk:
            j = renum[bundle_of[(y, x)]]
            certify(j != blk_i, "no bundle contains a reversed pair")
            ext_arcs.add((blk_i, j))
    labels = [
        Perm(model.cosets.reps[k_cosets.coset_of(witness[blk[0]])]).cycle_string()
        for blk in blocks
    ]
    extension = Graph(labels, ext_arcs)
    vertex_map = tuple(k_cosets.coset_of(witness[blk[0]]) for blk in blocks)
    certify(
        sorted(vertex_map) == list(range(model.graph.n)),
        "bundles land on the K-cosets bijectively",
    )
    mapped = {(vertex_map[i], vertex_map[j]) for (i, j) in extension.arcs}
    exact = mapped == model.graph.arcs
    certify(exact, "the extension is the coset graph on K")
    head_map = tuple(heads)
    collapsed = {(head_map[i], head_map[j]) for (i, j) in extension.arcs}
    certify(
        collapsed == base.graph.arcs,
        "merging the bundles at each vertex returns the base graph",
    )
    certify(
        extension.valency() == base.valency // r,
        "the extension divides the valency by r",
    )
    certify(
        extension.edge_count == base.graph.edge_count,
        "base and extension have the same number of edges",
    )
    return ArcExtension(
        extension, base, model, blocks, head_map, vertex_map, r, v, exact
    )


# ---- fibre data and reconstruction -----------------------------------------


def _semiregular_closure(gens: list, conjugators: list, partition: BlockSystem) -> Optional[dict]:
    """The least subgroup that contains ``gens`` and is normalised by
    ``conjugators``, listed by where each element sends block 0; None as
    soon as two elements send it to the same block, which is when the
    subgroup is not semiregular on the blocks (it is normal, so an
    element fixing some block has a conjugate fixing block 0).  The
    listing stops there, so it never passes the number of blocks."""
    pairs = [(_invert(s), s) for s in conjugators]

    def step(item):
        x = item[1]
        images = [_compose(x, g) for g in gens] + [_compose(_compose(t, x), s) for t, s in pairs]
        return [(partition.image(0, y), y) for y in images]

    return orbit_map(((0, tuple(range(len(gens[0])))),), step)


def _regular_normal_subgroup(q: Quotient, stab: StabChain, carriers: dict) -> dict:
    """A normal subgroup N regular on the quotient's vertices, as its
    element n_w carrying block 0 to w for each block w; ``stab`` is the
    chain of the stabiliser G_B of block 0, and ``carriers`` the witness
    walk from block 0 that gave it.

    N meets each coset G_B·t of a carrier t from block 0 to block w in
    n_w alone.  Conjugating n_w by G_B gives the n_v on the orbit of w,
    so over a connected quotient N is the normal closure of n_w for w on
    one base arc.  The search takes w there, tries the members of G_B·t
    least first, then breadth first, and keeps the first whose normal
    closure with N so far is semiregular on the blocks, skipping without
    a closure each member that does not commute with the stabiliser
    G_(0,w) of both blocks, as n_w does; it then goes on
    at the least block not yet reached, so disconnected quotients are
    covered too.  NotSemidirect when a coset runs out; CapExceeded when
    a coset's walk passes the element cap.
    """
    n, partition = q.graph.n, q.partition
    gen_rows = list(q.action.generator_rows())
    stab_gens = stab.generators
    stab_step = point_step([partition.row(h) for h in stab_gens])
    gens: list = []
    w = q.graph.adj[0][0]
    while True:
        least = stab.least_in_coset(carriers[w])
        walk = closure((least,), lambda y: [_compose(h, y) for h in stab_gens])
        fixing_w = stabilizer(w, q.base.n, stab_gens, stab_step)[1].generators
        for x in capped(walk, "candidates for N"):
            if any(_compose(x, h) != _compose(h, x) for h in fixing_w):
                continue
            listed = _semiregular_closure(gens + [x], gen_rows, partition)
            if listed is not None:
                break
        else:
            raise NotSemidirect("no normal subgroup acts regularly on the quotient vertices")
        gens.append(x)
        if len(listed) == n:
            return listed
        w = min(set(range(n)) - set(listed))


class FibreExtraction(Record):
    """Everything the reconstruction needs, read off an existing cover:
    the quotient it was taken from; N as one element per block,
    ``normal[w]`` carrying block 0 to w; for each generator s of G, the
    row on the fibre points of its image s·n_(0^s)⁻¹ in G_B; the order of
    G_B; the fibre design with its flag orbital Δ; and each vertex's
    fibre coordinates."""

    source: Quotient
    design: IncidenceStructure
    normal: tuple
    stabilizer_order: int
    point_rows: tuple
    eta: dict
    delta: frozenset
    vertex_code: tuple

    @property
    def quotient(self) -> Graph:
        return self.source.graph

    @property
    def normal_order(self) -> int:
        return len(self.normal)

    @cached_property
    def normal_block_rows(self) -> list:
        """N acting on the quotient's vertices, one row per element."""
        return [self.source.partition.row(x) for x in self.normal]


def extract_fibre_data(q: Quotient) -> FibreExtraction:
    """Read the reconstruction data off the quotient of a symmetric cover
    by its fibres: the design a fibre sees (``cross_section_design`` of
    block 0), the stabilizer's action on that fibre, and the orbital of
    flag pairs the arcs trace out.

    Everything is derived from generators: N from the search above, and
    G_B from the images s·n_(0^s)⁻¹ of G's generators under G → G/N ≅
    G_B.  Δ is read off the arcs: the flag pair an arc's ends see,
    carried back to block 0 by N, moves with the arc by the arc-moving
    element's image in G_B, so the pairs of all arcs are the G_B-orbit of
    one, and self paired as the arcs are."""
    graph, partition = q.base, q.partition
    quo, block_of = q.graph, partition.block_of
    if not quotient_is_nontrivial(graph, partition):
        raise TrivialQuotient("fibre data lives over a nontrivial quotient")
    gen_rows = q.action.generator_rows()
    block_step = point_step(q.block_action.generator_rows())
    walk, stab = stabilizer(0, graph.n, gen_rows, block_step)
    by_block = _regular_normal_subgroup(q, stab.chain, walk)
    normal = tuple(by_block[w] for w in range(quo.n))
    back = [_invert(x) for x in normal]
    points = partition.blocks[0]
    pos = {p: i for i, p in enumerate(points)}
    stab_gens = [_compose(s, back[partition.image(0, s)]) for s in gen_rows]
    eta = {c: j for j, c in enumerate(quo.adj[0])}
    vertex_code = tuple((pos[back[block_of[u]][u]], block_of[u]) for u in range(graph.n))

    def flag(u, v):
        """The flag (point, neighbouring block) that u sees towards v,
        carried back to block 0 by N."""
        x = back[block_of[u]]
        return pos[x[u]], eta[block_of[x[v]]]

    return FibreExtraction(
        source=q,
        design=cross_section_design(q, 0).design,
        normal=normal,
        stabilizer_order=stab.order,
        point_rows=tuple(tuple(pos[h[p]] for p in points) for h in stab_gens),
        eta=eta,
        delta=frozenset((flag(u, v), flag(v, u)) for u, v in graph.arcs),
        vertex_code=vertex_code,
    )


class FlagReconstruction(Record):
    graph: Graph
    action: Action
    report: TransitivityReport


def flag_orbital_reconstruction(fx: FibreExtraction) -> FlagReconstruction:
    """Rebuild the cover from its quotient, its fibre design, and the flag
    orbital its arcs trace.

    The group must split as N·G_B, N normal and regular on the quotient;
    with the fibre coordinates pinned to block 0, a pair of fibre points
    spans an arc exactly when the quotient pair is an arc and the pair of
    transported flags lies in the orbital.  Each generator s of G acts on
    the rebuilt cover by (x, v) ↦ (row_s[x], v^s), row_s the fibre row of
    s·n_(0^s)⁻¹.

    The record is taken as ``extract_fibre_data`` made it, and no fact of
    it is proved again: ``quotient`` certified the quotient symmetric; N's
    search made N normal and regular, so the fibre rows are G_B's rows;
    ``cross_section_design`` certified G_B flag transitive on the design;
    Δ is one self-paired G_B-orbit of flag pairs because it is read off
    the arcs.  The rebuilt cover is certified symmetric on the way out.
    """
    q, design, eta = fx.source, fx.design, fx.eta
    quo = q.graph
    npoints = design.n_points
    labels = []
    for x in range(npoints):
        labels.extend(f"{design.point_labels[x]}|{label}" for label in quo.labels)
    # the point pairs of Δ, by the neighbour numbers of their flags
    pairs: Dict[tuple, list] = {}
    for (x, jc), (y, jd) in fx.delta:
        pairs.setdefault((jc, jd), []).append((x, y))
    back = [_invert(row) for row in fx.normal_block_rows]
    arcs = [
        (x * quo.n + p, y * quo.n + b)
        for p, b in quo.arcs
        for x, y in pairs.get((eta[back[p][b]], eta[back[b][p]]), ())
    ]
    cover = Graph(labels, arcs)
    action = Action(
        q.block_action.group,
        cover.n,
        gen_rows=[
            tuple(prow[x] * quo.n + qrow[v] for x in range(npoints) for v in range(quo.n))
            for prow, qrow in zip(fx.point_rows, q.block_action.generator_rows())
        ],
    )
    report = verify_action(cover, action)
    certify(report.symmetric, "the reconstructed cover is symmetric")
    return FlagReconstruction(cover, action, report)
