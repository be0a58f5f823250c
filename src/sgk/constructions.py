"""Constructions that grow new symmetric graphs out of old ones.

Semidirect products with chain labellings and their covers, three-arc
graphs with the labelling test that recognises them, subgraph graphs,
arc-partition extensions, and the fibre reconstruction from design data.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence

from .coset_graphs import CosetGraphResult, symmetric_coset_graph
from .designs import IncidenceStructure
from .errors import (
    CapExceeded,
    DegenerateInvolution,
    DegreeMismatch,
    InvalidChain,
    InverseSymmetryViolated,
    NoStrictChain,
    NotCompatible,
    NotInvariant,
    NotInvolution,
    NotSelfPaired,
    NotSelfPairedOrbital,
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
    enumerate_s_arcs,
    tuple_orbits,
    verify_action,
)
from .perm import (
    Action,
    GroupLike,
    GroupTable,
    Perm,
    closure,
    coerce_action,
    _witnesses,
    extend_on_generators,
    orbits,
    schreier_generators,
)
from .quotients import (
    Quotient,
    QuotientCertificate,
    certify_quotient,
    quotient,
    quotient_is_nontrivial,
)
from .subgroups import BlockSystem, Subgroup, right_cosets


# ---- semidirect products ---------------------------------------------------


def _automorphism_from_generator_images(n_part: GroupTable, images: Sequence[Perm]) -> tuple:
    """Extend generator images of N to a full automorphism row, by index.

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
                f"image {img.cycle_string()} lies outside N"
            )
    values = extend_on_generators(
        n_part, [n_part.index(img) for img in images], 0, n_part.product_index
    )
    if values is None:
        raise TwistNotHomomorphism("generator images contradict each other on N")
    if len(values) != len(n_part) or len(set(values.values())) != len(n_part):
        raise TwistNotHomomorphism("the induced map on N is not a bijection")
    return tuple(values[i] for i in range(len(n_part)))


class SemidirectGroup:
    """N ⋊ G under a twist ρ: G → Aut(N), elements indexed as pairs.

    Multiplication follows the composition convention used everywhere in
    this package (left factor acts first):

        (n₁, g₁)(n₂, g₂) = (n₁^{ρ(g₂)} n₂, g₁g₂)

    which is associative exactly when ρ(gh) = ρ(g) followed by ρ(h).  The
    instance quacks like a group table for Action purposes: ``__len__``,
    ``generator_indices``, ``product_index``, ``inverse_index``.
    """

    __slots__ = ("n_part", "g_part", "twist_rows")

    def __init__(self, n_part: GroupTable, g_part: GroupTable, twist_rows: tuple):
        self.n_part = n_part
        self.g_part = g_part
        self.twist_rows = twist_rows

    def __len__(self) -> int:
        return len(self.n_part) * len(self.g_part)

    def __repr__(self) -> str:
        return (
            f"<semidirect product of order {len(self)} = "
            f"{len(self.n_part)} x {len(self.g_part)}>"
        )

    def pair_index(self, ni: int, gi: int) -> int:
        return ni * len(self.g_part) + gi

    def pair_of(self, i: int) -> tuple:
        return divmod(i, len(self.g_part))

    def element_label(self, i: int) -> str:
        ni, gi = self.pair_of(i)
        return (
            f"({self.n_part.element(ni).cycle_string()}, "
            f"{self.g_part.element(gi).cycle_string()})"
        )

    def generator_indices(self) -> tuple:
        out = [self.pair_index(ni, 0) for ni in self.n_part.generator_indices()]
        out += [self.pair_index(0, gi) for gi in self.g_part.generator_indices()]
        return tuple(out)

    def product_index(self, i: int, j: int) -> int:
        n1, g1 = self.pair_of(i)
        n2, g2 = self.pair_of(j)
        n = self.n_part.product_index(self.twist_rows[g2][n1], n2)
        return self.pair_index(n, self.g_part.product_index(g1, g2))

    def inverse_index(self, i: int) -> int:
        ni, gi = self.pair_of(i)
        gj = self.g_part.inverse_index(gi)
        nj = self.n_part.inverse_index(self.twist_rows[gj][ni])
        return self.pair_index(nj, gj)

    def embed_n(self, ni: int) -> int:
        return self.pair_index(ni, 0)

    def embed_g(self, gi: int) -> int:
        return self.pair_index(0, gi)


def semidirect_product(
    n_part: GroupTable, g_part: GroupTable, twist: Sequence[Sequence[Perm]]
) -> SemidirectGroup:
    """Form N ⋊_ρ G from generator data for the twist.

    ``twist`` lists, for each generator of G in order, the images of the
    generators of N under ρ of that generator.  ρ is extended along the
    Cayley graph of G and checked on every edge of it: ρ(x·s) = ρ(x)
    followed by ρ(s) for each element x and generator s.  By induction on
    word length that makes ρ a homomorphism on all of G, so no pair of
    elements needs checking.
    """
    if len(twist) != len(g_part.generators):
        raise TwistNotHomomorphism(
            f"{len(twist)} automorphisms for {len(g_part.generators)} generators of G"
        )
    gen_rows = [
        _automorphism_from_generator_images(n_part, images) for images in twist
    ]
    size = len(g_part)
    values = extend_on_generators(
        g_part, gen_rows, tuple(range(len(n_part))), lambda r, s: tuple(s[x] for x in r)
    )
    if values is None:
        raise TwistNotHomomorphism("the twist does not extend to a homomorphism on G")
    if len(values) != size:
        raise TwistNotHomomorphism("the generators given do not generate G")
    rows = tuple(values[i] for i in range(size))
    sd = SemidirectGroup(n_part, g_part, rows)
    certify(
        all(row[0] == 0 for row in rows),
        "every twist automorphism fixes the identity of N",
    )
    # the two embedded copies multiply inside themselves; on generator
    # edges, which decides it for every pair
    certify(
        all(
            sd.product_index(sd.embed_n(i), sd.embed_n(s))
            == sd.embed_n(n_part.product_index(i, s))
            for i in range(len(n_part))
            for s in n_part.generator_indices()
        ),
        "N embeds as a subgroup",
    )
    certify(
        all(
            sd.product_index(sd.embed_g(i), sd.embed_g(s))
            == sd.embed_g(g_part.product_index(i, s))
            for i in range(size)
            for s in g_part.generator_indices()
        ),
        "G embeds as a subgroup",
    )
    return sd


def trivial_twist(n_part: GroupTable, g_part: GroupTable) -> list:
    return [list(n_part.generators) for _ in g_part.generators]


# ---- chains ----------------------------------------------------------------


@dataclass(frozen=True)
class NChain:
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
    values: Dict[tuple, int] = {}
    pending = []
    for arc, v in sorted(seeds.items()):
        arc = tuple(arc)
        if arc not in graph.arcs:
            raise InvalidChain(f"seed arc {arc} is not an arc of the graph")
        if not 0 <= v < len(n_part):
            raise InvalidChain(f"seed value {v} is outside N")
        values[arc] = v
        pending.append(arc)
    gen_pairs = list(zip(act.generator_rows(), _twists_for_generators(act, sd)))
    while pending:
        (u, v) = pending.pop()
        val = values[(u, v)]
        steps = [((v, u), n_part.inverse_index(val))]
        for row, trow in gen_pairs:
            steps.append(((row[u], row[v]), trow[val]))
        for arc, w in steps:
            old = values.get(arc)
            if old is None:
                values[arc] = w
                pending.append(arc)
            elif old != w:
                raise NotCompatible(
                    f"propagation assigns two values to the arc {arc}"
                )
    missing = graph.arcs - set(values)
    if missing:
        raise InvalidChain(
            f"{len(missing)} arcs are in orbits no seed touches, "
            f"first {min(missing)}"
        )
    return NChain.from_map(values)


def _generator_perms(act: Action) -> list:
    group = act.group
    if isinstance(group, GroupTable):
        return list(group.generators)
    raise DegreeMismatch("chains need the acting group as a plain group table")


def _twists_for_generators(act: Action, sd: SemidirectGroup) -> list:
    rows = []
    for g in _generator_perms(act):
        try:
            rows.append(sd.twist_rows[sd.g_part.index(g)])
        except KeyError:
            raise DegreeMismatch("the twist was built over a different group") from None
    return rows


@dataclass(frozen=True)
class ChainReport:
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
    if len(sd.g_part) != len(act.group):
        raise DegreeMismatch("the twist was built over a different group")
    n_part = sd.n_part
    for arc in graph.arcs:
        if not chain.has(*arc):
            raise InvalidChain(f"no value on arc {arc}")
        if not 0 <= chain.value(*arc) < len(n_part):
            raise InvalidChain(f"value on arc {arc} is outside N")
    for (u, v) in sorted(graph.arcs):
        if chain.value(v, u) != n_part.inverse_index(chain.value(u, v)):
            raise InverseSymmetryViolated(
                f"value on ({v}, {u}) is not the inverse of the value on ({u}, {v})"
            )
    gen_rows = act.generator_rows()
    gen_twists = _twists_for_generators(act, sd)
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


@dataclass(frozen=True)
class BiggsCover:
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
    m = len(n_part)
    labels = []
    for ni in range(m):
        stamp = n_part.element(ni).cycle_string()
        labels.extend(f"{stamp}|{lbl}" for lbl in graph.labels)
    arcs = []
    for (u, v) in graph.arcs:
        val = chain.value(u, v)
        for ni in range(m):
            arcs.append((ni * graph.n + u, n_part.product_index(val, ni) * graph.n + v))
    cover = Graph(labels, arcs)
    rows = []
    for i in range(len(sd)):
        eta, gi = sd.pair_of(i)
        grow = act.rows[gi]
        trow = sd.twist_rows[gi]
        row = [0] * cover.n
        for ni in range(m):
            nimg = n_part.product_index(trow[ni], eta)
            for u in range(graph.n):
                row[ni * graph.n + u] = nimg * graph.n + grow[u]
        rows.append(tuple(row))
    action = Action(sd, cover.n, tuple(rows))
    report = verify_action(cover, action)
    certify(report.symmetric, "the semidirect product is symmetric on the cover")
    fibres = BlockSystem.from_blocks(
        cover.n, [[ni * graph.n + u for ni in range(m)] for u in range(graph.n)]
    )
    certificate = certify_quotient(
        quotient(cover, action, fibres, report), allow_trivial=not graph.arcs
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


@dataclass(frozen=True)
class ThreeArcOrbit:
    arcs: tuple
    self_paired: bool
    pair_index: int

    @property
    def size(self) -> int:
        return len(self.arcs)


def three_arc_orbits(
    graph: Graph, group: GroupLike, report: Optional[TransitivityReport] = None
) -> list:
    """Orbits on 3-arcs, each with its reversal partner worked out.

    ``report``, when given, must be ``verify_action(graph, group)``; it
    spares a caller that holds it the second verification.
    """
    act = coerce_action(group, graph.n)
    if report is None:
        report = verify_action(graph, act)
    if not report.symmetric:
        raise NotSymmetric("three-arc data needs a symmetric graph")
    walks = [w for w in enumerate_s_arcs(graph, 3)]
    if not walks:
        return []
    walk_orbits = tuple_orbits(sorted(walks), act.generator_rows())
    where = {}
    for idx, orb in enumerate(walk_orbits):
        for t in orb:
            where[t] = idx
    out = []
    for idx, orb in enumerate(walk_orbits):
        rev = tuple(reversed(orb[0]))
        partner = where[rev]
        out.append(
            ThreeArcOrbit(tuple(orb), self_paired=(partner == idx), pair_index=partner)
        )
    return out


@dataclass(frozen=True)
class ThreeArcGraph:
    graph: Graph
    vertices: tuple
    action: Action
    report: TransitivityReport
    partition: BlockSystem
    certificate: QuotientCertificate
    reverse_adjacent: bool


def three_arc_graph(
    graph: Graph, group: GroupLike, orbit, report: Optional[TransitivityReport] = None
) -> ThreeArcGraph:
    """The graph on the arcs of a symmetric graph, joined through a
    self-paired orbit on 3-arcs: (σ,τ) meets (σ′,τ′) when (τ,σ,σ′,τ′)
    lies in the orbit.

    Grouping the vertices by initial vertex gives back the original
    graph, which is certified along with symmetry of the induced action;
    the certified quotient stays on the result's ``certificate``.
    ``report``, when given, must be ``verify_action(graph, group)``; it
    spares a caller that holds it the second verification.
    """
    act = coerce_action(group, graph.n)
    if report is None:
        report = verify_action(graph, act)
    if not report.symmetric:
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
    for t in delta:
        for row in gen_rows:
            if tuple(row[x] for x in t) not in delta:
                raise NotInvariant("the set given is not a union of orbits")
    averts = sorted(graph.arcs)
    index = {a: i for i, a in enumerate(averts)}
    labels = [f"({graph.labels[u]},{graph.labels[v]})" for (u, v) in averts]
    arcs = []
    for i, (sigma, tau) in enumerate(averts):
        for (s2, t2) in averts:
            if (tau, sigma, s2, t2) in delta:
                arcs.append((i, index[(s2, t2)]))
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
    certificate = certify_quotient(quotient(taggraph, action, partition, tag_report))
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

PE_BLOCK_LIMIT = 8


def check_condition_pe(q: Quotient) -> Optional[tuple]:
    """Look for a labelling of each block of a quotient by the quotient's
    neighbouring blocks that the group respects.

    Returns a tuple assigning each vertex a quotient vertex: within block
    B the map is a bijection onto Γ_𝓑(B) commuting with the setwise
    stabilizer of B, transported to the other blocks along the group.
    None when the sizes differ or no equivariant bijection exists.
    Equivariance is tested on the Schreier generators of the stabiliser,
    and each block is reached by the first product of generators found
    carrying block 0 there; an equivariant labelling does not depend on
    that choice.
    """
    graph, act, partition = q.base, q.action, q.partition
    quo, block_of, blocks = q.graph, partition.block_of, partition.blocks
    if not quotient_is_nontrivial(graph, partition):
        raise TrivialQuotient("the labelling test applies to nontrivial quotients")
    members = blocks[0]
    nbrs = quo.adj[0]
    if len(members) != len(nbrs):
        return None
    if len(members) > PE_BLOCK_LIMIT:
        raise CapExceeded(
            f"blocks of size {len(members)} are past the search limit {PE_BLOCK_LIMIT}"
        )
    gen_rows = act.generator_rows()

    def on_blocks(b, row):
        return block_of[row[blocks[b][0]]]

    stab = schreier_generators(graph.n, gen_rows, 0, on_blocks)
    rho0 = None
    for perm in itertools.permutations(nbrs):
        table = dict(zip(members, perm))
        if all(table[row[m]] == on_blocks(table[m], row) for row in stab for m in members):
            rho0 = table
            break
    if rho0 is None:
        return None
    # carry the block-0 labelling everywhere along a transversal
    carrier = _witnesses(0, tuple(range(graph.n)), gen_rows, on_blocks)
    labelling = [-1] * graph.n
    for row in carrier.values():
        for m in members:
            labelling[row[m]] = on_blocks(rho0[m], row)
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


@dataclass(frozen=True)
class SubgraphGraph:
    graph: Graph
    subgraphs: tuple
    action: Action
    report: TransitivityReport
    base_index: int
    stabilizer_order: int
    dropped_loops: bool


def subgraph_graph(
    graph: Graph, group: GroupLike, sub: DirectedSubgraph, a: Perm
) -> SubgraphGraph:
    """The graph on the orbit of a directed subgraph, with Υ^g joined to
    Υ^{ag} for every group element.

    When the involution fixes the subgraph those pairs are loops; they
    are dropped, which leaves the orbit edgeless, so the involution must
    move the subgraph for the construction to say anything.
    """
    act = coerce_action(group, graph.n)
    if isinstance(act.group, GroupTable):
        if a not in act.group:
            raise NotInvolution(f"{a.cycle_string()} is not in the group")
    if not a.is_involution():
        raise NotInvolution(f"{a.cycle_string()} is not an involution")
    if a.degree != graph.n:
        raise DegreeMismatch("the involution acts on the wrong number of points")
    for v in sub.vertices:
        if not 0 <= v < graph.n:
            raise NotSubgraph(f"vertex {v} is outside the graph")
    for (u, v) in sub.arcs:
        if (u, v) not in graph.arcs:
            raise NotSubgraph(f"({u}, {v}) is not an arc of the graph")
    gen_rows = act.generator_rows()
    orbit = {
        s.key(): s for s in closure((sub,), lambda s: [s.image(row) for row in gen_rows])
    }
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
    base_arc = (base_index, where[sub.image(a.images).key()])
    dropped = base_arc[0] == base_arc[1]
    arcs = [] if dropped else closure(
        (base_arc, base_arc[::-1]), lambda e: [(r[e[0]], r[e[1]]) for r in sub_rows]
    )
    out = Graph(labels, arcs)
    rows = extend_on_generators(
        act.group, sub_rows, tuple(range(n)), lambda r, s: tuple(s[x] for x in r)
    )
    certify(rows is not None, "the generator rows compose to an action on the subgraphs")
    action = Action(act.group, n, tuple(rows[i] for i in range(len(act.group))))
    report = verify_action(out, action)
    certify(report.symmetric, "the group is symmetric on the subgraph graph")
    stab = len(action.stabilizer_indices(base_index))
    certify(
        stab * len(subgraphs) == len(act.rows),
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


@dataclass(frozen=True)
class ArcExtension:
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
    group: GroupTable, sub: Subgroup, over: Subgroup, a: Perm
) -> ArcExtension:
    """Unfold the coset graph on H into the one on K < H by cutting each
    vertex into r = [H : K] bundles of arcs.

    Arcs of the base correspond to cosets of the arc stabilizer; grouping
    them by K-cosets and joining bundles that share a reversed arc builds
    the extension, which is certified to match the coset graph on K and
    to collapse back onto the base when bundles at a vertex are merged.
    """
    if a not in group:
        raise NotInvolution(f"{a.cycle_string()} is not in the group")
    if not a.is_involution():
        raise NotInvolution(f"{a.cycle_string()} is not an involution")
    if not over.member_images() <= sub.member_images():
        raise NoStrictChain("K must sit inside H")
    if a.images in over.member_images():
        raise DegenerateInvolution("the involution lies in K; arcs would fold flat")
    base = symmetric_coset_graph(group, sub, a)
    # a⁻¹Ha ∩ H is a subgroup by construction; the descent check below
    # re-derives it inside K
    conj = {(a * h * a).images for h in sub.elements}
    bar = Subgroup(group, tuple(p for p in sub.elements if p.images in conj))
    if not bar.member_images() < over.member_images():
        raise NoStrictChain(
            "K must strictly contain the arc stabilizer a⁻¹Ha ∩ H"
        )
    if over.order == sub.order:
        raise NoStrictChain("K must sit strictly inside H")
    kbar = {
        p.images
        for p in over.elements
        if (a * p * a).images in over.member_images()
    }
    certify(kbar == bar.member_images(), "the arc stabilizer survives the descent to K")
    # witness one group element per arc, breadth first from (H, Ha)
    h_cosets = base.cosets
    base_arc = (h_cosets.coset_of(group.identity()), h_cosets.coset_of(a))
    witness = {base_arc: group.identity()}
    frontier = [base_arc]
    gen_rows = base.action.generator_rows()
    while frontier:
        new = []
        for arc in frontier:
            w = witness[arc]
            for g, row in zip(group.generators, gen_rows):
                img = (row[arc[0]], row[arc[1]])
                if img not in witness:
                    witness[img] = w * g
                    new.append(img)
        frontier = new
    certify(set(witness) == base.graph.arcs, "the group walks to every arc")
    k_cosets = right_cosets(group, over)
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
    model = symmetric_coset_graph(group, over, a)
    labels = [
        model.cosets.reps[k_cosets.coset_of(witness[blk[0]])].cycle_string()
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


def _conjugacy_classes(group) -> list:
    gens = group.generator_indices()
    pairs = [(group.inverse_index(g), g) for g in gens]
    return orbits(
        range(len(group)),
        lambda x: [group.product_index(group.product_index(gi, x), g) for gi, g in pairs],
    )

_COMPLEMENT_GUARD = 1 << 20


def _regular_normal_subgroup(group, qact: Action, base: int) -> tuple:
    """A normal subgroup acting regularly on the quotient vertices.

    Normal subgroups are unions of conjugacy classes, so the search walks
    subsets of classes whose sizes add up, checks closure, and then
    regularity; first fit in a fixed order wins, NotSemidirect when the
    walk ends empty-handed.
    """
    want = qact.n_points
    classes = [c for c in _conjugacy_classes(group) if c != [0]]
    classes.sort(key=lambda c: c[0])
    hits: list = []
    budget = [_COMPLEMENT_GUARD]

    def walk(idx: int, chosen: list, total: int) -> bool:
        budget[0] -= 1
        if budget[0] < 0:
            raise CapExceeded("the search for a normal complement is too wide")
        if total == want - 1:
            members = {0}
            for c in chosen:
                members.update(c)
            if all(
                group.product_index(x, y) in members
                for x in members
                for y in members
            ):
                images = {qact.rows[x][base] for x in members}
                if len(images) == want:
                    hits.append(tuple(sorted(members)))
                    return True
            return False
        if idx == len(classes) or total >= want - 1:
            return False
        c = classes[idx]
        if total + len(c) <= want - 1:
            chosen.append(c)
            if walk(idx + 1, chosen, total + len(c)):
                return True
            chosen.pop()
        return walk(idx + 1, chosen, total)

    if not walk(0, [], 0):
        raise NotSemidirect(
            "no normal subgroup acts regularly on the quotient vertices"
        )
    return hits[0]


@dataclass(frozen=True)
class FibreExtraction:
    """Everything the reconstruction needs, read off an existing cover."""

    quotient: Graph
    quotient_action: Action
    base_block: int
    points: tuple
    design: IncidenceStructure
    point_rows: dict
    h_indices: tuple
    n_indices: tuple
    n_label: tuple
    eta: dict
    delta: frozenset
    vertex_code: tuple


def extract_fibre_data(q: Quotient) -> FibreExtraction:
    """Read the reconstruction data off the quotient of a symmetric cover
    by its fibres: the design a fibre sees, the stabilizer's action on
    that fibre, and the orbital of flag pairs the arcs trace out."""
    graph, act, partition = q.base, q.action, q.partition
    quo, qact = q.graph, q.block_action
    if not quotient_is_nontrivial(graph, partition):
        raise TrivialQuotient("fibre data lives over a nontrivial quotient")
    n_indices = _regular_normal_subgroup(act.group, qact, 0)
    n_label = [-1] * quo.n
    for x in n_indices:
        w = qact.rows[x][0]
        certify(n_label[w] < 0, "the normal subgroup is regular on the quotient")
        n_label[w] = x
    points = partition.blocks[0]
    pos = {p: i for i, p in enumerate(points)}
    h_indices = tuple(
        i for i in range(len(act.rows)) if qact.rows[i][0] == 0
    )
    point_rows = {
        i: tuple(pos[act.rows[i][p]] for p in points) for i in h_indices
    }
    nbrs = quo.adj[0]
    eta = {c: j for j, c in enumerate(nbrs)}
    flags = frozenset(
        (pos[p], eta[c])
        for p in points
        for c in nbrs
        if any(partition.block_of[w] == c for w in graph.adj[p])
    )
    design = IncidenceStructure(
        point_labels=tuple(graph.labels[p] for p in points),
        block_labels=tuple(quo.labels[c] for c in nbrs),
        flags=flags,
    )
    inverse = {x: act.group.inverse_index(x) for x in n_indices}
    code = []
    for u in range(graph.n):
        w = partition.block_of[u]
        back = act.rows[inverse[n_label[w]]]
        code.append((pos[back[u]], w))
    vertex_code = tuple(code)
    least = min(graph.arcs)
    f1, f2 = _decode_arc(least, partition, act, qact, inverse, n_label, pos, eta)
    delta = set()
    for i in h_indices:
        prow = point_rows[i]
        qrow = qact.rows[i]
        delta.add(
            (
                (prow[f1[0]], eta[qrow[nbrs[f1[1]]]]),
                (prow[f2[0]], eta[qrow[nbrs[f2[1]]]]),
            )
        )
    certify(
        all((b, a) in delta for (a, b) in delta),
        "the orbital of flag pairs is self paired",
    )
    return FibreExtraction(
        quotient=quo,
        quotient_action=qact,
        base_block=0,
        points=points,
        design=design,
        point_rows=point_rows,
        h_indices=h_indices,
        n_indices=n_indices,
        n_label=tuple(n_label),
        eta=eta,
        delta=frozenset(delta),
        vertex_code=vertex_code,
    )


def _decode_arc(arc, partition, act, qact, inverse, n_label, pos, eta):
    u, w = arc
    p, b = partition.block_of[u], partition.block_of[w]
    back_p = inverse[n_label[p]]
    back_b = inverse[n_label[b]]
    x = pos[act.rows[back_p][u]]
    y = pos[act.rows[back_b][w]]
    c = qact.rows[back_p][b]
    d = qact.rows[back_b][p]
    return (x, eta[c]), (y, eta[d])


@dataclass(frozen=True)
class FlagReconstruction:
    graph: Graph
    action: Action
    report: TransitivityReport
    n_indices: tuple
    h_indices: tuple
    n_label: tuple


def flag_orbital_reconstruction(
    quotient: Graph,
    group: GroupLike,
    design: IncidenceStructure,
    point_rows: dict,
    flag_orbital: Iterable[tuple],
    eta: Dict[int, int],
    base: int = 0,
) -> FlagReconstruction:
    """Rebuild the cover from its quotient, its fibre design, and the flag
    orbital its arcs trace.

    The group must split over a normal subgroup acting regularly on the
    quotient; with the fibre coordinates pinned to the base vertex, a pair
    of fibre points spans an arc exactly when the quotient pair is an arc,
    both transported incidences are flags, and the flag pair lies in the
    orbital.
    """
    act = coerce_action(group, quotient.n)
    report0 = verify_action(quotient, act)
    if not report0.symmetric:
        raise NotSymmetric("reconstruction starts from a symmetric quotient")
    n_indices = _regular_normal_subgroup(act.group, act, base)
    n_label = [-1] * quotient.n
    for x in n_indices:
        n_label[act.rows[x][base]] = x
    h_indices = tuple(i for i in range(len(act.rows)) if act.rows[i][base] == base)
    for i in h_indices:
        if i not in point_rows:
            raise ValueError(f"no fibre action for stabilizer element {i}")
    npoints = design.n_points
    for i in h_indices:
        row = point_rows[i]
        if len(row) != npoints or sorted(row) != list(range(npoints)):
            raise ValueError("fibre rows must permute the design points")
    for i in h_indices:
        for j in h_indices:
            k = act.group.product_index(i, j)
            if point_rows[k] != tuple(point_rows[j][x] for x in point_rows[i]):
                raise ValueError("fibre rows do not compose as the stabilizer does")
    nbrs = quotient.adj[base]
    if sorted(eta) != sorted(nbrs) or sorted(eta.values()) != list(
        range(design.n_blocks)
    ):
        raise ValueError("eta must pair the base's neighbours with the blocks")
    rev_eta = {j: c for c, j in eta.items()}
    # the stabilizer must preserve the design through the transported blocks
    for i in h_indices:
        prow = point_rows[i]
        qrow = act.rows[i]
        for (x, j) in design.flags:
            if (prow[x], eta[qrow[rev_eta[j]]]) not in design.flags:
                raise NotInvariant(
                    "the stabilizer does not preserve the fibre design"
                )
    delta = frozenset((tuple(f1), tuple(f2)) for f1, f2 in flag_orbital)
    for f1, f2 in delta:
        if f1 not in design.flags or f2 not in design.flags:
            raise NotSelfPairedOrbital("the orbital contains non-flags")
        if (f2, f1) not in delta:
            raise NotSelfPairedOrbital("the orbital is not self paired")

    def move(pair: tuple) -> list:
        (x1, j1), (x2, j2) = pair
        return [
            (
                (point_rows[i][x1], eta[act.rows[i][rev_eta[j1]]]),
                (point_rows[i][x2], eta[act.rows[i][rev_eta[j2]]]),
            )
            for i in h_indices
        ]

    if set(closure((min(delta),), move)) != delta:
        raise NotSelfPairedOrbital(
            "the set given is not a single orbit of the stabilizer"
        )
    inverse = {x: act.group.inverse_index(x) for x in n_indices}
    labels = []
    for x in range(npoints):
        labels.extend(
            f"{design.point_labels[x]}|{quotient.labels[v]}"
            for v in range(quotient.n)
        )
    arcs = []
    for (p, b) in quotient.arcs:
        back_p = act.rows[inverse[n_label[p]]]
        back_b = act.rows[inverse[n_label[b]]]
        c, d = back_p[b], back_b[p]
        jc, jd = eta[c], eta[d]
        for x in range(npoints):
            if (x, jc) not in design.flags:
                continue
            for y in range(npoints):
                if (y, jd) not in design.flags:
                    continue
                if ((x, jc), (y, jd)) in delta:
                    arcs.append((x * quotient.n + p, y * quotient.n + b))
    cover = Graph(labels, arcs)
    rows = []
    for g in range(len(act.rows)):
        n = n_label[act.rows[g][base]]
        h = act.group.product_index(g, act.group.inverse_index(n))
        prow = point_rows[h]
        qrow = act.rows[g]
        row = [0] * cover.n
        for x in range(npoints):
            for v in range(quotient.n):
                row[x * quotient.n + v] = prow[x] * quotient.n + qrow[v]
        rows.append(tuple(row))
    action = Action(act.group, cover.n, tuple(rows))
    report = verify_action(cover, action)
    certify(report.symmetric, "the reconstructed cover is symmetric")
    return FlagReconstruction(
        cover, action, report, tuple(n_indices), h_indices, tuple(n_label)
    )
