"""Graphs on the arcs and subgraphs of a symmetric graph: three-arc
graphs with the labelling test that recognises them, and subgraph graphs.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .constructions import _arc_label
from .errors import (
    DegreeMismatch,
    NotInvariant,
    NotInvolution,
    NotSelfPaired,
    NotSubgraph,
    NotSymmetric,
    TrivialQuotient,
    ValencyTooSmall,
    certify,
)
from .graphs import DirectedSubgraph, Graph, TransitivityReport, verify_action
from .groups import Action, GroupLike, coerce_action, stabilizer
from .perm import (
    Perm,
    Record,
    capped,
    closure,
    is_involution,
    orbit_map,
    orbits,
    point_step,
    tuple_step,
)
from .quotients import (
    Quotient,
    QuotientCertificate,
    certify_quotient,
    quotient,
    quotient_is_nontrivial,
)
from .subgroups import BlockSystem


# ---- three-arc graphs ------------------------------------------------------


class ThreeArcOrbit(Record):
    arcs: tuple
    self_paired: bool
    partner: int

    @property
    def size(self) -> int:
        return len(self.arcs)


def three_arc_orbits(report: TransitivityReport) -> list:
    """Orbits on 3-arcs, each with its reversal partner worked out.

    The orbits are sorted and listed in the order of their least 3-arc.
    A symmetric group is transitive on the vertices, and the stabiliser
    of 0 on its neighbours, so the least 3-arc of each orbit runs through
    the base arc (0, a), a the least neighbour of 0: the orbits of those
    3-arcs, taken in lex order, are all of them in that order.
    """
    if not report.symmetric:
        raise NotSymmetric("three-arc data needs a symmetric graph")
    graph = report.graph
    if not graph.arcs:
        return []
    adj = graph.adj
    a = adj[0][0]
    seeds = [(0, a, y, z) for y in adj[a] if y != 0 for z in adj[y] if z != a]
    walk_orbits = orbits(seeds, tuple_step(report.action.generator_rows()))
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


def three_arc_graph(report: TransitivityReport, orbit) -> ThreeArcGraph:
    """The graph on the arcs of a symmetric graph, joined through a
    self-paired orbit on 3-arcs: (σ,τ) meets (σ′,τ′) when (τ,σ,σ′,τ′)
    lies in the orbit.

    Grouping the vertices by initial vertex gives back the original
    graph, which is certified along with symmetry of the induced action;
    the certified quotient stays on the result's ``certificate``.
    """
    if not report.symmetric:
        raise NotSymmetric("three-arc graphs are built over symmetric graphs")
    graph, act = report.graph, report.action
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
    certificate = certify_quotient(quotient(tag_report, partition))
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
