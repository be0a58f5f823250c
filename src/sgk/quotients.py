"""Quotient graphs over invariant partitions, covers, cross sections, and
the dictionary between quotients and overgroup coset graphs."""

from __future__ import annotations

from typing import Optional

from .coset_graphs import CosetGraphResult, symmetric_coset_graph
from .designs import DesignParams, IncidenceStructure, validate_design
from .errors import (
    CertificationFailed,
    DegenerateQuotient,
    KitError,
    NotInvariant,
    NotNested,
    NotQuotientArc,
    NotSymmetric,
    TrivialQuotient,
    certify,
)
from .graphs import Graph, TransitivityReport, verify_action
from .groups import Action, GroupLike, GroupTable, coerce_action
from .perm import Record, _witnesses, closure, tuple_step
from .subgroups import BlockSystem, right_cosets


def quotient_action(system: BlockSystem, group: GroupLike) -> Action:
    """The action induced on the blocks, given by one row per generator;
    raises NotInvariant when a generator splits a block.  Rows of other
    elements are composed only if someone asks for ``rows``."""
    act = coerce_action(group, system.n_points)
    gen_rows = act.generator_rows()
    for row in gen_rows:
        for block in system.blocks:
            targets = {system.block_of[row[v]] for v in block}
            if len(targets) != 1:
                names = ", ".join(str(v + 1) for v in block)
                raise NotInvariant(f"a generator splits block {{{names}}}", block)
    return Action(act.group, system.n_blocks, gen_rows=[system.row(row) for row in gen_rows])


class Quotient(TransitivityReport):
    """One invariant partition of a symmetric graph, taken once: the
    report of the quotient graph under the action induced on the blocks,
    with ``source``, the report of the base graph under its action, and
    the partition.  Build it with ``quotient``; ``certify_quotient``,
    ``cross_section_design`` and the labelling and fibre readers take it
    as it is."""

    source: TransitivityReport
    partition: BlockSystem


def quotient(report: TransitivityReport, partition: BlockSystem) -> Quotient:
    """The quotient of a symmetric graph by an invariant partition, taken
    from the report that certified the graph symmetric under its action.

    Vertices are the blocks; two blocks are adjacent when any arc joins
    them.  Arcs inside a block are discarded, not marked.  The induced
    action on the result is certified symmetric, which the invariance of
    the partition guarantees.
    """
    graph, act = report.graph, report.action
    if partition.n_points != graph.n:
        raise NotInvariant(
            f"partition of {partition.n_points} points against a graph on {graph.n}"
        )
    if not report.symmetric:
        raise NotSymmetric("quotients are taken of symmetric graphs only")
    qact = quotient_action(partition, act)
    labels = tuple(
        f"B{i}:{graph.labels[block[0]]}" for i, block in enumerate(partition.blocks)
    )
    block_of = partition.block_of
    arcs = {(block_of[u], block_of[v]) for u, v in graph.arcs if block_of[u] != block_of[v]}
    quo = Graph(labels, sorted(arcs))
    quo_report = verify_action(quo, qact)
    certify(quo_report.symmetric, "the induced action on the quotient is symmetric")
    return Quotient(**quo_report.asdict(), source=report, partition=partition)


def quotient_is_nontrivial(graph: Graph, partition: BlockSystem) -> bool:
    """True when the graph has arcs and every arc crosses blocks.

    For a symmetric graph the arcs form one orbit, so either all of them
    cross (every block is an independent set and the quotient keeps full
    valency) or none do.  The partition into singletons is nontrivial
    here; the one-block partition never is.
    """
    if not graph.arcs:
        return False
    return all(
        partition.block_of[u] != partition.block_of[v] for u, v in graph.arcs
    )


def induced_bipartite(graph: Graph, partition: BlockSystem, b: int, c: int) -> Graph:
    """The bipartite graph an adjacent block pair induces.

    Vertices are the members of each block with a neighbour in the other
    one, arcs the original arcs between the two sides; vertex labels come
    from the host graph.
    """
    if not 0 <= b < partition.n_blocks or not 0 <= c < partition.n_blocks:
        raise NotQuotientArc(f"no blocks numbered {b} and {c}")
    if b == c:
        raise NotQuotientArc("need two distinct blocks")
    touched = set()
    cross = []
    for u, v in graph.arcs:
        if (partition.block_of[u], partition.block_of[v]) == (b, c):
            touched.add(u)
            touched.add(v)
            cross.append((u, v))
            cross.append((v, u))
    if not touched:
        raise NotQuotientArc(f"blocks {b} and {c} are not adjacent in the quotient")
    vs = sorted(touched)
    pos = {v: i for i, v in enumerate(vs)}
    return Graph(
        [graph.labels[v] for v in vs],
        [(pos[u], pos[v]) for u, v in cross],
    )


def cover_class(graph: Graph, partition: BlockSystem) -> str:
    """Classify the projection onto the quotient.

    ``cover`` when every vertex has exactly one neighbour in each adjacent
    block, ``multicover_proper`` when it always has at least one but
    sometimes several, ``neither`` when some vertex misses some adjacent
    block entirely.
    """
    if not quotient_is_nontrivial(graph, partition):
        raise TrivialQuotient("cover classification needs a nontrivial quotient")
    quo_arcs = set()
    for u, v in graph.arcs:
        quo_arcs.add((partition.block_of[u], partition.block_of[v]))
    lo, hi = None, None
    for bu, bv in quo_arcs:
        for u in partition.blocks[bu]:
            deg = sum(1 for w in graph.adj[u] if partition.block_of[w] == bv)
            lo = deg if lo is None else min(lo, deg)
            hi = deg if hi is None else max(hi, deg)
    if lo == 0:
        return "neither"
    return "cover" if hi == 1 else "multicover_proper"


class CrossSection(Record):
    """The design one block sees, with its parameters and the identity of
    its points in the host graph."""

    design: IncidenceStructure
    params: DesignParams
    points: tuple


def cross_section_design(q: Quotient, b: int) -> CrossSection:
    """The incidence structure on block b: one design block per quotient
    neighbour C, collecting the points of b that send an arc into C.

    Certifies the uniformity laws and flag transitivity of the setwise
    stabilizer of b, both guaranteed for symmetric graphs.  An element
    that carries a point of b into b fixes b, so the orbit of a flag
    under the stabiliser is its orbit under the group, cut down to b.
    """
    graph, act, partition, quo = q.source.graph, q.source.action, q.partition, q.graph
    if not quotient_is_nontrivial(graph, partition):
        raise TrivialQuotient("cross sections are cut through nontrivial quotients")
    if not 0 <= b < partition.n_blocks:
        raise NotQuotientArc(f"no block numbered {b}")
    neighbours = quo.adj[b]
    points = list(partition.blocks[b])
    where = {p: i for i, p in enumerate(points)}
    col_of = {c: j for j, c in enumerate(neighbours)}
    flags = set()
    for j, c in enumerate(neighbours):
        for p in points:
            if any(partition.block_of[w] == c for w in graph.adj[p]):
                flags.add((where[p], j))
    inc = IncidenceStructure(
        point_labels=tuple(graph.labels[p] for p in points),
        block_labels=tuple(quo.labels[c] for c in neighbours),
        flags=frozenset(flags),
    )
    try:
        params = validate_design(inc)
    except KitError as exc:
        raise CertificationFailed(
            f"certification failed: cross section is not uniform ({exc})"
        )
    p, j = min(flags)
    rows = list(zip(act.generator_rows(), q.action.generator_rows()))
    pairs = closure(((points[p], neighbours[j]),), lambda x: [(r[x[0]], qr[x[1]]) for r, qr in rows])
    orbit = {(where[v], col_of[c]) for v, c in pairs if v in where}
    certify(
        orbit == flags,
        "the setwise stabilizer is flag transitive on the cross section",
    )
    return CrossSection(inc, params, tuple(points))


class QuotientCertificate(Record):
    """What ``certify_quotient`` found out about ``source``."""

    source: Quotient
    nontrivial: bool
    cover_class: Optional[str]
    design_params: Optional[DesignParams]
    bipartite_uniform: Optional[bool]


def certify_quotient(q: Quotient, *, allow_trivial: bool = False) -> QuotientCertificate:
    """The facts a caller will want on file about a quotient: cover class,
    the verdict that the bipartite graphs induced by adjacent block pairs
    are all isomorphic, and the cross-sectional design numbers.

    The isomorphisms are explicit: a walk over the quotient's arcs from
    the least one (b0, c0) finds, for each arc (b, c), an element carrying
    b0 to b and c0 to c, and that element must carry the arcs from b0 to
    c0 exactly onto the arcs from b to c.

    Trivial quotients are refused unless ``allow_trivial`` is set; with it
    the classification fields come back as None.
    """
    graph, partition, quo = q.source.graph, q.partition, q.graph
    if not quotient_is_nontrivial(graph, partition):
        if not allow_trivial:
            raise TrivialQuotient("some arc stays inside a block (or there are no arcs)")
        return QuotientCertificate(q, False, None, None, None)
    kind = cover_class(graph, partition)
    arcs_sorted = sorted(quo.arcs)
    b0, c0 = arcs_sorted[0]
    block_of = partition.block_of
    between: dict = {}
    for u, v in graph.arcs:
        between.setdefault((block_of[u], block_of[v]), set()).add((u, v))
    arc_step = tuple_step(q.action.generator_rows())
    rows = q.source.action.generator_rows()
    carriers = _witnesses((b0, c0), tuple(range(graph.n)), rows, arc_step)

    def carried(arc) -> bool:
        t = carriers.get(arc)
        return t is not None and {(t[u], t[v]) for u, v in between[(b0, c0)]} == between[arc]

    uniform = all(map(carried, arcs_sorted))
    certify(uniform, "all induced bipartite graphs are isomorphic")
    section = cross_section_design(q, b0)
    return QuotientCertificate(q, True, kind, section.params, uniform)


class QuotientCosetForm(Record):
    """The two coset graphs of the quotient dictionary plus the block data
    tying them together."""

    base: CosetGraphResult
    quotient: Graph
    model: CosetGraphResult
    partition: BlockSystem
    vertex_map: tuple
    exact: bool


def quotient_as_coset_graph(
    group: GroupTable, sub: GroupTable, a: tuple, over: GroupTable
) -> QuotientCosetForm:
    """Quotient dictionary: the quotient of the coset graph on H by the
    blocks of K-cosets is the coset graph on K, for H < K < G.

    Builds both coset graphs, forms the block system the larger subgroup
    induces on the smaller one's cosets, and certifies that the quotient
    matches the second coset graph arc for arc.
    """
    if not all(h in over for h in sub.generators):
        raise NotNested("the quotient subgroup must contain the base subgroup")
    if sub.order == over.order:
        raise NotNested("the containment H < K must be strict")
    if over.order == len(group):
        raise NotNested("K must be a proper subgroup; one block is no quotient")
    if a in over:
        raise DegenerateQuotient(
            "the connecting involution lies in the larger subgroup; "
            "the quotient would collapse"
        )
    base = symmetric_coset_graph(group, sub, a)
    model = symmetric_coset_graph(group, over, a)
    k_cosets = right_cosets(group, over)
    blocks = [[] for _ in range(k_cosets.n_cosets)]
    for v in range(base.graph.n):
        blocks[k_cosets.coset_of(base.cosets.reps[v])].append(v)
    partition = BlockSystem.from_blocks(base.graph.n, blocks)
    quo = quotient(base, partition).graph
    # a block holds the H-cosets filling one K-coset; send it there
    vertex_map = tuple(
        k_cosets.coset_of(base.cosets.reps[block[0]]) for block in partition.blocks
    )
    certify(
        sorted(vertex_map) == list(range(model.graph.n)),
        "blocks land on the K-cosets bijectively",
    )
    mapped = {(vertex_map[u], vertex_map[v]) for u, v in quo.arcs}
    exact = mapped == model.graph.arcs
    certify(exact, "the quotient is the coset graph of the larger subgroup")
    return QuotientCosetForm(base, quo, model, partition, vertex_map, exact)
