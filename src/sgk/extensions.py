"""Extensions of a symmetric graph: arc-partition extensions over a finer
coset space, and the reconstruction of a cover from its fibre data.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Optional

from .coset_graphs import CosetGraphResult, symmetric_coset_graph
from .designs import IncidenceStructure
from .errors import (
    DegenerateInvolution,
    NoStrictChain,
    NotInvolution,
    NotSemidirect,
    TrivialQuotient,
    certify,
)
from .graphs import Graph, TransitivityReport, verify_action
from .groups import Action, GroupTable, StabChain, stabilizer
from .perm import (
    Perm,
    Record,
    _compose,
    _invert,
    _witnesses,
    capped,
    closure,
    is_involution,
    orbit_map,
    point_step,
    tuple_step,
)
from .quotients import Quotient, cross_section_design, quotient_is_nontrivial
from .subgroups import BlockSystem


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
