"""Incidence structures, 1-designs, and polarities."""

from __future__ import annotations

import math
from collections import Counter

from .errors import (
    AmbiguousBlockAction,
    DegenerateDesign,
    DegreeMismatch,
    NoBlockAction,
    NotFlagTransitive,
    NotPolarity,
    NotSymmetric,
    NotUniformBlocks,
    NotUniformPoints,
    certify,
)
from .graphs import Graph, TransitivityReport, verify_action
from .groups import GroupTable
from .perm import Perm, Record, _witnesses, closure, orbit_map, point_step


class IncidenceStructure(Record):
    """Labelled points and blocks with a flag set; repeated blocks are kept
    apart by their labels, so two blocks may carry the same trace."""

    point_labels: tuple
    block_labels: tuple
    flags: frozenset

    def __post_init__(self):
        traces = [set() for _ in self.block_labels]
        stars = [set() for _ in self.point_labels]
        for p, b in self.flags:
            if not 0 <= p < len(self.point_labels):
                raise ValueError(f"flag point {p} out of range")
            if not 0 <= b < len(self.block_labels):
                raise ValueError(f"flag block {b} out of range")
            traces[b].add(p)
            stars[p].add(b)
        object.__setattr__(self, "_traces", tuple(frozenset(t) for t in traces))
        object.__setattr__(self, "_stars", tuple(frozenset(s) for s in stars))
        # group -> its generators' block rows, built on first use
        object.__setattr__(self, "_block_rows", {})

    @property
    def n_points(self) -> int:
        return len(self.point_labels)

    @property
    def n_blocks(self) -> int:
        return len(self.block_labels)

    def trace(self, b: int) -> frozenset:
        return self._traces[b]

    def star(self, p: int) -> frozenset:
        return self._stars[p]

    def __repr__(self) -> str:
        return (
            f"<incidence structure: {self.n_points} points, "
            f"{self.n_blocks} blocks, {len(self.flags)} flags>"
        )


class DesignParams(Record):
    v: int
    b: int
    k: int
    lam: int
    multiplicity: int


def validate_design(inc: IncidenceStructure) -> DesignParams:
    """Parameters of a 1-design; uniformity failures name the culprit."""
    if inc.n_blocks == 0:
        raise NotUniformBlocks("there are no blocks at all")
    sizes = {len(inc.trace(b)) for b in range(inc.n_blocks)}
    if len(sizes) != 1:
        raise NotUniformBlocks(f"block sizes vary: {sorted(sizes)}")
    k = sizes.pop()
    if k == 0:
        raise NotUniformBlocks("blocks are empty")
    degrees = {len(inc.star(p)) for p in range(inc.n_points)}
    if len(degrees) != 1:
        raise NotUniformPoints(f"point degrees vary: {sorted(degrees)}")
    lam = degrees.pop()
    if lam == 0:
        raise NotUniformPoints("points lie in no blocks")
    counts = Counter(inc.trace(b) for b in range(inc.n_blocks))
    multiplicity = math.gcd(*counts.values())
    # double counting flags: v·λ and b·k both equal the flag count
    assert inc.n_points * lam == inc.n_blocks * k == len(inc.flags)
    return DesignParams(inc.n_points, inc.n_blocks, k, lam, multiplicity)


def generator_block_rows(inc: IncidenceStructure, group: GroupTable) -> tuple:
    """The block action of the generators, induced through traces, which
    decides every law below; built once per design and group.

    Needs pairwise distinct traces, otherwise the induced action is not
    well defined; raises NoBlockAction when some image set is not a trace.
    """
    if group in inc._block_rows:
        return inc._block_rows[group]
    if group.degree != inc.n_points:
        raise DegreeMismatch(
            f"group of degree {group.degree} against {inc.n_points} points"
        )
    labels = inc.block_labels
    trace_index = {}
    for b in range(inc.n_blocks):
        t = inc.trace(b)
        if t in trace_index:
            raise AmbiguousBlockAction(
                f"blocks {labels[trace_index[t]]} and {labels[b]} share a trace, "
                "so the block action is not defined"
            )
        trace_index[t] = b
    rows = []
    for g in group.generators:
        row = []
        for b in range(inc.n_blocks):
            img = frozenset(g[p] for p in inc.trace(b))
            if img not in trace_index:
                raise NoBlockAction(
                    f"{Perm(g).cycle_string()} does not carry block {labels[b]} to a block"
                )
            row.append(trace_index[img])
        rows.append(tuple(row))
    inc._block_rows[group] = rows = tuple(rows)
    return rows


def _flag_step(inc: IncidenceStructure, group: GroupTable):
    pairs = list(zip(group.generators, generator_block_rows(inc, group)))
    return lambda flag: [(g[flag[0]], row[flag[1]]) for g, row in pairs]


def is_flag_transitive(inc: IncidenceStructure, group: GroupTable) -> bool:
    step = _flag_step(inc, group)
    if not inc.flags:
        return False
    return set(closure((min(inc.flags),), step)) == set(inc.flags)


class Polarity(Record):
    """Mutually inverse maps between points and blocks."""

    point_map: tuple
    block_map: tuple


def check_polarity(inc: IncidenceStructure, group: GroupTable, pol: Polarity) -> None:
    """Raise NotPolarity unless ``pol`` is a group equivariant polarity.

    (p, b) -> (block_map[b], point_map[p]) is a bijection, so carrying
    flags to flags makes it preserve incidence both ways.
    """
    n = inc.n_points
    if inc.n_blocks != n:
        raise NotPolarity("point and block counts differ")
    if len(pol.point_map) != n or len(pol.block_map) != n:
        raise NotPolarity("maps have the wrong length")
    for p in range(n):
        if pol.block_map[pol.point_map[p]] != p:
            raise NotPolarity(f"maps are not mutually inverse at point {p}")
    for b in range(n):
        if pol.point_map[pol.block_map[b]] != b:
            raise NotPolarity(f"maps are not mutually inverse at block {b}")
    for p, b in sorted(inc.flags):
        if (pol.block_map[b], pol.point_map[p]) not in inc.flags:
            raise NotPolarity(f"flag duality fails at point {p}, block {b}")
    for g, row in zip(group.generators, generator_block_rows(inc, group)):
        for p in range(n):
            if pol.point_map[g[p]] != row[pol.point_map[p]]:
                raise NotPolarity(
                    f"{Perm(g).cycle_string()} does not commute with the polarity"
                )


def design_from_graph(report: TransitivityReport) -> tuple:
    """One block per vertex of the report's graph carrying its neighbourhood,
    plus the canonical polarity matching each vertex with its own block.

    Returns (design, polarity).
    """
    graph = report.graph
    if not report.symmetric:
        raise NotSymmetric("the design construction needs a symmetric graph")
    if any(len(graph.adj[v]) == 0 for v in range(graph.n)):
        raise NotSymmetric("isolated vertices would give empty blocks")
    block_labels = tuple(f"N({lbl})" for lbl in graph.labels)
    flags = frozenset((u, v) for (u, v) in graph.arcs)
    inc = IncidenceStructure(graph.labels, block_labels, flags)
    pol = Polarity(tuple(range(graph.n)), tuple(range(graph.n)))
    # blocks ride along with their vertices, so flag orbits are arc orbits
    certify(
        report.arc_transitive,
        "the neighbourhood design of a symmetric graph is flag transitive",
    )
    return inc, pol


def graph_from_design(
    inc: IncidenceStructure, group: GroupTable, pol: Polarity
) -> TransitivityReport:
    """Join p to q when q lies in the block the polarity assigns to p, and
    return the report that certifies the group symmetric on that graph.

    The polarity makes the arc set symmetric; degeneracy (a point on its
    own polar block) would create loops and is refused.
    """
    check_polarity(inc, group, pol)
    for p in range(inc.n_points):
        if (p, pol.point_map[p]) in inc.flags:
            raise DegenerateDesign(
                f"point {inc.point_labels[p]} lies on its own polar block; "
                "the graph would need a loop there"
            )
    arcs = []
    for p in range(inc.n_points):
        for q in inc.trace(pol.point_map[p]):
            arcs.append((p, q))
    graph = Graph(inc.point_labels, arcs)
    report = verify_action(graph, group)
    certify(report.symmetric, "a polarity of a flag transitive design gives a symmetric graph")
    certify(
        all(
            frozenset(graph.adj[v]) == inc.trace(pol.point_map[v])
            for v in range(graph.n)
        ),
        "neighbourhoods of the rebuilt graph are the polar traces",
    )
    return report


def find_polarities(inc: IncidenceStructure, group: GroupTable) -> list:
    """All group equivariant polarities of a flag transitive design.

    A polarity is pinned down by the image of one point because the group
    moves that point everywhere, and it must send that point to a block
    the point's stabiliser fixes; seeding each such block and extending
    along the generators finds every candidate.  By Schreier's lemma the
    stabiliser of 0 fixes block c exactly when t_x.g.t_y^-1 does for every
    edge x -> y = x^g of the orbit of 0, with t_x the witness carrying 0
    to x read as a block row: when row_g[t_x[c]] == t_y[c].
    """
    if not is_flag_transitive(inc, group):
        raise NotFlagTransitive("the group is not flag transitive on the design")
    n = inc.n_points
    if inc.n_blocks != n:
        return []
    step = _flag_step(inc, group)
    rows = generator_block_rows(inc, group)
    points = point_step(group.generators)
    wit = _witnesses(0, tuple(range(n)), rows, points)
    fixed = range(n)
    # deepest edges first: long cycles close there, so most blocks drop early
    for x in reversed(wit):
        tx = wit[x]
        for row, y in zip(rows, points(x)):
            ty = wit[y]
            fixed = [c for c in fixed if row[tx[c]] == ty[c]]
    out = []
    for seed in fixed:
        # an equivariant point_map is the orbit of (0, seed) read as a map
        table = orbit_map(((0, seed),), step)
        if table is None or len(table) != n or len(set(table.values())) != n:
            continue
        pm = [table[p] for p in range(n)]
        bm = [0] * n
        for p, b in enumerate(pm):
            bm[b] = p
        pol = Polarity(tuple(pm), tuple(bm))
        try:
            check_polarity(inc, group, pol)
        except NotPolarity:
            continue
        out.append(pol)
    return out
