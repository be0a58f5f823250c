"""Cayley graphs, coset graphs, orbitals, and the double coset dictionary."""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import (
    DegreeMismatch,
    DiagonalOrbital,
    InsideSubgroup,
    LoopConnector,
    NoFlippingInvolution,
    NotInverseClosed,
    NotInvolution,
    NotSelfPaired,
    NotSymmetric,
    NotTransitive,
    SpecInvariantViolated,
    certify,
)
from .graphs import Graph, TransitivityReport, is_connected, verify_action
from .perm import (
    Action,
    GroupLike,
    GroupTable,
    Perm,
    Record,
    closure,
    coerce_action,
    orbits,
    transversal,
    tuple_step,
)
from .subgroups import (
    CosetSpace,
    double_cosets,
    right_cosets,
    stabilizer_subgroup,
)


class CosetGraphSpec(Record):
    """Group, subgroup, and connecting set for a coset graph."""

    group: GroupTable
    sub: GroupTable
    connectors: frozenset

    def validate(self) -> None:
        if not self.connectors:
            raise SpecInvariantViolated("the connecting set is empty")
        for d in self.connectors:
            if d not in self.group:
                raise SpecInvariantViolated(
                    f"connector {d.cycle_string()} is outside the group"
                )
            if d in self.sub:
                raise SpecInvariantViolated(
                    f"connector {d.cycle_string()} lies in the subgroup"
                )
            if d.inverse() not in self.connectors:
                raise SpecInvariantViolated(
                    f"connecting set is not inverse closed at {d.cycle_string()}"
                )


def cayley_graph(group: GroupTable, connectors: Sequence[Perm]) -> Graph:
    """Vertices are the group elements; x joins y when x·y⁻¹ connects.

    Right multiplication is then an action by automorphisms, checked in the
    tests rather than here.
    """
    conn = frozenset(connectors)
    if not conn:
        raise SpecInvariantViolated("the connecting set is empty")
    ident = group.identity()
    for d in conn:
        if d not in group:
            raise SpecInvariantViolated(
                f"connector {d.cycle_string()} is outside the group"
            )
        if d == ident:
            raise LoopConnector("the identity would join every vertex to itself")
        if d.inverse() not in conn:
            raise NotInverseClosed(f"{d.cycle_string()} lacks its inverse")
    labels = [p.cycle_string() for p in group.elements]
    arcs = []
    for i, x in enumerate(group.elements):
        for d in conn:
            # x·y⁻¹ = d means y = d⁻¹·x
            arcs.append((i, group.index(d.inverse() * x)))
    return Graph(labels, arcs)


def _sabidussi(spec: CosetGraphSpec):
    spec.validate()
    cosets = right_cosets(spec.group, spec.sub)
    labels = [rep.cycle_string() for rep in cosets.reps]
    # Hx joins Hy when x·y⁻¹ = d, so the arcs are the G-orbits of the
    # arcs (Hd, H); H is coset 0
    seeds = [(cosets.coset_of(d), 0) for d in spec.connectors]
    arcs = closure(seeds, tuple_step(cosets.generator_rows()))
    return Graph(labels, arcs), cosets


def sabidussi_graph(spec: CosetGraphSpec) -> Graph:
    """Coset graph on right cosets of the subgroup: Hx joins Hy exactly
    when x·y⁻¹ falls in the connecting set."""
    graph, _ = _sabidussi(spec)
    return graph


class CosetGraphResult(Record):
    graph: Graph
    cosets: CosetSpace
    action: Action
    report: TransitivityReport
    valency: int
    arc_stabilizer: GroupTable
    connected: bool

    @property
    def arc_stabilizer_order(self) -> int:
        return self.arc_stabilizer.order

    @property
    def connector_class(self) -> tuple:
        """The connecting set HaH = {g : Hg is adjacent to H}, in element
        order: the elements h·r of H times the representatives r of the
        cosets next to H; this lists H."""
        cosets = self.cosets
        return tuple(
            sorted(h * cosets.reps[c] for c in self.graph.adj[0] for h in cosets.sub.elements)
        )


def symmetric_coset_graph(group: GroupTable, sub: GroupTable, a: Perm) -> CosetGraphResult:
    """Coset graph whose connecting set is the double coset HaH of an
    involution outside the subgroup; the canonical shape of a symmetric
    graph, certified on the way out.

    The arcs are the orbit of the one arc (Ha, H), so the double coset is
    never multiplied out, and the arc stabiliser is the stabiliser of Ha
    in H, given by its Schreier generators.  Neither G nor H is listed.
    """
    if a not in group:
        raise NotInvolution(f"{a.cycle_string()} is not in the group")
    if not a.is_involution():
        raise NotInvolution(f"{a.cycle_string()} is not an involution")
    if a in sub:
        raise InsideSubgroup(
            "the involution lies in the subgroup; the graph would have loops"
        )
    graph, cosets = _sabidussi(CosetGraphSpec(group, sub, frozenset({a})))
    action = cosets.action()
    report = verify_action(graph, action)
    arc_stabilizer = cosets.stabilizer(sub.generators, cosets.coset_of(a))
    valency = graph.valency()
    certify(
        valency == sub.order // arc_stabilizer.order, "valency is |H| / |a⁻¹Ha ∩ H|"
    )
    certify(report.symmetric, "a double coset of an involution gives a symmetric graph")
    return CosetGraphResult(
        graph=graph,
        cosets=cosets,
        action=action,
        report=report,
        valency=valency,
        arc_stabilizer=arc_stabilizer,
        connected=is_connected(graph),
    )


# ---- orbitals -----------------------------------------------------------------


class Orbital(Record):
    pairs: tuple
    diagonal: bool
    self_paired: bool

    @property
    def size(self) -> int:
        return len(self.pairs)


def orbitals(group: GroupLike, domain_size: Optional[int] = None) -> list:
    """Orbits on ordered pairs of a transitive action, by least pair."""
    if isinstance(group, GroupTable):
        act = Action.natural(group)
    else:
        act = group
    if domain_size is not None and domain_size != act.n_points:
        raise DegreeMismatch(
            f"action on {act.n_points} points, expected {domain_size}"
        )
    n = act.n_points
    if len(act.orbit_of(0)) != n:
        raise NotTransitive("orbitals are defined for transitive actions")
    all_pairs = [(u, v) for u in range(n) for v in range(n)]
    out = []
    for pairs in orbits(all_pairs, tuple_step(act.generator_rows())):
        u, v = pairs[0]
        out.append(Orbital(tuple(pairs), diagonal=(u == v), self_paired=(v, u) in pairs))
    return out


def orbital_graph(group: GroupLike, domain_size: Optional[int], orbital: Orbital) -> Graph:
    """The graph whose arc set is a self paired nondiagonal orbital."""
    if orbital.diagonal:
        raise DiagonalOrbital("the diagonal orbital has no arcs")
    if not orbital.self_paired:
        raise NotSelfPaired("the orbital is not closed under reversal")
    if isinstance(group, GroupTable):
        act = Action.natural(group)
    else:
        act = group
    n = act.n_points if domain_size is None else domain_size
    if act.n_points != n:
        raise DegreeMismatch(f"action on {act.n_points} points, expected {n}")
    # cheap re-check that the orbital really is one orbit of this action
    if set(closure(orbital.pairs[:1], tuple_step(act.generator_rows()))) != set(orbital.pairs):
        raise ValueError("the orbital does not match this action")
    return Graph([str(i + 1) for i in range(n)], orbital.pairs)


def orbital_double_coset_map(group: GroupTable, sub: GroupTable) -> list:
    """Pair each double coset HxH with the orbital that holds (H, Hy) for
    the cosets Hy in it, in the coset action.  The pairing is a
    bijection and is certified as one."""
    dcs = double_cosets(group, sub)
    orbs = orbitals(dcs.classes[0].space.action())
    orbital_of = {pair: k for k, ob in enumerate(orbs) for pair in ob.pairs}
    pairing = []
    used = set()
    for dc in dcs.classes:
        meets = {orbital_of[(0, c)] for c in dc.cosets}
        certify(len(meets) == 1, "each double coset meets exactly one orbital")
        k = meets.pop()
        certify(k not in used, "double cosets map to distinct orbitals")
        used.add(k)
        pairing.append((dc, orbs[k]))
    certify(len(used) == len(orbs), "every orbital is reached")
    return pairing


# ---- recognition ---------------------------------------------------------------


class RecognitionResult(Record):
    sub: GroupTable
    involution: Perm
    rebuilt: CosetGraphResult
    vertex_map: tuple
    exact: bool


def recognize_as_coset_graph(graph: Graph, group: GroupTable) -> RecognitionResult:
    """Write a symmetric graph as a coset graph on the stabiliser of its
    first vertex, using the least involution that flips an arc at that
    vertex.  The returned vertex map is certified to carry arcs exactly
    onto arcs."""
    act = coerce_action(group, graph.n)
    report = verify_action(graph, act)
    if not report.symmetric:
        raise NotSymmetric("the action is not symmetric on this graph")
    sub = stabilizer_subgroup(group, 0)
    flip = None
    for p in group.elements:
        if p.is_involution() and p.images[0] in graph.adj[0]:
            flip = p
            break
    if flip is None:
        raise NoFlippingInvolution(
            "no involution carries the base vertex to one of its neighbours"
        )
    rebuilt = symmetric_coset_graph(group, sub, flip)
    wit = transversal(group, 0)
    vmap = [rebuilt.cosets.coset_of(wit[v]) for v in range(graph.n)]
    exact = (
        len(set(vmap)) == graph.n
        and {(vmap[u], vmap[v]) for (u, v) in graph.arcs} == rebuilt.graph.arcs
    )
    certify(exact, "the transversal map is an isomorphism onto the coset graph")
    return RecognitionResult(
        sub=sub,
        involution=flip,
        rebuilt=rebuilt,
        vertex_map=tuple(vmap),
        exact=exact,
    )
