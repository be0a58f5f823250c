"""Coset graphs, orbitals, and the double coset dictionary."""

from __future__ import annotations

from .errors import (
    InsideSubgroup,
    NotInvolution,
    NotTransitive,
    certify,
)
from .graphs import Graph, TransitivityReport, verify_action
from .groups import Action, GroupLike, GroupTable
from .perm import Perm, Record, closure, is_involution, orbits, tuple_step
from .subgroups import (
    CosetSpace,
    double_cosets,
    right_cosets,
)


class CosetGraphResult(TransitivityReport):
    """The coset graph's report under the coset action, with its cosets,
    valency and arc stabiliser a⁻¹Ha ∩ H."""

    cosets: CosetSpace
    valency: int
    arc_stabilizer: GroupTable

    @property
    def arc_stabilizer_order(self) -> int:
        return self.arc_stabilizer.order


def symmetric_coset_graph(group: GroupTable, sub: GroupTable, a: tuple) -> CosetGraphResult:
    """Coset graph whose connecting set is the double coset HaH of an
    involution outside the subgroup; the canonical shape of a symmetric
    graph, certified on the way out.

    The arcs are the orbit of the one arc (Ha, H), so the double coset is
    never multiplied out, and the arc stabiliser is the stabiliser of Ha
    in H, given by its Schreier generators.  Neither G nor H is listed.
    """
    if a not in group:
        raise NotInvolution(f"{Perm(a).cycle_string()} is not in the group")
    if not is_involution(a):
        raise NotInvolution(f"{Perm(a).cycle_string()} is not an involution")
    if a in sub:
        raise InsideSubgroup(
            "the involution lies in the subgroup; the graph would have loops"
        )
    cosets = right_cosets(group, sub)
    labels = [Perm(rep).cycle_string() for rep in cosets.reps]
    ha = cosets.coset_of(a)
    # Hx joins Hy when x·y⁻¹ ∈ HaH, so the arcs are the G-orbit of the
    # arc (Ha, H); H is coset 0
    graph = Graph(labels, closure([(ha, 0)], tuple_step(cosets.generator_rows())))
    report = verify_action(graph, cosets.action())
    arc_stabilizer = cosets.stabilizer(sub.generators, ha)
    valency = graph.valency()
    certify(
        valency == sub.order // arc_stabilizer.order, "valency is |H| / |a⁻¹Ha ∩ H|"
    )
    certify(report.symmetric, "a double coset of an involution gives a symmetric graph")
    return CosetGraphResult(
        **report.asdict(), cosets=cosets, valency=valency, arc_stabilizer=arc_stabilizer
    )


# ---- orbitals -----------------------------------------------------------------


class Orbital(Record):
    pairs: tuple
    diagonal: bool
    self_paired: bool

    @property
    def size(self) -> int:
        return len(self.pairs)


def orbitals(group: GroupLike) -> list:
    """Orbits on ordered pairs of a transitive action, by least pair."""
    if isinstance(group, GroupTable):
        act = Action.natural(group)
    else:
        act = group
    n = act.n_points
    if len(act.orbit_of(0)) != n:
        raise NotTransitive("orbitals are defined for transitive actions")
    all_pairs = [(u, v) for u in range(n) for v in range(n)]
    out = []
    for pairs in orbits(all_pairs, tuple_step(act.generator_rows())):
        u, v = pairs[0]
        out.append(Orbital(tuple(pairs), diagonal=(u == v), self_paired=(v, u) in pairs))
    return out


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

