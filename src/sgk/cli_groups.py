"""The command handlers for groups, coset graphs, orbitals, block systems
and symmetric actions."""

from itertools import compress, count
from operator import ge
from typing import Optional

from .claims import Certificate
from .cli_common import _claim_symmetric, _graph_output, _load_graph, _load_group, _write_group_out
from .coset_graphs import orbitals, symmetric_coset_graph
from .errors import PointOutOfRange
from .graphs import is_connected, s_arc_level, verify_action
from .groups import Action
from .io import parse_subgroup_generators
from .perm import Perm, _compose, orbits, parse_cycles, point_step
from .subgroups import (
    all_block_systems,
    lattice_is_order_isomorphic,
    subgroup_block_lattice,
    subgroup_from_generators,
    system_from_block,
)


def _tiles(parts, domain) -> bool:
    """The parts tile the domain: their members, sorted, are the domain
    sorted, which proves them disjoint and covering at once."""
    return sorted(x for part in parts for x in part) == sorted(domain)


def cmd_group(args, cert: Certificate) -> Optional[str]:
    group = _load_group(cert, args.group)
    act = Action.natural(group)
    point_orbits = orbits(range(group.degree), point_step(act.generator_rows()))
    cert.facts.update(
        {
            "degree": group.degree,
            "order": len(group),
            "generators": [Perm(g).cycle_string() for g in group.generators],
            "transitive": len(point_orbits) == 1,
            "orbit_sizes": [len(o) for o in point_orbits],
        }
    )
    # an orbit's points have conjugate stabilisers: check at its least point
    bad = next(
        (orb[0] for orb in point_orbits
         if len(orb) * group.chain.stabilizer(orb[0]).order != len(group)),
        None,
    )
    cert.claim(
        "orbit-stabilizer",
        bad is None,
        f"|orbit| x |stabilizer| = {len(group)} at all {group.degree} points"
        if bad is None
        else {"point": bad + 1},
    )
    cert.claim(
        "orbit-partition",
        _tiles(point_orbits, range(group.degree)),
        f"{len(point_orbits)} orbits tile the {group.degree} points",
    )
    # the one listing of G, held to what every element number relies on
    listed = group.elements
    detail = None
    if len(listed) != len(group):
        detail = {"listed": len(listed), "order": len(group)}
    elif listed[0] != tuple(range(group.degree)):
        detail = {"first": Perm(listed[0]).cycle_string()}
    else:
        bad = next(compress(count(), map(ge, listed, listed[1:])), None)
        if bad is not None:
            detail = {
                "position": bad + 1,
                "element": Perm(listed[bad]).cycle_string(),
                "next": Perm(listed[bad + 1]).cycle_string(),
            }
    cert.claim(
        "enumeration-determinism",
        detail is None,
        f"one listing of all {len(group)} elements, the identity first,"
        " each image tuple less than the next"
        if detail is None
        else detail,
    )
    return None


def cmd_cosetgraph(args, cert: Certificate) -> Optional[str]:
    group = _load_group(cert, args.group)
    cert.add_input("subgroup", args.subgroup)
    sub = subgroup_from_generators(
        group, parse_subgroup_generators(args.subgroup, group.degree)
    )
    cert.add_input("involution", args.involution)
    a = parse_cycles(args.involution, group.degree)
    res = symmetric_coset_graph(group, sub, a)
    g, r = res.graph, res.report
    cert.facts.update(
        {
            "vertices": g.n,
            "valency": res.valency,
            "arc_stabilizer_order": res.arc_stabilizer_order,
            "kernel_order": res.action.kernel_size(),
            "connected": res.connected,
            # HaH is the union of the cosets next to H
            "connector_class_size": sub.order * len(g.adj[0]),
            "group_order": len(group),
            "subgroup_order": sub.order,
            "vertex_transitive": r.vertex_transitive,
            "arc_transitive": r.arc_transitive,
            "locally_transitive": r.locally_transitive,
            "s_arc_transitive_up_to": s_arc_level(r),
            "symmetric": r.symmetric,
        }
    )
    expect = sub.order // res.arc_stabilizer_order
    bad = next((v for v in range(g.n) if len(g.adj[v]) != expect), None)
    cert.claim(
        "valency-law",
        bad is None,
        f"degree {expect} = {sub.order}/{res.arc_stabilizer_order} at every vertex"
        if bad is None
        else {"vertex": g.labels[bad], "degree": len(g.adj[bad])},
    )
    # the stabiliser of the arc (H, Ha) in the coset action, against
    # a⁻¹Ha ∩ H as the stabiliser of the coset H in a⁻¹Ha
    cosets = res.cosets
    v_a = cosets.coset_of(a)
    by_action = res.arc_stabilizer
    by_algebra = cosets.stabilizer([_compose(_compose(a, h), a) for h in sub.generators], 0)

    def fixes_arc(x: tuple) -> bool:
        return cosets.coset_of(x) == 0 and cosets.coset_of(_compose(cosets.reps[v_a], x)) == v_a

    action_only = sorted(
        Perm(x).cycle_string()
        for x in by_action.generators
        if not (x in sub and _compose(_compose(a, x), a) in sub)
    )
    algebra_only = sorted(
        Perm(x).cycle_string() for x in by_algebra.generators if not fixes_arc(x)
    )
    same = by_action.order == by_algebra.order and not action_only and not algebra_only
    cert.claim(
        "arc-stabilizer-law",
        same,
        f"both sides have {by_algebra.order} elements"
        if same
        else {"action_only": action_only, "algebra_only": algebra_only},
    )
    _write_group_out(args, res.action)
    return _graph_output(g, args)


def cmd_orbitals(args, cert: Certificate) -> Optional[str]:
    group = _load_group(cert, args.group)
    orbs = orbitals(group)
    cert.facts.update(
        {
            "rank": len(orbs),
            "orbitals": [
                {
                    "size": ob.size,
                    "diagonal": ob.diagonal,
                    "self_paired": ob.self_paired,
                    "representative": [ob.pairs[0][0] + 1, ob.pairs[0][1] + 1],
                }
                for ob in orbs
            ],
        }
    )
    stab_rows = group.chain.stabilizer(0).generators
    suborbits = orbits(range(group.degree), point_step(stab_rows))
    cert.claim(
        "rank-consistency",
        len(orbs) == len(suborbits),
        {"rank": len(orbs), "stabilizer_orbits": len(suborbits)},
    )
    n = group.degree
    cert.claim(
        "orbit-partition",
        _tiles((ob.pairs for ob in orbs), [(u, v) for u in range(n) for v in range(n)]),
        f"{len(orbs)} orbitals tile the {group.degree ** 2} ordered pairs",
    )
    return None


def _first_bad_block(systems, broken) -> Optional[dict]:
    """The first system, and its first block, where ``broken(system
    number, block)`` holds, as a counterexample; None when it never does."""
    return next(
        ({"system": si, "block": [p + 1 for p in blk]}
         for si, system in enumerate(systems) for blk in system.blocks if broken(si, blk)),
        None,
    )


def cmd_blocks(args, cert: Certificate) -> Optional[str]:
    group = _load_group(cert, args.group)
    systems = all_block_systems(group)
    cert.facts.update(
        {
            "count": len(systems),
            "systems": [
                [[p + 1 for p in blk] for blk in sys_.blocks] for sys_ in systems
            ],
        }
    )
    gen_rows = group.generators
    block_sets = [{tuple(b) for b in system.blocks} for system in systems]
    bad = _first_bad_block(systems, lambda si, blk: any(
        tuple(sorted(row[p] for p in blk)) not in block_sets[si] for row in gen_rows
    ))
    cert.claim(
        "block-closure",
        bad is None,
        "every generator permutes the blocks of every system" if bad is None else bad,
    )
    # an element carrying a point of a block into the block fixes the block,
    # so a block's stabiliser sweeps the block exactly when the block lies
    # in one orbit
    orbit_of = {}
    for k, orb in enumerate(orbits(range(group.degree), point_step(gen_rows))):
        orbit_of.update(dict.fromkeys(orb, k))
    bad = _first_bad_block(systems, lambda si, blk: len({orbit_of[p] for p in blk}) != 1)
    cert.claim(
        "fiber-evaluation",
        bad is None,
        "each block's setwise stabilizer sweeps the block" if bad is None else bad,
    )
    return None


def cmd_lattice(args, cert: Certificate) -> Optional[str]:
    group = _load_group(cert, args.group)
    if not 1 <= args.base <= group.degree:
        raise PointOutOfRange(f"base point {args.base} outside 1..{group.degree}")
    pairs = subgroup_block_lattice(group, args.base - 1)
    cert.facts.update(
        {
            "base_point": args.base,
            "count": len(pairs),
            "pairs": [
                {
                    "subgroup_order": p.order,
                    "block": [x + 1 for x in p.block],
                }
                for p in pairs
            ],
        }
    )
    cert.claim(
        "lattice-isomorphism",
        lattice_is_order_isomorphic(pairs),
        "subgroup containment and block containment agree in both directions",
    )
    bad = None
    for p in pairs:
        try:
            system_from_block(group, p.block)
        except ValueError as exc:
            bad = {"block": [x + 1 for x in p.block], "reason": str(exc)}
            break
    cert.claim(
        "block-closure",
        bad is None,
        "every lattice block closes into a full system" if bad is None else bad,
    )
    return None


def cmd_verify(args, cert: Certificate) -> Optional[str]:
    graph = _load_graph(cert, args.graph)
    group = _load_group(cert, args.group)
    report = verify_action(graph, group)
    cert.facts.update(
        {
            "vertices": graph.n,
            "edges": graph.edge_count,
            "valency": graph.valency(),
            "connected": is_connected(graph),
            "acts_as_automorphisms": report.acts_as_automorphisms,
            "vertex_transitive": report.vertex_transitive,
            "arc_transitive": report.arc_transitive,
            "locally_transitive": report.locally_transitive,
            "s_arc_transitive_up_to": s_arc_level(report),
            "kernel_order": report.action.kernel_size(),
            "symmetric": report.symmetric,
        }
    )
    _claim_symmetric(cert, report)
    isolated = any(not graph.adj[v] for v in range(graph.n))
    if not isolated:
        cert.claim(
            "symmetric-iff-arc-transitive",
            report.symmetric == report.arc_transitive,
            {
                "symmetric": report.symmetric,
                "arc_transitive": report.arc_transitive,
            },
        )
    return None
