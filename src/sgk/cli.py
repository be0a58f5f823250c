"""Command line front end.

Every subcommand builds its object from text inputs, re-checks the claims
it advertises, and emits a JSON certificate recording input digests, the
measured facts, and each claim with a witness or a counterexample.

Exit status: 0 when every claim passed, 2 when a claim failed (the
certificate then carries a concrete counterexample), 1 when the input, an
output path or the command line itself was rejected, 3 when the program
itself crashed; rejections print a stable error code (or argparse's usage
message) on stderr, crashes ``internal-error`` and the exception, and
neither writes a certificate.

Certificates are deterministic byte for byte apart from ``timing_ms``:
keys are sorted and every collection is emitted in a canonical order.
"""

import sys
from itertools import compress, count
from operator import ge
from types import SimpleNamespace
from typing import Optional

from .claims import CLAIM_INVARIANTS, Certificate
from .constructions import (
    arc_partition_extension,
    biggs_cover,
    chain_from_seeds,
    check_condition_pe,
    check_three_arc_necessity,
    extract_fibre_data,
    flag_orbital_reconstruction,
    semidirect_product,
    three_arc_graph,
    three_arc_orbits,
)
from .designs import (
    check_polarity,
    design_from_graph,
    find_polarities,
    generator_block_rows,
    graph_from_design,
    is_flag_transitive,
    validate_design,
)
from .errors import CertificationFailed, KitError, NotInvariant, NotPolarity, PointOutOfRange
from .graphs import Graph, is_connected, s_arc_level, verify_action
from .io import (
    format_design,
    format_graph,
    format_group,
    graph_to_dot,
    parse_blocks_file,
    parse_chain_seeds,
    parse_design_file,
    parse_graph_file,
    parse_group_file,
    parse_subgroup_generators,
    parse_twist_file,
)
from .perm import (
    Action,
    GroupTable,
    Perm,
    _compose,
    closure,
    coerce_action,
    orbits,
    paired_order,
    parse_cycles,
    point_step,
    tuple_step,
)
from .quotients import certify_quotient, induced_bipartite, quotient
from .subgroups import (
    all_block_systems,
    lattice_is_order_isomorphic,
    subgroup_block_lattice,
    subgroup_from_generators,
    system_from_block,
)
from .coset_graphs import orbitals, symmetric_coset_graph

__all__ = ["CLAIM_INVARIANTS", "main"]

# ---- plumbing ----------------------------------------------------------------


def _read_text(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from None


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None


def _load_group(cert: Certificate, path: str, name: str = "group") -> GroupTable:
    """The group in the file, given by its generators: it answers from
    stabiliser chains and lists its elements only if something asks for
    them."""
    text = _read_text(path)
    cert.add_input(name, text)
    return parse_group_file(text)


def _load_graph(cert: Certificate, path: str, name: str = "graph") -> Graph:
    text = _read_text(path)
    cert.add_input(name, text)
    return parse_graph_file(text)


def _graph_output(graph: Graph, args) -> Optional[str]:
    """The graph in the ``--out`` format, or as edges when only
    ``--out-file`` is given."""
    fmt = args.out or ("edges" if args.out_file else None)
    if fmt is None:
        return None
    return graph_to_dot(graph) if fmt == "dot" else format_graph(graph)


def _induced_group_text(act: Action) -> str:
    """The acting group as a group file on the action's points.

    Unfaithful actions are written as their induced quotients, which is
    what a replay needs.
    """
    ident = tuple(range(act.n_points))
    rows = [row for row in dict.fromkeys(act.generator_rows()) if row != ident]
    return format_group(GroupTable(act.n_points, rows or [ident]))


def _write_group_out(args, act: Action) -> None:
    path = getattr(args, "group_out", None)
    if path:
        _write_text(path, _induced_group_text(act))


def _tiles(parts, domain) -> bool:
    """The parts tile the domain: their members, sorted, are the domain
    sorted, which proves them disjoint and covering at once."""
    return sorted(x for part in parts for x in part) == sorted(domain)


def _arc_pair(graph: Graph, u: int, v: int) -> list:
    return [graph.labels[u], graph.labels[v]]


def _claim_symmetric(cert: Certificate, graph: Graph, act: Action, report) -> None:
    """The symmetric-action claim with a concrete counterexample on failure."""
    if report.symmetric:
        cert.claim(
            "symmetric-action",
            True,
            f"vertex transitive and locally transitive on {graph.n} vertices",
        )
        return
    detail: dict = {}
    if not report.acts_as_automorphisms:
        for gen, row in zip(act.group.generators, act.generator_rows()):
            for (u, v) in sorted(graph.arcs):
                if (row[u], row[v]) not in graph.arcs:
                    detail = {
                        "kind": "generator breaks an arc",
                        "generator": Perm(gen).cycle_string(),
                        "arc": _arc_pair(graph, u, v),
                        "image": [graph.labels[row[u]], graph.labels[row[v]]],
                    }
                    break
            if detail:
                break
    elif not report.vertex_transitive:
        detail = {
            "kind": "vertex orbit is proper",
            "orbit_of_first_vertex": [graph.labels[v] for v in sorted(act.orbit_of(0))],
        }
    else:
        arcs = sorted(graph.arcs)
        orbit = set(closure(arcs[:1], tuple_step(act.generator_rows())))
        outside = next(a for a in arcs if a not in orbit)
        detail = {
            "kind": "two arcs in different orbits",
            "arc": _arc_pair(graph, *arcs[0]),
            "unreached_arc": _arc_pair(graph, *outside),
        }
    cert.claim("symmetric-action", False, detail)


# ---- subcommands -------------------------------------------------------------


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
            "s_arc_transitive_up_to": s_arc_level(g, res.action),
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


def _blocks_quotient(args, cert: Certificate, graph: Graph, group: GroupTable):
    """The quotient by ``--blocks``, naming a split block by vertex labels."""
    blocks_text = _read_text(args.blocks)
    cert.add_input("blocks", blocks_text)
    try:
        return quotient(graph, group, parse_blocks_file(blocks_text, graph.n))
    except NotInvariant as exc:
        if exc.vertices:
            names = ", ".join(graph.labels[v] for v in exc.vertices)
            raise NotInvariant(f"a generator splits block {{{names}}}") from None
        raise


def cmd_quotient(args, cert: Certificate) -> Optional[str]:
    graph = _load_graph(cert, args.graph)
    group = _load_group(cert, args.group)
    q = _blocks_quotient(args, cert, graph, group)
    qc = certify_quotient(q)
    act, qact, partition = q.action, q.block_action, q.partition
    p = qc.design_params
    cert.facts.update(
        {
            "base_vertices": graph.n,
            "blocks": partition.n_blocks,
            "quotient_vertices": qc.quotient.n,
            "quotient_valency": qc.quotient.valency(),
            "nontrivial": qc.nontrivial,
            "cover_class": qc.cover_class,
            "bipartite_uniform": qc.bipartite_uniform,
            "design": None if p is None else p.asdict(),
            "symmetric": qc.report.symmetric,
        }
    )
    cert.claim(
        "quotient-symmetry",
        qc.report.symmetric,
        "the induced action is symmetric on the quotient",
    )
    # on the generators, which gives it for every element by induction on
    # word length
    bad = None
    for gen, row, qrow in zip(group.generators, act.generator_rows(), qact.generator_rows()):
        for v in range(graph.n):
            if partition.block_of[row[v]] != qrow[partition.block_of[v]]:
                bad = {"generator": Perm(gen).cycle_string(), "vertex": graph.labels[v]}
                break
        if bad:
            break
    cert.claim(
        "quotient-homomorphism",
        bad is None,
        "block(v^g) = block(v)^g for every element and vertex" if bad is None else bad,
    )
    if p is not None:
        cert.claim(
            "design-double-count",
            p.v * p.lam == p.b * p.k,
            f"{p.v}x{p.lam} = {p.b}x{p.k} = {p.v * p.lam}",
        )
    if qc.cover_class == "cover":
        fibre = len(partition.blocks[0])
        ok = (
            graph.n == fibre * qc.quotient.n
            and graph.valency() == qc.quotient.valency()
        )
        cert.claim(
            "cover-arithmetic",
            ok,
            f"{graph.n} = {fibre} x {qc.quotient.n}, valency {graph.valency()} kept",
        )
    return _graph_output(qc.quotient, args)


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


def cmd_design_from_graph(args, cert: Certificate) -> Optional[str]:
    graph = _load_graph(cert, args.graph)
    group = _load_group(cert, args.group)
    inc, pol = design_from_graph(graph, group)
    params = validate_design(inc)
    ft = is_flag_transitive(inc, group)
    cert.facts.update(params.asdict(), flag_transitive=ft)
    val = graph.valency()
    cert.claim(
        "graph-design-parameters",
        params.v == params.b and params.k == params.lam == val,
        f"v = b = {params.v}, k = lambda = {params.k} = valency",
    )
    cert.claim(
        "design-double-count",
        params.v * params.lam == params.b * params.k,
        f"{params.v}x{params.lam} = {params.b}x{params.k}",
    )
    if ft:
        act = Action.natural(group)
        pt = len(act.orbit_of(0)) == inc.n_points
        gen_rows = generator_block_rows(inc, group)
        bt = len(list(closure((0,), point_step(gen_rows)))) == inc.n_blocks
        cert.claim(
            "flag-transitivity-propagates",
            pt and bt,
            {"point_transitive": pt, "block_transitive": bt},
        )
    rebuilt = graph_from_design(inc, group, pol)
    cert.claim(
        "design-round-trip",
        rebuilt.labels == graph.labels and rebuilt.arcs == graph.arcs,
        "the polar graph of the neighbourhood design matches the input",
    )
    return format_design(inc) if args.out == "design" or args.out_file else None


def cmd_design_to_graph(args, cert: Certificate) -> Optional[str]:
    text = _read_text(args.design)
    cert.add_input("design", text)
    inc = parse_design_file(text)
    group = _load_group(cert, args.group)
    pols = find_polarities(inc, group)
    if not pols:
        raise NotPolarity("the design admits no equivariant polarity")
    if not 0 <= args.polarity_index < len(pols):
        raise ValueError(
            f"polarity index {args.polarity_index} outside 0..{len(pols) - 1}"
        )
    pol = pols[args.polarity_index]
    graph = graph_from_design(inc, group, pol)
    report = verify_action(graph, group)
    cert.facts.update(
        {
            "polarities": len(pols),
            "polarity_index": args.polarity_index,
            "vertices": graph.n,
            "valency": graph.valency(),
            "symmetric": report.symmetric,
        }
    )
    try:
        check_polarity(inc, group, pol)
        cert.claim(
            "polarity-commutation", True, "the chosen polarity commutes with the group"
        )
    except KitError as exc:
        cert.claim("polarity-commutation", False, str(exc))
    _claim_symmetric(cert, graph, coerce_action(group, graph.n), report)
    return _graph_output(graph, args)


def cmd_design_polarities(args, cert: Certificate) -> Optional[str]:
    text = _read_text(args.design)
    cert.add_input("design", text)
    inc = parse_design_file(text)
    group = _load_group(cert, args.group)
    pols = find_polarities(inc, group)
    cert.facts.update(
        {
            "count": len(pols),
            "polarities": [
                {
                    "points_to_blocks": [
                        inc.block_labels[b] for b in pol.point_map
                    ]
                }
                for pol in pols
            ],
        }
    )
    bad = None
    for i, pol in enumerate(pols):
        try:
            check_polarity(inc, group, pol)
        except KitError as exc:
            bad = {"polarity_index": i, "reason": str(exc)}
            break
    cert.claim(
        "polarity-commutation",
        bad is None,
        f"all {len(pols)} polarities commute with the group" if bad is None else bad,
    )
    return None


def cmd_design_validate(args, cert: Certificate) -> Optional[str]:
    text = _read_text(args.design)
    cert.add_input("design", text)
    inc = parse_design_file(text)
    params = validate_design(inc)
    cert.facts.update(params.asdict())
    cert.claim(
        "design-double-count",
        params.v * params.lam == params.b * params.k,
        f"{params.v}x{params.lam} = {params.b}x{params.k} = {len(inc.flags)} flags",
    )
    return None


def cmd_threearc(args, cert: Certificate) -> Optional[str]:
    graph = _load_graph(cert, args.graph)
    group = _load_group(cert, args.group)
    orbs = three_arc_orbits(graph, group)
    cert.facts.update(
        {
            "orbit_count": len(orbs),
            "orbits": [
                {
                    "size": ob.size,
                    "self_paired": ob.self_paired,
                    "representative": [graph.labels[x] for x in min(ob.arcs)],
                }
                for ob in orbs
            ],
        }
    )
    if args.orbit_index is None:
        total = sum(ob.size for ob in orbs)
        cert.claim(
            "orbit-partition",
            total == graph.arc_count * (graph.valency() - 1) ** 2,
            f"{len(orbs)} orbits tile the {total} three-arcs",
        )
        return None
    if not 0 <= args.orbit_index < len(orbs):
        where = f" outside 0..{len(orbs) - 1}" if orbs else ": there are no 3-arc orbits"
        raise ValueError(f"orbit index {args.orbit_index}{where}")
    tag = three_arc_graph(graph, group, orbs[args.orbit_index])
    cert.facts.update(
        {
            "orbit_index": args.orbit_index,
            "vertices": tag.graph.n,
            "valency": tag.graph.valency(),
            "connected": is_connected(tag.graph),
            "reverse_adjacent": tag.reverse_adjacent,
        }
    )
    initial = [tag.vertices[blk[0]][0] for blk in tag.partition.blocks]
    collapsed = {
        (
            initial[tag.partition.block_of[u]],
            initial[tag.partition.block_of[v]],
        )
        for u, v in tag.graph.arcs
    }
    cert.claim(
        "three-arc-identification",
        tag.graph.n == graph.arc_count and collapsed == set(graph.arcs),
        f"{tag.graph.n} vertices = arcs of the base; initial-vertex collapse"
        " returns the base arcs",
    )
    _claim_symmetric(cert, tag.graph, tag.action, tag.report)
    labelling = check_condition_pe(tag.certificate.source)
    cert.facts["pe_labelling_found"] = labelling is not None
    if labelling is not None:
        cert.facts["three_arc_necessity"] = check_three_arc_necessity(
            tag.certificate.source, labelling
        )
    _write_group_out(args, tag.action)
    return _graph_output(tag.graph, args)


def cmd_biggs(args, cert: Certificate) -> Optional[str]:
    graph = _load_graph(cert, args.graph)
    group = _load_group(cert, args.group)
    n_part = _load_group(cert, args.n, name="n")
    twist_text = _read_text(args.twist)
    cert.add_input("twist", twist_text)
    twist = parse_twist_file(twist_text, n_part, group)
    sd = semidirect_product(n_part, group, twist)
    chain_text = _read_text(args.chain)
    cert.add_input("chain", chain_text)
    seeds = parse_chain_seeds(chain_text, graph, n_part)
    chain = chain_from_seeds(graph, group, sd, seeds)
    bc = biggs_cover(graph, group, sd, chain)
    cover = bc.cover
    cert.facts.update(
        {
            "base_vertices": graph.n,
            "cover_vertices": cover.n,
            "fibres": bc.fibres.n_blocks,
            "semidirect_order": len(sd),
            "valency": cover.valency(),
            "connected": is_connected(cover),
            "cover_class": bc.certificate.cover_class,
        }
    )
    paired = paired_order(sd.generators, bc.action.generator_rows())
    cert.claim(
        "biggs-action-law",
        paired == len(sd),
        f"the {len(sd.generators)} generators paired with their cover rows generate"
        f" {paired} elements, as N x G has"
        if paired == len(sd)
        else {"paired_order": paired, "semidirect_order": len(sd)},
    )
    cert.claim(
        "biggs-valency-preservation",
        cover.valency() == graph.valency(),
        f"valency {graph.valency()} preserved",
    )
    bad = None
    quo = bc.certificate.quotient
    for b, c in sorted(quo.arcs):
        if b > c:
            continue
        pattern = induced_bipartite(cover, bc.fibres, b, c)
        if pattern.valency() != 1 or pattern.n != 2 * len(bc.fibres.blocks[b]):
            bad = {"fibres": [b + 1, c + 1]}
            break
    cert.claim(
        "biggs-fiber-matching",
        bad is None,
        "every adjacent fibre pair meets in a perfect matching" if bad is None else bad,
    )
    report = bc.chain_report
    rep_seeds = {
        arc: value
        for arc, value in zip(report.orbit_representatives, report.representative_values)
    }
    again = chain_from_seeds(graph, group, sd, rep_seeds)
    cert.claim(
        "chain-determinacy",
        again.assignment == chain.assignment,
        f"{len(rep_seeds)} orbit seeds rebuild all {len(chain.assignment)} arc values",
    )
    fibre = len(bc.fibres.blocks[0])
    cert.claim(
        "cover-arithmetic",
        cover.n == fibre * quo.n and cover.valency() == quo.valency(),
        f"{cover.n} = {fibre} x {quo.n}, valency {quo.valency()} kept",
    )
    _claim_symmetric(cert, cover, bc.action, bc.report)
    _write_group_out(args, bc.action)
    return _graph_output(cover, args)


def _parse_directed_subgraph(spec: str, graph: Graph):
    from .graphs import DirectedSubgraph

    arcs = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        head, sep, tail = token.partition(">")
        if not sep:
            raise ValueError(f"expected 'u>v' arcs, got {token!r}")
        try:
            u, v = int(head), int(tail)
        except ValueError:
            raise ValueError(f"expected numbers in {token!r}") from None
        if not (1 <= u <= graph.n and 1 <= v <= graph.n):
            raise ValueError(f"arc {token!r} outside 1..{graph.n}")
        arcs.append((u - 1, v - 1))
    if not arcs:
        raise ValueError("the subgraph needs at least one arc")
    vertices = sorted({x for arc in arcs for x in arc})
    return DirectedSubgraph.make(vertices, arcs)


def cmd_subgraph_graph(args, cert: Certificate) -> Optional[str]:
    graph = _load_graph(cert, args.graph)
    group = _load_group(cert, args.group)
    cert.add_input("subgraph", args.subgraph)
    sub = _parse_directed_subgraph(args.subgraph, graph)
    cert.add_input("involution", args.involution)
    a = parse_cycles(args.involution, group.degree)
    from .constructions import subgraph_graph

    res = subgraph_graph(graph, group, sub, a)
    cert.facts.update(
        {
            "vertices": res.graph.n,
            "valency": res.graph.valency(),
            "connected": is_connected(res.graph),
            "stabilizer_order": res.stabilizer_order,
            "dropped_loops": res.dropped_loops,
            "orbit_size": len(res.subgraphs),
        }
    )
    cert.claim(
        "orbit-stabilizer",
        len(res.subgraphs) * res.stabilizer_order == len(group),
        f"{len(res.subgraphs)} x {res.stabilizer_order} = {len(group)}",
    )
    cert.claim(
        "subgraph-graph-transitivity",
        res.report.vertex_transitive
        and (res.report.arc_transitive or not res.graph.arcs),
        {
            "vertex_transitive": res.report.vertex_transitive,
            "arc_transitive": res.report.arc_transitive,
        },
    )
    _write_group_out(args, res.action)
    return _graph_output(res.graph, args)


def cmd_extend(args, cert: Certificate) -> Optional[str]:
    if args.via == "arcs":
        return _extend_arcs(args, cert)
    return _extend_flags(args, cert)


def _require_flags(args, names) -> None:
    missing = [f"--{n.replace('_', '-')}" for n in names if getattr(args, n) is None]
    if missing:
        raise ValueError(
            f"extend --via {args.via} needs {', '.join(missing)}"
        )


def _extend_arcs(args, cert: Certificate) -> Optional[str]:
    _require_flags(args, ("subgroup", "over", "involution"))
    group = _load_group(cert, args.group)
    cert.add_input("subgroup", args.subgroup)
    sub = subgroup_from_generators(
        group, parse_subgroup_generators(args.subgroup, group.degree)
    )
    cert.add_input("over", args.over)
    over = subgroup_from_generators(
        group, parse_subgroup_generators(args.over, group.degree)
    )
    cert.add_input("involution", args.involution)
    a = parse_cycles(args.involution, group.degree)
    ext = arc_partition_extension(group, sub, over, a)
    base = ext.base.graph
    cert.facts.update(
        {
            "r": ext.r,
            "base_vertices": base.n,
            "extension_vertices": ext.extension.n,
            "base_valency": base.valency(),
            "extension_valency": ext.extension.valency(),
            "block_valency": ext.block_valency,
            "edges": ext.extension.edge_count,
            "exact_model": ext.exact,
        }
    )
    counting = (
        ext.extension.n == ext.r * base.n
        and base.valency() == ext.r * ext.extension.valency()
        and ext.extension.edge_count == base.edge_count
    )
    cert.claim(
        "extension-counting",
        counting,
        f"{ext.extension.n} = {ext.r} x {base.n}; "
        f"{base.valency()} = {ext.r} x {ext.extension.valency()}; "
        f"{ext.extension.edge_count} edges on both levels",
    )
    collapsed = {
        (ext.head_map[u], ext.head_map[v]) for u, v in ext.extension.arcs
    }
    cert.claim(
        "quotient-homomorphism",
        collapsed == set(base.arcs),
        "collapsing bundle heads carries extension arcs onto the base arcs",
    )
    _claim_symmetric(cert, ext.model.graph, ext.model.action, ext.model.report)
    _write_group_out(args, ext.model.action)
    return _graph_output(ext.extension, args)


def _extend_flags(args, cert: Certificate) -> Optional[str]:
    _require_flags(args, ("graph", "blocks"))
    graph = _load_graph(cert, args.graph)
    group = _load_group(cert, args.group)
    fx = extract_fibre_data(_blocks_quotient(args, cert, graph, group))
    rb = flag_orbital_reconstruction(fx)
    cert.facts.update(
        {
            "quotient_vertices": fx.quotient.n,
            "fibre_points": fx.design.n_points,
            "design_blocks": fx.design.n_blocks,
            "flag_orbital_size": len(fx.delta),
            "rebuilt_vertices": rb.graph.n,
            "normal_subgroup_order": fx.normal_order,
            "stabilizer_order": fx.stabilizer_order,
        }
    )
    qn = fx.quotient.n
    remap = [code[0] * qn + code[1] for code in fx.vertex_code]
    exact = (
        sorted(remap) == list(range(rb.graph.n))
        and {(remap[u], remap[v]) for u, v in graph.arcs} == set(rb.graph.arcs)
    )
    cert.claim(
        "design-round-trip",
        exact,
        "fibre coordinates carry the cover arcs exactly onto the rebuilt arcs",
    )
    # N is regular on the quotient vertices, so one orbit means regularity held
    sweep = orbits(range(qn), point_step(fx.normal_block_rows))
    cert.claim(
        "fiber-transitivity",
        len(sweep) == 1,
        f"the normal subgroup is transitive on all {qn} quotient vertices",
    )
    _claim_symmetric(cert, rb.graph, rb.action, rb.report)
    _write_group_out(args, rb.action)
    return _graph_output(rb.graph, args)


def cmd_verify(args, cert: Certificate) -> Optional[str]:
    graph = _load_graph(cert, args.graph)
    group = _load_group(cert, args.group)
    act = coerce_action(group, graph.n)
    report = verify_action(graph, act)
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
            "s_arc_transitive_up_to": s_arc_level(graph, act),
            "kernel_order": act.kernel_size(),
            "symmetric": report.symmetric,
        }
    )
    _claim_symmetric(cert, graph, act, report)
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


# ---- wiring ------------------------------------------------------------------


_FILE = dict(required=True, metavar="FILE")
_GRAPH_OUT = (
    ("--out", dict(choices=("edges", "dot"), help="print the constructed graph in this format")),
    ("--out-file", dict(metavar="FILE", help="write the graph there instead")),
    ("--group-out", dict(metavar="FILE", help="write the induced acting group as a group file")),
)
_CERTIFICATE = ("--certificate", dict(metavar="FILE", help="write the certificate here"))


def _commands() -> tuple:
    """The commands as (name, help, handler, primary claim, arguments), in
    help order; each argument is a flag and its add_argument keywords, and
    every command takes --certificate last.  The handler of ``design`` is
    its table of modes, in the same shape.  Built per call, so that a
    handler patched on the module is the one dispatched."""
    return (
        ("group", "enumerate a group and certify its orbit arithmetic", cmd_group,
         "orbit-stabilizer", [("--group", _FILE)]),
        ("cosetgraph", "build the coset graph of a subgroup and an involution", cmd_cosetgraph,
         "valency-law", [
             ("--group", _FILE), ("--subgroup", dict(required=True, metavar="GENS")),
             ("--involution", dict(required=True, metavar="PERM")), *_GRAPH_OUT]),
        ("orbitals", "orbits on ordered pairs with rank checks", cmd_orbitals,
         "rank-consistency", [("--group", _FILE)]),
        ("quotient", "quotient a graph by an invariant partition", cmd_quotient,
         "quotient-symmetry", [
             ("--graph", _FILE), ("--group", _FILE), ("--blocks", _FILE),
             ("--out", dict(choices=("edges", "dot"), help="print the quotient in this format")),
             ("--out-file", dict(metavar="FILE"))]),
        ("blocks", "every invariant partition of a transitive group", cmd_blocks,
         "block-closure", [("--group", _FILE)]),
        ("lattice", "subgroups above a point stabilizer with their blocks", cmd_lattice,
         "lattice-isomorphism", [
             ("--group", _FILE), ("--base", dict(type=int, default=1, metavar="POINT"))]),
        ("design", "designs from graphs and back", (
            ("from-graph", "the neighbourhood design of a symmetric graph", cmd_design_from_graph,
             "graph-design-parameters", [
                 ("--graph", _FILE), ("--group", _FILE),
                 ("--out", dict(choices=("design",), help="print the design")),
                 ("--out-file", dict(metavar="FILE"))]),
            ("to-graph", "the graph of a design under a polarity", cmd_design_to_graph,
             "polarity-commutation", [
                 ("--design", _FILE), ("--group", _FILE),
                 ("--polarity-index", dict(type=int, default=0, metavar="K")),
                 ("--out", dict(choices=("edges", "dot"))), ("--out-file", dict(metavar="FILE"))]),
            ("polarities", "all equivariant polarities of a design", cmd_design_polarities,
             "polarity-commutation", [("--design", _FILE), ("--group", _FILE)]),
            ("validate", "1-design parameters of a design file", cmd_design_validate,
             "design-double-count", [("--design", _FILE)]),
        ), None, None),
        ("threearc", "three-arc orbits and their graphs", cmd_threearc,
         "three-arc-identification", [
             ("--graph", _FILE), ("--group", _FILE),
             ("--orbit-index", dict(type=int, metavar="K")), *_GRAPH_OUT]),
        ("biggs", "cover a graph by a chain over a semidirect product", cmd_biggs,
         "biggs-action-law", [
             ("--graph", _FILE), ("--group", _FILE),
             ("--n", dict(_FILE, help="the covering group N")), ("--twist", _FILE),
             ("--chain", _FILE), *_GRAPH_OUT]),
        ("subgraph-graph", "the graph on images of a directed subgraph", cmd_subgraph_graph,
         "subgraph-graph-transitivity", [
             ("--graph", _FILE), ("--group", _FILE),
             ("--subgraph", dict(required=True, metavar="ARCS", help="e.g. '3>4,4>1,1>3'")),
             ("--involution", dict(required=True, metavar="PERM")), *_GRAPH_OUT]),
        ("extend", "extend a symmetric graph over a finer coset space", cmd_extend,
         "extension-counting", [
             ("--via", dict(choices=("arcs", "flags"), required=True)), ("--group", _FILE),
             ("--subgroup", dict(metavar="GENS")),
             ("--over", dict(metavar="GENS", help="the finer subgroup K")),
             ("--involution", dict(metavar="PERM")), ("--graph", dict(metavar="FILE")),
             ("--blocks", dict(metavar="FILE")), *_GRAPH_OUT]),
        ("verify", "measure how transitively a group treats a graph", cmd_verify,
         "symmetric-action", [("--graph", _FILE), ("--group", _FILE)]),
    )


def _parse_plain(argv: list) -> Optional[SimpleNamespace]:
    """The namespace argparse gives a command line in the documented form,
    ``<command> [<mode>] --flag value ...``, read straight off the table;
    None for any other line (help, an abbreviated, ``=``-joined, repeated
    or missing flag, a value that is missing, starts with ``-`` or is not
    of the flag's type or choices), which the full parser then reads."""
    table, words = _commands(), {}
    for dest in ("command", "mode"):
        entry = next((e for e in table if argv[:1] == [e[0]]), None)
        if entry is None:
            return None
        words[dest], argv = argv[0], argv[1:]
        _, _, handler, claim, arguments = entry
        if not isinstance(handler, tuple):
            break
        table = handler
    options, given = dict((*arguments, _CERTIFICATE)), {}
    if len(argv) % 2:
        return None
    for flag, value in zip(argv[::2], argv[1::2]):
        opts = options.get(flag)
        if opts is None or flag in given or value.startswith("-"):
            return None
        if "type" in opts:
            try:
                value = opts["type"](value)
            except ValueError:
                return None
        if value not in opts.get("choices", (value,)):
            return None
        given[flag] = value
    if any(opts.get("required") and flag not in given for flag, opts in options.items()):
        return None
    values = {flag[2:].replace("-", "_"): given.get(flag, opts.get("default"))
              for flag, opts in options.items()}
    return SimpleNamespace(**words, **values, handler=handler, primary_claim=claim)


def _add_commands(parser, dest: str, table: tuple) -> None:
    """A subparser for each entry of ``table``."""
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, help_text, handler, claim, arguments in table:
        p = sub.add_parser(name, help=help_text)
        if isinstance(handler, tuple):
            _add_commands(p, "mode", handler)
            continue
        for flag, options in (*arguments, _CERTIFICATE):
            p.add_argument(flag, **options)
        p.set_defaults(handler=handler, primary_claim=claim)


def _build_parser():
    """The argparse parser of every command, for help and for the lines
    that ``_parse_plain`` leaves to it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="sgk",
        description="construct and certify symmetric graphs from permutation group data",
    )
    _add_commands(parser, "command", _commands())
    return parser


def _emit(args, cert: Certificate, output: Optional[str]) -> None:
    """The output to ``--out-file`` or stdout, and the certificate to
    ``--certificate``, or to stdout when the output did not go there.
    Both files are written first, so a run refused for a path it cannot
    write prints nothing."""
    out_file = getattr(args, "out_file", None)
    if output is not None and out_file:
        _write_text(out_file, output)
    text = cert.render()
    cert_path = getattr(args, "certificate", None)
    if cert_path:
        _write_text(cert_path, text)
    if output is not None and not out_file:
        sys.stdout.write(output)
    elif not cert_path:
        sys.stdout.write(text)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_plain(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            # a usage error is a rejected input; exit 2 means a failed claim
            return 1 if exc.code == 2 else exc.code
    name = args.command
    if getattr(args, "mode", None):
        name = f"{name}-{args.mode}"
    elif getattr(args, "via", None):
        name = f"{name}-{args.via}"
    cert = Certificate(name)
    try:
        output = args.handler(args, cert)
    except CertificationFailed as exc:
        # a construction tripped one of its own postconditions
        cert.claim(args.primary_claim, False, str(exc))
        output = None
    except KitError as exc:
        print(f"sgk: {exc.code}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"sgk: invalid-input: {exc}", file=sys.stderr)
        return 1
    except KeyError as exc:
        msg = exc.args[0] if exc.args else str(exc)
        print(f"sgk: invalid-input: {msg}", file=sys.stderr)
        return 1
    except Exception as exc:
        # a crash is neither bad input nor a counterexample
        print(f"sgk: internal-error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    try:
        _emit(args, cert, output)
    except ValueError as exc:
        print(f"sgk: invalid-input: {exc}", file=sys.stderr)
        return 1
    return 0 if cert.ok else 2


if __name__ == "__main__":
    sys.exit(main())
