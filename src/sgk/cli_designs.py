"""The command handlers for quotients and designs."""

from typing import Optional

from .claims import Certificate
from .cli_common import (
    _blocks_quotient,
    _claim_symmetric,
    _graph_output,
    _load_graph,
    _load_group,
    _read_text,
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
from .errors import KitError, NotPolarity
from .graphs import verify_action
from .groups import Action
from .io import format_design, parse_design_file
from .perm import Perm, closure, point_step
from .quotients import certify_quotient


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


def cmd_design_from_graph(args, cert: Certificate) -> Optional[str]:
    graph = _load_graph(cert, args.graph)
    group = _load_group(cert, args.group)
    inc, pol = design_from_graph(verify_action(graph, group))
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
    rebuilt = graph_from_design(inc, group, pol).graph
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
    report = graph_from_design(inc, group, pol)
    cert.facts.update(
        {
            "polarities": len(pols),
            "polarity_index": args.polarity_index,
            "vertices": report.graph.n,
            "valency": report.graph.valency(),
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
    _claim_symmetric(cert, report)
    return _graph_output(report.graph, args)


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
