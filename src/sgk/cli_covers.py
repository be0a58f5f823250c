"""The command handlers for covers, three-arc and subgraph graphs, and
extensions."""

from collections import Counter
from typing import Optional

from .arc_graphs import (
    check_condition_pe,
    check_three_arc_necessity,
    subgraph_graph,
    three_arc_graph,
    three_arc_orbits,
)
from .claims import Certificate
from .cli_common import (
    _blocks_quotient,
    _claim_symmetric,
    _graph_output,
    _load_graph,
    _load_group,
    _read_text,
    _write_group_out,
)
from .constructions import biggs_cover, chain_from_seeds, semidirect_product
from .extensions import arc_partition_extension, extract_fibre_data, flag_orbital_reconstruction
from .graphs import DirectedSubgraph, Graph, is_connected, verify_action
from .groups import paired_order
from .io import parse_chain_seeds, parse_subgroup_generators, parse_twist_file
from .perm import orbits, parse_cycles, point_step
from .subgroups import subgroup_from_generators


def cmd_threearc(args, cert: Certificate) -> Optional[str]:
    graph = _load_graph(cert, args.graph)
    group = _load_group(cert, args.group)
    report = verify_action(graph, group)
    orbs = three_arc_orbits(report)
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
    tag = three_arc_graph(report, orbs[args.orbit_index])
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
    _claim_symmetric(cert, tag.report)
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
    # one pass over the arcs: two adjacent fibres meet in a perfect matching
    # when each vertex of either has exactly one neighbour in the other
    quo = bc.certificate.quotient
    fibre_of = bc.fibres.block_of
    meets = Counter((u, fibre_of[v]) for u, v in cover.arcs)
    unmatched = {
        tuple(sorted((fibre_of[u], c)))
        for u in range(cover.n) for c in quo.adj[fibre_of[u]] if meets[u, c] != 1
    }
    bad = {"fibres": [b + 1 for b in min(unmatched)]} if unmatched else None
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
    _claim_symmetric(cert, bc.report)
    _write_group_out(args, bc.action)
    return _graph_output(cover, args)


def _parse_directed_subgraph(spec: str, graph: Graph):
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
    # degree by degree: an extension that is not regular fails, not crashes
    counting = (
        ext.extension.n == ext.r * base.n
        and all(base.valency() == ext.r * len(nbrs) for nbrs in ext.extension.adj)
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
    _claim_symmetric(cert, ext.model.report)
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
    _claim_symmetric(cert, rb.report)
    _write_group_out(args, rb.action)
    return _graph_output(rb.graph, args)
