"""What every command handler of the command line shares: reading the
inputs into the certificate, writing the outputs, taking a quotient by
``--blocks``, and the symmetric-action claim."""

from typing import Optional

from .claims import Certificate
from .errors import NotInvariant
from .graphs import Graph, TransitivityReport, verify_action
from .groups import Action, GroupTable
from .io import (
    format_graph,
    format_group,
    graph_to_dot,
    parse_blocks_file,
    parse_graph_file,
    parse_group_file,
)
from .perm import Perm, closure, tuple_step
from .quotients import quotient


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


def _arc_pair(graph: Graph, u: int, v: int) -> list:
    return [graph.labels[u], graph.labels[v]]


def _claim_symmetric(cert: Certificate, report: TransitivityReport) -> None:
    """The symmetric-action claim for a report, with a counterexample on failure."""
    graph, act = report.graph, report.action
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


def _blocks_quotient(args, cert: Certificate, graph: Graph, group: GroupTable):
    """The quotient by ``--blocks``, naming a split block by vertex labels."""
    blocks_text = _read_text(args.blocks)
    cert.add_input("blocks", blocks_text)
    partition = parse_blocks_file(blocks_text, graph.n)
    try:
        return quotient(verify_action(graph, group), partition)
    except NotInvariant as exc:
        # the partition has the graph's size, so the refusal names a block
        names = ", ".join(graph.labels[v] for v in exc.vertices)
        raise NotInvariant(f"a generator splits block {{{names}}}") from None
