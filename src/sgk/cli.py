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
from types import SimpleNamespace
from typing import Optional

from .claims import CLAIM_INVARIANTS, Certificate
from .cli_common import _write_text
from .cli_covers import cmd_biggs, cmd_extend, cmd_subgraph_graph, cmd_threearc
from .cli_designs import (
    cmd_design_from_graph,
    cmd_design_polarities,
    cmd_design_to_graph,
    cmd_design_validate,
    cmd_quotient,
)
from .cli_groups import cmd_blocks, cmd_cosetgraph, cmd_group, cmd_lattice, cmd_orbitals, cmd_verify
from .errors import CertificationFailed, KitError

__all__ = ["CLAIM_INVARIANTS", "main"]


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
