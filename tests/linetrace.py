"""Every statement of ``src/sgk`` is reached by the test suite, or kept
here with its reason.

Run from the repository root:

    PYTHONPATH=src python tests/linetrace.py

The script traces the lines of ``src/sgk`` while ``pytest`` runs
``tests/``, then counts the ``ast`` statements that no test reached: every
statement but a ``def``, a ``class`` or a docstring.  A statement counts as
reached when any line of it ran; a compound statement (``if``, ``for``,
``try``, ...) counts its header only.  ``KEPT`` lists the statements that
may stay unreached, keyed by module and by the statement's source text with
its whitespace collapsed, never by line number; a text that stands in
several unreached places is listed once for each.  The script exits 1 when
a statement is unreached and not kept, or when a kept statement is reached,
and 2 when the suite itself fails.  Its name does not match ``test_*.py``,
so ``pytest`` does not collect it.  Tests that run ``sgk`` in a child
process are not traced.
"""

import ast
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "sgk")

# (module, statement, kind, reason).  The kinds: "claim", the false branch
# of a claim that no fault reaches yet, left to the work that makes every
# claim fail once; "defensive", code that no test in this process reaches,
# which stays for the reason given.
_NEVER_FALSE = "the claim is never false"
KEPT = [
    ("claims", "from hashlib import sha256 # a build without the built-in hashes",
     "defensive", "a Python built without its own SHA-256; tested in a child process"),
    ("cli", "sys.exit(main())",
     "defensive", "the entry of python -m sgk.cli; the tests call main in process"),
    ("cli_designs",
     'bad = {"generator": Perm(gen).cycle_string(), "vertex": graph.labels[v]}',
     "claim", f"quotient-homomorphism: {_NEVER_FALSE}, the block rows are read off the"
     " generator rows"),
    ("cli_designs", "break", "claim", f"quotient-homomorphism: {_NEVER_FALSE}"),
    ("cli_designs", "break", "claim", f"quotient-homomorphism: {_NEVER_FALSE}"),
    ("cli_designs", 'cert.claim("polarity-commutation", False, str(exc))',
     "claim", f"polarity-commutation in design to-graph: {_NEVER_FALSE}, graph_from_design"
     " has checked the polarity"),
    ("cli_designs", 'bad = {"polarity_index": i, "reason": str(exc)}',
     "claim", f"polarity-commutation in design polarities: {_NEVER_FALSE}, find_polarities"
     " keeps only checked polarities"),
    ("cli_designs", "break", "claim", f"polarity-commutation: {_NEVER_FALSE}"),
    ("cli_groups", 'detail = {"listed": len(listed), "order": len(group)}',
     "claim", f"enumeration-determinism: {_NEVER_FALSE}, the chain lists |G| elements"),
    ("cli_groups", 'detail = {"first": Perm(listed[0]).cycle_string()}',
     "claim", f"enumeration-determinism: {_NEVER_FALSE}, the identity sorts first"),
    ("cli_groups", 'bad = {"block": [x + 1 for x in p.block], "reason": str(exc)}',
     "claim", f"block-closure: {_NEVER_FALSE}, the lattice blocks are blocks"),
    ("cli_groups", "break", "claim", f"block-closure: {_NEVER_FALSE}"),
]

HIT = {}


def _trace(frame, event, arg):
    path = frame.f_code.co_filename
    if not path.startswith(SRC):
        return None
    lines = HIT.setdefault(path, set())

    def _line(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return _line

    return _line


def _last_line(node) -> int:
    """The last line of a statement, or of a compound statement's header."""
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return max(node.lineno, body[0].lineno - 1)
    return node.end_lineno


def _is_docstring(node, parent) -> bool:
    return (
        isinstance(parent, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def statements(source: str) -> list:
    """Each counted statement of a module: (first line, last line, key text)."""
    lines = source.splitlines()
    found = []
    for parent in ast.walk(ast.parse(source)):
        for field in ("body", "orelse", "finalbody"):
            nodes = getattr(parent, field, None)
            for node in nodes if isinstance(nodes, list) else ():
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    continue
                if _is_docstring(node, parent):
                    continue
                last = _last_line(node)
                text = " ".join(" ".join(lines[node.lineno - 1:last]).split())
                found.append((node.lineno, last, text))
    return sorted(found)


def unreached() -> tuple:
    """The statements no line of which ran, as (module, line, key text),
    and the number of statements counted."""
    missed, total = [], 0
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        with open(path, encoding="utf-8") as handle:
            counted = statements(handle.read())
        total += len(counted)
        ran = HIT.get(path, set())
        missed += [
            (name[:-3], first, text)
            for first, last, text in counted
            if ran.isdisjoint(range(first, last + 1))
        ]
    return missed, total


def main() -> int:
    import pytest

    sys.settrace(_trace)
    threading.settrace(_trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if status != 0:
        print(f"linetrace: the suite failed (pytest exit {status})")
        return 2
    missed, total = unreached()
    print(f"linetrace: {len(missed)} of {total} statements unreached")
    stale, bad = list(KEPT), 0
    for module, line, text in missed:
        entry = next((e for e in stale if e[:2] == (module, text)), None)
        if entry is None:
            bad += 1
        else:
            stale.remove(entry)
        print(f"  {module}.py:{line} [{'NOT KEPT' if entry is None else entry[2]}] {text}")
    for module, text, _, _ in stale:
        print(f"  kept but reached: {module}: {text}")
    print(f"linetrace: {bad} unreached and not kept, {len(stale)} kept but reached")
    return 1 if bad or stale else 0


if __name__ == "__main__":
    sys.exit(main())
