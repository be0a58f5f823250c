"""Checks the tracer's self-time and self-product arithmetic.

Runs on a synthetic span tree with known answers, including a span that
raised, and through the real wrapper with a fake clock and product
counter.  Usage: ``python3 clibench/check_tracer.py``; exits 1 and names
each mismatch when the arithmetic is wrong.  Traced benchmark runs call
``problems()`` before measuring.
"""

import sys

from tracer import RAISED, Tracer, aggregate

# cli [0, 10] products 0 -> 100
#   perm.enumerate_group [1, 4] products 10 -> 40
#     subgroups.core [2, 3] products 20 -> 30
#   designs.check_polarity [5, 6] products 50 -> 55, raised
#   io.parse_group_file [7, 9] products 60 -> 60
SPANS = [
    ["cli", -1, 0.0, 10.0, 0, 100, False, None],
    ["perm.enumerate_group", 0, 1.0, 4.0, 10, 40, False, 24],
    ["subgroups.core", 1, 2.0, 3.0, 20, 30, False, None],
    ["designs.check_polarity", 0, 5.0, 6.0, 50, 55, True, None],
    ["io.parse_group_file", 0, 7.0, 9.0, 60, 60, False, None],
]

EXPECTED = {
    "cli": {"calls": 1, "self_s": 4.0, "products": 65, "errors": 0},
    "perm.enumerate_group": {"calls": 1, "self_s": 2.0, "products": 20, "errors": 0,
                             "elements": 24},
    "subgroups.core": {"calls": 1, "self_s": 1.0, "products": 10, "errors": 0},
    "designs.check_polarity": {"calls": 1, "self_s": 1.0, "products": 5, "errors": 1},
    "io.parse_group_file": {"calls": 1, "self_s": 2.0, "products": 0, "errors": 0},
}


def _wrapped_run():
    """The same kind of tree, recorded by real wrappers under a fake clock."""
    ticks = iter(range(100))
    products = [0]
    tracer = Tracer()
    tracer.products = lambda: products[0]
    tracer.clock = lambda: next(ticks)

    def inner():
        products[0] += 3
        raise ValueError("inner fails")

    def outer():
        products[0] += 2
        try:
            wrapped_inner()
        except ValueError:
            pass
        return [1, 2]

    wrapped_inner = tracer._wrap("designs.check_polarity", inner)
    wrapped_outer = tracer._wrap("perm.enumerate_group", outer)
    tracer.open_root(next(ticks))
    wrapped_outer()
    tracer.close_root(next(ticks))
    return tracer


def problems():
    found = []
    got = aggregate(SPANS)
    if got != EXPECTED:
        found.append(f"synthetic tree: got {got}, expected {EXPECTED}")

    tracer = _wrapped_run()
    # clock ticks: root 0, outer 1, inner 2..3, outer ends 4, root ends 5
    want = {
        "cli": {"calls": 1, "self_s": 2, "products": 0, "errors": 0},
        "perm.enumerate_group": {"calls": 1, "self_s": 2, "products": 2, "errors": 0,
                                 "elements": 2},
        "designs.check_polarity": {"calls": 1, "self_s": 1, "products": 3, "errors": 1},
    }
    got = aggregate(tracer.spans)
    if got != want:
        found.append(f"wrapped calls: got {got}, expected {want}")
    if tracer.stack or not tracer.spans[2][RAISED]:
        found.append("the raising span was not closed and marked")
    return found


if __name__ == "__main__":
    bad = problems()
    for line in bad:
        print(line, file=sys.stderr)
    print("tracer arithmetic: " + ("FAILED" if bad else "ok"))
    sys.exit(1 if bad else 0)
