"""Spans around sgk's layers, recorded from outside the package.

``Tracer.install`` replaces every public module-level function of each
layer module, wherever an ``sgk`` module binds it (``cli.py`` imports
them by name), with a wrapper that records a span, and wraps
``Perm.__mul__`` as a product counter.  Private helpers are not wrapped,
so their cost counts toward the public function that called them.

A span is ``[name, parent, start, end, products_at_start,
products_at_end, raised, size]``; the root span is the whole
``sgk.cli.main`` call and belongs to the ``cli`` layer.  Spans stay in
memory until the job ends.  Self time and self products are a span's own
figures minus those of its direct children: the program is single
threaded, so children never overlap.
"""

import functools
import json
import sys
import time
import types

LAYERS = (
    "perm",
    "subgroups",
    "coset_graphs",
    "graphs",
    "designs",
    "quotients",
    "constructions",
    "io",
)

# result sizes worth recording, by function
SIZES = {
    "perm.enumerate_group": ("elements", len),
    "subgroups.intermediate_subgroups": ("found", len),
    "coset_graphs.symmetric_coset_graph": ("arcs", lambda r: len(r.graph.arcs)),
    "graphs.enumerate_s_arcs": ("walked", len),
    "designs.block_rows": ("rows", len),
}

NAME, PARENT, START, END, P0, P1, RAISED, SIZE = range(8)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.products = lambda: 0
        self.clock = time.perf_counter

    def install(self):
        """Wrap the layers of the already imported ``sgk`` package."""
        from sgk.perm import Perm

        mul = Perm.__mul__
        count = 0

        def counted_mul(a, b):
            nonlocal count
            count += 1
            return mul(a, b)

        def products():
            return count

        Perm.__mul__ = counted_mul
        self.products = products

        wrapped = {}
        modules = [m for n, m in sys.modules.items() if n == "sgk" or n.startswith("sgk.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if not isinstance(value, types.FunctionType) or attr.startswith("_"):
                    continue
                owner = value.__module__.partition(".")[2]
                if owner not in LAYERS or value.__name__.startswith("_"):
                    continue
                if value not in wrapped:
                    wrapped[value] = self._wrap(f"{owner}.{value.__name__}", value)
                setattr(module, attr, wrapped[value])

    def _wrap(self, name, fn):
        spans, stack, products, clock = self.spans, self.stack, self.products, self.clock
        measure = SIZES.get(name, (None, None))[1]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1], clock(), 0.0, products(), 0, False, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = clock()
                span[P1] = products()
                stack.pop()
            if measure is not None:
                span[SIZE] = measure(result)
            return result

        return wrapper

    def open_root(self, start):
        self.stack.append(len(self.spans))
        self.spans.append(["cli", -1, start, 0.0, self.products(), 0, False, None])

    def close_root(self, end, raised=False):
        root = self.spans[self.stack.pop()]
        root[END] = end
        root[P1] = self.products()
        root[RAISED] = raised

    def aggregate(self):
        return aggregate(self.spans)

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def self_figures(spans):
    """Self time and self products of each span, in span order."""
    self_s = [s[END] - s[START] for s in spans]
    self_p = [s[P1] - s[P0] for s in spans]
    for s in spans:
        parent = s[PARENT]
        if parent >= 0:
            self_s[parent] -= s[END] - s[START]
            self_p[parent] -= s[P1] - s[P0]
    return self_s, self_p


def aggregate(spans):
    """Per-function totals: calls, self_s, products, errors and result sizes."""
    self_s, self_p = self_figures(spans)
    out = {}
    for s, t, p in zip(spans, self_s, self_p):
        entry = out.setdefault(
            s[NAME], {"calls": 0, "self_s": 0.0, "products": 0, "errors": 0}
        )
        entry["calls"] += 1
        entry["self_s"] += t
        entry["products"] += p
        entry["errors"] += s[RAISED]
        if s[NAME] in SIZES:
            figure = SIZES[s[NAME]][0]
            entry[figure] = entry.get(figure, 0) + (s[SIZE] or 0)
    return out
