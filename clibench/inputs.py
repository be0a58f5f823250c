"""Seeded input files for the benchmark's generated jobs.

Every generated group and graph lives on points 1..n.  The seed picks a
random relabelling of those points for each named input world and a
random generator order for each group and subgroup string; involutions,
chain arcs and subgraph arcs are relabelled the same way, so each job
describes the same object up to a renaming of its points.  Every facet
of an input draws from its own ``random.Random`` keyed by the seed and
the input's name, so one seed always gives byte-identical files no
matter which workload asks for them, or in which order.
"""

import random


def symmetric_gens(n):
    return [[(1, 2)], [tuple(range(1, n + 1))]]


def alternating_gens(n):
    """A_n for even n: a 3-cycle and an (n-1)-cycle, both even."""
    return [[(1, 2, 3)], [tuple(range(2, n + 1))]]


def dihedral_gens(n):
    rotation = [tuple(range(1, n + 1))]
    reflection = [(i, n + 2 - i) for i in range(2, n // 2 + 2) if i < n + 2 - i]
    return [rotation, reflection]


# M11 on 11 points, order 7920
M11_GENS = [[tuple(range(1, 12))], [(3, 7, 11, 8), (4, 10, 5, 6)]]
Z2_GENS = [[(1, 2)]]
V4_GENS = [[(1, 2), (3, 4)], [(1, 3), (2, 4)]]


def complete_edges(n):
    return [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]


def cycle_edges(n):
    return [(i, i % n + 1) for i in range(1, n + 1)]


class World:
    """One relabelled copy of the points 1..n, with writers for its files."""

    def __init__(self, seed, name, n):
        self.seed = seed
        self.name = name
        self.n = n
        images = list(range(1, n + 1))
        self._rng("points").shuffle(images)
        self.sigma = dict(zip(range(1, n + 1), images))

    def _rng(self, facet):
        return random.Random(f"{self.seed}/{self.name}/{facet}")

    def perm(self, cycles):
        """Cycle notation of a permutation given as 1-based cycles."""
        return "".join(
            "(" + " ".join(str(self.sigma[p]) for p in cyc) + ")" for cyc in cycles
        )

    def gens(self, gens, facet):
        """Relabelled generator strings in a seeded order."""
        out = [self.perm(g) for g in gens]
        self._rng(facet).shuffle(out)
        return out

    def group_file(self, gens):
        return f"degree: {self.n}\n" + "".join(
            g + "\n" for g in self.gens(gens, "group")
        )

    def subgroup(self, gens, facet="subgroup"):
        return ",".join(self.gens(gens, facet))

    def graph_file(self, edges):
        relabelled = sorted(
            tuple(sorted((self.sigma[u], self.sigma[v]))) for u, v in edges
        )
        return f"vertices: {self.n}\n" + "".join(
            f"edge {u} {v}\n" for u, v in relabelled
        )

    def arc(self, u, v):
        return self.sigma[u], self.sigma[v]

    def subgraph_arcs(self, arcs):
        return ",".join("{}>{}".format(*self.arc(u, v)) for u, v in arcs)
