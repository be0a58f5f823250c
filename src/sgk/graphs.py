"""Simple graphs, transitivity reports, s-arcs, and isomorphism search."""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Optional, Sequence

from .errors import NotInvariant
from .groups import Action, GroupLike, coerce_action
from .perm import Record, closure, orbits, tuple_step


class Graph:
    """Loopless undirected graph; arcs are kept as ordered pairs both ways."""

    __slots__ = ("labels", "arcs", "adj")

    def __init__(self, labels: Sequence[str], arcs: Iterable):
        self.labels = tuple(str(x) for x in labels)
        n = len(self.labels)
        arcset = frozenset((int(u), int(v)) for u, v in arcs)
        for u, v in arcset:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u}, {v}) leaves the vertex range")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if (v, u) not in arcset:
                raise ValueError(f"arc ({u}, {v}) has no reverse")
        self.arcs = arcset
        nbr = [[] for _ in range(n)]
        for u, v in arcset:
            nbr[u].append(v)
        self.adj = tuple(tuple(sorted(x)) for x in nbr)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable, labels: Optional[Sequence[str]] = None) -> "Graph":
        if labels is None:
            labels = [str(i + 1) for i in range(n)]
        arcs = []
        for u, v in edges:
            arcs.append((u, v))
            arcs.append((v, u))
        return cls(labels, arcs)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def arc_count(self) -> int:
        return len(self.arcs)

    @property
    def edge_count(self) -> int:
        return len(self.arcs) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def valency(self) -> Optional[int]:
        """The common degree, or None when the graph is irregular."""
        degs = {len(a) for a in self.adj}
        return degs.pop() if len(degs) == 1 else None

    def has_arc(self, u: int, v: int) -> bool:
        return (u, v) in self.arcs

    def induced_subgraph(self, vertices: Iterable[int]):
        """Subgraph on the given vertices (deduplicated, sorted), plus the
        new-to-old vertex map."""
        vs = tuple(sorted(set(vertices)))
        pos = {v: i for i, v in enumerate(vs)}
        arcs = [
            (pos[u], pos[v]) for u, v in self.arcs if u in pos and v in pos
        ]
        return Graph([self.labels[v] for v in vs], arcs), vs

    def __repr__(self) -> str:
        return f"<graph: {self.n} vertices, {self.edge_count} edges>"


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def connected_components(graph: Graph) -> list:
    return orbits(range(graph.n), graph.adj.__getitem__)


def is_connected(graph: Graph) -> bool:
    return len(connected_components(graph)) <= 1


def tuple_orbits(tuples: Sequence[tuple], gen_rows: Sequence[tuple]) -> list:
    """Orbits of the generator rows on a set of point tuples, which they
    must preserve; sorted, in the order of their first tuple."""
    out = orbits(tuples, tuple_step(gen_rows))
    if sum(map(len, out)) != len(set(tuples)):
        raise NotInvariant("the action moves some tuple off the set")
    return out


class TransitivityReport(Record):
    """What ``verify_action`` decides from the generator rows, with the
    graph and action it decided on; a construction taking a report reads
    both off it.  The s-arc level is ``s_arc_level`` and the kernel is
    ``Action.kernel_size``; each is worked out only where it is printed."""

    graph: Graph
    action: Action
    acts_as_automorphisms: bool
    vertex_transitive: bool
    arc_transitive: bool
    locally_transitive: bool

    @property
    def symmetric(self) -> bool:
        """Vertex transitive plus locally transitive automorphism action."""
        return (
            self.acts_as_automorphisms
            and self.vertex_transitive
            and self.locally_transitive
        )


def _preserves_arcs(graph: Graph, gen_rows: Sequence[tuple]) -> bool:
    arcs = graph.arcs
    return all((row[u], row[v]) in arcs for row in gen_rows for (u, v) in arcs)


def verify_action(graph: Graph, group: GroupLike) -> TransitivityReport:
    """Decide whether the action is symmetric on the graph.

    The generators must carry arcs to arcs, and the orbit of vertex 0
    decides vertex transitivity.  The orbit of one arc decides arc
    transitivity, which gives local transitivity too.  Otherwise one
    orbit split of the arcs decides the rest: the stabiliser of v is
    transitive on the neighbours of v exactly when the arcs leaving v lie
    in one orbit.
    """
    act = coerce_action(group, graph.n)
    gen_rows = act.generator_rows()
    acts = _preserves_arcs(graph, gen_rows)
    vertex_tr = not graph.n or len(act.orbit_of(0)) == graph.n
    if not acts:
        return TransitivityReport(graph, act, False, vertex_tr, False, False)
    arcs = list(graph.arcs)
    if not arcs or sum(1 for _ in closure(arcs[:1], tuple_step(gen_rows))) == len(arcs):
        return TransitivityReport(graph, act, True, vertex_tr, True, True)
    arc_orbits = tuple_orbits(arcs, gen_rows)
    orbit_of = {arc: k for k, orb in enumerate(arc_orbits) for arc in orb}
    local = all(
        len({orbit_of[(v, u)] for u in graph.adj[v]}) <= 1 for v in range(graph.n)
    )
    return TransitivityReport(graph, act, True, vertex_tr, False, local)


S_ARC_LIMIT = 5


def s_arc_level(report: TransitivityReport) -> int:
    """The largest s up to ``S_ARC_LIMIT`` such that the action is
    transitive on the s-arcs and on the shorter ones.

    0 when the report finds a generator breaking an arc or the action not
    vertex transitive.  Otherwise the graph is k-regular with
    n·k·(k−1)^(s−1) s-arcs, and the walk extends one s-arc by the least
    neighbour that is not a step back, stopping at the first s whose
    orbit falls short of that count or that has no s-arc.
    """
    graph = report.graph
    if not graph.n or not (report.acts_as_automorphisms and report.vertex_transitive):
        return 0
    step = tuple_step(report.action.generator_rows())
    k = len(graph.adj[0])
    walk = (0,)
    for s in range(1, S_ARC_LIMIT + 1):
        back = walk[-2] if s > 1 else None
        ahead = [u for u in graph.adj[walk[-1]] if u != back]
        if not ahead:
            return s - 1
        walk += (ahead[0],)
        count = graph.n * k * (k - 1) ** (s - 1)
        if sum(1 for _ in closure((walk,), step)) < count:
            return s - 1
    return S_ARC_LIMIT


def _joint_refinement(a: Graph, b: Graph):
    ca = [a.degree(v) for v in range(a.n)]
    cb = [b.degree(w) for w in range(b.n)]
    if sorted(ca) != sorted(cb):
        return None, None
    while True:
        siga = [
            (ca[v], tuple(sorted(ca[u] for u in a.adj[v]))) for v in range(a.n)
        ]
        sigb = [
            (cb[w], tuple(sorted(cb[u] for u in b.adj[w]))) for w in range(b.n)
        ]
        palette = {s: i for i, s in enumerate(sorted(set(siga) | set(sigb)))}
        na = [palette[s] for s in siga]
        nb = [palette[s] for s in sigb]
        if sorted(na) != sorted(nb):
            return None, None
        if len(set(na)) == len(set(ca)):
            return na, nb
        ca, cb = na, nb


def are_isomorphic(a: Graph, b: Graph):
    """A vertex bijection carrying arcs exactly onto arcs, or None.

    Colour refinement first, then backtracking inside colour classes with
    the most constrained vertex chosen next.  The backtracking keeps its
    own stack, so the vertex count is not bounded by the recursion limit.
    """
    n = a.n
    if n != b.n or a.arc_count != b.arc_count:
        return None
    ca, cb = _joint_refinement(a, b)
    if ca is None:
        return None
    if Counter(ca) != Counter(cb):
        return None
    by_colour: dict = {}
    for w, c in enumerate(cb):
        by_colour.setdefault(c, []).append(w)
    mapping = [-1] * n
    used = [False] * n

    def pick() -> int:
        best, best_key = -1, None
        for v in range(n):
            if mapping[v] >= 0:
                continue
            anchored = sum(1 for u in a.adj[v] if mapping[u] >= 0)
            key = (-anchored, len(by_colour[ca[v]]), v)
            if best_key is None or key < best_key:
                best, best_key = v, key
        return best

    def consistent(v: int, w: int) -> bool:
        for u in range(n):
            m = mapping[u]
            if m < 0:
                continue
            if ((u, v) in a.arcs) != ((m, w) in b.arcs):
                return False
        return True

    # depth first, on a stack of (vertex, candidates it has not tried)
    stack: list = []
    while len(stack) < n:
        v = pick()
        stack.append((v, iter(by_colour[ca[v]])))
        while stack:
            v, options = stack[-1]
            if mapping[v] >= 0:  # back from a dead end below: undo the choice
                used[mapping[v]], mapping[v] = False, -1
            w = next((w for w in options if not used[w] and consistent(v, w)), -1)
            if w >= 0:
                mapping[v], used[w] = w, True
                break
            stack.pop()
        if not stack:
            return None
    return tuple(mapping)


class DirectedSubgraph(Record):
    """A vertex set plus directed arcs among those vertices."""

    vertices: frozenset
    arcs: frozenset

    @classmethod
    def make(cls, vertices: Iterable[int], arcs: Iterable) -> "DirectedSubgraph":
        vs = frozenset(int(v) for v in vertices)
        ar = frozenset((int(u), int(v)) for u, v in arcs)
        for u, v in ar:
            if u not in vs or v not in vs:
                raise ValueError(f"arc ({u}, {v}) leaves the vertex set")
        return cls(vs, ar)

    def key(self) -> tuple:
        return (tuple(sorted(self.vertices)), tuple(sorted(self.arcs)))

    def image(self, row: Sequence[int]) -> "DirectedSubgraph":
        return DirectedSubgraph(
            frozenset(row[v] for v in self.vertices),
            frozenset((row[u], row[v]) for u, v in self.arcs),
        )
