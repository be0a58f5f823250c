import itertools
import math
from pathlib import Path

import pytest

from sgk import fixtures as fx
from sgk.perm import Perm, closure
from sgk.perm import GroupTable

REPO = Path(__file__).resolve().parents[1]
FIXDIR = REPO / "fixtures"


def brute_force_isomorphic(a, b) -> bool:
    """Independent oracle: try every vertex bijection."""
    if a.n != b.n or a.edge_count != b.edge_count:
        return False
    degs_a = sorted(len(a.adj[v]) for v in range(a.n))
    degs_b = sorted(len(b.adj[v]) for v in range(b.n))
    if degs_a != degs_b:
        return False
    for pi in itertools.permutations(range(a.n)):
        if all((pi[u], pi[v]) in b.arcs for (u, v) in a.arcs):
            return True
    return False


def closure_listing(degree, generators):
    """The reference listing: every product of the generators, reached
    breadth first from the identity and then sorted by image tuple."""
    identity = tuple(range(degree))
    found, frontier = {identity}, [identity]
    while frontier:
        step = []
        for x in frontier:
            for g in generators:
                y = tuple(map(g.images.__getitem__, x))
                if y not in found:
                    found.add(y)
                    step.append(y)
        frontier = step
    return sorted(found)


def enumerate_s_arcs(graph, s: int) -> list:
    """Reference: every walk of s steps without immediate backtracking,
    in lex order."""
    walks = [(v,) for v in range(graph.n)]
    for _ in range(s):
        walks = [
            w + (u,) for w in walks for u in graph.adj[w[-1]]
            if len(w) < 2 or u != w[-2]
        ]
    return walks


def setwise_stabilizer(group, points) -> GroupTable:
    """Reference: every listed element that maps the points onto themselves."""
    pts = frozenset(points)
    return GroupTable(
        group.degree, [Perm(g) for g in group.elements if frozenset(g[x] for x in pts) == pts]
    )


def twist_everywhere(n_part, g_part, twist) -> dict:
    """Reference: ρ(g) for every listed element g of G, as a dict from
    N's image tuples to image tuples.  Each generator's images extend
    over N by ρ(m·t) = ρ(m)·ρ(t), then ρ(x·s) is ρ(x) followed by ρ(s)
    along G."""
    identity = n_part.identity()
    gen_maps = []
    for images in twist:
        f = {identity.images: identity}
        for m in list(closure([identity], lambda x: [x * t for t in n_part.generators])):
            for t, img in zip(n_part.generators, images):
                f.setdefault((m * t).images, f[m.images] * img)
        gen_maps.append({k: v.images for k, v in f.items()})
    rho = {g_part.identity().images: {p: p for p in n_part.elements}}
    for x in closure([g_part.identity()], lambda y: [y * s for s in g_part.generators]):
        for s, f in zip(g_part.generators, gen_maps):
            rho.setdefault((x * s).images, {n: f[v] for n, v in rho[x.images].items()})
    return rho


class SemidirectPairs:
    """Reference N ⋊ G, pair by pair from the listings of N and G.

    ``pairs`` holds every (η, g) as image tuples; ``mul`` multiplies them
    as (n₁, g₁)(n₂, g₂) = (n₁^ρ(g₂)·n₂, g₁g₂); ``perm`` is the image tuple
    of the permutation a pair makes on the elements of N, numbered as N
    lists them, followed by the points of G (n ↦ n^ρ(g)·η, p ↦ p^g);
    ``cover_row`` is its row on the vertices n·|V| + u of a Biggs cover,
    G acting on V as on its points.
    """

    def __init__(self, n_part, g_part, twist):
        self.rho = twist_everywhere(n_part, g_part, twist)
        self.n_elements = list(n_part.elements)
        self.number = {n: i for i, n in enumerate(self.n_elements)}
        self.pairs = [(eta, g) for eta in self.n_elements for g in g_part.elements]

    def mul(self, x, y):
        (n1, g1), (n2, g2) = x, y
        return product(self.rho[g2][n1], n2), product(g1, g2)

    def perm(self, x):
        eta, g = x
        m = len(self.n_elements)
        on_n = [self.number[product(self.rho[g][n], eta)] for n in self.n_elements]
        return tuple(on_n + [m + p for p in g])

    def cover_row(self, x, base_n):
        on_n, g = self.perm(x), x[1]
        m = len(self.n_elements)
        return tuple(on_n[i] * base_n + g[u] for i in range(m) for u in range(base_n))


def pgl2(q: int) -> GroupTable:
    """PGL(2, q), q prime, on the points 0..q-1 of GF(q) and ∞ = q, from
    x ↦ x+1, x ↦ ax (a a primitive root mod q) and x ↦ −1/x."""
    a = next(a for a in range(1, q) if len({pow(a, k, q) for k in range(q - 1)}) == q - 1)
    inverse = {x: pow(x, q - 2, q) for x in range(1, q)}
    shift = [(x + 1) % q for x in range(q)] + [q]
    scale = [a * x % q for x in range(q)] + [q]
    flip = [q] + [-inverse[x] % q for x in range(1, q)] + [0]
    return GroupTable(q + 1, [Perm(shift), Perm(scale), Perm(flip)])


def product(a, b):
    """Image tuple of a followed by b."""
    return tuple(b[i] for i in a)


def inverse(a):
    """Image tuple of the inverse of a."""
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def order(a) -> int:
    """The order of the image tuple a: the lcm of its cycle lengths."""
    seen, out = set(), 1
    for start in range(len(a)):
        length, x = 0, start
        while x not in seen:
            seen.add(x)
            x = a[x]
            length += 1
        if length:
            out = math.lcm(out, length)
    return out


@pytest.fixture(scope="session")
def s4():
    return fx.s4()


@pytest.fixture(scope="session")
def s5():
    return fx.s5()


@pytest.fixture(scope="session")
def d4():
    return fx.d4()


@pytest.fixture(scope="session")
def d6():
    return fx.d6()


@pytest.fixture(scope="session")
def z2():
    return fx.z2()


@pytest.fixture(scope="session")
def z6():
    return fx.z6()


@pytest.fixture(scope="session")
def oct_aut():
    return fx.octahedron_aut()


@pytest.fixture(scope="session")
def k4():
    return fx.k4_graph()


@pytest.fixture(scope="session")
def c6():
    return fx.c6_graph()


@pytest.fixture(scope="session")
def q3():
    return fx.q3_graph()


@pytest.fixture(scope="session")
def petersen():
    return fx.petersen_graph()


@pytest.fixture(scope="session")
def petersen_group():
    return fx.petersen_group()


@pytest.fixture(scope="session")
def octahedron():
    return fx.octahedron_graph()
