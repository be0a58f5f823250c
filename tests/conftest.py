import itertools
import math
from pathlib import Path

import pytest

from sgk import fixtures as fx
from sgk.groups import GroupTable
from sgk.perm import closure

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
                y = tuple(map(g.__getitem__, x))
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
        group.degree, [g for g in group.elements if frozenset(g[x] for x in pts) == pts]
    )


def twist_everywhere(n_part, g_part, twist) -> dict:
    """Reference: ρ(g) for every listed element g of G, as a dict from
    N's image tuples to image tuples.  Each generator's images extend
    over N by ρ(m·t) = ρ(m)·ρ(t), then ρ(x·s) is ρ(x) followed by ρ(s)
    along G."""
    identity = tuple(range(n_part.degree))
    gen_maps = []
    for images in twist:
        f = {identity: identity}
        for m in list(closure([identity], lambda x: [product(x, t) for t in n_part.generators])):
            for t, img in zip(n_part.generators, images):
                f.setdefault(product(m, t), product(f[m], img))
        gen_maps.append(f)
    g_identity = tuple(range(g_part.degree))
    rho = {g_identity: {p: p for p in n_part.elements}}
    for x in closure([g_identity], lambda y: [product(y, s) for s in g_part.generators]):
        for s, f in zip(g_part.generators, gen_maps):
            rho.setdefault(product(x, s), {n: f[v] for n, v in rho[x].items()})
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


def primitive_root(q: int) -> int:
    """The least generator of the multiplicative group mod the prime q."""
    return next(a for a in range(1, q) if len({pow(a, k, q) for k in range(q - 1)}) == q - 1)


def pgl2(q: int) -> GroupTable:
    """PGL(2, q), q prime, on the points 0..q-1 of GF(q) and ∞ = q, from
    x ↦ x+1, x ↦ ax (a a primitive root mod q) and x ↦ −1/x."""
    a = primitive_root(q)
    inverse = {x: pow(x, q - 2, q) for x in range(1, q)}
    shift = tuple((x + 1) % q for x in range(q)) + (q,)
    scale = tuple(a * x % q for x in range(q)) + (q,)
    flip = (q,) + tuple(-inverse[x] % q for x in range(1, q)) + (0,)
    return GroupTable(q + 1, [shift, scale, flip])


def psl2(q: int) -> GroupTable:
    """PSL(2, q), q a prime ≡ 3 mod 4, on the points 0..q-1 of GF(q) and
    ∞ = q, from x ↦ x+1, x ↦ a²x (a a primitive root mod q) and x ↦ −1/x,
    each of determinant 1."""
    shift, scale, flip = pgl2(q).generators
    return GroupTable(q + 1, [shift, product(scale, scale), flip])


def odd_graph(k: int):
    """The odd graph O_(k+1) and S_(2k+1) acting on it: the vertices are
    the k-subsets of {0, ..., 2k}, in lexicographic order, joined when
    disjoint; the group is generated by (1 2) and (1 2 ... 2k+1), each
    written as its image tuple on the subsets."""
    from sgk.graphs import Graph

    subsets = list(itertools.combinations(range(2 * k + 1), k))
    where = {s: i for i, s in enumerate(subsets)}
    edges = [
        (where[s], where[t])
        for s in subsets
        for t in itertools.combinations(sorted(set(range(2 * k + 1)) - set(s)), k)
        if s < t
    ]
    points = [(1, 0) + tuple(range(2, 2 * k + 1)), tuple(range(1, 2 * k + 1)) + (0,)]
    gens = [tuple(where[tuple(sorted(g[p] for p in s))] for s in subsets) for g in points]
    return Graph.from_edges(len(subsets), edges), GroupTable(len(subsets), gens)


def pg2_incidence(q: int):
    """The incidence graph of the projective plane PG(2, q), q prime, with
    the generator rows of PGL(3, q) on its vertices and the polarity.

    Vertices 0..N-1 are the points, N = q² + q + 1, as row vectors of
    GF(q)³ with first nonzero coordinate 1, in lexicographic order; vertex
    N + i is the line {x : x·p_i = 0}, whose normal vector is point i.  A
    matrix A moves p to pA and each line onto the line through the images
    of its points.  PGL(3, q) is generated by the elementary
    transvections I + E_ij and diag(a, 1, 1), a a primitive root mod q;
    the polarity swaps point i with line N + i."""
    from sgk.graphs import Graph

    def normalised(v):
        scale = pow(next(x for x in v if x), q - 2, q)
        return tuple(x * scale % q for x in v)

    points = sorted({normalised(v) for v in itertools.product(range(q), repeat=3) if any(v)})
    n = len(points)
    where = {p: i for i, p in enumerate(points)}
    on_line = [
        frozenset(i for i, p in enumerate(points) if sum(x * y for x, y in zip(p, u)) % q == 0)
        for u in points
    ]
    line_of = {pts: n + j for j, pts in enumerate(on_line)}
    matrices = [
        [[int(r == c) + int((r, c) == (i, j)) for c in range(3)] for r in range(3)]
        for i in range(3) for j in range(3) if i != j
    ]
    matrices.append([[primitive_root(q), 0, 0], [0, 1, 0], [0, 0, 1]])
    collineations = []
    for m in matrices:
        on_points = [
            where[normalised([sum(p[r] * m[r][c] for r in range(3)) % q for c in range(3)])]
            for p in points
        ]
        on_lines = [line_of[frozenset(on_points[i] for i in pts)] for pts in on_line]
        collineations.append(tuple(on_points + on_lines))
    polarity = tuple(range(n, 2 * n)) + tuple(range(n))
    edges = [(i, n + j) for j, pts in enumerate(on_line) for i in pts]
    return Graph.from_edges(2 * n, edges), collineations, polarity


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
