import itertools
from pathlib import Path

import pytest

from sgk import fixtures as fx
from sgk.subgroups import Subgroup

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


def setwise_stabilizer(group, points) -> Subgroup:
    """Reference: every listed element that maps the points onto themselves."""
    pts = frozenset(points)
    return Subgroup(group, [g for g in group.elements if frozenset(g(x) for x in pts) == pts])


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
