"""Permutations, enumeration, and actions.

Oracles here are independent recomputations: orbit-stabilizer by direct
counting, products by composing image tables point by point.
"""

import json
import os
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import closure_listing, order
from sgk.cli import main
from sgk.constructions import NChain
from sgk.designs import DesignParams
from sgk.errors import CapExceeded, CycleSyntaxError, PointOutOfRange, RepeatedPoint
from sgk.groups import (
    Action,
    GroupTable,
    coerce_action,
    group_from_generators,
    is_transitive,
    orbit,
)
from sgk.perm import Perm, Record, _compose, _invert, is_involution, orbit_map, parse_cycles
from sgk.subgroups import BlockSystem, double_cosets, stabilizer_subgroup


def test_parse_cycles_round_trip():
    cases = ["(1 2)", "(1 2 3)(4 5)", "(1 4 3 2)", "id"]
    for text in cases:
        images = parse_cycles(text, 5)
        assert Perm(images).cycle_string() == text


def test_parse_cycles_identity_spellings():
    for text in ("id", "()", "", "  "):
        assert parse_cycles(text, 4) == (0, 1, 2, 3)


def test_parse_cycles_commas_equal_spaces():
    assert parse_cycles("(1,2,3)", 3) == parse_cycles("(1 2 3)", 3)


def test_parse_cycles_rejections():
    with pytest.raises(RepeatedPoint):
        parse_cycles("(1 2 1)", 3)
    with pytest.raises(PointOutOfRange):
        parse_cycles("(1 9)", 3)
    with pytest.raises(CycleSyntaxError):
        parse_cycles("(1 2", 3)
    with pytest.raises(CycleSyntaxError):
        parse_cycles("(1 x)", 3)


def test_product_is_left_then_right():
    p = parse_cycles("(1 2)", 3)
    q = parse_cycles("(2 3)", 3)
    # _compose(p, q)[i] = q[p[i]]: apply p first
    assert _compose(p, q) == tuple(q[p[i]] for i in range(3))
    assert Perm(_compose(p, q)).cycle_string() == "(1 3 2)"
    # Perm's product, which only clibench's tracer calls, agrees
    assert (Perm(p) * Perm(q)).images == _compose(p, q)


pairs_of_permutations = st.integers(0, 60).flatmap(
    lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))
)


@given(pairs_of_permutations)
@example(([], []))
@example(([0], [0]))
@example(([0, 1], [1, 0]))
@example(([1, 0], [1, 0]))
def test_compose_kernel_reads_b_at_a(pair):
    """The kernel against its definition at every degree up to 60, the
    degrees below two, where ``itemgetter`` cannot serve, included."""
    a, b = map(tuple, pair)
    ab = _compose(a, b)
    assert type(ab) is tuple and len(ab) == len(a)
    assert all(ab[i] == b[a[i]] for i in range(len(a)))


def test_group_of_degree_one(tmp_path, capsys):
    """``group`` composes nothing at degree 1, where the chain has no
    level, so the product of the degree-1 identity is checked too."""
    path = tmp_path / "one.grp"
    path.write_text("degree: 1\nid\n")
    assert main(["group", "--group", str(path)]) == 0
    facts = json.loads(capsys.readouterr().out)["facts"]
    assert facts["order"] == 1 and facts["orbit_sizes"] == [1]
    one = (0,)
    assert _compose(one, one) == (0,) and order(one) == 1


def test_inverse_and_order():
    rnd = random.Random(7)
    for _ in range(40):
        n = rnd.randrange(2, 9)
        images = list(range(n))
        rnd.shuffle(images)
        p, identity = tuple(images), tuple(range(n))
        assert _compose(p, _invert(p)) == identity
        k = order(p)
        acc = identity
        for _ in range(k):
            acc = _compose(acc, p)
        assert acc == identity
        for m in range(1, k):
            acc = identity
            for _ in range(m):
                acc = _compose(acc, p)
            assert acc != identity


def test_conjugation_law():
    # x^g = g^-1 x g, checked against relabelling each cycle of x by g
    rnd = random.Random(11)
    for _ in range(30):
        n = 7
        xs = list(range(n))
        rnd.shuffle(xs)
        gs = list(range(n))
        rnd.shuffle(gs)
        x, g = tuple(xs), tuple(gs)
        conj = _compose(_compose(_invert(g), x), g)
        for i in range(n):
            assert conj[g[i]] == g[x[i]]


def test_involution_detection():
    assert is_involution(parse_cycles("(1 2)(3 4)", 4))
    assert not is_involution(parse_cycles("(1 2 3)", 4))
    assert not is_involution(tuple(range(4)))


def test_enumeration_identity_first_and_sorted_start(s4):
    assert s4.elements[0] == tuple(range(4))
    assert len(s4) == 24
    assert s4.elements.index(tuple(range(4))) == 0


def test_enumeration_deterministic(s4):
    again = GroupTable(4, s4.generators).elements
    assert list(again) == list(s4.elements)


def test_orbit_stabilizer_by_direct_count(s4, d6, z6):
    for group in (s4, d6, z6):
        for point in range(group.degree):
            orb = orbit(group, point)
            stab = [g for g in group.elements if g[point] == point]
            assert len(orb) * len(stab) == len(group)


def test_group_membership(s4, d4):
    assert parse_cycles("(1 2 3)", 4) in s4
    assert parse_cycles("(1 2)", 4) not in d4


def test_membership_takes_an_image_tuple_of_the_degree(s4, d4):
    """Listed elements are image tuples, and each is a member.  A tuple of
    another length, or any other object, a Perm among them, is not."""
    assert all(x in d4 for x in d4.elements)
    assert d4.elements[5] in d4 and Perm(d4.elements[5]) not in d4
    assert parse_cycles("(1 2)", 4) in s4 and parse_cycles("(1 2)", 4) not in d4
    assert (1, 0) not in s4 and (1, 0, 2, 3, 4) not in s4 and () not in s4
    assert list(d4.elements[5]) not in d4
    assert "(1 2)" not in s4 and 0 not in s4 and None not in s4


def test_element_cap(monkeypatch):
    gens = (parse_cycles("(1 2)", 5), parse_cycles("(1 2 3 4 5)", 5))
    for cap in ("100", "60"):
        monkeypatch.setenv("SGK_ELEMENT_CAP", cap)
        with pytest.raises(CapExceeded):
            GroupTable(5, gens).elements
    for raw in ("not-a-number", "-1"):
        monkeypatch.setenv("SGK_ELEMENT_CAP", raw)
        with pytest.raises(ValueError, match="must be a non-negative integer"):
            GroupTable(5, gens).elements


def test_chain_listing_matches_closure_then_sort():
    s7 = (parse_cycles("(1 2)", 7), parse_cycles("(1 2 3 4 5 6 7)", 7))
    m11 = (
        parse_cycles("(1 2 3 4 5 6 7 8 9 10 11)", 11),
        parse_cycles("(3 7 11 8)(4 10 5 6)", 11),
    )
    for degree, gens, order in ((3, (), 1), (7, s7, 5040), (11, m11, 7920)):
        listed = list(GroupTable(degree, gens).elements)
        assert len(listed) == order
        assert listed == closure_listing(degree, gens)


def test_element_cap_is_the_order(monkeypatch):
    s5 = (parse_cycles("(1 2)", 5), parse_cycles("(1 2 3 4 5)", 5))
    monkeypatch.setenv("SGK_ELEMENT_CAP", "120")
    assert len(GroupTable(5, s5).elements) == 120
    monkeypatch.setenv("SGK_ELEMENT_CAP", "119")
    with pytest.raises(CapExceeded, match="group exceeds the element cap of 119"):
        GroupTable(5, s5).elements


def test_transitivity(s4, z6):
    assert is_transitive(s4)
    assert is_transitive(z6)
    fixer = group_from_generators([parse_cycles("(1 2)", 4)], degree=4)
    assert not is_transitive(fixer)


def test_natural_action_orbit_and_kernel(d4):
    act = Action.natural(d4)
    assert act.orbit_of(0) == frozenset(range(4))
    assert act.kernel_size() == 1


def test_action_stabilizer_matches_filter(d6):
    act = Action.natural(d6)
    for p in range(6):
        expect = {i for i, g in enumerate(d6.elements) if g[p] == p}
        assert {i for i, row in enumerate(act.rows) if row[p] == p} == expect
        assert d6.chain.stabilizer(p).order == len(expect)


def test_coerce_action_degree_guard(s4):
    act = coerce_action(s4, 4)
    assert act.n_points == 4
    with pytest.raises(Exception):
        coerce_action(s4, 5)


def test_cap_env_round_trip(monkeypatch):
    monkeypatch.delenv("SGK_ELEMENT_CAP", raising=False)
    assert len(GroupTable(4, (parse_cycles("(1 2 3 4)", 4),)).elements) == 4
    assert os.environ.get("SGK_ELEMENT_CAP") is None


def test_orbit_map_clash_and_equivariance(d6):
    """A map carried along the generators commutes with each of them; a
    key that the walk meets with a second value gives None."""
    rows = d6.generators

    def step(item):
        p, q = item
        return [(row[p], row[q]) for row in rows]

    shifted = orbit_map(((0, 3),), step)
    assert shifted is not None and sorted(shifted) == list(range(6))
    for row in rows:
        assert all(shifted[row[p]] == row[shifted[p]] for p in range(6))
    # p -> p+1 commutes with the rotation, not with the reflection p -> -p,
    # so the walk meets some point with two values
    assert orbit_map(((0, 1),), step) is None
    assert orbit_map(((0, 1), (0, 2)), step) is None


def test_record_contract(d6):
    """The result types are frozen records: built by position or keyword
    in annotation order, compared and hashed by their declared fields
    only, within one class, and validated by ``__post_init__``."""
    p = DesignParams(2, 2, 2, 2, 2)
    assert p == DesignParams(v=2, b=2, k=2, lam=2, multiplicity=2)
    assert p == DesignParams(2, 2, k=2, multiplicity=2, lam=2)
    assert p != DesignParams(2, 2, 2, 2, 1)
    assert p.asdict() == {"v": 2, "b": 2, "k": 2, "lam": 2, "multiplicity": 2}
    assert repr(p) == "DesignParams(v=2, b=2, k=2, lam=2, multiplicity=2)"
    for args, kwargs in [
        ((2, 2, 2, 2), {}),  # a field missing
        ((2, 2, 2, 2, 2, 2), {}),  # one too many
        ((2, 2, 2, 2, 2), {"mu": 1}),  # an unknown field
        ((2, 2, 2, 2), {"mu": 1}),  # one unknown in place of one missing
        ((2, 2, 2, 2, 2), {"v": 2}),  # a field given twice
    ]:
        with pytest.raises(TypeError):
            DesignParams(*args, **kwargs)
    with pytest.raises(AttributeError):
        p.v = 3
    with pytest.raises(AttributeError):
        del p.v
    assert p.v == 2

    # one class only: same fields and values in another class are unequal
    class Twin(Record):
        v: int
        b: int
        k: int
        lam: int
        multiplicity: int

    assert Twin(2, 2, 2, 2, 2) != p and p != (2, 2, 2, 2, 2)

    # an extending record's fields follow its base's
    class Flagged(Twin):
        flag: bool

    assert Flagged(2, 2, 2, 2, 2, True).asdict() == {**p.asdict(), "flag": True}

    # what __post_init__ derives takes no part in equality or hash
    a, b = NChain((((0, 1), 3),)), NChain(assignment=(((0, 1), 3),))
    object.__setattr__(b, "_map", {})
    assert a == b and hash(a) == hash(b) and a.value(0, 1) == 3

    # nor does a filled cached_property
    dc = double_cosets(d6, stabilizer_subgroup(d6, 0)).classes[1]
    twin = type(dc)(rep=dc.rep, cosets=dc.cosets, space=dc.space)
    assert len(dc.elements) == dc.size and "elements" in vars(dc)
    assert "elements" not in vars(twin)
    assert dc == twin and hash(dc) == hash(twin)

    # __post_init__ still validates
    assert BlockSystem(4, ((0, 1), (2, 3))).block_of == (0, 0, 1, 1)
    with pytest.raises(ValueError, match="two blocks"):
        BlockSystem(4, ((0, 1), (1, 2, 3)))
