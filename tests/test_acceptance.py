"""End-to-end acceptance run.

Each criterion prints one line in the form

    [criterion NN] PASS/FAIL — description

to the real terminal (bypassing capture) and then asserts, so a failure
is visible both in the line and in the pytest report.
"""

import itertools
import random

from conftest import SemidirectPairs, brute_force_isomorphic
from sgk.arc_graphs import (
    check_condition_pe,
    check_three_arc_necessity,
    subgraph_graph,
    three_arc_graph,
    three_arc_orbits,
)
from sgk.constructions import biggs_cover, constant_chain, semidirect_product, trivial_twist
from sgk.coset_graphs import orbital_double_coset_map, orbitals, symmetric_coset_graph
from sgk.designs import (
    IncidenceStructure,
    check_polarity,
    design_from_graph,
    graph_from_design,
    validate_design,
)
from sgk.errors import DegenerateQuotient
from sgk.graphs import (
    DirectedSubgraph,
    Graph,
    are_isomorphic,
    complete_graph,
    connected_components,
    cycle_graph,
    verify_action,
)
from sgk.groups import Action, group_from_generators
from sgk.perm import Perm, _compose, _invert, parse_cycles
from sgk.quotients import induced_bipartite, quotient, quotient_action, quotient_as_coset_graph
from sgk.subgroups import (
    BlockSystem,
    core,
    double_cosets,
    lattice_is_order_isomorphic,
    right_cosets,
    stabilizer_subgroup,
    subgroup_block_lattice,
    subgroup_from_generators,
)


def _report(capsys, nn, ok, desc):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[criterion {nn:02d}] {verdict} — {desc}")
    assert ok, f"criterion {nn:02d}: {desc}"


def test_criterion_01(capsys, s4, s5):
    sub4 = subgroup_from_generators(
        s4, (parse_cycles("(2 3)", 4), parse_cycles("(3 4)", 4))
    )
    r4 = symmetric_coset_graph(s4, sub4, parse_cycles("(1 2)", 4))
    sub5 = subgroup_from_generators(
        s5,
        (
            parse_cycles("(2 3)", 5),
            parse_cycles("(3 4)", 5),
            parse_cycles("(4 5)", 5),
        ),
    )
    r5 = symmetric_coset_graph(s5, sub5, parse_cycles("(1 2)", 5))
    ok = (
        are_isomorphic(r4.graph, complete_graph(4)) is not None
        and r4.valency == 3 == 6 // r4.arc_stabilizer_order
        and are_isomorphic(r5.graph, complete_graph(5)) is not None
        and r5.valency == 4 == 24 // r5.arc_stabilizer_order
    )
    _report(capsys, 1, ok, "coset graph goldens: S4 gives K4 at valency 6/2, S5 gives K5 at 24/6")


def test_criterion_02(capsys, s4):
    sub = stabilizer_subgroup(s4, 0)
    dec = double_cosets(s4, sub)
    sizes = sorted(c.size for c in dec.classes)
    big = max(dec.classes, key=lambda c: c.size)
    pairs = orbital_double_coset_map(s4, sub)
    orbs = orbitals(s4)
    stab_rows = list(sub.elements)
    reached = set()
    suborbits = 0
    for p in range(4):
        if p in reached:
            continue
        orb = {p}
        queue = [p]
        while queue:
            x = queue.pop()
            for row in stab_rows:
                if row[x] not in orb:
                    orb.add(row[x])
                    queue.append(row[x])
        reached |= orb
        suborbits += 1
    big_target = next(ob for dc, ob in pairs if dc.size == 18)
    ok = (
        sizes == [6, 18]
        and big.contains_involution
        and not big_target.diagonal
        and sum(1 for _, ob in pairs if not ob.diagonal) == 1
        and len(orbs) == suborbits == 2
    )
    _report(capsys, 2, ok, "double cosets of S4 over a point stabiliser match its orbitals")


def test_criterion_03(capsys, d4, s4):
    d4_pairs = subgroup_block_lattice(d4, 0)
    s4_pairs = subgroup_block_lattice(s4, 0)
    chain = sorted(d4_pairs, key=lambda p: p.subgroup.order)
    nested = all(
        set(a.subgroup.elements) <= set(b.subgroup.elements)
        and set(a.block) <= set(b.block)
        for a, b in zip(chain, chain[1:])
    )
    ok = (
        len(d4_pairs) == 3
        and nested
        and lattice_is_order_isomorphic(d4_pairs)
        and len(s4_pairs) == 2
        and lattice_is_order_isomorphic(s4_pairs)
    )
    _report(capsys, 3, ok, "subgroup-block lattices: D4 is a 3-chain, natural S4 has 2 pairs")


def test_criterion_04(capsys, k4, s4, z2, q3):
    sd = semidirect_product(z2, s4, trivial_twist(z2, s4))
    bc = biggs_cover(k4, s4, sd, constant_chain(k4, 1))
    matchings = True
    for b, c in sorted(bc.certificate.quotient.arcs):
        if b < c:
            pattern = induced_bipartite(bc.cover, bc.fibres, b, c)
            matchings = matchings and pattern.valency() == 1 and pattern.n == 4
    flat = biggs_cover(k4, s4, sd, constant_chain(k4, 0))
    comps = connected_components(flat.cover)
    split = sorted(len(c) for c in comps) == [4, 4] and all(
        are_isomorphic(flat.cover.induced_subgraph(c)[0], complete_graph(4)) is not None
        for c in comps
    )
    ok = (
        are_isomorphic(bc.cover, q3) is not None
        and are_isomorphic(bc.certificate.quotient, k4) is not None
        and matchings
        and bc.cover.valency() == 3
        and bc.report.symmetric
        and bc.report.acts_as_automorphisms
        and bc.report.vertex_transitive
        and bc.report.arc_transitive
        and split
    )
    _report(capsys, 4, ok, "Biggs cover of K4 by Z2 is the cube; the identity chain splits into two K4s")


def test_criterion_05(capsys, k4, s4):
    report = verify_action(k4, s4)
    orbs = three_arc_orbits(report)
    ok = len(orbs) == 2 and all(ob.size == 24 and ob.self_paired for ob in orbs)
    if ok:
        for ob in orbs:
            t = three_arc_graph(report, ob)
            quo = quotient(t.report, t.partition).graph
            labelling = check_condition_pe(quotient(t.report, t.partition))
            ok = ok and (
                t.graph.n == 12
                and t.graph.valency() == 2
                and t.report.symmetric
                and quo.arcs == k4.arcs
                and labelling is not None
                and check_three_arc_necessity(quotient(t.report, t.partition), labelling)
            )
    _report(capsys, 5, ok, "both 3-arc graphs of K4: 12 vertices, 2-regular, quotient back to K4, labelling found")


def test_criterion_06(capsys, k4, s4, c6, d6, petersen, petersen_group):
    ok = True
    for graph, group in ((k4, s4), (c6, d6), (petersen, petersen_group)):
        inc, pol = design_from_graph(verify_action(graph, group))
        p = validate_design(inc)
        check_polarity(inc, group, pol)
        rebuilt = graph_from_design(inc, group, pol).graph
        ok = ok and (
            p.v == p.b == graph.n
            and p.k == p.lam == graph.valency()
            and p.multiplicity == 1
            and p.v * p.lam == p.b * p.k
            and are_isomorphic(rebuilt, graph) is not None
        )
        if graph is k4:
            ok = ok and (p.v, p.b, p.k, p.lam) == (4, 4, 3, 3)
    _report(capsys, 6, ok, "neighbourhood designs of K4, C6, Petersen rebuild their graphs")


def test_criterion_07(capsys, k4, s4, q3):
    tri = DirectedSubgraph.make([0, 2, 3], [(2, 3), (3, 0), (0, 2)])
    res = subgraph_graph(k4, s4, tri, parse_cycles("(1 2)", 4))
    ok = (
        res.graph.n == 8
        and are_isomorphic(res.graph, q3) is not None
        and res.report.vertex_transitive
        and res.report.arc_transitive
    )
    _report(capsys, 7, ok, "the directed-triangle subgraph graph of K4 is the cube")


def test_criterion_08(capsys, d6):
    h = subgroup_from_generators(d6, (parse_cycles("(2 6)(3 5)", 6),))
    k = subgroup_from_generators(
        d6,
        (parse_cycles("(2 6)(3 5)", 6), parse_cycles("(1 4)(2 5)(3 6)", 6)),
    )
    a = parse_cycles("(1 2)(3 6)(4 5)", 6)
    form = quotient_as_coset_graph(d6, h, a, k)
    refused = False
    try:
        quotient_as_coset_graph(d6, h, parse_cycles("(1 4)(2 3)(5 6)", 6), k)
    except DegenerateQuotient:
        refused = True
    ok = (
        form.exact
        and are_isomorphic(form.base.graph, cycle_graph(6)) is not None
        and are_isomorphic(form.quotient, cycle_graph(3)) is not None
        and refused
    )
    _report(capsys, 8, ok, "C6 over D6 quotients onto the coset graph C3; an involution inside K is refused")


def test_criterion_09(capsys, k4, s4, c6, d6, z2):
    rnd = random.Random(20250817)
    sd_pool = []
    for graph, g_part in ((k4, s4), (c6, d6)):
        sd = semidirect_product(z2, g_part, trivial_twist(z2, g_part))
        bc = biggs_cover(graph, g_part, sd, constant_chain(graph, 1))
        ref = SemidirectPairs(z2, g_part, trivial_twist(z2, g_part))
        rows = {x: bc.action.rows[sd.elements.index(ref.perm(x))] for x in ref.pairs}
        sd_pool.append((ref, bc, rows))
    instances = 0
    failures = []

    for trial in range(52):
        degree = rnd.choice((3, 4, 4, 5, 5))
        gens = []
        for _ in range(2):
            images = list(range(degree))
            rnd.shuffle(images)
            gens.append(tuple(images))
        group = group_from_generators(gens, degree=degree)
        act = Action.natural(group)

        for p in range(degree):
            if len(act.orbit_of(p)) * sum(row[p] == p for row in act.rows) != len(group):
                failures.append((trial, "orbit-stabilizer", p))

        point = rnd.randrange(degree)
        sub = stabilizer_subgroup(group, point)
        h_set = set(sub.elements)
        for cls in double_cosets(group, sub).classes:
            meet = sum(
                1 for h in sub.elements
                if _compose(_compose(_invert(cls.rep), h), cls.rep) in h_set
            )
            if cls.size * meet != sub.order ** 2:
                failures.append((trial, "double-coset-sizing", Perm(cls.rep).cycle_string()))

        if core(group, sub).order != right_cosets(group, sub).action().kernel_size():
            failures.append((trial, "core-equals-kernel", point))

        seen = set()
        blocks = []
        for p in range(degree):
            if p not in seen:
                orb = sorted(act.orbit_of(p))
                seen.update(orb)
                blocks.append(orb)
        system = BlockSystem.from_blocks(degree, blocks)
        qact = quotient_action(system, act)
        for row, qrow in zip(act.rows, qact.rows):
            for v in range(degree):
                if system.block_of[row[v]] != qrow[system.block_of[v]]:
                    failures.append((trial, "quotient-homomorphism", v))

        if len(blocks) == 1 and degree >= 3:
            k_size = rnd.randrange(2, degree)
            seed = frozenset(rnd.sample(range(degree), k_size))
            traces = sorted({frozenset(g[p] for p in seed) for g in group.elements}, key=sorted)
            flags = frozenset(
                (p, b) for b, tr in enumerate(traces) for p in tr
            )
            inc = IncidenceStructure(
                tuple(str(i + 1) for i in range(degree)),
                tuple(f"B{b}" for b in range(len(traces))),
                flags,
            )
            params = validate_design(inc)
            if params.v * params.lam != params.b * params.k:
                failures.append((trial, "design-double-count", params))

        ref, bc, rows = sd_pool[trial % 2]
        for _ in range(8):
            x, y = rnd.choice(ref.pairs), rnd.choice(ref.pairs)
            z = ref.mul(x, y)
            v = rnd.randrange(bc.cover.n)
            if rows[y][rows[x][v]] != rows[z][v]:
                failures.append((trial, "biggs-action-law", (x, y, v)))

        instances += 1

    ok = instances >= 50 and not failures
    _report(
        capsys,
        9,
        ok,
        f"invariant sweep over {instances} random instances, {len(failures)} failures",
    )


def test_criterion_10(capsys, k4, c6, q3):
    fixture_graphs = [k4, c6, q3]
    ok = True
    for a, b in itertools.product(fixture_graphs, repeat=2):
        fast = are_isomorphic(a, b) is not None
        if fast != brute_force_isomorphic(a, b):
            ok = False
    rnd = random.Random(1009)
    trials = 0
    for trial in range(100):
        edges_a = [
            (u, v) for u in range(7) for v in range(u + 1, 7) if rnd.random() < 0.4
        ]
        a = Graph.from_edges(7, edges_a)
        if trial % 2 == 0:
            pi = list(range(7))
            rnd.shuffle(pi)
            b = Graph.from_edges(
                7, sorted({tuple(sorted((pi[u], pi[v]))) for u, v in edges_a})
            )
        else:
            b = Graph.from_edges(
                7,
                [(u, v) for u in range(7) for v in range(u + 1, 7) if rnd.random() < 0.4],
            )
        fast = are_isomorphic(a, b) is not None
        if fast != brute_force_isomorphic(a, b):
            ok = False
        trials += 1
    _report(
        capsys,
        10,
        ok and trials == 100,
        "isomorphism decisions agree with brute force on fixtures and 100 random pairs",
    )
