"""The benchmark's workloads: job lists with the facts each job must report.

A job is one ``sgk`` command line.  Desk jobs read ``fixtures/`` as they
are; scale rungs read files generated from the seed (see ``inputs``).
Each job names the invariant facts its certificate must state; these do
not depend on the seed, because the seed only renames points.

Why these four workloads:

- ``coset-ladder``: Perm products inside ``symmetric_coset_graph`` and
  group enumeration dominate; no block sweep, design or isomorphism work.
- ``block-lattice``: the ``intermediate_subgroups`` closure sweep is
  nearly all of it, with no graph work.
- ``design-roundtrip``: the graph and design layers on hundreds of
  vertices under a small group, with few Perm products.
- ``cover-build``: the only workload where ``constructions`` and
  ``quotients`` do most of the work.

Each is the control for optimisations aimed at the others.
"""

from dataclasses import dataclass, field
from pathlib import Path

from inputs import (
    M11_GENS,
    V4_GENS,
    Z2_GENS,
    World,
    alternating_gens,
    complete_edges,
    cycle_edges,
    dihedral_gens,
    symmetric_gens,
)

FIX = Path("fixtures")


@dataclass
class Job:
    name: str
    argv: list
    expect: dict
    desk: bool = False
    # files this job writes that later jobs read
    outputs: list = field(default_factory=list)


def _write(path, text):
    path.write_text(text)
    return str(path)


def coset_ladder(seed, indir, outdir):
    s4, s5 = str(FIX / "s4.grp"), str(FIX / "s5.grp")
    jobs = [
        Job("group-s5", ["group", "--group", s5],
            {"order": 120, "degree": 5, "transitive": True}, desk=True),
        Job("orbitals-s5", ["orbitals", "--group", s5], {"rank": 2}, desk=True),
        Job("cosetgraph-k4", ["cosetgraph", "--group", s4, "--subgroup", "(2 3),(3 4)",
                              "--involution", "(1 2)"],
            {"vertices": 4, "valency": 3, "symmetric": True}, desk=True),
        Job("cosetgraph-petersen", ["cosetgraph", "--group", s5,
                                    "--subgroup", "(1 2),(3 4),(4 5)",
                                    "--involution", "(1 3)(2 4)"],
            {"vertices": 10, "valency": 3, "symmetric": True}, desk=True),
        Job("verify-c6", ["verify", "--graph", str(FIX / "c6.graph"),
                          "--group", str(FIX / "d6.grp")],
            {"vertices": 6, "valency": 2, "symmetric": True}, desk=True),
    ]
    w6 = World(seed, "s6", 6)
    s6 = _write(indir / "s6.grp", w6.group_file(symmetric_gens(6)))
    point_stab = w6.subgroup([[(2, 3)], [(2, 3, 4, 5, 6)]], "point-stabiliser")
    pair_stab = w6.subgroup([[(1, 2)], [(3, 4)], [(3, 4, 5, 6)]], "pair-stabiliser")
    jobs += [
        # K6
        Job("cosetgraph-s6-point", ["cosetgraph", "--group", s6, "--subgroup", point_stab,
                                    "--involution", w6.perm([(1, 2)])],
            {"vertices": 6, "valency": 5, "group_order": 720, "subgroup_order": 120,
             "symmetric": True}),
        # Kneser graph K(6,2): pairs meeting in no point
        Job("cosetgraph-s6-kneser", ["cosetgraph", "--group", s6, "--subgroup", pair_stab,
                                     "--involution", w6.perm([(1, 3), (2, 4)])],
            {"vertices": 15, "valency": 6, "subgroup_order": 48, "symmetric": True}),
        # Johnson graph J(6,2): pairs meeting in one point
        Job("cosetgraph-s6-johnson", ["cosetgraph", "--group", s6, "--subgroup", pair_stab,
                                      "--involution", w6.perm([(2, 3)])],
            {"vertices": 15, "valency": 8, "subgroup_order": 48, "symmetric": True}),
    ]
    for name, n, gens, order in (("s7", 7, symmetric_gens(7), 5040),
                                 ("m11", 11, M11_GENS, 7920)):
        grp = _write(indir / f"{name}.grp", World(seed, name, n).group_file(gens))
        jobs += [
            Job(f"group-{name}", ["group", "--group", grp],
                {"order": order, "degree": n, "transitive": True}),
            # both groups are 2-transitive, so rank 2
            Job(f"orbitals-{name}", ["orbitals", "--group", grp], {"rank": 2}),
        ]
    return jobs


def block_lattice(seed, indir, outdir):
    jobs = [
        # D_n on the n-gon has one block system per divisor of n
        Job("blocks-d6", ["blocks", "--group", str(FIX / "d6.grp")], {"count": 4}, desk=True),
        Job("blocks-s4", ["blocks", "--group", str(FIX / "s4.grp")], {"count": 2}, desk=True),
        # antipodal pairs are the only nontrivial system
        Job("blocks-octahedron", ["blocks", "--group", str(FIX / "octahedron-aut.grp")],
            {"count": 3}, desk=True),
        Job("lattice-d6", ["lattice", "--group", str(FIX / "d6.grp")], {"count": 4},
            desk=True),
    ]
    groups = {}
    for n, systems in ((12, 6), (24, 8), (36, 9)):
        groups[n] = _write(indir / f"d{n}.grp",
                           World(seed, f"d{n}", n).group_file(dihedral_gens(n)))
        jobs.append(Job(f"blocks-d{n}", ["blocks", "--group", groups[n]],
                        {"count": systems}))
    s5 = _write(indir / "s5.grp", World(seed, "s5", 5).group_file(symmetric_gens(5)))
    jobs += [
        Job("blocks-s5", ["blocks", "--group", s5], {"count": 2}),
        Job("lattice-d36", ["lattice", "--group", groups[36]], {"count": 9}),
    ]
    return jobs


def _design_round(name, graph, group, outdir, n, valency, polarities, desk):
    design = str(outdir / f"{name}.design")
    return [
        Job(f"from-graph-{name}", ["design", "from-graph", "--graph", graph,
                                   "--group", group, "--out", "design",
                                   "--out-file", design],
            {"v": n, "b": n, "k": valency, "lam": valency, "multiplicity": 1,
             "flag_transitive": True}, desk=desk, outputs=[design]),
        Job(f"polarities-{name}", ["design", "polarities", "--design", design,
                                   "--group", group],
            {"count": polarities}, desk=desk),
        Job(f"to-graph-{name}", ["design", "to-graph", "--design", design,
                                 "--group", group, "--out", "edges",
                                 "--out-file", str(outdir / f"{name}.graph")],
            {"polarities": polarities, "vertices": n, "valency": valency,
             "symmetric": True}, desk=desk),
    ]


def design_roundtrip(seed, indir, outdir):
    # C_n under D_n has two equivariant polarities: v -> N(v) and its
    # composition with the antipodal map.  K4 under S4 has just the first.
    jobs = _design_round("c6", str(FIX / "c6.graph"), str(FIX / "d6.grp"), outdir,
                         6, 2, 2, True)
    jobs += _design_round("k4", str(FIX / "k4.graph"), str(FIX / "s4.grp"), outdir,
                          4, 3, 1, True)
    for n in (100, 200):
        w = World(seed, f"c{n}", n)
        graph = _write(indir / f"c{n}.graph", w.graph_file(cycle_edges(n)))
        group = _write(indir / f"d{n}.grp", w.group_file(dihedral_gens(n)))
        name = f"c{n}"
        jobs += _design_round(name, graph, group, outdir, n, 2, 2, False)
        jobs.append(Job(f"validate-{name}", ["design", "validate", "--design",
                                             str(outdir / f"{name}.design")],
                        {"v": n, "b": n, "k": 2, "lam": 2, "multiplicity": 1}))
    return jobs


def _biggs(name, graph, group, n_file, twist, chain, out, base_n, n_order, g_order,
           valency, desk=False):
    argv = ["biggs", "--graph", graph, "--group", group, "--n", n_file,
            "--twist", twist, "--chain", chain]
    outputs = []
    if out:
        argv += ["--out", "edges", "--out-file", f"{out}.graph",
                 "--group-out", f"{out}.grp"]
        outputs = [f"{out}.graph", f"{out}.grp"]
    return Job(name, argv,
               {"base_vertices": base_n, "cover_vertices": base_n * n_order,
                "fibres": base_n, "semidirect_order": n_order * g_order,
                "valency": valency, "cover_class": "cover"},
               desk=desk, outputs=outputs)


def cover_build(seed, indir, outdir):
    k4, s4 = str(FIX / "k4.graph"), str(FIX / "s4.grp")
    twist = _write(indir / "trivial.twist", "trivial\n")
    chain = _write(indir / "k4.chain", "arc 1 2 (1 2)\n")
    fibres = _write(indir / "k4-cover.blocks", "1 5\n2 6\n3 7\n4 8\n")
    cover = str(outdir / "k4-cover")
    jobs = [
        _biggs("biggs-k4-z2", k4, s4, str(FIX / "z2.grp"), twist, chain, cover,
               4, 2, 24, 3, desk=True),
        Job("quotient-k4-cover", ["quotient", "--graph", f"{cover}.graph",
                                  "--group", f"{cover}.grp", "--blocks", fibres],
            {"base_vertices": 8, "blocks": 4, "quotient_vertices": 4,
             "quotient_valency": 3, "cover_class": "cover", "symmetric": True},
            desk=True),
        Job("extend-flags-k4-cover", ["extend", "--via", "flags",
                                      "--graph", f"{cover}.graph",
                                      "--group", f"{cover}.grp", "--blocks", fibres],
            {"quotient_vertices": 4, "rebuilt_vertices": 8, "normal_subgroup_order": 4,
             "flag_orbital_size": 6}, desk=True),
        Job("extend-arcs-octahedron", ["extend", "--via", "arcs",
                                       "--group", str(FIX / "octahedron-aut.grp"),
                                       "--subgroup", "(2 3)(5 6),(2 5)(3 6),(3 6)",
                                       "--over", "(3 6),(2 5)",
                                       "--involution", "(1 2)(4 5)"],
            {"r": 2, "base_vertices": 6, "extension_vertices": 12}, desk=True),
        # the vertices of a three-arc graph are the arcs of the base
        Job("threearc-k4", ["threearc", "--graph", k4, "--group", s4,
                            "--orbit-index", "0"],
            {"vertices": 12}, desk=True),
        Job("subgraph-graph-k4", ["subgraph-graph", "--graph", k4, "--group", s4,
                                  "--subgraph", "3>4,4>1,1>3", "--involution", "(1 2)"],
            {"vertices": 8, "valency": 3, "stabilizer_order": 3}, desk=True),
    ]
    worlds = {n: World(seed, f"k{n}", n) for n in (5, 6, 7)}
    # A6 rather than S6 on K6: a quarter of the |G|^2 twist checks, so the
    # rung is short enough to be sampled several times in one run
    gens = {5: symmetric_gens(5), 6: alternating_gens(6), 7: symmetric_gens(7)}
    files = {}
    for n, w in worlds.items():
        files[n] = (_write(indir / f"k{n}.graph", w.graph_file(complete_edges(n))),
                    _write(indir / f"g{n}.grp", w.group_file(gens[n])))
    s6 = _write(indir / "s6.grp", worlds[6].group_file(symmetric_gens(6)))
    wz2, wv4 = World(seed, "z2", 2), World(seed, "v4", 4)
    z2 = _write(indir / "z2.grp", wz2.group_file(Z2_GENS))
    v4 = _write(indir / "v4.grp", wv4.group_file(V4_GENS))

    def chain_file(name, w, wn, value):
        return _write(indir / f"{name}.chain",
                      "arc {} {} ".format(*w.arc(1, 2)) + wn.perm(value) + "\n")

    jobs += [
        _biggs("biggs-k5-z2", *files[5], z2, twist,
               chain_file("k5-z2", worlds[5], wz2, [(1, 2)]), None, 5, 2, 120, 4),
        _biggs("biggs-k5-v4", *files[5], v4, twist,
               chain_file("k5-v4", worlds[5], wv4, [(1, 2), (3, 4)]), None, 5, 4, 120, 4),
        _biggs("biggs-k6-z2", *files[6], z2, twist,
               chain_file("k6-z2", worlds[6], wz2, [(1, 2)]), None, 6, 2, 360, 5),
        Job("threearc-k7", ["threearc", "--graph", files[7][0], "--group", files[7][1],
                            "--orbit-index", "0"],
            {"vertices": 42}),
        # directed triangles of K6: 6*5*4/3 = 40 of them, stabiliser 720/40
        Job("subgraph-graph-k6", ["subgraph-graph", "--graph", files[6][0],
                                  "--group", s6,
                                  "--subgraph", worlds[6].subgraph_arcs([(3, 4), (4, 1),
                                                                         (1, 3)]),
                                  "--involution", worlds[6].perm([(1, 2)])],
            {"vertices": 40, "stabilizer_order": 18}),
    ]
    return jobs


WORKLOADS = {
    "coset-ladder": coset_ladder,
    "block-lattice": block_lattice,
    "design-roundtrip": design_roundtrip,
    "cover-build": cover_build,
}
