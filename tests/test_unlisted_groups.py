"""Every command but ``group`` never lists the group, ``group`` lists it
once, and the commands of the quotient and design layers never build a
stabiliser chain either.

With listing made to raise, ``cosetgraph``, ``orbitals``, ``verify``,
``quotient``, ``blocks``, ``lattice``, ``threearc``, the three ``design``
commands, ``subgraph-graph`` and both forms of ``extend`` give the same
exit status, output, certificate (apart from ``timing_ms``) and written
files as with listing allowed, on the coset-ladder inputs (the fixtures
plus S6, S7 and M11) and on the desk inputs of the others; ``biggs``
does the same listing only N, whose elements label the cover's vertices.
S9 and S10 coset graphs, ``blocks`` and ``lattice`` on S10, a three-arc
graph and a subgraph graph of K9 under S9 and a double cover of K9 under
S9 run under the default element cap, while the cap still bounds the
number of cosets, the orbit of a subgraph and the candidates tried for a
regular normal subgroup.  With chains made to raise, ``quotient``,
``blocks``, ``threearc`` and the three ``design`` commands give the same
outcome as with chains allowed, and ``lattice`` builds one chain, of the
point stabiliser.  The subgroup helpers answer on S10 without listing it.
"""

from functools import cached_property
import json
from pathlib import Path

import pytest

from conftest import FIXDIR
from sgk.cli import main
from sgk.coset_graphs import orbital_double_coset_map
from sgk.io import parse_group_file
from sgk.groups import GroupTable, StabChain
from sgk.perm import parse_cycles
from sgk.quotients import quotient_as_coset_graph
from sgk.subgroups import (
    core,
    double_cosets,
    right_cosets,
    stabilizer_subgroup,
    subgroup_from_generators,
)

SUBGROUP_S4 = "(2 3),(3 4)"
SUBGROUP_S5 = "(1 2),(3 4),(4 5)"
M11 = "degree: 11\n(1 2 3 4 5 6 7 8 9 10 11)\n(3 7 11 8)(4 10 5 6)\n"


def symmetric_group_file(n):
    return f"degree: {n}\n(1 2)\n({' '.join(str(p) for p in range(1, n + 1))})\n"


def dihedral_group_file(n):
    """D_n on the n-gon: the rotation and the reflection fixing point 1."""
    reflection = "".join(f"({i} {n + 2 - i})" for i in range(2, n // 2 + 2) if i < n + 2 - i)
    return f"degree: {n}\n({' '.join(str(p) for p in range(1, n + 1))})\n{reflection}\n"


LIST_GROUP = GroupTable.elements.func


def _patch_listing(monkeypatch, replacement):
    """Send every listing, ``GroupTable.elements``, to ``replacement(group)``."""
    elements = cached_property(replacement)
    elements.__set_name__(GroupTable, "elements")
    monkeypatch.setattr(GroupTable, "elements", elements)


def forbid_listing(monkeypatch):
    def refuse(group):
        raise AssertionError("a group was listed")

    _patch_listing(monkeypatch, refuse)


def record_listing(monkeypatch):
    """Let groups be listed, recording the degree and generators of each
    listing made; the records come back in a list that fills as commands
    run."""
    listed = []

    def record(group):
        elements = LIST_GROUP(group)
        listed.append((group.degree, group.generators))
        return elements

    _patch_listing(monkeypatch, record)
    return listed


def outcome(capsys, tmp_path, argv):
    cert = tmp_path / "cert.json"
    cert.unlink(missing_ok=True)
    group_out = Path(argv[argv.index("--group-out") + 1]) if "--group-out" in argv else None
    if group_out:
        group_out.unlink(missing_ok=True)
    code = main(argv + ["--certificate", str(cert)])
    out, err = capsys.readouterr()
    doc = json.loads(cert.read_text()) if cert.exists() else None
    if doc is not None:
        doc.pop("timing_ms")
    written = group_out.read_text() if group_out and group_out.exists() else None
    return code, out, err, doc, written


def ladder_groups(tmp_path):
    """The group files of the coset ladder by name: the fixtures, then S6,
    S7 and M11, written into ``tmp_path``."""
    files = {"s6": symmetric_group_file(6), "s7": symmetric_group_file(7), "m11": M11}
    for name, text in files.items():
        (tmp_path / f"{name}.grp").write_text(text)
    groups = {name: str(FIXDIR / f"{name}.grp") for name in ("s4", "s5", "d4", "d6", "z2", "z6")}
    groups["oct"] = str(FIXDIR / "octahedron-aut.grp")
    groups.update((name, str(tmp_path / f"{name}.grp")) for name in files)
    return groups


def group_jobs(tmp_path):
    """``group`` on every group of the ladder: the one command that lists G."""
    return [["group", "--group", g] for g in ladder_groups(tmp_path).values()]


def ladder(tmp_path):
    fix = ladder_groups(tmp_path)
    s6 = fix["s6"]
    jobs = [
        ["cosetgraph", "--group", fix["s4"], "--subgroup", SUBGROUP_S4, "--involution", "(1 2)"],
        ["cosetgraph", "--group", fix["s5"], "--subgroup", SUBGROUP_S5,
         "--involution", "(1 3)(2 4)", "--out", "edges", "--group-out",
         str(tmp_path / "induced.grp")],
        ["cosetgraph", "--group", s6, "--subgroup", "(2 3),(2 3 4 5 6)", "--involution", "(1 2)"],
        ["cosetgraph", "--group", s6, "--subgroup", "(1 2),(3 4),(3 4 5 6)",
         "--involution", "(1 3)(2 4)"],
        ["cosetgraph", "--group", s6, "--subgroup", "(1 2),(3 4),(3 4 5 6)",
         "--involution", "(2 3)"],
        # the involution lies in the subgroup: rejected either way
        ["cosetgraph", "--group", fix["s4"], "--subgroup", SUBGROUP_S4, "--involution", "(2 3)"],
        ["verify", "--graph", str(FIXDIR / "c6.graph"), "--group", fix["d6"]],
        ["verify", "--graph", str(FIXDIR / "k4.graph"), "--group", fix["s4"]],
        # not locally transitive: a failed claim either way
        ["verify", "--graph", str(FIXDIR / "c6.graph"), "--group", fix["z6"]],
        ["verify", "--graph", str(FIXDIR / "q3.graph"), "--group", fix["s4"]],
    ]
    jobs += [["orbitals", "--group", g] for g in fix.values()]
    return jobs + quotient_layer_jobs(tmp_path)


def construction_jobs(capsys, tmp_path):
    """``subgraph-graph`` and ``extend --via flags`` on the desk inputs,
    the latter on the double cover of K4 that ``biggs`` writes first, on
    2K2 under D4 by singletons and on C4 under D4 by antipodal pairs,
    which has no regular normal subgroup."""
    s4, d4 = str(FIXDIR / "s4.grp"), str(FIXDIR / "d4.grp")
    k4 = str(FIXDIR / "k4.graph")
    files = {
        "twist.txt": "trivial\n",
        "chain.txt": "arc 1 2 (1 2)\n",
        "fibres.txt": "1 5\n2 6\n3 7\n4 8\n",
        "singles.txt": "1\n2\n3\n4\n",
        "pairs.txt": "1 3\n2 4\n",
        "2k2.graph": "vertices: 4\nedge 1 3\nedge 2 4\n",
        "c4.graph": "vertices: 4\nedge 1 2\nedge 2 3\nedge 3 4\nedge 1 4\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    t = {name: str(tmp_path / name) for name in files}
    cover, cover_group = str(tmp_path / "cover.graph"), str(tmp_path / "cover.grp")
    code, *_ = outcome(capsys, tmp_path, [
        "biggs", "--graph", k4, "--group", s4, "--n", str(FIXDIR / "z2.grp"),
        "--twist", t["twist.txt"], "--chain", t["chain.txt"], "--out", "edges",
        "--out-file", cover, "--group-out", cover_group])
    assert code == 0
    induced = str(tmp_path / "induced.grp")
    return [
        ["subgraph-graph", "--graph", k4, "--group", s4,
         "--subgraph", "3>4,4>1,1>3", "--involution", "(1 2)", "--out", "edges",
         "--group-out", induced],
        ["subgraph-graph", "--graph", k4, "--group", s4, "--subgraph", "1>2,2>1",
         "--involution", "(1 2)"],
        # not an involution: rejected either way
        ["subgraph-graph", "--graph", k4, "--group", s4, "--subgraph", "1>2",
         "--involution", "(1 2 3)"],
        ["extend", "--via", "flags", "--graph", cover, "--group", cover_group,
         "--blocks", t["fibres.txt"], "--out", "edges", "--group-out", induced],
        ["extend", "--via", "flags", "--graph", t["2k2.graph"], "--group", d4,
         "--blocks", t["singles.txt"], "--out", "edges", "--group-out", induced],
        ["extend", "--via", "flags", "--graph", t["c4.graph"], "--group", d4,
         "--blocks", t["pairs.txt"]],
    ] + lattice_and_arc_jobs(tmp_path)


def lattice_and_arc_jobs(tmp_path):
    """``lattice`` and ``extend --via arcs`` on the desk inputs, with a
    group that is not transitive and the three chains ``extend`` refuses;
    ``blocks`` and ``lattice`` on D12 and D36, whose block lattices are
    those of the divisors of 12 and 36."""
    fix = {name: str(FIXDIR / f"{name}.grp") for name in ("s4", "s5", "d4", "d6")}
    octahedron = str(FIXDIR / "octahedron-aut.grp")
    (tmp_path / "split.grp").write_text("degree: 4\n(1 2)\n(3 4)\n")
    for n in (12, 36):
        (tmp_path / f"d{n}.grp").write_text(dihedral_group_file(n))
    d12, d36 = str(tmp_path / "d12.grp"), str(tmp_path / "d36.grp")
    arcs = ["extend", "--via", "arcs", "--group", octahedron]
    return [
        ["lattice", "--group", fix["d4"]],
        ["lattice", "--group", fix["s4"], "--base", "3"],
        ["lattice", "--group", fix["d6"]],
        ["lattice", "--group", octahedron],
        ["lattice", "--group", fix["s5"]],
        # not transitive: rejected either way
        ["lattice", "--group", str(tmp_path / "split.grp")],
        ["blocks", "--group", d12],
        ["blocks", "--group", d36],
        ["lattice", "--group", d12, "--base", "5"],
        ["lattice", "--group", d36],
        arcs + ["--subgroup", "(2 3)(5 6),(2 5)(3 6),(3 6)", "--over", "(3 6),(2 5)",
                "--involution", "(1 2)(4 5)", "--out", "edges", "--group-out",
                str(tmp_path / "induced.grp")],
        # K outside H, the involution inside K, K no larger than a^-1Ha n H
        arcs + ["--subgroup", "(3 6),(2 5)", "--over", "(2 3)(5 6)", "--involution", "(1 2)(4 5)"],
        arcs + ["--subgroup", "(2 3)(5 6),(2 5)(3 6),(3 6)", "--over", "(3 6),(2 5)",
                "--involution", "(2 5)"],
        arcs + ["--subgroup", "(2 3)(5 6),(2 5)(3 6),(3 6)", "--over", "(3 6)",
                "--involution", "(1 2)(4 5)"],
    ]


def biggs_jobs(tmp_path):
    """``biggs`` on K4 under S4 and K5 under S5, by Z2 and V4, and with a
    twist that is no homomorphism, with the N of each job."""
    files = {
        "twist.txt": "trivial\n",
        "swap.txt": "(1 2)(3 4) -> (1 3)(2 4); (1 3)(2 4) -> (1 2)(3 4)\ntrivial\n",
        "k4.chain": "arc 1 2 (1 2)\n",
        "v4.chain": "arc 1 2 (1 2)(3 4)\n",
        "v4.grp": "degree: 4\n(1 2)(3 4)\n(1 3)(2 4)\n",
        "k5.graph": "vertices: 5\n" + "".join(
            f"edge {u} {v}\n" for u in range(1, 6) for v in range(u + 1, 6)),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    t = {name: str(tmp_path / name) for name in files}
    z2, k4 = str(FIXDIR / "z2.grp"), str(FIXDIR / "k4.graph")
    s4, s5 = str(FIXDIR / "s4.grp"), str(FIXDIR / "s5.grp")
    return [
        (["biggs", "--graph", k4, "--group", s4, "--n", z2, "--twist", t["twist.txt"],
          "--chain", t["k4.chain"], "--out", "edges", "--group-out",
          str(tmp_path / "cover.grp")], z2),
        (["biggs", "--graph", t["k5.graph"], "--group", s5, "--n", t["v4.grp"],
          "--twist", t["twist.txt"], "--chain", t["v4.chain"]], t["v4.grp"]),
        # (1 2) swapping the generators of V4 and (1 2 3 4) fixing them is
        # no homomorphism of S4, (1 2)(1 2 3 4) having order 3: rejected
        # either way
        (["biggs", "--graph", k4, "--group", s4, "--n", t["v4.grp"],
          "--twist", t["swap.txt"], "--chain", t["v4.chain"]], t["v4.grp"]),
    ]


def quotient_layer_jobs(tmp_path):
    """The six commands of the quotient and design layers on the desk
    inputs, with one rejected input or failed claim for most of them."""
    fix = {name: str(FIXDIR / f"{name}.grp") for name in ("s4", "d6", "z6")}
    k4, c6 = str(FIXDIR / "k4.graph"), str(FIXDIR / "c6.graph")
    (tmp_path / "halves.txt").write_text("1 4\n2 5\n3 6\n")
    (tmp_path / "split.txt").write_text("1 2\n3 4\n5 6\n")
    halves, split = str(tmp_path / "halves.txt"), str(tmp_path / "split.txt")
    k4_design, c6_design = str(tmp_path / "k4.design"), str(tmp_path / "c6.design")
    jobs = [
        ["quotient", "--graph", c6, "--group", fix["d6"], "--blocks", halves, "--out", "edges"],
        # a generator splits a block: rejected either way
        ["quotient", "--graph", c6, "--group", fix["d6"], "--blocks", split],
        ["blocks", "--group", fix["d6"]],
        ["blocks", "--group", fix["s4"]],
        ["blocks", "--group", str(FIXDIR / "octahedron-aut.grp")],
        ["threearc", "--graph", k4, "--group", fix["s4"]],
        ["threearc", "--graph", k4, "--group", fix["s4"], "--orbit-index", "1",
         "--group-out", str(tmp_path / "tag.grp")],
        # not symmetric: rejected either way
        ["threearc", "--graph", c6, "--group", fix["z6"]],
    ]
    for graph, group, design in ((k4, fix["s4"], k4_design), (c6, fix["d6"], c6_design)):
        jobs += [
            ["design", "from-graph", "--graph", graph, "--group", group,
             "--out", "design", "--out-file", design],
            ["design", "polarities", "--design", design, "--group", group],
            ["design", "to-graph", "--design", design, "--group", group, "--out", "edges"],
        ]
    # C6 under Z6 is not symmetric, and Z6 is not flag transitive on its design
    jobs += [
        ["design", "from-graph", "--graph", c6, "--group", fix["z6"]],
        ["design", "polarities", "--design", c6_design, "--group", fix["z6"]],
    ]
    return jobs


def test_group_lists_its_group_once(capsys, tmp_path, monkeypatch):
    """``group`` reads ``enumeration-determinism`` off the one listing of
    G: on S6, S7 and M11, one ``GroupTable`` listing and one walk over
    the chain's levels."""
    groups = ladder_groups(tmp_path)
    listed = record_listing(monkeypatch)
    walks = []
    walk = StabChain.elements

    def counted(chain):
        walks.append(chain.order)
        return walk(chain)

    monkeypatch.setattr(StabChain, "elements", counted)
    for name, order in (("s6", 720), ("s7", 5040), ("m11", 7920)):
        del listed[:], walks[:]
        code, _, err, doc, _ = outcome(capsys, tmp_path, ["group", "--group", groups[name]])
        assert code == 0, err
        assert doc["facts"]["order"] == order and all(c["pass"] for c in doc["claims"])
        assert len(listed) == 1 and walks == [order], name


def test_group_past_the_cap_lists_nothing(capsys, tmp_path, monkeypatch):
    """Under a cap of 100, the 120 elements of S5 are refused before any
    is listed: exit 1 with ``cap-exceeded`` and no certificate."""
    monkeypatch.setenv("SGK_ELEMENT_CAP", "100")
    listed = record_listing(monkeypatch)

    def refuse(chain):
        raise AssertionError("a chain was listed")

    monkeypatch.setattr(StabChain, "elements", refuse)
    code, out, err, doc, _ = outcome(capsys, tmp_path, ["group", "--group", str(FIXDIR / "s5.grp")])
    assert code == 1 and out == "" and doc is None
    assert err == "sgk: cap-exceeded: group exceeds the element cap of 100\n"
    assert listed == []


def test_listing_is_never_needed(capsys, tmp_path, monkeypatch):
    jobs = ladder(tmp_path) + construction_jobs(capsys, tmp_path)
    covers = biggs_jobs(tmp_path)
    allowed = [outcome(capsys, tmp_path, argv) for argv in jobs]
    allowed_covers = [outcome(capsys, tmp_path, argv) for argv, _ in covers]
    assert {a[0] for a in allowed + allowed_covers} == {0, 1, 2}
    listed = record_listing(monkeypatch)
    for (argv, n_file), expect in zip(covers, allowed_covers):
        del listed[:]
        assert outcome(capsys, tmp_path, argv) == expect, argv
        n_spec = parse_group_file(Path(n_file).read_text())
        assert listed and set(listed) == {(n_spec.degree, n_spec.generators)}, argv
    forbid_listing(monkeypatch)
    for argv, expect in zip(jobs, allowed):
        assert outcome(capsys, tmp_path, argv) == expect, argv


@pytest.mark.parametrize("n", [9, 10])
def test_symmetric_group_coset_graph_past_the_cap(capsys, tmp_path, monkeypatch, n):
    """S9 and S10 pass the default element cap of 200000; the point
    stabiliser and (1 2) give K9 and K10."""
    monkeypatch.delenv("SGK_ELEMENT_CAP", raising=False)
    forbid_listing(monkeypatch)
    group = tmp_path / f"s{n}.grp"
    group.write_text(symmetric_group_file(n))
    stabiliser = "(2 3),(" + " ".join(str(p) for p in range(2, n + 1)) + ")"
    code, _, err, doc, _ = outcome(
        capsys, tmp_path,
        ["cosetgraph", "--group", str(group), "--subgroup", stabiliser, "--involution", "(1 2)"],
    )
    assert code == 0, err
    facts = doc["facts"]
    assert facts["vertices"] == n and facts["valency"] == n - 1
    assert facts["group_order"] > 200_000
    assert facts["arc_stabilizer_order"] * n * (n - 1) == facts["group_order"]
    assert facts["symmetric"] and facts["kernel_order"] == 1
    assert all(c["pass"] for c in doc["claims"])


def k9_files(tmp_path):
    s9, k9 = tmp_path / "s9.grp", tmp_path / "k9.graph"
    s9.write_text(symmetric_group_file(9))
    edges = "".join(f"edge {i} {j}\n" for i in range(1, 10) for j in range(i + 1, 10))
    k9.write_text("vertices: 9\n" + edges)
    return str(s9), str(k9)


def test_quotient_layer_past_the_cap(capsys, tmp_path, monkeypatch):
    """S10 and S9 pass the default element cap: S10 is primitive, so its
    two block systems are the trivial ones, and the 3-arc orbit of K9
    under S9 that turns back to its start gives a three-arc graph on the
    72 arcs."""
    monkeypatch.delenv("SGK_ELEMENT_CAP", raising=False)
    forbid_listing(monkeypatch)
    s9, k9 = k9_files(tmp_path)
    s10 = tmp_path / "s10.grp"
    s10.write_text(symmetric_group_file(10))
    code, _, err, doc, _ = outcome(capsys, tmp_path, ["blocks", "--group", str(s10)])
    assert code == 0, err
    assert doc["facts"]["count"] == 2
    assert all(c["pass"] for c in doc["claims"])
    code, _, err, doc, _ = outcome(
        capsys, tmp_path,
        ["threearc", "--graph", k9, "--group", s9, "--orbit-index", "0"],
    )
    assert code == 0, err
    assert doc["facts"]["vertices"] == 72 and doc["facts"]["orbit_count"] == 2
    assert all(c["pass"] for c in doc["claims"])


def test_lattice_and_biggs_past_the_cap(capsys, tmp_path, monkeypatch):
    """S10 and S9 pass the default element cap: the lattice over a point
    stabiliser of the primitive S10 has the two trivial blocks, and the
    double cover of K9 by the constant chain has 18 vertices under an
    N x S9 of order 2 x 9!, with Z2 the only group listed."""
    monkeypatch.delenv("SGK_ELEMENT_CAP", raising=False)
    s10 = tmp_path / "s10.grp"
    s10.write_text(symmetric_group_file(10))
    forbid_listing(monkeypatch)
    code, _, err, doc, _ = outcome(capsys, tmp_path, ["lattice", "--group", str(s10)])
    assert code == 0, err
    assert [p["subgroup_order"] for p in doc["facts"]["pairs"]] == [362880, 3628800]
    assert all(c["pass"] for c in doc["claims"])
    listed = record_listing(monkeypatch)
    s9, k9 = k9_files(tmp_path)
    (tmp_path / "twist.txt").write_text("trivial\n")
    (tmp_path / "chain.txt").write_text("arc 1 2 (1 2)\n")
    code, _, err, doc, _ = outcome(capsys, tmp_path, [
        "biggs", "--graph", k9, "--group", s9, "--n", str(FIXDIR / "z2.grp"),
        "--twist", str(tmp_path / "twist.txt"), "--chain", str(tmp_path / "chain.txt")])
    assert code == 0, err
    assert doc["facts"]["cover_vertices"] == 18 and doc["facts"]["semidirect_order"] == 725760
    assert all(c["pass"] for c in doc["claims"])
    assert {degree for degree, _ in listed} == {2}


def test_subgraph_graph_past_the_cap(capsys, tmp_path, monkeypatch):
    """S9 passes the default element cap: the 168 directed triangles of K9
    each have a stabiliser of order 9!/168 = 2160."""
    monkeypatch.delenv("SGK_ELEMENT_CAP", raising=False)
    forbid_listing(monkeypatch)
    s9, k9 = k9_files(tmp_path)
    code, _, err, doc, _ = outcome(capsys, tmp_path, [
        "subgraph-graph", "--graph", k9, "--group", s9,
        "--subgraph", "3>4,4>1,1>3", "--involution", "(1 2)"])
    assert code == 0, err
    assert doc["facts"]["vertices"] == 168 and doc["facts"]["stabilizer_order"] == 2160
    assert all(c["pass"] for c in doc["claims"])


def test_coset_count_is_capped(capsys, tmp_path, monkeypatch):
    """A mistyped small subgroup of S10 has 1814400 cosets: refused at the
    cap, which a lowered cap reaches quickly, while the point stabiliser's
    10 cosets pass under that cap."""
    monkeypatch.setenv("SGK_ELEMENT_CAP", "5000")
    group = tmp_path / "s10.grp"
    group.write_text(symmetric_group_file(10))
    argv = ["cosetgraph", "--group", str(group), "--involution", "(1 3)", "--subgroup"]
    code, out, err, doc, _ = outcome(capsys, tmp_path, argv + ["(1 2)"])
    assert code == 1 and out == "" and doc is None
    assert err.startswith("sgk: cap-exceeded:")
    code, _, err, doc, _ = outcome(capsys, tmp_path, argv + ["(2 3),(2 3 4 5 6 7 8 9 10)"])
    assert code == 0, err
    assert doc["facts"]["vertices"] == 10


@pytest.mark.parametrize("what", ["subgraph-graph", "extend"])
def test_orbit_walks_are_capped(capsys, tmp_path, monkeypatch, what):
    """Under a lowered cap of 100, the 168 directed triangles of K9 under
    S9 are refused, and so is the search for a regular normal subgroup
    of S9 on K9 by singletons, which would try the 8! = 40320 members of
    one coset of S8 before finding none."""
    monkeypatch.setenv("SGK_ELEMENT_CAP", "100")
    forbid_listing(monkeypatch)
    s9, k9 = k9_files(tmp_path)
    singles = tmp_path / "singles.txt"
    singles.write_text("".join(f"{i}\n" for i in range(1, 10)))
    argv = {
        "subgraph-graph": ["subgraph-graph", "--graph", k9, "--group", s9,
                           "--subgraph", "3>4,4>1,1>3", "--involution", "(1 2)"],
        "extend": ["extend", "--via", "flags", "--graph", k9, "--group", s9,
                   "--blocks", str(singles)],
    }[what]
    code, out, err, doc, _ = outcome(capsys, tmp_path, argv)
    assert code == 1 and out == "" and doc is None
    assert err.startswith("sgk: cap-exceeded:") and "element cap of 100" in err


def chain_free_jobs(tmp_path):
    fix = {name: str(FIXDIR / f"{name}.grp") for name in ("s4", "d6")}
    k4, c6 = str(FIXDIR / "k4.graph"), str(FIXDIR / "c6.graph")
    (tmp_path / "halves.txt").write_text("1 4\n2 5\n3 6\n")
    halves, design = str(tmp_path / "halves.txt"), str(tmp_path / "k4.design")
    return [
        ["quotient", "--graph", c6, "--group", fix["d6"], "--blocks", halves],
        ["blocks", "--group", fix["d6"]],
        ["design", "from-graph", "--graph", k4, "--group", fix["s4"],
         "--out", "design", "--out-file", design],
        ["design", "to-graph", "--design", design, "--group", fix["s4"]],
        ["design", "polarities", "--design", design, "--group", fix["s4"]],
        ["threearc", "--graph", k4, "--group", fix["s4"], "--orbit-index", "0"],
    ]


def test_quotient_and_design_commands_build_no_chain(capsys, tmp_path, monkeypatch):
    jobs = chain_free_jobs(tmp_path)
    allowed = [outcome(capsys, tmp_path, argv) for argv in jobs]
    assert {a[0] for a in allowed} == {0}

    def refuse(*args, **kwargs):
        raise AssertionError("a chain was built")

    monkeypatch.setattr(StabChain, "__init__", refuse)
    for argv, expect in zip(jobs, allowed):
        assert outcome(capsys, tmp_path, argv) == expect, argv


def test_lattice_builds_only_a_chain_of_the_point_stabiliser(capsys, tmp_path, monkeypatch):
    """``lattice`` on D36 at its fifth point reads |G_α| = 2 off the one
    chain it builds, of G_α's Schreier generators; G and the G_B are
    given by generators alone."""
    (tmp_path / "d36.grp").write_text(dihedral_group_file(36))
    built = []
    init = StabChain.__init__

    def record(chain, degree, generators):
        init(chain, degree, generators)
        built.append(chain.order)

    monkeypatch.setattr(StabChain, "__init__", record)
    code, *_ = outcome(capsys, tmp_path, ["lattice", "--group", str(tmp_path / "d36.grp"),
                                          "--base", "5"])
    assert code == 0 and built == [2]


def test_subgroup_helpers_never_list_the_group(monkeypatch):
    """S10 passes the default element cap, and so do its point stabilisers:
    the subgroup helpers, the core, the double cosets and their orbitals
    answer from generators and chains alone.  The base graph on the 90
    cosets of Sym{3..10} folds onto the Kneser graph on the 45 cosets of
    Sym{1,2} x Sym{3..10}."""
    monkeypatch.delenv("SGK_ELEMENT_CAP", raising=False)
    forbid_listing(monkeypatch)
    s10 = parse_group_file(symmetric_group_file(10))
    stab = stabilizer_subgroup(s10, 0)
    assert stab.order == 362880
    swap = parse_cycles("(1 2)", 10)
    cycles = ["(3 4)", "(3 4 5 6 7 8 9 10)"]
    base = subgroup_from_generators(s10, [parse_cycles(c, 10) for c in cycles])
    over = subgroup_from_generators(s10, [swap] + list(base.generators))
    assert right_cosets(s10, stab).n_cosets == 10
    form = quotient_as_coset_graph(s10, base, parse_cycles("(1 3)(2 4)", 10), over)
    assert form.exact and form.base.graph.n == 90 and form.model.graph.n == 45
    assert form.model.valency == 28
    assert core(s10, stab).order == 1
    dec = double_cosets(s10, stab)
    assert [(c.rep, c.size) for c in dec.classes] == [(tuple(range(10)), 362880), (swap, 3265920)]
    pairing = orbital_double_coset_map(s10, stab)
    assert [(dc.size, ob.size, ob.diagonal) for dc, ob in pairing] == [
        (362880, 10, True),
        (3265920, 90, False),
    ]
