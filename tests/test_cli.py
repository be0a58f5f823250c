"""The command line front end: exit codes, certificates, determinism."""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FIXDIR, REPO, pgl2
import sgk
from sgk import arc_graphs, cli, cli_covers, cli_groups, constructions, graphs
from sgk.claims import Certificate
from sgk.cli import CLAIM_INVARIANTS, main
from sgk.errors import CertificationFailed
from sgk.graphs import Graph, complete_graph
from sgk.io import format_graph, format_group
from sgk.groups import Action, StabChain
from sgk.perm import Perm
from sgk.subgroups import BlockSystem


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _patch_everywhere(monkeypatch, original, replacement):
    """Bind ``replacement`` wherever a loaded ``sgk`` module binds
    ``original``, so that no module importing it by name keeps it."""
    for name, module in list(sys.modules.items()):
        if name == "sgk" or name.startswith("sgk."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def cert_from(out):
    doc = json.loads(out)
    assert set(doc) == {"claims", "construction", "facts", "inputs", "ok", "timing_ms"}
    for claim in doc["claims"]:
        assert claim["id"] in CLAIM_INVARIANTS
        assert ("witness" in claim) == claim["pass"]
        assert ("counterexample" in claim) == (not claim["pass"])
    return doc


GRP = str(FIXDIR / "s4.grp")
GRAPH = str(FIXDIR / "k4.graph")


def test_group_certificate(capsys):
    code, out, err = run(capsys, "group", "--group", GRP)
    assert code == 0
    doc = cert_from(out)
    assert doc["facts"]["order"] == 24
    assert doc["facts"]["transitive"]
    assert doc["ok"]


def test_cosetgraph_dot_golden(capsys):
    code, out, err = run(
        capsys,
        "cosetgraph",
        "--group", GRP,
        "--subgroup", "(2 3),(3 4)",
        "--involution", "(1 2)",
        "--out", "dot",
    )
    assert code == 0
    assert out.startswith("graph {")
    assert out.count("--") == 6
    assert out.count("[label=") == 4


def test_cosetgraph_certificate_fields(capsys, tmp_path):
    cert_path = tmp_path / "c.json"
    code, out, err = run(
        capsys,
        "cosetgraph",
        "--group", GRP,
        "--subgroup", "(2 3),(3 4)",
        "--involution", "(1 2)",
        "--certificate", str(cert_path),
    )
    assert code == 0
    doc = cert_from(cert_path.read_text())
    f = doc["facts"]
    assert f["valency"] == 3
    assert f["arc_stabilizer_order"] == 2
    assert f["kernel_order"] == 1
    assert f["symmetric"] and f["vertex_transitive"] and f["arc_transitive"]
    assert f["connected"]
    ids = [c["id"] for c in doc["claims"]]
    assert "valency-law" in ids and "arc-stabilizer-law" in ids


def test_cosetgraph_involution_inside_subgroup(capsys):
    code, out, err = run(
        capsys,
        "cosetgraph",
        "--group", GRP,
        "--subgroup", "(2 3),(3 4)",
        "--involution", "(2 3)",
        "--out", "dot",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("sgk: inside-subgroup:")


def test_cosetgraph_not_involution(capsys):
    code, _, err = run(
        capsys,
        "cosetgraph",
        "--group", GRP,
        "--subgroup", "(2 3),(3 4)",
        "--involution", "(1 2 3)",
    )
    assert code == 1
    assert err.startswith("sgk: not-involution:")


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "group", "--group", "no-such-file.grp")
    assert code == 1
    assert err.startswith("sgk: invalid-input:")


def test_verify_symmetric_graph(capsys):
    code, out, _ = run(capsys, "verify", "--graph", GRAPH, "--group", GRP)
    assert code == 0
    doc = cert_from(out)
    assert doc["facts"]["symmetric"] is True


def test_verify_asymmetric_pair_exits_two(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--graph", str(FIXDIR / "c6.graph"),
        "--group", str(FIXDIR / "z6.grp"),
    )
    assert code == 2
    doc = cert_from(out)
    assert not doc["ok"]
    failing = [c for c in doc["claims"] if not c["pass"]]
    assert failing
    assert "counterexample" in failing[0]


@pytest.mark.parametrize(
    "group, kind, detail",
    [
        ((FIXDIR / "z6.grp").read_text(), "two arcs in different orbits",
         {"arc": ["1", "2"], "unreached_arc": ["1", "6"]}),
        ("degree: 6\n(1 2)\n", "generator breaks an arc",
         {"arc": ["1", "6"], "generator": "(1 2)", "image": ["2", "6"]}),
        ("degree: 6\n(2 6)(3 5)\n", "vertex orbit is proper",
         {"orbit_of_first_vertex": ["1"]}),
    ],
    ids=["rotations", "transposition", "reflection"],
)
def test_verify_names_each_kind_of_symmetric_action_counterexample(
    capsys, tmp_path, group, kind, detail
):
    """C6 fails symmetry three ways: Z6 is not locally transitive, (1 2)
    is no automorphism, and one reflection leaves vertex 1 alone."""
    (tmp_path / "g.grp").write_text(group)
    code, out, _ = run(
        capsys, "verify", "--graph", str(FIXDIR / "c6.graph"), "--group", str(tmp_path / "g.grp")
    )
    assert code == 2
    failing = [c for c in cert_from(out)["claims"] if not c["pass"]]
    assert [c["id"] for c in failing] == ["symmetric-action"]
    assert failing[0]["counterexample"] == {"kind": kind, **detail}


def test_quotient_command(capsys, tmp_path):
    blocks = tmp_path / "blocks.txt"
    blocks.write_text("1 4\n2 5\n3 6\n")
    cert_path = tmp_path / "cert.json"
    code, out, _ = run(
        capsys,
        "quotient",
        "--graph", str(FIXDIR / "c6.graph"),
        "--group", str(FIXDIR / "d6.grp"),
        "--blocks", str(blocks),
        "--certificate", str(cert_path),
        "--out", "edges",
    )
    assert code == 0
    assert "vertices: 3" in out
    doc = cert_from(cert_path.read_text())
    assert doc["facts"]["cover_class"] == "cover"
    assert doc["facts"]["design"] == {"v": 2, "k": 2, "lam": 2, "b": 2, "multiplicity": 2}


def test_quotient_trivial_partition_is_input_error(capsys, tmp_path):
    blocks = tmp_path / "blocks.txt"
    blocks.write_text("1 2 3 4 5 6\n")
    code, _, err = run(
        capsys,
        "quotient",
        "--graph", str(FIXDIR / "c6.graph"),
        "--group", str(FIXDIR / "d6.grp"),
        "--blocks", str(blocks),
    )
    assert code == 1
    # the library's allow_trivial has no command-line flag, so the message names none
    assert err == "sgk: trivial-quotient: some arc stays inside a block (or there are no arcs)\n"


def test_orbit_index_on_a_graph_without_three_arcs(capsys, tmp_path):
    """K2 under S2 has arcs but no 3-arcs: an orbit index says that there
    are no orbits, not that it lies outside 0..-1."""
    (tmp_path / "k2.graph").write_text("vertices: 2\nedge 1 2\n")
    (tmp_path / "s2.grp").write_text("degree: 2\n(1 2)\n")
    argv = ["threearc", "--graph", str(tmp_path / "k2.graph"), "--group", str(tmp_path / "s2.grp")]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and cert_from(out)["facts"]["orbit_count"] == 0
    code, _, err = run(capsys, *argv, "--orbit-index", "0")
    assert code == 1
    assert err == "sgk: invalid-input: orbit index 0: there are no 3-arc orbits\n"


def test_a_non_ascii_digit_is_a_syntax_error(capsys, tmp_path):
    """``str.isdigit`` holds for a superscript two, which ``int`` refuses;
    a point is ASCII digits or bad cycle syntax."""
    (tmp_path / "sup.grp").write_text("degree: 2\n(1 \u00b2)\n", encoding="utf-8")
    code, _, err = run(capsys, "group", "--group", str(tmp_path / "sup.grp"))
    assert code == 1
    assert err.startswith("sgk: syntax: bad point ")


@pytest.mark.parametrize("command", (["quotient"], ["extend", "--via", "flags"]))
def test_a_split_block_is_named_by_vertex_labels(capsys, tmp_path, command):
    graph = tmp_path / "c6.graph"
    labels = "".join(f"label {v} {name}\n" for v, name in enumerate("abcdef", 1))
    graph.write_text((FIXDIR / "c6.graph").read_text() + labels)
    blocks = tmp_path / "blocks.txt"
    blocks.write_text("1 2\n3 4\n5 6\n")
    code, out, err = run(
        capsys,
        *command,
        "--graph", str(graph),
        "--group", str(FIXDIR / "d6.grp"),
        "--blocks", str(blocks),
    )
    assert (code, out) == (1, "")
    assert err == "sgk: not-invariant: a generator splits block {a, b}\n"


def _run_python_bare(probe: str) -> subprocess.CompletedProcess:
    """``probe`` in a fresh interpreter with the package on its path;
    ``-S`` keeps site hooks of the interpreter from loading any module."""
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    return subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )


def test_importing_the_cli_loads_neither_hashlib_pathlib_dataclasses_nor_inspect():
    """The result types are records that generate no code at import, the
    input digest comes from the interpreter's built-in SHA-256, not from
    OpenSSL through hashlib, and files are opened without pathlib.  Every
    module of the package but ``fixtures`` is loaded, and so compiled,
    before ``main`` runs."""
    heavy = ["_hashlib", "dataclasses", "hashlib", "inspect", "pathlib"]
    package = sorted(
        f"sgk.{path.stem}" for path in (REPO / "src" / "sgk").glob("*.py")
        if path.stem not in ("__init__", "fixtures")
    )
    done = _run_python_bare(
        f"import sys, sgk.cli; print(sorted(set({heavy}) & set(sys.modules)),"
        f" sorted(set({package}) - set(sys.modules)))"
    )
    assert (done.returncode, done.stdout) == (0, "[] []\n"), done.stderr


def _sha256_of_text(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


@given(st.text(st.characters(blacklist_categories=("Cs",))))
@example("\r")
@example("degree: 2\r\n(1 2)\r\n")
@example("caf\u00e9 \u00b2 \u2192")
@example("\U0001d11e\U0001f600\r")
def test_the_input_digest_is_the_sha256_of_the_utf8_text(text):
    cert = Certificate("group")
    cert.add_input("group", text)
    assert cert.inputs == {"group": _sha256_of_text(text)}


def test_the_input_digest_falls_back_to_hashlib(tmp_path):
    """An interpreter built without its own SHA-256 modules digests the
    inputs through hashlib, to the same value."""
    path, cert_path = FIXDIR / "s4.grp", tmp_path / "c.json"
    done = _run_python_bare(
        "import sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None; import sgk.cli; "
        f"code = sgk.cli.main(['group', '--group', {str(path)!r}, '--certificate', {str(cert_path)!r}]); "
        "print(code, 'hashlib' in sys.modules)"
    )
    assert (done.returncode, done.stdout) == (0, "0 True\n"), done.stderr
    doc = json.loads(cert_path.read_text())
    assert doc["inputs"] == {"group": _sha256_of_text(path.read_text())}


@pytest.mark.parametrize("flag", ["--certificate", "--out-file", "--group-out"])
def test_an_unwritable_output_path_is_a_rejected_input(capsys, tmp_path, flag):
    """Exit 1 with the reason, in the form of an unreadable input, and
    nothing on stdout, not even the graph asked for there."""
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run(
        capsys, "cosetgraph", "--group", str(FIXDIR / "s4.grp"), "--subgroup", "(2 3),(3 4)",
        "--involution", "(1 2)", "--out", "edges", flag, str(target),
    )
    assert (code, out) == (1, "")
    assert err == f"sgk: invalid-input: cannot write {target}: No such file or directory\n"


def test_blocks_and_lattice(capsys):
    code, out, _ = run(capsys, "blocks", "--group", str(FIXDIR / "d4.grp"))
    assert code == 0
    doc = cert_from(out)
    assert [[1, 3], [2, 4]] in doc["facts"]["systems"]

    code, out, _ = run(capsys, "lattice", "--group", str(FIXDIR / "d4.grp"))
    assert code == 0
    doc = cert_from(out)
    assert doc["facts"]["count"] == 3


def test_block_closure_names_the_first_failing_system(capsys, monkeypatch):
    """Two partitions that D6 does not keep: the counterexample is the
    first block of the first one."""
    pairs = BlockSystem.from_blocks(6, [[0, 1], [2, 3], [4, 5]])
    halves = BlockSystem.from_blocks(6, [[0, 1, 2], [3, 4, 5]])
    monkeypatch.setattr(cli_groups, "all_block_systems", lambda group: [pairs, halves])
    code, out, _ = run(capsys, "blocks", "--group", str(FIXDIR / "d6.grp"))
    assert code == 2
    claims = {c["id"]: c for c in cert_from(out)["claims"]}
    assert claims["block-closure"]["counterexample"] == {"system": 0, "block": [1, 2]}


@pytest.mark.parametrize("argv, message", [
    (["lattice", "--group", "{fix}/d6.grp", "--base", "0"],
     "point-out-of-range: base point 0 outside 1..6"),
    (["lattice", "--group", "{fix}/d6.grp", "--base", "7"],
     "point-out-of-range: base point 7 outside 1..6"),
    (["subgraph-graph", "--graph", "{fix}/c6.graph", "--group", "{fix}/d6.grp",
      "--subgraph", "1>3", "--involution", "(1 4)(2 5)(3 6)"],
     "not-subgraph: (1, 3) is not an arc of the graph"),
    # a 4-cycle of K4's points reaches 8 of its 12 arcs from one seed
    (["biggs", "--graph", "{fix}/k4.graph", "--group", "{tmp}/c4.grp", "--n", "{fix}/z2.grp",
      "--twist", "{tmp}/twist.txt", "--chain", "{tmp}/seed.txt"],
     "invalid-chain: 4 arcs are in orbits no seed touches, first (1, 3)"),
    (["design", "polarities", "--design", "{tmp}/square.design", "--group", "{tmp}/swap.grp"],
     "no-block-action: (1 2) does not carry block east to a block"),
    (["design", "polarities", "--design", "{tmp}/twice.design", "--group", "{tmp}/c4.grp"],
     "ambiguous-block-action: blocks a and b share a trace, so the block action is not defined"),
    (["design", "to-graph", "--design", "{tmp}/singles.design", "--group", "{tmp}/c3.grp"],
     "degenerate-design: point 1 lies on its own polar block; "
     "the graph would need a loop there"),
    (["quotient", "--graph", "{fix}/c6.graph", "--group", "{fix}/d6.grp",
      "--blocks", "{tmp}/overlap.txt"],
     "invalid-input: line 2: point 2 is already on line 1"),
    (["extend", "--via", "flags", "--graph", "{fix}/c6.graph", "--group", "{fix}/d6.grp",
      "--blocks", "{tmp}/overlap.txt"],
     "invalid-input: line 2: point 2 is already on line 1"),
    (["quotient", "--graph", "{fix}/c6.graph", "--group", "{fix}/d6.grp",
      "--blocks", "{tmp}/repeat.txt"],
     "invalid-input: line 1: point 1 is already on line 1"),
], ids=["base-0", "base-past-degree", "subgraph-arc", "unseeded-arc", "no-block-action",
        "ambiguous-block-action", "degenerate-design", "blocks-overlap", "flags-blocks-overlap",
        "blocks-repeat"])
def test_errors_name_points_one_based(capsys, tmp_path, argv, message):
    """Every input is 1-based, and so is every point or vertex an error
    names; design errors name blocks and points by their labels."""
    (tmp_path / "c4.grp").write_text("degree: 4\n(1 2 3 4)\n")
    (tmp_path / "twist.txt").write_text("trivial\n")
    (tmp_path / "seed.txt").write_text("arc 1 2 (1 2)\n")
    (tmp_path / "swap.grp").write_text("degree: 4\n(1 2)\n")
    (tmp_path / "c3.grp").write_text("degree: 3\n(1 2 3)\n")
    (tmp_path / "square.design").write_text(
        "points: 4\nblock north: 1 2\nblock east: 2 3\nblock south: 3 4\nblock west: 4 1\n"
    )
    (tmp_path / "twice.design").write_text(
        "points: 4\nblock a: 1 2\nblock b: 1 2\nblock c: 3 4\nblock d: 3 4\n"
    )
    (tmp_path / "singles.design").write_text("points: 3\nblock x: 1\nblock y: 2\nblock z: 3\n")
    (tmp_path / "overlap.txt").write_text("1 2\n2 3\n4 5 6\n")
    (tmp_path / "repeat.txt").write_text("1 1 4\n2 5\n3 6\n")
    code, out, err = run(capsys, *(a.format(fix=FIXDIR, tmp=tmp_path) for a in argv))
    assert (code, out, err) == (1, "", f"sgk: {message}\n")


def test_orbitals_command(capsys):
    code, out, _ = run(capsys, "orbitals", "--group", GRP)
    assert code == 0
    doc = cert_from(out)
    assert doc["facts"]["rank"] == 2


def test_design_pipeline(capsys, tmp_path):
    design_path = tmp_path / "k4.design"
    code, out, _ = run(
        capsys,
        "design", "from-graph",
        "--graph", GRAPH,
        "--group", GRP,
        "--out", "design",
        "--out-file", str(design_path),
    )
    assert code == 0
    assert design_path.read_text().startswith("points: 4")

    code, out, _ = run(
        capsys, "design", "validate", "--design", str(design_path)
    )
    assert code == 0
    doc = cert_from(out)
    assert doc["facts"] == {"v": 4, "b": 4, "k": 3, "lam": 3, "multiplicity": 1}

    code, out, _ = run(
        capsys,
        "design", "to-graph",
        "--design", str(design_path),
        "--group", GRP,
        "--out", "edges",
    )
    assert code == 0
    assert "vertices: 4" in out

    code, out, _ = run(
        capsys, "design", "polarities", "--design", str(design_path), "--group", GRP
    )
    assert code == 0
    doc = cert_from(out)
    assert doc["facts"]["count"] >= 1


def test_threearc_commands(capsys, tmp_path):
    code, out, _ = run(capsys, "threearc", "--graph", GRAPH, "--group", GRP)
    assert code == 0
    doc = cert_from(out)
    assert doc["facts"]["orbit_count"] == 2
    assert [o["size"] for o in doc["facts"]["orbits"]] == [24, 24]

    cert_path = tmp_path / "t.json"
    code, out, _ = run(
        capsys,
        "threearc",
        "--graph", GRAPH,
        "--group", GRP,
        "--orbit-index", "0",
        "--certificate", str(cert_path),
        "--out", "edges",
    )
    assert code == 0
    assert "vertices: 12" in out
    doc = cert_from(cert_path.read_text())
    assert doc["facts"]["pe_labelling_found"] is True
    assert doc["facts"]["three_arc_necessity"] is True

    code, _, err = run(
        capsys, "threearc", "--graph", GRAPH, "--group", GRP, "--orbit-index", "7"
    )
    assert code == 1
    assert "orbit index" in err


def test_threearc_labelling_has_no_block_size_limit(capsys, tmp_path):
    """Blocks of 11 arcs on K12 under PGL(2,11): the labelling test
    answers instead of refusing the command."""
    (tmp_path / "k12.graph").write_text(format_graph(complete_graph(12)))
    (tmp_path / "pgl.grp").write_text(format_group(pgl2(11)))
    code, out, err = run(
        capsys, "threearc", "--graph", str(tmp_path / "k12.graph"),
        "--group", str(tmp_path / "pgl.grp"), "--orbit-index", "0",
    )
    assert code == 0, err
    doc = cert_from(out)
    assert doc["ok"] is True
    assert doc["facts"]["vertices"] == 132
    assert doc["facts"]["pe_labelling_found"] is True


def test_biggs_command(capsys, tmp_path):
    twist = tmp_path / "twist.txt"
    twist.write_text("trivial\n")
    chain = tmp_path / "chain.txt"
    chain.write_text("arc 1 2 (1 2)\n")
    cert_path = tmp_path / "b.json"
    code, out, _ = run(
        capsys,
        "biggs",
        "--graph", GRAPH,
        "--group", GRP,
        "--n", str(FIXDIR / "z2.grp"),
        "--twist", str(twist),
        "--chain", str(chain),
        "--certificate", str(cert_path),
        "--out", "edges",
    )
    assert code == 0
    assert "vertices: 8" in out
    doc = cert_from(cert_path.read_text())
    assert doc["facts"]["semidirect_order"] == 48
    assert doc["facts"]["cover_class"] == "cover"
    assert doc["ok"]


COUNTED_RUNS = [
    ("verify_action", ["biggs", "--graph", GRAPH, "--group", GRP, "--n", "{fix}/z2.grp",
                       "--twist", "{tmp}/trivial", "--chain", "{tmp}/chain"], [8, 4]),
    ("verify_action", ["threearc", "--graph", GRAPH, "--group", GRP, "--orbit-index", "0"],
     [4, 12, 4]),
    ("verify_action", ["design", "to-graph", "--design", "{tmp}/c6.design",
                       "--group", "{fix}/d6.grp"], [6]),
    ("_preserves_arcs", ["verify", "--graph", "{fix}/c6.graph", "--group", "{fix}/d6.grp"], [6]),
    ("_preserves_arcs", ["cosetgraph", "--group", GRP, "--subgroup", "(2 3),(3 4)",
                         "--involution", "(1 2)"], [4]),
]


@pytest.mark.parametrize(
    "name, argv, verified",
    COUNTED_RUNS,
    ids=["biggs", "threearc", "design-to-graph", "verify", "cosetgraph"],
)
def test_certified_graphs_are_not_verified_again(capsys, tmp_path, monkeypatch, name, argv, verified):
    """Each graph is verified once, and whatever needs its symmetry takes
    the report that verification made.  ``graphs.<name>`` runs on the
    graph sizes listed: ``verify_action`` for ``biggs`` on K4 on the cover
    and its quotient, for ``threearc --orbit-index 0`` on K4, the
    three-arc graph and its quotient, for ``design to-graph`` on C6's
    design on the rebuilt C6 alone; the arc-preservation test once for
    ``verify`` on C6 and ``cosetgraph`` on K4, whose s-arc level reads
    the report."""
    (tmp_path / "trivial").write_text("trivial\n")
    (tmp_path / "chain").write_text("arc 1 2 (1 2)\n")
    code, _, err = run(
        capsys, "design", "from-graph", "--graph", str(FIXDIR / "c6.graph"),
        "--group", str(FIXDIR / "d6.grp"), "--out-file", str(tmp_path / "c6.design"),
    )
    assert code == 0, err
    argv = [a.format(fix=FIXDIR, tmp=tmp_path) for a in argv]
    seen = []
    real = getattr(graphs, name)

    def counted(graph, *rest):
        seen.append(graph.n)
        return real(graph, *rest)

    _patch_everywhere(monkeypatch, real, counted)
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    assert seen == verified


def test_biggs_action_law_catches_one_corrupted_row(capsys, tmp_path, monkeypatch):
    """The law is decided on the generators: swap two images in one
    generator's cover row, after the cover's own checks, and the pairs of
    generators and rows generate more than N⋊G, so the claim fails."""
    real = cli_covers.biggs_cover

    def corrupted(graph, group, sd, chain):
        bc = real(graph, group, sd, chain)
        rows = list(bc.action.generator_rows())
        row = list(rows[-1])
        row[0], row[1] = row[1], row[0]
        rows[-1] = tuple(row)
        return constructions.BiggsCover(
            cover=bc.cover,
            action=Action(sd, bc.cover.n, rows),
            sd=bc.sd,
            chain=bc.chain,
            fibres=bc.fibres,
            report=bc.report,
            certificate=bc.certificate,
            chain_report=bc.chain_report,
        )

    monkeypatch.setattr(cli_covers, "biggs_cover", corrupted)
    k5 = tmp_path / "k5.graph"
    edges = "".join(f"edge {u} {v}\n" for u in range(1, 6) for v in range(u + 1, 6))
    k5.write_text("vertices: 5\n" + edges)
    v4 = tmp_path / "v4.grp"
    v4.write_text("degree: 4\n(1 2)(3 4)\n(1 3)(2 4)\n")
    twist = tmp_path / "twist.txt"
    twist.write_text("trivial\n")
    chain = tmp_path / "chain.txt"
    chain.write_text("arc 1 2 (1 2)(3 4)\n")
    code, out, _ = run(
        capsys,
        "biggs",
        "--graph", str(k5),
        "--group", str(FIXDIR / "s5.grp"),
        "--n", str(v4),
        "--twist", str(twist),
        "--chain", str(chain),
    )
    assert code == 2
    doc = cert_from(out)
    assert doc["facts"]["semidirect_order"] == 480
    law = next(c for c in doc["claims"] if c["id"] == "biggs-action-law")
    assert not law["pass"]


def test_biggs_fiber_matching_catches_two_swapped_cover_edges(capsys, tmp_path, monkeypatch):
    """The K4 cover with its edges {id|1, (1 2)|2} and {id|2, (1 2)|3}
    swapped for {id|1, id|2} and {(1 2)|2, (1 2)|3}: every degree is
    kept, but id|2 meets fibre 1 twice and fibre 3 not at all, so the
    fibre matching is the one claim that fails, at fibres 1 and 2."""
    real = cli_covers.biggs_cover

    def swapped(graph, group, sd, chain):
        bc = real(graph, group, sd, chain)
        arcs = bc.cover.arcs - {(0, 5), (5, 0), (1, 6), (6, 1)}
        arcs |= {(0, 1), (1, 0), (5, 6), (6, 5)}
        cover = Graph(bc.cover.labels, arcs)
        assert cover.valency() == bc.cover.valency()
        return type(bc)(**dict(bc.asdict(), cover=cover))

    monkeypatch.setattr(cli_covers, "biggs_cover", swapped)
    (tmp_path / "trivial").write_text("trivial\n")
    (tmp_path / "chain").write_text("arc 1 2 (1 2)\n")
    code, out, err = run(
        capsys, "biggs", "--graph", GRAPH, "--group", GRP, "--n", str(FIXDIR / "z2.grp"),
        "--twist", str(tmp_path / "trivial"), "--chain", str(tmp_path / "chain"),
    )
    assert code == 2, err
    failed = [c for c in cert_from(out)["claims"] if not c["pass"]]
    assert [c["id"] for c in failed] == ["biggs-fiber-matching"]
    assert failed[0]["counterexample"] == {"fibres": [1, 2]}


def _drop_the_last_orbital(real):
    return lambda group: real(group)[:-1]


def _swap_two_lattice_blocks(real):
    """The blocks of the second and third pairs exchanged, each pair
    keeping its subgroup: D6's {1, 4} and {1, 3, 5}."""

    def swapped(group, base_point=0):
        pairs = list(real(group, base_point))
        a, b = pairs[1], pairs[2]
        pairs[1] = type(a)(**dict(a.asdict(), block=b.block))
        pairs[2] = type(b)(**dict(b.asdict(), block=a.block))
        return pairs

    return swapped


def _design_of_the_antipodal_matching(real):
    """The neighbourhood design of C6's antipodal matching, which D6
    keeps too, in place of that of C6: valency 1, not 2."""
    matching = Graph.from_edges(6, [(0, 3), (1, 4), (2, 5)])
    return lambda report: real(graphs.verify_action(matching, report.action))


def _count_each_bundle_twice(real):
    """The extension as built, with r = [H : K] read as twice itself."""

    def doubled(group, sub, over, a):
        ext = real(group, sub, over, a)
        return type(ext)(**dict(ext.asdict(), r=2 * ext.r))

    return doubled


def _drop_one_extension_edge(real):
    """The extension as built, less its least edge: no longer regular."""

    def dropped(group, sub, over, a):
        ext = real(group, sub, over, a)
        u, v = min(ext.extension.arcs)
        arcs = ext.extension.arcs - {(u, v), (v, u)}
        return type(ext)(**dict(ext.asdict(), extension=Graph(ext.extension.labels, arcs)))

    return dropped


EXTEND_OCTAHEDRON = [
    "extend", "--via", "arcs", "--group", "{fix}/octahedron-aut.grp",
    "--subgroup", "(2 3)(5 6),(2 5)(3 6),(3 6)", "--over", "(3 6),(2 5)",
    "--involution", "(1 2)(4 5)",
]

CLAIM_FAULTS = [
    pytest.param("rank-consistency", "orbitals", _drop_the_last_orbital,
                 ["orbitals", "--group", "{fix}/d6.grp"], id="rank-consistency"),
    pytest.param("lattice-isomorphism", "subgroup_block_lattice", _swap_two_lattice_blocks,
                 ["lattice", "--group", "{fix}/d6.grp"], id="lattice-isomorphism"),
    pytest.param("graph-design-parameters", "design_from_graph", _design_of_the_antipodal_matching,
                 ["design", "from-graph", "--graph", "{fix}/c6.graph", "--group", "{fix}/d6.grp"],
                 id="graph-design-parameters"),
    pytest.param("extension-counting", "arc_partition_extension", _count_each_bundle_twice,
                 EXTEND_OCTAHEDRON, id="extension-counting"),
    pytest.param("extension-counting", "arc_partition_extension", _drop_one_extension_edge,
                 EXTEND_OCTAHEDRON, id="extension-counting-irregular"),
]


@pytest.mark.parametrize("claim, name, fault, argv", CLAIM_FAULTS)
def test_a_fault_in_the_library_makes_its_claim_false(capsys, monkeypatch, claim, name, fault, argv):
    """The command passes as it is, and exits 2 with the claim false once
    the library function ``name`` returns a wrong answer."""
    argv = [a.format(fix=FIXDIR) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert {c["id"]: c["pass"] for c in cert_from(out)["claims"]}[claim]
    real = getattr(sgk, name)
    _patch_everywhere(monkeypatch, real, fault(real))
    code, out, err = run(capsys, *argv)
    assert code == 2, err
    assert not {c["id"]: c["pass"] for c in cert_from(out)["claims"]}[claim]


def test_subgraph_graph_command(capsys):
    code, out, _ = run(
        capsys,
        "subgraph-graph",
        "--graph", GRAPH,
        "--group", GRP,
        "--subgraph", "3>4,4>1,1>3",
        "--involution", "(1 2)",
    )
    assert code == 0
    doc = cert_from(out)
    assert doc["facts"]["vertices"] == 8
    assert doc["facts"]["valency"] == 3
    assert doc["facts"]["stabilizer_order"] == 3

    code, _, err = run(
        capsys,
        "subgraph-graph",
        "--graph", GRAPH,
        "--group", GRP,
        "--subgraph", "3-4",
        "--involution", "(1 2)",
    )
    assert code == 1
    assert "invalid-input" in err


def test_extend_arcs_command(capsys):
    code, out, _ = run(
        capsys,
        "extend",
        "--via", "arcs",
        "--group", str(FIXDIR / "octahedron-aut.grp"),
        "--subgroup", "(2 3)(5 6),(2 5)(3 6),(3 6)",
        "--over", "(3 6),(2 5)",
        "--involution", "(1 2)(4 5)",
    )
    assert code == 0
    doc = cert_from(out)
    assert doc["facts"]["r"] == 2
    assert doc["facts"]["extension_vertices"] == 12

    code, _, err = run(
        capsys, "extend", "--via", "arcs", "--group", str(FIXDIR / "octahedron-aut.grp")
    )
    assert code == 1
    assert "needs" in err


def test_extend_flags_command(capsys, tmp_path):
    twist = tmp_path / "twist.txt"
    twist.write_text("trivial\n")
    chain = tmp_path / "chain.txt"
    chain.write_text("arc 1 2 (1 2)\n")
    cover_path = tmp_path / "cover.graph"
    group_path = tmp_path / "cover.grp"
    code, out, _ = run(
        capsys,
        "biggs",
        "--graph", GRAPH,
        "--group", GRP,
        "--n", str(FIXDIR / "z2.grp"),
        "--twist", str(twist),
        "--chain", str(chain),
        "--out", "edges",
        "--out-file", str(cover_path),
        "--group-out", str(group_path),
    )
    assert code == 0
    blocks = tmp_path / "fibres.txt"
    blocks.write_text("1 5\n2 6\n3 7\n4 8\n")
    code, out, _ = run(
        capsys,
        "extend",
        "--via", "flags",
        "--graph", str(cover_path),
        "--group", str(group_path),
        "--blocks", str(blocks),
    )
    assert code == 0
    doc = cert_from(out)
    assert doc["facts"]["normal_subgroup_order"] == 4
    assert doc["facts"]["flag_orbital_size"] == 6
    assert doc["ok"]


@pytest.mark.parametrize(
    "graph, group, blocks, code",
    [
        # every arc of C6 stays inside the one block
        ("c6.graph", "d6.grp", "1 2 3 4 5 6\n", "trivial-quotient"),
        # Z6 keeps the antipodal pairs but is not locally transitive on C6
        ("c6.graph", "z6.grp", "1 4\n2 5\n3 6\n", "not-symmetric"),
    ],
)
def test_extend_flags_rejects_bad_quotients(capsys, tmp_path, graph, group, blocks, code):
    path = tmp_path / "blocks.txt"
    path.write_text(blocks)
    cert_path = tmp_path / "cert.json"
    status, out, err = run(
        capsys,
        "extend",
        "--via", "flags",
        "--graph", str(FIXDIR / graph),
        "--group", str(FIXDIR / group),
        "--blocks", str(path),
        "--certificate", str(cert_path),
    )
    assert status == 1
    assert err.startswith(f"sgk: {code}:")
    assert out == ""
    assert not cert_path.exists()


def _graph_commands(tmp_path) -> list:
    """An invocation of each command that can write a graph."""
    files = {
        "twist.txt": "trivial\n", "chain.txt": "arc 1 2 (1 2)\n",
        "halves.txt": "1 4\n2 5\n3 6\n", "fibres.txt": "1 5\n2 6\n3 7\n4 8\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    t = {name: str(tmp_path / name) for name in files}
    design, cover, cover_group = (str(tmp_path / f) for f in ("k4.design", "cover.graph", "cover.grp"))
    assert main(["design", "from-graph", "--graph", GRAPH, "--group", GRP,
                 "--out-file", design]) == 0
    assert main(["biggs", "--graph", GRAPH, "--group", GRP, "--n", str(FIXDIR / "z2.grp"),
                 "--twist", t["twist.txt"], "--chain", t["chain.txt"],
                 "--out-file", cover, "--group-out", cover_group]) == 0
    return [
        ["cosetgraph", "--group", GRP, "--subgroup", "(2 3),(3 4)", "--involution", "(1 2)"],
        ["quotient", "--graph", str(FIXDIR / "c6.graph"), "--group", str(FIXDIR / "d6.grp"),
         "--blocks", t["halves.txt"]],
        ["design", "to-graph", "--design", design, "--group", GRP],
        ["threearc", "--graph", GRAPH, "--group", GRP, "--orbit-index", "0"],
        ["biggs", "--graph", GRAPH, "--group", GRP, "--n", str(FIXDIR / "z2.grp"),
         "--twist", t["twist.txt"], "--chain", t["chain.txt"]],
        ["subgraph-graph", "--graph", GRAPH, "--group", GRP,
         "--subgraph", "3>4,4>1,1>3", "--involution", "(1 2)"],
        ["extend", "--via", "arcs", "--group", str(FIXDIR / "octahedron-aut.grp"),
         "--subgroup", "(2 3)(5 6),(2 5)(3 6),(3 6)", "--over", "(3 6),(2 5)",
         "--involution", "(1 2)(4 5)"],
        ["extend", "--via", "flags", "--graph", cover, "--group", cover_group,
         "--blocks", t["fibres.txt"]],
    ]


def test_out_file_alone_writes_edges(capsys, tmp_path):
    """--out-file with no --out writes what --out edges prints, and the
    certificate goes to stdout."""
    commands = _graph_commands(tmp_path)
    capsys.readouterr()
    for i, argv in enumerate(commands):
        code, printed, err = run(capsys, *argv, "--out", "edges")
        assert code == 0, (argv, err)
        path = tmp_path / f"out{i}.graph"
        code, shown, err = run(capsys, *argv, "--out-file", str(path))
        assert code == 0, (argv, err)
        assert printed.startswith("vertices:")
        assert path.read_text() == printed, argv
        # stdout did not get the graph, so it gets the certificate
        assert cert_from(shown)["ok"] is True, argv


def test_certificates_deterministic(capsys):
    _, out1, _ = run(capsys, "orbitals", "--group", GRP)
    _, out2, _ = run(capsys, "orbitals", "--group", GRP)
    strip = lambda s: re.sub(r'"timing_ms": [0-9.]+', '"timing_ms": 0', s)
    assert strip(out1) == strip(out2)


def test_group_out_writes_readable_group(capsys, tmp_path):
    group_path = tmp_path / "induced.grp"
    code, _, _ = run(
        capsys,
        "cosetgraph",
        "--group", GRP,
        "--subgroup", "(2 3),(3 4)",
        "--involution", "(1 2)",
        "--out", "edges",
        "--group-out", str(group_path),
    )
    assert code == 0
    from sgk.io import parse_group_file

    induced = parse_group_file(group_path.read_text())
    assert induced.degree == 4
    assert len(induced.elements) == 24


def test_broken_postcondition_is_a_failed_claim(capsys, monkeypatch):
    def broken(args, cert):
        raise CertificationFailed("certification failed: a planted fault")

    monkeypatch.setattr(cli, "cmd_group", broken)
    code, out, _ = run(capsys, "group", "--group", GRP)
    assert code == 2
    doc = cert_from(out)
    assert doc["claims"] == [
        {
            "id": "orbit-stabilizer",
            "pass": False,
            "counterexample": "certification failed: a planted fault",
        }
    ]


@pytest.mark.parametrize(
    "command, primary",
    [("biggs", "biggs-action-law"), ("threearc", "three-arc-identification")],
)
def test_broken_cover_is_a_failed_claim(capsys, monkeypatch, tmp_path, command, primary):
    """A construction that builds a graph its group does not act on
    symmetrically fails its own claim (exit 2); the quotient it takes
    afterwards does not turn that into a rejected input (exit 1)."""
    real = constructions.Graph

    def broken(labels, arcs):
        arcs = sorted(set(arcs))
        u, v = arcs[0]
        return real(labels, [arc for arc in arcs if arc not in ((u, v), (v, u))])

    monkeypatch.setattr(constructions, "Graph", broken)
    monkeypatch.setattr(arc_graphs, "Graph", broken)
    if command == "biggs":
        twist = tmp_path / "twist.txt"
        twist.write_text("trivial\n")
        chain = tmp_path / "chain.txt"
        chain.write_text("arc 1 2 (1 2)\n")
        extra = ["--n", str(FIXDIR / "z2.grp"), "--twist", str(twist), "--chain", str(chain)]
    else:
        extra = ["--orbit-index", "0"]
    code, out, err = run(capsys, command, "--graph", GRAPH, "--group", GRP, *extra)
    assert code == 2, err
    doc = cert_from(out)
    claim = next(c for c in doc["claims"] if c["id"] == primary)
    assert not claim["pass"]
    assert "symmetric" in claim["counterexample"]


def test_enumeration_determinism_catches_two_swapped_entries(capsys, monkeypatch, s4):
    """A chain listing with two adjacent entries swapped fails its claim
    at their position; comparing two listings would not see it, since
    both would be swapped alike."""
    code, out, err = run(capsys, "group", "--group", GRP)
    assert code == 0, err
    claims = {c["id"]: c for c in cert_from(out)["claims"]}
    assert claims["enumeration-determinism"]["pass"]
    names = [Perm(g).cycle_string() for g in s4.elements]
    listing = StabChain.elements

    def swapped(chain):
        listed = listing(chain)
        listed[6], listed[7] = listed[7], listed[6]
        return listed

    monkeypatch.setattr(StabChain, "elements", swapped)
    code, out, err = run(capsys, "group", "--group", GRP)
    assert code == 2, err
    claims = {c["id"]: c for c in cert_from(out)["claims"]}
    assert claims["enumeration-determinism"]["counterexample"] == {
        "position": 7, "element": names[7], "next": names[6],
    }


def test_crash_is_not_a_counterexample(capsys, monkeypatch, tmp_path):
    def crash(args, cert):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "cmd_group", crash)
    cert_path = tmp_path / "c.json"
    code, out, err = run(capsys, "group", "--group", GRP, "--certificate", str(cert_path))
    assert code == 3
    assert err == "sgk: internal-error: RecursionError: maximum recursion depth exceeded\n"
    assert out == ""
    assert not cert_path.exists()


def test_header_count_past_the_cap_is_rejected_before_allocating(capsys, tmp_path):
    import tracemalloc

    graph = tmp_path / "huge.graph"
    graph.write_text("vertices: 1000000000000\n")
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "verify", "--graph", str(graph), "--group", GRP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert out == ""
    assert err.startswith("sgk: cap-exceeded:")
    assert peak < 10_000_000


def _readme_claims():
    """(id, meaning) for each row of the README's claim table."""
    text = (REPO / "README.md").read_text()
    table = text.split("The claim vocabulary:", 1)[1].split("\n\n", 2)[1]
    rows = [re.match(r"\| `([a-z-]+)` \| (.*) \|$", row) for row in table.splitlines()[2:]]
    return [(m.group(1), m.group(2).replace("\\|", "|")) for m in rows]


def test_claim_vocabulary_is_emitted_and_documented(capsys, tmp_path):
    twist = tmp_path / "twist.txt"
    twist.write_text("trivial\n")
    chain = tmp_path / "chain.txt"
    chain.write_text("arc 1 2 (1 2)\n")
    halves = tmp_path / "halves.txt"
    halves.write_text("1 4\n2 5\n3 6\n")
    fibres = tmp_path / "fibres.txt"
    fibres.write_text("1 5\n2 6\n3 7\n4 8\n")
    design = tmp_path / "k4.design"
    cover, cover_group = tmp_path / "cover.graph", tmp_path / "cover.grp"
    c6, d6, d4 = (str(FIXDIR / f) for f in ("c6.graph", "d6.grp", "d4.grp"))
    invocations = [
        ["group", "--group", GRP],
        ["cosetgraph", "--group", GRP, "--subgroup", "(2 3),(3 4)", "--involution", "(1 2)"],
        ["orbitals", "--group", GRP],
        ["quotient", "--graph", c6, "--group", d6, "--blocks", str(halves)],
        ["blocks", "--group", d4],
        ["lattice", "--group", d4],
        ["design", "from-graph", "--graph", GRAPH, "--group", GRP,
         "--out", "design", "--out-file", str(design)],
        ["design", "validate", "--design", str(design)],
        ["design", "to-graph", "--design", str(design), "--group", GRP],
        ["design", "polarities", "--design", str(design), "--group", GRP],
        ["threearc", "--graph", GRAPH, "--group", GRP],
        ["threearc", "--graph", GRAPH, "--group", GRP, "--orbit-index", "0"],
        ["biggs", "--graph", GRAPH, "--group", GRP, "--n", str(FIXDIR / "z2.grp"),
         "--twist", str(twist), "--chain", str(chain), "--out", "edges",
         "--out-file", str(cover), "--group-out", str(cover_group)],
        ["subgraph-graph", "--graph", GRAPH, "--group", GRP,
         "--subgraph", "3>4,4>1,1>3", "--involution", "(1 2)"],
        ["extend", "--via", "arcs", "--group", str(FIXDIR / "octahedron-aut.grp"),
         "--subgroup", "(2 3)(5 6),(2 5)(3 6),(3 6)", "--over", "(3 6),(2 5)",
         "--involution", "(1 2)(4 5)"],
        ["extend", "--via", "flags", "--graph", str(cover), "--group", str(cover_group),
         "--blocks", str(fibres)],
        ["verify", "--graph", GRAPH, "--group", GRP],
    ]
    emitted = set()
    for i, argv in enumerate(invocations):
        cert_path = tmp_path / f"cert{i}.json"
        code, _, err = run(capsys, *argv, "--certificate", str(cert_path))
        assert code == 0, (argv, err)
        emitted |= {c["id"] for c in cert_from(cert_path.read_text())["claims"]}
    assert emitted == set(CLAIM_INVARIANTS)
    documented = [cid for cid, _ in _readme_claims()]
    assert len(documented) == len(set(documented))
    assert set(documented) == set(CLAIM_INVARIANTS)
    assert dict(_readme_claims()) == CLAIM_INVARIANTS


def _leaves(table, prefix=()):
    """(argv prefix, primary claim) of every command and design mode."""
    for name, _, handler, claim, _ in table:
        if isinstance(handler, tuple):
            yield from _leaves(handler, prefix + (name,))
        else:
            yield prefix + (name,), claim


LEAVES = list(_leaves(cli._commands()))
PARITY_CASES = [
    *([*argv, "--help"] for argv, _ in LEAVES),
    ["design", "--help"],
    [],
    ["--help"],
    ["no-such-command"],
    ["group"],
    ["design", "validate"],
    ["quotient", "--graph", "g", "--group", "s4.grp", "--blocks", "b", "--out", "png"],
    ["group", "--group", "s4.grp", "extra"],
    ["design", "validate", "--design", "d", "extra"],
    ["design"],
    ["design", "no-such-mode"],
]


def _outcome(capsys, call, argv):
    try:
        code = call(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", PARITY_CASES, ids=lambda argv: " ".join(argv) or "bare")
def test_help_and_usage_errors_match_the_full_parser(capsys, argv):
    """What main prints for help and for a rejected command line is what
    the parser of every command prints; a usage error exits 1, since exit
    2 means a failed claim."""
    full = _outcome(capsys, lambda a: cli._build_parser().parse_args(a), argv)
    assert full[0] in (0, 2)
    assert _outcome(capsys, main, argv) == ({0: 0, 2: 1}[full[0]], *full[1:])


def test_plain_command_line_imports_nothing_and_builds_no_parser(tmp_path):
    """A documented command line is read off the command table: main loads
    no module, and without argparse it cannot build a parser."""
    argv = ["verify", "--graph", GRAPH, "--group", GRP, "--certificate", str(tmp_path / "c")]
    probe = (
        "import sys, sgk.cli\n"
        "before = set(sys.modules)\n"
        f"code = sgk.cli.main({argv!r})\n"
        "print(code, sorted(set(sys.modules) - before), 'argparse' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stdout) == (0, "0 [] False\n"), done.stderr


def _leaf_arguments(argv_prefix):
    """The (flag, add_argument keywords) of a leaf, --certificate last."""
    table = cli._commands()
    for word in argv_prefix:
        _, _, handler, _, arguments = next(e for e in table if e[0] == word)
        table = handler
    return [*arguments, cli._CERTIFICATE]


def _full_parse(parser, argv):
    """argparse's namespace as a dict, or None when it exits."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return vars(parser.parse_args(argv))
    except SystemExit:
        return None


def _valid_value(options) -> str:
    return "3" if "type" in options else options.get("choices", ("x",))[0]


FLAGS = sorted({flag for argv, _ in LEAVES for flag, _ in _leaf_arguments(argv)})
VALUES = ["", "-", "--", "-1", "3", "x", "edges", "dot", "arcs", "(1 2)"]
TOKENS = sorted(
    {*FLAGS, *VALUES, "-h", "--help"}
    | {flag[:k] for flag in FLAGS for k in range(3, len(flag))}
    | {f"{flag}={value}" for flag in FLAGS for value in ("x", "3", "dot")}
)


@st.composite
def command_lines(draw):
    """A leaf's line with each of its flags, mostly, in any order and with
    a valid or a drawn value, and up to two runs of stray tokens: other
    leaves' flags, flag prefixes, ``--flag=value``, help and bare values."""
    argv, _ = draw(st.sampled_from(LEAVES))
    pairs = [
        [flag, draw(st.sampled_from(VALUES)) if draw(st.integers(0, 3)) == 0
         else _valid_value(options)]
        for flag, options in draw(st.permutations(_leaf_arguments(argv)))
        if draw(st.integers(0, 7))
    ]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        stray = draw(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=2))
        pairs.insert(draw(st.integers(0, len(pairs))), stray)
    return [*argv, *(token for pair in pairs for token in pair)]


def test_plain_reader_agrees_with_argparse():
    """_parse_plain either leaves a line to argparse or reads it as
    argparse does; whatever argparse rejects it leaves."""
    parser = cli._build_parser()

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(command_lines())
    def agree(argv):
        plain = cli._parse_plain(argv)
        full = _full_parse(parser, argv)
        assert plain is None or vars(plain) == full, argv

    agree()
    for argv, _ in LEAVES:
        argv = list(argv)
        for flag, options in _leaf_arguments(argv):
            argv += [flag, _valid_value(options)]
        plain = cli._parse_plain(argv)
        assert plain is not None and vars(plain) == _full_parse(parser, argv), argv


@pytest.mark.parametrize("argv", [
    ["no-such-command", "--group", "g"],
    ["design", "no-such-mode", "--design", "d"],
    ["group", "--gr", "g"],
    ["group", "--group=g"],
    ["group", "--group", "g", "-h"],
    ["lattice", "--group", "g", "--base", "2", "--base", "3"],
    ["group", "--group"],
    ["group", "--group", "-g"],
    ["lattice", "--group", "g", "--base", "two"],
    ["cosetgraph", "--group", "g", "--subgroup", "s", "--involution", "a", "--out", "png"],
    ["verify", "--graph", "g"],
], ids=" ".join)
def test_plain_reader_leaves_other_lines_to_argparse(argv):
    assert cli._parse_plain(argv) is None


def test_every_primary_claim_is_in_the_vocabulary():
    assert len(LEAVES) == 15
    for argv, claim in LEAVES:
        assert claim in CLAIM_INVARIANTS, argv
