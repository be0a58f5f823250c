"""Text formats: parse and format round trips plus rejection messages."""

import pytest

from conftest import FIXDIR
from sgk import fixtures as fx
from sgk.graphs import Graph, verify_action
from sgk.io import (
    format_design,
    format_graph,
    format_group,
    graph_to_dot,
    parse_blocks_file,
    parse_chain_seeds,
    parse_design_file,
    parse_graph_file,
    parse_group_file,
    parse_subgroup_generators,
    parse_twist_file,
)
from sgk.errors import CapExceeded
from sgk.perm import parse_cycles


def test_group_round_trip(s4):
    text = format_group(s4)
    spec = parse_group_file(text)
    assert spec.degree == 4
    assert tuple(spec.generators) == tuple(s4.generators)


def test_group_file_comments_and_blanks():
    text = "# a group\n\ndegree: 3  # three points\n(1 2)\n# another\n(2 3)\n"
    spec = parse_group_file(text)
    assert spec.degree == 3
    assert len(spec.generators) == 2


def test_group_file_rejections():
    from sgk.errors import CycleSyntaxError

    with pytest.raises(ValueError, match="degree"):
        parse_group_file("(1 2)\n")
    with pytest.raises(CycleSyntaxError):
        parse_group_file("degree: 3\n(1 2\n")
    with pytest.raises(ValueError):
        parse_group_file("degree: 0\n(1 2)\n")
    with pytest.raises(ValueError):
        parse_group_file("degree: 3\n")


def test_graph_round_trip(petersen):
    text = format_graph(petersen)
    again = parse_graph_file(text)
    assert again.arcs == petersen.arcs
    assert again.labels == petersen.labels


def test_graph_labels_survive():
    g = Graph(["a", "b", "c"], [(0, 1), (1, 0), (1, 2), (2, 1)])
    text = format_graph(g)
    assert "label 1 a" in text
    again = parse_graph_file(text)
    assert again.labels == ("a", "b", "c")


def test_graph_default_labels_not_written(k4):
    text = format_graph(k4)
    assert "label" not in text


def test_graph_file_rejections():
    with pytest.raises(ValueError, match="loop"):
        parse_graph_file("vertices: 2\nedge 1 1\n")
    with pytest.raises(ValueError):
        parse_graph_file("vertices: 2\nedge 1 3\n")
    with pytest.raises(ValueError, match="directive"):
        parse_graph_file("vertices: 2\nvertex 1\n")
    with pytest.raises(ValueError):
        parse_graph_file("edge 1 2\n")


def test_design_round_trip(k4, s4):
    from sgk.designs import design_from_graph

    inc, _ = design_from_graph(verify_action(k4, s4))
    text = format_design(inc)
    again = parse_design_file(text)
    assert again.flags == inc.flags
    assert again.point_labels == inc.point_labels
    assert again.block_labels == inc.block_labels


def test_design_file_rejections():
    with pytest.raises(ValueError, match="points"):
        parse_design_file("block A: 1 2\n")
    with pytest.raises(ValueError):
        parse_design_file("points: 3\nblock A: 1 1\n")
    with pytest.raises(ValueError, match="^line 4: block name 'A' repeated$"):
        parse_design_file("points: 3\nblock A: 1 2\nblock B: 1 3\nblock A: 2 3\n")
    with pytest.raises(ValueError):
        parse_design_file("points: 2\nblock A: 3\n")


def test_blocks_round_trip():
    from sgk.subgroups import BlockSystem

    sysm = BlockSystem.from_blocks(6, [[0, 3], [1, 4], [2, 5]])
    assert parse_blocks_file("1 4\n2 5\n3 6\n", 6).blocks == sysm.blocks


def test_blocks_rejections():
    with pytest.raises(ValueError, match="^line 2: point 2 is already on line 1$"):
        parse_blocks_file("1 2\n2 3\n", 3)
    with pytest.raises(ValueError, match="^line 1: point 1 is already on line 1$"):
        parse_blocks_file("1 1 3\n2\n", 3)
    with pytest.raises(ValueError, match="do not cover"):
        parse_blocks_file("1 2\n", 3)
    with pytest.raises(ValueError, match="at least one line"):
        parse_blocks_file("", 3)


def test_chain_round_trip(k4, z2):
    text = "".join(f"arc {u + 1} {v + 1} (1 2)\n" for u, v in sorted(k4.arcs))
    seeds = parse_chain_seeds(text, k4, z2)
    assert seeds == {arc: 1 for arc in k4.arcs}


def test_chain_rejections(k4, z2, z6):
    with pytest.raises(ValueError, match="arc"):
        parse_chain_seeds("arc 1 1 (1 2)\n", k4, z2)
    with pytest.raises(ValueError):
        parse_chain_seeds("arc 1 2 (1 2)\n", k4, z6)  # outside N
    with pytest.raises(ValueError):
        parse_chain_seeds("arc 1 2 (1 2)\narc 1 2 id\n", k4, z2)
    with pytest.raises(ValueError):
        parse_chain_seeds("hop 1 2 (1 2)\n", k4, z2)


def test_twist_file_trivial(z2, s4):
    rows = parse_twist_file("trivial\n", z2, s4)
    assert len(rows) == len(s4.generators)
    for row in rows:
        assert tuple(row) == tuple(z2.generators)


def test_twist_file_explicit():
    from sgk.groups import group_from_generators

    z3 = group_from_generators([parse_cycles("(1 2 3)", 3)], degree=3)
    z2g = group_from_generators([parse_cycles("(1 2)", 2)], degree=2)
    rows = parse_twist_file("(1 2 3) -> (1 3 2)\n", z3, z2g)
    assert rows == [[parse_cycles("(1 3 2)", 3)]]


def test_twist_file_rejections(z2, s4):
    with pytest.raises(ValueError):
        parse_twist_file("", z2, s4)
    with pytest.raises(ValueError):
        parse_twist_file("(1 2) -> (1 2)\n", z2, s4)  # one line, two generators
    with pytest.raises(ValueError):
        parse_twist_file("(2 1) -> (1 2)\nxx\n", z2, s4)


@pytest.mark.parametrize("parse, message", [
    (lambda: parse_group_file(""), "empty file, expected a 'degree:' line"),
    (lambda: parse_group_file("degree: x\n(1 2)\n"), "line 1: 'x' is not a count"),
    (lambda: parse_graph_file("vertices: 2\nedge 1 x\n"), "line 2: 'x' is not a vertex number"),
    (lambda: parse_graph_file("vertices: 2\nlabel 1\n"),
     "line 2: expected 'label <vertex> <text>'"),
    (lambda: parse_graph_file("vertices: 2\nedge 1\n"), "line 2: expected 'edge <u> <v>'"),
    (lambda: parse_design_file("points: 2\nblok A: 1\n"),
     "line 2: expected 'block <name>: <points>'"),
    (lambda: parse_design_file("points: 2\nblock : 1\n"), "line 2: the block needs a name"),
    (lambda: parse_design_file("points: 2\n"), "a design file needs at least one block line"),
    (lambda: parse_chain_seeds("# no arcs\n", fx.k4_graph(), fx.z2()),
     "a chain file needs at least one arc line"),
    (lambda: parse_twist_file("(1 2) -> (1 2); (1 2) -> (1 2)\n", fx.z2(), fx.z2()),
     "line 1: 2 entries for 1 generators of N"),
    (lambda: parse_twist_file("id -> (1 2)\n", fx.z2(), fx.z2()),
     "line 1: source id is not the generator (1 2) of N"),
], ids=["group-empty", "group-count", "graph-vertex", "graph-label", "graph-edge",
        "design-line", "design-name", "design-no-block", "chain-no-arc", "twist-entries",
        "twist-source"])
def test_each_format_names_the_line_it_refuses(parse, message):
    with pytest.raises(ValueError) as exc:
        parse()
    assert str(exc.value) == message


def test_subgroup_generator_splitting():
    perms = parse_subgroup_generators("(2 3),(3 4)", 4)
    assert perms == (parse_cycles("(2 3)", 4), parse_cycles("(3 4)", 4))
    single = parse_subgroup_generators("(1 2)(3 4)", 4)
    assert single == (parse_cycles("(1 2)(3 4)", 4),)
    with pytest.raises(ValueError):
        parse_subgroup_generators("", 4)


def test_dot_output(k4):
    dot = graph_to_dot(k4)
    assert dot.startswith("graph {")
    assert 'v0 [label="1"];' in dot
    assert "v0 -- v1;" in dot
    assert dot.count("--") == 6


def test_dot_quoting():
    g = Graph(['sa"y', "b\\c"], [(0, 1), (1, 0)])
    dot = graph_to_dot(g)
    assert '\\"' in dot
    assert "\\\\" in dot


def test_fixture_files_match_builders(tmp_path):
    mapping = {
        "s4.grp": fx.s4,
        "s5.grp": fx.s5,
        "d4.grp": fx.d4,
        "d6.grp": fx.d6,
        "z2.grp": fx.z2,
        "z6.grp": fx.z6,
        "octahedron-aut.grp": fx.octahedron_aut,
    }
    for name, builder in mapping.items():
        spec = parse_group_file((FIXDIR / name).read_text())
        built = builder()
        assert spec.degree == built.degree, name
        assert len(spec) == len(built), name
    graphs = {
        "k4.graph": fx.k4_graph,
        "c6.graph": fx.c6_graph,
        "petersen.graph": fx.petersen_graph,
        "q3.graph": fx.q3_graph,
    }
    for name, builder in graphs.items():
        g = parse_graph_file((FIXDIR / name).read_text())
        assert g.arcs == builder().arcs, name
    # the files themselves are what write_all writes, byte for byte
    written = fx.write_all(tmp_path)
    assert sorted(p.name for p in written) == sorted(p.name for p in FIXDIR.iterdir())
    for path in written:
        assert path.read_bytes() == (FIXDIR / path.name).read_bytes(), path.name


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_group_file, "degree: 1000000000000\n(1 2)\n"),
        (parse_graph_file, "vertices: 1000000000000\n"),
        (parse_design_file, "points: 1000000000000\nblock a: 1\n"),
    ],
)
def test_header_counts_are_capped(parse, text, monkeypatch):
    with pytest.raises(CapExceeded):
        parse(text)
    monkeypatch.setenv("SGK_ELEMENT_CAP", "3")
    with pytest.raises(CapExceeded):
        parse(text.replace("1000000000000", "4"))
