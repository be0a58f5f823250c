"""Reading and writing the kit's text formats.

Five formats live here: group files (a degree line plus one generator per
line), graph files (a vertex count with optional labels and an edge list),
design files (a point count plus named blocks), block files (one block of
1-based points per line), and the chain and twist files that feed covering
constructions.  Parsers take whole strings and return kit objects; groups,
graphs and designs also have formatters that invert them, while block,
chain and twist files are only read.  Opening files is the command line's
business, not this module's.

Shared conventions: ``#`` starts a comment, blank lines are skipped, and
points or vertices are numbered from 1 on disk but from 0 in memory.
Structural mistakes raise ValueError naming the offending line; malformed
permutations raise the usual cycle parsing errors.
"""

from .designs import IncidenceStructure
from .graphs import Graph
from .errors import CapExceeded
from .groups import GroupTable
from .perm import Perm, element_cap, parse_cycles
from .subgroups import BlockSystem

__all__ = [
    "parse_group_file",
    "format_group",
    "parse_graph_file",
    "format_graph",
    "parse_design_file",
    "format_design",
    "parse_blocks_file",
    "parse_chain_seeds",
    "parse_twist_file",
    "parse_subgroup_generators",
    "graph_to_dot",
]


def _content_lines(text: str) -> list:
    """Pairs (line number, text) with comments and blank lines dropped."""
    out = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((no, line))
    return out


def _header_count(lines: list, key: str) -> int:
    if not lines:
        raise ValueError(f"empty file, expected a '{key}:' line")
    no, line = lines[0]
    head, sep, rest = line.partition(":")
    if head.strip() != key or not sep:
        raise ValueError(f"line {no}: expected '{key}: <count>' first")
    try:
        n = int(rest.strip())
    except ValueError:
        raise ValueError(f"line {no}: {rest.strip()!r} is not a count") from None
    if n < 1:
        raise ValueError(f"line {no}: the count must be positive")
    # checked before any parser allocates n entries
    cap = element_cap()
    if n > cap:
        raise CapExceeded(f"line {no}: {key} {n} exceeds the element cap of {cap}")
    return n


def _index(no: int, token: str, n: int, what: str) -> int:
    """A 1-based number token, returned 0-based."""
    try:
        v = int(token)
    except ValueError:
        raise ValueError(f"line {no}: {token!r} is not a {what} number") from None
    if not 1 <= v <= n:
        raise ValueError(f"line {no}: {what} {v} outside 1..{n}")
    return v - 1


# ---- group files ------------------------------------------------------------


def parse_group_file(text: str) -> GroupTable:
    """A ``degree:`` line followed by one generator per line."""
    lines = _content_lines(text)
    degree = _header_count(lines, "degree")
    gens = tuple(parse_cycles(line, degree) for _, line in lines[1:])
    if not gens:
        raise ValueError("a group file needs at least one generator line")
    return GroupTable(degree, gens)


def format_group(group) -> str:
    """Accepts anything with ``degree`` and ``generators``."""
    out = [f"degree: {group.degree}"]
    out.extend(Perm(g).cycle_string() for g in group.generators)
    return "\n".join(out) + "\n"


# ---- graph files ------------------------------------------------------------


def parse_graph_file(text: str) -> Graph:
    """A ``vertices:`` line, then ``label <v> <text>`` and ``edge <u> <v>``."""
    lines = _content_lines(text)
    n = _header_count(lines, "vertices")
    labels = [str(i + 1) for i in range(n)]
    edges = []
    for no, line in lines[1:]:
        parts = line.split()
        if parts[0] == "label":
            if len(parts) < 3:
                raise ValueError(f"line {no}: expected 'label <vertex> <text>'")
            v = _index(no, parts[1], n, "vertex")
            labels[v] = line.split(None, 2)[2]
        elif parts[0] == "edge":
            if len(parts) != 3:
                raise ValueError(f"line {no}: expected 'edge <u> <v>'")
            u = _index(no, parts[1], n, "vertex")
            v = _index(no, parts[2], n, "vertex")
            if u == v:
                raise ValueError(f"line {no}: loops are not allowed")
            edges.append((u, v))
        else:
            raise ValueError(f"line {no}: unknown directive {parts[0]!r}")
    return Graph.from_edges(n, edges, labels)


def format_graph(graph: Graph) -> str:
    out = [f"vertices: {graph.n}"]
    for i, lbl in enumerate(graph.labels):
        if lbl != str(i + 1):
            out.append(f"label {i + 1} {lbl}")
    for u, v in sorted(graph.arcs):
        if u < v:
            out.append(f"edge {u + 1} {v + 1}")
    return "\n".join(out) + "\n"


# ---- design files -----------------------------------------------------------


def parse_design_file(text: str) -> IncidenceStructure:
    """A ``points:`` line, then ``block <name>: p1 p2 ...`` lines.

    Block names must be distinct; repeated blocks of a design are written
    as equal point lists under different names.
    """
    lines = _content_lines(text)
    n = _header_count(lines, "points")
    names: dict = {}
    flags = set()
    for no, line in lines[1:]:
        head, sep, rest = line.partition(":")
        parts = head.split(None, 1)
        if parts[0] != "block" or not sep:
            raise ValueError(f"line {no}: expected 'block <name>: <points>'")
        if len(parts) < 2 or not parts[1].strip():
            raise ValueError(f"line {no}: the block needs a name")
        name = parts[1].strip()
        if name in names:
            raise ValueError(f"line {no}: block name {name!r} repeated")
        names[name] = b = len(names)
        for tok in rest.split():
            p = _index(no, tok, n, "point")
            if (p, b) in flags:
                raise ValueError(f"line {no}: point {tok} repeated in the block")
            flags.add((p, b))
    if not names:
        raise ValueError("a design file needs at least one block line")
    points = tuple(str(i + 1) for i in range(n))
    return IncidenceStructure(points, tuple(names), frozenset(flags))


def format_design(inc: IncidenceStructure) -> str:
    out = [f"points: {inc.n_points}"]
    for b, name in enumerate(inc.block_labels):
        pts = " ".join(str(p + 1) for p in sorted(inc.trace(b)))
        out.append(f"block {name}: {pts}".rstrip())
    return "\n".join(out) + "\n"


# ---- block files ------------------------------------------------------------


def parse_blocks_file(text: str, n_points: int) -> BlockSystem:
    """One block per line; together the lines must tile 1..n_points, each
    point on one line once."""
    blocks = []
    line_of: dict = {}
    for no, line in _content_lines(text):
        block = tuple(_index(no, tok, n_points, "point") for tok in line.split())
        for p in block:
            if p in line_of:
                raise ValueError(f"line {no}: point {p + 1} is already on line {line_of[p]}")
            line_of[p] = no
        blocks.append(block)
    if not blocks:
        raise ValueError("a blocks file needs at least one line")
    return BlockSystem.from_blocks(n_points, blocks)


# ---- chain files ------------------------------------------------------------


def parse_chain_seeds(text: str, graph: Graph, n_part: GroupTable) -> dict:
    """Lines ``arc <u> <v> <element>`` keyed by graph arc, valued in N.

    Arcs not listed are left to orbit propagation downstream, so a single
    line per arc orbit is enough.
    """
    seeds: dict = {}
    number: dict = {}
    for no, line in _content_lines(text):
        parts = line.split(None, 3)
        if len(parts) != 4 or parts[0] != "arc":
            raise ValueError(f"line {no}: expected 'arc <u> <v> <element>'")
        u = _index(no, parts[1], graph.n, "vertex")
        v = _index(no, parts[2], graph.n, "vertex")
        if not graph.has_arc(u, v):
            raise ValueError(
                f"line {no}: ({parts[1]}, {parts[2]}) is not an arc of the graph"
            )
        if (u, v) in seeds:
            raise ValueError(f"line {no}: arc ({parts[1]}, {parts[2]}) assigned twice")
        p = parse_cycles(parts[3], n_part.degree)
        # N is listed and numbered at its first arc line
        number = number or {x: i for i, x in enumerate(n_part.elements)}
        if p not in number:
            raise ValueError(f"line {no}: {parts[3]} is not an element of N")
        seeds[(u, v)] = number[p]
    if not seeds:
        raise ValueError("a chain file needs at least one arc line")
    return seeds


# ---- twist files ------------------------------------------------------------


def parse_twist_file(text: str, n_part: GroupTable, g_part: GroupTable) -> list:
    """Generator images of the twist, one line per generator of G.

    The whole file may be the single word ``trivial``, and so may any one
    line.  Otherwise a line is ``src -> dst`` entries joined by
    semicolons, whose sources must repeat the generators of N in order;
    that repetition is deliberate, it keeps the file readable on its own.
    """
    lines = _content_lines(text)
    if len(lines) == 1 and lines[0][1] == "trivial":
        return [list(n_part.generators) for _ in g_part.generators]
    if len(lines) != len(g_part.generators):
        raise ValueError(
            f"{len(lines)} twist lines for {len(g_part.generators)} generators of G"
        )
    rows = []
    for no, line in lines:
        if line == "trivial":
            rows.append(list(n_part.generators))
            continue
        entries = [e.strip() for e in line.split(";")]
        if len(entries) != len(n_part.generators):
            raise ValueError(
                f"line {no}: {len(entries)} entries for "
                f"{len(n_part.generators)} generators of N"
            )
        images = []
        for gen, entry in zip(n_part.generators, entries):
            src_text, sep, dst_text = entry.partition("->")
            if not sep:
                raise ValueError(f"line {no}: expected 'src -> dst' in {entry!r}")
            src = parse_cycles(src_text.strip(), n_part.degree)
            if src != gen:
                raise ValueError(
                    f"line {no}: source {Perm(src).cycle_string()} is not the "
                    f"generator {Perm(gen).cycle_string()} of N"
                )
            images.append(parse_cycles(dst_text.strip(), n_part.degree))
        rows.append(images)
    return rows


# ---- command line helpers ----------------------------------------------------


def parse_subgroup_generators(text: str, degree: int) -> tuple:
    """Comma separated cycle strings; commas inside parentheses stay put."""
    parts: list = []
    cur: list = []
    depth = 0
    for ch in text:
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
            continue
        if ch == "(":
            depth += 1
        elif ch == ")" and depth > 0:
            depth -= 1
        cur.append(ch)
    parts.append("".join(cur))
    gens = tuple(parse_cycles(p.strip(), degree) for p in parts if p.strip())
    if not gens:
        raise ValueError("no generators in the argument")
    return gens


def _dot_quote(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def graph_to_dot(graph: Graph) -> str:
    """Undirected DOT, vertices in order, one edge per unordered pair."""
    out = ["graph {"]
    for i, lbl in enumerate(graph.labels):
        out.append(f'  v{i} [label="{_dot_quote(lbl)}"];')
    for u, v in sorted(graph.arcs):
        if u < v:
            out.append(f"  v{u} -- v{v};")
    out.append("}")
    return "\n".join(out) + "\n"
