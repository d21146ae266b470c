"""Graph serialisation: graph6, edge-list text, DOT export.

graph6 follows the standard format byte for byte: printable characters with
offset 63, vertex count N(n), then the upper triangle of the adjacency
matrix in column-major order packed six bits per character.

The edge-list format is ``n`` on the first line and one ``u v`` pair of
0-based vertex numbers per following line; blank lines and ``#`` comments
are ignored.  The writer additionally records non-default vertex labels in
``# vertex i label`` comment lines, which this module's reader recovers and
any plain reader skips as comments; it refuses a label that the reader could
not recover (empty, with a line break, or with outer whitespace) and two
labels with the same text, such as ``1`` and ``"1"``.  Recorded labels come
back as text: the labels ``[1, 0, "a"]`` come back as ``("1", "0", "a")``.
"""

from __future__ import annotations

from .graph import MAX_VERTICES, Graph, GraphInputError, UnsupportedSizeError, bits

GRAPH6_HEADER = ">>graph6<<"


class ParseError(GraphInputError):
    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(f"{message}{loc}")
        self.line = line
        self.column = column


# -- graph6 -----------------------------------------------------------------


# _SEXTET[b]: the graph6 character of six body bits held in b from bit 0
# up, the first of them being the character's highest bit
_SEXTET = [chr(int(f"{b:06b}"[::-1], 2) + 63) for b in range(64)]


def to_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        out = [chr(n + 63)]
    elif n <= 258047:
        out = [chr(126)] + [chr((n >> s & 63) + 63) for s in (12, 6, 0)]
    else:  # unreachable under the 64-vertex cap
        raise GraphInputError("graph too large for graph6 support here")
    # the upper triangle column by column, column j being row j below the
    # diagonal read from vertex 0 up: bit k of `stream` is bit k of the
    # body, and each sextet is written first bit highest
    stream = width = 0
    for j, row in enumerate(g.adj):
        stream |= (row & ((1 << j) - 1)) << width
        width += j
    out += [_SEXTET[stream >> k & 63] for k in range(0, width, 6)]
    return "".join(out)


def from_graph6(text: str, line: int = 1) -> Graph:
    """Decode one graph6 record; errors name ``line``, its line in a file."""
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
    if not s:
        raise ParseError("empty graph6 string", line=line)
    for col, ch in enumerate(s):
        if not 63 <= ord(ch) <= 126:
            raise ParseError(f"invalid graph6 character {ch!r}", line=line, column=col + 1)
    pos = 0
    if ord(s[0]) == 126:
        if len(s) < 4:
            raise ParseError("truncated graph6 vertex count", line=line, column=len(s))
        if ord(s[1]) == 126:
            raise ParseError("graph6 graphs beyond 258047 vertices unsupported", line=line, column=2)
        n = 0
        for ch in s[1:4]:
            n = n << 6 | (ord(ch) - 63)
        pos = 4
    else:
        n = ord(s[0]) - 63
        pos = 1
    need = (n * (n - 1) // 2 + 5) // 6
    data = s[pos:]
    if len(data) != need:
        raise ParseError(
            f"graph6 body has {len(data)} characters, expected {need} for n={n}",
            line=line,
            column=pos + 1,
        )
    if n > MAX_VERTICES:
        raise UnsupportedSizeError(f"graphs are limited to {MAX_VERTICES} vertices, got {n} (line {line})")
    bitstream = 0
    for ch in data:
        bitstream = bitstream << 6 | (ord(ch) - 63)
    total = 6 * len(data)
    adj = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bitstream >> (total - 1 - k) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k += 1
    # decoding gives distinct labels, no loops and a symmetric adjacency
    return Graph._unchecked(tuple(range(n)), tuple(adj))


def read_graph6_lines(lines) -> list:
    out = []
    for ln, raw in enumerate(lines, start=1):
        s = raw.strip()
        if s:
            out.append(from_graph6(s, ln))
    return out


def read_graph6_file(path) -> list:
    with open(path, "r", encoding="ascii") as fh:
        return read_graph6_lines(fh)


# -- edge-list text -----------------------------------------------------------


def to_edge_list(g: Graph) -> str:
    lines = [str(g.n)]
    if any(lbl != i for i, lbl in enumerate(g.labels)):
        written = {}
        for i, lbl in enumerate(g.labels):
            text = str(lbl)
            if text != text.strip() or text.splitlines() != [text]:
                raise GraphInputError(f"vertex label {text!r} cannot be written to an edge list")
            if text in written:
                raise GraphInputError(f"vertex labels {written[text]!r} and {lbl!r} are both written {text!r}")
            written[text] = lbl
            lines.append(f"# vertex {i} {text}")
    for i in range(g.n):
        for j in bits(g.adj[i]):
            if j > i:
                lines.append(f"{i} {j}")
    return "\n".join(lines) + "\n"


def from_edge_list(text: str) -> Graph:
    n = None
    names = {}
    edges = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        s = raw.strip()
        if not s:
            continue
        if s.startswith("#"):
            parts = s[1:].split(maxsplit=2)
            if len(parts) == 3 and parts[0] == "vertex" and parts[1].isdigit():
                names[int(parts[1])] = parts[2]
            continue
        parts = s.split()
        if n is None:
            if len(parts) != 1 or not parts[0].isdigit():
                raise ParseError("expected vertex count on first data line", line=ln, column=1)
            n = int(parts[0])
            continue
        if len(parts) != 2:
            raise ParseError("expected 'u v' edge line", line=ln, column=1)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("edge endpoints must be integers", line=ln, column=1) from None
        for col, w in ((1, u), (len(parts[0]) + 2, v)):
            if not 0 <= w < n:
                raise ParseError(f"vertex {w} out of range 0..{n - 1}", line=ln, column=col)
        edges.append((u, v))
    if n is None:
        raise ParseError("no vertex count found")
    labels = tuple(names.get(i, i) for i in range(n))
    index = {lbl: i for i, lbl in enumerate(labels)}
    if len(index) != n:
        raise ParseError("vertex label comments are not unique")
    return Graph.from_edges(labels, [(labels[u], labels[v]) for u, v in edges])


def read_edge_list_file(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return from_edge_list(fh.read())


# -- DOT ----------------------------------------------------------------------


def to_dot(g: Graph, name: str = "G") -> str:
    escape = str.maketrans({"\\": "\\\\", '"': '\\"'})  # inside quoted IDs
    lines = [f"graph {name} {{"]
    for lbl in g.labels:
        lines.append(f'  "{str(lbl).translate(escape)}";')
    for u, v in g.edges():
        lines.append(f'  "{str(u).translate(escape)}" -- "{str(v).translate(escape)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
