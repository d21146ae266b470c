"""Recognition of the structural graph classes and criteria.

The partition classes work with three kinds of pieces:

* a *simplex* is the closed neighbourhood N[x] of a simplicial vertex x
  (one whose closed neighbourhood induces a complete graph);
* a *basic 5-cycle* has no two adjacent vertices of degree three or more;
* a *basic 4-cycle* has two adjacent vertices of degree two whose other
  two vertices each lie in some simplex or some basic 5-cycle of the whole
  graph; only its two degree-2 vertices enter the partition.

SQC asks for vertex-disjoint pieces of all three kinds covering V(G)
exactly; SC is SQC without 4-cycle pieces, so one exact-cover search
serves both and an SC certificate is an SQC certificate with t = 0.  PC
asks for the pendant edges to perfectly match the vertices incident with
pendant edges and for vertex-disjoint basic 5-cycles to cover everything
else.  A leaf lies on one edge only, so such a matching uses every pendant
edge, and it exists exactly when no two pendant edges meet
(``_pendant_mask``).  Recognition is an exact-cover backtracking over
candidate pieces; candidate basicness is always judged against the full
graph, and certificates are witnesses, not canonical objects.

One derivation on vertex indices, ``_pieces(adj, kinds)``, builds the
pieces for SQC, SC, PC, both T3 conditions, the validators and the cactus
count, each asking only for the kinds it reads; labels appear only in the
public lists and in certificates built from the chosen cover.  Nothing is
memoised on the graph: a memo would stay resident on every level graph
that enumeration keeps through a run, and a stream asks about each once.

Basic cycles are built from the vertices of degree two in g, never by
listing all cycles.  A basic 3-cycle is a degree-2 vertex with its two
neighbours, when they are adjacent.  The vertices of degree >= 3 on a
basic 5-cycle are pairwise non-adjacent, and no three vertices of a
5-cycle are, so at most 2 of them have degree >= 3 and at least 3 have
degree two; two of those are consecutive.  So every basic 5-cycle runs
through an edge x-y whose two ends have degree two, and it is x-y-r-z-s,
where s and r are the other neighbours of x and y and z is a common
neighbour of r and s.  A 4-cycle through such an edge x-y is x-y-r-s, so
there is one per such edge, when r != s and r ~ s.  Each cycle is a tuple
of vertex indices with its smallest vertex first and its second below its
last (``_oriented``), and lists are in lexicographic order.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dc_fields

from .complexes import (
    DEFAULT_FIELDS,
    _alpha,
    _char,
    _parts,
    _pure,
    _w2,
    edge_punches_cm,
    is_cm_graph,
    is_doubly_cm_graph,
    is_gorenstein_graph,
)
from .decomposability import is_vertex_decomposable
from .graph import Graph, INFINITY, PreconditionError, bits
from .independence import independence_number, is_well_covered
from .planarity import is_planar

# -- pieces on vertex indices ------------------------------------------------------


def _simplicial(adj) -> int:
    """Mask of the vertices whose closed neighbourhood induces a complete graph."""
    out = 0
    for v, row in enumerate(adj):
        nmask = row | 1 << v
        if all((adj[u] | 1 << u) & nmask == nmask for u in bits(row)):
            out |= 1 << v
    return out


def _has_cycle_of_length(g: Graph, length: int) -> bool:
    """Whether g has a cycle of the given length; stops at the first one."""
    return any(_closes(g.adj, a, a, length - 1, 1 << a) for a in range(g.n))


def _closes(adj, start: int, u: int, steps: int, used: int) -> bool:
    """Whether the path from start to u, on the vertex mask used, extends
    by ``steps`` more vertices above start to a cycle through start."""
    if not steps:
        return adj[u] >> start & 1 > 0
    for v in bits(adj[u] & ~used & -(2 << start)):
        if _closes(adj, start, v, steps - 1, used | 1 << v):
            return True
    return False


def _oriented(cyc: tuple) -> tuple:
    """The cycle read from its smallest vertex, in the direction whose
    second vertex is below the last."""
    k = cyc.index(min(cyc))
    cyc = cyc[k:] + cyc[:k]
    return cyc if cyc[1] < cyc[-1] else cyc[:1] + cyc[:0:-1]


def _degree_two_edges(adj):
    """Yield (x, y, s, r) for each edge xy with x < y and both ends of
    degree 2, where s is the other neighbour of x and r that of y."""
    two = _mask(v for v, row in enumerate(adj) if row.bit_count() == 2)
    for x in bits(two):
        for y in bits(adj[x] & two & -(2 << x)):
            yield x, y, (adj[x] ^ 1 << y).bit_length() - 1, (adj[y] ^ 1 << x).bit_length() - 1


def _five_cycles(adj) -> list:
    """5-cycles with no two adjacent vertices of degree three or more.

    Each is built from a degree-2 edge x-y it runs through, as
    x-y-r-z-s with s, r the other neighbours of x, y and z a common
    neighbour of r and s (see the module docstring for why one exists)."""
    degree = [row.bit_count() for row in adj]
    if degree.count(2) < 3:
        return []
    high = _mask(v for v, d in enumerate(degree) if d >= 3)
    found = set()
    for x, y, s, r in _degree_two_edges(adj):
        if r == s:
            continue
        for z in bits(adj[r] & adj[s]):
            h = (1 << r | 1 << s | 1 << z) & high
            if not any(adj[v] & h for v in bits(h)):
                found.add(_oriented((x, y, r, z, s)))
    return sorted(found)


def _four_cycles(adj, allowed: int) -> list:
    """(cycle, pair) for each 4-cycle x-y-r-s through a degree-2 pair x-y
    with r, s in ``allowed``, ordered by the cycle, then by the pair's place."""
    found = []
    for x, y, s, r in _degree_two_edges(adj):
        if r != s and adj[r] >> s & 1 and allowed >> r & 1 and allowed >> s & 1:
            cyc = _oriented((x, y, r, s))
            i = cyc.index(x)
            found.append((cyc, i if cyc[(i + 1) % 4] == y else (i - 1) % 4))
    return [(cyc, (cyc[k], cyc[(k + 1) % 4])) for cyc, k in sorted(found)]


def _mask(vertices) -> int:
    return sum(1 << v for v in vertices)


def _union(pieces) -> int:
    """Mask of the vertices in some of the (mask, kind, payload) pieces."""
    cover = 0
    for m, _kind, _payload in pieces:
        cover |= m
    return cover


def _pieces(adj, kinds: str) -> list:
    """The exact-cover candidates (mask, kind, payload) of ``kinds``, a
    subsequence of "SCQ", kind by kind and each kind in mask order, with
    the first payload of each mask: "S" simplexes, payload the simplicial
    vertex; "C" basic 5-cycles, payload the cycle; "Q" degree-2 pairs,
    payload (cycle, pair), which need "SC" for their other two vertices."""
    out = []
    for kind in kinds:
        if kind == "S":
            candidates = ((adj[x] | 1 << x, x) for x in bits(_simplicial(adj)))
        elif kind == "C":
            candidates = ((_mask(cyc), cyc) for cyc in _five_cycles(adj))
        else:
            candidates = ((_mask(pair), (cyc, pair)) for cyc, pair in _four_cycles(adj, _union(out)))
        first = {}
        for m, payload in candidates:
            first.setdefault(m, payload)
        out += [(m, kind, first[m]) for m in sorted(first)]
    return out


# -- the public lists, on labels ------------------------------------------------


def _labelled(g: Graph, vertices) -> tuple:
    return tuple(g.labels[v] for v in vertices)


def simplicial_vertices(g: Graph) -> frozenset:
    """All vertices whose closed neighbourhood induces a complete graph."""
    return g.label_set(_simplicial(g.adj))


def is_simplicial_graph(g: Graph) -> bool:
    """Every vertex belongs to some simplex of g."""
    return _union(_pieces(g.adj, "S")) == g.full_mask


def basic_3_cycles(g: Graph) -> list:
    """Triangles containing at least one vertex of degree two, oriented
    and in lexicographic order: such a triangle is N[x] for a simplicial
    vertex x of degree two, so these are the 3-vertex simplexes."""
    return [_labelled(g, cyc) for cyc in sorted(bits(m) for m, _, _ in _pieces(g.adj, "S") if m.bit_count() == 3)]


def basic_5_cycles(g: Graph) -> list:
    """5-cycles with no two adjacent vertices of degree three or more,
    oriented and in lexicographic order."""
    return [_labelled(g, cyc) for cyc in _five_cycles(g.adj)]


def basic_4_cycles(g: Graph) -> list:
    """4-cycles with an adjacent degree-2 pair whose other two vertices each
    belong to a simplex or a basic 5-cycle of g; returned with that pair."""
    return [(_labelled(g, c), _labelled(g, p)) for c, p in _four_cycles(g.adj, _union(_pieces(g.adj, "SC")))]


def _pendant_mask(g: Graph):
    """Mask of the vertices on pendant edges, or None when two pendant edges
    meet and so match nothing perfectly (module docstring)."""
    mask = 0
    for e in {row | 1 << v for v, row in enumerate(g.adj) if row.bit_count() == 1}:
        if mask & e:
            return None
        mask |= e
    return mask


# -- certificates ----------------------------------------------------------------


@dataclass(frozen=True)
class SqcCertificate:
    """Witness partition V = simplexes | basic 5-cycles | degree-2 pairs of
    basic 4-cycles; counts (m, s, t) satisfy alpha = m + 2s + t.  An SC
    certificate is one with t = 0."""

    simplexes: tuple  # (simplicial vertex, frozenset N[x]) pairs
    five_cycles: tuple  # label tuples
    four_cycles: tuple  # (cycle label tuple, (b1, b2)) pairs

    @property
    def m(self):
        return len(self.simplexes)

    @property
    def s(self):
        return len(self.five_cycles)

    @property
    def t(self):
        return len(self.four_cycles)

    def pieces(self):
        for x, simplex in self.simplexes:
            yield frozenset(simplex)
        for cyc in self.five_cycles:
            yield frozenset(cyc)
        for _cyc, pair in self.four_cycles:
            yield frozenset(pair)

    def validate(self, g: Graph) -> bool:
        seen = set()
        for piece in self.pieces():
            if seen & piece:
                return False
            seen |= piece
        if seen != set(g.labels):
            return False
        adj, pieces = g.adj, _pieces(g.adj, "SCQ")
        # a vertex y of a simplex S is simplicial exactly when N[y] = S
        simplexes = {
            (g.labels[y], g.label_set(m)) for m, kind, _ in pieces if kind == "S" for y in bits(m) if adj[y] | 1 << y == m
        }
        if any((x, frozenset(simplex)) not in simplexes for x, simplex in self.simplexes):
            return False
        five = {g.label_set(m) for m, kind, _ in pieces if kind == "C"}
        if any(frozenset(c) not in five for c in self.five_cycles):
            return False
        # a degree-2 pair lies on one 4-cycle only, so Q pieces list them all
        four = {(g.label_set(_mask(q[0])), g.label_set(m)) for m, kind, q in pieces if kind == "Q"}
        if any((frozenset(c), frozenset(p)) not in four for c, p in self.four_cycles):
            return False
        return independence_number(g) == self.m + 2 * self.s + self.t

    def to_text(self) -> str:
        parts = []
        for x, simplex in self.simplexes:
            parts.append(f"S[{x}]={{{','.join(sorted(map(str, simplex)))}}}")
        for cyc in self.five_cycles:
            parts.append(f"C5=({','.join(map(str, cyc))})")
        for cyc, pair in self.four_cycles:
            parts.append(f"Q4=({','.join(map(str, cyc))});B={{{pair[0]},{pair[1]}}}")
        return "; ".join(parts)


@dataclass(frozen=True)
class PcCertificate:
    """Pendant edges perfectly matching P(G) plus vertex-disjoint basic
    5-cycles partitioning C(G)."""

    pendant_matching: tuple  # edges (u, v)
    basic5_partition: tuple  # cycles as label tuples

    def validate(self, g: Graph) -> bool:
        # the matching must list every pendant edge once (_pendant_mask)
        p_mask = _pendant_mask(g)
        pend = set(map(frozenset, g.pendant_edges()))
        edges = self.pendant_matching
        if p_mask is None or len(edges) != len(pend) or set(map(frozenset, edges)) != pend:
            return False
        pieces = _pieces(g.adj, "C")
        five = {g.label_set(m): m for m, _kind, _cyc in pieces}
        c_mask = 0
        for cyc in self.basic5_partition:
            m = five.get(frozenset(cyc))
            if m is None or c_mask & m:
                return False
            c_mask |= m
        return c_mask == _union(pieces) and not p_mask & c_mask and p_mask | c_mask == g.full_mask

    def to_text(self) -> str:
        parts = [f"P=({u},{v})" for u, v in self.pendant_matching]
        parts += [f"C5=({','.join(map(str, cyc))})" for cyc in self.basic5_partition]
        return "; ".join(parts)


# -- exact cover -----------------------------------------------------------------


def _exact_cover(universe_mask: int, pieces: list):
    """Deterministic exact-cover backtracking: the first cover of the
    universe by the ordered (mask, kind, payload) pieces, or None."""
    chosen = []
    return chosen if _cover(universe_mask, pieces, chosen) else None


def _cover(remaining: int, pieces: list, chosen: list) -> bool:
    """Extend ``chosen`` to an exact cover of ``remaining``; no closure, so no cycle for the collector."""
    if remaining == 0:
        return True
    pivot = (remaining & -remaining).bit_length() - 1
    for piece in pieces:
        if piece[0] >> pivot & 1 and piece[0] & ~remaining == 0:
            chosen.append(piece)
            if _cover(remaining & ~piece[0], pieces, chosen):
                return True
            chosen.pop()
    return False


def _partition(g: Graph, kinds: str):
    """The first exact cover of V(g) by the pieces of ``kinds`` as an
    SqcCertificate, or None."""
    cover = _exact_cover(g.full_mask, _pieces(g.adj, kinds))
    if cover is None:
        return None
    return SqcCertificate(
        simplexes=tuple((g.labels[x], g.label_set(m)) for m, kind, x in cover if kind == "S"),
        five_cycles=tuple(_labelled(g, cyc) for _, kind, cyc in cover if kind == "C"),
        four_cycles=tuple((_labelled(g, q[0]), _labelled(g, q[1])) for _, kind, q in cover if kind == "Q"),
    )


def recognize_sqc(g: Graph):
    return _partition(g, "SCQ")


def recognize_sc(g: Graph):
    """SQC without 4-cycle pieces: an SqcCertificate with t == 0, or None."""
    return _partition(g, "SC")


def recognize_pc(g: Graph):
    p_mask = _pendant_mask(g)
    five = _pieces(g.adj, "C")
    c_mask = _union(five)
    if p_mask is None or p_mask & c_mask or p_mask | c_mask != g.full_mask:
        return None
    cover = _exact_cover(c_mask, five)
    if cover is None:
        return None
    cycles = tuple(_labelled(g, cyc) for _, _, cyc in cover)
    return PcCertificate(pendant_matching=g.pendant_edges(), basic5_partition=cycles)


# -- theorem-shaped conditions -----------------------------------------------------


def t3_partition_condition(g: Graph) -> bool:
    """Simplicial vertices of degree at most 3 whose closed neighbourhoods
    partition V(G).  Every simplicial vertex of a simplex S has degree
    |S| - 1, so these are the simplexes of at most 4 vertices."""
    pieces = [piece for piece in _pieces(g.adj, "S") if piece[0].bit_count() <= 4]
    return _exact_cover(g.full_mask, pieces) is not None


def t3_simplicial_condition(g: Graph) -> bool:
    """Well-covered simplicial graph with every simplicial vertex of degree
    at most 3 (the equivalent reformulation; cross-checked in the
    verification suites)."""
    simplexes = _pieces(g.adj, "S")
    if _union(simplexes) != g.full_mask or any(m.bit_count() > 4 for m, _, _ in simplexes):
        return False
    return is_well_covered(g)


def is_block_cactus(g: Graph) -> bool:
    """Every block complete or a cycle.  A block is connected, so it is a
    cycle when each of its vertices has two neighbours in it."""
    adj = g.adj
    return all(g.is_clique(b) or all((adj[a] & b).bit_count() == 2 for a in bits(b)) for b in g.block_masks())


def is_cactus(g: Graph) -> bool:
    """Connected, with every block an edge or a cycle (single vertices are
    trivially allowed)."""
    adj = g.adj
    return g.is_connected() and all(
        b.bit_count() <= 2 or all((adj[a] & b).bit_count() == 2 for a in bits(b)) for b in g.block_masks()
    )


def cactus_cm_condition(g: Graph) -> bool:
    """Literal evaluation of the two incidence conditions on a cactus:

    (a) every degree-2 vertex lies on exactly one pendant edge, basic
        3-cycle, basic 4-cycle or basic 5-cycle;
    (b) every vertex of degree at least 3 lies on exactly one pendant edge,
        basic 3-cycle or basic 5-cycle.

    Each counts once per vertex set.  A simplex of a cactus is K1, a
    pendant edge or a basic 3-cycle (N[x] for a simplicial x of degree 0,
    1 or 2), and sets of the four kinds differ in size.
    """
    if not is_cactus(g):
        raise PreconditionError("cactus_cm_condition requires a cactus graph")
    pieces = _pieces(g.adj, "SCQ")
    high = {m for m, kind, _ in pieces if kind != "Q"}
    two = high | {_mask(q[0]) for _, kind, q in pieces if kind == "Q"}
    for v, row in enumerate(g.adj):
        d = row.bit_count()
        if d >= 2 and sum(m >> v & 1 for m in (two if d == 2 else high)) != 1:
            return False
    return True



def square_cm_criterion(g: Graph, field) -> bool:
    """For triangle-free g: g is CM and punching any edge xy (deleting
    N(x) | N(y)) leaves a CM graph with independence number alpha(g) - 1.
    The empty punched graph counts as CM with alpha 0."""
    if g.girth() < 4:
        raise PreconditionError("square_cm_criterion requires a triangle-free graph")
    return is_cm_graph(g, field) and edge_punches_cm(g, field)


# -- aggregate report ---------------------------------------------------------------


@dataclass
class ClassificationReport:
    n: int
    m: int
    girth: object
    alpha: int
    well_covered: bool
    w2: bool
    vertex_decomposable: bool
    cm: dict
    gorenstein: dict
    doubly_cm: dict
    sqc: object
    sc: object
    pc: object
    simplicial_graph: bool
    t3_condition: bool
    block_cactus: bool
    cactus: bool
    square_cm: dict
    planar: bool

    def to_text(self) -> str:
        """One "key: value" line per field in declaration order, a dict
        field giving one per characteristic and a certificate its partition."""
        lines = []
        for f in dc_fields(self):
            value = getattr(self, f.name)
            if isinstance(value, dict):
                lines += [f"{f.name}[char{c}]: {_word(value[c])}" for c in sorted(value)]
            elif f.name in ("sqc", "sc", "pc"):
                lines.append(f"{f.name}: {'no' if value is None else 'yes'}")
                if value is not None:
                    lines.append(f"{f.name}.partition: {value.to_text()}")
            else:
                lines.append(f"{f.name}: {_word(value)}")
        return "\n".join(lines) + "\n"


def _word(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:  # square_cm of a graph with a triangle
        return "n/a (triangle present)"
    return "infinity" if value is INFINITY else value


def classify(g: Graph, fields=DEFAULT_FIELDS) -> ClassificationReport:
    """alpha, well-coveredness and W2 are read off the records of g's
    components (``complexes``): alpha adds up over a disjoint union, and
    both properties hold iff they hold on every component."""
    chars = [_char(f) for f in fields]
    girth = g.girth()
    parts = _parts(g)
    return ClassificationReport(
        n=g.n,
        m=g.m,
        girth=girth,
        alpha=sum(map(_alpha, parts)),
        well_covered=all(map(_pure, parts)),
        w2=all(map(_w2, parts)),
        vertex_decomposable=is_vertex_decomposable(g)[0],
        cm={c: is_cm_graph(g, c) for c in chars},
        gorenstein={c: is_gorenstein_graph(g, c) for c in chars},
        doubly_cm={c: is_doubly_cm_graph(g, c) for c in chars},
        sqc=recognize_sqc(g),
        sc=recognize_sc(g),
        pc=recognize_pc(g),
        simplicial_graph=is_simplicial_graph(g),
        t3_condition=t3_partition_condition(g),
        block_cactus=is_block_cactus(g),
        cactus=is_cactus(g),
        square_cm={c: (square_cm_criterion(g, c) if girth >= 4 else None) for c in chars},
        planar=is_planar(g),
    )
