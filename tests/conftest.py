"""Shared brute-force oracles and hypothesis strategies.

The oracles deliberately avoid the library's own algorithms: independent
sets by subset enumeration, isomorphism by permutation search, homology
ranks by fraction Gaussian elimination, so every fast path has a dumb
second opinion.
"""

import itertools
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import strategies as st

from graphcm.graph import Graph, bits


# -- conversions ---------------------------------------------------------------


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    for i in range(g.n):
        for j in bits(g.adj[i]):
            if j > i:
                h.add_edge(i, j)
    return h


# -- brute-force oracles ---------------------------------------------------------


def brute_independent_sets(g: Graph):
    """All independent sets, as index masks."""
    out = []
    for mask in range(1 << g.n):
        if all(g.adj[v] & mask == 0 for v in bits(mask)):
            out.append(mask)
    return out

def brute_maximal_independent_sets(g: Graph):
    indep = set(brute_independent_sets(g))
    out = []
    for mask in indep:
        if all((mask | 1 << v) not in indep for v in range(g.n) if not mask >> v & 1):
            out.append(mask)
    return sorted(out)


def brute_alpha(g: Graph) -> int:
    return max(mask.bit_count() for mask in brute_independent_sets(g))


def brute_is_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.m != h.m:
        return False
    n = g.n
    for perm in itertools.permutations(range(n)):
        if all(
            (g.adj[i] >> j & 1) == (h.adj[perm[i]] >> perm[j] & 1)
            for i in range(n)
            for j in range(i + 1, n)
        ):
            return True
    return False


def fraction_rank(rows) -> int:
    """Plain Gaussian elimination over Q with Fraction arithmetic."""
    if not rows or not rows[0]:
        return 0
    mat = [[Fraction(x) for x in row] for row in rows]
    m, ncol = len(mat), len(mat[0])
    rank = 0
    for c in range(ncol):
        piv = next((i for i in range(rank, m) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pr = mat[rank]
        inv = Fraction(1) / pr[c]
        mat[rank] = [x * inv for x in pr]
        for i in range(m):
            if i != rank and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def dense_rows(vectors, nrows: int) -> list:
    """The {row: value} columns as a list of dense rows, for the oracles."""
    vectors = list(vectors)
    rows = [[0] * len(vectors) for _ in range(nrows)]
    for j, vec in enumerate(vectors):
        for i, x in vec.items():
            rows[i][j] = x
    return rows


def modp_rank(rows, p: int) -> int:
    if not rows or not rows[0]:
        return 0
    mat = [[x % p for x in row] for row in rows]
    m, ncol = len(mat), len(mat[0])
    rank = 0
    for c in range(ncol):
        piv = next((i for i in range(rank, m) if mat[i][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][c], p - 2, p)
        mat[rank] = [x * inv % p for x in mat[rank]]
        for i in range(m):
            if i != rank and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def brute_reduced_betti(faces, char: int):
    """Reduced Betti numbers from an explicit face list (frozensets of
    ints), straight from the definition; index c holds dimension c-1."""
    if not faces:
        return ()
    by_card = {}
    for f in faces:
        by_card.setdefault(len(f), []).append(tuple(sorted(f)))
    top = max(by_card)
    levels = [sorted(set(by_card.get(c, ()))) for c in range(top + 1)]
    ranks = [0] * (top + 2)
    for c in range(1, top + 1):
        prev, cur = levels[c - 1], levels[c]
        if not prev or not cur:
            continue
        row_of = {f: i for i, f in enumerate(prev)}
        rows = [[0] * len(cur) for _ in prev]
        for j, f in enumerate(cur):
            for t in range(len(f)):
                rows[row_of[f[:t] + f[t + 1 :]]][j] = (-1) ** t
        ranks[c] = fraction_rank(rows) if char == 0 else modp_rank(rows, char)
    return tuple(len(levels[c]) - ranks[c] - ranks[c + 1] for c in range(top + 1))


def brute_to_graph6(g: Graph) -> str:
    """graph6 one bit at a time: the upper triangle column by column, each
    column from vertex 0 down, in sextets offset by 63."""
    n = g.n
    head = [n] if n <= 62 else [63, n >> 12 & 63, n >> 6 & 63, n & 63]
    flat = [g.adj[i] >> j & 1 for j in range(1, n) for i in range(j)]
    flat += [0] * (-len(flat) % 6)
    body = [int("".join(map(str, flat[k:k + 6])), 2) for k in range(0, len(flat), 6)]
    return "".join(chr(x + 63) for x in head + body)


def brute_cycles(g: Graph, length: int):
    """All cycles of the given length as index tuples in the library's
    orientation (smallest vertex first, second < last), sorted; every
    ordering of every vertex subset is tried."""
    out = []
    for sub in itertools.combinations(range(g.n), length):
        for rest in itertools.permutations(sub[1:]):
            cyc = sub[:1] + rest
            if cyc[1] < cyc[-1] and all(g.adj[cyc[i]] >> cyc[(i + 1) % length] & 1 for i in range(length)):
                out.append(cyc)
    return sorted(out)


def _deg(g: Graph, v: int) -> int:
    return sum(g.adj[v] >> u & 1 for u in range(g.n))


def _labelled(g: Graph, cyc):
    return tuple(g.labels[v] for v in cyc)


def brute_basic_3_cycles(g: Graph):
    """Triangles with a vertex of degree two, as label tuples."""
    return [_labelled(g, c) for c in brute_cycles(g, 3) if any(_deg(g, v) == 2 for v in c)]


def _brute_basic_5(g: Graph):
    out = []
    for cyc in brute_cycles(g, 5):
        high = [v for v in cyc if _deg(g, v) >= 3]
        if not any(g.adj[u] >> v & 1 for u, v in itertools.combinations(high, 2)):
            out.append(cyc)
    return out


def brute_basic_5_cycles(g: Graph):
    """5-cycles on which no two vertices of degree >= 3 are adjacent in g,
    as label tuples."""
    return [_labelled(g, c) for c in _brute_basic_5(g)]


def brute_simplexes(g: Graph):
    """Closed neighbourhoods N[x], as index masks, of the vertices x whose
    neighbours are pairwise adjacent; one entry per simplicial x."""
    out = []
    for x in range(g.n):
        nbrs = [u for u in range(g.n) if g.adj[x] >> u & 1]
        if all(g.adj[u] >> v & 1 for u, v in itertools.combinations(nbrs, 2)):
            out.append(sum(1 << u for u in nbrs) | 1 << x)
    return out


def brute_basic_4_cycles(g: Graph, allowed=None):
    """(cycle, (x, y)) for each 4-cycle and each position k where x, y are
    its k-th and (k+1)-th vertices, both of degree two, and the other two
    vertices lie in ``allowed`` (default: the vertices of all simplexes and
    basic 5-cycles); cycles in order, then k."""
    if allowed is None:
        allowed = 0
        for mask in brute_simplexes(g):
            allowed |= mask
        for cyc in _brute_basic_5(g):
            allowed |= sum(1 << v for v in cyc)
    out = []
    for cyc in brute_cycles(g, 4):
        for k in range(4):
            x, y, r, s = (cyc[(k + i) % 4] for i in range(4))
            if _deg(g, x) == 2 and _deg(g, y) == 2 and allowed >> r & 1 and allowed >> s & 1:
                out.append((_labelled(g, cyc), (g.labels[x], g.labels[y])))
    return out


def brute_exact_cover(universe: int, masks) -> bool:
    """Whether some subfamily of ``masks`` partitions ``universe``: each
    mask in turn is left out or, if disjoint from those taken, taken."""
    masks = sorted(set(masks))

    def rec(i, covered):
        if covered == universe:
            return True
        if i == len(masks):
            return False
        if masks[i] & covered == 0 and rec(i + 1, covered | masks[i]):
            return True
        return rec(i + 1, covered)

    return rec(0, 0)


def brute_refine(adj, cells):
    """Colour refinement against every cell at once: split each cell by
    the vector of neighbour counts in all cells, in the order of that
    vector, until no cell splits.  Returns the equitable ordered partition
    as a new list of cell bitmasks."""
    while True:
        out = []
        for c in cells:
            if c & (c - 1) == 0:
                out.append(c)
                continue
            parts = {}
            for v in bits(c):
                key = tuple((adj[v] & d).bit_count() for d in cells)
                parts[key] = parts.get(key, 0) | 1 << v
            out.extend(parts[key] for key in sorted(parts))
        if len(out) == len(cells):
            return out
        cells = out


def brute_new_vertex_leads(adj) -> int:
    """How the last vertex v, the new one, of the graph with rows adj ranks
    by (degree, sum of neighbour degrees) among the non-cut vertices: 0 if
    one outranks it, 2 if every one that ties it is a twin of it
    (N(u) - {v} == N(v) - {u}), and 1 otherwise."""
    deg = [row.bit_count() for row in adj]
    v = len(adj) - 1

    def key(u):
        return deg[u], sum(deg[w] for w in bits(adj[u]))

    def non_cut(u):
        h = to_nx(Graph(tuple(range(len(adj))), tuple(adj)))
        h.remove_node(u)
        return nx.is_connected(h)

    rivals = [u for u in range(v) if key(u) >= key(v) and non_cut(u)]
    if any(key(u) > key(v) for u in rivals):
        return 0
    return 2 if all(adj[u] & ~(1 << v) == adj[v] & ~(1 << u) for u in rivals) else 1


_BRUTE_LEVELS = {}


def brute_level(n: int, filt):
    """The connected graphs on n vertices in the filter's hereditary class,
    grown as a plain loop: every non-empty neighbour mask of every graph of
    the level below, the whole filter tested on the child, then a dedup on
    the canonical form.  ``enumeration._level`` lists the same classes,
    each once, but may keep other representatives in another order."""
    key = (filt.hereditary_key(), n)
    if key not in _BRUTE_LEVELS:
        if n == 1:
            out = [Graph.empty(1)] if filt.passes_hereditary(Graph.empty(1)) else []
        else:
            seen = set()
            out = []
            for g in brute_level(n - 1, filt):
                for mask in range(1, 1 << (n - 1)):
                    h = g._extend(mask)
                    if filt.passes_hereditary(h) and h.canonical_form() not in seen:
                        seen.add(h.canonical_form())
                        out.append(h)
        _BRUTE_LEVELS[key] = out
    return _BRUTE_LEVELS[key]


# -- hypothesis strategies ---------------------------------------------------------


@st.composite
def graphs(draw, min_n=0, max_n=7):
    n = draw(st.integers(min_n, max_n))
    nbits = n * (n - 1) // 2
    word = draw(st.integers(0, (1 << nbits) - 1)) if nbits else 0
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if word >> k & 1:
                edges.append((i, j))
            k += 1
    return Graph.from_edges(n, edges)


@st.composite
def sparse_graphs(draw, min_n=1, max_n=12):
    """Graphs with at most n + 3 edges, where degree-2 vertices, pendant
    edges and basic cycles are common."""
    n = draw(st.integers(min_n, max_n))
    pairs = [(i, j) for j in range(n) for i in range(j)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=n + 3, unique=True)) if pairs else []
    return Graph.from_edges(n, edges)


@pytest.fixture(scope="session")
def small_connected():
    """All connected graphs with up to 5 vertices, once per session."""
    from graphcm.enumeration import enumerate_connected_upto

    return list(enumerate_connected_upto(5))
