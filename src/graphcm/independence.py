"""Independent-set machinery: maximal independent sets, the independence
number, the shedding test, and the well-covered / W2 predicates.

Maximal independent sets are enumerated as maximal cliques of the
complement: Bron-Kerbosch with Tomita's pivot (the first vertex of P | X
with the most non-neighbours in P), on an explicit stack of frames [R, P, X,
candidates] taking candidates in increasing bit order: the recursive form's
tree and order, from one generator frame.  The public stream is sorted
lexicographically by bitmask so repeated runs see identical order; callers
that only need existence use the unordered internal enumerator and stop
early.  Given a vertex mask, the enumerator works on the subgraph it
induces without building it; the shedding test reads G minus v that way.

A vertex v of G is *shedding* (Woodroofe, Proc. AMS 137, 2009) when no
maximal independent set of G minus v avoids N(v).  Each maximal
independent set S of G minus v is one of two kinds: if S meets N(v) it is
maximal in G too, and if it misses N(v) then S + v is.  On a well-covered
G the first kind has alpha(G) vertices and the second alpha(G) - 1.  So G
minus v is well-covered with alpha(G minus v) = alpha(G) iff v is
shedding, and G is W2 iff it is well-covered and every vertex sheds.  A
doubly Cohen-Macaulay graph has both properties for every v, so it is W2.
The test enumerates the smaller graph G minus N[v]: v sheds iff no maximal
independent set of G minus N[v] dominates N(v).  A maximal independent set
S of G minus v that misses N(v) lies in G minus N[v] and is maximal there,
and every vertex of N(v), being outside S, has a neighbour in S.
Conversely, a maximal independent set of G minus N[v] that dominates N(v)
leaves no vertex of G minus v free to join it, so it is maximal in G minus
v and misses N(v).  The test stops at the first such set.
A vertex y that *dominates* a neighbour x, N[x] inside N[y], sheds
(Woodroofe, Lemma 6): a maximal independent set of G minus y that missed
N(y) would miss N[x] and could take x.  The shedding test accepts such a y
without enumerating.  The class records of ``complexes`` keep shedding
verdicts, at one vertex per automorphism orbit, for W2 (the doubly-CM
test, ``recognition.classify``) and the search of ``decomposability``;
``is_w2`` here tests every vertex of the graph it is given, independently
of any record or homology.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, bits


@dataclass(frozen=True)
class IndependentSetReport:
    alpha: int
    min_maximal: int
    count_maximal: int
    well_covered: bool


def _nonadj(g: Graph) -> list:
    full = g.full_mask
    return [full & ~row & ~(1 << v) for v, row in enumerate(g.adj)]


def _mis_masks(g: Graph, within: int = -1):
    """Yield every maximal independent set of the subgraph of g induced on
    the vertex mask ``within`` (all of g by default) as a bitmask of g's
    vertices (unordered).  The search starts from P = within, and P and X
    only shrink, so no vertex outside the mask enters either."""
    compat = _nonadj(g)
    stack = []  # one frame [r, p, x, candidates] per open node of the search
    r, p, x = 0, g.full_mask & within, 0
    while True:
        if not p | x:
            yield r
        elif p:
            pivot = best = -1
            for u in bits(p | x):
                c = (p & compat[u]).bit_count()
                if c > best:
                    best = c
                    pivot = u
            stack.append([r, p, x, p & ~compat[pivot]])
        # descend into the next candidate of the deepest frame that has one
        while stack:
            frame = stack[-1]
            r, p, x, cand = frame
            if cand:
                b = cand & -cand
                v = b.bit_length() - 1
                frame[1] = p ^ b
                frame[2] = x | b
                frame[3] = cand ^ b
                r, p, x = r | b, p & compat[v], x & compat[v]
                break
            stack.pop()
        else:
            return


def _dominates(adj, y: int) -> bool:
    """True iff N[x] lies inside N[y] for some neighbour x of y."""
    closed = adj[y] | 1 << y
    return any(not adj[x] & ~closed for x in bits(adj[y]))


def _is_shedding(g: Graph, i: int) -> bool:
    """True iff every maximal independent set of g minus vertex i meets N(i):
    no maximal independent set of g minus N[i] dominates N(i).  A dominating
    i sheds with no enumeration (see the module docstring)."""
    adj = g.adj
    near = adj[i]
    return _dominates(adj, i) or not any(
        all(adj[u] & m for u in bits(near)) for m in _mis_masks(g, g.full_mask & ~(near | 1 << i))
    )


def maximal_independent_sets(g: Graph):
    """Yield every maximal independent set exactly once, as a frozenset of
    labels, in increasing bitmask order."""
    for mask in sorted(_mis_masks(g)):
        yield g.label_set(mask)


def _greedy_independent(g: Graph) -> int:
    """The size of a maximal independent set of g taken greedily, a vertex
    of least degree among those left at each step: a lower bound on
    alpha(g), and alpha(g) itself when g is well-covered."""
    adj = g.adj
    size = 0
    cand = g.full_mask
    while cand:
        v = min(bits(cand), key=lambda u: (adj[u] & cand).bit_count())
        size += 1
        cand &= ~(adj[v] | 1 << v)
    return size


def independence_number(g: Graph) -> int:
    """alpha(g), by branch and bound with a greedy start."""
    return _max_independent(g.adj, g.full_mask, 0, _greedy_independent(g))


def _max_independent(adj, cand: int, size: int, best: int) -> int:
    """The larger of best and size plus the independence number of the
    rows adj restricted to the vertex mask cand, by branch and bound."""
    if size + cand.bit_count() <= best:
        return best
    if cand == 0:
        return size
    v = max(bits(cand), key=lambda u: (adj[u] & cand).bit_count())
    best = _max_independent(adj, cand & ~(adj[v] | 1 << v), size + 1, best)
    # if v has no candidate neighbours, excluding it cannot help
    if adj[v] & cand:
        best = _max_independent(adj, cand & ~(1 << v), size, best)
    return best


def is_well_covered(g: Graph) -> bool:
    """True iff all maximal independent sets share one cardinality; the
    enumeration stops at the second."""
    size = None
    for mask in _mis_masks(g):
        c = mask.bit_count()
        if size is None:
            size = c
        elif c != size:
            return False
    return True


def independent_set_report(g: Graph) -> IndependentSetReport:
    sizes = [mask.bit_count() for mask in _mis_masks(g)]
    return IndependentSetReport(
        alpha=max(sizes),
        min_maximal=min(sizes),
        count_maximal=len(sizes),
        well_covered=min(sizes) == max(sizes),
    )


def is_w2(g: Graph) -> bool:
    """Well covered, and still well covered with the same independence
    number after deleting any single vertex: on a well-covered graph that
    is every vertex shedding (see the module docstring)."""
    return is_well_covered(g) and all(_is_shedding(g, i) for i in range(g.n))
