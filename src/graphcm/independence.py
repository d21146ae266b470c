"""Independent-set machinery: maximal independent sets, the independence
number, and the well-covered / W2 predicates.

Maximal independent sets are enumerated as maximal cliques of the
complement (Bron-Kerbosch with pivoting).  The public stream is sorted
lexicographically by bitmask so repeated runs see identical order; callers
that only need existence use the unordered internal enumerator and stop
early.
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


def _mis_masks(g: Graph):
    """Yield every maximal independent set of g as a bitmask (unordered)."""
    n = g.n
    if n == 0:
        yield 0
        return
    compat = _nonadj(g)
    full = g.full_mask

    def expand(r, p, x):
        if p == 0 and x == 0:
            yield r
            return
        pivot_pool = p | x
        pivot = -1
        best = -1
        for u in bits(pivot_pool):
            c = (p & compat[u]).bit_count()
            if c > best:
                best = c
                pivot = u
        for v in bits(p & ~compat[pivot]):
            yield from expand(r | 1 << v, p & compat[v], x & compat[v])
            p &= ~(1 << v)
            x |= 1 << v

    yield from expand(0, full, 0)


def maximal_independent_sets(g: Graph):
    """Yield every maximal independent set exactly once, as a frozenset of
    labels, in increasing bitmask order."""
    for mask in sorted(_mis_masks(g)):
        yield g.label_set(mask)


def independence_number(g: Graph) -> int:
    """alpha(g), by branch and bound with a greedy start."""
    adj = g.adj
    # greedy lower bound: repeatedly take a minimum-degree vertex
    best = 0
    cand = g.full_mask
    while cand:
        v = min(bits(cand), key=lambda u: (adj[u] & cand).bit_count())
        best += 1
        cand &= ~(adj[v] | 1 << v)

    def bb(cand, size):
        nonlocal best
        if size + cand.bit_count() <= best:
            return
        if cand == 0:
            best = max(best, size)
            return
        v = max(bits(cand), key=lambda u: (adj[u] & cand).bit_count())
        bb(cand & ~(adj[v] | 1 << v), size + 1)
        # if v has no candidate neighbours, excluding it cannot help
        if adj[v] & cand:
            bb(cand & ~(1 << v), size)

    bb(g.full_mask, 0)
    return best


def is_well_covered(g: Graph) -> bool:
    """True iff all maximal independent sets share one cardinality."""
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
    number after deleting any single vertex."""
    if not is_well_covered(g):
        return False
    a = independence_number(g)
    for v in g.labels:
        h = g.delete_vertices([v])
        if not is_well_covered(h) or independence_number(h) != a:
            return False
    return True
