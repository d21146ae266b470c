"""Exact planarity in polynomial time: blocks, then path addition.

*Degree shortcut.*  By Kuratowski's theorem a graph is planar iff it
contains no subdivision of K5 or K3,3.  A K5 subdivision has 5 branch
vertices of degree >= 4 and a K3,3 subdivision 6 of degree >= 3, so a
graph with fewer than 5 vertices of degree >= 4 and fewer than 6 of
degree >= 3 is planar.

*Blocks.*  A graph is planar iff each of its blocks is: a Kuratowski
subdivision is 2-connected, so it lies inside one block, and plane
embeddings of the blocks glue at cut vertices.  Each block is first held
to the Euler bound m <= 3n - 6 and the degree shortcut (on its own
degrees), then decided by path addition (Demoucron, Malgrange and
Pertuiset, 1964).

*Path addition.*  Start from a cycle H of the 2-connected block B, drawn
with two faces.  A *fragment* (an H-bridge) is either a chord, an edge of
B - E(H) with both ends in H, or a component of B - V(H) with its edges
to H; its *attachments* are its vertices in H, at least two because B is
2-connected.  A face *fits* a fragment when its boundary holds every
attachment.  The invariant is: if B is planar, some plane embedding of B
extends the drawing of H.  Then a fragment that fits no face proves B
non-planar, since each fragment lies inside one face of H.  Otherwise
draw a path of a fragment between two of its attachments through a face
that fits it; the path splits the face in two.  The choice keeps the
invariant: a fragment that fits exactly one face has to go there, and when
every fragment fits at least two faces, any of them may go into any face
that fits it (Demoucron, Malgrange and Pertuiset; see Bondy and Murty,
*Graph Theory with Applications*, 1976, chapter 9).  H stays 2-connected,
so each face is a cycle, kept as its vertex list and vertex mask.  Every
step draws an edge, so at most m steps of O(n + m) mask work decide B.
"""

from __future__ import annotations

from .graph import Graph, bits


def is_planar(g: Graph) -> bool:
    """True iff g has a plane embedding."""
    if _few_branch_vertices(g.adj):
        return True
    return all(_block_planar(g.adj, block) for block in g.block_masks())


def _few_branch_vertices(rows) -> bool:
    degrees = [row.bit_count() for row in rows]
    return sum(d >= 3 for d in degrees) < 6 and sum(d >= 4 for d in degrees) < 5


def _walk(adj: dict, start: int, allowed: int, goal: int) -> list:
    """A shortest path start, x1, ..., xk (k >= 1) with every xi in
    ``allowed`` and xk adjacent to a vertex of ``goal``."""
    seen, frontier = 1 << start, [[start]]
    while frontier:
        nxt = []
        for path in frontier:
            for v in bits(adj[path[-1]] & allowed & ~seen):
                seen |= 1 << v
                if adj[v] & goal:
                    return path + [v]
                nxt.append(path + [v])
        frontier = nxt
    raise AssertionError("a block is 2-connected, so the path exists")


def _block_planar(rows, block: int) -> bool:
    adj = {v: rows[v] & block for v in bits(block)}
    n, m = len(adj), sum(row.bit_count() for row in adj.values()) // 2
    if _few_branch_vertices(adj.values()):
        return True
    if m > 3 * n - 6:
        return False
    u = min(adj)
    v = (adj[u] & -adj[u]).bit_length() - 1
    cycle = _walk(adj, u, block & ~(1 << v), 1 << v) + [v]
    embedded = sum(1 << x for x in cycle)
    faces = [(cycle, embedded)] * 2
    drawn = dict.fromkeys(adj, 0)  # neighbours along drawn edges
    _draw(drawn, cycle + cycle[:1])
    edges = len(cycle)
    while edges < m:
        # (attachment mask, component mask); a chord has no component
        fragments = [(1 << x | 1 << y, 0) for x in bits(embedded) for y in bits(adj[x] & embedded & ~drawn[x]) if x < y]
        rest = block & ~embedded
        while rest:
            comp = frontier = rest & -rest
            reach = 0
            while frontier:
                for x in bits(frontier):
                    reach |= adj[x]
                frontier = reach & rest & ~comp
                comp |= frontier
            rest &= ~comp
            fragments.append((reach & embedded, comp))
        options = [([i for i, f in enumerate(faces) if a & ~f[1] == 0], a, c) for a, c in fragments]
        fits, attach, comp = min(options, key=lambda t: len(t[0]))
        if not fits:
            return False
        a = (attach & -attach).bit_length() - 1
        if comp:
            path = _walk(adj, a, comp, attach & ~(1 << a))
            path.append((adj[path[-1]] & attach & ~(1 << a)).bit_length() - 1)
        else:
            path = list(bits(attach))
        ring = faces.pop(fits[0])[0]
        ring = ring[ring.index(a):] + ring[: ring.index(a)]
        k, inner = ring.index(path[-1]), path[1:-1]
        for f in (ring[: k + 1] + inner[::-1], ring[k:] + [a] + inner):
            faces.append((f, sum(1 << x for x in f)))
        _draw(drawn, path)
        embedded |= sum(1 << x for x in inner)
        edges += len(path) - 1
    return True


def _draw(drawn: dict, path: list):
    for x, y in zip(path, path[1:]):
        drawn[x] |= 1 << y
        drawn[y] |= 1 << x
