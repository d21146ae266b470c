"""Canonical forms via individualisation-refinement backtracking.

``canonical_form(G)`` returns a byte string that is invariant under
relabeling and distinct for non-isomorphic graphs: one length byte followed
by the lexicographically minimal packed adjacency matrix over the leaves
(vertex orderings) of a search tree.  A node is an ordered partition, a
list of cell bitmasks, whose first ``k`` cells are the vertices placed so
far.  ``_refine`` splits every cell by the vector of popcounts
``(adj[v] & c).bit_count()`` over all cells ``c``, in the order of that
vector, until no cell splits (the fixed point of colour refinement).  A
singleton target cell is placed as it is; otherwise each child
individualises one of its vertices and refines.  Every step depends only on
the graph and the placed prefix, so isomorphisms map search trees onto each
other.

A node whose packed rows already exceed the best leaf's is cut.
Automorphisms are stored as found: one chain of transpositions per class of
twins (``N(u) - {v} == N(v) - {u}``), then ``best_perm[i] -> order[i]`` at
each leaf whose rows equal the best.  A child is skipped when it lies in the
orbit of a tried sibling under the stored automorphisms that fix the prefix
pointwise: such an automorphism maps the one subtree onto the other, leaf by
leaf with equal rows.  For the same reason a leaf equal to the best abandons
the search back to where its path left the best one.  Any best leaf gives
the canonical rows, so graphs with equal forms place corresponding vertices
at equal canonical positions.

``automorphisms(g)`` returns the stored permutations: the twin
transpositions and one permutation per leaf equal to the best.  Each is an
automorphism of g, but since pruning skips the subtrees that would show the
others, together they may generate only a subgroup of Aut(g).  That is
enough to prune by orbits (as generation does): the orbit of a set under a
subgroup lies inside its orbit under Aut(g), so skipping the other members
of a subgroup orbit only ever skips isomorphic copies.  Nothing here relies
on the whole group.
"""

from __future__ import annotations

from .graph import Graph


def _refine(adj, cells):
    """Split the ordered partition ``cells`` until it is equitable."""
    while True:
        out = []
        for c in cells:
            if c & (c - 1) == 0:
                out.append(c)
                continue
            parts = {}
            m = c
            while m:
                b = m & -m
                m ^= b
                a = adj[b.bit_length() - 1]
                key = tuple([(a & d).bit_count() for d in cells])
                parts[key] = parts.get(key, 0) | b
            out.extend(parts[key] for key in sorted(parts))
        if len(out) == len(cells):
            return out
        cells = out


def _twin_automorphisms(adj):
    """One chain of transpositions per class of false or true twins."""
    n = len(adj)
    out = []
    for closed in (0, 1):
        classes = {}
        for v in range(n):
            classes.setdefault(adj[v] | closed << v, []).append(v)
        for cls in classes.values():
            for u, v in zip(cls, cls[1:]):
                perm = list(range(n))
                perm[u], perm[v] = v, u
                out.append(perm)
    return out


def automorphisms(g: Graph) -> list:
    """The automorphisms a canonical search of g stores, each as a list
    ``perm`` of internal indices (``perm[i]`` is the image of ``i``); they
    generate a subgroup of Aut(g), possibly all of it.  Each call searches
    afresh, so graphs that live long do not hold permutations nobody asks
    for again."""
    return _search(g)[2]


def canonical_order(g: Graph) -> tuple:
    """A canonical vertex ordering (position -> internal index); graphs with
    equal canonical forms place corresponding vertices at equal positions.
    The search is kept on g, so a canonical form asked for afterwards costs
    no second search."""
    cached = g.__dict__.get("_canon_search")
    if cached is None:
        cached = g.__dict__["_canon_search"] = _search(g)[:2]
    return tuple(cached[1])


def canonical_form(g: Graph) -> bytes:
    """The canonical byte string of g.  It is kept on g, and nothing else:
    the many graphs that only ever need a key, such as the generated
    levels, do not hold the rows and the order of their search."""
    form = g.__dict__.get("_canon_form")
    if form is None:
        rows = (g.__dict__.get("_canon_search") or _search(g))[0]
        n = g.n
        acc = 0
        for k in range(1, n):
            acc = (acc << k) | rows[k]
        nbits = n * (n - 1) // 2
        form = g.__dict__["_canon_form"] = bytes([n]) + acc.to_bytes((nbits + 7) // 8, "big")
    return form


def _search(g: Graph):
    n = g.n
    if n == 0:
        return (), (), []
    adj = g.adj
    root = _refine(adj, [(1 << n) - 1])
    # twins never split under refinement, so a discrete root has none
    autos = _twin_automorphisms(adj) if len(root) < n else []
    best_rows = None
    best_perm = None
    order = []
    rows = []

    def rec(cells):
        """Search below ``cells``; return the depth to resume at."""
        nonlocal best_rows, best_perm
        k0 = k = len(order)
        while k < n and cells[k] & (cells[k] - 1) == 0:
            v = cells[k].bit_length() - 1
            rows.append(sum(1 << i for i, u in enumerate(order) if adj[v] >> u & 1))
            order.append(v)
            k += 1
        back = n
        if best_rows is None or rows <= best_rows[:k]:
            if k < n:
                back = branch(cells, k)
            elif best_rows is None or rows < best_rows:
                best_rows, best_perm = rows.copy(), order.copy()
            else:
                to = dict(zip(best_perm, order))
                autos.append([to[u] for u in range(n)])
                back = next(i for i in range(n) if best_perm[i] != order[i])
        del order[k0:], rows[k0:]
        return back

    def branch(cells, k):
        cell = cells[k]
        verts = [v for v in range(n) if cell >> v & 1]
        # orbits of the prefix stabiliser on the target cell, as union-find
        orbit = list(range(n))

        def find(x):
            while orbit[x] != x:
                x = orbit[x]
            return x

        used = 0
        tried = []
        for v in verts:
            for perm in autos[used:]:
                if all(perm[u] == u for u in order):
                    for x in verts:
                        orbit[find(x)] = find(perm[x])
            used = len(autos)
            if all(find(u) != find(v) for u in tried):
                tried.append(v)
                back = rec(_refine(adj, cells[:k] + [1 << v, cell ^ 1 << v] + cells[k + 1:]))
                if back < k:
                    return back
        return n

    rec(root)
    return tuple(best_rows), tuple(best_perm), autos


def _invariant(g: Graph):
    return (g.n, g.m, g.degree_sequence())


def is_isomorphic(g: Graph, h: Graph) -> bool:
    if _invariant(g) != _invariant(h):
        return False
    return g.canonical_form() == h.canonical_form()


def isomorphism_map(g: Graph, h: Graph):
    """A label bijection realising an isomorphism, or None."""
    if _invariant(g) != _invariant(h):
        return None
    og, oh = canonical_order(g), canonical_order(h)  # before the forms: one search each
    if g.canonical_form() != h.canonical_form():
        return None
    return {g.labels[og[p]]: h.labels[oh[p]] for p in range(g.n)}
