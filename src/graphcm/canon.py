"""Canonical forms via individualisation-refinement backtracking.

``canonical_form(G)`` returns a byte string that is invariant under
relabeling and distinct for non-isomorphic graphs: one length byte followed
by the lexicographically minimal packed adjacency matrix over the leaves
(vertex orderings) of a search tree.  A node is an ordered partition, a
list of cell bitmasks, whose first ``k`` cells are the vertices placed so
far.  A singleton target cell is placed as it is; otherwise each child
individualises one of its vertices and refines.  Every step depends only on
the graph and the placed prefix, so isomorphisms map search trees onto each
other.

Refinement (McKay, "Practical graph isomorphism", 1981) brings a partition
to the coarsest equitable one below it: every vertex of a cell has the same
number of neighbours in each cell.  ``_refine`` works through a stack of
splitter cells.  It pops a splitter W and splits every cell by the number of
neighbours in W, putting the fragments in place of the cell in order of
that count.  It keeps this invariant: for each cell X off the stack, the
partition is stable against (all vertices of each cell have one count in) X
together with some cells on the stack.  Once W is used the partition is
stable against W, so W can leave those unions.  A cell on the stack that
splits is replaced by all its fragments; a cell off the stack that splits
pushes all fragments but its first largest, whose union takes the others
in.  So an empty stack means an equitable partition.  At the root the stack
is the whole vertex set.  After individualising v in the cell C of an
equitable partition it is just ``{v}``: the partition was stable against C,
which is C minus v together with {v}.  Every split separates vertices that
the coarsest equitable refinement separates too, so the cells are those of
refining against all cells at once (``brute_refine`` in the tests); only
their order differs, and it is a function of the graph and the prefix like
everything else here.

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
transpositions and one permutation per leaf equal to the best.  They
generate all of Aut(g), by McKay's argument for nauty.  Aut(g) permutes the
leaves freely, and the leaves with the best rows form one orbit, so it is
enough that each is the image of the best leaf under stored permutations.
A reached one stores its own; the rest lie where the search skipped.  The
rows cut removes only leaves with larger rows, a skipped sibling is the
image of a tried one under a stored automorphism, and a leaf equal to the
best abandons only subtrees its permutation carries from subtrees searched
beside the best leaf's path.

An adjacency is searched at most once between resets: the search reads
only ``g.adj``, and ``_KEPT`` keeps its whole result under the adjacency
until ``complexes.clear_caches()`` empties it with the class table.  So
the table holds every adjacency searched since the last reset, and a
generator that streams levels must reset per level, or the table keeps
what streaming was meant to release.
"""

from __future__ import annotations

from .graph import Graph, bits


def _push(todo, cell, frags):
    """Put the fragments of a split cell on the splitter stack."""
    if cell in todo:
        i = todo.index(cell)
        todo[i:i + 1] = frags
    else:
        big = frags.index(max(frags, key=int.bit_count))
        todo.extend(frags[:big] + frags[big + 1:])


def _refine(adj, cells, todo):
    """Split the ordered partition ``cells`` until it is equitable and
    return it; ``todo`` is the splitter stack."""
    n = len(adj)
    while todo and len(cells) < n:  # a discrete partition is equitable
        w = todo.pop()
        out = []
        if w & (w - 1) == 0:  # one splitter vertex: counts are 0 or 1
            a = adj[w.bit_length() - 1]
            for c in cells:
                x = c & a
                if x and x != c:
                    frags = [c ^ x, x]
                    out += frags
                    _push(todo, c, frags)
                else:
                    out.append(c)
        else:
            for c in cells:
                if c & (c - 1) == 0:
                    out.append(c)
                    continue
                parts = {}
                for v in bits(c):
                    k = (adj[v] & w).bit_count()
                    parts[k] = parts.get(k, 0) | 1 << v
                if len(parts) == 1:
                    out.append(c)
                    continue
                frags = [parts[k] for k in sorted(parts)]
                out += frags
                _push(todo, c, frags)
        cells = out
    return cells


def _twin_automorphisms(adj, cells):
    """One chain of transpositions per class of false or true twins.  Twins
    have equal counts in every cell, so they share a cell of the equitable
    partition ``cells``."""
    n = len(adj)
    out = []
    for closed in (0, 1):
        classes = {}
        for c in cells:
            if c & (c - 1):
                for v in bits(c):
                    classes.setdefault(adj[v] | closed << v, []).append(v)
        for cls in classes.values():
            for u, v in zip(cls, cls[1:]):
                perm = list(range(n))
                perm[u], perm[v] = v, u
                out.append(perm)
    return out


# adjacency -> its one search's result, one byte per vertex (n is at most
# 64): the form, the canonical order, then each stored automorphism
_KEPT: dict = {}


def _kept(g: Graph) -> tuple:
    """The packed result of the one search of g's adjacency and the length
    of its form.  The first call searches and keeps it; later ones read."""
    n = g.n
    k = 1 + (n * (n - 1) // 2 + 7) // 8
    got = _KEPT.get(g.adj)
    if got is None:
        rows, order, autos = _search(g)
        acc = 0
        for i in range(1, n):
            acc = (acc << i) | rows[i]
        got = _KEPT[g.adj] = bytes([n]) + acc.to_bytes(k - 1, "big") + bytes(order) + b"".join(map(bytes, autos))
    return got, k


def canonical_form(g: Graph) -> bytes:
    """The canonical byte string of g."""
    packed, k = _kept(g)
    return packed[:k]


def canonical_order(g: Graph) -> tuple:
    """A canonical vertex ordering (position -> internal index); graphs with
    equal canonical forms place corresponding vertices at equal positions."""
    packed, k = _kept(g)
    return tuple(packed[k:k + g.n])


def automorphisms(g: Graph) -> list:
    """The automorphisms the canonical search of g stored, each as a list
    ``perm`` of internal indices (``perm[i]`` is the image of ``i``); they
    generate Aut(g)."""
    packed, k = _kept(g)
    n = g.n
    return [list(packed[i:i + n]) for i in range(k + n, len(packed), n or 1)]  # n == 0: none


def _search(g: Graph):
    n = g.n
    if n == 0:
        return (), (), []
    adj = g.adj
    full = (1 << n) - 1
    root = _refine(adj, [full], [full])
    autos = _twin_automorphisms(adj, root)
    best_rows = None
    best_perm = None
    order = []
    rows = []
    pos = [0] * n  # canonical position of each placed vertex
    placed = 0

    def rec(cells):
        """Search below ``cells``; return the depth to resume at."""
        nonlocal best_rows, best_perm, placed
        k0 = k = len(order)
        placed0 = placed
        while k < n and cells[k] & (cells[k] - 1) == 0:
            v = cells[k].bit_length() - 1
            row = 0
            for u in bits(adj[v] & placed):
                row |= 1 << pos[u]
            rows.append(row)
            order.append(v)
            pos[v] = k
            placed |= 1 << v
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
        placed = placed0
        return back

    def branch(cells, k):
        cell = cells[k]
        verts = bits(cell)
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
                back = rec(_refine(adj, cells[:k] + [1 << v, cell ^ 1 << v] + cells[k + 1:], [1 << v]))
                if back < k:
                    return back
        return n

    rec(root)
    branch = None  # rec and branch close over each other; break the cycle
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
    if g.canonical_form() != h.canonical_form():
        return None
    og, oh = canonical_order(g), canonical_order(h)
    return {g.labels[og[p]]: h.labels[oh[p]] for p in range(g.n)}
