"""Bitset-backed immutable simple graphs (at most 64 vertices).

Vertices are addressed by *label* in the public API; labels are arbitrary
hashable values, typically ints or strings such as ``"x7"``.  Internally a
vertex is an index ``0..n-1`` in label-list order and the adjacency of each
vertex is a single machine-word bitmask, so set operations on neighbourhoods
are one-word operations.  Induced subgraphs keep the surviving labels, which
lets a chain of deletions remember which original vertices it contains.

All values are immutable after construction and every operation is pure, so
graphs can be shared freely between concurrent workers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Union

MAX_VERTICES = 64

#: Girth of a forest.  ``girth()`` returns an ``int`` for graphs that
#: contain a cycle and this value otherwise.
INFINITY = float("inf")

GirthValue = Union[int, float]


class GraphInputError(ValueError):
    """Bad input to a graph operation."""


class UnknownVertexError(GraphInputError):
    pass


class NotAnEdgeError(GraphInputError):
    pass


class UnsupportedSizeError(GraphInputError):
    pass


class PreconditionError(GraphInputError):
    """An operation's stated precondition does not hold."""


# _LOW[b]: the set bit positions of the byte value b; _HIGH[k - 1][b]: the
# same for b at byte k of a word
_LOW = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))
_HIGH = tuple(tuple(tuple(map((8 * k).__add__, t)) for t in _LOW) for k in range(1, 8))


def bits(mask: int) -> tuple:
    """The set bit positions of ``mask``, a word in [0, 2**64), as a tuple
    in increasing order: one table lookup per byte, no generator."""
    if 0 <= mask < 256:
        return _LOW[mask]
    if mask >> 64:  # also every negative mask
        raise ValueError(f"bits() takes a mask in [0, 2**64), got {mask}")
    out = _LOW[mask & 255]
    mask >>= 8
    for table in _HIGH:
        out += table[mask & 255]
        mask >>= 8
        if not mask:
            return out


@dataclass(frozen=True)
class Graph:
    """An immutable labeled simple graph.

    ``adj[i]`` is the neighbour bitmask of the vertex with internal index
    ``i``; ``labels[i]`` is its label.  Construction validates symmetry and
    the absence of loops; the bitset representation rules out multi-edges.
    """

    labels: tuple
    adj: tuple

    def __post_init__(self):
        n = len(self.labels)
        if n > MAX_VERTICES:
            raise UnsupportedSizeError(f"graphs are limited to {MAX_VERTICES} vertices, got {n}")
        if len(set(self.labels)) != n:
            raise GraphInputError("vertex labels must be unique")
        if len(self.adj) != n:
            raise GraphInputError("adjacency length does not match label count")
        full = (1 << n) - 1
        for i, row in enumerate(self.adj):
            if row & ~full:
                raise GraphInputError(f"adjacency row {i} references vertices outside 0..{n - 1}")
            if row >> i & 1:
                raise GraphInputError(f"self-loop at vertex {self.labels[i]!r}")
        for i in range(n):
            for j in bits(self.adj[i]):
                if not self.adj[j] >> i & 1:
                    raise GraphInputError("adjacency is not symmetric")

    @classmethod
    def _unchecked(cls, labels: tuple, adj: tuple) -> "Graph":
        # Fast path for internally constructed graphs that are valid by
        # construction (induced subgraphs, generators).
        obj = cls.__new__(cls)
        object.__setattr__(obj, "labels", labels)
        object.__setattr__(obj, "adj", adj)
        return obj

    @classmethod
    def from_edges(cls, vertices, edges) -> "Graph":
        """Build a graph from a vertex specification and an edge list.

        ``vertices`` is either an integer ``n`` (labels ``0..n-1``) or an
        iterable of labels.  Edges are pairs of labels.
        """
        if isinstance(vertices, int):
            labels = tuple(range(vertices))
        else:
            labels = tuple(vertices)
        index = {v: i for i, v in enumerate(labels)}
        if len(index) != len(labels):
            raise GraphInputError("vertex labels must be unique")
        adj = [0] * len(labels)
        for u, v in edges:
            if u not in index:
                raise UnknownVertexError(f"unknown vertex {u!r}")
            if v not in index:
                raise UnknownVertexError(f"unknown vertex {v!r}")
            i, j = index[u], index[v]
            if i == j:
                raise GraphInputError(f"self-loop at vertex {u!r}")
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        return cls(labels, tuple(adj))

    @classmethod
    def empty(cls, vertices) -> "Graph":
        if isinstance(vertices, int):
            vertices = range(vertices)
        labels = tuple(vertices)
        return cls(labels, (0,) * len(labels))

    # -- basic accessors ------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def m(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    @property
    def full_mask(self) -> int:
        return (1 << len(self.labels)) - 1

    def index(self, v) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {v!r}") from None

    @property
    def _index(self) -> dict:
        cached = self.__dict__.get("_index_cache")
        if cached is None:
            cached = {v: i for i, v in enumerate(self.labels)}
            self.__dict__["_index_cache"] = cached
        return cached

    def mask_of(self, vertices: Iterable) -> int:
        mask = 0
        for v in vertices:
            mask |= 1 << self.index(v)
        return mask

    def label_set(self, mask: int) -> frozenset:
        return frozenset(self.labels[i] for i in bits(mask))

    def has_vertex(self, v) -> bool:
        return v in self._index

    def has_edge(self, u, v) -> bool:
        return bool(self.adj[self.index(u)] >> self.index(v) & 1)

    def edges(self) -> list:
        out = []
        for i in range(self.n):
            for j in bits(self.adj[i]):
                if j > i:
                    out.append((self.labels[i], self.labels[j]))
        return out

    def degree(self, v) -> int:
        return self.adj[self.index(v)].bit_count()

    def degree_sequence(self) -> tuple:
        return tuple(sorted(row.bit_count() for row in self.adj))

    def neighbors(self, v) -> frozenset:
        return self.label_set(self.adj[self.index(v)])

    def closed_neighborhood(self, v) -> frozenset:
        """N[v] = N(v) together with v itself."""
        i = self.index(v)
        return self.label_set(self.adj[i] | 1 << i)

    def isolated_vertices(self) -> frozenset:
        return frozenset(self.labels[i] for i in range(self.n) if self.adj[i] == 0)

    # -- induced subgraphs ------------------------------------------------

    def keep_mask(self, mask: int) -> "Graph":
        """Induced subgraph on the internal-index set ``mask``."""
        kept = bits(mask)
        pos = {old: new for new, old in enumerate(kept)}
        labels = tuple(self.labels[i] for i in kept)
        adj = []
        for i in kept:
            row = 0
            rem = self.adj[i] & mask
            for j in bits(rem):
                row |= 1 << pos[j]
            adj.append(row)
        return Graph._unchecked(labels, tuple(adj))

    def delete_vertices(self, remove: Iterable) -> "Graph":
        """Induced subgraph after deleting the given labels."""
        mask = self.mask_of(remove)
        return self.keep_mask(self.full_mask & ~mask)

    def punch_closed(self, v) -> "Graph":
        """Delete the closed neighbourhood N[v]."""
        i = self.index(v)
        return self.keep_mask(self.full_mask & ~(self.adj[i] | 1 << i))

    def punch_edge(self, x, y) -> "Graph":
        """Delete N(x) | N(y) for an edge xy (both endpoints go too)."""
        i, j = self.index(x), self.index(y)
        if not self.adj[i] >> j & 1:
            raise NotAnEdgeError(f"{x!r}{y!r} is not an edge")
        return self.keep_mask(self.full_mask & ~(self.adj[i] | self.adj[j]))

    def add_vertex(self, label, neighbors: Iterable) -> "Graph":
        if label in self._index:
            raise GraphInputError(f"duplicate vertex label {label!r}")
        n = self.n
        nbr_mask = self.mask_of(neighbors)
        adj = [row | ((nbr_mask >> i & 1) << n) for i, row in enumerate(self.adj)]
        adj.append(nbr_mask)
        return Graph(self.labels + (label,), tuple(adj))

    def _extend(self, nbr_mask: int) -> "Graph":
        # enumeration fast path: append a new vertex labeled n joined to nbr_mask
        n = self.n
        adj = [row | ((nbr_mask >> i & 1) << n) for i, row in enumerate(self.adj)]
        adj.append(nbr_mask)
        return Graph._unchecked(self.labels + (n,), tuple(adj))

    # -- connectivity ------------------------------------------------------

    def component_masks(self, within: int = -1) -> list:
        """The components of the subgraph induced on the vertex mask
        ``within`` (all of g by default), as masks in order of least vertex."""
        return components(self.adj, self.full_mask & within)

    def induced_components(self, keep: int = -1) -> tuple:
        """The components of the subgraph induced on the vertex mask
        ``keep`` as graphs, each built by one ``keep_mask``: g itself when g
        is connected and keep covers it, nothing when keep is empty."""
        comps = self.component_masks(keep)
        if comps == [self.full_mask]:
            return (self,)
        return tuple(map(self.keep_mask, comps))

    def is_connected(self) -> bool:
        return len(self.component_masks()) <= 1

    # -- structural primitives ---------------------------------------------

    def girth(self) -> GirthValue:
        """Length of a shortest cycle, or INFINITY for forests.

        BFS from every root r in bitmask layers: an edge inside layer d
        closes a cycle of length at most 2d+1, and a vertex of layer d+1
        with two neighbours in layer d one of length at most 2d+2.  Both
        bounds are tight when r lies on a shortest cycle, so the minimum
        over all roots is exact.
        """
        adj, best = self.adj, INFINITY
        for root in range(self.n):
            seen = layer = 1 << root
            d = 0
            while layer and 2 * d + 1 < best:
                reach = twice = 0
                for u in bits(layer):
                    twice |= reach & adj[u]
                    reach |= adj[u]
                if reach & layer:
                    best = 2 * d + 1
                elif twice & ~seen:
                    best = 2 * d + 2
                layer = reach & ~seen
                seen |= layer
                d += 1
        return best

    def pendant_edges(self) -> tuple:
        """All edges incident with a vertex of degree 1."""
        out = []
        for i in range(self.n):
            if self.adj[i].bit_count() == 1:
                j = self.adj[i].bit_length() - 1
                e = (self.labels[min(i, j)], self.labels[max(i, j)])
                if e not in out:
                    out.append(e)
        return tuple(out)

    def is_clique(self, mask: int) -> bool:
        """Whether the internal-index set ``mask`` induces a complete graph."""
        return all(self.adj[a] & mask == mask & ~(1 << a) for a in bits(mask))

    def block_masks(self) -> list:
        """The blocks as internal-index masks (DFS lowpoint algorithm, on an
        explicit stack).

        Isolated vertices form single-vertex blocks so that every vertex
        lies in at least one block; every edge lies in exactly one block.
        """
        adj = self.adj
        depth = [-1] * self.n
        low = [0] * self.n
        block_masks = []
        edge_stack = []
        timer = 0
        for root in range(self.n):
            if depth[root] >= 0:
                continue
            if adj[root] == 0:
                block_masks.append(1 << root)
                continue
            depth[root] = low[root] = timer
            timer += 1
            stack = [[root, -1, adj[root]]]  # [u, its parent, neighbours left]
            while stack:
                frame = stack[-1]
                u, pu, rest = frame
                if rest:
                    b = rest & -rest
                    frame[2] = rest ^ b
                    v = b.bit_length() - 1
                    if depth[v] < 0:
                        edge_stack.append((u, v))
                        depth[v] = low[v] = timer
                        timer += 1
                        stack.append([v, u, adj[v] & ~(1 << u)])
                    elif depth[v] < depth[u]:
                        edge_stack.append((u, v))
                        low[u] = min(low[u], depth[v])
                    continue
                stack.pop()
                if pu >= 0:
                    low[pu] = min(low[pu], low[u])
                    if low[u] >= depth[pu]:
                        comp = 0
                        while True:
                            x, y = edge_stack.pop()
                            comp |= (1 << x) | (1 << y)
                            if (x, y) == (pu, u):
                                break
                        block_masks.append(comp)
        return block_masks

    def blocks(self) -> "BlockDecomposition":
        """Block / cut-vertex decomposition: ``block_masks`` as label sets,
        and the cut vertices, which are the vertices in more than one block."""
        masks = self.block_masks()
        seen = cut = 0
        for mask in masks:
            cut |= seen & mask
            seen |= mask
        return BlockDecomposition(tuple(self.label_set(mask) for mask in masks), self.label_set(cut))

    # -- misc ---------------------------------------------------------------

    def canonical_form(self) -> bytes:
        """Relabeling-invariant byte string; equal iff graphs isomorphic."""
        from . import canon

        return canon.canonical_form(self)

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m}, labels={list(self.labels)!r})"


@dataclass(frozen=True)
class BlockDecomposition:
    blocks: tuple
    cut_vertices: frozenset


def components(adj, within: int) -> list:
    """The components of the graph with rows adj restricted to the vertex
    mask within, as masks in order of their least vertex."""
    comps = []
    while within:
        comp = frontier = within & -within
        while frontier:  # one vertex at a time: the frontier grows while it is read
            b = frontier & -frontier
            new = adj[b.bit_length() - 1] & within & ~comp
            comp |= new
            frontier = (frontier ^ b) | new
        comps.append(comp)
        within &= ~comp
    return comps


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Disjoint union; colliding labels on the right get a ``'`` suffix."""
    taken = set(g.labels)
    rename = {}
    for v in h.labels:
        w = v
        while w in taken:
            w = f"{w}'"
        rename[v] = w
        taken.add(w)
    labels = g.labels + tuple(rename[v] for v in h.labels)
    shift = g.n
    adj = list(g.adj) + [row << shift for row in h.adj]
    return Graph(labels, tuple(adj))


def cycle_graph(k: int) -> Graph:
    if k < 3:
        raise GraphInputError("cycles need at least 3 vertices")
    return Graph.from_edges(k, [(i, (i + 1) % k) for i in range(k)])


def path_graph(k: int) -> Graph:
    if k < 1:
        raise GraphInputError("paths need at least 1 vertex")
    return Graph.from_edges(k, [(i, i + 1) for i in range(k - 1)])


def complete_graph(k: int) -> Graph:
    return Graph.from_edges(k, itertools.combinations(range(k), 2))


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])
