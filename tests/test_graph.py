import math

import pytest
from hypothesis import given, settings, strategies as st

from conftest import graphs, to_nx
import networkx as nx

from graphcm.graph import (
    INFINITY,
    Graph,
    GraphInputError,
    NotAnEdgeError,
    UnknownVertexError,
    UnsupportedSizeError,
    bits,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
)
from graphcm.canon import is_isomorphic
from graphcm.families import gen_G, gen_H


def _shift_loop_bits(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 64).flatmap(lambda width: st.integers(0, (1 << width) - 1)))
def test_bits_matches_a_shift_loop(mask):
    got = bits(mask)
    assert type(got) is tuple and list(got) == _shift_loop_bits(mask)


def test_bits_edge_cases():
    assert bits(0) == ()
    assert bits(255) == tuple(range(8))
    assert bits(256) == (8,)
    assert bits(1 << 63) == (63,)
    assert bits((1 << 64) - 1) == tuple(range(64))


@pytest.mark.parametrize("mask", [-1, 1 << 64])
def test_bits_rejects_masks_outside_a_word(mask):
    with pytest.raises(ValueError):
        bits(mask)


def test_construction_validates():
    with pytest.raises(GraphInputError):
        Graph(("a", "a"), (0, 0))
    with pytest.raises(GraphInputError):
        Graph((0, 1), (0b10, 0b00))  # asymmetric
    with pytest.raises(GraphInputError):
        Graph((0,), (0b1,))  # loop
    with pytest.raises(UnsupportedSizeError):
        Graph.empty(65)


def test_basic_accessors():
    g = Graph.from_edges(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert g.n == 3 and g.m == 2
    assert g.neighbors("b") == {"a", "c"}
    assert g.degree("b") == 2
    assert g.has_edge("a", "b") and not g.has_edge("a", "c")
    with pytest.raises(UnknownVertexError):
        g.index("z")


def test_closed_neighborhood_examples():
    k2 = complete_graph(2)
    assert k2.closed_neighborhood(0) == {0, 1}
    c5 = cycle_graph(5)
    assert len(c5.closed_neighborhood(0)) == 3
    star = complete_bipartite(1, 3)
    assert star.closed_neighborhood(0) == {0, 1, 2, 3}


def test_delete_vertices_examples():
    c5 = cycle_graph(5)
    assert is_isomorphic(c5.delete_vertices([0]), path_graph(4))
    g = gen_G(3)
    assert g.delete_vertices([]) == g
    assert g.delete_vertices(["x8"]).labels == gen_H(3).labels
    assert set(g.delete_vertices(["x8"]).edges()) == set(gen_H(3).edges())


def test_punch_closed_examples():
    c5 = cycle_graph(5)
    assert is_isomorphic(c5.punch_closed(0), complete_graph(2))
    assert is_isomorphic(gen_G(3).punch_closed("x8"), cycle_graph(5))
    assert complete_graph(2).punch_closed(0).n == 0


def test_punch_closed_size_identity():
    g = gen_G(4)
    for v in g.labels:
        assert g.punch_closed(v).n == g.n - len(g.closed_neighborhood(v))


def test_punch_edge_examples():
    g3 = gen_G(3)
    assert is_isomorphic(g3.punch_edge("x1", "x2"), path_graph(4))
    c5 = cycle_graph(5)
    assert c5.punch_edge(0, 1).n == 1
    c4 = cycle_graph(4)
    assert c4.punch_edge(0, 1).n == 0
    with pytest.raises(NotAnEdgeError):
        c5.punch_edge(0, 2)


def test_labels_survive_deletion_chains():
    g = gen_G(3).delete_vertices(["x1"]).delete_vertices(["x5"])
    assert set(g.labels) == {"x2", "x3", "x4", "x6", "x7", "x8"}


def test_girth_examples():
    assert cycle_graph(5).girth() == 5
    assert gen_G(3).girth() == 4
    assert path_graph(4).girth() == INFINITY
    assert complete_graph(2).girth() == INFINITY
    assert Graph.empty(0).girth() == INFINITY
    assert complete_graph(4).girth() == 3


def test_blocks_examples():
    bowtie = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    dec = bowtie.blocks()
    assert len(dec.blocks) == 2 and dec.cut_vertices == {2}
    assert len(cycle_graph(5).blocks().blocks) == 1
    assert not cycle_graph(5).blocks().cut_vertices
    p4 = path_graph(4).blocks()
    assert len(p4.blocks) == 3 and p4.cut_vertices == {1, 2}


def test_pendant_edges_examples():
    assert complete_graph(2).pendant_edges() == ((0, 1),)
    assert cycle_graph(5).pendant_edges() == ()
    assert len(complete_bipartite(1, 3).pendant_edges()) == 3


def test_disjoint_union_label_collisions():
    g = disjoint_union(complete_graph(2), complete_graph(2))
    assert g.n == 4 and g.m == 2
    assert len(set(g.labels)) == 4


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=11))
def test_girth_matches_networkx(g):
    h = to_nx(g)
    try:
        expected = nx.girth(h)
    except Exception:
        expected = math.inf
    got = g.girth()
    assert (got is INFINITY and expected == math.inf) or got == expected


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=7))
def test_forest_iff_infinite_girth(g):
    comps = len(g.component_masks())
    assert (g.girth() is INFINITY) == (g.m == g.n - comps)


def _spread(mask: int, kept: int) -> int:
    """The mask over g's indices of the mask over g.keep_mask(kept)'s."""
    return sum(1 << i for k, i in enumerate(bits(kept)) if mask >> k & 1)


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=8), st.integers(0, 255))
def test_component_masks_on_a_vertex_mask_match_the_induced_subgraph(g, within):
    kept = g.full_mask & within
    h = g.keep_mask(kept)
    assert g.component_masks(within) == [_spread(c, kept) for c in h.component_masks()]
    parts = g.induced_components(within)
    assert [p.labels for p in parts] == [g.keep_mask(c).labels for c in g.component_masks(within)]
    assert all(p.is_connected() and p.adj == g.keep_mask(g.mask_of(p.labels)).adj for p in parts)
    if kept == g.full_mask and len(parts) == 1:
        assert parts[0] is g


@settings(max_examples=60, deadline=None)
@given(graphs(min_n=1, max_n=7))
def test_blocks_partition_edges_and_cut_vertices(g):
    dec = g.blocks()
    # every edge in exactly one block
    total = 0
    for block in dec.blocks:
        sub = g.keep_mask(g.mask_of(block))
        total += sub.m
    assert total == g.m
    # cut vertices are exactly the vertices lying in >= 2 blocks
    counts = {v: 0 for v in g.labels}
    for block in dec.blocks:
        for v in block:
            counts[v] += 1
    assert {v for v, c in counts.items() if c >= 2} == set(dec.cut_vertices)
    assert set(dec.cut_vertices) == set(nx.articulation_points(to_nx(g)))


@settings(max_examples=40, deadline=None)
@given(graphs(min_n=1, max_n=7))
def test_punch_closed_size_property(g):
    for v in g.labels:
        assert g.punch_closed(v).n == g.n - len(g.closed_neighborhood(v))
