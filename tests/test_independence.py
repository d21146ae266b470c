import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from conftest import brute_alpha, brute_independent_sets, brute_maximal_independent_sets, dominated_graphs, graphs, to_nx

from graphcm.graph import Graph, bits, complete_graph, cycle_graph, disjoint_union, path_graph
from graphcm.independence import (
    _dominates,
    _is_shedding,
    _mis_masks,
    independence_number,
    independent_set_report,
    is_w2,
    is_well_covered,
    maximal_independent_sets,
)
from graphcm.families import gen_G, gen_H


def test_maximal_independent_sets_examples():
    c4 = cycle_graph(4)
    assert [sorted(s) for s in maximal_independent_sets(c4)] == [[0, 2], [1, 3]]
    assert sorted(sorted(s) for s in maximal_independent_sets(complete_graph(2))) == [[0], [1]]
    assert list(maximal_independent_sets(Graph.empty(3))) == [frozenset({0, 1, 2})]


def test_alpha_examples():
    assert independence_number(gen_G(4)) == 4
    assert independence_number(complete_graph(2)) == 1
    assert independence_number(cycle_graph(7)) == brute_alpha(cycle_graph(7)) == 3


def test_well_covered_examples():
    assert is_well_covered(cycle_graph(7))
    assert not is_well_covered(path_graph(3))
    assert is_well_covered(cycle_graph(4))
    assert is_well_covered(gen_G(5))
    assert is_well_covered(Graph.empty(0))


def test_w2_examples():
    assert is_w2(cycle_graph(5))
    assert not is_w2(cycle_graph(4))
    assert is_w2(gen_G(3))
    assert not is_w2(complete_graph(1))  # deleting the vertex drops alpha


def test_report_consistency():
    rep = independent_set_report(path_graph(3))
    assert rep.alpha == 2 and rep.min_maximal == 1 and rep.count_maximal == 2
    assert not rep.well_covered


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=7))
def test_stream_matches_brute_force(g):
    ours = [g.mask_of(s) for s in maximal_independent_sets(g)]
    assert ours == brute_maximal_independent_sets(g)


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=7))
def test_alpha_consistency(g):
    a = independence_number(g)
    assert a == brute_alpha(g) if g.n else a == 0
    sizes = [len(s) for s in maximal_independent_sets(g)]
    assert max(sizes) == a
    assert is_well_covered(g) == (min(sizes) == max(sizes))


@settings(max_examples=40, deadline=None)
@given(graphs(min_n=1, max_n=5), graphs(min_n=1, max_n=5))
def test_disjoint_union_additivity(g, h):
    u = disjoint_union(g, h)
    assert independence_number(u) == independence_number(g) + independence_number(h)
    assert is_well_covered(u) == (is_well_covered(g) and is_well_covered(h))


def _brute_is_w2(g):
    """W2 by definition: every maximal independent set of g, and of each g
    minus v, has alpha(g) vertices."""

    def sizes(h):
        return {mask.bit_count() for mask in brute_maximal_independent_sets(h)}

    a = sizes(g)
    return len(a) == 1 and all(sizes(g.delete_vertices([v])) == a for v in g.labels)


def test_w2_matches_definition_on_atlas():
    atlas = [Graph.from_edges(h.number_of_nodes(), list(h.edges())) for h in nx.graph_atlas_g()]
    assert sum(is_w2(g) for g in atlas) > 10
    for g in atlas:
        assert is_w2(g) == _brute_is_w2(g)


@settings(max_examples=60, deadline=None)
@given(graphs(1, 8))
def test_w2_matches_definition(g):
    assert is_w2(g) == _brute_is_w2(g)


@settings(max_examples=60, deadline=None)
@given(dominated_graphs())
def test_dominating_vertices_shed(g):
    # the fast path of the shedding test against the definition, on G - y
    # enumerated from the independent sets of G that miss y
    dominating = [y for y in range(g.n) if _dominates(g.adj, y)]
    assert dominating
    for y in dominating:
        indep = {m for m in brute_independent_sets(g) if not m >> y & 1}
        maximal = [m for m in indep if all(m | 1 << v not in indep for v in range(g.n) if not m >> v & 1)]
        assert all(m & g.adj[y] for m in maximal)
        assert _is_shedding(g, y)


@settings(max_examples=150, deadline=None)
@given(graphs(1, 9))
def test_shedding_on_g_minus_the_closed_neighbourhood_matches_g_minus_v(g):
    # the test reads G - N[v]; the definition reads every maximal
    # independent set of G - v, here by subset enumeration on G - v itself
    for v in range(g.n):
        rest = g.keep_mask(g.full_mask & ~(1 << v))
        near = [u - (u > v) for u in bits(g.adj[v])]  # N(v) in rest's numbering
        sheds = all(any(m >> u & 1 for u in near) for m in brute_maximal_independent_sets(rest))
        assert _is_shedding(g, v) == sheds


# -- past one table byte: graphs on 9 to 24 vertices ----------------------------------


def _random_graph(seed):
    rng = random.Random(seed)
    n = rng.randint(9, 24)
    density = rng.uniform(0.15, 0.6)
    return Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < density])


WIDE = [gen_G(k) for k in range(1, 7)] + [gen_H(k) for k in range(1, 7)] + [_random_graph(s) for s in range(40)]


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=8), st.integers(0, 255))
def test_mis_masks_on_a_vertex_mask_match_the_induced_subgraph(g, within):
    kept = g.full_mask & within
    spread = [sum(1 << i for k, i in enumerate(bits(kept)) if m >> k & 1) for m in _mis_masks(g.keep_mask(kept))]
    assert list(_mis_masks(g, within)) == spread


@pytest.mark.parametrize("g", WIDE, ids=[f"n{g.n}-m{g.m}-{i}" for i, g in enumerate(WIDE)])
def test_mis_masks_match_networkx_past_one_byte(g):
    # maximal independent sets are the maximal cliques of the complement
    complement = nx.complement(to_nx(g))
    theirs = [sum(1 << v for v in clique) for clique in nx.find_cliques(complement)]
    ours = list(_mis_masks(g))
    assert len(ours) == len(set(ours))  # each set exactly once
    assert sorted(ours) == sorted(theirs)
    assert is_well_covered(g) == (len({mask.bit_count() for mask in theirs}) == 1)
    for i in range(g.n):
        rest = complement.subgraph(set(range(g.n)) - {i})
        # an empty graph has one maximal independent set, the empty one
        sheds = all(any(g.adj[i] >> v & 1 for v in clique) for clique in list(nx.find_cliques(rest)) or [[]])
        assert _is_shedding(g, i) == sheds
