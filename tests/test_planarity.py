import time

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs, to_nx

from graphcm.graph import Graph, complete_bipartite, complete_graph, cycle_graph
from graphcm.planarity import is_planar
from graphcm.families import gen_G, catalog


def _from_nx(h):
    h = nx.convert_node_labels_to_integers(h)
    return Graph.from_edges(h.number_of_nodes(), list(h.edges()))


def _glued(a, b):
    """a and b sharing one vertex: a's last vertex is b's first."""
    shift = a.n - 1
    return Graph.from_edges(a.n + b.n - 1, a.edges() + [(u + shift, v + shift) for u, v in b.edges()])


NAMED = {
    "icosahedron": (lambda: _from_nx(nx.icosahedral_graph()), True),
    "dodecahedron": (lambda: _from_nx(nx.dodecahedral_graph()), True),
    "petersen": (lambda: _from_nx(nx.petersen_graph()), False),
    "K5": (lambda: complete_graph(5), False),
    "K33": (lambda: complete_bipartite(3, 3), False),
    "two K5 at a cut vertex": (lambda: _glued(complete_graph(5), complete_graph(5)), False),
    "two icosahedra at a cut vertex": (
        lambda: _glued(_from_nx(nx.icosahedral_graph()), _from_nx(nx.icosahedral_graph())),
        True,
    ),
}


def test_kuratowski_examples():
    assert not is_planar(complete_graph(5))
    assert not is_planar(complete_bipartite(3, 3))
    assert is_planar(gen_G(3))


def test_subdivided_kuratowski_graphs():
    # subdivide one edge of K5: still nonplanar
    k5 = complete_graph(5)
    edges = [e for e in k5.edges() if e != (0, 1)] + [(0, 5), (5, 1)]
    assert not is_planar(Graph.from_edges(6, edges))
    # K33 plus an apex vertex of degree 1
    k33 = complete_bipartite(3, 3)
    assert not is_planar(k33.add_vertex(6, [0]))


def test_planar_classics():
    assert is_planar(complete_graph(4))
    assert is_planar(cycle_graph(8))
    assert is_planar(catalog("T10"))
    # the octahedron is planar and 4-regular
    octa = Graph.from_edges(6, [(i, j) for i in range(6) for j in range(i + 1, 6) if j != i + 3 or i >= 3])
    assert is_planar(octa)


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_cases_fast(name):
    make, planar = NAMED[name]
    assert nx.check_planarity(to_nx(make()))[0] == planar
    best = float("inf")
    for _ in range(3):
        g = make()  # fresh graph: no cached blocks or index
        start = time.perf_counter()
        assert is_planar(g) == planar
        best = min(best, time.perf_counter() - start)
    assert best < 0.010


def test_no_size_cap():
    assert is_planar(Graph.empty(13))
    assert is_planar(Graph.empty(64))
    for k in range(1, 22):  # gen_G(21) has 62 vertices
        assert is_planar(gen_G(k)), k


def test_edge_bound_agreement():
    # any graph violating the Euler bound must be reported nonplanar
    for n in (5, 6, 7):
        g = complete_graph(n)
        assert not is_planar(g)


def test_matches_networkx_on_atlas():
    for h in nx.graph_atlas_g():
        g = Graph.from_edges(h.number_of_nodes(), list(h.edges()))
        assert is_planar(g) == nx.check_planarity(h)[0], list(h.edges())


@st.composite
def sparse_graphs(draw, min_n=5, max_n=30):
    """Graphs with n <= m <= 3n - 6, the range the Euler bound leaves open."""
    n = draw(st.integers(min_n, max_n))
    pairs = [(i, j) for j in range(n) for i in range(j)]
    m = draw(st.integers(n, 3 * n - 6))
    return Graph.from_edges(n, draw(st.lists(st.sampled_from(pairs), min_size=m, max_size=m, unique=True)))


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=30))
def test_matches_networkx(g):
    assert is_planar(g) == nx.check_planarity(to_nx(g))[0]


@settings(max_examples=150, deadline=None)
@given(sparse_graphs())
def test_matches_networkx_sparse(g):
    assert is_planar(g) == nx.check_planarity(to_nx(g))[0]
