"""Rows at the 64-vertex cap that the split at a dominating vertex settles.

A whiskered graph is Cohen-Macaulay over every field (Villarreal) and
vertex decomposable, and each stem dominates its leaf, so Betti numbers,
CM, purity and VD split all the way down.  Its complex is acyclic, so it is
no sphere and not Gorenstein.  Each check runs on a cold table and must
finish within BOUND_S seconds.
"""

import random
import time

import pytest

from graphcm import complexes
from graphcm.complexes import graph_betti, is_cm_graph, is_gorenstein_graph
from graphcm.decomposability import is_vertex_decomposable, replay_certificate
from graphcm.families import whiskered
from graphcm.graph import Graph, path_graph

BOUND_S = 5.0


def _random_tree(k: int, seed: int) -> Graph:
    rng = random.Random(seed)
    return Graph.from_edges(k, [(rng.randrange(v), v) for v in range(1, k)])


ROWS = [("P16", path_graph(16)), ("P32", path_graph(32))]
ROWS += [(f"tree32-seed{seed}", _random_tree(32, seed)) for seed in (1, 2, 3)]


def _timed(call):
    complexes.clear_caches()
    start = time.perf_counter()
    out = call()
    assert time.perf_counter() - start < BOUND_S
    return out


@pytest.mark.parametrize("base", [g for _, g in ROWS], ids=[name for name, _ in ROWS])
def test_whiskered_graphs_at_the_cap(base):
    g = whiskered(base)
    assert g.n == 2 * base.n <= 64
    assert _timed(lambda: is_cm_graph(g, 0))
    # split at the stem y of any leaf x: G - y leaves x isolated and G - N[y]
    # the leaf of a base neighbour of y, so both complexes are cones and
    # Delta(G) is acyclic; its profile runs to alpha = base.n
    for char in (0, 2):
        assert _timed(lambda: graph_betti(g, char)) == (0,) * (base.n + 1)
        assert not _timed(lambda: is_gorenstein_graph(g, char))
    ok, cert = _timed(lambda: is_vertex_decomposable(g, want_certificate=True))
    assert ok
    assert _timed(lambda: replay_certificate(g, cert))
