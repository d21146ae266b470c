"""Rows near the 64-vertex cap.

A whiskered graph is Cohen-Macaulay over every field (Villarreal) and
vertex decomposable, and each stem dominates its leaf, so Betti numbers,
CM, purity and VD split all the way down.  Its complex is acyclic, so it is
no sphere and not Gorenstein.  G_k and H_k have no dominating vertex, so
their Betti numbers are ranked on the cells of the stars of a maximal
independent set; those rows run in a child process under an address-space
limit, so that a regression to ranking every face stops there and does not
take the machine's memory.  Each check runs on a cold table and must finish
within BOUND_S seconds.
"""

import json
import os
import random
import resource
import subprocess
import sys
import time

import pytest

import graphcm
from graphcm import complexes
from graphcm.complexes import graph_betti, is_cm_graph, is_gorenstein_graph
from graphcm.decomposability import is_vertex_decomposable, replay_certificate
from graphcm.families import whiskered
from graphcm.graph import Graph, path_graph
from graphcm.recognition import classify

BOUND_S = 5.0
CHILD_MEMORY_BYTES = 512 * 1024**2


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


def test_whiskered_p32_is_well_covered_and_not_w2():
    # a stem dominates its leaf and sheds, but no leaf x does: some maximal
    # independent set of G - N[x] holds a base neighbour of x's stem, and
    # so dominates N(x)
    report = _timed(lambda: classify(whiskered(path_graph(32)), (0, 2)))
    assert report.well_covered and not report.w2


# each row of the child's CALLS must come out True
FAMILY_ROWS = ("gen_G(12) Gorenstein char 0", "gen_G(12) Gorenstein char 2", "gen_H(12) CM char 0")

CHILD = """
import json, time
from graphcm.complexes import clear_caches, is_cm_graph, is_gorenstein_graph
from graphcm.families import gen_G, gen_H
CALLS = (
    lambda: is_gorenstein_graph(gen_G(12), 0),
    lambda: is_gorenstein_graph(gen_G(12), 2),
    lambda: is_cm_graph(gen_H(12), 0),
)
out = []
for call in CALLS:
    clear_caches()
    start = time.perf_counter()
    verdict = call()
    out.append([verdict, time.perf_counter() - start])
print(json.dumps(out))
"""


def _limit():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY_BYTES, CHILD_MEMORY_BYTES))


def test_family_rows_at_twelve_run_in_bounded_memory():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(graphcm.__file__)))
    cmd = [sys.executable, "-c", CHILD]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=10 * BOUND_S, preexec_fn=_limit)
    assert done.returncode == 0, done.stderr
    for row, (verdict, seconds) in zip(FAMILY_ROWS, json.loads(done.stdout), strict=True):
        assert verdict is True, row
        assert seconds < BOUND_S, row
