import itertools
import random
from dataclasses import replace

from hypothesis import given, settings

from conftest import graphs

from graphcm import complexes, decomposability
from graphcm.canon import canonical_order
from graphcm.complexes import SimplicialComplex, clear_caches, independence_complex, link, delete, is_cm_graph, DEFAULT_FIELDS
from graphcm.decomposability import is_shedding_vertex, is_vertex_decomposable, replay_certificate
from graphcm.graphio import from_graph6
from graphcm.graph import Graph, complete_graph, cycle_graph, disjoint_union, path_graph
from graphcm.families import gen_G, gen_H


def _vd_complex(delta: SimplicialComplex) -> bool:
    """Direct complex-level recursion, used as an oracle for the graph-level
    implementation: a simplex (at most one facet), or a vertex v with both
    the deletion and the link vertex decomposable and no face of the link a
    facet of the deletion."""
    if len(delta.facets) <= 1:
        return True
    for v in sorted(delta.vertices(), key=str):
        dv = delete(delta, [v])
        lk = link(delta, [v])
        if any(face in dv.facets for face in lk.faces()):
            continue
        if _vd_complex(dv) and _vd_complex(lk):
            return True
    return False


def test_shedding_examples():
    assert is_shedding_vertex(complete_graph(2), 0)
    c4 = cycle_graph(4)
    assert all(not is_shedding_vertex(c4, v) for v in c4.labels)
    c5 = cycle_graph(5)
    assert all(is_shedding_vertex(c5, v) for v in c5.labels)


def test_vd_examples():
    assert is_vertex_decomposable(cycle_graph(5))[0]
    assert not is_vertex_decomposable(cycle_graph(4))[0]
    for n in range(1, 7):
        assert is_vertex_decomposable(gen_G(n))[0]
        assert is_vertex_decomposable(gen_H(n))[0]
    assert not is_vertex_decomposable(cycle_graph(7))[0]


def test_vd_union_rule():
    g = disjoint_union(cycle_graph(5), path_graph(4))
    assert is_vertex_decomposable(g)[0]
    bad = disjoint_union(cycle_graph(5), cycle_graph(4))
    assert not is_vertex_decomposable(bad)[0]


def test_certificates_replay():
    for g in (cycle_graph(5), path_graph(4), gen_G(3), complete_graph(4), gen_H(4)):
        ok, cert = is_vertex_decomposable(g, want_certificate=True)
        assert ok and cert is not None
        assert replay_certificate(g, cert)
        assert "shed=" in cert.to_text()
    ok, cert = is_vertex_decomposable(Graph.empty(3), want_certificate=True)
    assert ok and cert.steps == ()


CERT_GRAPHS = (
    cycle_graph(5),
    path_graph(6),
    disjoint_union(cycle_graph(5), path_graph(4)),
    gen_G(4),
    gen_H(4),
    complete_graph(4),
)


def test_certificate_is_the_same_from_a_cold_or_a_warm_table():
    for g in CERT_GRAPHS:
        clear_caches()
        ok, cold = is_vertex_decomposable(g, want_certificate=True)
        clear_caches()
        assert is_vertex_decomposable(g)[0] == ok
        _, warm = is_vertex_decomposable(g, want_certificate=True)
        assert ok and cold.to_text() == warm.to_text()
        assert replay_certificate(g, cold) and replay_certificate(g, warm)


def test_certificate_with_a_non_shedding_step_fails_replay():
    moved = 0
    for g in CERT_GRAPHS:
        _, cert = is_vertex_decomposable(g, want_certificate=True)
        for k, (canon, g6, _shed, _pos) in enumerate(cert.steps):
            h = from_graph6(g6)
            order = canonical_order(h)
            bad = [p for p in range(h.n) if not is_shedding_vertex(h, h.labels[order[p]])]
            if bad:
                steps = list(cert.steps)
                steps[k] = (canon, g6, h.labels[order[bad[0]]], bad[0])
                assert not replay_certificate(g, replace(cert, steps=tuple(steps)))
                moved += 1
    assert moved >= len(CERT_GRAPHS)


def test_certificate_with_a_position_out_of_range_fails_replay():
    g = cycle_graph(5)
    _, cert = is_vertex_decomposable(g, want_certificate=True)
    canon, g6, shed, _pos = cert.steps[0]
    for pos in (-1, g.n):
        assert not replay_certificate(g, replace(cert, steps=((canon, g6, shed, pos),) + cert.steps[1:]))


def test_certificate_rejects_wrong_graph():
    _, cert = is_vertex_decomposable(cycle_graph(5), want_certificate=True)
    assert not replay_certificate(cycle_graph(7), cert)


def test_graph_recursion_equals_complex_definition(small_connected):
    for g in small_connected:
        assert is_vertex_decomposable(g)[0] == _vd_complex(independence_complex(g))


@settings(max_examples=30, deadline=None)
@given(graphs(max_n=6))
def test_graph_recursion_equals_complex_definition_random(g):
    assert is_vertex_decomposable(g)[0] == _vd_complex(independence_complex(g))


@settings(max_examples=30, deadline=None)
@given(graphs(max_n=6))
def test_vd_and_well_covered_imply_cm(g):
    # purity is needed: P3 is vertex decomposable (non-pure) but not CM
    from graphcm.independence import is_well_covered

    if is_vertex_decomposable(g)[0] and is_well_covered(g):
        for field in DEFAULT_FIELDS:
            assert is_cm_graph(g, field.characteristic)


def test_non_pure_vd_example():
    # the non-pure definition makes P3 vertex decomposable even though its
    # complex is not pure, hence not CM
    p3 = path_graph(3)
    assert is_vertex_decomposable(p3)[0]
    assert not is_cm_graph(p3, 0)


# -- the search runs on the class records ------------------------------------------


def _seeded_graphs(count, seed):
    """K0, an edgeless graph, a union with an isolated vertex, then random
    graphs on 1 to 12 vertices, sparse ones often disconnected."""
    rng = random.Random(seed)
    out = [Graph.empty(0), Graph.empty(2), disjoint_union(cycle_graph(5), Graph.empty(1))]
    while len(out) < count:
        n = rng.randint(1, 12)
        p = rng.choice((0.15, 0.3, 0.5))
        out.append(Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p]))
    return out


def test_certificates_replay_after_classify_made_the_records():
    # the CM engine keys each class first, so the search runs on its copies
    from graphcm.recognition import classify

    gs = _seeded_graphs(40, 2101)
    assert any(len(g.component_masks()) > 1 for g in gs) and any(g.n > 1 and g.isolated_vertices() for g in gs)
    for g in gs:
        clear_caches()
        cold = is_vertex_decomposable(g)[0]
        clear_caches()
        classify(g)
        ok, cert = is_vertex_decomposable(g, want_certificate=True)
        assert ok == cold, g
        assert cert is None if not ok else replay_certificate(g, cert), g


def test_cycle_search_tests_shedding_once_per_class(monkeypatch):
    # C_n has one orbit, so its search tries one vertex; for n >= 6 it does
    # not shed, and the search stops there
    calls = []
    shedding = complexes._is_shedding
    monkeypatch.setattr(complexes, "_is_shedding", lambda g, i: calls.append(g.adj) or shedding(g, i))
    for n in range(6, 11):
        clear_caches()
        calls.clear()
        assert not is_vertex_decomposable(cycle_graph(n))[0]
        visited = [rec for rec in complexes._PROFILE_CACHE.values() if rec.shed is not None]
        assert len(calls) <= len(visited), n


def test_certificate_walk_tests_shedding_once_per_class(monkeypatch):
    # a class met again in the walk was decomposed whole at its first visit
    calls = []
    shedding = decomposability._is_shedding
    monkeypatch.setattr(decomposability, "_is_shedding", lambda g, i: calls.append(g.adj) or shedding(g, i))
    for g in (gen_G(5), gen_H(4), cycle_graph(5)):
        clear_caches()
        calls.clear()
        ok, cert = is_vertex_decomposable(g, want_certificate=True)
        written = len(calls)
        calls.clear()
        assert ok and replay_certificate(g, cert)
        assert written == len(calls) == len(cert.steps), g
