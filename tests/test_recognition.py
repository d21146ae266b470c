import dataclasses

import pytest
from hypothesis import given, settings

from conftest import (
    brute_basic_3_cycles,
    brute_basic_4_cycles,
    brute_basic_5_cycles,
    brute_cycles,
    brute_exact_cover,
    brute_simplexes,
    graphs,
    sparse_graphs,
)

from graphcm.complexes import DEFAULT_FIELDS, FieldSpec, is_cm_graph
from graphcm.graph import Graph, INFINITY, PreconditionError, complete_bipartite, complete_graph, cycle_graph, path_graph
from graphcm.independence import independence_number, is_well_covered
from graphcm.families import catalog, gen_G
from graphcm.recognition import (
    basic_3_cycles,
    basic_4_cycles,
    basic_5_cycles,
    cactus_cm_condition,
    classify,
    is_block_cactus,
    is_cactus,
    is_simplicial_graph,
    PcCertificate,
    recognize_pc,
    recognize_sc,
    recognize_sqc,
    simplicial_vertices,
    SqcCertificate,
    square_cm_criterion,
    t3_partition_condition,
    t3_simplicial_condition,
)

BOWTIE = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])


def test_simplicial_vertices_examples():
    assert simplicial_vertices(path_graph(4)) == {0, 3}
    assert simplicial_vertices(cycle_graph(5)) == frozenset()
    assert simplicial_vertices(complete_graph(3)) == {0, 1, 2}
    assert simplicial_vertices(Graph.empty(2)) == {0, 1}  # isolated vertices are simplicial


@pytest.mark.parametrize("name", [lambda i: i, lambda i: f"x{i}"], ids=["int", "str"])
def test_simplex_representative_is_first_in_vertex_order(name):
    # twins 2 and 10 share the simplex {1, 2, 10}; as strings "10" < "2"
    edges = [(1, 2), (1, 10), (2, 10), (0, 1), (0, 3), (0, 4), (4, 5), (4, 6), (6, 7), (6, 8), (8, 9)]
    g = Graph.from_edges([name(i) for i in range(11)], [(name(a), name(b)) for a, b in edges])
    cert = recognize_sqc(g)
    assert cert.validate(g)
    assert (name(2), frozenset(name(i) for i in (1, 2, 10))) in cert.simplexes


def test_is_simplicial_graph_examples():
    assert is_simplicial_graph(complete_graph(3))
    assert not is_simplicial_graph(cycle_graph(5))
    assert is_simplicial_graph(path_graph(4))


def test_basic_5_cycles_examples():
    assert len(basic_5_cycles(cycle_graph(5))) == 1
    chord = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    assert basic_5_cycles(chord) == []
    assert len(basic_5_cycles(gen_G(2))) == 1


# a 4-cycle a-b-c-d with pendants on c and d: the pendants are simplicial,
# their simplexes absorb c and d, and (a, b) is an adjacent degree-2 pair
Q_GRAPH = Graph.from_edges(
    ["a", "b", "c", "d", "p", "q"],
    [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("c", "p"), ("d", "q")],
)


# string labels listed out of order: a basic 5-cycle e-d-c-b-a, a basic
# 4-cycle x-y-a-s whose a lies on it and s in the simplex {s, t}
NAMED = Graph.from_edges(list("edcbayxst"), [tuple(e) for e in "ab bc cd de ea xy ya as sx st".split()])


def test_basic_4_cycles_examples():
    assert basic_4_cycles(cycle_graph(4)) == []
    found = basic_4_cycles(Q_GRAPH)
    assert len(found) == 1 and set(found[0][1]) == {"a", "b"}
    # the only 4-cycle of gen_G(3) has all degrees 3, so it is not basic
    assert basic_4_cycles(gen_G(3)) == []
    assert basic_4_cycles(complete_graph(2)) == []


def test_basic_3_cycles_examples():
    assert len(basic_3_cycles(complete_graph(3))) == 1
    assert basic_3_cycles(complete_graph(4)) == []
    assert len(basic_3_cycles(catalog("paw"))) == 1


def test_recognize_sqc_examples():
    cert = recognize_sqc(cycle_graph(5))
    assert cert is not None and (cert.m, cert.s, cert.t) == (0, 1, 0)
    assert cert.validate(cycle_graph(5))
    assert recognize_sqc(cycle_graph(4)) is None
    cert_p4 = recognize_sqc(path_graph(4))
    assert cert_p4 is not None and (cert_p4.m, cert_p4.s, cert_p4.t) == (2, 0, 0)
    assert cert_p4.validate(path_graph(4))


def test_recognize_sqc_uses_four_cycles():
    cert = recognize_sqc(Q_GRAPH)
    assert cert is not None and (cert.m, cert.s, cert.t) == (2, 0, 1)
    assert cert.validate(Q_GRAPH)
    assert independence_number(Q_GRAPH) == cert.m + 2 * cert.s + cert.t
    # gen_G(3) has no simplicial vertices, no basic 5-cycles and no basic
    # 4-cycles, so it lies outside SQC even though it is CM
    assert recognize_sqc(gen_G(3)) is None


def test_recognize_sc_examples():
    assert recognize_sc(cycle_graph(5)) is not None
    assert recognize_sc(gen_G(3)) is None
    assert recognize_sc(Q_GRAPH) is None  # needs the 4-cycle pair
    cert = recognize_sc(complete_graph(2))
    assert isinstance(cert, SqcCertificate) and (cert.m, cert.s, cert.t) == (1, 0, 0)
    assert cert.validate(complete_graph(2))


def test_recognize_pc_examples():
    cert = recognize_pc(complete_graph(2))
    assert cert is not None and len(cert.pendant_matching) == 1
    assert cert.validate(complete_graph(2))
    c5 = recognize_pc(cycle_graph(5))
    assert c5 is not None and len(c5.basic5_partition) == 1
    assert c5.validate(cycle_graph(5))
    assert recognize_pc(cycle_graph(7)) is None


def test_sqc_validate_rejects_tampered_certificates():
    cert = recognize_sqc(NAMED)
    assert cert.validate(NAMED) and (cert.m, cert.s, cert.t) == (1, 1, 1)
    simplex = cert.simplexes[0]
    assert simplex == ("t", frozenset("st"))
    tampered = [
        (NAMED, dataclasses.replace(cert, simplexes=(simplex, simplex))),  # overlapping pieces
        (NAMED, dataclasses.replace(cert, four_cycles=())),  # x and y left out
        (NAMED, dataclasses.replace(cert, simplexes=(("s", frozenset("st")),))),  # s is not simplicial
        # 0 is simplicial, but its simplex is {0, 1}
        (path_graph(4), SqcCertificate(((0, frozenset({0})), (3, frozenset({1, 2, 3}))), (), ())),
        (path_graph(5), SqcCertificate((), ((0, 1, 2, 3, 4),), ())),  # not a cycle
        # C4 has no basic 4-cycle: its other two vertices lie in no piece
        (cycle_graph(4), SqcCertificate((), (), (((0, 1, 2, 3), (0, 1)), ((0, 1, 2, 3), (2, 3))))),
    ]
    for g, bad in tampered:
        assert not bad.validate(g), bad


def test_pc_validate_rejects_tampered_certificates():
    # C5 with a pendant path on 0 and one on 2: 0 and 2 are not adjacent,
    # so the 5-cycle stays basic
    g = Graph.from_edges(9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (5, 6), (2, 7), (7, 8)])
    cert = recognize_pc(g)
    assert cert.validate(g)
    assert cert.pendant_matching == ((5, 6), (7, 8)) and cert.basic5_partition == ((0, 1, 2, 3, 4),)
    c5 = cert.basic5_partition[0]
    tampered = [
        dataclasses.replace(cert, pendant_matching=((5, 6), (2, 7))),  # 2-7 is not pendant
        dataclasses.replace(cert, pendant_matching=((5, 6), (7, 8), (8, 7))),  # repeated edge
        dataclasses.replace(cert, pendant_matching=((5, 6),)),  # 7-8 missing
        dataclasses.replace(cert, basic5_partition=((0, 1, 2, 3, 5),)),  # not a basic 5-cycle
        dataclasses.replace(cert, basic5_partition=(c5, c5[::-1])),  # overlapping cycles
        dataclasses.replace(cert, basic5_partition=()),  # the cycle left uncovered
    ]
    for bad in tampered:
        assert not bad.validate(g), bad
    # pendant edges that meet match nothing perfectly
    star = complete_bipartite(1, 3)
    assert recognize_pc(star) is None
    assert not PcCertificate(star.pendant_edges(), ()).validate(star)


def test_pc_subset_of_sqc(small_connected):
    for g in small_connected:
        if recognize_pc(g) is not None:
            assert recognize_sqc(g) is not None
        if recognize_sc(g) is not None:
            assert recognize_sqc(g) is not None


@settings(max_examples=40, deadline=None)
@given(graphs(min_n=1, max_n=6))
def test_sqc_matches_brute_force_cover(g):
    assert (recognize_sqc(g) is not None) == _oracle_classes(g)[0]


def test_t3_examples():
    assert t3_partition_condition(complete_graph(3))
    assert not t3_partition_condition(cycle_graph(7))
    assert not t3_partition_condition(complete_graph(5))
    assert not t3_simplicial_condition(complete_graph(5))
    assert t3_simplicial_condition(complete_graph(3))
    # the empty graph: no vertex to cover, so both conditions hold
    assert t3_partition_condition(Graph.empty(0)) and t3_simplicial_condition(Graph.empty(0))


def test_block_cactus_and_cactus_examples():
    assert is_block_cactus(BOWTIE) and is_cactus(BOWTIE)
    assert is_block_cactus(complete_graph(4)) and not is_cactus(complete_graph(4))
    chorded = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    assert not is_block_cactus(chorded) and not is_cactus(chorded)
    assert is_cactus(complete_graph(1))
    assert not is_cactus(Graph.empty(2))  # disconnected


def test_cactus_cm_condition_examples():
    assert cactus_cm_condition(cycle_graph(5))
    assert not cactus_cm_condition(cycle_graph(4))
    paw = catalog("paw")
    assert cactus_cm_condition(paw) == all(is_cm_graph(paw, f.characteristic) for f in DEFAULT_FIELDS)
    with pytest.raises(PreconditionError):
        cactus_cm_condition(complete_graph(4))


def test_square_cm_examples():
    assert square_cm_criterion(complete_graph(2), FieldSpec(0))
    assert square_cm_criterion(cycle_graph(5), FieldSpec(0))
    assert not square_cm_criterion(cycle_graph(4), FieldSpec(0))
    with pytest.raises(PreconditionError):
        square_cm_criterion(complete_graph(3), FieldSpec(0))


def test_classify_reports():
    rep = classify(cycle_graph(5))
    assert rep.well_covered and rep.vertex_decomposable and rep.sqc is not None
    assert all(rep.cm.values()) and all(rep.gorenstein.values())
    text = rep.to_text()
    assert "gorenstein[char0]: true" in text and "girth: 5" in text

    rep7 = classify(cycle_graph(7))
    assert rep7.well_covered and not any(rep7.cm.values()) and rep7.pc is None

    rep3 = classify(gen_G(3))
    assert rep3.w2 and all(rep3.gorenstein.values()) and rep3.girth == 4 and rep3.planar

    repk3 = classify(complete_graph(3))
    assert repk3.square_cm == {0: None, 2: None}
    assert "n/a" in repk3.to_text()


def test_certificates_render():
    assert "S[" in recognize_sqc(path_graph(4)).to_text()
    assert "C5=" in recognize_pc(cycle_graph(5)).to_text()


# -- basic cycles and partition classes against the brute-force oracles ------


def _atlas():
    import networkx as nx

    return [Graph.from_edges(h.number_of_nodes(), list(h.edges())) for h in nx.graph_atlas_g()]


def _assert_basic_cycles_match(g):
    assert basic_5_cycles(g) == brute_basic_5_cycles(g)
    assert basic_4_cycles(g) == brute_basic_4_cycles(g)
    assert basic_3_cycles(g) == brute_basic_3_cycles(g)


def test_basic_cycles_match_oracle_on_atlas():
    from graphcm.recognition import _has_cycle_of_length

    for g in _atlas():
        _assert_basic_cycles_match(g)
        for length in (3, 4, 5):
            assert _has_cycle_of_length(g, length) == bool(brute_cycles(g, length))


@settings(max_examples=40, deadline=None)
@given(graphs(min_n=1, max_n=12))
def test_basic_cycles_match_oracle(g):
    _assert_basic_cycles_match(g)


@settings(max_examples=60, deadline=None)
@given(sparse_graphs(min_n=1, max_n=12))
def test_basic_cycles_match_oracle_sparse(g):
    _assert_basic_cycles_match(g)


def test_basic_cycles_edge_cases():
    # paw: the triangle's two degree-2 vertices share their other
    # neighbour, so their edge closes no 4- or 5-cycle
    paw = catalog("paw")
    assert basic_4_cycles(paw) == [] and basic_5_cycles(paw) == []
    _assert_basic_cycles_match(paw)
    # C4: every edge is a degree-2 pair; none qualifies in C4 itself, and
    # with every vertex allowed all four do, in the order of k
    from graphcm.recognition import _four_cycles

    c4 = cycle_graph(4)
    _assert_basic_cycles_match(c4)
    all_four = _four_cycles(c4.adj, c4.full_mask)
    assert all_four == brute_basic_4_cycles(c4, allowed=c4.full_mask)
    assert [pair for _cyc, pair in all_four] == [(0, 1), (1, 2), (2, 3), (3, 0)]
    k2 = complete_graph(2)
    _assert_basic_cycles_match(k2)
    # string labels: cycles come in index order, not label order
    named = NAMED
    assert basic_5_cycles(named) == [("e", "d", "c", "b", "a")]
    assert basic_4_cycles(named) == [(("a", "y", "x", "s"), ("y", "x"))]
    _assert_basic_cycles_match(named)
    cert = recognize_sqc(named)
    assert (cert.m, cert.s, cert.t) == (1, 1, 1) and cert.validate(named)
    _assert_basic_cycles_match(Q_GRAPH)


def _oracle_classes(g):
    """SQC, SC and PC membership from the oracle's pieces."""
    simplexes = brute_simplexes(g)
    fives = [g.mask_of(c) for c in brute_basic_5_cycles(g)]
    pairs = [g.mask_of(pair) for _cyc, pair in brute_basic_4_cycles(g)]
    sqc = brute_exact_cover(g.full_mask, simplexes + fives + pairs)
    sc = brute_exact_cover(g.full_mask, simplexes + fives)
    pendant = [
        1 << u | 1 << v
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if g.adj[u] >> v & 1 and 1 in (g.adj[u].bit_count(), g.adj[v].bit_count())
    ]
    p_mask = c_mask = 0
    for m in pendant:
        p_mask |= m
    for m in fives:
        c_mask |= m
    # every pendant edge is in the matching, so they must be disjoint
    pc = (
        sum(m.bit_count() for m in pendant) == p_mask.bit_count()
        and p_mask & c_mask == 0
        and p_mask | c_mask == g.full_mask
        and brute_exact_cover(c_mask, fives)
    )
    return sqc, sc, pc


def _assert_classes_match(g):
    want = _oracle_classes(g)
    for rec, expected in zip((recognize_sqc, recognize_sc, recognize_pc), want):
        cert = rec(g)
        assert (cert is not None) == expected, rec.__name__
        if cert is not None:
            assert cert.validate(g), rec.__name__


def test_partition_classes_match_oracle_on_atlas():
    for g in _atlas():
        _assert_classes_match(g)


@settings(max_examples=60, deadline=None)
@given(sparse_graphs(min_n=1, max_n=10))
def test_partition_classes_match_oracle(g):
    _assert_classes_match(g)


def test_basic_5_cycles_listed_once_per_call(monkeypatch):
    import graphcm.recognition as rec

    calls = []
    real = rec._five_cycles
    monkeypatch.setattr(rec, "_five_cycles", lambda adj: calls.append(adj) or real(adj))
    c5 = cycle_graph(5)
    sqc, pc = recognize_sqc(c5), recognize_pc(c5)
    for step in (lambda: recognize_sqc(Q_GRAPH), lambda: sqc.validate(c5), lambda: pc.validate(c5)):
        calls.clear()
        step()
        assert len(calls) == 1
