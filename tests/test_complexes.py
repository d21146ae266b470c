import dataclasses
import functools
import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_alpha,
    brute_maximal_independent_sets,
    brute_reduced_betti,
    dominated_graphs,
    graphs,
    to_nx,
)

from graphcm import complexes, linalg
from graphcm.complexes import (
    DEFAULT_FIELDS,
    FieldSpec,
    SimplicialComplex,
    betti_profile,
    cone_points,
    core,
    delete,
    edge_punches_cm,
    graph_betti,
    independence_complex,
    is_cm,
    is_cm_graph,
    is_doubly_cm,
    is_doubly_cm_graph,
    is_gorenstein_graph,
    link,
    parse_fields,
)
from graphcm.graph import Graph, GraphInputError, complete_bipartite, complete_graph, cycle_graph, path_graph
from graphcm.independence import independence_number, is_w2, is_well_covered
from graphcm.families import gen_G, gen_H


def test_field_spec_validation():
    FieldSpec(0), FieldSpec(2), FieldSpec(5)
    with pytest.raises(GraphInputError):
        FieldSpec(4)
    with pytest.raises(GraphInputError):
        FieldSpec(-1)
    assert [f.characteristic for f in parse_fields("0,2,3")] == [0, 2, 3]
    with pytest.raises(GraphInputError):
        parse_fields("0,banana")
    # large characteristics are decided at once, not by trial division
    FieldSpec(10**15 + 37)
    assert parse_fields("0,1000000000000000003")[1].characteristic == 10**18 + 3
    with pytest.raises(GraphInputError):
        FieldSpec((10**9 + 7) * (10**9 + 9))
    with pytest.raises(GraphInputError):
        FieldSpec(3215031751)  # strong pseudoprime to the bases 2, 3, 5, 7
    with pytest.raises(GraphInputError):
        FieldSpec(10**25 + 13)  # beyond the deterministic Miller-Rabin range


def _entry_points(g):
    """Every homology entry point, at the graph and at the complex level."""
    from graphcm.recognition import square_cm_criterion

    delta = independence_complex(g)
    calls = [graph_betti, is_cm_graph, is_gorenstein_graph, is_doubly_cm_graph, edge_punches_cm, square_cm_criterion]
    return [functools.partial(f, g) for f in calls] + [
        lambda field: betti_profile(delta, field).betti,
        functools.partial(is_cm, delta),
        functools.partial(is_doubly_cm, delta),
    ]


@pytest.mark.parametrize("char", [1, 4, 9, -3, 10**25 + 13])
def test_every_entry_point_rejects_what_field_spec_rejects(char):
    with pytest.raises(GraphInputError):
        FieldSpec(char)
    for g in (cycle_graph(4), Graph.empty(0)):
        for call in _entry_points(g):
            with pytest.raises(GraphInputError):
                call(char)


def test_an_int_and_its_field_spec_agree_at_every_entry_point():
    for g in (cycle_graph(4), cycle_graph(5), path_graph(3), complete_bipartite(2, 3), Graph.empty(0)):
        for char in (0, 2, 3):
            complexes.clear_caches()
            by_int = [call(char) for call in _entry_points(g)]
            complexes.clear_caches()
            assert [call(FieldSpec(char)) for call in _entry_points(g)] == by_int, (g, char)


def test_is_prime_matches_sieve():
    n = 20000
    sieve = [False, False] + [True] * (n - 2)
    for p in range(2, n):
        if sieve[p]:
            for q in range(p * p, n, p):
                sieve[q] = False
    assert [linalg._is_prime(k) for k in range(n)] == sieve


def test_complex_normalisation_and_void():
    delta = SimplicialComplex(("a", "b", "c"), (frozenset("ab"), frozenset("a"), frozenset("ab")))
    assert delta.facets == (frozenset("ab"),)
    void = SimplicialComplex((), ())
    assert void.is_void() and void.dim is None and void.f_vector() == ()
    empty = SimplicialComplex((), (frozenset(),))
    assert not empty.is_void() and empty.dim == -1


def test_independence_complex_examples():
    d = independence_complex(cycle_graph(5))
    assert {frozenset(s) for s in d.facets} == {frozenset({i, (i + 2) % 5}) for i in range(5)}
    assert d.dim == independence_number(cycle_graph(5)) - 1
    d2 = independence_complex(complete_graph(2))
    assert {frozenset(s) for s in d2.facets} == {frozenset({0}), frozenset({1})}
    d4 = independence_complex(cycle_graph(4))
    assert {frozenset(s) for s in d4.facets} == {frozenset({0, 2}), frozenset({1, 3})}


def test_link_examples():
    d5 = independence_complex(cycle_graph(5))
    lk = link(d5, {0})
    assert set(lk.facets) == {frozenset({2}), frozenset({3})}
    assert link(d5, frozenset()).facets == d5.facets
    simplex = SimplicialComplex(("a", "b", "c"), (frozenset("abc"),))
    assert link(simplex, {"a"}).facets == (frozenset("bc"),)
    with pytest.raises(GraphInputError):
        link(d5, {0, 1})


def test_delete_examples():
    g = cycle_graph(5)
    d = independence_complex(g)
    assert delete(d, {0}).facets == independence_complex(g.delete_vertices([0])).facets
    assert delete(d, set()).facets == d.facets
    two_edges = SimplicialComplex((0, 1, 2, 3), (frozenset({0, 2}), frozenset({1, 3})))
    left = delete(two_edges, {0})
    assert set(left.facets) == {frozenset({2}), frozenset({1, 3})}


def test_core_examples():
    d5 = independence_complex(cycle_graph(5))
    assert core(d5).facets == d5.facets
    simplex = SimplicialComplex(("a", "b"), (frozenset("ab"),))
    assert cone_points(simplex) == {"a", "b"}
    assert core(simplex).facets == (frozenset(),)
    d4 = independence_complex(cycle_graph(4))
    assert core(d4).facets == d4.facets


def test_betti_examples_against_definition():
    d5 = independence_complex(cycle_graph(5))
    prof = betti_profile(d5, FieldSpec(0))
    assert prof.betti_number(0) == 0 and prof.betti_number(1) == 1
    d4 = independence_complex(cycle_graph(4))
    prof4 = betti_profile(d4, FieldSpec(0))
    assert prof4.betti_number(0) == 1 and prof4.betti_number(1) == 0
    simplex = SimplicialComplex((0, 1, 2), (frozenset({0, 1, 2}),))
    assert all(b == 0 for b in betti_profile(simplex, FieldSpec(0)).betti)
    # brute-force cross-check straight from the faces
    for g in (cycle_graph(5), cycle_graph(4), path_graph(4), cycle_graph(7)):
        d = independence_complex(g)
        faces = d.faces()
        for char in (0, 2, 3):
            idx_faces = [frozenset(g.index(v) for v in f) for f in faces]
            assert graph_betti(g, char) == brute_reduced_betti(idx_faces, char)


def test_euler_identity_all_small_graphs(small_connected):
    for g in small_connected:
        d = independence_complex(g)
        fv = d.f_vector()
        euler_faces = sum((-1) ** (c - 1) * fv[c] for c in range(len(fv)))
        for field in DEFAULT_FIELDS:
            betti = graph_betti(g, field.characteristic)
            euler_betti = sum((-1) ** (c - 1) * betti[c] for c in range(len(betti)))
            assert euler_betti == euler_faces


def test_is_cm_examples():
    assert not is_cm(independence_complex(cycle_graph(4)), FieldSpec(0))
    assert not is_cm(independence_complex(cycle_graph(7)), FieldSpec(0))
    assert is_cm(independence_complex(cycle_graph(5)), FieldSpec(0))
    assert is_cm_graph(path_graph(4), 0) and is_cm_graph(path_graph(4), 2)
    assert is_cm_graph(complete_graph(5), 0)


def test_is_cm_generic_complex_path():
    # the same complexes read back from facet lists, with string vertices
    from graphcm.complexes import from_facet_list, to_facet_list

    assert is_cm(from_facet_list(to_facet_list(independence_complex(cycle_graph(5)))), FieldSpec(0))
    assert not is_cm(from_facet_list(to_facet_list(independence_complex(cycle_graph(4)))), FieldSpec(0))
    assert is_cm(SimplicialComplex((), ()), FieldSpec(0))  # void


def test_complex_functions_work_face_by_face(monkeypatch):
    # a complex carries no graph, so the complex-level functions stay
    # independent of the class table they are oracles for
    def refuse(*args):
        raise AssertionError("a complex-level function reached the class table")

    monkeypatch.setattr(complexes, "_class_of", refuse)
    monkeypatch.setattr(complexes, "is_cm_graph", refuse)
    monkeypatch.setattr(complexes, "graph_betti", refuse)
    assert [f.name for f in dataclasses.fields(SimplicialComplex)] == ["universe", "facets"]
    d7 = independence_complex(cycle_graph(7))
    assert not is_cm(d7, FieldSpec(0)) and not is_doubly_cm(d7, FieldSpec(2))
    assert betti_profile(d7, FieldSpec(0)).betti == (0, 0, 1, 0)  # a circle (Kozlov)
    d5 = independence_complex(cycle_graph(5))
    assert is_cm(link(d5, {0}), FieldSpec(2)) and is_cm(delete(d5, {0}), FieldSpec(0))


def test_is_doubly_cm_examples():
    assert is_doubly_cm(independence_complex(cycle_graph(5)), FieldSpec(0))
    assert is_doubly_cm(independence_complex(complete_graph(2)), FieldSpec(0))
    assert not is_doubly_cm(independence_complex(path_graph(3)), FieldSpec(0))
    assert is_doubly_cm_graph(cycle_graph(5), 0)


def test_gorenstein_examples():
    for name_graph in (complete_graph(1), complete_graph(2), cycle_graph(5)):
        assert is_gorenstein_graph(name_graph, FieldSpec(0))
        assert is_gorenstein_graph(name_graph, FieldSpec(2))
    assert is_gorenstein_graph(gen_G(3), FieldSpec(0))
    assert not is_gorenstein_graph(cycle_graph(4), FieldSpec(0))
    assert not is_gorenstein_graph(path_graph(4), FieldSpec(0))  # CM but not Gorenstein


def test_gorenstein_ignores_isolated_vertices():
    from graphcm.graph import disjoint_union

    g = disjoint_union(complete_graph(2), Graph.empty(1))
    assert is_gorenstein_graph(g, FieldSpec(0))


def test_structural_identities(small_connected):
    for g in small_connected:
        d = independence_complex(g)
        for v in g.labels:
            assert delete(d, {v}).facets == independence_complex(g.delete_vertices([v])).facets
            assert link(d, {v}).facets == independence_complex(g.punch_closed(v)).facets


@settings(max_examples=40, deadline=None)
@given(graphs(min_n=2, max_n=6))
def test_link_delete_commute(g):
    d = independence_complex(g)
    v = g.labels[0]
    u = {g.labels[-1]}
    if v in u or not d.has_face({v}):
        return
    left = delete(link(d, {v}), u)
    right_complex = delete(d, u)
    if not right_complex.has_face({v}):
        return
    right = link(right_complex, {v})
    assert left.facets == right.facets


@settings(max_examples=25, deadline=None)
@given(graphs(max_n=6))
def test_betti_match_brute_force(g):
    faces = [frozenset(g.index(v) for v in f) for f in independence_complex(g).faces()]
    for char in (0, 2):
        assert graph_betti(g, char) == brute_reduced_betti(faces, char)


@st.composite
def _least_degree_shapes(draw):
    """Graphs with n <= 10.  Most get one or two vertices added to a random
    base graph, so that the least-degree vertex the relative complex is
    taken at is often a leaf, lies in a triangle, or ties with another."""
    shape = draw(st.sampled_from(("random", "leaf", "triangle", "tie")))
    if shape == "random":
        return draw(graphs(max_n=10))
    base = draw(graphs(min_n=2, max_n=8))
    n = base.n
    edges = base.edges()
    x = draw(st.integers(0, n - 1))
    y = draw(st.integers(0, n - 2))
    y += y >= x
    if shape == "leaf":
        return Graph.from_edges(n + 1, edges + [(x, n)])
    if shape == "triangle":
        return Graph.from_edges(n + 1, list(set(edges) | {(min(x, y), max(x, y))}) + [(x, n), (y, n)])
    return Graph.from_edges(n + 2, edges + [(x, n), (y, n + 1)])


@settings(max_examples=60, deadline=None)
@given(_least_degree_shapes())
def test_relative_complex_betti_match_all_faces(g):
    # the relative complex of one vertex gives the Betti numbers of the
    # whole face list, over every field
    faces = [frozenset(g.index(v) for v in f) for f in independence_complex(g).faces()]
    for char in (0, 2, 3):
        complexes.clear_caches()
        want = brute_reduced_betti(faces, char)
        assert graph_betti(g, char) == want
        # graph_betti splits the classes with a leaf; rank g's own cells too
        assert g.n == 0 or complexes._profile_from_cards(complexes._relative_cells(g), char) == want


def _squares_to_zero(g) -> bool:
    """d_{c-1} d_c = 0 over Z on the signed boundary maps of g's relative
    complex, which a sign that ignored the dropped terms' places breaks."""
    cells = complexes._relative_cells(g)
    maps = [list(complexes._signed(complexes._boundary_columns(cells[c - 1], cells[c]))) for c in range(1, len(cells))]
    for lower, upper in zip(maps, maps[1:]):
        for col in upper:
            image = Counter()
            for i, x in col.items():
                for j, y in lower[i].items():
                    image[j] += x * y
            if any(image.values()):
                return False
    return True


@settings(max_examples=60, deadline=None)
@given(_least_degree_shapes())
def test_relative_boundary_squares_to_zero(g):
    assert g.n == 0 or _squares_to_zero(g)


def test_relative_boundary_of_the_families_squares_to_zero():
    for g in (gen_G(3), gen_G(4), gen_H(4), _sd_rp2_graph()):
        assert _squares_to_zero(g)


def test_relative_complex_ranks_fewer_cells_than_faces(monkeypatch):
    cells = []
    relative_cells = complexes._relative_cells
    monkeypatch.setattr(complexes, "_relative_cells", lambda *args: cells.append(out := relative_cells(*args)) or out)
    complexes.clear_caches()
    g = gen_G(5)
    graph_betti(g, 2)
    assert len(cells) == 1
    assert sum(map(len, cells[0])) < len(independence_complex(g).faces())
    # the profile still runs to the top cardinality, alpha(G5) = 5
    assert len(cells[0]) == independence_number(g) + 1 and cells[0][0] == []


# -- the split at a dominating vertex ---------------------------------------------


@settings(max_examples=100, deadline=None)
@given(dominated_graphs())
def test_split_betti_and_alpha_match_all_faces(g):
    faces = [frozenset(g.index(v) for v in f) for f in independence_complex(g).faces()]
    complexes.clear_caches()
    parts = complexes._parts(g)
    assert any(complexes._dom(p) >= 0 for p in parts)
    # alpha first, so it comes from the split and not from a profile's length
    assert sum(map(complexes._alpha, parts)) == brute_alpha(g)
    for char in (0, 2, 3):
        assert graph_betti(g, char) == brute_reduced_betti(faces, char)


@settings(max_examples=100, deadline=None)
@given(dominated_graphs())
def test_split_cm_matches_reisner_face_by_face(g):
    bare = independence_complex(g)
    complexes.clear_caches()
    for char in (0, 2, 3):
        assert is_cm_graph(g, char) == is_cm(bare, FieldSpec(char))


def test_the_cm_split_needs_the_alpha_condition():
    # P3 splits at its middle vertex y into G - y = 2 K1 and G - N[y] = K0,
    # both CM; but alpha(G - y) = 2 = alpha(G) while alpha(G - N[y]) + 1 = 1,
    # and P3 is not CM
    complexes.clear_caches()
    g = path_graph(3)
    (rec,) = complexes._parts(g)
    assert complexes._dom(rec) == 1
    minus, link = complexes._split(rec)
    assert len(minus) == 2 and link == ()
    assert all(complexes._reisner(p, 0) for p in minus)
    assert [sum(map(complexes._alpha, side)) for side in (minus, link)] == [2, 0]
    assert not is_cm_graph(g, 0) and not is_cm(independence_complex(g), FieldSpec(0))


def _record_enumerations(monkeypatch) -> list:
    """The adjacency of each graph a maximal-independent-set enumeration
    runs on, from now on."""
    from graphcm import independence

    seen = []
    enumerate_mis = independence._mis_masks
    monkeypatch.setattr(
        independence,
        "_mis_masks",
        lambda g, within=-1: seen.append(g.keep_mask(g.full_mask & within).adj) or enumerate_mis(g, within),
    )
    return seen


@settings(max_examples=100, deadline=None)
@given(dominated_graphs())
def test_split_purity_matches_the_maximal_independent_sets(g):
    from graphcm.recognition import classify

    complexes.clear_caches()
    sizes = {mask.bit_count() for mask in brute_maximal_independent_sets(g)}
    assert classify(g).well_covered == is_well_covered(g) == (len(sizes) == 1)


def test_split_classes_decide_purity_without_enumerating(monkeypatch):
    # every class met on whiskered P8 splits at a stem, down to K1 parts
    from graphcm.families import whiskered
    from graphcm.independence import _dominates

    seen = _record_enumerations(monkeypatch)
    g = whiskered(path_graph(8))
    for char in (0, 2):
        complexes.clear_caches()
        assert is_cm_graph(g, char) and not is_gorenstein_graph(g, char)
    assert not [adj for adj in seen if any(_dominates(adj, y) for y in range(len(adj)))]


def test_the_purity_split_needs_the_alpha_condition(monkeypatch):
    # P3's sides, G - y = 2 K1 and G - N[y] = K0, are each well-covered, but
    # alpha(G - y) = 2 while alpha(G - N[y]) + 1 = 1, and P3 is not
    seen = _record_enumerations(monkeypatch)
    complexes.clear_caches()
    g = path_graph(3)
    (rec,) = complexes._parts(g)
    minus, link = complexes._split(rec)
    assert len(minus) == 2 and link == ()
    assert all(map(complexes._pure, minus)) and not complexes._pure(rec)
    # only the K1 part was enumerated, never P3 itself
    assert [len(adj) for adj in seen] == [1]
    assert not is_well_covered(g)


def test_recursions_leave_no_reference_cycle():
    # each recursion runs through a module function or an explicit stack,
    # so its working state is freed without the cyclic collector
    import gc

    from graphcm import recognition

    sample = [gen_G(4), gen_H(4), cycle_graph(7), path_graph(6), complete_bipartite(3, 4)]
    gc.collect()
    gc.disable()
    try:
        for g in sample * 10:
            independence_number(g)
            g.block_masks()
            recognition._has_cycle_of_length(g, 5)
            complexes._relative_cells(g)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _gorenstein_oracle(g, char):
    """Independent route: core the complex combinatorially, then demand
    sphere homology (zero below top, one at top) for the link of every
    face of the core, using the generic complex machinery only."""
    from graphcm.complexes import _faces_by_card_from_complex, _profile_from_cards

    gamma = core(independence_complex(g))
    for f in sorted(gamma.faces(), key=lambda s: (len(s), sorted(map(str, s)))):
        lk = link(gamma, f)
        betti = _profile_from_cards(_faces_by_card_from_complex(lk), char)
        if any(betti[c] != 0 for c in range(len(betti) - 1)):
            return False
        if betti[-1] != 1:
            return False
    return True


def test_gorenstein_matches_complex_level_oracle(small_connected):
    for g in small_connected:
        for char in (0, 2):
            assert is_gorenstein_graph(g, FieldSpec(char)) == _gorenstein_oracle(g, char), g


def test_cm_matches_generic_complex_path(small_connected):
    for g in small_connected:
        bare = independence_complex(g)
        for char in (0, 2):
            assert is_cm_graph(g, char) == is_cm(bare, FieldSpec(char)), g


def test_facet_list_round_trip():
    from graphcm.complexes import from_facet_list, to_facet_list

    d = independence_complex(cycle_graph(5))
    text = to_facet_list(d)
    back = from_facet_list(text)
    assert {frozenset(map(str, f)) for f in d.facets} == set(back.facets)
    assert from_facet_list("").is_void()
    empty = from_facet_list("\n")
    assert empty.facets == (frozenset(),)
    assert to_facet_list(SimplicialComplex((), ())) == ""


def test_implication_chain_small(small_connected):
    for g in small_connected:
        for field in DEFAULT_FIELDS:
            cm = is_cm_graph(g, field.characteristic)
            if cm:
                assert is_well_covered(g)
            if is_gorenstein_graph(g, field):
                assert cm
            if is_doubly_cm_graph(g, field.characteristic):
                assert cm and is_w2(g)
            if is_gorenstein_graph(g, field) and not g.isolated_vertices():
                assert is_doubly_cm_graph(g, field.characteristic)
        if all(is_gorenstein_graph(g, f) for f in DEFAULT_FIELDS) and not g.isolated_vertices():
            assert is_w2(g)


# -- bare complexes: torsion and the rational fallback ---------------------------

# the 6-vertex real projective plane: H_1(RP^2; Z) = Z/2
RP2 = SimplicialComplex(
    tuple(range(6)),
    tuple(
        frozenset(f)
        for f in [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
                  (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3)]
    ),
)


def _brute(delta, char):
    pos = {v: i for i, v in enumerate(delta.universe)}
    return brute_reduced_betti([frozenset(pos[v] for v in f) for f in delta.faces()], char)


def test_rp2_torsion_splits_fields():
    assert betti_profile(RP2, FieldSpec(2)).betti == (0, 0, 1, 1)
    assert not is_cm(RP2, FieldSpec(2))
    for char in (0, 3, 4294967311):
        assert betti_profile(RP2, FieldSpec(char)).betti == (0, 0, 0, 0)
        assert is_cm(RP2, FieldSpec(char))
    for char in (0, 2, 3):
        assert betti_profile(RP2, FieldSpec(char)).betti == _brute(RP2, char)


def test_rational_fallback_runs_bareiss(monkeypatch):
    # rational homology in two adjacent dimensions leaves the rank of the
    # edge boundary open after the modular bounds, so the open-rank stage,
    # rank_char0, runs
    calls = []
    rank_char0 = linalg.rank_char0
    monkeypatch.setattr(linalg, "rank_char0", lambda vectors, upper: calls.append(upper) or rank_char0(vectors, upper))
    hollow_triangle_and_point = (frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2}), frozenset({3}))
    delta = SimplicialComplex((0, 1, 2, 3), hollow_triangle_and_point)
    assert betti_profile(delta, FieldSpec(0)).betti == (0, 1, 1) == _brute(delta, 0)
    assert len(calls) == 1


def _hollow_triangles_and_point(k):
    facets = [frozenset({3 * t + a, 3 * t + b}) for t in range(k) for a, b in ((0, 1), (0, 2), (1, 2))]
    return SimplicialComplex(tuple(range(3 * k + 1)), tuple(facets) + (frozenset({3 * k}),))


@pytest.mark.parametrize("k, primes", [(30, 1), (31, 2), (40, 2)])
def test_open_rank_takes_primes_until_hadamard_is_passed(monkeypatch, k, primes):
    # the open edge map has rank 2k and columns of squared length 2, so
    # ranks modulo t primes near 2**31 certify it once 2**(62 t) > 2**(2k+1)
    used = []
    rank_mod_p = linalg.rank_mod_p
    monkeypatch.setattr(linalg, "rank_mod_p", lambda vectors, p: used.append(p) or rank_mod_p(vectors, p))
    delta = _hollow_triangles_and_point(k)
    assert betti_profile(delta, FieldSpec(0)).betti == (0, k, k)
    assert len([p for p in used if p != linalg.LARGE_PRIME]) == primes
    if k > 30:
        assert _brute(delta, 0) == (0, k, k)


def test_torsion_beside_an_open_rank_matches_brute_force(monkeypatch):
    # RP^2's torsion splits the GF(2) ranks from the rational ones, and the
    # hollow triangle beside it still leaves a rank for the open-rank stage
    calls = []
    rank_char0 = linalg.rank_char0
    monkeypatch.setattr(linalg, "rank_char0", lambda vectors, upper: calls.append(upper) or rank_char0(vectors, upper))
    extra = (frozenset({6, 7}), frozenset({6, 8}), frozenset({7, 8}), frozenset({9}))
    delta = SimplicialComplex(tuple(range(10)), RP2.facets + extra)
    for char in (0, 2, 3):
        assert betti_profile(delta, FieldSpec(char)).betti == _brute(delta, char)
    assert calls


@settings(max_examples=60, deadline=None)
@given(st.lists(st.frozensets(st.integers(0, 5), max_size=4), max_size=7))
def test_random_complexes_match_brute_force(facets):
    delta = SimplicialComplex(tuple(range(6)), tuple(facets))
    for char in (0, 2, 3):
        assert betti_profile(delta, FieldSpec(char)).betti == _brute(delta, char)


def test_gorenstein_g6_needs_no_bareiss(monkeypatch):
    def refuse(*args):
        raise AssertionError("the modular bounds should pin every rank")

    monkeypatch.setattr(linalg, "rank_char0", refuse)
    monkeypatch.setattr(linalg, "rank_bareiss", refuse)
    complexes.clear_caches()
    for char in (0, 2):
        assert is_gorenstein_graph(gen_G(6), FieldSpec(char))


# -- the table of classes shared by fields and engines --------------------------


def _sd_rp2_graph():
    """G with Delta(G) = sd(RP^2): independent sets of the complement of the
    comparability graph of the face poset are its chains."""
    faces = sorted((f for f in RP2.faces() if f), key=lambda f: (len(f), sorted(f)))
    non_edges = [(i, j) for i, j in itertools.combinations(range(len(faces)), 2)
                 if not (faces[i] < faces[j] or faces[j] < faces[i])]
    return Graph.from_edges(len(faces), non_edges)


def test_sd_rp2_torsion_does_not_leak_between_fields():
    g = _sd_rp2_graph()
    assert g.n == 31
    cm = {0: True, 2: False, 3: True}
    for order in ((0, 2, 3), (2, 0, 3)):
        complexes.clear_caches()
        for _warm in range(2):
            for char in order:
                assert is_cm_graph(g, char) is cm[char], (order, char)
                assert not is_gorenstein_graph(g, FieldSpec(char)), (order, char)
        # a fresh copy of the same class is answered from the table
        for char in order:
            assert is_cm_graph(_sd_rp2_graph(), char) is cm[char]


def _count_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(1) or fn(*args))
    return calls


def test_other_fields_and_engines_reuse_the_class_table(monkeypatch):
    from graphcm import canon

    complexes.clear_caches()
    g = gen_G(4)
    assert is_cm_graph(g, 0)
    searches = _count_calls(monkeypatch, canon, "_search")
    ranks = _count_calls(monkeypatch, linalg, "rank_gf2")
    assert is_cm_graph(g, 2)
    assert is_gorenstein_graph(g, FieldSpec(0)) and is_gorenstein_graph(g, FieldSpec(2))
    assert searches == []
    # the rational profiles came with their GF(2) ones
    assert ranks == []


def test_gorenstein_tests_purity_before_homology(monkeypatch):
    def refuse(*args):
        raise AssertionError("homology computed for a complex that is not pure")

    monkeypatch.setattr(complexes, "_profiles", refuse)
    complexes.clear_caches()
    for g in (path_graph(3), Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])):
        assert not is_well_covered(g)
        for char in (0, 2):
            assert not is_gorenstein_graph(g, FieldSpec(char))
            assert not is_cm_graph(g, char)


def test_gorenstein_copies_only_to_drop_isolated_vertices():
    complexes.clear_caches()
    g = gen_G(3)
    assert is_gorenstein_graph(g, FieldSpec(2))
    # g itself keys the table, so its cached canonical form was used
    assert complexes._PROFILE_CACHE[g.canonical_form()].graph is g
    h = Graph.from_edges(list(g.labels) + ["x"], g.edges())
    assert is_gorenstein_graph(h, FieldSpec(2))
    assert all(rec.graph is not h for rec in complexes._PROFILE_CACHE.values())


def test_graph_engines_match_complex_oracles_on_atlas():
    import networkx as nx

    complexes.clear_caches()
    atlas = [Graph.from_edges(h.number_of_nodes(), list(h.edges()))
             for h in nx.graph_atlas_g() if h.number_of_nodes() <= 6]
    for g in atlas:
        bare = independence_complex(g)
        # fields interleaved, so each char meets a table warmed by the others
        for char in (2, 0, 3):
            assert is_gorenstein_graph(g, FieldSpec(char)) == _gorenstein_oracle(g, char), (g, char)
            assert is_cm_graph(g, char) == is_cm(bare, FieldSpec(char)), (g, char)


# -- one punch per automorphism orbit -------------------------------------------


def test_vertex_transitive_graphs_punch_once(monkeypatch):
    # one orbit, so the children of C8 and of K3,3 cost one search each
    from graphcm import canon

    searches = _count_calls(monkeypatch, canon, "_search")
    for g in (cycle_graph(8), complete_bipartite(3, 3)):
        complexes.clear_caches()
        rec = complexes._class_of(g)
        del searches[:]
        assert len(complexes._children(rec)) == 1
        assert len(searches) == 1


@settings(max_examples=80, deadline=None)
@given(graphs(min_n=1, max_n=8))
def test_orbit_representatives_meet_every_punch(g):
    import networkx as nx

    def union(recs):
        return functools.reduce(nx.disjoint_union, (to_nx(r.graph) for r in recs), nx.Graph())

    complexes.clear_caches()
    parts = complexes._parts(g)
    assert len(parts) == len(g.component_masks())
    for rec in parts:
        h = rec.graph
        full = h.full_mask

        def punched(removed):
            return h.keep_mask(full & ~removed)

        def meets(removed, punches):
            # the punch is one of the stored tuples of parts, as a whole
            return any(nx.is_isomorphic(to_nx(punched(removed)), union(p)) for p in punches)

        for v in range(h.n):
            kept = punched(h.adj[v] | 1 << v)
            for comp in kept.component_masks():
                assert any(nx.is_isomorphic(to_nx(kept.keep_mask(comp)), to_nx(c.graph))
                           for c in complexes._children(rec)), v
            assert meets(1 << v, complexes._deletions(rec)), v
        for u, v in itertools.combinations(range(h.n), 2):
            if h.adj[u] >> v & 1:
                assert meets(h.adj[u] | h.adj[v], complexes._edge_punches(rec)), (u, v)
    # the table holds connected graphs only
    assert all(r.graph.n and r.graph.is_connected() for r in complexes._PROFILE_CACHE.values())


def test_a_cold_punch_builds_each_component_once(monkeypatch):
    # _minus builds the k components of a punch with k keep_mask calls and
    # no whole punched graph; the shedding test builds no graph at all
    built = []
    keep_mask = Graph.keep_mask
    monkeypatch.setattr(Graph, "keep_mask", lambda g, mask: built.append(mask) or keep_mask(g, mask))
    sizes = set()
    for g in (gen_G(4), gen_H(4), cycle_graph(6), path_graph(5), complete_graph(2)):
        complexes.clear_caches()
        (rec,) = complexes._parts(g)
        h = rec.graph
        for v in range(h.n):
            for mask in (1 << v, h.adj[v] | 1 << v):
                k = len(h.component_masks(~mask))
                built.clear()
                if mask not in rec.minus:
                    assert len(complexes._minus(rec, mask)) == k and len(built) == k
                    sizes.add(k)
            built.clear()
            assert complexes._sheds(rec, v) == complexes._is_shedding(h, v) and built == []
    assert {0, 1, 2} <= sizes


def test_vertex_decomposability_reads_the_reisner_punches():
    # the Reisner recursion made G minus N[v] at one vertex per orbit of each
    # class it read the children of; the VD search finds them on the records
    from graphcm.decomposability import is_vertex_decomposable

    complexes.clear_caches()
    g = gen_G(4)
    assert is_cm_graph(g, 0)
    visited = [(rec, set(rec.minus)) for rec in complexes._PROFILE_CACHE.values() if rec.cm.get(0)]
    assert is_vertex_decomposable(g)[0]
    added = 0
    for rec, before in visited:
        closed = {row | 1 << v for v, row in enumerate(rec.graph.adj)}
        new = set(rec.minus) - before
        assert not new & closed, rec.graph
        added += len(new)
    # the search made its own G minus v on these records
    assert added


def test_second_field_doubly_cm_needs_no_search(monkeypatch):
    from graphcm import canon, independence
    from graphcm.families import gen_H
    from graphcm.recognition import square_cm_criterion

    complexes.clear_caches()
    g = gen_G(4)
    assert is_doubly_cm_graph(g, 0) and square_cm_criterion(g, 0)
    searches = _count_calls(monkeypatch, canon, "_search")
    assert is_doubly_cm_graph(g, 2) and square_cm_criterion(g, 2)
    assert searches == []
    # H4 is CM but not W2: the second field reads the W2 verdict off the record
    h = gen_H(4)
    assert is_cm_graph(h, 0) and not is_doubly_cm_graph(h, 0)
    searches.clear()
    enumerations = _count_calls(monkeypatch, independence, "_mis_masks")
    faces = _count_calls(monkeypatch, complexes, "_relative_cells")
    assert not is_doubly_cm_graph(h, 2)
    assert searches == [] and enumerations == [] and faces == []


def _doubly_cm_cases():
    """(name, graph, whether the graphs g minus v decide, verdict) for each
    way out of _doubly_cm."""
    from graphcm.families import gen_H
    from graphcm.graphio import from_graph6

    return (
        # Gorenstein*: doubly CM (Baclawski)
        [(f"G{k}", gen_G(k), False, True) for k in range(1, 5)]
        + [("C5", cycle_graph(5), False, True)]
        # CM but not W2: not doubly CM
        + [(f"H{k}", gen_H(k), False, False) for k in range(1, 5)]
        # not even CM: out at Reisner
        + [("P3", path_graph(3), False, False)]
        # W2 and CM but not Gorenstein*: the deletions decide.  Fqh~O and
        # GqjR~W are the smallest connected such graphs that are not doubly CM
        + [("Fqh~O", from_graph6("Fqh~O"), True, False), ("GqjR~W", from_graph6("GqjR~W"), True, False)]
        + [("K3", complete_graph(3), True, True), ("K4", complete_graph(4), True, True)]
    )


def test_doubly_cm_branches_match_the_face_level_oracle(monkeypatch):
    built = _count_calls(monkeypatch, complexes, "_deletions")
    for name, g, needs_deletions, want in _doubly_cm_cases():
        complexes.clear_caches()
        built.clear()
        bare = independence_complex(g)
        for char in (0, 2, 3):
            field = FieldSpec(char)
            assert is_doubly_cm(bare, field) == want, (name, char)
            assert is_doubly_cm_graph(g, char) == want, (name, char)
            gorenstein_star = _gorenstein_oracle(g, char) and not g.isolated_vertices()
            assert gorenstein_star == (want and not needs_deletions), (name, char)
            if is_cm(bare, field) and not gorenstein_star:
                assert is_w2(g) == needs_deletions, (name, char)
        assert bool(built) == needs_deletions, name


def test_doubly_and_square_cm_match_all_vertex_oracles_on_atlas():
    import networkx as nx
    from graphcm.recognition import square_cm_criterion

    def bare_cm(h, char):
        return is_cm(independence_complex(h), FieldSpec(char))

    complexes.clear_caches()
    for nxg in nx.graph_atlas_g()[1:]:
        if nxg.number_of_nodes() > 6:
            break
        g = Graph.from_edges(nxg.number_of_nodes(), list(nxg.edges()))
        bare = independence_complex(g)
        a = independence_number(g)
        for char in (2, 0):
            assert is_doubly_cm_graph(g, char) == is_doubly_cm(bare, FieldSpec(char)), (g, char)
            if g.girth() >= 4:
                want = bare_cm(g, char) and all(
                    independence_number(h) == a - 1 and bare_cm(h, char)
                    for h in (g.punch_edge(u, v) for u, v in g.edges())
                )
                assert square_cm_criterion(g, char) == want, (g, char)


# -- components first: a disconnected graph is read off its components ----------


def _check_against_face_oracles(g, chars=(0, 2, 3)):
    from graphcm.recognition import square_cm_criterion

    def alpha(delta):
        return delta.dim + 1

    bare = independence_complex(g)
    a = alpha(bare)
    for char in chars:
        field = FieldSpec(char)
        assert graph_betti(g, char) == betti_profile(bare, field).betti, (g, char)
        assert is_cm_graph(g, char) == is_cm(bare, field), (g, char)
        assert is_gorenstein_graph(g, field) == _gorenstein_oracle(g, char), (g, char)
        assert is_doubly_cm_graph(g, char) == is_doubly_cm(bare, field), (g, char)
        punches_cm = all(
            alpha(d) == a - 1 and is_cm(d, field)
            for d in (independence_complex(g.punch_edge(u, v)) for u, v in g.edges())
        )
        assert edge_punches_cm(g, char) == punches_cm, (g, char)
        if g.girth() >= 4:
            assert square_cm_criterion(g, char) == (is_cm(bare, field) and punches_cm), (g, char)


@st.composite
def _shuffled_unions(draw):
    """The disjoint union of two graphs on at most 6 vertices each, 9 in
    all (the face-level oracles grow like 2^n), with its vertices
    interleaved so that components are not runs of indices."""
    from graphcm.graph import disjoint_union

    g = draw(graphs(max_n=6))
    h = draw(graphs(max_n=min(6, 9 - g.n)))
    u = disjoint_union(g, h)
    order = draw(st.permutations(u.labels))
    return Graph.from_edges(order, u.edges())


@settings(max_examples=80, deadline=None)
@given(_shuffled_unions())
def test_disjoint_unions_match_face_level_oracles(g):
    complexes.clear_caches()
    _check_against_face_oracles(g)


def test_unions_with_k0_k1_and_torsion_match_face_level_oracles():
    from graphcm.graph import disjoint_union

    k0, k1, k2 = Graph.empty(0), complete_graph(1), complete_graph(2)
    complexes.clear_caches()
    for g in (k0, k1, path_graph(3), cycle_graph(5), gen_G(3)):
        for extra in (k0, k1):
            u = disjoint_union(g, extra)
            _check_against_face_oracles(u)
            faces = [frozenset(u.index(v) for v in f) for f in independence_complex(u).faces()]
            for char in (0, 2, 3):
                assert graph_betti(u, char) == brute_reduced_betti(faces, char)
    # Delta(sd(RP^2) + K2) is the suspension of sd(RP^2), so its GF(2)
    # torsion class sits one dimension higher
    u = disjoint_union(_sd_rp2_graph(), k2)
    _check_against_face_oracles(u)
    assert graph_betti(u, 2) == (0, 0, 0, 1, 1) and graph_betti(u, 3) == (0,) * 5


def test_disconnected_graphs_are_never_searched(monkeypatch):
    from graphcm import canon
    from graphcm.recognition import classify

    searched = []
    search = canon._search
    monkeypatch.setattr(canon, "_search", lambda g: searched.append(g) or search(g))
    complexes.clear_caches()
    classify(gen_G(4), fields=(0, 2))
    assert searched and all(g.is_connected() for g in searched)
    assert all(rec.graph.is_connected() for rec in complexes._PROFILE_CACHE.values())


def test_classify_of_the_families_builds_no_deletions(monkeypatch):
    # G4 is Gorenstein* and H4 is not W2, so neither needs the graphs g minus v
    from graphcm.families import gen_H
    from graphcm.recognition import classify

    built = _count_calls(monkeypatch, complexes, "_deletions")
    for g, doubly_cm in ((gen_G(4), True), (gen_H(4), False)):
        complexes.clear_caches()
        report = classify(g, fields=(0, 2))
        assert report.cm == {0: True, 2: True} and report.doubly_cm == {0: doubly_cm, 2: doubly_cm}
    assert built == []


def test_classify_enumerates_the_maximal_independent_sets_once(monkeypatch):
    # one enumeration on the record serves the report, purity and the doubly-CM rule
    from graphcm.families import gen_H
    from graphcm.recognition import classify

    seen = _record_enumerations(monkeypatch)
    complexes.clear_caches()
    g = gen_G(5)
    report = classify(g)
    assert report.w2 and report.well_covered and report.alpha == 5
    assert seen.count(g.adj) == 1
    # the vertex-decomposability search reads W2 off the record instead of
    # enumerating each g minus v again; only K1 is met by both the shedding
    # test and purity
    repeated = [adj for adj, k in Counter(seen).items() if k > 1]
    assert all(len(adj) < 2 for adj in repeated)
    # on H4, well-covered but not W2, the search reads the shedding
    # verdicts W2 left on the record
    seen.clear()
    complexes.clear_caches()
    report = classify(gen_H(4))
    assert report.well_covered and not report.w2
    assert [adj for adj, k in Counter(seen).items() if k > 1 and len(adj) > 1] == []
