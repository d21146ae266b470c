import itertools
import random
import time

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_is_isomorphic, brute_refine, graphs, to_nx

from graphcm import complexes
from graphcm.canon import _refine, automorphisms, canonical_form, canonical_order, is_isomorphic, isomorphism_map
from graphcm.graph import Graph, bits, complete_bipartite, complete_graph, cycle_graph, path_graph
from graphcm.graphio import to_graph6
from graphcm.families import gen_G


def _permuted(g: Graph, perm):
    mapping = {g.labels[i]: perm[i] for i in range(g.n)}
    return Graph.from_edges(
        sorted(perm), [(mapping[u], mapping[v]) for u, v in g.edges()]
    )


def test_examples():
    c5 = cycle_graph(5)
    redrawn = Graph.from_edges(5, [(2, 4), (4, 1), (1, 3), (3, 0), (0, 2)])
    assert is_isomorphic(c5, redrawn)
    assert is_isomorphic(gen_G(3).punch_closed("x8"), cycle_graph(5))
    assert not is_isomorphic(path_graph(4), complete_bipartite(1, 3))


def test_small_special_graphs_distinct():
    zoo = [
        complete_graph(4),
        cycle_graph(4),
        path_graph(4),
        complete_bipartite(1, 3),
        Graph.from_edges(4, [(0, 1), (1, 2), (2, 0), (0, 3)]),  # paw
        Graph.from_edges(4, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3)]),  # diamond
    ]
    forms = {canonical_form(g) for g in zoo}
    assert len(forms) == len(zoo)


@settings(max_examples=60, deadline=None)
@given(graphs(min_n=1, max_n=7), st.randoms(use_true_random=False))
def test_invariant_under_relabeling(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    assert canonical_form(_permuted(g, perm)) == canonical_form(g)


@settings(max_examples=40, deadline=None)
@given(graphs(min_n=1, max_n=5), graphs(min_n=1, max_n=5))
def test_agrees_with_permutation_search(g, h):
    assert is_isomorphic(g, h) == brute_is_isomorphic(g, h)


@settings(max_examples=40, deadline=None)
@given(graphs(min_n=1, max_n=7), graphs(min_n=1, max_n=7))
def test_agrees_with_networkx(g, h):
    assert is_isomorphic(g, h) == nx.is_isomorphic(to_nx(g), to_nx(h))


def test_canonical_order_is_an_ordering():
    g = gen_G(3)
    order = canonical_order(g)
    assert sorted(order) == list(range(g.n))


def test_isomorphism_map_realises_bijection():
    g = cycle_graph(6)
    h = _permuted(g, [3, 1, 4, 5, 0, 2])
    phi = isomorphism_map(g, h)
    assert phi is not None
    for u, v in g.edges():
        assert h.has_edge(phi[u], phi[v])
    assert isomorphism_map(g, path_graph(6)) is None


def test_dense_symmetric_graphs():
    assert canonical_form(complete_graph(7)) == canonical_form(_permuted(complete_graph(7), [3, 0, 6, 1, 5, 2, 4]))
    k44 = complete_bipartite(4, 4)
    assert canonical_form(k44) == canonical_form(_permuted(k44, [7, 2, 5, 0, 3, 6, 1, 4]))
    assert not is_isomorphic(complete_bipartite(3, 3), complete_bipartite(2, 4))


def _from_nx(h: nx.Graph) -> Graph:
    h = nx.convert_node_labels_to_integers(h)
    return Graph.from_edges(h.number_of_nodes(), list(h.edges()))


def _timed_form(g: Graph) -> bytes:
    complexes.clear_caches()  # time a search, not a lookup of an earlier one
    start = time.perf_counter()
    form = canonical_form(g)
    assert time.perf_counter() - start < 1.0, g
    return form


def test_symmetric_graphs_have_no_factorial_cliff():
    builders = {
        "E10": lambda: Graph.empty(10),
        "K10": lambda: complete_graph(10),
        "K5,5": lambda: complete_bipartite(5, 5),
        "5K2": lambda: Graph.from_edges(10, [(2 * i, 2 * i + 1) for i in range(5)]),
        "Petersen": lambda: _from_nx(nx.petersen_graph()),
    }
    rnd = random.Random(10)
    forms = {}
    for name, build in builders.items():
        g = build()
        form = _timed_form(g)
        perm = list(range(g.n))
        rnd.shuffle(perm)
        h = _permuted(build(), perm)
        assert _timed_form(h) == form, name
        assert nx.is_isomorphic(to_nx(g), to_nx(h))
        forms[name] = form
    assert len(set(forms.values())) == len(forms)
    assert _timed_form(complete_bipartite(4, 6)) != forms["K5,5"]
    assert not is_isomorphic(complete_bipartite(4, 6), complete_bipartite(5, 5))


def test_graph_atlas_forms_distinct_and_invariant():
    # the atlas lists every graph on at most 7 vertices once up to isomorphism
    rnd = random.Random(7)
    forms = set()
    atlas = nx.graph_atlas_g()
    for h in atlas:
        g = _from_nx(h)
        form = canonical_form(g)
        forms.add(form)
        perm = list(range(g.n))
        rnd.shuffle(perm)
        assert canonical_form(_permuted(g, perm)) == form
    assert len(atlas) == 1253
    assert len(forms) == len(atlas)


def test_shrikhande_against_rook_graph():
    # both are srg(16, 6, 2, 2): refinement leaves one cell, so only
    # individualisation and automorphism pruning can tell them apart
    shrikhande = nx.Graph()
    for a, b in itertools.product(range(4), repeat=2):
        for da, db in ((0, 1), (1, 0), (1, 1)):
            shrikhande.add_edge((a, b), ((a + da) % 4, (b + db) % 4))
    rook = nx.cartesian_product(nx.complete_graph(4), nx.complete_graph(4))
    s, r = _from_nx(shrikhande), _from_nx(rook)
    assert {d for _, d in shrikhande.degree()} == {d for _, d in rook.degree()} == {6}
    assert _timed_form(s) != _timed_form(r)
    rnd = random.Random(16)
    for g in (s, r):
        perm = list(range(16))
        rnd.shuffle(perm)
        assert _timed_form(_permuted(g, perm)) == canonical_form(g)


@settings(max_examples=60, deadline=None)
@given(graphs(min_n=1, max_n=9), st.randoms(use_true_random=False))
def test_isomorphism_map_preserves_edges(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    h = _permuted(g, perm)
    phi = isomorphism_map(g, h)
    assert phi is not None
    assert sorted(phi) == sorted(g.labels) and sorted(phi.values()) == sorted(h.labels)
    assert all(h.has_edge(phi[u], phi[v]) for u, v in g.edges())
    assert g.m == h.m


# -- refinement against a splitter stack ---------------------------------------


def _is_equitable(adj, cells) -> bool:
    return all(len({(adj[v] & d).bit_count() for v in bits(c)}) == 1 for c in cells for d in cells)


@settings(max_examples=100, deadline=None)
@given(graphs(min_n=1, max_n=10), st.randoms(use_true_random=False))
def test_splitter_refinement_finds_the_cells_of_all_cells_refinement(g, rnd):
    # from the unit partition, then down one random path of the search tree:
    # individualise a vertex of a non-singleton cell of the equitable
    # partition and refine against that vertex alone
    adj, full = g.adj, g.full_mask
    cells = _refine(adj, [full], [full])
    assert _is_equitable(adj, cells) and set(cells) == set(brute_refine(adj, [full]))
    while len(cells) < g.n:
        k = rnd.choice([i for i, c in enumerate(cells) if c & (c - 1)])
        v = rnd.choice(list(bits(cells[k])))
        split = cells[:k] + [1 << v, cells[k] ^ 1 << v] + cells[k + 1:]
        cells = _refine(adj, split, [1 << v])
        assert _is_equitable(adj, cells) and set(cells) == set(brute_refine(adj, split))


# -- automorphisms stored by the search ---------------------------------------


def _is_automorphism(g: Graph, perm) -> bool:
    if sorted(perm) != list(range(g.n)):
        return False
    image = [sum(1 << perm[j] for j in range(g.n) if row >> j & 1) for row in g.adj]
    return all(image[i] == g.adj[perm[i]] for i in range(g.n))


def _group_order(n: int, gens) -> int:
    """Size of the permutation group the generators generate, by closure."""
    identity = tuple(range(n))
    group = {identity}
    todo = [identity]
    while todo:
        p = todo.pop()
        for gen in gens:
            q = tuple(gen[i] for i in p)
            if q not in group:
                group.add(q)
                todo.append(q)
    return len(group)


@settings(max_examples=100, deadline=None)
@given(graphs(min_n=1, max_n=9))
def test_stored_automorphisms_are_automorphisms(g):
    assert all(_is_automorphism(g, perm) for perm in automorphisms(g))


def _generates_the_group(g: Graph) -> bool:
    gens = automorphisms(g)
    h = to_nx(g)
    want = sum(1 for _ in nx.vf2pp_all_isomorphisms(h, h))
    return all(_is_automorphism(g, perm) for perm in gens) and _group_order(g.n, gens) == want


def test_stored_automorphisms_generate_the_group_on_atlas():
    # pruning by orbits needs only genuine automorphisms; that they give the
    # whole group here is what dropping the generator's dedup would rest on
    atlas = [_from_nx(h) for h in nx.graph_atlas_g()[1:]]
    assert len(atlas) == 1252
    assert [to_graph6(g) for g in atlas if not _generates_the_group(g)] == []


def test_stored_automorphisms_generate_the_group_beyond_the_atlas():
    # every 20th connected graph on 8 vertices, every one in each filtered
    # class the suites generate (generation's orbit pruning needs the whole
    # group of each parent), random connected graphs on 9-12 vertices, and
    # vertex-transitive graphs, where refinement alone separates nothing
    from graphcm.enumeration import _THEOREMS, EnumFilter, _level, enumerate_connected

    level = list(enumerate_connected(8))
    assert len(level) == 11117
    suites = {filt.hereditary_key(): filt for _desc, filt, _n, _pred in _THEOREMS.values() if filt not in (None, EnumFilter())}
    assert len(suites) == 6
    classes = [g for filt in suites.values() for g in _level(8, filt)]
    rnd = random.Random(12)
    randoms = []
    while len(randoms) < 200:
        h = nx.gnp_random_graph(rnd.randint(9, 12), rnd.uniform(0.2, 0.6), seed=rnd.randrange(1 << 30))
        if nx.is_connected(h):
            randoms.append(_from_nx(h))
    circulants = ((8, [1, 2]), (9, [1, 3]), (10, [1, 4]), (12, [1, 5]), (13, [1, 3, 4]))
    transitive = [_from_nx(nx.hypercube_graph(3))] + [_from_nx(nx.circulant_graph(n, j)) for n, j in circulants]
    inputs = level[::20] + classes + randoms + transitive
    assert [to_graph6(g) for g in inputs if not _generates_the_group(g)] == []


def test_automorphisms_of_named_graphs():
    named = {
        "K0": (Graph.empty(0), 1),
        "C6": (cycle_graph(6), 12),
        "K1,3": (complete_bipartite(1, 3), 6),
        "P4": (path_graph(4), 2),
        "Petersen": (_from_nx(nx.petersen_graph()), 120),
        "K4,4": (complete_bipartite(4, 4), 1152),
    }
    for name, (g, order) in named.items():
        canonical_form(g)  # a cached search does not change what is returned
        gens = automorphisms(g)
        assert all(_is_automorphism(g, perm) for perm in gens), name
        assert _group_order(g.n, gens) == order, name


# -- one search per adjacency between resets -------------------------------------


def _count_searches(monkeypatch) -> dict:
    """Patch the search to count its calls per adjacency; reset first."""
    from graphcm import canon, enumeration

    searched = {}
    search = canon._search

    def counted(g):
        searched[g.adj] = searched.get(g.adj, 0) + 1
        return search(g)

    monkeypatch.setattr(canon, "_search", counted)
    enumeration.clear_cache()
    complexes.clear_caches()
    return searched


def test_each_graph_is_searched_at_most_once(monkeypatch):
    # forms, orders and automorphisms all come from one kept search per
    # adjacency, in whatever order generation, the class table and the VD
    # walk ask for them, and whichever Graph object carries the adjacency
    from graphcm import enumeration
    from graphcm.decomposability import is_vertex_decomposable, replay_certificate

    searched = _count_searches(monkeypatch)
    level = list(enumeration.enumerate_connected_upto(7))
    assert len(level) == 1 + 1 + 2 + 6 + 21 + 112 + 853
    for g in level:
        for char in (0, 2):
            complexes.is_cm_graph(g, char)
        ok, cert = is_vertex_decomposable(g, want_certificate=True)
        assert not ok or replay_certificate(g, cert)
    assert len(searched) > len(level)
    assert max(searched.values()) == 1
    enumeration.clear_cache()


def test_graphs_sharing_an_adjacency_share_one_search(monkeypatch):
    searched = _count_searches(monkeypatch)
    g = Graph.from_edges("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("b", "e")])
    h = Graph.from_edges("vwxyz", [("v", "w"), ("w", "x"), ("x", "y"), ("w", "z")])
    assert g.adj == h.adj and g is not h
    assert canonical_order(g) == canonical_order(h)
    assert canonical_form(g) == canonical_form(h) and automorphisms(g) == automorphisms(h)
    assert searched == {g.adj: 1}
    assert isomorphism_map(g, h) == dict(zip(g.labels, h.labels))


def test_generation_searches_fewer_graphs_than_it_keeps(monkeypatch):
    # a settled child is kept without a search: only the parents and the
    # children whose new vertex ties a non-twin are searched
    from graphcm import enumeration

    searched = _count_searches(monkeypatch)
    assert enumeration.connected_counts(8)[-1] == 11117
    assert sum(searched.values()) < 11117


def test_a_reset_searches_again(monkeypatch):
    # every benchmark pass starts from this reset, so each pass is cold
    searched = _count_searches(monkeypatch)
    g = cycle_graph(6)
    form = canonical_form(g)
    canonical_form(cycle_graph(6))
    assert searched == {g.adj: 1}
    complexes.clear_caches()
    assert canonical_form(g) == form
    assert searched == {g.adj: 2}


def test_a_search_leaves_no_reference_cycle():
    # the search's working state is freed by reference counting, so a run
    # that searches often does not wait on the cyclic collector
    import gc

    from graphcm import canon

    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            canon._search(cycle_graph(8))
        assert gc.collect() == 0
    finally:
        gc.enable()
