import itertools
import time
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import brute_cycles, brute_new_vertex_leads

from graphcm.canon import canonical_form, is_isomorphic
from graphcm.families import gen_G
from graphcm.graph import Graph, UnsupportedSizeError, cycle_graph, path_graph, complete_graph
from graphcm.graphio import from_graph6, to_graph6
from graphcm.enumeration import (
    EnumFilter,
    connected_counts,
    enumerate_connected,
    enumerate_connected_upto,
    theorem_ids,
    verify_theorem,
)


def _brute_connected_count(n):
    """Canonical dedup over all labeled graphs on n vertices."""
    forms = set()
    nbits = n * (n - 1) // 2
    for word in range(1 << nbits):
        edges = []
        k = 0
        for j in range(1, n):
            for i in range(j):
                if word >> k & 1:
                    edges.append((i, j))
                k += 1
        g = Graph.from_edges(n, edges)
        if g.is_connected():
            forms.add(canonical_form(g))
    return len(forms)


def test_counts_small_examples():
    graphs3 = list(enumerate_connected(3))
    assert len(graphs3) == 2
    assert {g.m for g in graphs3} == {2, 3}  # P3 and K3
    assert len(list(enumerate_connected(4))) == 6 == _brute_connected_count(4)
    assert connected_counts(5) == [1, 1, 2, 6, 21]


def test_girth5_filter_at_5():
    exact5 = list(enumerate_connected(5, EnumFilter(min_girth=5, max_girth=5)))
    assert len(exact5) == 1 and is_isomorphic(exact5[0], cycle_graph(5))
    # forests have infinite girth, so a lower bound alone keeps the 3 trees
    atleast5 = list(enumerate_connected(5, EnumFilter(min_girth=5)))
    assert len(atleast5) == 4


def test_filters_prune_consistently():
    filt = EnumFilter(forbid_c4=True, forbid_c5=True)
    got = {canonical_form(g) for g in enumerate_connected(6, filt)}
    want = {
        canonical_form(g)
        for g in enumerate_connected(6)
        if not any(brute_cycles(g, L) for L in (4, 5))
    }
    assert got == want




def test_block_cactus_filter():
    filt = EnumFilter(block_cactus_only=True)
    got = {canonical_form(g) for g in enumerate_connected(6, filt)}
    from graphcm.recognition import is_block_cactus

    want = {canonical_form(g) for g in enumerate_connected(6) if is_block_cactus(g)}
    assert got == want


def test_unknowns_and_caps():
    with pytest.raises(UnsupportedSizeError):
        list(enumerate_connected(11))
    from graphcm.graph import GraphInputError

    with pytest.raises(GraphInputError):
        verify_theorem("NOPE")


def test_theorem_examples():
    assert verify_theorem("T2", n_max=8).ok()
    assert verify_theorem("T3", n_max=7).ok()
    rep = verify_theorem("EG1", n_max=5)
    assert rep.ok() and rep.graphs_checked == 5


def test_every_suite_runs_clean_at_modest_size():
    for tid in theorem_ids():
        n_max = 5 if tid == "EG1" else 7
        assert verify_theorem(tid, n_max=n_max).ok(), tid


def test_single_field_runs():
    from graphcm.complexes import FieldSpec

    rep = verify_theorem("T2", n_max=7, fields=(FieldSpec(0),))
    assert rep.ok() and rep.fields == (0,)
    rep3 = verify_theorem("T3", n_max=6, fields=(FieldSpec(3),))
    assert rep3.ok()


def test_report_text_contains_counts():
    rep = verify_theorem("COR2", n_max=6)
    text = rep.to_text()
    assert "graphs_checked:" in text and "counterexample_count: 0" in text
    structured = rep.to_text(structured=True)
    payload = [ln for ln in structured.splitlines() if not ln.startswith("#")]
    assert all("elapsed" not in ln for ln in payload)


def test_external_stream(tmp_path):
    path = tmp_path / "stream.g6"
    graphs = [cycle_graph(5), cycle_graph(7), path_graph(4), complete_graph(3)]
    path.write_text("\n".join(to_graph6(g) for g in graphs) + "\n")
    rep = verify_theorem("T2", n_max=7, input_path=path)
    # girth >= 5 keeps C5, C7 and P4 but drops K3
    assert rep.graphs_checked == 3 and rep.ok()


def test_workers_match_serial():
    for tid, n_max in (("T3", 6), ("EG1", 4)):
        serial = verify_theorem(tid, n_max=n_max)
        parallel = verify_theorem(tid, n_max=n_max, workers=2)
        assert serial.counterexamples == parallel.counterexamples
        assert serial.graphs_checked == parallel.graphs_checked


def test_counterexamples_would_replay():
    # reports are clean for the real theorems; the replay contract is that
    # re-running the predicate on each stored graph6 string reproduces the
    # failure, which we exercise over every stored counterexample
    from graphcm.enumeration import _THEOREMS
    from graphcm.complexes import DEFAULT_FIELDS, _char

    for tid in ("T2", "T3", "COR2"):
        rep = verify_theorem(tid, n_max=6)
        pred = _THEOREMS[tid][3]
        chars = tuple(map(_char, DEFAULT_FIELDS))
        assert all(not pred(from_graph6(g6), chars) for g6 in rep.counterexamples)
        assert rep.ok()


def test_enumeration_matches_networkx_atlas():
    import networkx as nx
    from conftest import to_nx

    # graph atlas holds all graphs with up to 7 vertices
    atlas_counts = {}
    for h in nx.graph_atlas_g()[1:]:
        if h.number_of_nodes() and nx.is_connected(h):
            atlas_counts[h.number_of_nodes()] = atlas_counts.get(h.number_of_nodes(), 0) + 1
    ours = connected_counts(7)
    assert ours == [atlas_counts[n] for n in range(1, 8)]


# -- generation from admissible neighbour sets -----------------------------------


def _theorem_filters():
    from graphcm.enumeration import _THEOREMS

    out = {}
    for tid, (_, filt, _, _) in _THEOREMS.items():
        if filt is not None:
            out.setdefault(filt.hereditary_key(), (tid, filt))
    return list(out.values())


_MIXED_FILTERS = {
    "cactus_c4": EnumFilter(cactus_only=True, forbid_c4=True),
    "block_cactus_g4": EnumFilter(block_cactus_only=True, min_girth=4),
    "c5": EnumFilter(forbid_c5=True),
    "girth3": EnumFilter(min_girth=3),
    "girth7": EnumFilter(min_girth=7),
}


def _brute_depth(filt):
    if filt.min_girth is not None and filt.min_girth >= 5:
        return 9
    # every connected graph: a brute level 8 alone costs as much as the
    # generator self-test, and every subset is admissible anyway
    return 6 if filt in (EnumFilter(), EnumFilter(min_girth=3)) else 8


@pytest.mark.parametrize(
    "filt",
    [f for _, f in _theorem_filters()] + list(_MIXED_FILTERS.values()),
    ids=[tid for tid, _ in _theorem_filters()] + list(_MIXED_FILTERS),
)
def test_levels_match_brute_level(filt):
    from conftest import brute_level
    from graphcm.enumeration import _level

    # the same classes, each once (a duplicate would show twice); which
    # representative a level keeps, and in what order, is not part of it
    for n in range(1, _brute_depth(filt) + 1):
        got = sorted(canonical_form(g) for g in _level(n, filt))
        assert got == sorted(canonical_form(g) for g in brute_level(n, filt)), n


_STRICTER = [{"min_girth": k} for k in (3, 4, 5, 6, 7)] + [
    {"forbid_c4": True},
    {"forbid_c5": True},
    {"block_cactus_only": True},
    {"cactus_only": True},
]


@st.composite
def _filter_and_parent(draw, max_n=9):
    """A connected graph glued from random cliques and cycles, with up to
    three extra edges, and a filter without planarity that it passes: each
    drawn restriction is kept only if the graph still passes."""
    n_max = draw(st.integers(1, max_n))
    edges, n = [], 1
    while n < n_max:
        new = [draw(st.integers(0, n - 1))] + list(range(n, n + draw(st.integers(1, min(5, n_max - n)))))
        if draw(st.booleans()):
            edges += list(itertools.combinations(new, 2))
        else:
            edges += list(zip(new, new[1:] + new[:1])) if len(new) > 2 else [tuple(new)]
        n = new[-1] + 1
    pairs = list(itertools.combinations(range(n), 2))
    g = Graph.from_edges(n, edges + (draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []))
    filt = EnumFilter()
    for change in draw(st.lists(st.sampled_from(_STRICTER))):
        if replace(filt, **change).passes_hereditary(g):
            filt = replace(filt, **change)
    return filt, g


@settings(max_examples=200, deadline=None)
@given(_filter_and_parent())
def test_admissible_masks_are_the_passing_extensions(case):
    filt, g = case
    assert filt.passes_hereditary(g)
    want = [s for s in range(1, 1 << g.n) if filt.passes_hereditary(g._extend(s))]
    assert list(filt.admissible_masks(g)) == want


@settings(max_examples=150, deadline=None)
@given(_filter_and_parent())
@example((EnumFilter(), Graph.empty(1)))
@example((EnumFilter(), path_graph(9)))
def test_lead_rule_matches_the_child_side_test(case):
    # the parent-side decision (reject, search, or settled) against the
    # test run on each built child
    from graphcm.enumeration import _lead_rule

    _, g = case
    leads = _lead_rule(g.adj)
    for s in range(1, 1 << g.n):
        assert leads(s) == brute_new_vertex_leads(g._extend(s).adj), (to_graph6(g), s)


@settings(max_examples=100, deadline=None)
@given(_filter_and_parent(max_n=8))
def test_level_holds_every_graph_its_filter_passes(case):
    from graphcm.enumeration import _level

    filt, h = case
    assert canonical_form(h) in {canonical_form(g) for g in _level(h.n, filt)}


def test_filtered_level_counts():
    from graphcm.enumeration import _level

    table = [
        (EnumFilter(min_girth=5), [1, 1, 1, 2, 4, 8, 18, 47, 137, 464, 1793]),
        (EnumFilter(min_girth=6), [1, 1, 1, 2, 3, 7, 13, 31, 71, 198]),
        (EnumFilter(forbid_c4=True, forbid_c5=True), [1, 1, 2, 3, 7, 17, 44, 123, 387, 1327]),
        # OEIS A000083
        (EnumFilter(cactus_only=True), [1, 1, 2, 4, 9, 23, 63, 188, 596, 1979]),
        (EnumFilter(block_cactus_only=True), [1, 1, 2, 5, 11, 29, 82, 254, 828, 2846]),
        (EnumFilter(min_girth=4, planar_only=True), [1, 1, 1, 3, 6, 18, 55, 230, 1063, 6161]),
    ]
    for filt, counts in table:
        # girth >= 5 at n = 11 is read past HARD_CAP through the level itself
        levels = [_level(n, filt) for n in range(1, len(counts) + 1)]
        assert list(map(len, levels)) == counts, filt
        # settled children are kept without the dedup, so a duplicate would
        # show here as two equal forms
        assert all(len({canonical_form(g) for g in level}) == len(level) for level in levels), filt
    t4 = EnumFilter(min_girth=4, max_girth=4, planar_only=True)
    t4_counts = [sum(1 for _ in enumerate_connected(n, t4)) for n in range(1, 11)]
    assert t4_counts == [0, 0, 0, 1, 2, 10, 37, 183, 927, 5705]


def test_connected_counts_respects_the_cap():
    from graphcm.enumeration import HARD_CAP

    start = time.monotonic()
    with pytest.raises(UnsupportedSizeError):
        connected_counts(HARD_CAP + 1)
    assert time.monotonic() - start < 1


def test_verify_checks_the_cap_before_generating(monkeypatch):
    from graphcm import enumeration

    def refuse(*args):
        raise AssertionError("a level was generated")

    monkeypatch.setattr(enumeration, "_level", refuse)
    with pytest.raises(UnsupportedSizeError):
        verify_theorem("T1", n_max=enumeration.HARD_CAP + 1)


def test_verify_refuses_an_empty_field_list(monkeypatch):
    # with no field, "CM over every field" holds vacuously and the suite
    # would test nothing homological
    from graphcm import enumeration
    from graphcm.graph import GraphInputError

    def refuse(*args):
        raise AssertionError("a level was generated")

    monkeypatch.setattr(enumeration, "_level", refuse)
    for tid in theorem_ids():
        for fields in ((), []):
            with pytest.raises(GraphInputError, match="empty field list"):
                verify_theorem(tid, n_max=6, fields=fields)


def test_family_members_have_5k_minus_5_edges_under_any_labelling():
    from graphcm.enumeration import _is_family_member

    assert [gen_G(k).m for k in range(2, 22)] == [5 * k - 5 for k in range(2, 22)]
    g = gen_G(5)
    relabelled = Graph.from_edges(g.labels[3:] + g.labels[:3], g.edges())
    assert relabelled.adj != g.adj and _is_family_member(relabelled)
    assert not _is_family_member(Graph.from_edges(g.labels, g.edges() + [("x1", "x3")]))


def test_trivial_girth_bound_shares_the_unfiltered_level():
    # every simple graph has girth >= 3, so the bound must not split the cache
    from graphcm.enumeration import _level

    for k in (1, 2, 3):
        assert _level(6, EnumFilter(min_girth=k)) is _level(6, EnumFilter())
    assert _level(6, EnumFilter(min_girth=4)) is not _level(6, EnumFilter())
