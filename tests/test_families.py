import pytest

from conftest import brute_cycles

from graphcm.canon import is_isomorphic
from graphcm.complexes import FieldSpec, is_gorenstein_graph
from graphcm.decomposability import is_vertex_decomposable
from graphcm.graph import Graph, GraphInputError, PreconditionError, complete_graph, cycle_graph, disjoint_union, path_graph
from graphcm.independence import independence_number, is_well_covered
from graphcm.planarity import is_planar
from graphcm.families import (
    TRANSCRIBED_FIXTURES,
    catalog,
    fixture_expectations,
    gen_G,
    gen_H,
    pinter_extend,
    validate_fixture,
)

K1 = complete_graph(1)


def fam_G(k):
    return gen_G(k) if k >= 1 else Graph.empty(0)


def fam_H(k):
    return gen_H(k) if k >= 1 else Graph.empty(0)


def du(*gs):
    out = gs[0]
    for h in gs[1:]:
        out = disjoint_union(out, h)
    return out


def test_gen_G_examples():
    assert is_isomorphic(gen_G(1), complete_graph(2))
    assert is_isomorphic(gen_G(2), cycle_graph(5))
    g3 = gen_G(3)
    assert g3.n == 8 and g3.m == 10 and g3.girth() == 4
    assert is_isomorphic(g3, catalog("G3"))
    with pytest.raises(GraphInputError):
        gen_G(0)


def test_gen_H_examples():
    assert is_isomorphic(gen_H(1), complete_graph(1))
    assert is_isomorphic(gen_H(2), path_graph(4))
    h3 = gen_H(3)
    assert h3.n == 7
    assert set(h3.edges()) == set(gen_G(3).delete_vertices(["x8"]).edges())
    with pytest.raises(GraphInputError):
        gen_H(0)


def test_gen_H_matches_case_split():
    # n >= 3: previous family member's edges plus the three new ones
    for n in (3, 4, 5):
        h = gen_H(n)
        expected = set(gen_G(n - 1).edges())
        expected |= {
            (f"x{3 * n - 3}", f"x{3 * n - 2}"),
            (f"x{3 * n - 4}", f"x{3 * n - 3}"),
            (f"x{3 * n - 6}", f"x{3 * n - 3}"),
        }
        got = {tuple(sorted(e, key=lambda s: int(s[1:]))) for e in h.edges()}
        want = {tuple(sorted(e, key=lambda s: int(s[1:]))) for e in expected}
        assert got == want


def test_family_alpha_and_wc():
    for n in range(1, 9):
        assert independence_number(gen_G(n)) == n
        assert independence_number(gen_H(n)) == n
        assert is_well_covered(gen_G(n)) and is_well_covered(gen_H(n))


def test_family_structure_identities():
    for n in range(3, 9):
        left = gen_H(n).delete_vertices([f"x{3 * n - 3}"])
        assert is_isomorphic(left, du(gen_G(n - 1), K1))
    for n in range(2, 9):
        assert is_isomorphic(gen_G(n).punch_closed(f"x{3 * n - 1}"), gen_G(n - 1))


def test_family_girth_and_planarity():
    for n in range(3, 7):
        g = gen_G(n)
        assert g.girth() == 4
        assert is_planar(g)
    assert gen_G(2).girth() == 5


def _edge_case(i, j):
    a, b = min(i, j), max(i, j)
    if (a, b) == (1, 2):
        return ("1", None)
    if b == a + 1:
        if b % 3 == 0:
            return ("2", b // 3)
        if a % 3 == 0:
            return ("3", a // 3)
        if a % 3 == 1:
            return ("4", (a - 1) // 3)
    if b == a + 4 and a % 3 == 1:
        return ("5", (a - 1) // 3 + 1)
    if b == a + 3 and a % 3 == 0:
        return ("6", b // 3)
    return (None, None)


def _expected_punch(n, case, k):
    """Structure of gen_G(n) minus N(x) | N(y), by proof case; verified
    computationally (two of the printed unions needed index fixes)."""
    if case == "1":
        return fam_H(n - 1)
    if case == "2":
        if k == 1:
            return du(fam_G(n - 2), K1)
        if k == 2:
            return du(fam_G(n - 3), K1, K1)
        if k == n - 1:
            return du(fam_H(n - 2), K1)
        return du(fam_H(k - 1), fam_G(n - k - 1), K1)
    if case == "3":
        if k == 1:
            return du(fam_H(n - 2), K1)
        return du(fam_G(k - 1), fam_H(n - k - 1), K1)
    if case == "4":
        return du(fam_H(k), fam_H(n - k - 1))
    if case == "5":
        return du(fam_G(k - 1), fam_G(n - k - 1), K1)
    return du(fam_G(k - 2), fam_G(n - k - 1), K1, K1)


def test_edge_cases_cover_and_match():
    for n in range(3, 7):
        g = gen_G(n)
        for u, v in g.edges():
            case, k = _edge_case(int(u[1:]), int(v[1:]))
            assert case is not None, (n, u, v)
            punched = g.punch_edge(u, v)
            assert is_isomorphic(punched, _expected_punch(n, case, k)), (n, case, u, v)
            assert independence_number(punched) == n - 1


def test_pinter_extend_examples():
    assert is_isomorphic(pinter_extend(gen_G(2), "x4", "x5"), gen_G(3))
    g = pinter_extend(gen_G(3), "x7", "x8")
    assert g.n == gen_G(3).n + 3
    assert is_isomorphic(g, gen_G(4))
    with pytest.raises(PreconditionError):
        pinter_extend(gen_G(3), "x4", "x6")  # not adjacent
    with pytest.raises(PreconditionError):
        pinter_extend(gen_G(3), "x4", "x5")  # x4 has degree 3


def test_pinter_extend_every_valid_pair_small():
    # every admissible pair should land back in the family (as far as tested)
    for n in range(2, 7):
        g = gen_G(n)
        for x, y in g.edges():
            if g.degree(x) == 2 and g.degree(y) == 2:
                for a, b in ((x, y), (y, x)):
                    assert is_isomorphic(pinter_extend(g, a, b), gen_G(n + 1))


def test_catalog_names():
    assert catalog("C7").n == 7 and catalog("C7").girth() == 7
    assert catalog("K3").m == 3
    assert catalog("P4").m == 3
    assert catalog("paw").degree_sequence() == (1, 2, 2, 3)
    assert catalog("T10").n == 10 and catalog("T10").m == 12
    assert catalog("P10").n == 10 and catalog("P10").m == 12
    assert catalog("P13").n == 13 and catalog("P13").m == 17
    assert catalog("Q13").n == 13 and catalog("Q13").m == 18
    assert catalog("P14").n == 14 and catalog("P14").m == 21
    with pytest.raises(GraphInputError):
        catalog("X99")
    with pytest.raises(GraphInputError):
        catalog("C2")


def test_fixture_oracles():
    for name in ("C7", "T10", "K1") + TRANSCRIBED_FIXTURES:
        assert validate_fixture(name) == []


def test_t10_properties():
    t10 = catalog("T10")
    assert t10.girth() == 3
    assert is_well_covered(t10)
    assert not brute_cycles(t10, 4) and not brute_cycles(t10, 5)


def test_gorenstein_census_matches_w2_on_family():
    for n in (3, 4):
        assert is_gorenstein_graph(gen_G(n), FieldSpec(0))
        assert is_vertex_decomposable(gen_G(n))[0]
