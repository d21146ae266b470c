import os
import random
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_rows, fraction_rank, modp_rank

import graphcm
from graphcm import complexes, linalg
from graphcm.families import gen_G

matrices = st.integers(1, 6).flatmap(
    lambda ncol: st.lists(st.lists(st.integers(-3, 3), min_size=ncol, max_size=ncol), min_size=1, max_size=6)
)


def _vectors(rows):
    """Dense rows as the {index: value} dicts linalg takes, zeros left out."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def _signed_columns(cols):
    """Boundary columns of row indices as {row: (-1)**t} dicts, the dropped
    (None) entries of a relative complex left out."""
    return [{i: (-1) ** t for t, i in enumerate(col) if i is not None} for col in cols]


@settings(max_examples=60, deadline=None)
@given(matrices, st.sampled_from([3, linalg.LARGE_PRIME, 3037000493, 3037000507, 4294967311, 10**18 + 3]))
def test_rank_mod_p_matches_oracle(rows, p):
    # 3037000493 is the largest prime whose residue products fit int64;
    # the larger primes take the Python-integer path
    assert linalg.rank_mod_p(_vectors(rows), p) == modp_rank(rows, p)


def test_rank_mod_p_past_int64():
    # -1 mod p times itself overflows int64 once (p-1)**2 >= 2**63
    rows = [[1, -1, 1], [0, 0, 1], [-1, 1, -1]]
    for p in (3037000493, 3037000507, 4294967311):
        assert linalg.rank_mod_p(_vectors(rows), p) == 2


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_rank_char0_matches_fractions(rows):
    r = fraction_rank(rows)
    assert linalg.rank_char0(_vectors(rows), min(len(rows), len(rows[0]))) == r
    assert linalg.rank_char0(_vectors(rows), r) == r
    assert linalg.rank_bareiss(rows) == r


def test_rank_char0_certifies_large_entries_over_several_primes(monkeypatch):
    # entries near 1e9 put Hadamard's bound far past one prime near 2**31;
    # the low-rank products stay below the bound they are given, so only
    # the product of the primes can stop the search
    primes = []
    mod_p = linalg.rank_mod_p
    monkeypatch.setattr(linalg, "rank_mod_p", lambda vectors, p: primes.append(p) or mod_p(vectors, p))
    rng = random.Random(25)

    def entry(bound):
        return rng.randint(-bound, bound) if rng.random() < 0.6 else 0

    for _ in range(40):
        m, n = rng.randint(2, 7), rng.randint(2, 7)
        k = rng.randint(1, min(m, n) - 1)
        left = [[entry(30000) for _ in range(k)] for _ in range(m)]
        right = [[entry(30000) for _ in range(n)] for _ in range(k)]
        low_rank = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
        sparse = [[entry(10**9) for _ in range(n)] for _ in range(m)]
        for rows in (low_rank, sparse):
            r = fraction_rank(rows)
            assert linalg.rank_bareiss(rows) == r
            primes.clear()
            assert linalg.rank_char0(_vectors(rows), min(m, n)) == r
            assert primes == sorted(set(primes), reverse=True) and all(map(linalg._is_prime, primes))
            assert all(p < linalg.LARGE_PRIME for p in primes)
            if r == min(m, n):  # the first rank meets the bound
                assert len(primes) == 1, (rows, primes)
            elif rows is low_rank and r:
                assert len(primes) >= 2, (rows, primes)


def test_rank_mod_p_on_boundary_maps():
    # real boundary maps fill in during elimination, unlike small random
    # matrices; the transpose must have the same rank
    for k in (4, 5):
        cards = complexes._faces_by_card_from_complex(complexes.independence_complex(gen_G(k)))
        for c in range(1, len(cards)):
            cols = complexes._boundary_columns(cards[c - 1], cards[c])
            signed = _signed_columns(cols)
            rows = dense_rows(signed, len(cards[c - 1]))
            for p in (3, linalg.LARGE_PRIME):
                r = modp_rank(rows, p)
                assert linalg.rank_mod_p(signed, p) == r
                assert linalg.rank_mod_p(_vectors(rows), p) == r


def test_verdicts_need_only_the_standard_library():
    code = """
import sys
from graphcm import gen_G, gen_H, is_cm_graph, is_gorenstein_graph
from graphcm.graph import cycle_graph
for g, cm, gor in ((gen_G(4), True, True), (gen_H(4), True, False), (cycle_graph(7), False, False)):
    for char in (0, 2, 3):
        assert is_cm_graph(g, char) is cm and is_gorenstein_graph(g, char) is gor
assert "numpy" not in sys.modules, "numpy was imported"
"""
    src = os.path.dirname(os.path.dirname(graphcm.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_boundary_columns_ranked_without_densifying():
    # _rank_mod hands the signed boundary columns to the sparse entry
    # directly; its ranks must equal the oracle's on the dense rows
    for k in (4, 5):
        cards = complexes._faces_by_card_from_complex(complexes.independence_complex(gen_G(k)))
        for c in range(1, len(cards)):
            cols = complexes._boundary_columns(cards[c - 1], cards[c])
            rows = dense_rows(_signed_columns(cols), len(cards[c - 1]))
            for p in (2, 3, linalg.LARGE_PRIME):
                assert complexes._rank_mod(cols, p) == modp_rank(rows, p)
