from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fraction_rank, modp_rank

from graphcm import linalg

matrices = st.integers(1, 6).flatmap(
    lambda ncol: st.lists(st.lists(st.integers(-3, 3), min_size=ncol, max_size=ncol), min_size=1, max_size=6)
)


@settings(max_examples=60, deadline=None)
@given(matrices, st.sampled_from([3, linalg.LARGE_PRIME, 3037000493, 3037000507, 4294967311, 10**18 + 3]))
def test_rank_mod_p_matches_oracle(rows, p):
    # 3037000493 is the largest prime whose residue products fit int64;
    # the larger primes take the Python-integer path
    assert linalg.rank_mod_p(rows, p) == modp_rank(rows, p)


def test_rank_mod_p_past_int64():
    # -1 mod p times itself overflows int64 once (p-1)**2 >= 2**63
    rows = [[1, -1, 1], [0, 0, 1], [-1, 1, -1]]
    for p in (3037000493, 3037000507, 4294967311):
        assert linalg.rank_mod_p(rows, p) == 2


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_rank_char0_matches_fractions(rows):
    r = fraction_rank(rows)
    assert linalg.rank_char0(rows, min(len(rows), len(rows[0]))) == r
    assert linalg.rank_char0(rows, r) == r
    assert linalg.rank_bareiss(rows) == r
