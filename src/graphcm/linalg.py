"""Exact rank computations for boundary matrices.

Characteristic 2 uses bitset columns; other primes use sparse elimination
mod p on {index: value} dicts, in Python integers, so any prime works.
Both take the boundary columns as they are built and form no dense matrix.

Over Q, ranks are certified rather than eliminated.  For an integer
matrix and any prime p, rank over Q >= rank mod p, because a minor that
is non-zero mod p is a non-zero integer.  A rank mod p that reaches a
known upper bound on the rational rank is therefore the rational rank.
``complexes`` bounds the ranks of a whole chain complex from above
through d*d = 0 and settles most of them that way; ``rank_char0``
certifies a rank the bounds leave open from ranks modulo several primes,
stopping once their product passes Hadamard's bound (Dumas, Saunders and
Villard, J. Symbolic Comput. 2001).  ``rank_bareiss``, fraction-free
integer elimination on dense rows, is kept only as an exact reference.
"""

from __future__ import annotations

LARGE_PRIME = 2147483647  # 2**31 - 1, the prime for the char-0 lower bounds

# Miller-Rabin with the prime bases 2..41 is exact below this bound; bases
# 2..37 alone are exact below 3.18e23 (Sorenson and Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic primality for 0 <= p < _MR_LIMIT."""
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def rank_gf2(columns) -> int:
    """Rank over GF(2); each column is an int bitmask over row indices."""
    pivots = {}
    rank = 0
    for col in columns:
        cur = col
        while cur:
            b = cur.bit_length() - 1
            p = pivots.get(b)
            if p is None:
                pivots[b] = cur
                rank += 1
                break
            cur ^= p
    return rank


def rank_mod_p(vectors, p: int) -> int:
    """Rank modulo a prime p of the integer vectors given as {index: value}
    dicts.  They may be the rows or the columns of a matrix: a matrix and
    its transpose have the same rank.

    Each vector keeps its non-zero residues and is reduced, as in rank_gf2,
    against one stored vector per pivot (its highest index), scaled so that
    the pivot entry is 1."""
    pivots = {}
    for vec in vectors:
        cur = {j: r for j, x in vec.items() if (r := x % p)}
        while cur:
            b = max(cur)
            piv = pivots.get(b)
            if piv is None:
                inv = pow(cur[b], p - 2, p)
                pivots[b] = {j: r * inv % p for j, r in cur.items()}
                break
            f = cur[b]
            for j, x in piv.items():
                r = (cur.get(j, 0) - f * x) % p
                if r:
                    cur[j] = r
                else:  # j is in cur: f and x are units mod p
                    del cur[j]
    return len(pivots)


def rank_bareiss(rows) -> int:
    """Exact rank of dense integer rows by fraction-free elimination."""
    if not rows or not rows[0]:
        return 0
    mat = [list(row) for row in rows]
    m, ncol = len(mat), len(mat[0])
    prev = 1
    r = 0
    for c in range(ncol):
        if r == m:
            break
        piv = next((i for i in range(r, m) if mat[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            mat[r], mat[piv] = mat[piv], mat[r]
        pr = mat[r]
        p = pr[c]
        for i in range(r + 1, m):
            ri = mat[i]
            f = ri[c]
            for j in range(c + 1, ncol):
                num = p * ri[j] - f * pr[j]
                q, rem = divmod(num, prev)
                if rem:
                    raise ArithmeticError("Bareiss division was not exact")
                ri[j] = q
            ri[c] = 0
        prev = p
        r += 1
    return r


def rank_char0(vectors, upper: int) -> int:
    """Exact rank over Q of the integer vectors ({index: value} dicts),
    given an upper bound on it known to the caller.

    It takes ranks modulo the primes below LARGE_PRIME in descending order
    (the caller has the rank modulo LARGE_PRIME itself).  Let r be the
    largest rank so far, P the product of the primes used and s the largest
    squared length of a vector.  The rational rank is at least r, and it
    is r once r = upper, or once P**2 > s**(r+1): a larger rank would give
    a non-zero (r+1)-minor, which vanishes modulo every prime used and so
    is a multiple of P, while by Hadamard's inequality its square is at
    most the product of its r+1 squared vector lengths, at most s**(r+1)."""
    vectors = list(vectors)
    s = max((sum(x * x for x in vec.values()) for vec in vectors), default=0)
    r, prod, p = 0, 1, LARGE_PRIME
    while r < upper and prod * prod <= s ** (r + 1):
        p = next(q for q in range(p - 2, 2, -2) if _is_prime(q))
        r = max(r, rank_mod_p(vectors, p))
        prod *= p
    return r
