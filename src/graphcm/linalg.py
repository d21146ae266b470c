"""Exact rank computations for boundary matrices.

Characteristic 2 uses bitset columns; other primes use dense elimination
mod p, in int64 while (p-1)**2 fits and in Python integers beyond that.

Over Q, ranks are certified rather than eliminated.  For an integer
matrix and any prime p, rank over Q >= rank mod p, because a minor that
is non-zero mod p is a non-zero integer.  A rank mod p that reaches a
known upper bound on the rational rank is therefore the rational rank.
``complexes`` bounds the ranks of a whole chain complex from above
through d*d = 0 and settles most of them that way; ``rank_char0`` runs
fraction-free integer elimination (Bareiss) only when the rank modulo
LARGE_PRIME stays below the bound it is given.
"""

from __future__ import annotations

LARGE_PRIME = 2147483647  # fits int64 arithmetic: p * p < 2**63


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


def rank_mod_p(rows, p: int) -> int:
    """Rank of an integer matrix (list of rows) modulo a prime p."""
    if not rows or not rows[0]:
        return 0
    # imported here, on the only path that needs it: numpy is most of the
    # package's import time and memory, and GF(2) ranks do without it
    import numpy as np

    # products of two residues must not overflow int64
    dtype = np.int64 if (p - 1) ** 2 < 2**63 else object
    a = np.array(rows, dtype=dtype) % p
    m, ncol = a.shape
    r = 0
    for c in range(ncol):
        if r == m:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r, c:] = a[r, c:] * inv % p
        f = a[r + 1 :, c]
        if f.any():
            a[r + 1 :, c:] = (a[r + 1 :, c:] - f[:, None] * a[r, c:]) % p
        r += 1
    return r


def rank_bareiss(rows) -> int:
    """Exact integer rank by fraction-free Gaussian elimination."""
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


def rank_char0(rows, upper: int) -> int:
    """Exact rank over the rationals, given an upper bound on it known to
    the caller: a rank modulo LARGE_PRIME that reaches the bound is exact,
    otherwise Bareiss decides."""
    if not rows or not rows[0]:
        return 0
    r = rank_mod_p(rows, LARGE_PRIME)
    if r == upper:
        return r
    return rank_bareiss(rows)
