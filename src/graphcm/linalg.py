"""Exact rank computations for boundary matrices.

Characteristic 2 uses bitset columns; other primes use sparse elimination
mod p on {index: residue} dicts, in Python integers, so any prime works.
Both take the boundary columns as they are built, with no dense matrix in
between; ``rank_mod_p`` is the same elimination for dense rows.

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

LARGE_PRIME = 2147483647  # 2**31 - 1, the prime for the char-0 lower bounds


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


def rank_mod_p_sparse(vectors, p: int) -> int:
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


def rank_mod_p(rows, p: int) -> int:
    """Rank of an integer matrix (list of dense rows) modulo a prime p."""
    return rank_mod_p_sparse((dict(enumerate(row)) for row in rows), p)


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
