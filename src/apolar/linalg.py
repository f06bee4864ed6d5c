"""Exact rank kernels.

Over GF(p) the matrix is eliminated with vectorized row reduction, on
int64 when p*p fits below 2^62 (a product of two residues plus one
subtraction cannot overflow) and on Python integers in an object array
otherwise.  Over the rationals rows are cleared of denominators and
reduced with fraction-free Bareiss elimination, so every intermediate
value is an exact integer minor.

Rank is computed on whichever orientation has fewer rows; all-zero rows
and columns are pruned before elimination.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .fields import GF

_INT64_SAFE = 2**62


def sparse_rank(entries, nrows: int, ncols: int, field) -> int:
    """Rank of a matrix given as {(row, col): scalar} over the field."""
    if not entries:
        return 0
    rows_used = sorted({i for i, _ in entries})
    cols_used = sorted({j for _, j in entries})
    rmap = {i: k for k, i in enumerate(rows_used)}
    cmap = {j: k for k, j in enumerate(cols_used)}
    m, n = len(rows_used), len(cols_used)
    if m <= n:
        dense = [[0] * n for _ in range(m)]
        for (i, j), v in entries.items():
            dense[rmap[i]][cmap[j]] = v
    else:
        dense = [[0] * m for _ in range(n)]
        for (i, j), v in entries.items():
            dense[cmap[j]][rmap[i]] = v
    return matrix_rank(dense, field)


def matrix_rank(rows, field) -> int:
    """Rank of a dense list-of-lists matrix over the field."""
    if not rows or not rows[0]:
        return 0
    if isinstance(field, GF):
        return rank_mod_p(rows, field.p)
    return rank_rational(rows)


def rank_mod_p(rows, p: int) -> int:
    A = [[v % p for v in row] for row in rows]
    A = [row for row in A if any(row)]
    if not A:
        return 0
    if len(A) > len(A[0]):
        A = [list(col) for col in zip(*A)]
    A = np.array(A, dtype=np.int64 if p * p < _INT64_SAFE else object)
    m, n = A.shape
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            A[[r, piv]] = A[[piv, r]]
        inv = pow(int(A[r, c]), -1, p)
        A[r, c:] = A[r, c:] * inv % p
        f = A[r + 1 :, c]
        hot = np.nonzero(f)[0]
        if hot.size:
            block = A[r + 1 :, c:]
            block[hot] = (block[hot] - f[hot, None] * A[r, c:][None, :]) % p
        r += 1
    return r


def rank_rational(rows) -> int:
    cleared = []
    for row in rows:
        scale = math.lcm(*(Fraction(v).denominator for v in row)) if row else 1
        int_row = [int(Fraction(v) * scale) for v in row]
        if any(int_row):
            cleared.append(int_row)
    if not cleared:
        return 0
    if len(cleared) > len(cleared[0]):
        cleared = [list(col) for col in zip(*cleared)]
    return _rank_bareiss(cleared)


def _rank_bareiss(A) -> int:
    m, n = len(A), len(A[0])
    r = 0
    prev = 1
    for c in range(n):
        if r == m:
            break
        piv = next((i for i in range(r, m) if A[i][c]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        pv = A[r][c]
        for i in range(r + 1, m):
            vi = A[i][c]
            row_i, row_r = A[i], A[r]
            for j in range(c + 1, n):
                num = pv * row_i[j] - vi * row_r[j]
                q, rem = divmod(num, prev)
                if rem:
                    raise ArithmeticError("inexact Bareiss division")
                row_i[j] = q
            row_i[c] = 0
        prev = pv
        r += 1
    return r
