"""Exact rank kernels.

Each step has one job.  Catalecticants are pruned before they get here:
`apolarity._ranks` keeps only the rows and columns that hold an entry,
peels without elimination every row that holds the only entry of some
column and every column that holds the only entry of some row, until
neither is left, and hands `matrix_rank` the rest as a list of lists of
integers with no more rows than columns.  `sparse_rank` materializes
only the rows and columns of its dict that hold an entry; `matrix_rank`
drops zero rows, eliminates whichever orientation has fewer rows and picks
the kernel by field; the kernels only eliminate.

Over GF(p) the scalars are residues in [0, p) and the elimination is
vectorized row reduction, on int64 when p*p fits below 2^62 (a product of
two residues plus one subtraction cannot overflow) and on Python integers
in an object array otherwise.  Over the rationals rows
are cleared of denominators, and the integer matrix is first ranked mod the
fixed prime 2^31 - 1 (on the int64 path).  That rank never exceeds the
rank over QQ, since a minor that is nonzero mod p is a nonzero integer, and
no rank exceeds min(m, n); so when the rank mod p reaches min(m, n) it is
the rank over QQ (the one-sided modular method of von zur Gathen-Gerhard,
Modern Computer Algebra).  Otherwise fraction-free Bareiss elimination
decides, so every intermediate value is an exact integer minor.  A prime
that divides a minor costs time, never correctness.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import GF

_INT64_SAFE = 2**62
# the prime of the full-rank certificate over QQ; p * p < _INT64_SAFE
_CERT_PRIME = 2**31 - 1


def sparse_rank(entries, field) -> int:
    """Rank of a matrix given as {(row, col): scalar} over the field."""
    rows, cols = {}, {}
    for i, j in entries:
        rows.setdefault(i, len(rows))
        cols.setdefault(j, len(cols))
    dense = [[0] * len(cols) for _ in rows]
    for (i, j), v in entries.items():
        dense[rows[i]][cols[j]] = v
    return matrix_rank(dense, field)


def matrix_rank(rows, field) -> int:
    """Rank of a dense list-of-lists matrix over the field."""
    rows = [row for row in rows if any(row)]
    if not rows:
        return 0
    if len(rows) > len(rows[0]):
        rows = [list(col) for col in zip(*rows)]
    if isinstance(field, GF):
        return rank_mod_p(rows, field.p)
    return rank_rational(rows)


def rank_mod_p(rows, p: int) -> int:
    """Rank of a nonempty matrix of residues in [0, p)."""
    A = np.array(rows, dtype=np.int64 if p * p < _INT64_SAFE else object)
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
    """Rank of a nonempty matrix of rationals (Fraction or int).

    The rows are cleared of denominators.  If the integer matrix has rank
    min(m, n) mod _CERT_PRIME, that is its rank over QQ: the rank mod p is
    at most the rank over QQ, which is at most min(m, n).  Otherwise Bareiss
    elimination computes the rank exactly."""
    A = []
    for row in rows:
        lcm = math.lcm(*(v.denominator for v in row))
        A.append([v.numerator * (lcm // v.denominator) for v in row])
    full = min(len(A), len(A[0]))
    if rank_mod_p([[v % _CERT_PRIME for v in row] for row in A], _CERT_PRIME) == full:
        return full
    return _bareiss_rank(A)


def _bareiss_rank(A) -> int:
    """Rank of a nonempty integer matrix by fraction-free Bareiss
    elimination; A is overwritten."""
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
