"""Exact rank kernels.

Each step has one job.  Catalecticants are pruned before they get here:
`apolarity._ranks` keeps only the rows and columns that hold an entry,
peels without elimination every row that holds the only entry of some
column and every column that holds the only entry of some row, until
neither is left, and hands `matrix_rank` the rest as a list of lists of
integers.  `sparse_rank` materializes only the rows and columns of its dict
that hold an entry; `matrix_rank` drops zero rows, eliminates whichever
orientation has fewer rows and picks the kernel, which only eliminates.

Over GF(p) the scalars are residues in [0, p), in int64 when p*p < 2^62
and Python integers in an object array otherwise.  Row i pivots on its
first nonzero column c, a = A[i, c], and each later row k nonzero in column
c (a hot row) becomes (a*row_k - A[k, c]*row_i) mod p: a unit times row_k
minus a multiple of row_i, so the rank holds and no inverse is taken.
Every later row then vanishes in column c, so the nonzero rows end with
distinct pivot columns and the rank is their count; a row that has become
zero is skipped.  Each product is at most (p-1)^2 < 2^62, so the int64
difference is exact.  When most later rows are hot the whole block is
updated in place, a cold row only scaled by a, in fewer numpy calls.

Over the rationals rows are cleared of denominators, and the integer
matrix is first ranked mod the fixed prime 2^31 - 1 (on the int64 path).
That rank never exceeds the rank over QQ, since a minor that is nonzero
mod p is a nonzero integer, and no rank exceeds min(m, n); so when the
rank mod p reaches min(m, n) it is the rank over QQ (the one-sided modular
method of von zur Gathen-Gerhard, Modern Computer Algebra).  Otherwise
fraction-free Bareiss elimination decides: the same row steps over the
integers, but every later row is updated and divided by the previous
pivot.  By Sylvester's identity each entry is then a minor of the input,
so the division is exact and every value an integer.  A prime that
divides a minor costs time, never correctness.
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
    dtype = np.int64 if p * p < _INT64_SAFE else object
    return _row_pivot_rank(np.array(rows, dtype=dtype), p)


def rank_rational(rows) -> int:
    """Rank of a nonempty matrix of rationals (Fraction or int): the
    full-rank certificate mod _CERT_PRIME, else Bareiss (module docstring)."""
    A = []
    for row in rows:
        lcm = math.lcm(*(v.denominator for v in row))
        A.append([v.numerator * (lcm // v.denominator) for v in row])
    full = min(len(A), len(A[0]))
    if rank_mod_p([[v % _CERT_PRIME for v in row] for row in A], _CERT_PRIME) == full:
        return full
    return _bareiss_rank(A)


def _bareiss_rank(rows) -> int:
    """Rank of a nonempty integer matrix by fraction-free Bareiss elimination."""
    return _row_pivot_rank(np.array(rows, dtype=object), None)


def _row_pivot_rank(A, p) -> int:
    """Rank of the array A, which is overwritten, by the row-pivot elimination
    of the module docstring: mod p, or over the integers when p is None."""
    r, prev = 0, 1
    for i in range(len(A)):
        row = A[i]
        nz = row.nonzero()[0]
        if not nz.size:
            continue
        r += 1
        a = row[nz[0]]
        rest = A[i + 1 :]
        f = rest[:, nz[0]]
        hot = f.nonzero()[0]
        if p is None or 2 * hot.size > len(rest):
            sub = f[:, None] * row
            rest *= a
            rest -= sub
            if p is None:
                rest //= prev  # exact, by Sylvester's identity
                prev = a
            else:
                rest %= p
        elif hot.size:
            rest[hot] = (a * rest[hot] - f[hot, None] * row) % p
    return r
