"""Exact rank kernels: the one module that decides how an exact rank is
taken.

Each step has one job.  `ranks` takes the nonzero entries of many sparse
matrices at once, as the catalecticant assembly gives them, and peels them
all together, repeating two steps until neither removes anything.  Both
are exact in every field, since a nonzero scalar is a unit:
- a column holding a single entry makes its row independent: every other
  row vanishes in that column, so rank A = 1 + rank(A without the row);
- a row holding a single entry v at column c pivots out c: subtracting
  multiples of that row clears column c from every other row and changes
  nothing else, v is a unit, so rank A = 1 + rank(A without the row and c).
The rows (columns) removed by one step each own a column (row) where all
other rows (columns) vanish, so they are independent of each other too and
each adds one.  Every row and column carries the index of its matrix, so
`np.bincount` gives the peeled rank per matrix.  The lines left are
numbered once per axis for the whole list, and what is left of each matrix
goes to `matrix_rank` as a list of lists of integers.  `sparse_rank`
materializes only the rows and columns of its dict that hold an entry;
`matrix_rank` drops zero rows, eliminates whichever orientation has fewer
rows and picks the kernel, which only eliminates.  Integers are int64
while they fit and Python integers in object arrays otherwise: see
`int_dtype`, and `residue_dtype` for residues, whose products a kernel
adds in pairs.

Over GF(p) the scalars are residues in [0, p).  Row i pivots on its first
nonzero column c, a = A[i, c], and each later row k nonzero in column c (a
hot row) becomes (a*row_k - A[k, c]*row_i) mod p: a unit times row_k minus
a multiple of row_i, so the rank holds and no inverse is taken.  Every
later row then vanishes in column c, so the nonzero rows end with distinct
pivot columns and the rank is their count; a row that has become zero is
skipped.  Each product is at most (p-1)^2, so the int64 difference is
exact.  When most later rows are hot the whole block is updated in place,
a cold row only scaled by a, in fewer numpy calls.

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

# the prime of the full-rank certificate over QQ, on the int64 path
_CERT_PRIME = 2**31 - 1


def int_dtype(bound: int):
    """The dtype for integers of absolute value at most bound: int64 when
    that fits, else object (Python integers)."""
    return np.int64 if bound < 2**63 else object


def residue_dtype(p: int):
    """The dtype for residues mod p: int64 while a sum or difference of two
    products of residues fits, 2(p-1)^2 < 2^63, which holds for every prime
    below 2^31; object over QQ (p = 0) and for larger p."""
    return int_dtype(2 * (p - 1) ** 2) if p else object


def ranks(field, owner, rows, cols, values, count: int) -> list[int]:
    """Exact ranks of `count` matrices given by their nonzero entries as
    parallel arrays, matrix by matrix: the index of the matrix, row and
    column keys that no two matrices share and whose order puts the
    matrices in order, and the value as an integer (a residue over GF(p)).
    Peels as the module docstring says, then ranks what is left of each
    matrix with matrix_rank."""
    ids, owners = [], []  # per axis: each entry's line, each line's matrix
    for keys in (rows, cols):
        # ids 0..size-1 for the distinct keys, in key order
        order = keys.argsort()
        ordered = keys[order]
        new = np.empty(len(keys), bool)
        new[:1] = True
        np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
        line = np.empty(len(keys), np.intp)
        line[order] = np.add.accumulate(new, dtype=np.intp) - 1
        size = int(np.count_nonzero(new))
        at = np.empty(size, np.intp)
        at[line] = owner
        ids.append(line)
        owners.append(at)
    out = np.zeros(count, np.intp)
    live = np.arange(len(values))
    # axis 0: a column with one entry peels its row; axis 1: a row with one
    # entry peels its column; stop once a step on each axis peels nothing
    axis = idle = 0
    while idle < 2 and len(live):
        line, cross = ids[axis], ids[1 - axis]
        single = np.bincount(cross, minlength=len(owners[1 - axis])) == 1
        if single.any():
            gone = np.zeros(len(owners[axis]), bool)
            gone[line[single[cross]]] = True
            out += np.bincount(owners[axis][gone], minlength=count)
            keep = ~gone[line]
            ids = [ids[0][keep], ids[1][keep]]
            live = live[keep]
            idle = 0
        else:
            idle += 1
        axis = 1 - axis
    out = out.tolist()
    if not len(live):
        return out
    # number the leftover lines of each axis once, in key order; a matrix's
    # lines are consecutive, so its local ids are these minus its first
    owner = owner[live]
    local, shape = [], []
    for line, at in zip(ids, owners):
        left = np.zeros(len(at), bool)
        left[line] = True
        size = np.bincount(at[left], minlength=count)
        local.append(left.cumsum()[line] - 1 - (size.cumsum() - size)[owner])
        shape.append(size.tolist())
    start = 0
    for f, end in enumerate(np.searchsorted(owner, np.arange(1, count + 1)).tolist()):
        if end > start:
            A = np.zeros((shape[0][f], shape[1][f]), values.dtype)
            A[local[0][start:end], local[1][start:end]] = values[live[start:end]]
            out[f] += matrix_rank(A.tolist(), field)
        start = end
    return out


def sparse_rank(entries, field) -> int:
    """Rank of a matrix given as {(row, col): scalar} over the field; row
    and column labels may be any hashable values.

    This is the dense path, not the peel of `ranks`: its callers, the lemma
    suites, rank the coefficient matrices of a few forms, at most five
    dense rows with no column holding a single entry, so a peel would
    remove nothing and only add its fixed numpy cost."""
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
    return _row_pivot_rank(np.array(rows, dtype=residue_dtype(p)), p)


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
