"""The rank kernels against the independent span oracle, over QQ and over
prime fields on both sides of the int64 limit (GF(2^61 - 1) runs on the
object-array path), and the full-rank certificate mod 2^31 - 1 that settles
most ranks over QQ before Bareiss."""

import random
from fractions import Fraction

import numpy as np
import pytest

import span_oracle
from apolar import GF, QQ, linalg
from apolar.fields import is_prime
from apolar.linalg import matrix_rank, sparse_rank

FIELDS = [(QQ, None), (GF(7), 7), (GF(2**31 - 1), 2**31 - 1), (GF(2**61 - 1), 2**61 - 1)]
IDS = ["QQ", "GF7", "GF31", "GF61"]


def _scalar(fld, rng):
    if fld is QQ:
        return Fraction(rng.randint(-5, 5), rng.choice((1, 3, 7)))
    return fld.random(rng)


def _planted(fld, rng, m, n, k):
    """An m x n product of random m x k and k x n factors (rank <= k)."""
    B = [[_scalar(fld, rng) for _ in range(k)] for _ in range(m)]
    C = [[_scalar(fld, rng) for _ in range(n)] for _ in range(k)]
    out = []
    for row in B:
        cells = []
        for j in range(n):
            v = fld.zero
            for t in range(k):
                v = fld.add(v, fld.mul(row[t], C[t][j]))
            cells.append(v)
        out.append(cells)
    return out


def _oracle_rank(rows, p):
    return len(span_oracle.span_basis([{j: v for j, v in enumerate(r) if v} for r in rows], p))


def _with_zero_lines(rows, fld, rng):
    """rows with zero rows and zero columns inserted at random places."""
    n = len(rows[0])
    for _ in range(2):
        c = rng.randrange(n + 1)
        rows = [r[:c] + [fld.zero] + r[c:] for r in rows]
        n += 1
    for _ in range(2):
        rows.insert(rng.randrange(len(rows) + 1), [fld.zero] * n)
    return rows


def _matrices(fld, rng):
    yield [[fld.one, fld.zero], [fld.zero, fld.one]]
    yield [[fld.zero] * 4 for _ in range(3)]
    for m, n, k in ((4, 6, 2), (6, 4, 3), (9, 3, 2), (3, 9, 3), (7, 7, 5), (12, 5, 5)):
        A = _planted(fld, rng, m, n, k)
        yield A
        yield _with_zero_lines(A, fld, rng)
    for m, n in ((5, 5), (11, 4), (2, 8)):
        yield [[_scalar(fld, rng) for _ in range(n)] for _ in range(m)]


@pytest.mark.parametrize("fld,p", FIELDS, ids=IDS)
def test_matrix_rank_matches_oracle(fld, p):
    rng = random.Random(f"linalg/dense/{fld!r}")
    for rows in _matrices(fld, rng):
        want = _oracle_rank(rows, p)
        assert matrix_rank([list(r) for r in rows], fld) == want
        transposed = [list(c) for c in zip(*rows)]
        assert matrix_rank(transposed, fld) == want


@pytest.mark.parametrize("fld,p", FIELDS, ids=IDS)
def test_sparse_rank_matches_oracle(fld, p):
    rng = random.Random(f"linalg/sparse/{fld!r}")
    for rows in _matrices(fld, rng):
        # spread labels apart: only rows and columns holding an entry count
        entries = {
            (7 * i + 3, 5 * j + 1): v
            for i, row in enumerate(rows)
            for j, v in enumerate(row)
            if v
        }
        assert sparse_rank(entries, fld) == _oracle_rank(rows, p)


@pytest.mark.parametrize("fld,p", FIELDS, ids=IDS)
def test_empty_matrices_have_rank_zero(fld, p):
    assert matrix_rank([], fld) == 0
    assert matrix_rank([[]], fld) == 0
    assert sparse_rank({}, fld) == 0


def test_residues_leave_int64_at_the_first_prime_past_2_31():
    # the sum of two products of residues must fit int64: 2 (p-1)^2 < 2^63
    assert is_prime(2**31 - 1) and is_prime(2**31 + 11)
    assert linalg.residue_dtype(7) is linalg.residue_dtype(2**31 - 1) is np.int64
    assert linalg.residue_dtype(2**31 + 11) is linalg.residue_dtype(2**61 - 1) is object
    assert linalg.residue_dtype(0) is object  # QQ
    assert linalg.int_dtype(2**63 - 1) is np.int64 and linalg.int_dtype(2**63) is object


def _count_bareiss(monkeypatch):
    calls = []
    bareiss = linalg._bareiss_rank

    def counted(A):
        calls.append(A)
        return bareiss(A)

    monkeypatch.setattr(linalg, "_bareiss_rank", counted)
    return calls


P = 2**31 - 1


@pytest.mark.parametrize(
    "rows",
    [
        [[P, 0], [0, 1]],
        # cleared of denominators the first row is (P, P), zero mod P
        [[Fraction(P, 3), Fraction(P, 3)], [1, 0]],
    ],
    ids=["entry-P", "row-P/3"],
)
def test_rank_below_full_mod_the_certificate_prime_falls_back(monkeypatch, rows):
    calls = _count_bareiss(monkeypatch)
    assert matrix_rank(rows, QQ) == 2
    assert len(calls) == 1


def test_full_rank_certificate_skips_bareiss(monkeypatch):
    rng = random.Random("linalg/certificate")
    rows = [[_scalar(QQ, rng) for _ in range(9)] for _ in range(6)]
    assert _oracle_rank(rows, None) == 6
    calls = _count_bareiss(monkeypatch)
    assert matrix_rank(rows, QQ) == 6
    assert calls == []


# -- the row-pivot kernel ---------------------------------------------------------

KERNEL_PRIMES = [7, 2**31 - 1, 2**61 - 1]
KERNEL_IDS = ["GF7", "GF31", "GF61"]


def _combination(rows, weights, p):
    """sum_k weights[k] * rows[k], mod p unless p is None."""
    out = [sum(w * row[j] for w, row in zip(weights, rows)) for j in range(len(rows[0]))]
    return out if p is None else [v % p for v in out]


def _band(m, n, draw):
    """Row k holds columns k-1 and k: at the pivot of row k only row k+1 is
    hot, so every pivot but the last two updates the hot rows alone."""
    return [[draw() if c in (k - 1, k) else 0 for c in range(n)] for k in range(m)]


def _kernel_matrices(p, rng):
    """(name, rows) for the kernel, by the update the pivots take; the
    dependent rows become zero in the middle of the elimination and the
    zero rows are zero from the start."""
    draw = (lambda: rng.randint(-9, 9) or 1) if p is None else (lambda: rng.randrange(1, p))
    dense = [[draw() for _ in range(7)] for _ in range(5)]
    dense.insert(3, _combination(dense[:2], [2, -3], p))  # zero after two pivots
    yield "dense", dense
    band = _band(9, 10, draw)
    band.insert(4, _combination([band[0], band[2]], [1, 1], p))  # hot at pivots 0-2
    band.insert(7, [0] * 10)
    band.insert(8, _combination(band[5:7], [3, -1], p))
    yield "hot rows", band
    # a band over the first 6 columns, then dense rows over the last 4
    mixed = [row + [0] * 4 for row in _band(6, 6, draw)]
    tail = [[0] * 6 + [draw() for _ in range(4)] for _ in range(4)]
    mixed += tail + [_combination(tail[:3], [1, 2, 3], p), [0] * 10]
    mixed.insert(2, _combination([mixed[0], mixed[1]], [5, 1], p))
    yield "both", mixed


@pytest.mark.parametrize("p", KERNEL_PRIMES, ids=KERNEL_IDS)
def test_rank_mod_p_matches_oracle_on_every_update(p):
    rng = random.Random(f"linalg/kernel/{p}")
    for name, rows in _kernel_matrices(p, rng):
        want = _oracle_rank(rows, p)
        assert linalg.rank_mod_p([list(r) for r in rows], p) == want, name
        assert matrix_rank([list(r) for r in rows], GF(p)) == want, name


def test_kernel_matrices_have_the_planted_ranks():
    rng = random.Random("linalg/kernel/ranks")
    ranks = {name: _oracle_rank(rows, 7) for name, rows in _kernel_matrices(7, rng)}
    assert ranks == {"dense": 5, "hot rows": 9, "both": 10}


@pytest.mark.parametrize("p", KERNEL_PRIMES + [None], ids=KERNEL_IDS + ["ZZ"])
def test_kernels_on_sparse_rank_deficient_matrices(p):
    # few hot rows per pivot and many cold ones: mod p an update that
    # touched a cold row, and over the integers (Bareiss) one that skipped
    # it, would leave a dependent row nonzero or zero an independent one
    rng = random.Random(f"linalg/sparse-kernel/{p}")
    draw = (lambda: rng.randint(-9, 9)) if p is None else (lambda: rng.randrange(p))
    for _ in range(30):
        m, n = rng.randint(4, 12), rng.randint(4, 12)
        basis = [
            [draw() if rng.random() < 0.25 else 0 for _ in range(n)]
            for _ in range(rng.randint(1, m))
        ]
        rows = [
            _combination(basis, [draw() if rng.random() < 0.4 else 0 for _ in basis], p)
            for _ in range(m)
        ]
        rng.shuffle(rows)
        if p is None:
            want = _oracle_rank([[Fraction(v) for v in row] for row in rows], None)
            assert linalg._bareiss_rank(rows) == want
        else:
            assert linalg.rank_mod_p(rows, p) == _oracle_rank(rows, p)


def test_bareiss_matches_oracle_on_every_update():
    rng = random.Random("linalg/kernel/bareiss")
    for name, rows in _kernel_matrices(None, rng):
        want = _oracle_rank([[Fraction(v) for v in row] for row in rows], None)
        assert linalg._bareiss_rank([list(r) for r in rows]) == want, name
        assert matrix_rank(rows, QQ) == want, name
