"""The rank kernels against the independent span oracle, over QQ and over
prime fields on both sides of the int64 limit (GF(2^61 - 1) runs on the
object-array path), and the full-rank certificate mod 2^31 - 1 that settles
most ranks over QQ before Bareiss."""

import random
from fractions import Fraction

import pytest

import span_oracle
from apolar import GF, QQ, linalg
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
