import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import apolar.apolarity
import span_oracle
from apolar import linalg
from apolar import (
    QQ,
    DEFAULT_FIELD,
    DEFAULT_PRIME,
    GF,
    Form,
    HilbertFunction,
    ZeroFormError,
    apply_operator,
    catalecticant,
    codimension,
    hilbert_function,
    hilbert_functions,
    monomials_of_degree,
    parse_form,
    power_sum_form,
    random_form,
    trial_rng,
)


def test_apply_operator_basics():
    F = parse_form("y0^3", 2, QQ)
    assert str(apply_operator((1, 0), F)) == "3*y0^2"
    assert str(apply_operator((3, 0), F)) == "6"
    assert apply_operator((0, 1), F).is_zero
    G = parse_form("y0*y1", 2, QQ)
    assert str(apply_operator((1, 1), G)) == "1"


def test_apply_operator_falling_factorials():
    # x^2 acting on y^4 gives 4*3 * y^2
    F = parse_form("y0^4", 1, QQ)
    assert str(apply_operator((2,), F)) == "12*y0^2"


def test_catalecticant_shape_and_entries():
    F = parse_form("y0^2 + y1^2", 2, QQ)
    C = catalecticant(F, 1)
    assert len(C.row_monomials) == 2 and len(C.col_monomials) == 2
    dense = C.dense()
    assert dense[0][0] == 2 and dense[1][1] == 2
    assert dense[0][1] == 0 and dense[1][0] == 0
    assert C.rank() == 2
    with pytest.raises(ValueError):
        catalecticant(F, 3)


def test_hilbert_function_power_sums_small():
    for fld in (QQ, DEFAULT_FIELD):
        for r in (1, 2, 5):
            for e in (3, 4, 5):
                hf = hilbert_function(power_sum_form(r, e, fld))
                assert tuple(hf) == tuple([1] + [r] * (e - 1) + [1])
    assert tuple(hilbert_function(power_sum_form(1, 4, QQ))) == (1, 1, 1, 1, 1)


def test_hilbert_function_generic_ternary_quintic():
    rng = trial_rng(2, 0)
    F = random_form(3, 5, DEFAULT_FIELD, rng)
    assert tuple(hilbert_function(F)) == (1, 3, 6, 6, 3, 1)


def test_hilbert_function_binary_forms():
    # generic binary quartic has full middle rank 3; the power sum stays at 2
    F = parse_form("y0^4 + y0*y1^3", 2, QQ)
    assert tuple(hilbert_function(F)) == (1, 2, 3, 2, 1)
    assert tuple(hilbert_function(parse_form("y0^4 + y1^4", 2, QQ))) == (1, 2, 2, 2, 1)
    assert tuple(hilbert_function(parse_form("y0^4", 2, QQ))) == (1, 1, 1, 1, 1)


def test_hilbert_function_zero_form_rejected():
    with pytest.raises(ZeroFormError):
        hilbert_function(Form.zero(3, QQ))
    with pytest.raises(ZeroFormError):
        codimension(Form.zero(3, QQ))


def test_codimension_counts_essential_variables():
    assert codimension(power_sum_form(6, 3, QQ)) == 6
    # y0^2 + 2 y0 y1 + y1^2 = (y0+y1)^2 has one essential variable
    assert codimension(parse_form("y0^2 + 2*y0*y1 + y1^2", 2, QQ)) == 1
    assert codimension(Form.constant(3, QQ, QQ.one)) == 0


def test_permutation_invariance():
    for t in range(10):
        rng = trial_rng(4, t)
        nv = rng.randrange(2, 5)
        F = random_form(nv, rng.randrange(2, 5), DEFAULT_FIELD, rng)
        perm = list(range(nv))
        rng.shuffle(perm)
        moved = Form(
            nv,
            F.field,
            [
                (tuple(mono[perm[i]] for i in range(nv)), c)
                for mono, c in F.coeffs.items()
            ],
        )
        assert tuple(hilbert_function(moved)) == tuple(hilbert_function(F))


def test_symmetry_on_random_forms():
    for t in range(20):
        rng = trial_rng(6, t)
        F = random_form(rng.randrange(2, 6), rng.randrange(2, 6), DEFAULT_FIELD, rng)
        hf = hilbert_function(F)
        assert hf.is_symmetric


def test_matches_span_oracle():
    for t in range(20):
        rng = trial_rng(8, t)
        fld = QQ if t % 2 else DEFAULT_FIELD
        p = None if t % 2 else DEFAULT_PRIME
        F = random_form(rng.randrange(2, 5), rng.randrange(2, 5), fld, rng,
                        terms=rng.randrange(2, 9))
        got = tuple(hilbert_function(F))
        assert got == span_oracle.span_hilbert(F.coeffs, F.nvars, F.degree, p)


def test_matches_span_oracle_beyond_int64_primes():
    # p*p >= 2^62 moves mod-p elimination onto Python integers
    p = 2**61 - 1
    fld = GF(p)
    for t in range(6):
        rng = trial_rng(10, t)
        F = random_form(rng.randrange(2, 5), rng.randrange(2, 5), fld, rng,
                        terms=rng.randrange(2, 9))
        got = tuple(hilbert_function(F))
        assert got == span_oracle.span_hilbert(F.coeffs, F.nvars, F.degree, p)


@pytest.mark.parametrize("p", [None, 7, DEFAULT_PRIME, 2**61 - 1],
                         ids=["q", "p:7", "p:2^31-1", "p:2^61-1"])
def test_half_rank_hilbert_function_matches_span_oracle(p):
    # the oracle computes every h_i itself, so this checks h_{e-i} = h_i too
    fld = QQ if p is None else GF(p)
    for t in range(16):
        rng = trial_rng(12, t)
        degree = 2 + t % 4
        F = random_form(rng.randrange(2, 5), degree, fld, rng,
                        terms=rng.randrange(1, 9))
        got = tuple(hilbert_function(F))
        assert got == span_oracle.span_hilbert(F.coeffs, F.nvars, F.degree, p)


def test_hilbert_function_ranks_only_the_lower_half(monkeypatch):
    built = []
    real = apolar.apolarity._assemble

    def counting(terms, i):
        built.append(i)
        return real(terms, i)

    monkeypatch.setattr(apolar.apolarity, "_assemble", counting)
    for e in range(2, 7):
        built.clear()
        hf = hilbert_function(power_sum_form(3, e, QQ))
        # h_0 = 1 for every nonzero form, so Cat_0 is never built
        assert sorted(built) == list(range(1, e // 2 + 1))
        assert len(hf) == e + 1 and hf[0] == 1


def test_rational_and_modp_agree_on_integer_forms():
    # semicontinuity: equality holds generically, and exactly for these
    for t in range(8):
        rng = trial_rng(9, t)
        Fq = random_form(rng.randrange(2, 5), rng.randrange(2, 5), QQ, rng)
        Fp = Form(
            Fq.nvars,
            DEFAULT_FIELD,
            [(m, int(c)) for m, c in Fq.coeffs.items()],
        )
        assert tuple(hilbert_function(Fq)) == tuple(hilbert_function(Fp))


def test_hilbert_function_helpers():
    hf = HilbertFunction((1, 13, 12, 13, 1))
    assert str(hf) == "(1,13,12,13,1)"
    assert hf.socle_degree == 4
    assert hf.codimension == 13
    assert hf.is_symmetric
    assert not HilbertFunction((1, 3, 2, 1)).is_symmetric
    assert HilbertFunction.parse("(1,13,12,13,1)") == hf


@pytest.mark.parametrize("p", [None, 7, 2**31 - 1, 2**61 - 1])
def test_catalecticant_rows_are_operator_images(p):
    # sparse forms in many variables: each term splits over its own support
    fld = QQ if p is None else GF(p)
    rng = random.Random(f"catalecticant/{p}")
    for _ in range(25):
        F = random_form(rng.randint(3, 12), rng.randint(2, 5), fld, rng,
                        terms=rng.randint(1, 12))
        for i in range(F.degree + 1):
            C = catalecticant(F, i)
            rows = {}
            for (a, b), v in C.entries.items():
                assert not fld.is_zero(v)
                rows.setdefault(a, {})[C.col_monomials[b]] = v
            for a, op in enumerate(C.row_monomials):
                assert rows.get(a, {}) == apply_operator(op, F).coeffs


# -- the vectorized kernel against operator images and the span oracle --------

ORACLE_FIELDS = [None, 7, 2**31 - 1, 2**61 - 1]
ORACLE_IDS = ["q", "p:7", "p:2^31-1", "p:2^61-1"]


def _coefficient(fld, rng):
    """Nonzero; over QQ with denominator 1, 3 or 7."""
    if fld is QQ:
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 60), rng.choice((1, 3, 7)))
    return rng.randrange(1, fld.p)


def _form(nvars, monos, fld, rng):
    return Form(nvars, fld, [(m, _coefficient(fld, rng)) for m in monos])


def _position(mono):
    """Index of mono in monomials_of_degree(len(mono), sum(mono)), counted
    directly: the monomials that agree before k and are larger at k."""
    n, rest, pos = len(mono), sum(mono), 0
    for k, m in enumerate(mono[:-1]):
        for bigger in range(m + 1, rest + 1):
            pos += math.comb(rest - bigger + n - k - 2, n - k - 2)
        rest -= m
    return pos


def _operators(F):
    """For every degree i, the operator monomials dividing some term of F
    and the number of (term, operator) pairs."""
    ops = [set() for _ in range(F.degree + 1)]
    pairs = [0] * (F.degree + 1)
    for mono in F.coeffs:
        support = [k for k, m in enumerate(mono) if m]
        for part in itertools.product(*(range(mono[k] + 1) for k in support)):
            op = [0] * F.nvars
            for k, o in zip(support, part):
                op[k] = o
            ops[sum(part)].add(tuple(op))
            pairs[sum(part)] += 1
    return [(sorted(o), n) for o, n in zip(ops, pairs)]


def _rows(C):
    """Cat's entries grouped by row; every one is nonzero."""
    rows = {}
    for (a, b), v in C.entries.items():
        assert not C.field.is_zero(v)
        rows.setdefault(a, {})[b] = v
    return rows


def _check_catalecticants(F, rng, degrees=None, sample=None):
    """For each i: the rows of Cat_i holding an entry are exactly the
    operators dividing a term, there is one entry per (term, operator)
    pair, and each checked row (all, or `sample` of them) is the
    operator's image under apply_operator, column for column."""
    for i, (ops, pairs) in enumerate(_operators(F)):
        if degrees is not None and i not in degrees:
            continue
        C = catalecticant(F, i)
        rows = _rows(C)
        assert sorted(rows) == sorted(_position(op) for op in ops)
        assert len(C.entries) == pairs
        for op in ops if sample is None else rng.sample(ops, min(sample, len(ops))):
            image = apply_operator(op, F).coeffs
            assert rows[_position(op)] == {_position(c): v for c, v in image.items()}


def test_position_counts_the_graded_lex_listing():
    for n in range(1, 5):
        for d in range(5):
            listing = monomials_of_degree(n, d)
            assert [_position(m) for m in listing] == list(range(len(listing)))


@pytest.mark.parametrize("p", ORACLE_FIELDS, ids=ORACLE_IDS)
def test_dense_forms_match_operator_images_and_oracle(p):
    # every monomial of degree 4 or 5 in 12-16 variables, so each (row,
    # column) pair is one term's entry: the shape `restrict` gives a pure
    # power y^e when a dense H eliminates y
    fld = QQ if p is None else GF(p)
    rng = random.Random(f"dense/{p}")
    for n, d in ((12, 4), (16, 4), (12, 5)):
        F = _form(n, monomials_of_degree(n, d), fld, rng)
        for i in range(d + 1):
            C = catalecticant(F, i)
            assert len(C.entries) == C.nrows * C.ncols
            rows = _rows(C)
            for op in rng.sample(monomials_of_degree(n, i), 1):
                image = apply_operator(op, F).coeffs
                assert rows[_position(op)] == {_position(c): v for c, v in image.items()}
    # the oracle over QQ is slow on long fractions, so it gets fewer variables
    n = 8 if p is None else 12
    F = _form(n, monomials_of_degree(n, 4), fld, rng)
    assert tuple(hilbert_function(F)) == span_oracle.span_hilbert(F.coeffs, n, 4, p)


@pytest.mark.parametrize("p", ORACLE_FIELDS, ids=ORACLE_IDS)
def test_sparse_forms_in_many_variables_match_operator_images_and_oracle(p):
    # 30-40 variables: a column key packed in base e+1 would need (e+1)^n,
    # far beyond int64; most columns hold one entry, so most rows peel off
    fld = QQ if p is None else GF(p)
    rng = random.Random(f"sparse/{p}")
    for t in range(4):
        n, d = rng.randint(30, 40), 4 + t % 2
        monos = set()
        while len(monos) < 12:
            exps = [0] * n
            for k in rng.choices(range(n), k=d):
                exps[k] += 1
            monos.add(tuple(exps))
        F = _form(n, sorted(monos), fld, rng)
        _check_catalecticants(F, rng, degrees=(1, 2, d - 2, d - 1))
        got = tuple(hilbert_function(F))
        assert got == span_oracle.span_hilbert(F.coeffs, F.nvars, F.degree, p)


def test_high_power_overflows_int64_factors():
    # y0^300: the factors 300!/(300-i)! far exceed int64 (object arrays)
    F = parse_form("2/3*y0^300", 1, QQ)
    assert tuple(hilbert_function(F)) == span_oracle.span_hilbert(F.coeffs, 1, 300, None)
    _check_catalecticants(F, random.Random(0), degrees=(0, 1, 21, 150, 299, 300))
    assert catalecticant(F, 150).entries[0, 0] == Fraction(2, 3) * math.perm(300, 150)


@pytest.mark.parametrize("p", ORACLE_FIELDS[:1] + ORACLE_FIELDS[2:], ids=ORACLE_IDS[:1] + ORACLE_IDS[2:])
def test_keys_beyond_int64_are_python_integers(p):
    # C(100 + 16 - 1, 16) > 2^63 monomials of degree 16 in 100 variables,
    # so the keys of Cat_0 and Cat_16 leave int64; the matrices stay small
    fld = QQ if p is None else GF(p)
    F = parse_form("10000000000000000000000/7*y0^16 + 3*y50^8*y99^8 + y3^5*y7^5*y9^6", 100, fld)
    assert catalecticant(F, 16).nrows > 2**63
    _check_catalecticants(F, random.Random(0), degrees=(0, 1, 8, 15, 16))
    assert tuple(hilbert_function(F)) == span_oracle.span_hilbert(F.coeffs, 100, 16, p)
    # a batch of such forms prefixes Python-integer keys
    G = parse_form("y1^8*y98^8 + 5*y2^16", 100, fld)
    hf, hg = hilbert_function(F), hilbert_function(G)
    assert hilbert_functions([F, G, F]) == [hf, hg, hf]
    assert tuple(hg) == span_oracle.span_hilbert(G.coeffs, 100, 16, p)


@pytest.mark.parametrize("fld", [QQ, GF(7)], ids=["q", "p:7"])
def test_constant_form_without_variables(fld):
    F = parse_form("5", 0, fld)
    C = catalecticant(F, 0)
    assert (C.nrows, C.ncols, dict(C.entries), C.rank()) == (1, 1, {(0, 0): fld.coerce(5)}, 1)
    oracle = span_oracle.span_hilbert(F.coeffs, 0, 0, fld.char or None)
    assert tuple(hilbert_function(F)) == (1,) == oracle
    assert codimension(F) == 0


# -- the fixed-point peel and batches of forms ----------------------------------


def _chain(length, fld, rng):
    """Entries (row, column, value) of a chain with `length` columns: row k
    holds columns k-1 and k where they exist, k = 0..length.  Every column
    holds two entries and only the two end rows hold one, so a column step
    peels nothing and each row step peels one column at each end: the peel
    needs about length/2 rounds to empty it."""
    return [
        (k, c, _coefficient(fld, rng))
        for k in range(length + 1)
        for c in (k - 1, k)
        if 0 <= c < length
    ]


def _integer(fld, v):
    """v as the integer the assembly hands to _ranks."""
    return v.numerator if fld is QQ else v


@pytest.mark.parametrize("p", ORACLE_FIELDS, ids=ORACLE_IDS)
def test_peel_reaches_its_fixed_point_over_several_rounds(p, monkeypatch):
    fld = QQ if p is None else GF(p)
    rng = random.Random(f"peel/{p}")
    # matrix 0: a 7-column chain beside a dense 3x3 block; matrix 1: a
    # 4-column chain; keys are 100 * matrix + key, entries matrix by matrix
    dense = [(r, c, _coefficient(fld, rng)) for r in range(8, 11) for c in range(7, 10)]
    matrices = [_chain(7, fld, rng) + dense, _chain(4, fld, rng)]
    owner, rows, cols, values = [], [], [], []
    for f, entries in enumerate(matrices):
        for r, c, v in entries:
            owner.append(f)
            rows.append(100 * f + r)
            cols.append(100 * f + c)
            values.append(_integer(fld, v))
    blocks = []
    real = linalg.matrix_rank

    def recording(rows, field):
        blocks.append((len(rows), len(rows[0])))
        return real(rows, field)

    monkeypatch.setattr(linalg, "matrix_rank", recording)
    got = apolar.apolarity._ranks(
        fld,
        np.array(owner),
        np.array(rows),
        np.array(cols),
        np.array(values, dtype=np.int64 if p != 2**61 - 1 else object),
        2,
    )
    oracle = []
    for entries in matrices:
        by_row = {}
        for r, c, v in entries:
            by_row.setdefault(r, {})[c] = _integer(fld, v)
        oracle.append(len(span_oracle.span_basis(list(by_row.values()), p)))
    assert got == oracle
    assert oracle[1] == 4 and 7 <= oracle[0] <= 10
    # both chains peel to nothing; only the dense block is eliminated
    assert blocks == [(3, 3)]


def _planted_block(p, rng, m, n, k, top):
    """Entries (row, column, value) of an m x n product of random m x k and
    k x n factors with entries in 1..9 (rank <= k), at rows and columns top,
    top + 1, ...; residues mod p unless p is None, zeros left out."""
    B = [[rng.randint(1, 9) for _ in range(k)] for _ in range(m)]
    C = [[rng.randint(1, 9) for _ in range(n)] for _ in range(k)]
    out = []
    for r in range(m):
        for c in range(n):
            v = sum(B[r][t] * C[t][c] for t in range(k))
            v = v if p is None else v % p
            if v:
                out.append((top + r, top + c, v))
    return out


@pytest.mark.parametrize("p", ORACLE_FIELDS, ids=ORACLE_IDS)
def test_ranks_of_a_batch_whose_blocks_differ_in_shape(p, monkeypatch):
    fld = QQ if p is None else GF(p)
    rng = random.Random(f"blocks/{p}")
    # the chains peel to nothing, so they leave peeled lines around the
    # blocks and one matrix with no block between matrices with one
    matrices = [
        _chain(5, fld, rng) + _planted_block(p, rng, 4, 6, 3, 10),
        _planted_block(p, rng, 2, 5, 2, 0),
        _chain(6, fld, rng),
        _planted_block(p, rng, 3, 3, 2, 0) + _chain(3, fld, rng),
        _chain(2, fld, rng) + _planted_block(p, rng, 6, 3, 3, 20),
    ]
    dtype = object if p == 2**61 - 1 else np.int64
    blocks = []
    real = linalg.matrix_rank

    def recording(rows, field):
        blocks.append((len(rows), len(rows[0])))
        return real(rows, field)

    monkeypatch.setattr(linalg, "matrix_rank", recording)

    def ranks(batch):
        owner, rows, cols, values = [], [], [], []
        for f, entries in enumerate(batch):
            for r, c, v in entries:
                owner.append(f)
                rows.append(100 * f + r)
                cols.append(100 * f + c)
                values.append(_integer(fld, v))
        return apolar.apolarity._ranks(
            fld, np.array(owner), np.array(rows), np.array(cols),
            np.array(values, dtype=dtype), len(batch),
        )

    got = ranks(matrices)
    assert len(set(blocks)) == len(blocks) >= 3
    assert got == [ranks([entries])[0] for entries in matrices]
    oracle = []
    for entries in matrices:
        by_row = {}
        for r, c, v in entries:
            by_row.setdefault(r, {})[c] = _integer(fld, v)
        oracle.append(len(span_oracle.span_basis(list(by_row.values()), p)))
    assert got == oracle


def _mixed_batch(fld, rng):
    """Forms of degree 3..6 in 1..16 variables, shuffled: sparse forms with a
    few terms, whose catalecticants mostly peel to nothing; dense forms in
    2-4 variables, whose middle catalecticants leave a block for
    linalg.matrix_rank; power sums; and one form twice."""
    forms = []
    for e in (3, 4, 5, 6):
        for n in (1, 2, 5, 9, 16):
            monos = set()
            for _ in range(rng.randint(1, 6)):
                exps = [0] * n
                for k in rng.choices(range(n), k=e):
                    exps[k] += 1
                monos.add(tuple(exps))
            forms.append(_form(n, sorted(monos), fld, rng))
        for n in (2, 3, 4):
            forms.append(_form(n, monomials_of_degree(n, e), fld, rng))
        forms.append(power_sum_form(rng.randint(1, 16), e, fld))
    forms.append(forms[rng.randrange(len(forms))])
    rng.shuffle(forms)
    return forms


@pytest.mark.parametrize("p", ORACLE_FIELDS, ids=ORACLE_IDS)
def test_hilbert_functions_of_a_mixed_batch(p, monkeypatch):
    fld = QQ if p is None else GF(p)
    forms = _mixed_batch(fld, random.Random(f"batch/{p}"))
    got = hilbert_functions(forms)
    assert all(type(hf) is HilbertFunction for hf in got)
    oracle = [span_oracle.span_hilbert(F.coeffs, F.nvars, F.degree, p) for F in forms]
    assert [tuple(hf) for hf in got] == oracle
    # one form at a time gives the same, and the batch holds forms with and
    # without a block left for linalg.matrix_rank
    blocks = []
    real = linalg.matrix_rank
    monkeypatch.setattr(
        linalg, "matrix_rank", lambda rows, field: blocks.append(1) or real(rows, field)
    )
    left = []
    for F, hf in zip(forms, got):
        before = len(blocks)
        assert hilbert_function(F) == hf
        left.append(len(blocks) > before)
    assert any(left) and not all(left)


def test_hilbert_functions_across_fields_and_sizes():
    # one list over all four fields and degrees 0..6; a batch holds at most
    # _BATCH_TERMS terms, so the dense forms here split their group
    rng = random.Random("batch/fields")
    forms = []
    for p in ORACLE_FIELDS:
        fld = QQ if p is None else GF(p)
        forms += _mixed_batch(fld, rng)
        forms += [_form(n, monomials_of_degree(n, 6), fld, rng) for n in (8, 9)]
        forms += [parse_form("3", 0, fld), parse_form("2*y0 - y1", 2, fld)]
    rng.shuffle(forms)
    assert sum(len(F.coeffs) for F in forms) > 4 * apolar.apolarity._BATCH_TERMS
    assert hilbert_functions(forms) == [hilbert_function(F) for F in forms]
    assert hilbert_functions([]) == []


def test_hilbert_functions_refuse_as_one_form_does():
    F = power_sum_form(3, 4, QQ)
    with pytest.raises(ZeroFormError):
        hilbert_functions([F, Form.zero(3, QQ)])
    with pytest.raises(ValueError, match="characteristic 3 does not exceed the degree 4"):
        hilbert_functions([F, power_sum_form(2, 4, GF(3))])
