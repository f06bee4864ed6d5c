import random

import pytest

import apolar.apolarity
import span_oracle
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
    real = apolar.apolarity.catalecticant

    def counting(F, i):
        built.append(i)
        return real(F, i)

    monkeypatch.setattr(apolar.apolarity, "catalecticant", counting)
    for e in range(2, 7):
        built.clear()
        hf = hilbert_function(power_sum_form(3, e, QQ))
        assert sorted(built) == list(range(e // 2 + 1))
        assert len(hf) == e + 1


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
