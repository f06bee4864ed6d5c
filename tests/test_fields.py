from fractions import Fraction

import pytest

from apolar import (
    GF,
    QQ,
    DEFAULT_FIELD,
    DEFAULT_PRIME,
    MixedFieldsError,
    parse_field_spec,
    trial_rng,
)
from apolar import fields


def test_rational_basic_arithmetic():
    a = QQ.from_ratio(2, 3)
    b = QQ.from_ratio(-1, 6)
    assert QQ.add(a, b) == Fraction(1, 2)
    assert QQ.mul(a, b) == Fraction(-1, 9)
    assert QQ.neg(a) == Fraction(-2, 3)
    assert QQ.inv(a) == Fraction(3, 2)
    assert QQ.div(QQ.one, a) == Fraction(3, 2)
    assert QQ.is_zero(QQ.sub(a, a))


def test_rational_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        QQ.inv(QQ.zero)
    with pytest.raises(ZeroDivisionError):
        QQ.from_ratio(1, 0)


def test_rational_coerce_rejects_foreign_scalars():
    assert QQ.coerce(7) == Fraction(7)
    assert QQ.coerce(Fraction(1, 2)) == Fraction(1, 2)
    with pytest.raises(MixedFieldsError):
        QQ.coerce(0.5)
    with pytest.raises(MixedFieldsError):
        QQ.coerce(True)


def test_gf_arithmetic_mod_p():
    F7 = GF(7)
    assert F7.add(5, 4) == 2
    assert F7.mul(3, 5) == 1
    assert F7.neg(2) == 5
    assert F7.inv(3) == 5
    assert F7.sub(2, 5) == 4
    # residues are canonical: never negative
    assert F7.coerce(-1) == 6
    with pytest.raises(ZeroDivisionError):
        F7.inv(0)


def test_gf_inverse_is_fermat_consistent():
    p = DEFAULT_PRIME
    fld = GF(p)
    for a in (2, 3, 12345, p - 1):
        assert fld.mul(a, fld.inv(a)) == 1
        assert fld.inv(a) == pow(a, p - 2, p)


def test_gf_requires_prime_modulus():
    with pytest.raises(ValueError):
        GF(91)  # 7 * 13
    with pytest.raises(ValueError):
        GF(1)


def test_primality_is_tested_once_per_modulus():
    small = [n for n in range(2, 300) if all(n % q for q in range(2, n))]
    for _ in range(2):  # the memoized answers match trial division
        assert [n for n in range(300) if fields.is_prime(n)] == small
    want = GF(2**61 - 1)
    hits = fields.is_prime.cache_info().hits
    for _ in range(3):
        assert parse_field_spec("p:2305843009213693951") == want
    assert fields.is_prime.cache_info().hits == hits + 3
    for _ in range(2):
        with pytest.raises(ValueError):
            GF(91)


def test_gf_coerce_fraction_with_unit_denominator():
    F11 = GF(11)
    assert F11.coerce(Fraction(25, 1)) == 3
    with pytest.raises(MixedFieldsError):
        F11.coerce(Fraction(1, 2))
    with pytest.raises(MixedFieldsError):
        F11.coerce(0.25)


def test_field_equality_and_hash():
    assert GF(7) == GF(7)
    assert GF(7) != GF(11)
    assert QQ != GF(7)
    assert len({GF(7), GF(7), QQ}) == 2


def test_parse_field_spec():
    assert parse_field_spec("q") is QQ
    assert parse_field_spec("p:2147483647") == DEFAULT_FIELD
    assert parse_field_spec("P:7") == GF(7)
    with pytest.raises(ValueError):
        parse_field_spec("gf9")
    with pytest.raises(ValueError):
        parse_field_spec("p:91")
    with pytest.raises(ValueError):
        parse_field_spec("p:5")  # too small for degree-5 derivatives
    with pytest.raises(ValueError):
        parse_field_spec("p:x")


def test_random_scalars_are_reproducible():
    a = [QQ.random(trial_rng(3, 1)) for _ in range(4)]
    b = [QQ.random(trial_rng(3, 1)) for _ in range(4)]
    assert a == b
    p = DEFAULT_FIELD
    xs = [p.random(trial_rng(3, 2)) for _ in range(10)]
    assert xs == [p.random(trial_rng(3, 2)) for _ in range(10)]
    assert all(0 <= x < DEFAULT_PRIME for x in xs)


def test_sign_abs_and_formatting():
    neg, mag = QQ.sign_abs(Fraction(-3, 4))
    assert neg and mag == Fraction(3, 4)
    assert QQ.format_scalar(Fraction(-3, 4)) == "-3/4"
    F7 = GF(7)
    neg, mag = F7.sign_abs(6)
    assert not neg and mag == 6
    assert F7.format_scalar(6) == "6"
