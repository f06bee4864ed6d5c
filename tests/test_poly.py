import math
import re
import sys
from fractions import Fraction

import pytest

from apolar import (
    GF,
    QQ,
    DEFAULT_FIELD,
    ExactDivisionError,
    Form,
    MixedRingsError,
    NotHomogeneousError,
    ParseError,
    UnknownVariableError,
    ZeroFormError,
    exact_div,
    form_gcd,
    monomials_of_degree,
    parse_form,
    random_form,
    trial_rng,
)
from apolar.poly import MAX_NVARS, _gcd2, grlex_key


def test_monomials_of_degree_count_and_order():
    monos = monomials_of_degree(3, 2)
    assert len(monos) == math.comb(3 + 2 - 1, 2)
    assert monos[0] == (2, 0, 0)
    assert monos[-1] == (0, 0, 2)
    # strictly descending in graded lex
    keys = [grlex_key(m) for m in monos]
    assert keys == sorted(keys, reverse=True)


def test_form_constructor_validates():
    F = Form(2, QQ, [((1, 1), 2), ((2, 0), 1)])
    assert F.degree == 2 and len(F.coeffs) == 2
    with pytest.raises(NotHomogeneousError):
        Form(2, QQ, [((1, 0), 1), ((2, 0), 1)])
    with pytest.raises(MixedRingsError):
        Form(2, QQ, [((1, 0, 0), 1)])
    # duplicate monomials accumulate, zeros are dropped
    G = Form(2, QQ, [((1, 1), 1), ((1, 1), -1)])
    assert G.is_zero


def test_addition_and_scaling():
    A = parse_form("y0^2 + y1^2", 2, QQ)
    B = parse_form("y0^2 - y1^2", 2, QQ)
    assert str(A + B) == "2*y0^2"
    assert str(A - A) == "0"
    assert str(A.scale(Fraction(1, 2))) == "1/2*y0^2 + 1/2*y1^2"
    with pytest.raises(NotHomogeneousError):
        A + parse_form("y0", 2, QQ)


def test_multiplication_and_powers():
    L = parse_form("y0 + y1", 2, QQ)
    assert str(L * L) == "y0^2 + 2*y0*y1 + y1^2"
    assert str(L**3) == "y0^3 + 3*y0^2*y1 + 3*y0*y1^2 + y1^3"
    assert (L**0).degree == 0
    with pytest.raises(ValueError):
        L ** (-1)
    with pytest.raises(MixedRingsError):
        L * parse_form("y0", 2, GF(7))


def test_partial_derivative():
    F = parse_form("y0^3 + y0*y1^2", 2, QQ)
    assert str(F.partial(0)) == "3*y0^2 + y1^2"
    assert str(F.partial(1)) == "2*y0*y1"
    assert F.partial(1).partial(1) == parse_form("2*y0", 2, QQ)
    with pytest.raises(IndexError):
        F.partial(2)


def test_canonical_printing_round_trips():
    cases = [
        "y0^4 + y1^4",
        "3*y0^2*y1 - y1^3",
        "1/2*y0*y1*y2 - 5*y2^3",
        "y0^5 - y0^4*y1 + 2*y0^3*y1^2 - 3/7*y1^5",
    ]
    for text in cases:
        F = parse_form(text, 3, QQ)
        assert str(F) == text
        assert parse_form(str(F), 3, QQ) == F


def test_print_random_forms_reparse_equal():
    for t in range(30):
        rng = trial_rng(5, t)
        fld = QQ if t % 2 else DEFAULT_FIELD
        F = random_form(rng.randrange(1, 5), rng.randrange(1, 6), fld, rng)
        assert parse_form(str(F), F.nvars, fld) == F


def test_parse_accepts_constants_and_zero():
    assert parse_form("0", 3, QQ).is_zero
    C = parse_form("7", 2, QQ)
    assert C.degree == 0 and not C.is_zero
    assert parse_form("-2/3", 1, QQ) == Form.constant(1, QQ, Fraction(-2, 3))


def test_parse_error_positions():
    with pytest.raises(UnknownVariableError):
        parse_form("y0 + y5", 3, QQ)
    with pytest.raises(NotHomogeneousError):
        parse_form("y0^2 + y1", 3, QQ)
    with pytest.raises(ParseError):
        parse_form("y0 + ", 3, QQ)
    with pytest.raises(ParseError):
        parse_form("x0^2", 3, QQ)
    with pytest.raises(ParseError):
        parse_form("", 3, QQ)
    err = None
    try:
        parse_form("y0^2 + y9^2", 3, QQ)
    except UnknownVariableError as exc:
        err = exc
    assert err is not None and "position" in str(err)


def test_parse_gf_residues():
    F = parse_form("-y0^2 + 8*y1^2", 2, GF(7))
    # canonical residues: -1 -> 6, 8 -> 1
    assert str(F) == "6*y0^2 + y1^2"


def test_exact_division():
    A = parse_form("y0^2 - y1^2", 2, QQ)
    L = parse_form("y0 - y1", 2, QQ)
    assert str(exact_div(A, L)) == "y0 + y1"
    with pytest.raises(ExactDivisionError):
        exact_div(parse_form("y0^2 + y1^2", 2, QQ), L)
    with pytest.raises(ZeroDivisionError):
        exact_div(A, Form.zero(2, QQ))


def test_gcd_shared_square_factor():
    # both inputs share exactly (y0+y1)^2
    A = parse_form("2*y0^3 + 4*y0^2*y1 + 2*y0*y1^2", 2, QQ)
    B = parse_form("3*y0^2*y1 + 6*y0*y1^2 + 3*y1^3", 2, QQ)
    G = form_gcd([A, B])
    assert str(G) == "y0^2 + 2*y0*y1 + y1^2"
    exact_div(A, G)
    exact_div(B, G)


def test_gcd_monomials_and_disjoint_variables():
    A = parse_form("y0^2*y1^3", 3, QQ)
    assert str(form_gcd([A.partial(0), A.partial(1)])) == "y0*y1^2"
    # disjoint variable sets share only the trivial factor
    assert form_gcd([parse_form("y0^2", 3, QQ), parse_form("y1*y2", 3, QQ)]).degree == 0


def test_gcd_corner_cases():
    F = parse_form("y0^2 + y0*y1", 2, QQ)
    assert form_gcd([F, Form.zero(2, QQ)]) == F.monic()
    assert form_gcd([F.scale(Fraction(5))]) == F.monic()
    with pytest.raises(ZeroFormError):
        form_gcd([])
    with pytest.raises(ZeroFormError):
        form_gcd([Form.zero(2, QQ)])
    with pytest.raises(MixedRingsError):
        form_gcd([F, parse_form("y0", 2, GF(7))])


def test_gcd_of_coprime_forms_is_constant():
    A = parse_form("y0^2 + y1^2", 3, QQ)
    B = parse_form("y0*y2 + y1^2", 3, QQ)
    assert form_gcd([A, B]).degree == 0


def test_gcd_randomized_common_factor():
    """gcd(G*A, G*B) must be divisible by G; equality when A, B coprime."""
    for t in range(20):
        rng = trial_rng(7, t)
        fld = QQ if t % 2 else GF(10007)
        nv = rng.randrange(2, 4)
        G = random_form(nv, rng.randrange(1, 3), fld, rng)
        A = random_form(nv, rng.randrange(1, 3), fld, rng)
        B = random_form(nv, rng.randrange(1, 3), fld, rng)
        got = form_gcd([G * A, G * B])
        exact_div(got, G.monic())


def test_gcd_over_prime_field():
    fld = GF(101)
    L = parse_form("y0 + 3*y1", 2, fld)
    M = parse_form("y0 + 5*y1", 2, fld)
    G = form_gcd([L**2 * M, L * M**2])
    assert G == (L * M).monic()


GCD_FIELDS = [QQ, GF(7), DEFAULT_FIELD, GF(2**61 - 1)]


@pytest.mark.parametrize("fld", GCD_FIELDS, ids=["q", "p:7", "p:2^31-1", "p:2^61-1"])
def test_binary_gcd_matches_subresultant_path(fld):
    # the binary path runs Euclid on f(y0, 1); _gcd2 is the subresultant
    # path that three or more variables keep
    for t in range(60):
        rng = trial_rng(8, 4 * t + GCD_FIELDS.index(fld))
        common = random_form(2, rng.randrange(0, 4), fld, rng, terms=rng.randrange(1, 4))
        power = Form.monomial(2, fld, (0, rng.choice([0, 0, 1, 3])))
        forms = []
        for _ in range(rng.randrange(1, 4)):
            f = random_form(2, rng.randrange(0, 4), fld, rng, terms=rng.randrange(1, 4))
            if rng.random() < 0.2:
                f = Form.monomial(2, fld, (0, rng.randrange(0, 3)))
            forms.append(f * common * power if rng.random() < 0.8 else f)
        if rng.random() < 0.3:
            forms.insert(rng.randrange(len(forms) + 1), Form.zero(2, fld))
        if rng.random() < 0.1:
            forms.append(Form.constant(2, fld, fld.random(rng) or fld.one))
        want = Form.zero(2, fld)
        for f in forms:
            want = _gcd2(want, f)
        got = form_gcd(forms)
        assert got == want.monic(), forms
        assert all(type(c) is type(fld.one) for c in got.coeffs.values())


def test_random_form_support_size_and_determinism():
    rng = trial_rng(1, 0)
    F = random_form(4, 3, DEFAULT_FIELD, rng, terms=5)
    assert 1 <= len(F.coeffs) <= 5
    again = random_form(4, 3, DEFAULT_FIELD, trial_rng(1, 0), terms=5)
    assert F == again


def test_extend_and_variables():
    F = parse_form("y0^2 + y1^2", 2, QQ)
    G = F.extend(2)
    assert G.nvars == 4 and G.degree == 2
    assert F.variables() == {0, 1}
    assert parse_form("y1^3", 3, QQ).variables() == {1}


# The exact message (with its position) and the position of each error kind.
@pytest.mark.parametrize(
    "text, nvars, fld, kind, message, pos",
    [
        ("y0 + x1", 3, QQ, ParseError, "unexpected character 'x'", 5),
        ("y0 ++ 3x", 3, QQ, ParseError, "unexpected character 'x'", 7),
        ("y9 + y0\t#", 3, QQ, ParseError, "unexpected character '#'", 8),
        ("", 3, QQ, ParseError, "empty form text", 0),
        ("  \t", 3, QQ, ParseError, "empty form text", 0),
        ("y0 + ", 3, QQ, ParseError, "expected a term", 5),
        ("-", 3, QQ, ParseError, "expected a term", 1),
        ("y0^2 + y1 +", 3, QQ, ParseError, "expected a term", 11),
        ("3/ *y0", 3, QQ, ParseError, "expected denominator", 3),
        ("3 /", 3, QQ, ParseError, "expected denominator", 3),
        ("y^2", 3, QQ, ParseError, "expected variable index", 1),
        ("2*y ", 3, QQ, ParseError, "expected variable index", 4),
        ("y0^", 3, QQ, ParseError, "expected exponent", 3),
        ("y0 ^ *y1", 3, QQ, ParseError, "expected exponent", 5),
        ("3/0*y0", 3, QQ, ParseError, "zero denominator", 2),
        ("y0 + 1/ 14*y1", 3, GF(7), ParseError, "zero denominator", 8),
        ("3 y0", 3, QQ, ParseError, "expected '*' after coefficient", 2),
        ("3/4/5", 3, QQ, ParseError, "expected '*' after coefficient", 3),
        ("y0 - 2^2", 3, QQ, ParseError, "expected '*' after coefficient", 6),
        ("3*", 3, QQ, ParseError, "expected a variable factor 'y<index>'", 2),
        ("3* + y0", 3, QQ, ParseError, "expected a variable factor 'y<index>'", 3),
        ("+-y0", 3, QQ, ParseError, "expected a variable factor 'y<index>'", 1),
        ("*y0", 3, QQ, ParseError, "expected a variable factor 'y<index>'", 0),
        ("y0 y1", 3, QQ, ParseError, "expected '+' or '-' between terms", 3),
        ("y0^2 3", 3, QQ, ParseError, "expected '+' or '-' between terms", 5),
        ("y0*y1 / 2", 3, QQ, ParseError, "expected '+' or '-' between terms", 6),
        ("y0 + y5", 3, QQ, UnknownVariableError,
         "variable y5 outside ring with 3 variables", 6),
        ("y 12^2 + +", 3, QQ, UnknownVariableError,
         "variable y12 outside ring with 3 variables", 2),
        ("y0", 0, QQ, UnknownVariableError,
         "variable y0 outside ring with 0 variables", 1),
    ],
)
def test_parse_error_messages_and_positions(text, nvars, fld, kind, message, pos):
    with pytest.raises(kind) as info:
        parse_form(text, nvars, fld)
    assert type(info.value) is kind
    assert str(info.value) == f"{message} (at position {pos})"
    assert info.value.pos == pos


@pytest.mark.parametrize(
    "text, pos",
    [
        ("1" * 5000 + "*y0", 0),  # coefficient
        ("y0 + 3/" + "2" * 5000 + "*y0", 7),  # denominator
        ("y" + "0" * 4400 + "^2", 1),  # index, even one of zeros
        ("y0^" + "1" * 4301, 3),  # exponent
        ("y9 + " + "1" * 5000 + "*y0", 5),  # beats the unknown y9 before it
    ],
    ids=["coefficient", "denominator", "index", "exponent", "precedence"],
)
def test_parse_numbers_beyond_the_integer_string_limit(text, pos):
    # Python converts at most sys.get_int_max_str_digits() digits (4300 by
    # default); a longer number is a positioned ParseError, not ValueError,
    # found before the scan like an unexpected character
    digits = len(re.match(r"\d+", text[pos:])[0])
    assert digits > sys.get_int_max_str_digits()
    with pytest.raises(ParseError) as info:
        parse_form(text, 1, QQ)
    assert type(info.value) is ParseError
    assert str(info.value) == f"number of {digits} digits is too long (at position {pos})"
    assert info.value.pos == pos


def test_parse_refuses_variable_counts_outside_the_limit():
    F = parse_form(f"y{MAX_NVARS - 1}^2", MAX_NVARS, QQ)
    assert F.nvars == MAX_NVARS and F.degree == 2
    for nvars in (-1, MAX_NVARS + 1, 10**30):
        with pytest.raises(ValueError, match=f"nvars {nvars} outside 0..{MAX_NVARS}"):
            parse_form("y0^2", nvars, QQ)


def test_parse_long_numbers_when_python_sets_no_limit():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        F = parse_form("1" * 5000 + "*y0^2", 1, QQ)
    finally:
        sys.set_int_max_str_digits(old)
    assert F.coeffs == {(2,): int("1" * 4000) * 10**1000 + int("1" * 1000)}


def test_parse_homogeneity_error_names_the_term():
    with pytest.raises(NotHomogeneousError) as info:
        parse_form("y0^2 + 0*y2 - 3 * y1", 3, QQ)
    assert str(info.value) == "term of degree 1 at position 14 in a degree-2 form"
    # zero terms take no part in the degree; cancelling terms still do
    assert parse_form("0*y0 + y1^2", 3, QQ) == parse_form("y1^2", 3, QQ)
    with pytest.raises(NotHomogeneousError):
        parse_form("y0 - y0 + y1^2", 3, QQ)


_FUZZ_ALPHABET = "y0123456789+-*/^ " + "yy0012+-* " + "x\t٣²"


def test_parse_fuzz_returns_a_form_or_a_positioned_error():
    """Random strings over the grammar's characters, plus a foreign letter,
    a tab, a Unicode decimal digit and a superscript digit: every input
    parses to a form that round-trips through str, or raises one of the
    parser's errors with a position inside the text."""
    rng = trial_rng(13, 0)
    fields = [QQ, GF(7), DEFAULT_FIELD]
    parsed = 0
    for _ in range(3000):
        text = "".join(rng.choice(_FUZZ_ALPHABET) for _ in range(rng.randrange(12)))
        nvars = rng.randrange(5)
        fld = rng.choice(fields)
        try:
            F = parse_form(text, nvars, fld)
        except ParseError as exc:
            assert 0 <= exc.pos <= len(text), text
        except NotHomogeneousError as exc:
            pos = int(re.search(r"at position (\d+)", str(exc))[1])
            assert 0 <= pos <= len(text), text
        else:
            parsed += 1
            assert parse_form(str(F), nvars, fld) == F, text
    assert parsed > 50
