"""Sparse homogeneous multivariate forms over an exact coefficient field.

A monomial is an exponent tuple over variables y0..y{n-1}; a form maps
monomials of one common total degree to nonzero scalars of its field.
Canonical text and gcd normalization use graded lexicographic order with
y0 > y1 > ... > y{n-1}.  Forms are immutable by convention: every
operation returns a fresh form.

Greatest common divisors of binary forms are computed by Euclid's
algorithm on f(y0, 1), held as a coefficient list in the field's scalars,
times the least power of y1 that divides every input.  With three or more
variables they are computed by recursive content/primitive-part reduction
with a subresultant pseudo-remainder sequence in the chosen main variable;
common monomial factors are stripped first, and a constant coefficient
short-circuits content extraction.

Form text is parsed in one left-to-right pass.  Three precompiled patterns,
each anchored at the current position, read the text: a coefficient
(integer, optional '/' denominator, optional '*'), a variable factor ('y',
index, optional '^' exponent, optional '*') and a whitespace skip.  An
optional group that matched nothing marks where the text leaves the
grammar, and the error names the next character's position.  Errors keep
the precedence of a tokenize-then-parse reading: one search for a
character outside the grammar runs before the scan, so an unexpected
character anywhere beats every other error; a number longer than Python
converts to an integer comes next, found by a second search; syntax
errors, zero denominators and unknown variables follow in text order, and
a homogeneity error only once the whole text has parsed.
"""

from __future__ import annotations

import re
import sys
from functools import lru_cache

from .errors import (
    ExactDivisionError,
    MixedRingsError,
    NotHomogeneousError,
    ParseError,
    UnknownVariableError,
    ZeroFormError,
)

# The most variables a parsed form may have; `parse_form` refuses more
# before it allocates an exponent list per term.  Measured on the quartic
# y0^4+y1^4+y2^4 (Python 3.11, numpy 2.4.6): `hf` grows linearly, 0.6 s and
# 63 MB at 10^5 variables, 3.2 s and 354 MB at 10^6; `restrict` grows as
# n^2 through its place values (e+1)^j, 0.9 s and 50 MB at 10^4, 173 s and
# 1.6 GB at 10^5, so twice this limit would take about 6 GB.
MAX_NVARS = 100_000


@lru_cache(maxsize=None)
def monomials_of_degree(nvars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All exponent tuples of the given total degree, graded-lex descending."""
    if degree < 0:
        return ()
    if nvars == 0:
        return ((),) if degree == 0 else ()
    if nvars == 1:
        return ((degree,),)
    out = []
    for k in range(degree, -1, -1):
        out.extend((k,) + rest for rest in monomials_of_degree(nvars - 1, degree - k))
    return tuple(out)


def grlex_key(mono):
    return (sum(mono), mono)


class Form:
    """A homogeneous polynomial with sparse exponent-tuple storage."""

    __slots__ = ("nvars", "field", "coeffs", "degree")

    def __init__(self, nvars: int, field, terms=()):
        coeffs = {}
        degree = None
        items = terms.items() if isinstance(terms, dict) else terms
        for mono, c in items:
            mono = tuple(mono)
            if len(mono) != nvars:
                raise MixedRingsError(
                    f"monomial {mono} has {len(mono)} exponents, expected {nvars}"
                )
            if any(e < 0 for e in mono):
                raise ValueError(f"negative exponent in {mono}")
            c = field.coerce(c)
            if field.is_zero(c):
                continue
            d = sum(mono)
            if degree is None:
                degree = d
            elif d != degree:
                raise NotHomogeneousError(
                    f"terms of degree {degree} and {d} in one form"
                )
            if mono in coeffs:
                c = field.add(coeffs[mono], c)
                if field.is_zero(c):
                    del coeffs[mono]
                    continue
            coeffs[mono] = c
        self.nvars = nvars
        self.field = field
        self.coeffs = coeffs
        self.degree = degree if coeffs else -1

    @classmethod
    def _raw(cls, nvars, field, coeffs, degree):
        """Internal constructor: trusts canonical scalars and homogeneity."""
        f = object.__new__(cls)
        f.nvars = nvars
        f.field = field
        f.coeffs = coeffs
        f.degree = degree if coeffs else -1
        return f

    @classmethod
    def zero(cls, nvars, field):
        return cls._raw(nvars, field, {}, -1)

    @classmethod
    def constant(cls, nvars, field, c):
        c = field.coerce(c)
        if field.is_zero(c):
            return cls.zero(nvars, field)
        return cls._raw(nvars, field, {(0,) * nvars: c}, 0)

    @classmethod
    def monomial(cls, nvars, field, exps, c=1):
        return cls(nvars, field, [(tuple(exps), c)])

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def _same_ring(self, other):
        if self.nvars != other.nvars or self.field != other.field:
            raise MixedRingsError(
                f"forms in {self.nvars} vars over {self.field} and "
                f"{other.nvars} vars over {other.field}"
            )

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        self._same_ring(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.degree != other.degree:
            raise NotHomogeneousError(
                f"cannot add forms of degree {self.degree} and {other.degree}"
            )
        field = self.field
        out = dict(self.coeffs)
        for mono, c in other.coeffs.items():
            if mono in out:
                s = field.add(out[mono], c)
                if field.is_zero(s):
                    del out[mono]
                else:
                    out[mono] = s
            else:
                out[mono] = c
        return Form._raw(self.nvars, field, out, self.degree)

    def __neg__(self):
        field = self.field
        return Form._raw(
            self.nvars,
            field,
            {m: field.neg(c) for m, c in self.coeffs.items()},
            self.degree,
        )

    def __sub__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return self + (-other)

    def scale(self, c):
        field = self.field
        c = field.coerce(c)
        if field.is_zero(c) or self.is_zero:
            return Form.zero(self.nvars, field)
        return Form._raw(
            self.nvars,
            field,
            {m: field.mul(v, c) for m, v in self.coeffs.items()},
            self.degree,
        )

    def __mul__(self, other):
        if isinstance(other, Form):
            self._same_ring(other)
            if self.is_zero or other.is_zero:
                return Form.zero(self.nvars, self.field)
            field = self.field
            out = {}
            for m1, c1 in self.coeffs.items():
                for m2, c2 in other.coeffs.items():
                    m = tuple(a + b for a, b in zip(m1, m2))
                    prod = field.mul(c1, c2)
                    if m in out:
                        s = field.add(out[m], prod)
                        if field.is_zero(s):
                            del out[m]
                        else:
                            out[m] = s
                    else:
                        out[m] = prod
            return Form._raw(self.nvars, field, out, self.degree + other.degree)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a form")
        result = Form.constant(self.nvars, self.field, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def partial(self, i: int):
        """Partial derivative with respect to y_i."""
        if not 0 <= i < self.nvars:
            raise IndexError(f"variable index {i} out of range for {self.nvars} vars")
        field = self.field
        out = {}
        for mono, c in self.coeffs.items():
            e = mono[i]
            if e:
                m = mono[:i] + (e - 1,) + mono[i + 1 :]
                out[m] = field.mul(c, field.from_int(e))
        out = {m: c for m, c in out.items() if not field.is_zero(c)}
        return Form._raw(self.nvars, field, out, self.degree - 1)

    def leading_monomial(self):
        if self.is_zero:
            raise ZeroFormError("zero form has no leading monomial")
        return max(self.coeffs, key=grlex_key)

    def leading_coeff(self):
        return self.coeffs[self.leading_monomial()]

    def monic(self):
        """Scale so the graded-lex leading coefficient is 1."""
        if self.is_zero:
            return self
        return self.scale(self.field.inv(self.leading_coeff()))

    def extend(self, extra: int):
        """Embed into the ring with `extra` fresh trailing variables."""
        if extra < 0:
            raise ValueError("extra must be nonnegative")
        if extra == 0:
            return self
        pad = (0,) * extra
        return Form._raw(
            self.nvars + extra,
            self.field,
            {m + pad: c for m, c in self.coeffs.items()},
            self.degree,
        )

    def variables(self) -> set[int]:
        """Indices of variables that actually occur."""
        used = set()
        for mono in self.coeffs:
            for i, e in enumerate(mono):
                if e:
                    used.add(i)
        return used

    def __str__(self):
        if not self.coeffs:
            return "0"
        field = self.field
        parts = []
        for mono in sorted(self.coeffs, key=grlex_key, reverse=True):
            neg, mag = field.sign_abs(self.coeffs[mono])
            factors = []
            for i, e in enumerate(mono):
                if e == 1:
                    factors.append(f"y{i}")
                elif e > 1:
                    factors.append(f"y{i}^{e}")
            body = "*".join(factors)
            if body and field.is_one(mag):
                text = body
            elif body:
                text = f"{field.format_scalar(mag)}*{body}"
            else:
                text = field.format_scalar(mag)
            if not parts:
                parts.append(f"-{text}" if neg else text)
            else:
                parts.append(f"- {text}" if neg else f"+ {text}")
        return " ".join(parts)

    def __repr__(self):
        return f"<Form {self} | {self.nvars} vars over {self.field!r}>"


def random_form(nvars, degree, field, rng, terms=None):
    """Random form: uniform coefficients on a support of `terms` monomials
    (all of them when terms is None).  Resamples until nonzero."""
    monos = monomials_of_degree(nvars, degree)
    if terms is None or terms >= len(monos):
        support = monos
    else:
        support = rng.sample(monos, terms)
    while True:
        coeffs = {}
        for m in support:
            c = field.random(rng)
            if not field.is_zero(c):
                coeffs[m] = c
        if coeffs:
            return Form._raw(nvars, field, coeffs, degree)


# ---------------------------------------------------------------------------
# parsing


_UNEXPECTED = re.compile(r"[^\s\dy+\-*/^]")
_SPACE = re.compile(r"\s*")
_COEFF = re.compile(r"\s*(\d+)(?:\s*(/)\s*(\d+)?)?\s*(\*)?")
_FACTOR = re.compile(r"\s*(y)?\s*(\d+)?(?:\s*(\^)\s*(\d+)?)?\s*(\*)?")


def _skip(text, pos):
    """Position of the next non-space character, or len(text)."""
    return _SPACE.match(text, pos).end()


def parse_form(text: str, nvars: int, field) -> Form:
    """Parse ASCII form text: terms of [coef '*'] y<i>['^'<e>] factors joined
    by '+'/'-'; a bare coefficient is accepted as a degree-0 term."""
    if not 0 <= nvars <= MAX_NVARS:
        raise ValueError(f"nvars {nvars} outside 0..{MAX_NVARS}")
    bad = _UNEXPECTED.search(text)
    if bad:
        raise ParseError(f"unexpected character {bad.group()!r}", bad.start())
    # int() refuses more than this many digits (0: no limit)
    limit = sys.get_int_max_str_digits()
    if limit and len(text) > limit:
        long = re.search(r"\d{%d,}" % (limit + 1), text)
        if long:
            raise ParseError(f"number of {len(long[0])} digits is too long", long.start())
    end = len(text)
    pos = _skip(text, 0)
    if pos == end:
        raise ParseError("empty form text", 0)
    neg = text[pos] == "-"
    if text[pos] in "+-":
        pos = _skip(text, pos + 1)
    terms = []
    while True:
        if pos == end:
            raise ParseError("expected a term", end)
        start = pos
        coeff = field.one
        exps = [0] * nvars
        m = _COEFF.match(text, pos)
        if m:
            if m[2] is None:
                coeff = field.from_int(int(m[1]))
            elif m[3] is None:
                raise ParseError("expected denominator", _skip(text, m.end(2)))
            else:
                try:
                    coeff = field.from_ratio(int(m[1]), int(m[3]))
                except ZeroDivisionError:
                    raise ParseError("zero denominator", m.start(3)) from None
            pos = m.end()
        if m and m[4] is None:
            # bare constant term (degree 0)
            what = "'*' after coefficient"
        else:
            what = "'+' or '-' between terms"
            while True:
                m = _FACTOR.match(text, pos)
                if m[1] is None:
                    raise ParseError(
                        "expected a variable factor 'y<index>'", _skip(text, pos)
                    )
                if m[2] is None:
                    raise ParseError("expected variable index", _skip(text, m.end(1)))
                idx = int(m[2])
                if idx >= nvars:
                    raise UnknownVariableError(
                        f"variable y{idx} outside ring with {nvars} variables",
                        m.start(2),
                    )
                if m[3] is None:
                    exps[idx] += 1
                elif m[4] is None:
                    raise ParseError("expected exponent", _skip(text, m.end(3)))
                else:
                    exps[idx] += int(m[4])
                pos = m.end()
                if m[5] is None:
                    break
        terms.append((tuple(exps), field.neg(coeff) if neg else coeff, start))
        if pos == end:
            break
        if text[pos] not in "+-":
            raise ParseError(f"expected {what}", pos)
        neg = text[pos] == "-"
        pos = _skip(text, pos + 1)
    coeffs = {}
    degree = None
    for mono, c, pos in terms:
        if field.is_zero(c):
            continue
        d = sum(mono)
        if degree is None:
            degree = d
        elif d != degree:
            raise NotHomogeneousError(
                f"term of degree {d} at position {pos} in a degree-{degree} form"
            )
        if mono in coeffs:
            s = field.add(coeffs[mono], c)
            if field.is_zero(s):
                del coeffs[mono]
            else:
                coeffs[mono] = s
        else:
            coeffs[mono] = c
    return Form._raw(nvars, field, coeffs, degree if coeffs else -1)


# ---------------------------------------------------------------------------
# exact division and gcd


def exact_div(F: Form, G: Form) -> Form:
    """Quotient F/G when the division is exact; ExactDivisionError otherwise."""
    F._same_ring(G)
    if G.is_zero:
        raise ZeroDivisionError("division of a form by zero")
    if F.is_zero:
        return Form.zero(F.nvars, F.field)
    field = F.field
    lmG = G.leading_monomial()
    lcG_inv = field.inv(G.coeffs[lmG])
    rem = dict(F.coeffs)
    quot = {}
    while rem:
        lmR = max(rem, key=grlex_key)
        diff = tuple(a - b for a, b in zip(lmR, lmG))
        if any(e < 0 for e in diff):
            raise ExactDivisionError(f"{G} does not divide {F}")
        qc = field.mul(rem[lmR], lcG_inv)
        quot[diff] = qc
        for mG, cG in G.coeffs.items():
            m = tuple(a + b for a, b in zip(diff, mG))
            s = field.sub(rem.get(m, field.zero), field.mul(qc, cG))
            if field.is_zero(s):
                rem.pop(m, None)
            else:
                rem[m] = s
    return Form._raw(F.nvars, field, quot, F.degree - G.degree)


def form_gcd(forms) -> Form:
    """Monic gcd of a sequence of forms (zero entries are ignored)."""
    forms = list(forms)
    if not forms:
        raise ZeroFormError("gcd of an empty form list")
    first = forms[0]
    for f in forms[1:]:
        first._same_ring(f)
    nonzero = [f for f in forms if not f.is_zero]
    if not nonzero:
        raise ZeroFormError("gcd of all-zero forms")
    if first.nvars == 2:
        return _binary_gcd(nonzero)
    nonzero.sort(key=lambda f: (len(f.coeffs), f.degree))
    g = nonzero[0]
    for f in nonzero[1:]:
        if g.degree == 0:
            break
        g = _gcd2(g, f)
    return g.monic()


def _binary_gcd(forms) -> Form:
    """Monic gcd of nonzero binary forms.  A binary form is y1^v times the
    homogenization of f(y0, 1), where v is its least exponent of y1, so the
    gcd is y1^min(v) times the homogenized gcd of the f(y0, 1), which
    Euclid's algorithm finds on coefficient lists (highest power first)."""
    field = forms[0].field
    shift = min(m[1] for f in forms for m in f.coeffs)
    g = None
    for f in forms:
        top = max(m[0] for m in f.coeffs)
        row = [f.coeffs.get((i, f.degree - i), field.zero) for i in range(top, -1, -1)]
        g = row if g is None else _euclid(g, row, field)
        if len(g) == 1:
            break
    inv = field.inv(g[0])
    top = len(g) - 1
    coeffs = {
        (top - j, j + shift): field.mul(c, inv)
        for j, c in enumerate(g)
        if not field.is_zero(c)
    }
    return Form._raw(2, field, coeffs, top + shift)


def _euclid(a, b, field):
    """Gcd, up to a unit, of two nonzero polynomials given as coefficient
    lists with nonzero leading (first) entries."""
    while len(b) > 1:
        inv = field.inv(b[0])
        a = list(a)
        while len(a) >= len(b):
            q = field.mul(a[0], inv)
            for k in range(1, len(b)):
                a[k] = field.sub(a[k], field.mul(q, b[k]))
            del a[0]
            while a and field.is_zero(a[0]):
                del a[0]
        if not a:
            return b
        a, b = b, a
    return b


def _one(nvars, field):
    return Form.constant(nvars, field, 1)


def _mono_min(F: Form):
    """Componentwise minimum exponent vector over the support."""
    it = iter(F.coeffs)
    lo = list(next(it))
    for mono in it:
        for i, e in enumerate(mono):
            if e < lo[i]:
                lo[i] = e
    return tuple(lo)


def _shift_down(F: Form, mono):
    if not any(mono):
        return F
    return Form._raw(
        F.nvars,
        F.field,
        {tuple(a - b for a, b in zip(m, mono)): c for m, c in F.coeffs.items()},
        F.degree - sum(mono),
    )


def _deg_in(F: Form, v: int) -> int:
    return max((m[v] for m in F.coeffs), default=0)


def _coeff_of(F: Form, v: int, k: int) -> Form:
    """Coefficient of y_v^k: terms with that exponent, with y_v struck out."""
    field = F.field
    out = {
        m[:v] + (0,) + m[v + 1 :]: c for m, c in F.coeffs.items() if m[v] == k
    }
    return Form._raw(F.nvars, field, out, F.degree - k if out else -1)


def _shift_var(F: Form, v: int, k: int) -> Form:
    if k == 0 or F.is_zero:
        return F
    return Form._raw(
        F.nvars,
        F.field,
        {m[:v] + (m[v] + k,) + m[v + 1 :]: c for m, c in F.coeffs.items()},
        F.degree + k,
    )


def _content_pp(F: Form, v: int):
    """Split off the content with respect to y_v: F = cont * pp."""
    ks = sorted({m[v] for m in F.coeffs})
    coeff_polys = [_coeff_of(F, v, k) for k in ks]
    one = _one(F.nvars, F.field)
    # a constant coefficient forces content 1
    if any(c.degree == 0 for c in coeff_polys):
        return one, F
    coeff_polys.sort(key=lambda f: len(f.coeffs))
    cont = coeff_polys[0]
    for c in coeff_polys[1:]:
        if cont.degree == 0:
            break
        cont = _gcd2(cont, c)
    if cont.degree == 0:
        return one, F
    return cont, exact_div(F, cont)


def _prem(A: Form, B: Form, v: int) -> Form:
    """Pseudo-remainder of A by B in the variable y_v."""
    dB = _deg_in(B, v)
    lcB = _coeff_of(B, v, dB)
    R = A
    n = _deg_in(A, v) - dB + 1
    while not R.is_zero and _deg_in(R, v) >= dB:
        dR = _deg_in(R, v)
        lcR = _coeff_of(R, v, dR)
        R = lcB * R - _shift_var(lcR, v, dR - dB) * B
        n -= 1
    if n > 0:
        R = (lcB**n) * R
    return R


def _subresultant_ppgcd(A: Form, B: Form, v: int) -> Form:
    """Gcd of two forms primitive in y_v with deg_v A >= deg_v B >= 1."""
    one = _one(A.nvars, A.field)
    g = one
    h = one
    while True:
        delta = _deg_in(A, v) - _deg_in(B, v)
        R = _prem(A, B, v)
        if R.is_zero:
            break
        denom = g * (h**delta)
        A, B = B, exact_div(R, denom)
        g = _coeff_of(A, v, _deg_in(A, v))
        if delta == 1:
            h = g
        elif delta > 1:
            h = exact_div(g**delta, h ** (delta - 1))
        if _deg_in(B, v) == 0:
            # a nonzero remainder free of y_v: the primitive parts are coprime
            return one
    return _content_pp(B, v)[1]


def _gcd2(A: Form, B: Form) -> Form:
    if A.is_zero:
        return B
    if B.is_zero:
        return A
    field = A.field
    one = _one(A.nvars, field)
    if A.degree == 0 or B.degree == 0:
        return one
    # strip monomial contents; the common part multiplies back in
    mA = _mono_min(A)
    mB = _mono_min(B)
    common = tuple(min(a, b) for a, b in zip(mA, mB))
    A = _shift_down(A, mA)
    B = _shift_down(B, mB)
    common_form = Form.monomial(A.nvars, field, common) if any(common) else one
    if A.degree == 0 or B.degree == 0:
        return common_form
    shared = A.variables() & B.variables()
    if not shared:
        return common_form
    v = min(shared, key=lambda u: (max(_deg_in(A, u), _deg_in(B, u)), u))
    contA, ppA = _content_pp(A, v)
    contB, ppB = _content_pp(B, v)
    c = _gcd2(contA, contB)
    if _deg_in(ppA, v) < _deg_in(ppB, v):
        ppA, ppB = ppB, ppA
    g = _subresultant_ppgcd(ppA, ppB, v)
    return common_form * c * g
