"""Hyperplane restriction of forms and randomized checks of three facts.

Restriction substitutes a linear form's pivot variable by the induced
combination of the remaining ones, so the image lives in the ring with the
pivot variable removed.  restrict_mod writes F = sum_k y_piv^k G_k and
evaluates F|_H = G_0 + L (G_1 + L (G_2 + ...)) by Horner's rule, where
L = -sum_i (a_i / a_piv) y_i, starting at the largest pivot exponent
present (a form free of the pivot takes no step).  A monomial in the n
remaining variables is packed into one integer key sum_j m_j (e+1)^j, so
multiplying by y_j adds (e+1)^j to the key and a Horner step is one numpy
broadcast: keys plus shifts, values times coefficients.  Equal keys are
then merged by a stable sort and np.add.reduceat, reduced mod p, and zero
sums dropped; keys become exponent tuples once, at the end (Kronecker
substitution; von zur Gathen-Gerhard, Modern Computer Algebra, 8.4).
restrict_mod is the one-form call of _restrict, which restricts a list of
forms of one ring by one H in a single pass: the keys of the i-th form
carry the prefix i (e+1)^n, which no Horner step reaches, so restricted_rank
restricts its n+1 forms at once.  Keys are int64 while (e+1)^n times the
number of forms fits (linalg.int_dtype), values int64 residues while the
sum of two products does (linalg.residue_dtype), and Python integers or
objects otherwise.  No table is kept between calls, since every call draws
a new H.

"General" hyperplanes are drawn uniformly at random over a large prime
field with a recorded seed; each trial derives its generator from (seed,
trial index), so results do not depend on execution order, and every
recorded failure witness replays.

The three randomized checks:
  * codim_drop_check: a form essentially involving all n+1 >= 3 of its
    variables keeps codimension n after restriction by a random hyperplane.
  * restricted_rank: n+1 linearly independent forms of one degree d > 1
    with gcd 1 stay linearly independent after a random restriction.
  * check_partials_gcd: for F = prod p_j^{e_j} with distinct irreducible
    p_j, the gcd of the first partials of F is prod p_j^{e_j - 1}.

Both "keeps codimension n" and "keeps full rank" are open conditions on H:
each says that some minor of a matrix whose entries are polynomials in the
coefficients of H, over a power of the pivot coefficient, is nonzero.  So
one hyperplane that keeps it proves it for a general H.  Over a small field
a uniform hyperplane lies on the closed set often enough to mislead a
single draw, so the suites share one rule, _is_witness: a trial is a
witness only if its first hyperplane and _REDRAWS more from the trial's own
stream all fail, and the witness records the first one.  Only trials whose
first hyperplane fails draw more.

Both gcd questions are one coprimality decision, _coprime, which tries a
one-sided certificate first: forms whose images on a random plane are
coprime binary forms, not all zero, are coprime (von zur Gathen-Gerhard,
Modern Computer Algebra).  The plane is one substitution
y_k = a_k s + b_k t, with its 2n coefficients drawn from a fixed stream of
its own, so no suite draw changes.  _plane_images maps all forms of a
question at once: the terms of every form are stacked as rows of binary
coefficients, each term's linear factors a_v s + b_v t are multiplied in by
one shifted multiply-add per factor for all terms together, and
np.add.reduceat sums the rows of each form, values in the dtype of
restrict_mod.  The partials question takes its images from the factors
instead: the substitution is a ring map, so each cofactor's image is a sum
of products of the binary images of the factors and their partials (a step
of _coprime_on_plane), and no multivariate product is built.  Only when
the plane test fails does the exact multivariate gcd (form_gcd) run, so
verdicts never depend on the plane.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import linalg
from .apolarity import codimension
from .errors import (
    HypothesisError,
    MixedRingsError,
    PreconditionError,
    ZeroFormError,
)
from .fields import DEFAULT_FIELD, random_nonzero
from .poly import Form, form_gcd, monomials_of_degree, random_form


_INDEX_BITS = 20


def trial_rng(seed: int, index: int) -> random.Random:
    """Generator for one trial; a function of (seed, index) only.  Requires
    seed >= 0 and 0 <= index < 2^20, so distinct pairs never share a
    stream."""
    if seed < 0 or not 0 <= index < 1 << _INDEX_BITS:
        raise ValueError(
            f"trial stream (seed={seed}, index={index}) needs seed >= 0 "
            f"and 0 <= index < 2^{_INDEX_BITS}"
        )
    return random.Random((seed << _INDEX_BITS) + index)


def _check_trials(trials: int):
    """Refuse a trial count whose indices would leave [0, 2^20)."""
    if not 1 <= trials <= 1 << _INDEX_BITS:
        raise ValueError(f"trials must be in [1, 2^{_INDEX_BITS}], got {trials}")


class LinearForm:
    """A nonzero linear form with a chosen pivot variable.

    The pivot defaults to the last index with a nonzero coefficient and is
    the variable eliminated by restriction.
    """

    __slots__ = ("coeffs", "field", "pivot")

    def __init__(self, coeffs, field, pivot=None):
        coeffs = tuple(field.coerce(c) for c in coeffs)
        if not coeffs or all(field.is_zero(c) for c in coeffs):
            raise ZeroFormError("linear form must be nonzero")
        if pivot is None:
            pivot = max(i for i, c in enumerate(coeffs) if not field.is_zero(c))
        elif not 0 <= pivot < len(coeffs) or field.is_zero(coeffs[pivot]):
            raise ValueError(f"pivot {pivot} has zero coefficient")
        self.coeffs = coeffs
        self.field = field
        self.pivot = pivot

    @property
    def nvars(self) -> int:
        return len(self.coeffs)

    def as_form(self) -> Form:
        return Form(
            self.nvars,
            self.field,
            [
                (tuple(1 if j == i else 0 for j in range(self.nvars)), c)
                for i, c in enumerate(self.coeffs)
                if not self.field.is_zero(c)
            ],
        )

    def __str__(self):
        return ",".join(self.field.format_scalar(c) for c in self.coeffs)

    def __repr__(self):
        return f"<LinearForm {self} pivot={self.pivot}>"

    def __eq__(self, other):
        if not isinstance(other, LinearForm):
            return NotImplemented
        return (
            self.coeffs == other.coeffs
            and self.field == other.field
            and self.pivot == other.pivot
        )


def random_linear_form(n_vars: int, field, rng) -> LinearForm:
    """Uniform nonzero coefficient vector; pivot at the last nonzero index.

    Distinct seeds give distinct vectors with overwhelming probability."""
    if n_vars < 1:
        raise ValueError("need at least one variable")
    while True:
        coeffs = tuple(field.random(rng) for _ in range(n_vars))
        if any(not field.is_zero(c) for c in coeffs):
            return LinearForm(coeffs, field)


def restrict_mod(F: Form, H: LinearForm) -> Form:
    """The image of F in the quotient by H: substitute the pivot variable
    and drop it from the ring (indices above the pivot shift down).  Horner's
    rule in the pivot on packed monomial keys; see the module docstring."""
    return _restrict([F], H)[0]


def _restrict(forms, H: LinearForm) -> list:
    """restrict_mod of every form of a list of one ring, in one Horner pass:
    the key of a term of the i-th form carries i * base^n as a prefix, which
    the steps never touch, since they only add exponents below base."""
    F = forms[0]
    if H.nvars != F.nvars or H.field != F.field:
        raise MixedRingsError(
            f"hyperplane in {H.nvars} vars over {H.field} cannot restrict a "
            f"{F.nvars}-variable form over {F.field}"
        )
    fld = F.field
    piv = H.pivot
    n = F.nvars - 1
    sizes = [len(f.coeffs) for f in forms]
    if not any(sizes):
        return [Form.zero(n, fld) for _ in forms]
    base = max(f.degree for f in forms) + 1
    span = base**n
    key_type = linalg.int_dtype(span * len(forms))
    place = [base**j for j in range(n)]
    weights = np.array(place[:piv] + [0] + place[piv:], key_type)
    p = fld.char
    val_type = linalg.residue_dtype(p)
    inv = fld.inv(H.coeffs[piv])
    lin = [i for i, a in enumerate(H.coeffs) if i != piv and not fld.is_zero(a)]
    shifts = weights[lin]
    coeffs = np.array([fld.neg(fld.mul(H.coeffs[i], inv)) for i in lin], val_type)
    monos = np.array([m for f in forms for m in f.coeffs], np.int64)
    k = monos[:, piv]
    keys = monos.astype(key_type, copy=False) @ weights
    keys += np.repeat(np.array([i * span for i in range(len(forms))], key_type), sizes)
    vals = np.array([c for f in forms for c in f.coeffs.values()], val_type)
    top = int(k.max())
    acc_keys, acc_vals = keys[k == top], vals[k == top]
    for j in range(top - 1, -1, -1):
        # acc <- acc * L + G_j, where G_j is the coefficient of y_piv^j;
        # L's terms -a_i / a_piv * y_i are (shifts, coeffs)
        prods = acc_vals[:, None] * coeffs
        if p:
            prods %= p
        here = k == j
        acc_keys, acc_vals = _merge(
            np.concatenate(((acc_keys[:, None] + shifts).ravel(), keys[here])),
            np.concatenate((prods.ravel(), vals[here])),
            p,
        )
    exps = acc_keys[:, None] // np.array(place, key_type) % base
    terms = zip(map(tuple, exps.astype(np.int64).tolist()), acc_vals.tolist())
    # keys come out grouped by form, in form order: sorted by the last
    # merge, or stacked in form order when no step ran
    counts = np.bincount((acc_keys // span).astype(np.int64), minlength=len(forms))
    return [
        Form._raw(n, fld, dict(itertools.islice(terms, c)), f.degree)
        for f, c in zip(forms, counts.tolist())
    ]


def _merge(keys, vals, p):
    """Sum the values of equal keys (mod p when p), dropping zero sums;
    keys come out ascending."""
    if not len(keys):
        return keys, vals
    order = keys.argsort(kind="stable")
    keys = keys[order]
    new = np.empty(len(keys), bool)
    new[0] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    start = np.flatnonzero(new)
    vals = np.add.reduceat(vals[order], start)
    if p:
        vals %= p
    keep = vals != 0
    return keys[start][keep], vals[keep]


# Seed of the plane stream.  Its key, these bytes followed by their SHA-512,
# is a 607-bit integer, so trial_rng would need a seed above 2^580 to draw
# the same stream.
_PLANE_SEED = "apolar/plane"


def _plane_images(forms, a, b) -> list:
    """The binary forms f(a_0 s + b_0 t, ..., a_{n-1} s + b_{n-1} t) in the
    variables (s, t), for forms of one ring and any degrees.

    A form of degree d maps to the row of its coefficients of s^(d-j) t^j,
    j = 0..d.  The terms of all forms are stacked, each row starting as the
    term's scalar, and a term c * y_{v_1} ... y_{v_d} is the product of d
    linear factors a_v s + b_v t.  Its word v_1..v_d is padded to the
    largest degree with a variable n that maps to s, which leaves each
    coefficient of t^j in place, so one shifted multiply-add per letter
    multiplies in a factor for every term at once.  np.add.reduceat then
    sums the rows of each form."""
    fld = forms[0].field
    n = forms[0].nvars
    p = fld.char
    val_type = linalg.residue_dtype(p)
    nonzero = [f for f in forms if not f.is_zero]
    if not nonzero:
        return [Form.zero(2, fld) for _ in forms]
    top = max(f.degree for f in nonzero)
    monos = np.array(
        [m + (top - f.degree,) for f in nonzero for m in f.coeffs], np.int64
    )
    words = np.repeat(np.tile(np.arange(n + 1), len(monos)), monos.ravel())
    A = np.array([*a, fld.one], val_type)
    B = np.array([*b, fld.zero], val_type)
    rows = np.full((len(monos), top + 1), fld.zero, val_type)
    rows[:, 0] = [c for f in nonzero for c in f.coeffs.values()]
    for v in words.reshape(len(monos), top).T:
        # in int64 each product of two residues is below 2^62, so the sum
        # of two stays below 2^63
        shifted = rows[:, :-1] * B[v][:, None]
        rows = rows * A[v][:, None]
        rows[:, 1:] += shifted
        if p:
            rows %= p
    starts = np.cumsum([0] + [len(f.coeffs) for f in nonzero[:-1]])
    sums = np.add.reduceat(rows, starts, axis=0)
    if p:
        sums %= p
    images = iter(sums.tolist())
    out = []
    for f in forms:
        if f.is_zero:
            out.append(Form.zero(2, fld))
            continue
        d = f.degree
        row = next(images)
        coeffs = {(d - j, j): c for j, c in enumerate(row[: d + 1]) if c}
        out.append(Form._raw(2, fld, coeffs, d))
    return out


def _coprime_on_plane(forms, rng, step=None) -> bool:
    """True only if the forms are coprime: on a random plane, the
    substitution y_k = a_k s + b_k t, they become binary forms, not all
    zero, with gcd 1.  False proves nothing.  With a step, the images
    tested are step(images of forms), which must be the images of the
    forms in question (check_partials_gcd's cofactors).

    This holds for any linear substitution, degenerate planes included:
    it is a ring map that keeps degrees, so a common factor g of degree k
    maps to g(a s + b t), which divides every image and is either a form of
    degree k or zero.  If it is zero, every image is zero, and the
    certificate refuses."""
    n = forms[0].nvars
    coeffs = [forms[0].field.random(rng) for _ in range(2 * n)]
    images = _plane_images(forms, coeffs[:n], coeffs[n:])
    if step:
        images = step(images)
    images = [g for g in images if not g.is_zero]
    return bool(images) and form_gcd(images).degree == 0


def _cofactors(ps, partials, mults) -> list:
    """c_i = sum_j e_j partials[i][j] prod_{k != j} p_k, the product-rule
    cofactors of check_partials_gcd, for forms or for their plane images."""
    one = Form.constant(ps[0].nvars, ps[0].field, 1)
    rests = [
        math.prod((q for k, q in enumerate(ps) if k != j), start=one)
        for j in range(len(ps))
    ]
    zero = Form.zero(ps[0].nvars, ps[0].field)
    return [
        sum((d * rest * e for d, rest, e in zip(row, rests, mults)), zero)
        for row in partials
    ]


def _coprime(forms) -> bool:
    """Whether the forms have gcd 1: the plane certificate, else form_gcd."""
    return (
        _coprime_on_plane(forms, random.Random(_PLANE_SEED))
        or form_gcd(forms).degree == 0
    )


# hyperplanes drawn after a first one that drops the restricted rank or the
# codimension
_REDRAWS = 8


@dataclass
class Witness:
    """A replayable failing instance of a randomized check."""

    form: str
    nvars: int
    hyperplane: str
    observed: object

    def to_dict(self):
        return {
            "form": self.form,
            "nvars": self.nvars,
            "H": self.hyperplane,
            "observed": self.observed,
        }


@dataclass
class TrialReport:
    """Outcome of a randomized suite; failures carry replayable witnesses."""

    name: str
    trials: int
    seed: int
    field_spec: str
    witnesses: list = dc_field(default_factory=list)

    @property
    def failures(self) -> int:
        return len(self.witnesses)

    @property
    def ok(self) -> bool:
        return not self.witnesses

    def to_dict(self):
        return {
            "name": self.name,
            "trials": self.trials,
            "failures": self.failures,
            "modulus": self.field_spec,
            "seed": self.seed,
            "witnesses": [w.to_dict() for w in self.witnesses],
        }


def codim_drop_check(F: Form, trials: int, seed: int = 0) -> TrialReport:
    """Check h_1(F^H) = n for random H, for F of degree >= 3 essentially
    involving all of its n+1 >= 3 variables, under the redraw rule of the
    module docstring."""
    _check_trials(trials)
    if F.is_zero:
        raise ZeroFormError("cannot restrict the zero form")
    if F.degree < 3:
        raise HypothesisError(f"socle degree {F.degree} < 3")
    if F.nvars < 3:
        raise HypothesisError(f"codimension {F.nvars} < 3")
    c = codimension(F)
    if c != F.nvars:
        raise HypothesisError(
            f"form has codimension {c} but lives in {F.nvars} variables"
        )
    report = TrialReport("codim-drop", trials, seed, F.field.spec)
    for t in range(trials):
        _codim_drop_trial(F, trial_rng(seed, t), report)
    return report


def _restricted_codim(F: Form, H: LinearForm) -> int:
    G = restrict_mod(F, H)
    return 0 if G.is_zero else codimension(G)


def _is_witness(value, H, observed, target, rng) -> bool:
    """The redraw rule of the module docstring: H, whose value is observed,
    witnesses a failure only if observed != target and value(H') != target
    for _REDRAWS more hyperplanes H' drawn from rng."""
    return observed != target and all(
        value(random_linear_form(H.nvars, H.field, rng)) != target
        for _ in range(_REDRAWS)
    )


def _codim_drop_trial(F: Form, rng, report: TrialReport):
    """Restrict F by a hyperplane H drawn from rng; record a witness, with
    H, if _is_witness finds that the codimension falls below nvars - 1."""
    H = random_linear_form(F.nvars, F.field, rng)
    observed = _restricted_codim(F, H)
    if _is_witness(lambda G: _restricted_codim(F, G), H, observed, F.nvars - 1, rng):
        report.witnesses.append(Witness(str(F), F.nvars, str(H), observed))


def _span_rank(forms) -> int:
    """Dimension of the span of nonzero forms of one ring and one degree."""
    entries = {(k, m): c for k, f in enumerate(forms) for m, c in f.coeffs.items()}
    return linalg.sparse_rank(entries, forms[0].field)


def restricted_rank(forms, H: LinearForm) -> int:
    """Rank of the span of the restrictions F_i^H of n+1 independent forms
    of one degree d > 1 with gcd 1 (in n+1 variables, n >= 2).

    The gcd precondition is certified on a random plane; only when that
    certificate fails does the exact form_gcd decide it."""
    forms = list(forms)
    if not forms:
        raise PreconditionError("empty form list")
    nvars = forms[0].nvars
    for f in forms[1:]:
        forms[0]._same_ring(f)
    if len(forms) != nvars:
        raise PreconditionError(
            f"expected {nvars} forms in {nvars} variables, got {len(forms)}"
        )
    if nvars < 3:
        raise PreconditionError(f"need n >= 2, got n = {nvars - 1}")
    degrees = {f.degree for f in forms}
    if len(degrees) != 1:
        raise PreconditionError(f"forms of mixed degrees {sorted(degrees)}")
    d = degrees.pop()
    if d < 2:
        raise PreconditionError(f"common degree {d} is not > 1")
    if _span_rank(forms) != len(forms):
        raise PreconditionError("forms are linearly dependent")
    if not _coprime(forms):
        raise PreconditionError("forms share a nonconstant common divisor")
    return _restricted_span_rank(forms, H)


def _restricted_span_rank(forms, H: LinearForm) -> int:
    """restricted_rank without its precondition checks."""
    keep = [g for g in _restrict(forms, H) if not g.is_zero]
    return _span_rank(keep) if keep else 0


def quadratic_is_split(q: Form) -> bool:
    """True when the quadratic is a product of two linear forms over the
    algebraic closure, i.e. its symmetric coefficient matrix has rank <= 2
    (characteristic != 2).  A rank-2 quadratic irreducible over the base
    field, such as y0^2 - 3*y1^2 mod 2^31 - 1, counts as split."""
    if q.degree != 2:
        raise ValueError("expected a quadratic form")
    # the first catalecticant is that matrix: 2c on the diagonal, c off it
    return codimension(q) <= 2


def check_partials_gcd(factors) -> bool:
    """Test gcd(dF/dy_0, ..., dF/dy_n) == prod p_j^{e_j - 1} for
    F = prod p_j^{e_j}, up to the monic normalization, without building F.

    By the product rule dF/dy_i = E * c_i exactly, in every characteristic,
    where E = prod p_j^{e_j - 1} and the cofactor
    c_i = sum_j e_j (dp_j/dy_i) prod_{k != j} p_k.  So the gcd of the
    partials is E exactly when the cofactors are coprime.  Their plane
    images, built from those of the factors and their partials
    (_coprime_on_plane with a step), certify that first; only when they do
    not are the cofactors built and their exact form_gcd taken.  A
    multiplicity divisible by the characteristic is refused with ValueError:
    the partials of p^e then vanish and E is not their gcd."""
    factors = list(factors)
    if not factors:
        raise ValueError("empty factor list")
    base = factors[0][0]
    for p, e in factors:
        base._same_ring(p)
        if p.degree < 1:
            raise ValueError("factors must be nonconstant forms")
        if e < 1:
            raise ValueError(f"multiplicity {e} < 1")
        if base.field.char and e % base.field.char == 0:
            raise ValueError(
                f"multiplicity {e} is divisible by the characteristic "
                f"{base.field.char}"
            )
    ps = [p for p, _ in factors]
    mults = [e for _, e in factors]
    partials = [[p.partial(i) for p in ps] for i in range(base.nvars)]
    m = len(ps)

    def cofactor_images(images):
        # the substitution is a ring map: img(c_i) is _cofactors of images
        rows = [images[m * i : m * (i + 1)] for i in range(1, base.nvars + 1)]
        return _cofactors(images[:m], rows, mults)

    if _coprime_on_plane(
        ps + [q for row in partials for q in row],
        random.Random(_PLANE_SEED),
        cofactor_images,
    ):
        return True
    return form_gcd(_cofactors(ps, partials, mults)).degree == 0


# ---------------------------------------------------------------------------
# randomized suites over random instances (used by the CLI and acceptance)


def _random_full_codim_form(nvars, degree, fld, rng, dense):
    """Random form of full codimension: random support plus all pure powers."""
    total = len(monomials_of_degree(nvars, degree))
    terms = total if dense else min(total, nvars + rng.randrange(1, 2 * nvars + 1))
    for _ in range(20):
        F = random_form(nvars, degree, fld, rng, terms=None if dense else terms)
        powers = Form(
            nvars,
            fld,
            [
                (
                    tuple(degree if j == i else 0 for j in range(nvars)),
                    random_nonzero(fld, rng),
                )
                for i in range(nvars)
            ],
        )
        F = F + powers
        if not F.is_zero and codimension(F) == nvars:
            return F
    raise RuntimeError("could not sample a full-codimension form")


def run_codim_drop_suite(
    trials: int, seed: int = 0, fld=DEFAULT_FIELD
) -> TrialReport:
    """Random (F, H) pairs: degree in 3..5, codimension 3..10, mixed
    dense/sparse support; expects h_1(F^H) = n every time, under the
    redraw rule of the module docstring."""
    _check_trials(trials)
    report = TrialReport("codim-drop", trials, seed, fld.spec)
    for t in range(trials):
        rng = trial_rng(seed, t)
        degree = rng.choice([3, 4, 5])
        nvars = rng.randrange(3, 11)
        dense = rng.random() < 0.5
        F = _random_full_codim_form(nvars, degree, fld, rng, dense)
        _codim_drop_trial(F, rng, report)
    return report


def run_restricted_rank_suite(
    trials: int, seed: int = 0, fld=DEFAULT_FIELD
) -> TrialReport:
    """Random independent coprime tuples; expects full rank after a general
    restriction, under the redraw rule of the module docstring."""
    _check_trials(trials)
    report = TrialReport("restricted-rank", trials, seed, fld.spec)
    for t in range(trials):
        rng = trial_rng(seed, t)
        nvars = rng.randrange(3, 6)
        d = rng.randrange(2, 5)
        for _ in range(20):
            forms = [random_form(nvars, d, fld, rng) for _ in range(nvars)]
            try:
                H = random_linear_form(nvars, fld, rng)
                observed = restricted_rank(forms, H)
                break
            except PreconditionError:
                continue
        else:
            raise RuntimeError("could not sample an admissible tuple")
        if _is_witness(
            lambda G: _restricted_span_rank(forms, G), H, observed, nvars, rng
        ):
            report.witnesses.append(
                Witness(
                    "; ".join(str(f) for f in forms), nvars, str(H), observed
                )
            )
    return report


def _random_irreducible_quadratic(nvars, fld, rng):
    while True:
        q = random_form(nvars, 2, fld, rng)
        if not quadratic_is_split(q):
            return q


def run_partials_gcd_suite(
    trials: int, seed: int = 0, fld=DEFAULT_FIELD
) -> TrialReport:
    """Random products of distinct irreducible factors (total degree <= 8,
    <= 4 variables); expects the partials' gcd to match the prediction.
    Over GF(p) each multiplicity stays below p, as the prediction needs."""
    _check_trials(trials)
    report = TrialReport("partials-gcd", trials, seed, fld.spec)
    for t in range(trials):
        rng = trial_rng(seed, t)
        nvars = rng.randrange(3, 5)
        budget = 8
        factors = []
        seen = []
        while budget >= 1 and len(factors) < 3:
            deg = rng.choice([1, 2]) if budget >= 2 else 1
            if deg == 2:
                p = _random_irreducible_quadratic(nvars, fld, rng)
            else:
                p = random_form(nvars, 1, fld, rng)
            p = p.monic()
            if p in seen:
                continue
            seen.append(p)
            top = budget // deg
            if fld.char:
                top = min(top, fld.char - 1)
            e = rng.randrange(1, top + 1)
            factors.append((p, e))
            budget -= deg * e
            if rng.random() < 0.3:
                break
        if not factors:
            factors = [(random_form(nvars, 1, fld, rng).monic(), 1)]
        if not check_partials_gcd(factors):
            desc = " * ".join(f"({p})^{e}" for p, e in factors)
            report.witnesses.append(Witness(desc, nvars, "-", "gcd mismatch"))
    return report
