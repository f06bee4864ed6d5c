import math
import random
from fractions import Fraction

import pytest

import span_oracle
from apolar import (
    GF,
    QQ,
    DEFAULT_FIELD,
    DEFAULT_PRIME,
    Form,
    HypothesisError,
    LinearForm,
    MixedRingsError,
    PreconditionError,
    ZeroFormError,
    check_partials_gcd,
    codim_drop_check,
    form_gcd,
    hilbert_function,
    parse_form,
    power_sum_form,
    quadratic_is_split,
    random_form,
    random_linear_form,
    restrict_mod,
    restricted_rank,
    run_codim_drop_suite,
    run_partials_gcd_suite,
    run_restricted_rank_suite,
    trial_rng,
)
from apolar import restriction
from apolar.cli import run
from apolar.poly import monomials_of_degree


def _eval_dict(coeffs, point, p):
    total = 0
    for mono, c in coeffs.items():
        v = c
        for i, k in enumerate(mono):
            v *= pow(point[i], k, p)
        total = (total + v) % p
    return total


def test_trial_rng_reproducible_and_distinct():
    assert trial_rng(5, 7).random() == trial_rng(5, 7).random()
    assert trial_rng(5, 7).random() != trial_rng(5, 8).random()
    assert trial_rng(6, 7).random() != trial_rng(5, 7).random()


def test_trial_rng_refuses_overlapping_streams():
    # (seed << 20) + index is injective only on seed >= 0, 0 <= index < 2^20
    assert trial_rng(57, 231300).random() == trial_rng(57, 231300).random()
    with pytest.raises(ValueError):
        trial_rng(0, 5000011 * 12)  # was the stream of (57, 231300)
    with pytest.raises(ValueError):
        trial_rng(-1, 0)  # was the stream of (1, 0)
    with pytest.raises(ValueError):
        trial_rng(0, -1)
    trial_rng(0, 2**20 - 1)
    with pytest.raises(ValueError):
        trial_rng(0, 2**20)


def test_linear_form_validation():
    H = LinearForm([1, 2, 0], DEFAULT_FIELD)
    assert H.pivot == 1  # last nonzero index by default
    assert H.nvars == 3
    with pytest.raises(ZeroFormError):
        LinearForm([0, 0, 0], DEFAULT_FIELD)
    with pytest.raises(ValueError):
        LinearForm([1, 2, 0], DEFAULT_FIELD, pivot=2)
    assert str(LinearForm([1, 2, 3], DEFAULT_FIELD)) == "1,2,3"


def test_restriction_agrees_with_point_substitution():
    """Evaluating F on the hyperplane equals evaluating the restriction."""
    p = DEFAULT_PRIME
    for t in range(15):
        rng = trial_rng(21, t)
        nv = rng.randrange(2, 6)
        F = random_form(nv, rng.randrange(2, 6), DEFAULT_FIELD, rng)
        H = random_linear_form(nv, DEFAULT_FIELD, rng)
        G = restrict_mod(F, H)
        piv = H.pivot
        kept = [i for i in range(nv) if i != piv]
        point = [rng.randrange(p) for _ in kept]
        # solve H = 0 for the pivot coordinate
        s = sum(H.coeffs[i] * v for i, v in zip(kept, point)) % p
        full = [0] * nv
        for i, v in zip(kept, point):
            full[i] = v
        full[piv] = (-s * pow(H.coeffs[piv], -1, p)) % p
        lhs = _eval_dict(F.coeffs, full, p)
        rhs = 0 if G.is_zero else _eval_dict(G.coeffs, point, p)
        assert lhs == rhs


def _expand_restriction(F, H):
    """F|_H term by term: the sum of c * y^rest * L^k over the terms c * y^m
    of F, where k is the pivot exponent of m, rest is m without it and
    L = -sum_i (a_i / a_piv) y_i, all by Form products and powers."""
    fld, piv, n = F.field, H.pivot, F.nvars - 1
    inv = fld.inv(H.coeffs[piv])
    L = Form.zero(n, fld)
    for i, a in enumerate(H.coeffs):
        if i != piv:
            unit = [int(t == i - (i > piv)) for t in range(n)]
            L = L + Form.monomial(n, fld, unit, fld.neg(fld.mul(a, inv)))
    powers = {}
    total = Form.zero(n, fld)
    for mono, c in F.coeffs.items():
        k = mono[piv]
        if k not in powers:
            powers[k] = L**k
        rest = mono[:piv] + mono[piv + 1 :]
        total = total + Form.monomial(n, fld, rest, c) * powers[k]
    return total


def _scalar(fld, rng):
    """A random scalar, over QQ with a denominator up to 9."""
    if fld is QQ:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return fld.random(rng)


def _random_terms_form(nvars, degree, fld, rng, terms=None):
    monos = monomials_of_degree(nvars, degree)
    if terms is not None and terms < len(monos):
        monos = rng.sample(monos, terms)
    return Form(nvars, fld, [(m, _scalar(fld, rng)) for m in monos])


def _hyperplane(nvars, fld, rng, pivot, zeros=0.4):
    """Coefficients that vanish with probability about `zeros` off the pivot."""
    coeffs = [0 if rng.random() < zeros else _scalar(fld, rng) for _ in range(nvars)]
    while fld.is_zero(fld.coerce(coeffs[pivot])):
        coeffs[pivot] = _scalar(fld, rng)
    return LinearForm(coeffs, fld, pivot=pivot)


RESTRICTION_FIELDS = [QQ, GF(7), DEFAULT_FIELD, GF(2**61 - 1)]
RESTRICTION_IDS = ["q", "p:7", "p:2^31-1", "p:2^61-1"]


@pytest.mark.parametrize("fld", RESTRICTION_FIELDS, ids=RESTRICTION_IDS)
def test_restriction_matches_term_by_term_expansion(fld):
    rng = trial_rng(71, RESTRICTION_FIELDS.index(fld))
    for _ in range(12):
        nv = rng.randrange(2, 6)
        F = _random_terms_form(
            nv, rng.randrange(0, 7), fld, rng, rng.choice([None, 1, 3, 8])
        )
        for piv in range(nv):
            H = _hyperplane(nv, fld, rng, piv)
            G = restrict_mod(F, H)
            assert G == _expand_restriction(F, H)
            assert G.nvars == nv - 1
            assert G.degree == (F.degree if G.coeffs else -1)


@pytest.mark.parametrize("fld", RESTRICTION_FIELDS, ids=RESTRICTION_IDS)
def test_restriction_edge_shapes(fld):
    rng = trial_rng(72, RESTRICTION_FIELDS.index(fld))
    c = _scalar(fld, rng) or fld.one
    # one variable: y0 = 0 on H, so only a constant survives, in 0 variables
    H1 = LinearForm([_scalar(fld, rng) or fld.one], fld)
    assert restrict_mod(Form.monomial(1, fld, [3], c), H1) == Form.zero(0, fld)
    assert restrict_mod(Form.constant(1, fld, c), H1) == Form.constant(0, fld, c)
    # a constant in several variables stays that constant
    H4 = _hyperplane(4, fld, rng, 2)
    assert restrict_mod(Form.constant(4, fld, c), H4) == Form.constant(3, fld, c)
    assert restrict_mod(Form.zero(4, fld), H4) == Form.zero(3, fld)
    # a power of H vanishes on H, whatever the pivot and the zeros of H
    for piv in range(4):
        H = _hyperplane(4, fld, rng, piv)
        assert restrict_mod(H.as_form() ** 3, H).is_zero
    # H = a * y_piv: the image keeps only the terms free of the pivot
    F = _random_terms_form(3, 4, fld, rng)
    G = restrict_mod(F, LinearForm([0, c, 0], fld))
    assert G == _expand_restriction(F, LinearForm([0, c, 0], fld))


@pytest.mark.parametrize("fld", RESTRICTION_FIELDS, ids=RESTRICTION_IDS)
def test_restriction_of_sparse_forms_in_many_variables(fld):
    # (5 + 1)^29 > 2^63: the packed monomial keys are Python integers
    rng = trial_rng(73, RESTRICTION_FIELDS.index(fld))
    for piv in (0, 17, 29):
        terms = []
        for k in range(6):  # every pivot exponent, so every Horner step
            mono = [0] * 30
            mono[piv] = k
            for _ in range(5 - k):
                mono[rng.randrange(30)] += 1
            terms.append((mono, _scalar(fld, rng) or fld.one))
        F = Form(30, fld, terms)
        # few terms in L keep the expansion's L^5 small
        H = _hyperplane(30, fld, rng, piv, zeros=0.8)
        assert restrict_mod(F, H) == _expand_restriction(F, H)


@pytest.mark.parametrize("fld", RESTRICTION_FIELDS, ids=RESTRICTION_IDS)
def test_batched_restriction_matches_each_form(fld):
    rng = trial_rng(75, RESTRICTION_FIELDS.index(fld))
    for _ in range(10):
        nv = rng.randrange(2, 6)
        H = _hyperplane(nv, fld, rng, rng.randrange(nv))
        d = rng.randrange(0, 6)
        forms = [
            _random_terms_form(nv, d, fld, rng, rng.choice([None, 1, 3, 8]))
            for _ in range(rng.randrange(1, 5))
        ]
        # forms that restrict to zero: zero itself and multiples of H
        forms.insert(rng.randrange(len(forms) + 1), Form.zero(nv, fld))
        if d:
            forms.insert(rng.randrange(len(forms) + 1), H.as_form() ** d)
        got = restriction._restrict(forms, H)
        assert got == [_expand_restriction(f, H) for f in forms]
        assert [g.degree for g in got] == [f.degree if g else -1 for f, g in zip(forms, got)]


@pytest.mark.parametrize("fld", RESTRICTION_FIELDS, ids=RESTRICTION_IDS)
def test_batched_restriction_with_object_keys(fld):
    # one form's keys fit int64 (4^31 < 2^63), three forms' prefixed keys
    # do not, so the batch packs Python integers
    nv, d = 32, 3
    assert (d + 1) ** (nv - 1) < 2**63 <= 3 * (d + 1) ** (nv - 1)
    rng = trial_rng(76, RESTRICTION_FIELDS.index(fld))
    for piv in (0, 13, 31):
        forms = []
        for _ in range(3):
            terms = []
            for k in range(d + 1):
                mono = [0] * nv
                mono[piv] = k
                for _ in range(d - k):
                    mono[rng.randrange(nv)] += 1
                terms.append((mono, _scalar(fld, rng) or fld.one))
            forms.append(Form(nv, fld, terms))
        H = _hyperplane(nv, fld, rng, piv, zeros=0.8)
        assert restriction._restrict(forms, H) == [_expand_restriction(f, H) for f in forms]


def test_restricted_rank_restricts_in_one_batch(monkeypatch):
    calls = []
    batch = restriction._restrict

    def recording(forms, H):
        calls.append(len(forms))
        return batch(forms, H)

    monkeypatch.setattr(restriction, "_restrict", recording)
    rng = trial_rng(31, 0)
    forms = [random_form(4, 3, DEFAULT_FIELD, rng) for _ in range(4)]
    assert restricted_rank(forms, random_linear_form(4, DEFAULT_FIELD, rng)) == 4
    assert calls == [4]


def test_restriction_multiplies_no_forms(monkeypatch):
    fld = DEFAULT_FIELD
    F = random_form(5, 4, fld, trial_rng(74, 0))
    H = random_linear_form(5, fld, trial_rng(74, 1))
    want = _expand_restriction(F, H)

    def refuse(*args):
        raise AssertionError("restrict_mod multiplied or powered a Form")

    monkeypatch.setattr(Form, "__mul__", refuse)
    monkeypatch.setattr(Form, "__pow__", refuse)
    assert restrict_mod(F, H) == want


def test_restriction_drops_one_variable():
    F = power_sum_form(4, 3, DEFAULT_FIELD)
    H = random_linear_form(4, DEFAULT_FIELD, trial_rng(0, 0))
    G = restrict_mod(F, H)
    assert G.nvars == 3 and G.degree == 3


def test_restriction_pivot_choice_is_immaterial():
    # every pivot parametrizes the same hyperplane {H = 0}, so two images
    # differ by an invertible linear change of coordinates, which keeps the
    # Hilbert function and keeps zero zero; gic_verify relies on this
    for t, fld in enumerate([GF(7), GF(11), DEFAULT_FIELD, QQ]):
        rng = trial_rng(22, t)
        for _ in range(10):
            nv = rng.randrange(3, 6)
            F = _random_terms_form(
                nv, rng.randrange(3, 6), fld, rng, rng.choice([None, 2, 4, 8])
            )
            zeros = rng.choice([0, 0.6])
            coeffs = [0 if rng.random() < zeros else _scalar(fld, rng) for _ in range(nv)]
            coeffs[rng.randrange(nv)] = _scalar(fld, rng) or fld.one
            hfs = set()
            for piv, a in enumerate(coeffs):
                if fld.is_zero(fld.coerce(a)):
                    continue
                G = restrict_mod(F, LinearForm(coeffs, fld, pivot=piv))
                hfs.add(None if G.is_zero else tuple(hilbert_function(G)))
            assert len(hfs) == 1, (F, coeffs)
            if G.is_zero:
                continue
            assert hfs == {span_oracle.span_hilbert(
                G.coeffs, G.nvars, G.degree, fld.char or None
            )}


def test_restriction_monotone_hilbert_function():
    for t in range(10):
        rng = trial_rng(23, t)
        nv = rng.randrange(3, 7)
        F = random_form(nv, rng.randrange(3, 6), DEFAULT_FIELD, rng)
        G = restrict_mod(F, random_linear_form(nv, DEFAULT_FIELD, rng))
        if G.is_zero:
            continue
        hf, hg = hilbert_function(F), hilbert_function(G)
        assert all(hg[i] <= hf[i] for i in range(len(hg)))


def test_restriction_ring_mismatch():
    F = power_sum_form(3, 3, QQ)
    with pytest.raises(MixedRingsError):
        restrict_mod(F, LinearForm([1, 1], QQ))
    with pytest.raises(MixedRingsError):
        restrict_mod(F, LinearForm([1, 1, 1], DEFAULT_FIELD))


def test_explicit_double_quadric_restriction():
    # (y0^2+y1^2+y2^2)^2 cut by y0 = 0 keeps two essential variables
    F = parse_form("y0^2 + y1^2 + y2^2", 3, QQ) ** 2
    H = LinearForm([QQ.one, QQ.zero, QQ.zero], QQ, pivot=0)
    G = restrict_mod(F, H)
    assert G == parse_form("y0^2 + y1^2", 2, QQ) ** 2
    hf = hilbert_function(G)
    assert hf.codimension == 2
    assert tuple(hf) == (1, 2, 3, 2, 1)


def test_codim_drop_check_passes_on_full_codim_forms():
    F = power_sum_form(5, 4, DEFAULT_FIELD)
    report = codim_drop_check(F, trials=10, seed=3)
    assert report.ok and report.failures == 0
    assert report.trials == 10


def test_codim_drop_check_hypothesis_gating():
    with pytest.raises(HypothesisError):
        codim_drop_check(parse_form("y0^2 + y1^2 + y2^2", 3, QQ), 5)  # degree 2
    with pytest.raises(HypothesisError):
        codim_drop_check(parse_form("y0^3 + y1^3", 2, QQ), 5)  # two variables
    with pytest.raises(HypothesisError):
        codim_drop_check(parse_form("y0^3", 3, QQ), 5)  # codim 1 in 3 vars


def test_codim_drop_witnesses_record_replay_data():
    F = power_sum_form(4, 3, DEFAULT_FIELD)
    report = codim_drop_check(F, trials=3, seed=9)
    d = report.to_dict()
    assert d["name"] == "codim-drop"
    assert d["trials"] == 3 and d["failures"] == 0
    assert d["seed"] == 9 and d["witnesses"] == []


def test_restricted_rank_full_rank_generic():
    fld = DEFAULT_FIELD
    rng = trial_rng(31, 0)
    forms = [random_form(3, 2, fld, rng) for _ in range(3)]
    H = random_linear_form(3, fld, rng)
    assert restricted_rank(forms, H) == 3


def test_restricted_rank_counterexample_pure_cubes():
    # cutting by y0 kills y0^3 and leaves only two independent restrictions
    fld = QQ
    cubes = [parse_form(f"y{i}^3", 3, fld) for i in range(3)]
    H = LinearForm([fld.one, fld.zero, fld.zero], fld, pivot=0)
    assert restricted_rank(cubes, H) == 2


def test_restricted_rank_precondition_errors():
    fld = QQ
    H = LinearForm([fld.one, fld.one, fld.one], fld)
    q = parse_form("y0^2", 3, fld)
    with pytest.raises(PreconditionError):
        restricted_rank([q, q], H)  # wrong count
    with pytest.raises(PreconditionError):
        restricted_rank([q, q.scale(2), parse_form("y1^2", 3, fld)], H)  # dependent
    with pytest.raises(PreconditionError):
        # common factor y0
        restricted_rank(
            [parse_form(t, 3, fld) for t in ("y0^2", "y0*y1", "y0*y2")], H
        )
    with pytest.raises(PreconditionError):
        # mixed degrees
        restricted_rank(
            [parse_form(t, 3, fld) for t in ("y0^2", "y1^2", "y2^2")][:2]
            + [parse_form("y0^3", 3, fld)],
            H,
        )
    with pytest.raises(PreconditionError):
        # linear forms are out of scope (degree must exceed 1)
        restricted_rank([parse_form(f"y{i}", 2, fld) for i in range(2)],
                        LinearForm([fld.one, fld.one], fld))


def test_quadratic_is_split():
    assert quadratic_is_split(parse_form("y0*y1", 3, QQ))
    assert quadratic_is_split(parse_form("y0^2", 3, QQ))
    assert quadratic_is_split(parse_form("y0^2 + y1^2", 3, QQ))  # rank 2
    assert not quadratic_is_split(parse_form("y0^2 + y1^2 + y2^2", 3, QQ))
    assert not quadratic_is_split(parse_form("y0*y1 + y2^2", 3, QQ))
    # irreducible over GF(2^31 - 1) (3 is not a square there) yet split
    assert quadratic_is_split(parse_form("y0^2 - 3*y1^2", 3, DEFAULT_FIELD))


def test_check_partials_gcd_explicit_cases():
    fld = QQ
    L1 = parse_form("y0 + y1", 3, fld)
    L2 = parse_form("y2", 3, fld)
    Q = parse_form("y0^2 + y1^2 + y2^2", 3, fld)
    assert check_partials_gcd([(L1, 2), (L2, 1)])
    assert check_partials_gcd([(L1, 3)])
    assert check_partials_gcd([(Q, 2), (L1, 1)])
    assert check_partials_gcd([(L1, 1), (L2, 1)])  # squarefree: gcd is 1
    # F = 2*L1^2 predicts gcd 1, but its partials share L1
    assert not check_partials_gcd([(L1, 1), (L1.scale(2), 1)])
    with pytest.raises(ValueError):
        check_partials_gcd([])
    with pytest.raises(ValueError):
        check_partials_gcd([(L1, 0)])
    with pytest.raises(ValueError):
        check_partials_gcd([(Form.constant(3, fld, fld.one), 2)])


def test_check_partials_gcd_refuses_multiplicity_divisible_by_char():
    # mod 7 the partials of L^7 vanish, so L^6 is not their gcd
    fld = GF(7)
    L = parse_form("y0 + 3*y1 + 2*y2", 3, fld)
    M = parse_form("y0 + 4*y1 + 5*y2", 3, fld)
    with pytest.raises(ValueError, match="characteristic 7"):
        check_partials_gcd([(L, 7), (M, 1)])
    assert check_partials_gcd([(L, 6), (M, 1)])


@pytest.mark.parametrize(
    "fld", [QQ, GF(7), DEFAULT_FIELD, GF(2**61 - 1)], ids=lambda f: f.spec
)
def test_coprime_on_plane_is_one_sided(fld):
    certified = 0
    for t in range(12):
        rng = trial_rng(61, t)
        nv = rng.randrange(3, 5)
        forms = [random_form(nv, rng.randrange(1, 3), fld, rng, terms=3)
                 for _ in range(3)]
        # soundness holds for every plane, so vary it
        if restriction._coprime_on_plane(forms, random.Random(t)):
            certified += 1
            assert form_gcd(forms).degree == 0
        common = random_form(nv, rng.choice([1, 2]), fld, rng)
        planted = [f * common for f in forms]
        assert not restriction._coprime_on_plane(planted, random.Random(t))
    assert certified > 0


def _expanded_images(forms, a, b):
    # sum of c * prod (a_k s + b_k t)^m_k, by Form arithmetic alone
    fld = forms[0].field
    lines = [Form(2, fld, [((1, 0), x), ((0, 1), y)]) for x, y in zip(a, b)]
    one = Form.constant(2, fld, 1)
    return [
        sum(
            (
                math.prod((L**m for L, m in zip(lines, mono)), start=one).scale(c)
                for mono, c in f.coeffs.items()
            ),
            Form.zero(2, fld),
        )
        for f in forms
    ]


@pytest.mark.parametrize("fld", RESTRICTION_FIELDS, ids=RESTRICTION_IDS)
def test_plane_images_match_expanded_substitution(fld):
    for t in range(16):
        rng = trial_rng(62, t)
        nv = rng.randrange(3, 7)
        forms = [
            _random_terms_form(nv, rng.randrange(0, 9), fld, rng, rng.randrange(1, 7))
            for _ in range(rng.randrange(1, 4))
        ]
        forms.insert(rng.randrange(len(forms) + 1), Form.zero(nv, fld))
        forms.append(Form.constant(nv, fld, _scalar(fld, rng) or fld.one))
        # a zero or repeated coefficient must not matter
        a = [fld.coerce(_scalar(fld, rng)) for _ in range(nv)]
        b = [fld.coerce(_scalar(fld, rng)) for _ in range(nv)]
        a[rng.randrange(nv)] = fld.zero
        b[rng.randrange(nv)] = a[0]
        images = restriction._plane_images(forms, a, b)
        assert images == _expanded_images(forms, a, b)
        for g, f in zip(images, forms):
            assert g.nvars == 2 and g.degree == (f.degree if g.coeffs else -1)
            assert all(type(c) is type(fld.one) for c in g.coeffs.values())


@pytest.mark.parametrize("fld", RESTRICTION_FIELDS, ids=RESTRICTION_IDS)
def test_planted_common_factor_never_certifies(fld):
    for t in range(12):
        rng = trial_rng(63, t)
        nv = rng.randrange(3, 7)
        common = random_form(nv, rng.randrange(1, 3), fld, rng, terms=3)
        planted = [
            random_form(nv, rng.randrange(0, 4), fld, rng, terms=3) * common
            for _ in range(3)
        ]
        assert not restriction._coprime_on_plane(planted, random.Random(t))
        # degenerate planes too: b proportional to a, or b zero
        a = [fld.random(rng) for _ in range(nv)]
        for b in ([fld.mul(c, fld.from_int(3)) for c in a], [fld.zero] * nv):
            images = [g for g in restriction._plane_images(planted, a, b) if g]
            assert not images or form_gcd(images).degree >= common.degree


def test_plane_fallback_keeps_reports(monkeypatch, capsys):
    def reports():
        out = []
        for seed in range(5):
            argv = ["check-lemmas", "--trials", "1", "--seed", str(seed),
                    "--format", "json"]
            out.append((run(argv), capsys.readouterr().out))
        return out

    certified = reports()
    monkeypatch.setattr(restriction, "_coprime_on_plane", lambda *args: False)
    assert reports() == certified


def _random_factors(nvars, fld, rng):
    """A factor list for check_partials_gcd, sometimes with a repeated
    factor up to a scalar, which makes the cofactors share it."""
    factors = []
    for _ in range(rng.randrange(1, 4)):
        p = random_form(nvars, rng.choice([1, 1, 2]), fld, rng, terms=rng.randrange(1, 4))
        factors.append((p, rng.randrange(1, min(4, fld.char or 4))))
    if rng.random() < 0.3:
        p, _ = rng.choice(factors)
        factors.append((p.scale(fld.from_int(2)), 1))
    return factors


@pytest.mark.parametrize("fld", RESTRICTION_FIELDS, ids=RESTRICTION_IDS)
def test_partials_certificate_matches_forced_fallback(monkeypatch, fld):
    rng = trial_rng(64, RESTRICTION_FIELDS.index(fld))
    cases = [_random_factors(rng.randrange(3, 5), fld, rng) for _ in range(20)]
    verdicts = [check_partials_gcd(f) for f in cases]
    assert True in verdicts and False in verdicts
    monkeypatch.setattr(restriction, "_coprime_on_plane", lambda *args: False)
    assert [check_partials_gcd(f) for f in cases] == verdicts


@pytest.mark.parametrize("fld", RESTRICTION_FIELDS, ids=RESTRICTION_IDS)
def test_partials_step_gives_the_cofactors_plane_images(monkeypatch, fld):
    # the substitution is a ring map, so the step applied to the images of
    # the factors and their partials must give the images of the cofactors
    calls = []
    monkeypatch.setattr(
        restriction,
        "_coprime_on_plane",
        lambda forms, rng, step: calls.append((forms, step)) or True,
    )
    rng = trial_rng(66, RESTRICTION_FIELDS.index(fld))
    for _ in range(10):
        factors = _random_factors(rng.randrange(3, 5), fld, rng)
        check_partials_gcd(factors)
        forms, step = calls.pop()
        ps = [p for p, _ in factors]
        nv = ps[0].nvars
        partials = [[p.partial(i) for p in ps] for i in range(nv)]
        cofactors = restriction._cofactors(ps, partials, [e for _, e in factors])
        a = [fld.random(rng) for _ in range(nv)]
        b = [fld.random(rng) for _ in range(nv)]
        images = restriction._plane_images(forms, a, b)
        assert step(images) == restriction._plane_images(cofactors, a, b)


@pytest.mark.parametrize("fld", RESTRICTION_FIELDS, ids=RESTRICTION_IDS)
def test_certified_partials_multiply_only_binary_forms(monkeypatch, fld):
    mul = Form.__mul__

    def binary_only(f, g):
        if f.nvars > 2:
            raise AssertionError("multiplied forms in three or more variables")
        return mul(f, g)

    plane = restriction._coprime_on_plane

    def certifies(factors):
        held = []
        with monkeypatch.context() as m:
            m.setattr(
                restriction,
                "_coprime_on_plane",
                lambda *args: held.append(plane(*args)) or held[-1],
            )
            check_partials_gcd(factors)
        return held == [True]

    rng = trial_rng(65, RESTRICTION_FIELDS.index(fld))
    cases = [_random_factors(rng.randrange(3, 5), fld, rng) for _ in range(12)]
    certified = [f for f in cases if certifies(f)]
    assert certified
    monkeypatch.setattr(Form, "__mul__", binary_only)
    assert all(check_partials_gcd(f) for f in certified)


def test_suites_reach_form_gcd_only_on_binary_forms(monkeypatch):
    nvars = []

    def recording_gcd(forms):
        forms = list(forms)
        nvars.append(forms[0].nvars)
        return form_gcd(forms)

    monkeypatch.setattr(restriction, "form_gcd", recording_gcd)
    run_partials_gcd_suite(100, seed=5)
    run_restricted_rank_suite(100, seed=3)
    assert nvars and max(nvars) <= 2


def test_restricted_rank_witness_needs_every_hyperplane_to_drop_rank(monkeypatch):
    hyperplanes = []

    def always_drops(forms, H):
        hyperplanes.append(str(H))
        return len(forms) - 1

    monkeypatch.setattr(restriction, "_restricted_span_rank", always_drops)
    rep = run_restricted_rank_suite(1, seed=0)
    # the first hyperplane, then eight redraws from the trial's stream
    assert len(hyperplanes) == 9 and len(set(hyperplanes)) == 9
    assert [w.hyperplane for w in rep.witnesses] == hyperplanes[:1]


def test_codim_drop_witness_needs_every_hyperplane_to_drop_codim(monkeypatch):
    hyperplanes = []

    def always_drops(F, H):
        hyperplanes.append(str(H))
        return F.nvars - 2

    monkeypatch.setattr(restriction, "_restricted_codim", always_drops)
    rep = run_codim_drop_suite(1, seed=0)
    # the first hyperplane, then eight redraws from the trial's stream
    assert len(hyperplanes) == 9 and len(set(hyperplanes)) == 9
    assert [w.hyperplane for w in rep.witnesses] == hyperplanes[:1]
    hyperplanes.clear()
    rep = codim_drop_check(power_sum_form(4, 3, DEFAULT_FIELD), trials=1, seed=0)
    assert len(hyperplanes) == 9 and len(set(hyperplanes)) == 9
    assert [w.hyperplane for w in rep.witnesses] == hyperplanes[:1]


def test_suites_report_zero_failures_smoke():
    assert run_codim_drop_suite(8, seed=1).ok
    assert run_restricted_rank_suite(8, seed=1).ok
    assert run_partials_gcd_suite(8, seed=1).ok


def test_suite_reports_serialize():
    rep = run_codim_drop_suite(4, seed=2)
    d = rep.to_dict()
    assert set(d) == {"name", "trials", "failures", "modulus", "seed", "witnesses"}
    assert d["failures"] == 0


def test_restriction_preserves_oracle_agreement():
    # restricted forms stay consistent with the independent span oracle
    for t in range(8):
        rng = trial_rng(41, t)
        nv = rng.randrange(3, 6)
        F = random_form(nv, rng.randrange(3, 6), DEFAULT_FIELD, rng)
        G = restrict_mod(F, random_linear_form(nv, DEFAULT_FIELD, rng))
        if G.is_zero:
            continue
        assert tuple(hilbert_function(G)) == span_oracle.span_hilbert(
            G.coeffs, G.nvars, G.degree, DEFAULT_PRIME
        )
