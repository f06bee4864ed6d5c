import dataclasses
import itertools
from fractions import Fraction

import pytest

import apolar
import apolar.search
import span_oracle
from apolar import (
    GF,
    QQ,
    DEFAULT_FIELD,
    FBoundEntry,
    Form,
    IncompleteTableError,
    LinearForm,
    RealizationGapError,
    ZeroFormError,
    asymptotic_reference,
    bipartite_monomial_form,
    classify_h_vector,
    codimension,
    gic_verify,
    hilbert_function,
    hilbert_functions,
    known_min_h2,
    load_table,
    max_h2,
    padded_form,
    power_sum_form,
    realize_interval,
    restrict_mod,
    search_min_h2,
    verify_certificate,
)
from apolar.cli import run
from apolar.poly import monomials_of_degree


def test_known_tables():
    assert [known_min_h2(4, r) for r in range(1, 14)] == list(range(1, 13)) + [12]
    assert known_min_h2(4, 14) is None
    assert [known_min_h2(5, r) for r in (1, 8, 16)] == [1, 8, 16]
    assert known_min_h2(5, 17) is None
    assert known_min_h2(3, 40) == 40
    assert max_h2(13) == 91
    with pytest.raises(ValueError):
        known_min_h2(6, 3)
    with pytest.raises(ValueError):
        known_min_h2(4, 0)


def test_power_sum_form_shape():
    F = power_sum_form(7, 5, QQ)
    assert F.nvars == 7 and F.degree == 5 and len(F.coeffs) == 7
    assert tuple(hilbert_function(F)) == (1, 7, 7, 7, 7, 1)
    with pytest.raises(ValueError):
        power_sum_form(0, 4)


def test_bipartite_form_nonunimodal_example():
    F = bipartite_monomial_form(3, 4)
    assert F.nvars == 13 and len(F.coeffs) == 10
    assert tuple(hilbert_function(F)) == (1, 13, 12, 13, 1)
    hf = hilbert_function(F)
    assert hf[2] < hf[1]  # strictly nonunimodal middle


def test_bipartite_form_small_cases():
    assert tuple(hilbert_function(bipartite_monomial_form(1, 4, QQ))) == (1, 2, 2, 2, 1)
    assert tuple(hilbert_function(bipartite_monomial_form(2, 4, QQ))) == (1, 6, 6, 6, 1)
    with pytest.raises(ValueError):
        bipartite_monomial_form(0, 4)
    with pytest.raises(ValueError):
        bipartite_monomial_form(2, 2)


def test_bipartite_truncation():
    # dropping one multiplier variable from (3, 5) lands on codimension 17
    F = bipartite_monomial_form(3, 5, keep=14)
    assert F.nvars == 17
    assert tuple(hilbert_function(F)) == (1, 17, 16, 16, 17, 1)
    with pytest.raises(ValueError):
        bipartite_monomial_form(3, 5, keep=16)  # only 15 monomials exist
    with pytest.raises(ValueError):
        bipartite_monomial_form(3, 5, keep=0)


def test_bipartite_lists_monomials_lazily_in_graded_lex_order():
    for m in range(1, 13):
        for d in range(2, 5):
            monos = monomials_of_degree(m, d)
            for keep in sorted({1, m, (len(monos) + 1) // 2, len(monos)}):
                F = bipartite_monomial_form(m, d + 1, keep=keep)
                expected = {
                    mono + tuple(int(j == i) for j in range(keep)): 1
                    for i, mono in enumerate(monos[:keep])
                }
                assert F.nvars == m + keep and F.coeffs == expected
            assert bipartite_monomial_form(m, d + 1) == F


def test_padded_form_adds_to_middle_entries():
    G = power_sum_form(2, 4, QQ)
    F = padded_form(G, 3)
    assert F.nvars == 5
    assert tuple(hilbert_function(F)) == (1, 5, 5, 5, 1)
    S = padded_form(bipartite_monomial_form(3, 4), 1)
    assert tuple(hilbert_function(S)) == (1, 14, 13, 14, 1)
    assert padded_form(G, 0) is G
    with pytest.raises(ZeroFormError):
        padded_form(G - G, 1)


def test_verify_certificate():
    F = power_sum_form(4, 4, QQ)
    assert verify_certificate(F, 4, 4, 4)
    assert not verify_certificate(F, 4, 4, 5)
    assert not verify_certificate(F, 5, 4, 4)
    # h_2 = r in socle degree 3, so only a == r verifies
    F3 = power_sum_form(4, 3)
    assert verify_certificate(F3, 3, 4, 4)
    assert not verify_certificate(F3, 3, 4, 2)


def test_fbound_entry_round_trip_and_verify():
    en = search_min_h2(4, 13)
    assert en.bound == 12 and en.exact
    assert en.verify()
    d = en.to_dict()
    assert FBoundEntry.from_dict(d) == en
    # reports omit the timestamp
    assert "timestamp" not in en.to_dict(with_timestamp=False)
    bogus = FBoundEntry.from_dict({**d, "bound": 11})
    assert not bogus.verify()
    broken = FBoundEntry.from_dict({**d, "certificate": "y0^4 + junk"})
    assert not broken.verify()


def test_fbound_entry_holds_only_what_cannot_be_derived():
    en = search_min_h2(4, 13)
    assert [f.name for f in dataclasses.fields(en)] == [
        "e", "r", "bound", "certificate", "nvars", "field_spec", "timestamp",
    ]
    with pytest.raises(AttributeError):
        en.exact = False
    # exact is False where no minimum is known or (e, r) is unsupported
    assert en.exact and not dataclasses.replace(en, bound=13).exact
    assert not search_min_h2(4, 14).exact
    assert not dataclasses.replace(en, e=6).exact
    assert not dataclasses.replace(en, r=0).exact
    # an older item's seed and a stored exact are not read
    old = dict(en.to_dict(), seed=7, exact="false")
    assert FBoundEntry.from_dict(old) == en and "seed" not in en.to_dict()


def test_known_minimum_never_decreases():
    for e in (3, 4, 5):
        known = [known_min_h2(e, r) for r in range(1, 41)]
        exact = [a for a in known if a is not None]
        assert exact == sorted(exact), e


def test_f_upper_bound_exact_range():
    for r in (3, 7, 12):
        en = search_min_h2(4, r)
        assert en.bound == r and en.exact
        F = en.parse_certificate()
        assert codimension(F) == r
    en = search_min_h2(5, 16)
    assert en.bound == 16 and en.exact


def test_f_upper_bound_beyond_exact_range():
    en = search_min_h2(4, 14)
    assert en.bound <= 13 and not en.exact
    assert en.verify()
    en5 = search_min_h2(5, 17)
    assert en5.bound <= 16 and not en5.exact


def test_f_upper_bound_is_deterministic():
    a = search_min_h2(4, 9)
    b = search_min_h2(4, 9)
    assert a.to_dict(with_timestamp=False) == b.to_dict(with_timestamp=False)
    with pytest.raises(ValueError):
        search_min_h2(3, 5)


def test_public_names_are_unique():
    names = {}
    for name in apolar.__all__:
        first = names.setdefault(id(getattr(apolar, name)), name)
        assert first == name, f"{name} is an alias of {first}"


def test_classification_socle_degree_three():
    assert classify_h_vector(3, 7, 7) == "gorenstein"
    assert classify_h_vector(3, 7, 6) == "not-gorenstein"


def test_classification_exact_range():
    assert classify_h_vector(4, 13, 12) == "gorenstein"
    assert classify_h_vector(4, 13, 11) == "not-gorenstein"
    assert classify_h_vector(4, 13, 91) == "gorenstein"
    assert classify_h_vector(4, 13, 92) == "not-gorenstein"  # above the cap
    assert classify_h_vector(5, 16, 15) == "not-gorenstein"
    with pytest.raises(ValueError):
        classify_h_vector(6, 3, 3)


def test_classification_beyond_range_uses_table():
    en = search_min_h2(4, 14)
    assert classify_h_vector(4, 14, en.bound, [en]) == "gorenstein"
    assert classify_h_vector(4, 14, en.bound - 1, [en]) == "unknown"
    assert classify_h_vector(4, 14, 10, []) == "unknown"
    assert classify_h_vector(4, 14, max_h2(14) + 1, []) == "not-gorenstein"


def test_realize_interval_small():
    certs = realize_interval(4, 3)
    assert sorted(certs) == list(range(3, max_h2(3) + 1))
    for a, F in certs.items():
        assert verify_certificate(F, 4, 3, a)
    with pytest.raises(ValueError):
        realize_interval(4, 14)  # beyond the certified exact range
    with pytest.raises(ValueError):
        realize_interval(3, 5)


def test_realize_interval_ranks_each_form_once(monkeypatch):
    # the structured forms and the chain go to one hilbert_functions call
    seen = []
    calls = []

    def counting(forms):
        forms = list(forms)
        calls.append(len(forms))
        seen.extend((F.nvars, str(F)) for F in forms)
        return hilbert_functions(forms)

    monkeypatch.setattr(apolar.search, "hilbert_functions", counting)
    certs = realize_interval(4, 8)
    assert sorted(certs) == list(range(8, max_h2(8) + 1))
    assert len(seen) == len(set(seen))
    assert len(calls) == 1


def test_realize_interval_chain_miss_loses_only_its_own_value(monkeypatch):
    # step 22 of the r = 8 chain certifies 30, which no structured form has;
    # a Hilbert function one short there (as a rank that dropped mod p
    # would give) leaves 30 a gap and every later step keeps its value
    full = {a: str(F) for a, F in realize_interval(4, 8).items()}
    chain = power_sum_form(8, 4)
    for i, j in list(itertools.combinations(range(8), 2))[:22]:
        L = LinearForm([int(t in (i, j)) for t in range(8)], DEFAULT_FIELD)
        chain = chain + L.as_form() ** 4
    assert full[30] == str(chain)

    def missing_one(forms):
        forms = list(forms)
        hfs = hilbert_functions(forms)
        return [
            (1, 8, 29, 8, 1) if str(F) == full[30] else hf
            for F, hf in zip(forms, hfs)
        ]

    monkeypatch.setattr(apolar.search, "hilbert_functions", missing_one)
    with pytest.raises(RealizationGapError) as info:
        realize_interval(4, 8)
    assert info.value.gaps == [30]
    kept = {a: str(F) for a, F in info.value.certificates.items()}
    assert kept == {a: F for a, F in full.items() if a != 30}


def test_realize_interval_builds_one_chain_of_powers(monkeypatch):
    # one binary power per value above the power sum, the pairs i < j in
    # lexicographic order: C(8, 2) = C(9, 2) - 8 of them for r = 8
    powers = []
    pow_ = Form.__pow__

    def counting(self, k):
        powers.append((str(self), k))
        return pow_(self, k)

    monkeypatch.setattr(Form, "__pow__", counting)
    certs = realize_interval(4, 8)
    assert sorted(certs) == list(range(8, max_h2(8) + 1))
    pairs = itertools.combinations(range(8), 2)
    assert powers == [(f"y{i} + y{j}", 4) for i, j in pairs]


def _refuse(*args, **kwargs):
    raise AssertionError("drew a random number")


def _forbid_random_draws(monkeypatch):
    # search.py does not import random_form; raising=False keeps the guard
    # should it ever do so
    monkeypatch.setattr(apolar.search, "trial_rng", _refuse)
    monkeypatch.setattr(apolar.search, "random_form", _refuse, raising=False)


def test_search_min_h2_draws_nothing(monkeypatch):
    _forbid_random_draws(monkeypatch)
    for e, r in ((4, 5), (4, 13), (5, 7), (5, 16)):
        en = search_min_h2(e, r)
        assert en.bound == known_min_h2(e, r) and en.exact
    en = search_min_h2(4, 14)
    assert en.bound <= 13 and en.verify()


def test_realize_interval_small_field_matches_oracle(monkeypatch):
    # the fixed chain draws nothing and needs only char > e, so the same
    # path covers the small fields and the rationals
    _forbid_random_draws(monkeypatch)
    for p in (7, 11, None):
        fld = QQ if p is None else GF(p)
        for e, rmax in ((4, 6), (5, 5)):
            for r in range(1, rmax + 1):
                lo, hi = known_min_h2(e, r), max_h2(r)
                certs = realize_interval(e, r, fld=fld)
                assert sorted(certs) == list(range(lo, hi + 1))
                for a, F in certs.items():
                    got = span_oracle.span_hilbert(F.coeffs, F.nvars, F.degree, p)
                    assert got == apolar.search.expected_hf(e, r, a)


def test_realize_interval_socle_five_codimension_ten():
    certs = realize_interval(5, 10)
    assert sorted(certs) == list(range(10, max_h2(10) + 1))
    for a, F in certs.items():
        assert verify_certificate(F, 5, 10, a)


def test_realize_interval_socle_five():
    certs = realize_interval(5, 3)
    assert sorted(certs) == list(range(3, 7))
    for a, F in certs.items():
        assert tuple(hilbert_function(F)) == (1, 3, a, a, 3, 1)


def test_realization_gap_error_shape():
    err = RealizationGapError([7, 9], {5: None})
    assert err.gaps == [7, 9]
    assert "7" in str(err)


def test_gic_verify_known_ranges():
    table = [search_min_h2(4, r) for r in range(3, 14)]
    rep = gic_verify(4, 3, 13, table, seed=0)
    assert rep.nondecreasing and rep.ok
    for row in rep.rows:
        assert row["upper"] == row["lower"]  # exact everywhere in range
    assert [d["r"] for d in rep.descent] == list(range(3, 14))
    assert all(d["ok"] for d in rep.descent)


def test_gic_descent_rows_replay_from_their_hyperplane():
    # the replay eliminates H's last variable, as `restrict --H` does, while
    # gic_verify eliminates a least-degree one: the two must agree
    for fld in (DEFAULT_FIELD, GF(7), QQ):
        for e, r_hi in ((4, 16), (5, 13)):
            table = [search_min_h2(e, r, fld) for r in range(3, r_hi + 1)]
            descent = gic_verify(e, 3, r_hi, table, seed=0).descent
            assert [row["r"] for row in descent] == list(range(3, r_hi + 1))
            for en, row in zip(table, descent):
                H = LinearForm([Fraction(c) for c in row["H"].split(",")], fld)
                G = restrict_mod(en.parse_certificate(), H)
                assert str(hilbert_function(G)) == row["restricted_hf"], (fld, e, en.r)


@pytest.mark.parametrize(
    "e,r_lo,r_hi", [(4, 3, 16), (5, 3, 13), (5, 28, 30), (4, 40, 42)]
)
def test_gic_descent_restrictions_stay_sparse(monkeypatch, e, r_lo, r_hi):
    # every certificate has a variable of degree 1 in a single term, and
    # eliminating it replaces that term by at most nvars - 1 terms; the last
    # variable is a pure power y^e, whose elimination expands a dense L^e
    # (4368 terms at e = 5, r = 13)
    table = [search_min_h2(e, r) for r in range(r_lo, r_hi + 1)]
    _check_descent_sizes(monkeypatch, e, r_lo, r_hi, table)


def _check_descent_sizes(monkeypatch, e, r_lo, r_hi, table):
    """gic_verify passes on table, and each descent row restricts its
    certificate F to at most len(F.coeffs) + F.nvars terms."""
    sizes = []

    def counting(F, H):
        G = restrict_mod(F, H)
        sizes.append((len(G.coeffs), len(F.coeffs) + F.nvars))
        return G

    monkeypatch.setattr(apolar.search, "restrict_mod", counting)
    assert gic_verify(e, r_lo, r_hi, table, seed=0).ok
    assert len(sizes) == r_hi - max(r_lo, 3) + 1
    assert all(got <= cap for got, cap in sizes), sizes


@pytest.mark.parametrize("e,r_hi", [(4, 13), (5, 16)])
def test_gic_descents_stay_sparse_on_a_cache_filled_by_realize(
    tmp_path, capsys, monkeypatch, e, r_hi
):
    # realize stores the certificate of its least value, the one with the
    # fewest terms; the power sum has that value too, and its restriction
    # would expand L^e (11628 terms at e = 5, r = 16)
    cache = str(tmp_path / "bounds.json")
    for r in range(3, r_hi + 1):
        assert run(["realize", "--e", str(e), "--r", str(r), "--cache", cache]) == 0
    capsys.readouterr()
    _check_descent_sizes(monkeypatch, e, 3, r_hi, load_table(cache))


def test_gic_verify_incomplete_table():
    table = [search_min_h2(4, r) for r in (3, 5)]
    with pytest.raises(IncompleteTableError):
        gic_verify(4, 3, 5, table)
    with pytest.raises(ValueError):
        gic_verify(4, 5, 3, table)


def test_gic_verify_flags_bound_inversion():
    table = [search_min_h2(4, r) for r in (11, 12)]
    # forge an entry claiming a bound below the exact value at r = 11
    forged = FBoundEntry(
        e=4, r=13, bound=9,
        certificate=str(power_sum_form(13, 4)), nvars=13,
        field_spec=DEFAULT_FIELD.spec,
    )
    rep = gic_verify(4, 11, 13, table + [forged], seed=0)
    assert not rep.nondecreasing
    kinds = {v["kind"] for v in rep.violations}
    assert "bound-inversion" in kinds
    assert not rep.ok


def test_gic_report_serializes():
    table = [search_min_h2(4, r) for r in (3, 4)]
    d = gic_verify(4, 3, 4, table, seed=0).to_dict()
    assert d["e"] == 4 and len(d["rows"]) == 2
    assert {"rows", "violations", "descent", "nondecreasing"} <= set(d)


def test_asymptotic_reference_values():
    assert asymptotic_reference(4, 6) == pytest.approx(36 ** (2 / 3))
    assert asymptotic_reference(5, 54) == pytest.approx((24 * 54) ** 0.75 / 6)
    # annotation grows much slower than r
    assert asymptotic_reference(4, 10**6) < 10**6
    with pytest.raises(ValueError):
        asymptotic_reference(3, 10)
