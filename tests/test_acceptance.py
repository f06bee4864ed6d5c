"""Acceptance gate: ten criteria, each printing one PASS/FAIL line with its
elapsed time against the stated budget."""

import time

import span_oracle
from apolar import (
    QQ,
    DEFAULT_FIELD,
    DEFAULT_PRIME,
    LinearForm,
    RealizationGapError,
    bipartite_monomial_form,
    codimension,
    gic_verify,
    hilbert_function,
    known_min_h2,
    max_h2,
    parse_form,
    power_sum_form,
    random_form,
    random_linear_form,
    realize_interval,
    restrict_mod,
    restricted_rank,
    run_codim_drop_suite,
    run_partials_gcd_suite,
    run_restricted_rank_suite,
    search_min_h2,
    trial_rng,
    verify_certificate,
)
from apolar.cli import run


def _verdict(num, ok, detail, elapsed, budget=None):
    status = "PASS" if ok else "FAIL"
    timing = f"[{elapsed:.1f}s" + (f" / budget {budget:.0f}s]" if budget else "]")
    print(f"{status} criterion {num}: {detail} {timing}")
    assert ok, f"criterion {num}: {detail}"
    if budget is not None:
        assert elapsed < budget, f"criterion {num} over budget: {elapsed:.1f}s"


def test_criterion_01_power_sum_hilbert_functions():
    t0 = time.monotonic()
    bad = []
    for fld in (QQ, DEFAULT_FIELD):
        for e in (3, 4, 5):
            for r in range(1, 17):
                got = tuple(hilbert_function(power_sum_form(r, e, fld)))
                want = tuple([1] + [r] * (e - 1) + [1])
                if got != want:
                    bad.append((fld.spec, e, r, got))
    elapsed = time.monotonic() - t0
    _verdict(1, not bad, f"96 power-sum HFs over q and p ({bad or 'all match'})",
             elapsed, 5)


def test_criterion_02_nonunimodal_certificate():
    t0 = time.monotonic()
    results = {}
    for fld in (QQ, DEFAULT_FIELD):
        F = bipartite_monomial_form(3, 4, fld)
        results[fld.spec] = tuple(hilbert_function(F))
    elapsed = time.monotonic() - t0
    ok = all(v == (1, 13, 12, 13, 1) for v in results.values())
    _verdict(2, ok, f"bipartite(3,4) exact-rank HF = {results}", elapsed, 10)


def test_criterion_03_restriction_descent_of_certificate():
    t0 = time.monotonic()
    F = bipartite_monomial_form(3, 4, DEFAULT_FIELD)
    bad = []
    for t in range(20):
        H = random_linear_form(13, DEFAULT_FIELD, trial_rng(1234, t))
        got = tuple(hilbert_function(restrict_mod(F, H)))
        if got != (1, 12, 12, 12, 1):
            bad.append((t, got))
    elapsed = time.monotonic() - t0
    _verdict(3, not bad, f"20/20 random restrictions gave (1,12,12,12,1) {bad or ''}",
             elapsed, 30)


def test_criterion_04_codimension_drop_suite():
    t0 = time.monotonic()
    report = run_codim_drop_suite(200, seed=11)
    F = parse_form("y0^2 + y1^2 + y2^2", 3, QQ) ** 2
    H = LinearForm([QQ.one, QQ.zero, QQ.zero], QQ, pivot=0)
    explicit = codimension(restrict_mod(F, H))
    elapsed = time.monotonic() - t0
    ok = report.failures == 0 and explicit == 2
    _verdict(4, ok,
             f"200 trials, {report.failures} failures; explicit double quadric "
             f"restricted h_1 = {explicit}", elapsed, 120)


def test_criterion_05_partials_gcd_suite():
    t0 = time.monotonic()
    report = run_partials_gcd_suite(100, seed=5)
    elapsed = time.monotonic() - t0
    _verdict(5, report.failures == 0,
             f"100 factored forms, {report.failures} gcd mismatches", elapsed, 60)


def test_criterion_06_restricted_rank_suite():
    t0 = time.monotonic()
    report = run_restricted_rank_suite(100, seed=3)
    cubes = [parse_form(f"y{i}^3", 3, QQ) for i in range(3)]
    H = LinearForm([QQ.one, QQ.zero, QQ.zero], QQ, pivot=0)
    counter = restricted_rank(cubes, H)
    elapsed = time.monotonic() - t0
    ok = report.failures == 0 and counter == 2
    _verdict(6, ok,
             f"100 coprime tuples kept full rank, {report.failures} failures; "
             f"pure-cube counterexample rank = {counter}", elapsed, 60)


def test_criterion_07_symmetry_and_oracle_equivalence():
    t0 = time.monotonic()
    bad = []
    for t in range(100):
        rng = trial_rng(77, t)
        rational = t % 5 == 0
        fld = QQ if rational else DEFAULT_FIELD
        nv = rng.randrange(2, 5 if rational else 7)
        deg = rng.randrange(2, 6)
        terms = rng.randrange(2, 11) if rational else None
        F = random_form(nv, deg, fld, rng, terms=terms)
        hf = hilbert_function(F)
        if not hf.is_symmetric:
            bad.append(("asymmetric", t, tuple(hf)))
            continue
        oracle = span_oracle.span_hilbert(
            F.coeffs, F.nvars, F.degree, None if rational else DEFAULT_PRIME
        )
        if tuple(hf) != oracle:
            bad.append(("oracle-mismatch", t, tuple(hf), oracle))
    elapsed = time.monotonic() - t0
    _verdict(7, not bad,
             f"100 random forms symmetric and oracle-equal ({bad or 'all agree'})",
             elapsed, 120)


def test_criterion_08_interval_realization():
    t0 = time.monotonic()
    problems = []
    for r in (3, 4, 5, 13):
        lo, hi = known_min_h2(4, r), max_h2(r)
        try:
            certs = realize_interval(4, r)
        except RealizationGapError as exc:
            problems.append((r, "gaps", exc.gaps))
            continue
        if sorted(certs) != list(range(lo, hi + 1)):
            problems.append((r, "wrong keys", sorted(certs)))
            continue
        for a, F in certs.items():
            if not verify_certificate(F, 4, r, a):
                problems.append((r, "bad certificate", a))
    elapsed = time.monotonic() - t0
    _verdict(8, not problems,
             f"full intervals at r in (3,4,5,13) re-verified "
             f"({problems or 'no gaps'})", elapsed, 180)


def test_criterion_09_gic_tables_and_upper_bounds():
    t0 = time.monotonic()
    problems = []
    table4 = [search_min_h2(4, r) for r in range(3, 14)]
    rep4 = gic_verify(4, 3, 13, table4, seed=0)
    if not rep4.nondecreasing:
        problems.append(("gic4", rep4.violations))
    if any(row["upper"] != row["lower"] for row in rep4.rows):
        problems.append(("gic4 upper != lower", rep4.rows))
    if not all(d["ok"] for d in rep4.descent):
        problems.append(("gic4 descent", rep4.descent))
    table5 = [search_min_h2(5, r) for r in range(3, 17)]
    rep5 = gic_verify(5, 3, 16, table5, seed=0)
    if not rep5.nondecreasing:
        problems.append(("gic5", rep5.violations))
    if any(row["upper"] != row["lower"] for row in rep5.rows):
        problems.append(("gic5 upper != lower", rep5.rows))
    if not all(d["ok"] for d in rep5.descent):
        problems.append(("gic5 descent", rep5.descent))
    high = {}
    for r in range(14, 21):
        en = search_min_h2(4, r)
        high[r] = en.bound
        if en.bound > r - 1 or not en.verify():
            problems.append((f"f4({r})", en.bound))
    elapsed = time.monotonic() - t0
    _verdict(9, not problems,
             f"both tables nondecreasing with upper = lower at known values; "
             f"f4 bounds for r=14..20: {high} ({problems or 'consistent'})",
             elapsed, 180)


def test_criterion_10_deterministic_reports(capsys, tmp_path, monkeypatch):
    t0 = time.monotonic()
    monkeypatch.setenv("APOLAR_CACHE", str(tmp_path / "cache.json"))
    commands = [
        ["hf", "--form", "y0^4+y1^4", "--vars", "2", "--format", "json"],
        ["restrict", "--form", "y0^3+y1^3+y2^3", "--vars", "3", "--seed", "9"],
        ["check-lemmas", "--trials", "5", "--seed", "7", "--format", "tsv"],
        ["search-f", "--e", "4", "--r", "13", "--budget", "5"],
        ["gic", "--e", "4", "--rmin", "3", "--rmax", "5", "--budget", "5"],
    ]
    mismatched = []
    for argv in commands:
        run(argv)
        first = capsys.readouterr().out
        run(argv)
        second = capsys.readouterr().out
        if first != second:
            mismatched.append(argv[0])
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        _verdict(10, not mismatched,
                 f"5 commands repeated byte-identically ({mismatched or 'all stable'})",
                 elapsed)
