"""The four workloads: seeded CLI argument lists and the checks on their output.

Each workload turns the benchmark seed into a list of calls of ``apolar.cli.run``
and checks every call's JSON output against ``exact`` (answers apolar did not
compute).  Which layer each workload loads, and the end-to-end metric a change
to that layer should move:

==========  =============================================  =========================
workload    layers carrying the load                       end-to-end metrics moved
==========  =============================================  =========================
realize     poly power arithmetic (sums of powers),        realize_s, wall_s
            apolarity catalecticant assembly
table       apolarity catalecticant, linalg rank mod p,    search_f_s (cache writes),
            cache re-verification, restriction descent     gic_s (cache reads)
lemmas      poly gcd and exact division, restriction       check_lemmas_s,
                                                           call_tail_ms
forms       linalg Bareiss rank over QQ, apolarity,        hf_s, restrict_s,
            cli and parse_form overhead on ms-scale calls  call_p50_ms
==========  =============================================  =========================

Apart from ``lemmas``, the seed draws the inputs but not their shape (which
degrees, codimensions and sizes occur), so the work per run stays comparable
across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from exact import (
    KNOWN_MIN_H2,
    expected_shape,
    field_modulus,
    format_form,
    max_h2,
    monomials,
    parse_form_text,
    restrict,
)

P_SPEC = "p:2147483647"


@dataclass
class Call:
    argv: list  # CLI arguments, without --cache
    cache: str  # cache file name inside the pass directory
    data: dict = field(default_factory=dict)  # what the check needs

    @property
    def command(self) -> str:
        return self.argv[0]


def _seed(rng) -> str:
    return str(rng.randrange(2**31))


# -- realize -------------------------------------------------------------------

REALIZE_SEEDS = 3
REALIZE_RANGES = ((4, range(3, 9)), (5, range(3, 7)))


def realize_calls(seed: int) -> list:
    rng = random.Random(f"realize/{seed}")
    calls = []
    for _ in range(REALIZE_SEEDS):
        cli_seed = _seed(rng)
        for e, rs in REALIZE_RANGES:
            for r in rs:
                calls.append(Call(
                    ["realize", "--e", str(e), "--r", str(r), "--seed", cli_seed,
                     "--field", P_SPEC, "--format", "json"],
                    f"realize-{len(calls)}.json", {"e": e, "r": r}))
    return calls


def check_realize(call, body, ctx):
    e, r = call.data["e"], call.data["r"]
    lo, hi = KNOWN_MIN_H2[e][r], max_h2(r)
    if body["interval"] != [lo, hi] or body["gaps"]:
        return f"interval {body['interval']} gaps {body['gaps']}"
    got = [row["a"] for row in body["realized"]]
    if got != list(range(lo, hi + 1)):
        return f"realized values {got} do not cover [{lo}, {hi}]"
    p = field_modulus(body["field"])
    for row in body["realized"]:
        hf = ctx.hilbert(row["certificate"], row["nvars"], p)
        if hf != expected_shape(e, r, row["a"]):
            return f"certificate for a={row['a']} has Hilbert function {hf}"
    return None


# -- table ---------------------------------------------------------------------

TABLE_RANGES = ((4, 16), (5, 13))
TABLE_CACHE = "table.json"


def table_calls(seed: int) -> list:
    """search-f over both full ranges (writes), then gic over each full range
    and two short windows in its lower half (reads).  In the windows
    load_table, not descent on dense restricted forms, dominates, and they
    stay clear of the slowest calls, where a seed-drawn window would move
    call_tail_ms.  All calls of a pass share one cache file."""
    rng = random.Random(f"table/{seed}")
    calls = []
    for e, rmax in TABLE_RANGES:
        for r in range(3, rmax + 1):
            calls.append(Call(
                ["search-f", "--e", str(e), "--r", str(r), "--budget", "20",
                 "--seed", _seed(rng), "--field", P_SPEC, "--format", "json"],
                TABLE_CACHE, {"e": e, "r": r}))
    for e, rmax in TABLE_RANGES:
        lows = sorted(rng.sample(range(3, rmax // 2), 2))
        windows = [(3, rmax)] + [(lo, lo + 2) for lo in lows]
        for lo, hi in windows:
            calls.append(Call(
                ["gic", "--e", str(e), "--rmin", str(lo), "--rmax", str(hi),
                 "--budget", "20", "--seed", _seed(rng), "--format", "json"],
                TABLE_CACHE, {"e": e}))
    return calls


def check_table(call, body, ctx):
    e = call.data["e"]
    known = KNOWN_MIN_H2[e]
    if call.command == "search-f":
        r, bound = call.data["r"], body["bound"]
        if r in known and bound != known[r]:
            return f"bound {bound} != exact minimum {known[r]}"
        if e == 4 and r >= 14 and bound > r - 1:
            return f"bound {bound} > r - 1"
        hf = ctx.hilbert(body["certificate"], body["nvars"], field_modulus(body["field"]))
        if hf != expected_shape(e, r, bound):
            return f"certificate has Hilbert function {hf}"
        return None
    bounds = ctx.table_bounds()
    for row in body["rows"]:
        r = row["r"]
        if row["lower"] != known.get(r) or row["upper"] != bounds.get((e, r)):
            return f"row {row} disagrees with the stored bound {bounds.get((e, r))}"
        if row["lower"] is not None and row["upper"] != row["lower"]:
            return f"upper != lower at r={r}"
    if not body["nondecreasing"] or body["violations"]:
        return f"violations {body['violations']}"
    if not all(d["ok"] for d in body["descent"]):
        return f"descent failed: {body['descent']}"
    stored, reloaded = ctx.cache_reload(call.cache)
    if reloaded != stored or stored != sum(rmax - 2 for _, rmax in TABLE_RANGES):
        return f"cache holds {stored} entries, {reloaded} survive reloading"
    return None


# -- lemmas --------------------------------------------------------------------

# The lemma corpus is fixed: the cost of one check-lemmas call is heavy-tailed
# (the median call takes ~30 ms, one in twenty takes 3-11 s, all in gcd), so
# a corpus drawn from the seed would move wall_s by more than any usable
# bound.  The seed sets the order of the calls.
LEMMA_SEEDS = range(40)


def lemmas_calls(seed: int) -> list:
    order = list(LEMMA_SEEDS)
    random.Random(f"lemmas/{seed}").shuffle(order)
    return [
        Call(["check-lemmas", "--trials", "1", "--seed", str(s), "--field", P_SPEC,
              "--format", "json"], f"lemmas-{i}.json")
        for i, s in enumerate(order)
    ]


def check_lemmas(call, body, ctx):
    suites = body["suites"]
    if not body["ok"] or len(suites) != 3:
        return "suites not ok"
    for suite in suites:
        if suite["trials"] != 1 or suite["failures"] or suite["witnesses"]:
            return f"suite {suite['name']} reports witnesses {suite['witnesses']}"
    return None


# -- forms ---------------------------------------------------------------------

FORMS_BLOCKS = 6
DENSE_MAX = 220  # dense forms up to this many monomials, sparse ones beyond


def _coeff(rng, p):
    if p is None:
        return rng.choice((-1, 1)) * rng.randint(1, 1000)
    return rng.randrange(1, p)


def forms_calls(seed: int) -> list:
    """hf on forms of degree 3-5 in 3-10 variables, half over q and half over
    GF(2^31 - 1), dense where there are at most DENSE_MAX monomials and sparse
    (2n terms) everywhere; restrict on every fourth form."""
    rng = random.Random(f"forms/{seed}")
    calls = []
    nforms = 0
    for _ in range(FORMS_BLOCKS):
        for spec in ("q", P_SPEC):
            p = field_modulus(spec)
            for d in (3, 4, 5):
                for n in range(3, 11):
                    monos = monomials(n, d)
                    for dense in (True, False):
                        if dense and len(monos) > DENSE_MAX:
                            continue
                        support = monos if dense else rng.sample(monos, 2 * n)
                        coeffs = {m: _coeff(rng, p) for m in support}
                        common = ["--form", format_form(coeffs), "--vars", str(n),
                                  "--field", spec, "--format", "json"]
                        data = {"coeffs": coeffs, "nvars": n, "degree": d, "p": p}
                        calls.append(Call(["hf"] + common, f"forms-{len(calls)}.json", data))
                        nforms += 1
                        if nforms % 4 == 0:
                            H = [_coeff(rng, p) if p else rng.randint(-9, 9) for _ in range(n)]
                            if not any(H):
                                H[-1] = 1
                            calls.append(Call(
                                ["restrict"] + common + ["--H=" + ",".join(map(str, H))],
                                f"forms-{len(calls)}.json", dict(data, H=H)))
    return calls


def check_forms(call, body, ctx):
    n, d, p = call.data["nvars"], call.data["degree"], call.data["p"]
    if call.command == "hf":
        want = ctx.oracle.span_hilbert(call.data["coeffs"], n, d, p)
        if tuple(body["values"]) != want or body["codimension"] != want[1]:
            return f"hf {body['values']} != oracle {want}"
        return None
    pivot, want = restrict(call.data["coeffs"], n, call.data["H"], p)
    if body["pivot"] != pivot:
        return f"pivot {body['pivot']} != {pivot}"
    if parse_form_text(body["restricted"], n - 1, p) != want:
        return "restricted form differs from the independent expansion"
    hf = ctx.oracle.span_hilbert(want, n - 1, d, p) if want else None
    if body["hf"] != ("(0)" if hf is None else "(" + ",".join(map(str, hf)) + ")"):
        return f"restricted hf {body['hf']} != oracle {hf}"
    return None


@dataclass
class Workload:
    generate: object  # seed -> list of Call
    check: object  # (call, parsed output, Context) -> failure reason or None


WORKLOADS = {
    "realize": Workload(realize_calls, check_realize),
    "table": Workload(table_calls, check_table),
    "lemmas": Workload(lemmas_calls, check_lemmas),
    "forms": Workload(forms_calls, check_forms),
}
