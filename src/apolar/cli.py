"""Command-line interface.

Subcommands: hf, restrict, check-lemmas, search-f, realize, gic.  Every
report embeds the command, tool version, field, and seed, and identical
invocations against the same cache state produce byte-identical output
(timestamps live only in the cache file).  Exit codes: 0 success, 1 a
verification failed (lemma witness, realization gap, table violation),
2 usage error.

The argument parser is built once per import, on the first `run`, and
reused by every later call: argparse does not change a parser while it
parses.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .apolarity import hilbert_function
from .cache import load_table, merge_store
from .errors import CorruptCacheError, RealizationGapError
from .fields import parse_field_spec
from .poly import parse_form
from .restriction import (
    LinearForm,
    random_linear_form,
    restrict_mod,
    run_codim_drop_suite,
    run_partials_gcd_suite,
    run_restricted_rank_suite,
    trial_rng,
)
from .search import (
    FBoundEntry,
    asymptotic_reference,
    gic_verify,
    known_min_h2,
    max_h2,
    realize_interval,
    search_min_h2,
)

DEFAULT_CACHE = "apolar_cache.json"


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--field", default="p:2147483647",
                        help="coefficient field: q or p:MODULUS")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--cache", default=None,
                        help="bound-table path (default: $APOLAR_CACHE or apolar_cache.json)")
    common.add_argument("--format", choices=("json", "tsv", "pretty"),
                        default="pretty")

    parser = argparse.ArgumentParser(prog="apolar")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hf", parents=[common],
                       help="Hilbert function of a form by exact catalecticant ranks")
    p.add_argument("--form", required=True)
    p.add_argument("--vars", type=int, required=True)

    p = sub.add_parser("restrict", parents=[common],
                       help="restrict a form modulo a hyperplane and report the new HF")
    p.add_argument("--form", required=True)
    p.add_argument("--vars", type=int, required=True)
    p.add_argument("--H", default=None,
                   help="comma-separated hyperplane coefficients (default: random)")

    p = sub.add_parser("check-lemmas", parents=[common],
                       help="run the codimension-drop, restricted-rank, and partials-gcd suites")
    p.add_argument("--trials", type=int, default=100)

    p = sub.add_parser("search-f", parents=[common],
                       help="search for the least degree-2 entry at fixed codimension")
    p.add_argument("--e", type=int, required=True, choices=(4, 5))
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--budget", type=int, help="has no effect; accepted for compatibility")

    p = sub.add_parser("realize", parents=[common],
                       help="certificates for every degree-2 value in the full interval")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--r", type=int, required=True)

    p = sub.add_parser("gic", parents=[common],
                       help="monotonicity and descent report over a codimension range")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--rmin", type=int, required=True)
    p.add_argument("--rmax", type=int, required=True)
    p.add_argument("--budget", type=int, help="has no effect; accepted for compatibility")
    return parser


def _cache_path(args) -> str:
    if args.cache:
        return args.cache
    return os.environ.get("APOLAR_CACHE") or DEFAULT_CACHE


def _parse_scalar(token: str, fld):
    """One --H coefficient; a ValueError names the flag and the token."""
    token = token.strip()
    try:
        q = Fraction(token)
        if q.denominator == 1:
            return fld.coerce(q.numerator)
        return fld.div(fld.coerce(q.numerator), fld.coerce(q.denominator))
    except ZeroDivisionError:
        raise ValueError(
            f"--H: {token!r} has a zero denominator over {fld.spec}"
        ) from None
    except ValueError:
        raise ValueError(f"--H: {token!r} is not a rational number") from None


def _cmd_hf(args, fld):
    F = parse_form(args.form, args.vars, fld)
    hf = hilbert_function(F)
    return {"hf": str(hf), "values": list(hf), "codimension": hf.codimension}, False


def _cmd_restrict(args, fld):
    F = parse_form(args.form, args.vars, fld)
    if args.H is not None:
        coeffs = [_parse_scalar(tok, fld) for tok in args.H.split(",")]
        if len(coeffs) != args.vars:
            raise ValueError(
                f"--H lists {len(coeffs)} coefficients for {args.vars} variables"
            )
        H = LinearForm(coeffs, fld)
    else:
        H = random_linear_form(args.vars, fld, trial_rng(args.seed, 0))
    G = restrict_mod(F, H)
    body = {"H": str(H), "pivot": H.pivot, "restricted": str(G)}
    body["hf"] = "(0)" if G.is_zero else str(hilbert_function(G))
    return body, False


def _cmd_check_lemmas(args, fld):
    suites = [
        run_codim_drop_suite(args.trials, seed=args.seed, fld=fld),
        run_restricted_rank_suite(args.trials, seed=args.seed, fld=fld),
        run_partials_gcd_suite(args.trials, seed=args.seed, fld=fld),
    ]
    ok = all(s.ok for s in suites)
    return {"trials": args.trials, "suites": [s.to_dict() for s in suites], "ok": ok}, not ok


def _field_note(fld) -> str:
    if fld.char == 0:
        return "verified over the rationals"
    return f"verified mod {fld.char}; lifting to characteristic 0 not claimed"


def _cmd_search_f(args, fld):
    entry = search_min_h2(args.e, args.r, fld=fld)
    merge_store(_cache_path(args), [entry])
    body = entry.to_dict(with_timestamp=False)
    body["asymptotic_reference"] = asymptotic_reference(args.e, args.r)
    body["field_note"] = _field_note(fld)
    return body, False


def _cmd_realize(args, fld):
    gaps: list[int] = []
    try:
        certs = realize_interval(args.e, args.r, fld=fld)
    except RealizationGapError as exc:
        certs = exc.certificates
        gaps = exc.gaps
    lo = known_min_h2(args.e, args.r)
    body = {
        "e": args.e,
        "r": args.r,
        "interval": [lo, max_h2(args.r)],
        "realized": [
            {"a": a, "nvars": certs[a].nvars, "certificate": str(certs[a])}
            for a in sorted(certs)
        ],
        "gaps": gaps,
        "field_note": _field_note(fld),
    }
    if certs:
        a0 = min(certs)
        entry = FBoundEntry.from_form(certs[a0], args.e, args.r, a0)
        merge_store(_cache_path(args), [entry])
    return body, bool(gaps)


def _cmd_gic(args, fld):
    # refuse before the search below stores anything
    if args.seed < 0:
        raise ValueError(
            f"gic draws its descent hyperplanes from --seed >= 0, got {args.seed}"
        )
    path = _cache_path(args)
    table = load_table(path)
    have = {en.r for en in table if en.e == args.e}
    fresh = [
        search_min_h2(args.e, r, fld=fld)
        for r in range(args.rmin, args.rmax + 1)
        if r not in have
    ]
    if fresh:
        table = merge_store(path, fresh)
    report = gic_verify(args.e, args.rmin, args.rmax, table, seed=args.seed)
    return report.to_dict(), not report.ok


_DISPATCH = {
    "hf": _cmd_hf,
    "restrict": _cmd_restrict,
    "check-lemmas": _cmd_check_lemmas,
    "search-f": _cmd_search_f,
    "realize": _cmd_realize,
    "gic": _cmd_gic,
}


def _flatten(prefix: str, value, out: list):
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else str(key), value[key], out)
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _flatten(f"{prefix}.{i}", item, out)
    elif isinstance(value, bool):
        out.append((prefix, "true" if value else "false"))
    elif value is None:
        out.append((prefix, ""))
    else:
        out.append((prefix, str(value)))


def render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if fmt == "tsv":
        pairs: list = []
        _flatten("", payload, pairs)
        return "".join(f"{k}\t{v}\n" for k, v in pairs)
    return _render_pretty(payload)


def _yes(flag) -> str:
    return "true" if flag else "false"


def _render_pretty(payload: dict) -> str:
    lines = [
        f"# apolar {payload['version']}  command={payload['command']}"
        f"  field={payload['field']}  seed={payload['seed']}"
    ]
    cmd = payload["command"]
    if cmd == "hf":
        lines.append(payload["hf"])
    elif cmd == "restrict":
        lines.append(f"H: {payload['H']}  (pivot {payload['pivot']})")
        lines.append(f"restricted: {payload['restricted']}")
        lines.append(f"hf: {payload['hf']}")
    elif cmd == "check-lemmas":
        for suite in payload["suites"]:
            lines.append(
                f"{suite['name']}: {suite['trials']} trials, "
                f"{suite['failures']} failures"
            )
            for w in suite["witnesses"]:
                lines.append(f"  witness: H={w['H']} observed={w['observed']}")
        lines.append(f"ok: {_yes(payload['ok'])}")
    elif cmd == "search-f":
        lines.append(
            f"e={payload['e']} r={payload['r']} bound={payload['bound']}"
            f" exact={_yes(payload['exact'])} nvars={payload['nvars']}"
        )
        lines.append(f"asymptotic_reference: {payload['asymptotic_reference']:.3f}")
        lines.append(f"note: {payload['field_note']}")
        lines.append(f"certificate: {payload['certificate']}")
    elif cmd == "realize":
        lo, hi = payload["interval"]
        lines.append(f"e={payload['e']} r={payload['r']} interval=[{lo}, {hi}]")
        lines.append(f"realized: {len(payload['realized'])} of {hi - lo + 1}")
        for row in payload["realized"]:
            lines.append(f"  a={row['a']} nvars={row['nvars']}")
        gaps = payload["gaps"]
        lines.append(f"gaps: {','.join(map(str, gaps)) if gaps else 'none'}")
    elif cmd == "gic":
        for row in payload["rows"]:
            lower = "?" if row["lower"] is None else row["lower"]
            lines.append(
                f"r={row['r']}  lower={lower}  upper={row['upper']}"
                f"  exact={_yes(row['exact'])}"
            )
        for v in payload["violations"]:
            lines.append(
                f"violation[{v['kind']}]: r={v['r_low']}..{v['r_high']}"
                f" lower={v['lower']} upper={v['upper']}"
            )
        for d in payload["descent"]:
            lines.append(
                f"descent r={d['r']}: {d['restricted_hf']} ok={_yes(d['ok'])}"
            )
        lines.append(f"nondecreasing: {_yes(payload['nondecreasing'])}")
    return "\n".join(lines) + "\n"


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        fld = parse_field_spec(args.field)
    except ValueError as exc:
        print(f"error: --field {args.field}: {exc}", file=sys.stderr)
        return 2
    try:
        body, failed = _DISPATCH[args.command](args, fld)
    except (CorruptCacheError, OSError, ValueError, ZeroDivisionError) as exc:
        # an unreadable or unwritable --cache path is a usage error too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = {
        "command": args.command,
        "version": __version__,
        "field": fld.spec,
        "seed": args.seed,
    }
    payload.update(body)
    sys.stdout.write(render(payload, args.format))
    return 1 if failed else 0


def main() -> None:
    sys.exit(run())
