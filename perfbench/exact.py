"""Answers the benchmark checks apolar's output against, computed without apolar.

Forms are raw ``{exponent tuple: scalar}`` dicts.  ``p`` is a prime modulus,
or ``None`` for the rationals (scalars are ``Fraction`` or ``int``).  The
Hilbert-function oracle is ``tests/span_oracle.py``, loaded read-only by
path; it shares no code with the library's catalecticant or rank kernels.
"""

from __future__ import annotations

import importlib.util
import itertools
import math
from fractions import Fraction

# Exact least degree-2 entries of Gorenstein h-vectors (1, r, a, r, 1) and
# (1, r, a, a, r, 1): a = r until socle degree 4 drops to 12 at r = 13;
# socle degree 5 keeps a = r through r = 16.
KNOWN_MIN_H2 = {
    4: {**{r: r for r in range(1, 13)}, 13: 12},
    5: {r: r for r in range(1, 17)},
}


def field_modulus(spec: str):
    """``None`` for ``q``, the modulus for ``p:MOD``."""
    return None if spec == "q" else int(spec.split(":", 1)[1])


def load_oracle(path):
    spec = importlib.util.spec_from_file_location("perfbench_span_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def monomials(nvars: int, degree: int) -> list:
    """Exponent tuples of one total degree (any fixed order)."""
    out = []
    for combo in itertools.combinations_with_replacement(range(nvars), degree):
        exps = [0] * nvars
        for i in combo:
            exps[i] += 1
        out.append(tuple(exps))
    return out


def format_form(coeffs: dict) -> str:
    """Form text in the CLI's input syntax: ``3*y0^2*y1 - 5*y2^3``."""
    parts = []
    for mono, c in coeffs.items():
        body = "*".join(
            f"y{i}" if e == 1 else f"y{i}^{e}" for i, e in enumerate(mono) if e
        )
        mag = abs(c)
        text = f"{mag}*{body}"
        if not parts:
            parts.append(f"-{text}" if c < 0 else text)
        else:
            parts.append(f"- {text}" if c < 0 else f"+ {text}")
    return " ".join(parts)


def parse_form_text(text: str, nvars: int, p) -> dict:
    """Read form text as the library prints it: terms joined by `` + `` and
    `` - ``, each ``[coef*]y<i>[^e]*...``, coefficients integers or ``n/d``."""
    text = text.strip()
    if text == "0":
        return {}
    out = {}
    sign = 1
    for tok in text.split(" "):
        if tok in ("+", "-"):
            sign = -1 if tok == "-" else 1
            continue
        if tok.startswith("-"):
            sign, tok = -1, tok[1:]
        coeff = Fraction(1)
        exps = [0] * nvars
        for factor in tok.split("*"):
            if factor.startswith("y"):
                var, _, power = factor[1:].partition("^")
                exps[int(var)] += int(power) if power else 1
            else:
                coeff = Fraction(factor)
        coeff *= sign
        if p is not None:
            coeff = coeff.numerator * pow(coeff.denominator, -1, p) % p
        mono = tuple(exps)
        total = out.get(mono, 0) + coeff
        if p is not None:
            total %= p
        if total:
            out[mono] = total
        else:
            out.pop(mono, None)
        sign = 1
    return out


def _normalize(coeffs: dict, p) -> dict:
    if p is None:
        return {m: Fraction(c) for m, c in coeffs.items() if c}
    return {m: c % p for m, c in coeffs.items() if c % p}


def restrict(coeffs: dict, nvars: int, hyperplane, p) -> tuple:
    """F modulo the hyperplane sum(h_i y_i): substitute the last variable
    with a nonzero coefficient and drop it.  Returns (pivot, restricted)."""
    if p is not None:
        hyperplane = [h % p for h in hyperplane]
    pivot = max(i for i, h in enumerate(hyperplane) if h)
    if p is None:
        inv = Fraction(1, 1) / Fraction(hyperplane[pivot])
    else:
        inv = pow(hyperplane[pivot], -1, p)
    # the pivot variable equals sum over the others of sub[j] * z_j
    sub = {}
    for i, h in enumerate(hyperplane):
        if i != pivot and h:
            sub[i if i < pivot else i - 1] = -h * inv
    unit = tuple([0] * (nvars - 1))
    powers = [{unit: 1}]
    out = {}
    for mono, c in coeffs.items():
        k = mono[pivot]
        while len(powers) <= k:
            nxt = {}
            for m, a in powers[-1].items():
                for j, b in sub.items():
                    mm = list(m)
                    mm[j] += 1
                    mm = tuple(mm)
                    nxt[mm] = nxt.get(mm, 0) + a * b
            powers.append(_normalize(nxt, p))
        rest = mono[:pivot] + mono[pivot + 1:]
        for m, a in powers[k].items():
            key = tuple(x + y for x, y in zip(rest, m))
            out[key] = out.get(key, 0) + c * a
    return pivot, _normalize(out, p)


def max_h2(r: int) -> int:
    return math.comb(r + 1, 2)


def expected_shape(e: int, r: int, a: int) -> tuple:
    return (1, r, a, r, 1) if e == 4 else (1, r, a, a, r, 1)
