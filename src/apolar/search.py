"""Gorenstein h-vectors in socle degree <= 5: constructions, certified
upper bounds for the least degree-2 entry at fixed codimension, full
interval realization, and monotonicity reports.

Every bound or interval certificate is a concrete form whose Hilbert
function is recomputed by exact rank before it is trusted; entries record
the field that produced them.  Known exact values of the least degree-2
entry (codimension <= 13 in socle degree 4, <= 16 in socle degree 5) decide
whether an entry is exact (derived, never stored) and classify h-vectors.

Bound search and interval realization share one candidate portfolio, the
deterministic structured forms: the power sum and the padded or truncated
bipartite forms.  The bound search takes the least of them.  Interval
realization appends one fixed chain of sums of powers to them: the power
sum, then one binary power (y_i + y_j)^e per step, the pairs i < j in
lexicographic order, so the chain ends exactly at C(r+1,2).  Each value
keeps the form with the fewest terms that has it, the first on ties, and
every value no form has is reported as a gap.  Neither draws random
numbers; only the descent check of `gic_verify` draws hyperplanes.  The
forms of one search or one realization, the certificates of one bound
table and the restricted forms of all descent rows are each ranked in one
`hilbert_functions` call.

A descent restricts a certificate F to a random hyperplane H by
eliminating the variable of least degree in F among those H involves,
ties going to the lowest index.  Any variable H involves parametrizes the
same hyperplane {H = 0}, so two such restrictions differ by an invertible
linear change of coordinates in the remaining variables, which keeps every
catalecticant rank and keeps the zero form zero.  From r = 2 on, every
stored certificate has a variable of degree 1 in a single term (the padded
m = 1 bipartite form has the power sum's value with one term fewer), so
its restriction has at most len(F.coeffs) + F.nvars terms, where
eliminating a pure power y^e would expand it into the C(n + e - 2, e)
terms of L^e.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from datetime import datetime, timezone

from .apolarity import hilbert_functions
from .errors import (
    IncompleteTableError,
    RealizationGapError,
    ZeroFormError,
)
from .fields import DEFAULT_FIELD, parse_field_spec
from .poly import Form, _deg_in, parse_form
from .restriction import LinearForm, random_linear_form, restrict_mod, trial_rng

log = logging.getLogger(__name__)

GORENSTEIN = "gorenstein"
NOT_GORENSTEIN = "not-gorenstein"
UNKNOWN = "unknown"

# The largest codimension `search_min_h2` accepts, per socle degree.
# `search-f` takes 0.43 s and 56 MB at e = 4, r = 160, and 0.30 s and
# 39 MB at e = 5, r = 100 (Python 3.11, numpy 2.4.6, 2 cores).  The limits
# were set when every bipartite form listed all of its monomials, and they
# stay until larger codimensions are measured.
MAX_SEARCH_R = {4: 160, 5: 100}

# Exact minimal degree-2 entries: value r up to the first drop, which lands
# at codimension 13 in socle degree 4; socle degree 5 stays at r through 16
# and the exact values beyond are open.
F4_EXACT = {r: r for r in range(1, 13)}
F4_EXACT[13] = 12
F5_EXACT = {r: r for r in range(1, 17)}


def known_min_h2(e: int, r: int):
    """Certified exact minimum of h_2 at codimension r, or None when open."""
    if r < 1:
        raise ValueError(f"codimension {r} < 1")
    if e == 3:
        return r
    if e == 4:
        return F4_EXACT.get(r)
    if e == 5:
        return F5_EXACT.get(r)
    raise ValueError(f"unsupported socle degree {e}")


def max_h2(r: int) -> int:
    """The ambient cap: dim of the space of degree-2 operators."""
    return math.comb(r + 1, 2)


def expected_hf(e: int, r: int, a: int) -> tuple:
    """The symmetric h-vector shape with codimension r and degree-2 entry a."""
    if e == 3:
        return (1, r, r, 1)
    if e == 4:
        return (1, r, a, r, 1)
    if e == 5:
        return (1, r, a, a, r, 1)
    raise ValueError(f"unsupported socle degree {e}")


def power_sum_form(r: int, e: int, fld=DEFAULT_FIELD) -> Form:
    """Sum of e-th powers of the r variables; h-vector (1, r, ..., r, 1)."""
    if r < 1:
        raise ValueError(f"codimension {r} < 1")
    if e < 2:
        raise ValueError(f"degree {e} < 2")
    return Form(
        r,
        fld,
        [(tuple(e if j == i else 0 for j in range(r)), 1) for i in range(r)],
    )


def bipartite_monomial_form(m: int, e: int, fld=DEFAULT_FIELD, keep=None) -> Form:
    """Multiply each degree-(e-1) monomial in the first m variables by its
    own fresh variable and sum.  With all s = C(m+e-2, e-1) monomials the
    form has codimension m + s; `keep` truncates to the first `keep`
    monomials in graded-lex order (codimension m + keep)."""
    if m < 1:
        raise ValueError(f"m = {m} < 1")
    if e < 3:
        raise ValueError(f"degree {e} < 3")
    total = math.comb(m + e - 2, e - 1)
    if keep is None:
        keep = total
    elif not 1 <= keep <= total:
        raise ValueError(f"keep = {keep} outside 1..{total}")
    # the sorted variable-index words of length e - 1 list the monomials in
    # graded-lex order, lazily: nothing beyond the kept ones is built
    words = itertools.combinations_with_replacement(range(m), e - 1)
    terms = []
    for i, word in enumerate(itertools.islice(words, keep)):
        exps = [0] * (m + keep)
        for v in word:
            exps[v] += 1
        exps[m + i] = 1
        terms.append((tuple(exps), 1))
    return Form(m + keep, fld, terms)


def padded_form(G: Form, extra: int) -> Form:
    """Add `extra` fresh power-sum variables: every middle h-vector entry
    grows by `extra` while the socle degree stays fixed."""
    if G.is_zero:
        raise ZeroFormError("cannot pad the zero form")
    if extra < 0:
        raise ValueError("extra must be nonnegative")
    if extra == 0:
        return G
    e = G.degree
    F = G.extend(extra)
    pad = Form(
        F.nvars,
        G.field,
        [
            (tuple(e if j == G.nvars + i else 0 for j in range(F.nvars)), 1)
            for i in range(extra)
        ],
    )
    return F + pad


def verify_certificate(F: Form, e: int, r: int, a: int) -> bool:
    """Recompute the Hilbert function and check that F has the target
    shape with degree-2 entry a (for e = 3 that entry is h_2 = r)."""
    return _candidate_h2([(F, e, r)])[0] == a


_UNRANKED = object()


@dataclass
class FBoundEntry:
    """A verified upper bound: a form of codimension r and socle degree e
    whose degree-2 entry equals `bound`.  `exact` is derived, not held."""

    e: int
    r: int
    bound: int
    certificate: str
    nvars: int
    field_spec: str
    timestamp: str | None = None

    @property
    def exact(self) -> bool:
        """Whether `bound` is the known minimum of h_2 at (e, r); False
        where no minimum is known or (e, r) is not a supported pair."""
        try:
            return known_min_h2(self.e, self.r) == self.bound
        except ValueError:
            return False

    def parse_certificate(self) -> Form:
        return parse_form(self.certificate, self.nvars, parse_field_spec(self.field_spec))

    @staticmethod
    def certificate_h2s(entries) -> list:
        """For each entry, the degree-2 entry of its certificate when the
        certificate parses and has the entry's target shape, else None;
        the certificates are ranked in one batch."""
        items = []
        for en in entries:
            try:
                F = en.parse_certificate()
            except (ValueError, ZeroDivisionError):
                F = None
            items.append((F, en.e, en.r))
        return _candidate_h2(items)

    def verify(self, h2=_UNRANKED) -> bool:
        """Whether the certificate parses and has the target shape with
        degree-2 entry `bound`.  A caller that has ranked the certificate
        with `certificate_h2s` passes the value it gave."""
        if h2 is _UNRANKED:
            h2 = self.certificate_h2s([self])[0]
        return h2 == self.bound

    def to_dict(self, with_timestamp: bool = True) -> dict:
        out = {
            "e": self.e,
            "r": self.r,
            "bound": self.bound,
            "exact": self.exact,
            "certificate": self.certificate,
            "nvars": self.nvars,
            "field": self.field_spec,
        }
        if with_timestamp:
            out["timestamp"] = self.timestamp
        return out

    @classmethod
    def from_form(cls, F: Form, e: int, r: int, bound: int) -> "FBoundEntry":
        """A timestamped entry certified by F."""
        return cls(
            e=e,
            r=r,
            bound=bound,
            certificate=str(F),
            nvars=F.nvars,
            field_spec=F.field.spec,
            timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        )

    @classmethod
    def from_dict(cls, d: dict) -> "FBoundEntry":
        """The entry a cache item holds; `e`, `r`, `bound` and `nvars` must
        be JSON integers, and other keys (`exact`, an old `seed`) are not
        read."""
        ints = {key: d[key] for key in ("e", "r", "bound", "nvars")}
        for key, value in ints.items():
            if type(value) is not int:
                raise TypeError(f"{key} is {value!r}, not an integer")
        return cls(
            **ints,
            certificate=str(d["certificate"]),
            field_spec=str(d["field"]),
            timestamp=d.get("timestamp"),
        )


def _structured_forms(e: int, r: int, fld):
    """The deterministic candidates at codimension r: the power sum, then
    for m = 1..r-1 the bipartite form, padded up to codimension r while it
    fits and truncated to r - m monomials once it does not.  A truncation
    keeping fewer than m monomials never involves y_{m-1}, so it is
    skipped."""
    yield power_sum_form(r, e, fld)
    for m in range(1, r):
        s = math.comb(m + e - 2, e - 1)
        if m + s <= r:
            yield padded_form(bipartite_monomial_form(m, e, fld), r - m - s)
        elif r - m >= m:
            yield bipartite_monomial_form(m, e, fld, keep=r - m)


def _shape_h2(hf, e: int, r: int):
    """The degree-2 entry when hf has the target shape, else None."""
    a = hf[2]
    return a if tuple(hf) == expected_hf(e, r, a) else None


def _candidate_h2(items) -> list:
    """For each (form, e, r) item, the form's degree-2 entry when it has
    the target shape, else None.  The one rule for what is ranked, all in
    one batch: a form (not None) that is nonzero and of degree e, for a
    supported socle degree e, which every field's characteristic exceeds."""
    items = list(items)
    ranked = [
        F is not None and not F.is_zero and F.degree == e and e in (3, 4, 5)
        for F, e, _ in items
    ]
    hfs = iter(hilbert_functions(F for (F, _, _), ok in zip(items, ranked) if ok))
    return [
        _shape_h2(next(hfs), e, r) if ok else None
        for (_, e, r), ok in zip(items, ranked)
    ]


def _fewest_terms(forms, e: int, r: int) -> dict[int, Form]:
    """{a: form} over the forms of the target shape, ranked in one batch:
    for each degree-2 entry a, the form with the fewest terms, the first on
    ties."""
    forms = list(forms)
    certs = {}
    for F, a in zip(forms, _candidate_h2((F, e, r) for F in forms)):
        if a is not None and (a not in certs or len(F.coeffs) < len(certs[a].coeffs)):
            certs[a] = F
    return certs


def search_min_h2(e: int, r: int, fld=DEFAULT_FIELD) -> FBoundEntry:
    """Smallest verified degree-2 entry among the structured forms of
    `_structured_forms`: the power sum and the padded or truncated
    bipartite forms.  Ties prefer fewer terms, then the form seen first
    (`_fewest_terms`).  Nothing is drawn at random."""
    if e not in (4, 5):
        raise ValueError(f"unsupported socle degree {e}")
    if not 1 <= r <= MAX_SEARCH_R[e]:
        raise ValueError(f"codimension {r} outside 1..{MAX_SEARCH_R[e]}")
    known = known_min_h2(e, r)
    certs = _fewest_terms(_structured_forms(e, r, fld), e, r)
    low = [a for a in certs if a < (known or 0)]
    for a in low:
        log.warning(
            "dropping a mod-p certificate below the exact minimum "
            "(e=%d r=%d observed %d < %d)",
            e, r, a, known,
        )
    bound = min(a for a in certs if a not in low)
    return FBoundEntry.from_form(certs[bound], e, r, bound)


def classify_h_vector(e: int, r: int, a: int, table=()) -> str:
    """Decide whether (1, r, a, ..., a, r, 1) is a Gorenstein h-vector.

    Inside the certified range the decision is two-sided; beyond it a
    verified certificate with degree-2 entry at most `a` still certifies
    membership (the achievable values form an interval up to the cap), and
    anything below every certificate stays unknown."""
    if e not in (3, 4, 5):
        raise ValueError(f"unsupported socle degree {e}")
    if r < 1:
        raise ValueError(f"codimension {r} < 1")
    if e == 3:
        return GORENSTEIN if a == r else NOT_GORENSTEIN
    if a < 1 or a > max_h2(r):
        return NOT_GORENSTEIN
    known = known_min_h2(e, r)
    if known is not None:
        return GORENSTEIN if a >= known else NOT_GORENSTEIN
    bounds = [en.bound for en in table if en.e == e and en.r == r]
    if bounds and a >= min(bounds):
        return GORENSTEIN
    return UNKNOWN


def realize_interval(e: int, r: int, fld=DEFAULT_FIELD) -> dict[int, Form]:
    """A verified certificate for every degree-2 entry in the full interval
    [known minimum, C(r+1,2)].

    The structured forms come first, then one fixed chain: starting at the
    power sum (h_2 = r), step k adds (y_i + y_j)^e for the k-th pair i < j
    in lexicographic order, so after C(r,2) steps the chain reaches
    C(r+1,2).  The sum of r + k powers has h_2 = r + k (and h_3 = r + k for
    e = 5): h_i is the dimension of the span of the (e-i)-th powers of the
    r + k linear forms, and their squares and, for e = 5, their cubes are
    linearly independent once the characteristic exceeds e, each pair
    bringing its own y_i y_j (or y_i^2 y_j).  The whole list is ranked in
    one batch, and each form certifies the value its own Hilbert function
    has, the one with the fewest terms winning, then the first in the list
    (`_fewest_terms`).  Nothing is drawn at random.
    Raises RealizationGapError listing every value left without a
    certificate."""
    if e not in (4, 5):
        raise ValueError(f"unsupported socle degree {e}")
    known = known_min_h2(e, r)
    if known is None:
        raise ValueError(f"codimension {r} is outside the certified exact range")
    cap = max_h2(r)
    forms = list(_structured_forms(e, r, fld))
    chain = forms[0]  # the power sum
    for i, j in itertools.combinations(range(r), 2):
        L = LinearForm([int(t in (i, j)) for t in range(r)], fld)
        chain = chain + L.as_form() ** e
        forms.append(chain)
    certs = _fewest_terms(forms, e, r)
    certs = {a: certs[a] for a in range(known, cap + 1) if a in certs}
    gaps = [a for a in range(known, cap + 1) if a not in certs]
    if gaps:
        raise RealizationGapError(gaps, certs)
    return certs


@dataclass
class GicReport:
    """Bounds per codimension plus the monotonicity and descent verdicts."""

    e: int
    r_lo: int
    r_hi: int
    rows: list
    nondecreasing: bool
    violations: list
    descent: list

    @property
    def ok(self) -> bool:
        return self.nondecreasing and all(d["ok"] for d in self.descent)

    def to_dict(self) -> dict:
        return {
            "e": self.e,
            "r_lo": self.r_lo,
            "r_hi": self.r_hi,
            "rows": self.rows,
            "nondecreasing": self.nondecreasing,
            "violations": self.violations,
            "descent": self.descent,
        }


def gic_verify(e: int, r_lo: int, r_hi: int, table, seed: int = 0) -> GicReport:
    """Cross-check the bound table over [r_lo, r_hi]: no certified upper
    bound at a larger codimension may undercut a certified exact value at a
    smaller one, and each certificate must lose exactly one codimension
    under a random hyperplane restriction without its degree-2 entry
    growing.  Each descent row records its hyperplane H in the
    comma-separated form `restrict --H` accepts, so it replays.

    The restriction eliminates the variable of least degree in the
    certificate among those H involves, the lowest index on ties, so a
    padded certificate loses a variable of degree 1 rather than a pure
    power.  `restrict --H` eliminates H's last variable instead and still
    gives the row's `restricted_hf`: both variables parametrize {H = 0},
    so the two restricted forms differ by an invertible linear change of
    coordinates, which keeps every catalecticant rank and keeps zero
    zero."""
    if r_lo < 1 or r_lo > r_hi:
        raise ValueError(f"bad codimension range [{r_lo}, {r_hi}]")
    best: dict[int, FBoundEntry] = {}
    for en in table:
        if en.e == e and r_lo <= en.r <= r_hi:
            if en.r not in best or en.bound < best[en.r].bound:
                best[en.r] = en
    missing = [r for r in range(r_lo, r_hi + 1) if r not in best]
    if missing:
        raise IncompleteTableError(f"no bound entries for r in {missing}")
    rows = []
    for r in range(r_lo, r_hi + 1):
        rows.append(
            {
                "r": r,
                "lower": known_min_h2(e, r),
                "upper": best[r].bound,
                "exact": best[r].exact,
            }
        )
    violations = []
    for i, row in enumerate(rows):
        if row["lower"] is None:
            continue
        for later in rows[i + 1 :]:
            if later["upper"] < row["lower"]:
                violations.append(
                    {
                        "kind": "bound-inversion",
                        "r_low": row["r"],
                        "r_high": later["r"],
                        "lower": row["lower"],
                        "upper": later["upper"],
                    }
                )
    restricted = []  # (r, H, F restricted to H)
    for r in range(max(r_lo, 3), r_hi + 1):
        en = best[r]
        fld = parse_field_spec(en.field_spec)
        F = en.parse_certificate()
        rng = trial_rng(seed, r)
        H = random_linear_form(en.nvars, fld, rng)
        # eliminate the variable of least degree in F that H involves; min
        # keeps the first, so ties go to the lowest index
        pivot = min(
            (i for i, a in enumerate(H.coeffs) if not fld.is_zero(a)),
            key=lambda i: _deg_in(F, i),
        )
        restricted.append((r, H, restrict_mod(F, LinearForm(H.coeffs, fld, pivot))))
    hfs = iter(hilbert_functions(G for _, _, G in restricted if not G.is_zero))
    descent = []
    for r, H, G in restricted:
        if G.is_zero:
            descent.append({"r": r, "H": str(H), "restricted_hf": "(0)", "ok": False})
            continue
        hf = next(hfs)
        ok = hf[1] == r - 1 and (len(hf) < 3 or hf[2] <= best[r].bound)
        descent.append({"r": r, "H": str(H), "restricted_hf": str(hf), "ok": ok})
    return GicReport(
        e=e,
        r_lo=r_lo,
        r_hi=r_hi,
        rows=rows,
        nondecreasing=not violations,
        violations=violations,
        descent=descent,
    )


def asymptotic_reference(e: int, r: int) -> float:
    """Reference growth rate of the minimal degree-2 entry (annotation
    only, never a bound): (6r)^(2/3) in socle degree 4 and
    (1/6)(24r)^(3/4) in socle degree 5."""
    if e == 4:
        return (6.0 * r) ** (2.0 / 3.0)
    if e == 5:
        return (24.0 * r) ** 0.75 / 6.0
    raise ValueError(f"unsupported socle degree {e}")
