"""Catalecticant matrices and Hilbert functions of apolar algebras.

The polynomial ring in the dual variables acts on forms by partial
differentiation: a degree-i operator monomial x^a sends F to the iterated
derivative d^a F.  The i-th catalecticant of a degree-e form records, for
every degree-i operator monomial (row) and every degree-(e-i) monomial
(column), the coefficient of the column monomial in the image.  Its exact
rank is the i-th value of the Hilbert function of the apolar algebra.

A term c*y^m of F lands in exactly the cells (op, m - op) with op <= m, so
each term is split over its own support, never over all n variables.  The
entry there is c * m!/(m - op)!: c is nonzero, and the factor divides e!,
a unit once the characteristic is 0 or exceeds e, which catalecticant
requires.  So every stored entry is nonzero and no zero test runs, and
linalg.sparse_rank materializes only the rows and columns holding one.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from . import linalg
from .errors import MixedRingsError, ZeroFormError
from .poly import Form, monomial_index, monomials_of_degree


class HilbertFunction(tuple):
    """Hilbert function values (h_0, ..., h_e); prints as "(1,13,12,13,1)"."""

    def __str__(self):
        return "(" + ",".join(str(v) for v in self) + ")"

    @property
    def socle_degree(self) -> int:
        return len(self) - 1

    @property
    def codimension(self) -> int:
        return self[1] if len(self) > 1 else 0

    @property
    def is_symmetric(self) -> bool:
        return all(self[i] == self[-1 - i] for i in range(len(self)))

    @classmethod
    def parse(cls, text: str) -> "HilbertFunction":
        text = text.strip()
        if not (text.startswith("(") and text.endswith(")")):
            raise ValueError(f"bad Hilbert function text {text!r}")
        return cls(int(part) for part in text[1:-1].split(","))


class CatalecticantMatrix:
    """Sparse catalecticant with explicit row/column monomial indexing."""

    __slots__ = (
        "source_degree",
        "form_degree",
        "nvars",
        "field",
        "row_monomials",
        "col_monomials",
        "entries",
    )

    def __init__(self, source_degree, form_degree, nvars, field, entries):
        self.source_degree = source_degree
        self.form_degree = form_degree
        self.nvars = nvars
        self.field = field
        self.row_monomials = monomials_of_degree(nvars, source_degree)
        self.col_monomials = monomials_of_degree(nvars, form_degree - source_degree)
        self.entries = entries

    @property
    def nrows(self) -> int:
        return len(self.row_monomials)

    @property
    def ncols(self) -> int:
        return len(self.col_monomials)

    def dense(self):
        zero = self.field.zero
        out = [[zero] * self.ncols for _ in range(self.nrows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out

    def rank(self) -> int:
        return linalg.sparse_rank(self.entries, self.field)

    def __repr__(self):
        return (
            f"<Catalecticant i={self.source_degree} of degree-{self.form_degree} "
            f"form: {self.nrows}x{self.ncols}, {len(self.entries)} nonzero>"
        )


@lru_cache(maxsize=None)
def _splits(exps, i):
    """Every split exps = op + col with |op| = i, as (op, factor) pairs
    whose factor exps!/col! is what x^op brings down from y^exps."""
    out = []
    for op in itertools.product(*(range(m + 1) for m in exps)):
        if sum(op) == i:
            factor = 1
            for m, o in zip(exps, op):
                factor *= math.perm(m, o)
            out.append((op, factor))
    return tuple(out)


def apply_operator(op, F: Form) -> Form:
    """Apply the differential operator monomial x^op to F."""
    op = tuple(op)
    if len(op) != F.nvars:
        raise MixedRingsError(
            f"operator in {len(op)} variables applied to a {F.nvars}-variable form"
        )
    if any(e < 0 for e in op):
        raise ValueError(f"negative exponent in operator {op}")
    field = F.field
    out = {}
    for mono, c in F.coeffs.items():
        if all(m >= o for m, o in zip(mono, op)):
            factor = 1
            for m, o in zip(mono, op):
                factor *= math.perm(m, o)
            scaled = field.mul(c, field.from_int(factor))
            # any characteristic is accepted here, so the factor may vanish
            if not field.is_zero(scaled):
                out[tuple(m - o for m, o in zip(mono, op))] = scaled
    return Form._raw(F.nvars, field, out, F.degree - sum(op) if out else -1)


def catalecticant(F: Form, i: int) -> CatalecticantMatrix:
    """The i-th catalecticant matrix of F; requires 0 <= i <= deg F and a
    characteristic that is 0 or exceeds deg F."""
    if not 0 <= i <= F.degree:
        raise ValueError(
            f"catalecticant degree {i} out of range for a degree-{F.degree} form"
        )
    field = F.field
    if 0 < field.char <= F.degree:
        # differentiation multiplies by factorials up to deg F, which
        # vanish mod such a characteristic and would silently drop terms
        raise ValueError(
            f"characteristic {field.char} does not exceed the degree {F.degree}"
        )
    n = F.nvars
    row_index = monomial_index(n, i)
    col_index = monomial_index(n, F.degree - i)
    entries = {}
    for mono, c in F.coeffs.items():
        support = [k for k, m in enumerate(mono) if m]
        for ops, factor in _splits(tuple(mono[k] for k in support), i):
            op = [0] * n
            col = list(mono)
            for k, o in zip(support, ops):
                op[k] = o
                col[k] -= o
            entries[(row_index[tuple(op)], col_index[tuple(col)])] = field.mul(
                c, field.from_int(factor)
            )
    return CatalecticantMatrix(i, F.degree, n, field, entries)


def hilbert_function(F: Form) -> HilbertFunction:
    """Exact Hilbert function of the apolar algebra of a nonzero form.

    Only the catalecticants with i <= e/2 are ranked: the entry of Cat_i at
    (a, b) is c_{a+b} (a+b)!/b!, that of Cat_{e-i} at (b, a) is
    c_{a+b} (a+b)!/a!, so Cat_{e-i} is the transpose of Cat_i scaled by
    factorials below e + 1, which are invertible in the characteristics
    catalecticant accepts, and h_{e-i} = h_i."""
    if F.is_zero:
        raise ZeroFormError("Hilbert function of the zero form")
    e = F.degree
    low = [catalecticant(F, i).rank() for i in range(e // 2 + 1)]
    return HilbertFunction(low[min(i, e - i)] for i in range(e + 1))


def codimension(F: Form) -> int:
    """Dimension of the span of the first partials (the number of essential
    variables of F)."""
    if F.is_zero:
        raise ZeroFormError("codimension of the zero form")
    if F.degree == 0:
        return 0
    return catalecticant(F, 1).rank()
