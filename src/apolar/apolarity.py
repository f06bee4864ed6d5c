"""Catalecticant matrices and Hilbert functions of apolar algebras.

The polynomial ring in the dual variables acts on forms by partial
differentiation: a degree-i operator monomial x^a sends F to the iterated
derivative d^a F.  The i-th catalecticant of a degree-e form records, for
every degree-i operator monomial (row) and every degree-(e-i) monomial
(column), the coefficient of the column monomial in the image.  Its exact
rank is the i-th value of the Hilbert function of the apolar algebra.

A term c*y^m of F lands in exactly the cells (op, m - op) with op <= m.
`_Terms` lays out the terms of a list of forms with one field and one degree
as flat arrays, and `_assemble` builds the cells of the i-th catalecticant of
every one of them in one vectorized pass, with no Python loop over entries
or forms.  Each term is written as the list of its variables with
multiplicity, variable k of an n-variable form as the reversed index n-1-k,
so the list is ascending.  An operator op <= m is a choice of i positions in
that list that takes the copies of a variable first to last, so each op is
chosen once.  Its entry is c * m!/(m - op)!, the product over the chosen
positions of the copies of that variable left from there on.  A row or
column is keyed by the colex rank of its multiset of reversed indices,
sum_j C(u_j + j - 1, j) over u_1 <= u_2 <= ..., which is below the number
N of monomials of its degree in n variables; its position in the graded-lex
listing is N - 1 minus the key.  The table C(u + j - 1, j) does not depend
on n, so one table sized for the most variables of the list gives every
form the keys it has alone; across the list a key is prefixed by the index
of its form.  Values are int64 while every product fits and Python integers
in an object array otherwise.  Over QQ each form's coefficients are cleared
of denominators: that scalar leaves the rank unchanged, and `entries`
divides it back out.

c is nonzero and the factor divides e!, a unit once the characteristic is 0
or exceeds e, which catalecticant requires.  So every entry is nonzero and
no zero test runs.  `_ranks` keeps only the rows and columns holding an
entry and peels all matrices of a list at once, repeating two steps until
neither removes anything.  Both are exact in every field:
- a column holding a single entry makes its row independent: every other
  row vanishes in that column, so rank A = 1 + rank(A without the row);
- a row holding a single entry v at column c pivots out c: subtracting
  multiples of that row clears column c from every other row and changes
  nothing else, v is a unit, so rank A = 1 + rank(A without the row and c).
The rows (columns) removed by one step each own a column (row) where all
other rows (columns) vanish, so they are independent of each other too and
each adds one.  Every row and column carries the index of its form, so
`np.bincount` gives the peeled rank per form.  The lines left are numbered
once per axis for the whole list, and what is left of each form goes to
`linalg.matrix_rank` as a list of lists.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from functools import lru_cache

import numpy as np

from . import linalg
from .errors import MixedRingsError, ZeroFormError
from .poly import Form, monomials_of_degree


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


def _int_dtype(bound: int):
    """The dtype for integers of absolute value at most bound: int64 when
    that fits, else object (Python integers)."""
    return np.int64 if bound < 2**63 else object


def _monomial_count(nvars: int, degree: int) -> int:
    return math.comb(nvars + degree - 1, degree) if nvars else int(degree == 0)


@lru_cache(maxsize=None)
def _colex_table(nvars: int, degree: int):
    """B[u, j] = C(u + j - 1, j) for u < nvars and 1 <= j <= degree, and
    B[u, 0] = 0: a multiset u_1 <= ... <= u_d (d <= degree) of values below
    nvars has colex rank sum_j B[u_j, j] < C(nvars + d - 1, d).  The dtype
    holds a row key plus a column key."""
    table = [
        [0] + [math.comb(u + j - 1, j) for j in range(1, degree + 1)]
        for u in range(nvars)
    ]
    dtype = _int_dtype(2 * _monomial_count(nvars, degree))
    return np.array(table, dtype=dtype).reshape(nvars, degree + 1)


# the assembly's arrays grow with the terms of a batch; a batch holds at
# most this many terms (or one form), so ranking a long list at once, such
# as realize's chain of sums of powers (about 10^4 terms in all at e = 4,
# r = 13), needs little more memory than its largest form alone
_BATCH_TERMS = 4096


def _check_characteristic(F: Form):
    if 0 < F.field.char <= F.degree:
        # differentiation multiplies by factorials up to deg F, which
        # vanish mod such a characteristic and would silently drop terms
        raise ValueError(
            f"characteristic {F.field.char} does not exceed the degree {F.degree}"
        )


class _Terms:
    """The terms of forms with one field and one degree e as flat arrays.
    Term a is the ascending list of its variables with multiplicity,
    variable k of an n-variable form as u = n-1-k, at positions a*e .. a*e +
    e - 1.  owner[a]: the index of its form; first[g]: position g holds the
    first copy of its variable (False past the end); left[g]: the copies of
    that variable from g on; digits[a, q] = u*(e+1), the row of u in the
    colex table of nvars, the most variables of any of the forms.  coeffs
    are integers: residues, or over QQ the numerators over the common
    denominator scales[f] of form f."""

    __slots__ = ("field", "degree", "nvars", "owner", "first", "left", "digits",
                 "coeffs", "scales")

    def __init__(self, forms):
        field, e = forms[0].field, forms[0].degree
        n = max(F.nvars for F in forms)
        sizes = [len(F.coeffs) for F in forms]
        t = sum(sizes)
        size = t * e

        def padded(F):
            # zeros in front: reversed, variable k of F is u = F.nvars-1-k
            if F.nvars == n:
                return itertools.chain.from_iterable(F.coeffs)
            pad = (0,) * (n - F.nvars)
            return itertools.chain.from_iterable(pad + m for m in F.coeffs)

        exps = np.fromiter(
            itertools.chain.from_iterable(map(padded, forms)),
            np.min_scalar_type(e),
            t * n,
        )
        flat = np.arange(t * n).repeat(exps.reshape(t, n)[:, ::-1].ravel())
        first = np.empty(size + e, bool)
        first[:1] = True
        np.not_equal(flat[1:], flat[:-1], out=first[1:size])
        first[size:] = False
        self.field, self.degree, self.nvars = field, e, n
        self.owner = np.arange(len(forms)).repeat(sizes)
        self.first = first
        self.left = flat.searchsorted(flat, "right") - np.arange(size)
        self.digits = (flat % n * (e + 1)).reshape(t, e)
        if field.char:
            self.scales = [1] * len(forms)
            ints = [c for F in forms for c in F.coeffs.values()]
            top = field.char - 1
        else:
            self.scales, ints = [], []
            for F in forms:
                scale = math.lcm(*(c.denominator for c in F.coeffs.values()))
                ints += [c.numerator * (scale // c.denominator) for c in F.coeffs.values()]
                self.scales.append(scale)
            top = max(map(abs, ints))
        # an entry is a coefficient times a divisor of e!
        self.coeffs = np.array(ints, dtype=_int_dtype(top * math.factorial(e)))


def _assemble(terms: _Terms, i: int):
    """Every entry of the i-th catalecticants of the forms of terms, form by
    form: its form's index, the colex keys of its row and column, prefixed
    by that index when there are several forms, and its value, as parallel
    arrays."""
    e, t = terms.degree, len(terms.coeffs)
    first = terms.first
    # choose the operator's positions one at a time, ascending: a position
    # follows the previous one directly or starts a new variable, and
    # leaves room for the positions still to choose, so it is at most e - i + 1
    # past the previous one; back[j] maps step j + 1's choices to step j's
    if i:
        term, q = first[: t * e].reshape(t, e)[:, : e - i + 1].nonzero()
        picks, back = [q], []
    else:
        term, picks, back = np.arange(t), [], []
    for j in range(1, i):
        steps = np.arange(1, e - i + 2)
        cand = picks[-1][:, None] + steps
        ok = (cand <= e - i + j) & (first[(term * e)[:, None] + cand] | (steps == 1))
        s, d = ok.nonzero()
        term = term[s]
        back.append(s)
        picks.append(cand[s, d])
    for j in range(len(back) - 1, 0, -1):
        back[j - 1] = back[j - 1][back[j]]
    picks[:-1] = [q[s] for q, s in zip(picks, back)]
    base = term * e
    values = terms.coeffs[term]
    for q in picks:
        values = values * terms.left[base + q]
    if terms.field.char:
        values %= terms.field.char

    # colex keys: a row sums B[u, j] over the chosen positions, the j-th
    # one with j, and a column sums B[u, r] over the others, r the rank of
    # the position among them; index holds u*(e+1) + j or r
    at = np.arange(len(term))
    slots = np.arange(e)
    index = terms.digits[term]
    index += slots + 1
    for q in picks:
        index -= slots >= q[:, None]  # r = q + 1 - (chosen positions <= q)
    for j, q in enumerate(picks, 1):
        index[at, q] += 2 * j - 1 - q  # the j-th chosen one: q + 1 - j -> j
    part = _colex_table(terms.nvars, e).ravel()[index]
    del index
    rows = np.zeros(len(term), part.dtype)
    for q in picks:
        rows += part[at, q]
    cols = np.add.reduce(part, axis=1) - rows
    del part
    owner = terms.owner[term]
    count = len(terms.scales)
    if count > 1:
        # prefix a key by its form's index: owner * (number of keys) + key
        rows, cols = (
            owner.astype(_int_dtype(count * size)) * size + keys
            for keys, size in (
                (rows, _monomial_count(terms.nvars, i)),
                (cols, _monomial_count(terms.nvars, e - i)),
            )
        )
    return owner, rows, cols, values


def _ranks(field, owner, rows, cols, values, count: int) -> list[int]:
    """Exact ranks of `count` matrices given by their entries as parallel
    arrays, matrix by matrix: the index of the matrix, row and column keys
    that no two matrices share and whose order puts the matrices in order,
    and the value.  Peels as the module docstring says, then ranks what is
    left of each matrix with linalg.matrix_rank."""
    ids, owners = [], []  # per axis: each entry's line, each line's matrix
    for keys in (rows, cols):
        # ids 0..size-1 for the distinct keys, in key order
        order = keys.argsort()
        ordered = keys[order]
        new = np.empty(len(keys), bool)
        new[:1] = True
        np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
        line = np.empty(len(keys), np.intp)
        line[order] = np.add.accumulate(new, dtype=np.intp) - 1
        size = int(np.count_nonzero(new))
        at = np.empty(size, np.intp)
        at[line] = owner
        ids.append(line)
        owners.append(at)
    ranks = np.zeros(count, np.intp)
    live = np.arange(len(values))
    # axis 0: a column with one entry peels its row; axis 1: a row with one
    # entry peels its column; stop once a step on each axis peels nothing
    axis = idle = 0
    while idle < 2 and len(live):
        line, cross = ids[axis], ids[1 - axis]
        single = np.bincount(cross, minlength=len(owners[1 - axis])) == 1
        if single.any():
            out = np.zeros(len(owners[axis]), bool)
            out[line[single[cross]]] = True
            ranks += np.bincount(owners[axis][out], minlength=count)
            keep = ~out[line]
            ids = [ids[0][keep], ids[1][keep]]
            live = live[keep]
            idle = 0
        else:
            idle += 1
        axis = 1 - axis
    ranks = ranks.tolist()
    if not len(live):
        return ranks
    # number the leftover lines of each axis once, in key order; a matrix's
    # lines are consecutive, so its local ids are these minus its first
    owner = owner[live]
    local, shape = [], []
    for line, at in zip(ids, owners):
        left = np.zeros(len(at), bool)
        left[line] = True
        size = np.bincount(at[left], minlength=count)
        local.append(left.cumsum()[line] - 1 - (size.cumsum() - size)[owner])
        shape.append(size.tolist())
    start = 0
    for f, end in enumerate(np.searchsorted(owner, np.arange(1, count + 1)).tolist()):
        if end > start:
            A = np.zeros((shape[0][f], shape[1][f]), values.dtype)
            A[local[0][start:end], local[1][start:end]] = values[live[start:end]]
            ranks[f] += linalg.matrix_rank(A.tolist(), field)
        start = end
    return ranks


class _Entries(Mapping):
    """{(row, col): nonzero field value}, in the positions of row_monomials
    and col_monomials.  len() reads the arrays; the dict is built on the
    first lookup or iteration."""

    __slots__ = ("_field", "_shape", "_rows", "_cols", "_values", "_scale", "_dict")

    def __init__(self, field, shape, rows, cols, values, scale):
        self._field = field
        self._shape = shape
        self._rows = rows
        self._cols = cols
        self._values = values
        self._scale = scale
        self._dict = None

    def __len__(self):
        return len(self._values)

    def _built(self) -> dict:
        if self._dict is None:
            last_row, last_col = self._shape[0] - 1, self._shape[1] - 1
            div, scale = self._field.from_ratio, self._scale
            self._dict = {
                (last_row - r, last_col - c): div(v, scale)
                for r, c, v in zip(
                    self._rows.tolist(), self._cols.tolist(), self._values.tolist()
                )
            }
        return self._dict

    def __getitem__(self, key):
        return self._built()[key]

    def __iter__(self):
        return iter(self._built())

    def items(self):
        return self._built().items()


class CatalecticantMatrix:
    """Sparse catalecticant: for every nonzero entry, the colex keys of its
    row and column and its value times a common scale, as parallel arrays."""

    __slots__ = (
        "source_degree",
        "form_degree",
        "nvars",
        "field",
        "nrows",
        "ncols",
        "entries",
        "_rows",
        "_cols",
        "_values",
    )

    def __init__(self, source_degree, form_degree, nvars, field, rows, cols, values, scale):
        self.source_degree = source_degree
        self.form_degree = form_degree
        self.nvars = nvars
        self.field = field
        self.nrows = _monomial_count(nvars, source_degree)
        self.ncols = _monomial_count(nvars, form_degree - source_degree)
        self._rows = rows
        self._cols = cols
        self._values = values
        self.entries = _Entries(field, (self.nrows, self.ncols), rows, cols, values, scale)

    @property
    def row_monomials(self):
        return monomials_of_degree(self.nvars, self.source_degree)

    @property
    def col_monomials(self):
        return monomials_of_degree(self.nvars, self.form_degree - self.source_degree)

    def dense(self):
        zero = self.field.zero
        out = [[zero] * self.ncols for _ in range(self.nrows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out

    def rank(self) -> int:
        """Exact rank, by the peeling of the module docstring."""
        owner = np.zeros(len(self._values), np.intp)
        return _ranks(self.field, owner, self._rows, self._cols, self._values, 1)[0]

    def __repr__(self):
        return (
            f"<Catalecticant i={self.source_degree} of degree-{self.form_degree} "
            f"form: {self.nrows}x{self.ncols}, {len(self.entries)} nonzero>"
        )


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
    _check_characteristic(F)
    terms = _Terms([F])
    _, rows, cols, values = _assemble(terms, i)
    return CatalecticantMatrix(
        i, F.degree, F.nvars, F.field, rows, cols, values, terms.scales[0]
    )


def hilbert_functions(forms) -> list[HilbertFunction]:
    """Exact Hilbert functions of the apolar algebras of nonzero forms, in
    order.

    h_0 = 1, since Cat_0 is the one row of F's coefficients, which is
    nonzero.  Beyond it only the catalecticants with 1 <= i <= e/2 are
    ranked: the entry of Cat_i at (a, b) is c_{a+b} (a+b)!/b!, that of
    Cat_{e-i} at (b, a) is c_{a+b} (a+b)!/a!, so Cat_{e-i} is the transpose
    of Cat_i scaled by factorials below e + 1, which are invertible in the
    characteristics catalecticant accepts, and h_{e-i} = h_i.

    The forms with one field and one degree are ranked together, in list
    order, in batches of at most _BATCH_TERMS terms (or one form): for each
    i one assembly and one peel cover a batch, with keys prefixed by the
    form's index in it."""
    forms = list(forms)
    groups = {}  # (field, degree) -> batches: [number of terms, form indices]
    for k, F in enumerate(forms):
        if F.is_zero:
            raise ZeroFormError("Hilbert function of the zero form")
        _check_characteristic(F)
        batches = groups.setdefault((F.field, F.degree), [[0, []]])
        if batches[-1][1] and batches[-1][0] + len(F.coeffs) > _BATCH_TERMS:
            batches.append([0, []])
        batches[-1][0] += len(F.coeffs)
        batches[-1][1].append(k)
    out = [None] * len(forms)
    for (field, e), batches in groups.items():
        for _, ks in batches:
            low = [[1] * len(ks)]
            if e >= 2:
                terms = _Terms([forms[k] for k in ks])
                for i in range(1, e // 2 + 1):
                    low.append(_ranks(field, *_assemble(terms, i), len(ks)))
            for k, h in zip(ks, zip(*low)):
                out[k] = HilbertFunction(h[min(i, e - i)] for i in range(e + 1))
    return out


def hilbert_function(F: Form) -> HilbertFunction:
    """Exact Hilbert function of the apolar algebra of a nonzero form; see
    hilbert_functions."""
    return hilbert_functions([F])[0]


def codimension(F: Form) -> int:
    """Dimension of the span of the first partials (the number of essential
    variables of F)."""
    if F.is_zero:
        raise ZeroFormError("codimension of the zero form")
    if F.degree == 0:
        return 0
    return catalecticant(F, 1).rank()
