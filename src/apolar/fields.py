"""Exact coefficient fields: the rationals and prime fields GF(p).

Scalars stay unboxed: a rational scalar is a `fractions.Fraction` (kept in
lowest terms with positive denominator by the stdlib), a prime-field scalar
is a plain int reduced into [0, p).  The field object carries the modulus
and performs all arithmetic, so containers of coefficients never pay for
per-scalar wrappers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import MixedFieldsError

# 2^31 - 1 (prime).  Products of two residues fit comfortably in int64,
# which keeps the vectorized elimination path available.
DEFAULT_PRIME = 2147483647

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=64)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for every n below 3.3e24.  Memoized,
    since every parsed field spec (one per cache entry and per descent row)
    tests its modulus again and a process sees few moduli."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The field of rationals; scalars are Fraction (or int) values."""

    char = 0

    @property
    def spec(self) -> str:
        return "q"

    def coerce(self, v):
        if isinstance(v, bool):
            raise MixedFieldsError("rational scalar expected, got bool")
        if isinstance(v, int):
            return Fraction(v)
        if isinstance(v, Fraction):
            return v
        raise MixedFieldsError(f"rational scalar expected, got {type(v).__name__}")

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def from_int(self, k: int):
        return Fraction(k)

    def from_ratio(self, num: int, den: int):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        return Fraction(num, den)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a == 0

    def is_one(self, a) -> bool:
        return a == 1

    def random(self, rng):
        """Uniform integer scalar in [-10^6, 10^6]."""
        return Fraction(rng.randint(-(10**6), 10**6))

    def sign_abs(self, a):
        a = Fraction(a)
        return (a < 0, -a if a < 0 else a)

    def format_scalar(self, a) -> str:
        return str(Fraction(a))

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash(RationalField)

    def __repr__(self):
        return "QQ"


class GF:
    """A prime field GF(p); scalars are int residues in [0, p)."""

    def __init__(self, p: int):
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError(f"modulus must be prime, got {p!r}")
        self.p = p
        self.char = p

    @property
    def spec(self) -> str:
        return f"p:{self.p}"

    def coerce(self, v):
        if isinstance(v, bool):
            raise MixedFieldsError("prime-field scalar expected, got bool")
        if isinstance(v, int):
            return v % self.p
        if isinstance(v, Fraction) and v.denominator == 1:
            return v.numerator % self.p
        raise MixedFieldsError(
            f"GF({self.p}) scalar expected, got {type(v).__name__}"
        )

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def from_int(self, k: int):
        return k % self.p

    def from_ratio(self, num: int, den: int):
        return num * self.inv(den % self.p) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        try:
            return pow(a, -1, self.p)
        except ValueError:
            raise ZeroDivisionError(f"inverse of zero in GF({self.p})") from None

    def div(self, a, b):
        return a * self.inv(b) % self.p

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def is_one(self, a) -> bool:
        return a % self.p == 1

    def random(self, rng):
        """Uniform residue in [0, p)."""
        return rng.randrange(self.p)

    def sign_abs(self, a):
        return (False, a % self.p)

    def format_scalar(self, a) -> str:
        return str(a % self.p)

    def __eq__(self, other):
        return isinstance(other, GF) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()
DEFAULT_FIELD = GF(DEFAULT_PRIME)


def random_nonzero(field, rng):
    """A random nonzero scalar: draws from `field.random` until one is nonzero."""
    while True:
        c = field.random(rng)
        if not field.is_zero(c):
            return c


def parse_field_spec(text: str):
    """Parse a field descriptor: "q" for the rationals, "p:MOD" for GF(MOD)."""
    text = text.strip().lower()
    if text == "q":
        return QQ
    if text.startswith("p:"):
        try:
            p = int(text[2:])
        except ValueError:
            raise ValueError(f"bad modulus in field spec {text!r}") from None
        # differentiating degree-5 forms multiplies by factors up to 5, so
        # characteristics 2, 3, 5 silently kill terms; refuse them up front
        if p <= 5:
            raise ValueError(f"modulus {p} too small: must exceed 5")
        return GF(p)
    raise ValueError(f"unknown field spec {text!r} (expected 'q' or 'p:MOD')")
