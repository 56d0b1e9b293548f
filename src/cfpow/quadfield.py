"""Exact arithmetic in real quadratic fields and certified dyadic intervals.

Two value types live here.  ``QuadNum`` is an element (A + B*sqrt(D))/C of a
real quadratic field, stored as one normalised integer triple; every
predicate on it (sign, comparison, floor) is decided by integer arithmetic,
never by floats.
``DyadicInterval`` is a closed interval with dyadic-rational endpoints and
outward rounding on every operation; it is the only path by which
transcendental quantities (logarithms, e) enter the toolkit.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from itertools import chain
from math import gcd, isqrt

from mpmath import libmp
from mpmath.libmp import libmpi

from .errors import CannotFactorError, InputError, MixedFieldError, PrecisionError

__all__ = [
    "QuadNum",
    "DyadicInterval",
    "make_quadnum",
    "squarefree_split",
    "dyadic_decimal_str",
    "decimal_to_fraction",
]

DEFAULT_PRECISION = 128
TRIAL_DIVISION_BOUND = 10**6

_FractionLike = (int, Fraction)


def squarefree_split(d: int) -> tuple[int, int]:
    """Write d = m**2 * f with f squarefree; returns (m, f).

    Factors by trial division up to ``TRIAL_DIVISION_BOUND``.  A leftover
    cofactor larger than the bound squared that is not a perfect square
    cannot be classified, and the call fails with "cannot-factor" rather
    than guessing.
    """
    if d <= 0:
        raise InputError(f"expected a positive integer to split, got {d}")
    m, f, n = 1, 1, d
    for p in chain((2,), range(3, TRIAL_DIVISION_BOUND + 1, 2)):
        if p * p > n:
            break
        if n % p:
            continue
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        m *= p ** (e // 2)
        if e % 2:
            f *= p
    if n > 1:
        root = isqrt(n)
        if root * root == n:
            m *= root
        elif n <= TRIAL_DIVISION_BOUND**2:
            f *= n  # no factor <= bound and n <= bound^2, so n is prime
        else:
            raise CannotFactorError(
                f"cofactor {n} exceeds the trial-division bound squared ({TRIAL_DIVISION_BOUND}**2)"
            )
    return m, f


class QuadNum:
    """Exact element (A + B*sqrt(d))/C of Q(sqrt(d)), d squarefree.

    Stored as one integer triple with C > 0 and gcd(A, B, C) == 1.  Build a
    value of a known field with QuadNum(a, b, d); user input goes through
    :func:`make_quadnum`, which splits off square parts of d.  Values with
    B == 0 are degenerate (rational); a collapsed rational may carry d == 1.
    """

    __slots__ = ("_A", "_B", "_C", "_d")

    def __init__(self, a: Fraction, b: Fraction, d: int):
        (p, q), (r, s) = Fraction(a).as_integer_ratio(), Fraction(b).as_integer_ratio()
        if d == 1:
            if r != 0:
                raise InputError("d == 1 requires b == 0")
        elif d < 2:
            raise InputError(f"field parameter must be >= 2 (or 1 for rationals), got {d}")
        self._set(p * s, r * q, q * s, d)

    def _set(self, A: int, B: int, C: int, d: int) -> "QuadNum":
        """The one normalisation: C > 0 and gcd(A, B, C) == 1."""
        g = gcd(C, A, B) if C > 0 else -gcd(C, A, B)  # C first: it is usually the small one
        self._A, self._B, self._C, self._d = (A, B, C, d) if g == 1 else (A // g, B // g, C // g, d)
        return self

    def _make(self, A: int, B: int, C: int) -> "QuadNum":
        """(A + B*sqrt(d))/C in the field of self, normalised."""
        return object.__new__(QuadNum)._set(A, B, C, self._d)

    @property
    def coords(self) -> tuple[int, int, int]:
        """The normalised integer triple (A, B, C) of (A + B*sqrt(d))/C."""
        return self._A, self._B, self._C

    @property
    def a(self) -> Fraction:
        return Fraction(self._A, self._C)

    @property
    def b(self) -> Fraction:
        return Fraction(self._B, self._C)

    @property
    def d(self) -> int:
        return self._d

    @property
    def degenerate(self) -> bool:
        """True when the value is rational."""
        return self._B == 0

    # ----- field coercion -----

    def _match(self, other) -> tuple["QuadNum", "QuadNum"]:
        if isinstance(other, _FractionLike):
            return self, QuadNum(other, 0, self._d)
        if not isinstance(other, QuadNum):
            return NotImplemented, NotImplemented
        if self._d == other._d:
            return self, other
        if other._B == 0:
            return self, self._make(other._A, 0, other._C)
        if self._B == 0:
            return other._make(self._A, 0, self._C), other
        raise MixedFieldError(
            f"cannot combine values from Q(sqrt({self._d})) and Q(sqrt({other._d}))"
        )

    # ----- ring operations -----

    def __add__(self, other):
        x, y = self._match(other)
        if x is NotImplemented:
            return NotImplemented
        return x._make(x._A * y._C + y._A * x._C, x._B * y._C + y._B * x._C, x._C * y._C)

    __radd__ = __add__

    def __neg__(self):
        return self._make(-self._A, -self._B, self._C)

    def __sub__(self, other):
        x, y = self._match(other)
        if x is NotImplemented:
            return NotImplemented
        return x._make(x._A * y._C - y._A * x._C, x._B * y._C - y._B * x._C, x._C * y._C)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        x, y = self._match(other)
        if x is NotImplemented:
            return NotImplemented
        return x._make(
            x._A * y._A + x._B * y._B * x._d,
            x._A * y._B + x._B * y._A,
            x._C * y._C,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadNum":
        # C / (A + B sqrt(d)) = C (A - B sqrt(d)) / (A^2 - B^2 d)
        n = self._A * self._A - self._B * self._B * self._d
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._make(self._C * self._A, -self._C * self._B, n)

    def __truediv__(self, other):
        x, y = self._match(other)
        if x is NotImplemented:
            return NotImplemented
        return x * y.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = self._make(1, 0, 1)
        base = self
        while n > 0:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # ----- exact predicates -----

    def conjugate(self) -> "QuadNum":
        return self._make(self._A, -self._B, self._C)

    def norm(self) -> Fraction:
        return Fraction(self._A * self._A - self._B * self._B * self._d, self._C * self._C)

    def sign(self) -> int:
        a, b = self._A, self._B  # C > 0 leaves the sign to A + B sqrt(d)
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if (a > 0) == (b > 0):
            return 1 if a > 0 else -1
        lhs, rhs = a * a, b * b * self._d
        if lhs == rhs:  # would force sqrt(d) rational
            raise InputError(f"non-squarefree field parameter {self._d}")
        if a > 0:  # b < 0: positive iff a > |b| sqrt(d)
            return 1 if lhs > rhs else -1
        return 1 if rhs > lhs else -1

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def floor(self) -> int:
        A, B, C = self.coords
        if B == 0:
            return A // C
        t = isqrt(B * B * self._d)
        # floor(B sqrt(d)) for irrational B sqrt(d)
        fl = t if B > 0 else -t - 1
        return (A + fl) // C

    def __eq__(self, other):
        if isinstance(other, _FractionLike):
            return self._B == 0 and self.a == other
        if not isinstance(other, QuadNum):
            return NotImplemented
        # equal triples of rationals are equal whatever their fields
        return self.coords == other.coords and (self._B == 0 or self._d == other._d)

    def __hash__(self):
        if self._B == 0:
            return hash(self.a)
        return hash((self.a, self.b, self._d))

    def _cmp(self, other) -> int:
        x, y = self._match(other)
        if x is NotImplemented:
            raise TypeError(f"cannot compare QuadNum with {type(other).__name__}")
        return (x - y).sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __repr__(self):
        if self._B == 0:
            return f"QuadNum({self.a})"
        return f"QuadNum({self.a} + {self.b}*sqrt({self._d}))"

    # ----- interval bridge -----

    def enclose(self, precision_bits: int = DEFAULT_PRECISION) -> "DyadicInterval":
        """Certified enclosure; width <= 2**(2-precision_bits) * max(1, |self|).

        Refining precision never widens the result: the sqrt(d) digits and the
        final rounding grids both nest as precision grows.
        """
        if precision_bits < 4:
            raise InputError("precision_bits must be at least 4")
        A, B, C = self.coords
        b = self.b
        b_bits = b.numerator.bit_length() - b.denominator.bit_length() + 1
        k = precision_bits + 4 + max(0, b_bits)
        s = isqrt(self._d << (2 * k))
        # sqrt(d) lies in [s, s + 1] / 2**k; for B == 0 both ends are A/C
        at_s = (A << k) + B * s
        lo, hi = (at_s, at_s + B) if B > 0 else (at_s + B, at_s)
        return DyadicInterval.from_endpoints(Fraction(lo, C << k), Fraction(hi, C << k), precision_bits)

    # ----- JSON wire format -----

    def to_json(self) -> dict:
        a, b = self.a, self.b
        return {
            "a_num": str(a.numerator),
            "a_den": str(a.denominator),
            "b_num": str(b.numerator),
            "b_den": str(b.denominator),
            "D": self._d,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "QuadNum":
        return make_quadnum(
            Fraction(int(obj["a_num"]), int(obj["a_den"])),
            Fraction(int(obj["b_num"]), int(obj["b_den"])),
            int(obj["D"]),
        )


def make_quadnum(a, b, d: int) -> QuadNum:
    """Normalize user input a + b*sqrt(d) into canonical squarefree form.

    d >= 2 is required.  Square parts of d fold into b; if d is a perfect
    square the value collapses to a rational (degenerate) QuadNum.
    """
    a, b = Fraction(a), Fraction(b)
    if d < 2:
        raise InputError(f"expected d >= 2, got {d}")
    m, f = squarefree_split(d)
    if f == 1:
        return QuadNum(a + b * m, Fraction(0), 1)
    return QuadNum(a, b * m, f)


# ---------------------------------------------------------------------------
# Dyadic intervals
# ---------------------------------------------------------------------------


def _is_dyadic(x: Fraction) -> bool:
    d = x.denominator
    return d & (d - 1) == 0


def _round_down(x: Fraction, bits: int) -> Fraction:
    """Largest dyadic on the bits-significant grid that is <= x."""
    if x == 0:
        return Fraction(0)
    mag_exp = abs(x.numerator).bit_length() - x.denominator.bit_length()
    g = bits - mag_exp
    num, den = x.numerator, x.denominator
    if g >= 0:
        return Fraction((num << g) // den, 1 << g)
    return Fraction((num // (den << -g)) << -g, 1)


def _round_up(x: Fraction, bits: int) -> Fraction:
    return -_round_down(-x, bits)


def dyadic_decimal_str(x: Fraction) -> str:
    """Exact decimal representation of a dyadic rational."""
    if not _is_dyadic(x):
        raise InputError(f"not dyadic: {x}")
    k = x.denominator.bit_length() - 1
    if k == 0:
        return _int_decimal_str(x.numerator)
    scaled = x.numerator * 5**k
    sign = "-" if scaled < 0 else ""
    digits = _int_decimal_str(abs(scaled)).rjust(k + 1, "0")
    return f"{sign}{digits[:-k]}.{digits[-k:]}"


def _int_decimal_str(n: int) -> str:
    # str(int) is capped by sys.get_int_max_str_digits(); Decimal is not
    return format(Decimal(n), "f")


def decimal_to_fraction(text) -> Fraction:
    """Exact value of a finite decimal such as ``dyadic_decimal_str`` writes.

    Parses through Decimal, so the int-to-str digit cap does not apply.
    Raises InputError for anything that is not a finite number.
    """
    try:
        return Fraction(Decimal(text))
    except (TypeError, ValueError, ArithmeticError):
        raise InputError(f"not a finite decimal: {text!r}") from None


def _fraction_to_raw(x: Fraction):
    """Exact mpmath raw mpf for a dyadic rational."""
    k = x.denominator.bit_length() - 1
    return libmp.from_man_exp(x.numerator, -k)


def _raw_to_fraction(t) -> Fraction:
    sign, man, exp, _ = t
    man = int(man)
    if man == 0:
        if exp != 0:  # inf/nan sentinel
            raise PrecisionError("interval kernel returned a non-finite endpoint")
        return Fraction(0)
    v = Fraction(man << exp, 1) if exp >= 0 else Fraction(man, 1 << -exp)
    return -v if sign else v


class DyadicInterval:
    """Closed interval [lo, hi] with dyadic endpoints, outward rounding.

    ``precision_bits`` is the significance kept by rounding steps; it also
    sets the working precision of the log/exp kernels.  All operations are
    conservative: the exact result of the operation on any members of the
    inputs lies inside the output.
    """

    __slots__ = ("lo", "hi", "precision_bits")

    def __init__(self, lo: Fraction, hi: Fraction, precision_bits: int = DEFAULT_PRECISION):
        lo, hi = Fraction(lo), Fraction(hi)
        if not (_is_dyadic(lo) and _is_dyadic(hi)):
            raise InputError("endpoints must be dyadic rationals")
        if lo > hi:
            raise InputError(f"empty interval: lo={lo} > hi={hi}")
        self.lo, self.hi, self.precision_bits = lo, hi, precision_bits

    # ----- constructors -----

    @classmethod
    def from_int(cls, n: int, precision_bits: int = DEFAULT_PRECISION) -> "DyadicInterval":
        f = Fraction(n)
        return cls(f, f, precision_bits)

    @classmethod
    def from_fraction(cls, x, precision_bits: int = DEFAULT_PRECISION) -> "DyadicInterval":
        x = Fraction(x)
        if _is_dyadic(x):
            return cls(x, x, precision_bits)
        return cls(_round_down(x, precision_bits), _round_up(x, precision_bits), precision_bits)

    @classmethod
    def from_endpoints(cls, lo, hi, precision_bits: int = DEFAULT_PRECISION) -> "DyadicInterval":
        lo, hi = Fraction(lo), Fraction(hi)
        dlo = lo if _is_dyadic(lo) else _round_down(lo, precision_bits)
        dhi = hi if _is_dyadic(hi) else _round_up(hi, precision_bits)
        return cls(dlo, dhi, precision_bits)

    # ----- helpers -----

    def _lift(self, other) -> "DyadicInterval":
        if isinstance(other, DyadicInterval):
            return other
        if isinstance(other, _FractionLike):
            return DyadicInterval.from_fraction(other, self.precision_bits)
        return NotImplemented

    def _out(self, lo: Fraction, hi: Fraction, bits: int) -> "DyadicInterval":
        return DyadicInterval(_round_down(lo, bits), _round_up(hi, bits), bits)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x) -> bool:
        x = Fraction(x)
        return self.lo <= x <= self.hi

    # ----- arithmetic -----

    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        bits = min(self.precision_bits, o.precision_bits)
        return self._out(self.lo + o.lo, self.hi + o.hi, bits)

    __radd__ = __add__

    def __neg__(self):
        return DyadicInterval(-self.hi, -self.lo, self.precision_bits)

    def __sub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        bits = min(self.precision_bits, o.precision_bits)
        return self._out(self.lo - o.hi, self.hi - o.lo, bits)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        bits = min(self.precision_bits, o.precision_bits)
        products = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return self._out(min(products), max(products), bits)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        if o.lo <= 0 <= o.hi:
            raise ZeroDivisionError("division by an interval containing zero")
        bits = min(self.precision_bits, o.precision_bits)
        quots = (self.lo / o.lo, self.lo / o.hi, self.hi / o.lo, self.hi / o.hi)
        return self._out(min(quots), max(quots), bits)

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return o.__truediv__(self)

    def __abs__(self):
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return DyadicInterval(Fraction(0), max(-self.lo, self.hi), self.precision_bits)

    def powi(self, n: int) -> "DyadicInterval":
        """n-th power, n any integer; even powers respect sign crossings."""
        if n == 0 or self.lo == self.hi == 1:  # the walk raises the point 1 to Fibonacci powers
            return DyadicInterval.from_int(1, self.precision_bits)
        if n < 0:
            return 1 / self.powi(-n)
        if n % 2 == 0 and self.lo < 0 <= self.hi:
            m = max(-self.lo, self.hi)
            body = DyadicInterval(Fraction(0), m, self.precision_bits).powi(n)
            return body
        result = DyadicInterval.from_int(1, self.precision_bits)
        base = self
        while n > 0:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def root(self, n: int) -> "DyadicInterval":
        """n-th root (n >= 2) via directed integer root extraction."""
        if n < 2:
            raise InputError("root index must be >= 2")
        if self.lo < 0:
            raise InputError("root of an interval reaching below zero")
        bits = self.precision_bits
        return DyadicInterval(
            _dyadic_root_down(self.lo, n, bits), _dyadic_root_up(self.hi, n, bits), bits
        )

    def sqrt(self) -> "DyadicInterval":
        return self.root(2)

    def log(self) -> "DyadicInterval":
        """Natural logarithm; requires lo > 0."""
        if self.lo <= 0:
            raise InputError("log of an interval reaching zero or below")
        bits = self.precision_bits
        raw = libmpi.mpi_log((_fraction_to_raw(self.lo), _fraction_to_raw(self.hi)), bits + 16)
        return self._out(_raw_to_fraction(raw[0]), _raw_to_fraction(raw[1]), bits)

    def exp(self) -> "DyadicInterval":
        bits = self.precision_bits
        raw = libmpi.mpi_exp((_fraction_to_raw(self.lo), _fraction_to_raw(self.hi)), bits + 16)
        return self._out(_raw_to_fraction(raw[0]), _raw_to_fraction(raw[1]), bits)

    # ----- lattice -----

    def max(self, other) -> "DyadicInterval":
        o = self._lift(other)
        bits = min(self.precision_bits, o.precision_bits)
        return DyadicInterval(max(self.lo, o.lo), max(self.hi, o.hi), bits)

    def min(self, other) -> "DyadicInterval":
        o = self._lift(other)
        bits = min(self.precision_bits, o.precision_bits)
        return DyadicInterval(min(self.lo, o.lo), min(self.hi, o.hi), bits)

    # ----- certified comparisons (None = indeterminate) -----

    def compare(self, other) -> int | None:
        o = self._lift(other)
        if self.hi < o.lo:
            return -1
        if self.lo > o.hi:
            return 1
        if self.lo == self.hi == o.lo == o.hi:
            return 0
        return None

    def definitely_lt(self, other) -> bool:
        return self.compare(other) == -1

    def definitely_gt(self, other) -> bool:
        return self.compare(other) == 1

    def definitely_le(self, other) -> bool:
        o = self._lift(other)
        return self.hi <= o.lo

    def definitely_ge(self, other) -> bool:
        o = self._lift(other)
        return self.lo >= o.hi

    def __repr__(self):
        return f"DyadicInterval({float(self.lo)!r}, {float(self.hi)!r}, bits={self.precision_bits})"

    def to_json(self) -> dict:
        return {"lo": dyadic_decimal_str(self.lo), "hi": dyadic_decimal_str(self.hi)}


def _int_nthroot(m: int, n: int) -> int:
    """floor(m ** (1/n)) for m >= 0 by Newton iteration on integers."""
    if m < 0:
        raise InputError("negative radicand")
    if m == 0:
        return 0
    if n == 1:
        return m
    if n == 2:
        return isqrt(m)
    x = 1 << (-(-m.bit_length() // n))  # >= true root
    while True:
        y = ((n - 1) * x + m // x ** (n - 1)) // n
        if y >= x:
            break
        x = y
    return x


def _dyadic_root_down(x: Fraction, n: int, bits: int) -> Fraction:
    if x == 0:
        return Fraction(0)
    t = bits + 4
    den = x.denominator
    m = (x.numerator << (n * t)) // den
    return Fraction(_int_nthroot(m, n), 1 << t)


def _dyadic_root_up(x: Fraction, n: int, bits: int) -> Fraction:
    if x == 0:
        return Fraction(0)
    t = bits + 4
    den = x.denominator
    num = x.numerator << (n * t)
    m = -(-num // den)
    r = _int_nthroot(m, n)
    if r**n < m:
        r += 1
    return Fraction(r, 1 << t)
