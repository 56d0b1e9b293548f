"""Exact arithmetic in real quadratic fields and certified dyadic intervals.

Two value types live here.  ``QuadNum`` is an element (A + B*sqrt(D))/C of a
real quadratic field, stored as one normalised integer triple; every
predicate on it (sign, comparison) is decided by integer arithmetic,
never by floats.
``DyadicInterval`` is a closed interval with dyadic-rational endpoints and
outward rounding on every operation; it is the only path by which
transcendental quantities (logarithms, e) enter the toolkit.  Each endpoint
is stored as an integer pair (m, e) meaning m * 2**e with m odd, so the
kernel adds, multiplies, compares and rounds with shifts; ``lo`` and ``hi``
are read-only Fraction views.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from itertools import chain
from math import exp, gcd, isqrt, log

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
_INT_TEXT = re.compile(r"-?[0-9]+")


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

    def _keep(self, A: int, B: int) -> "QuadNum":
        """(A + B*sqrt(d))/C with the C and field of self; gcd(A, B, C) must be 1."""
        x = object.__new__(QuadNum)
        x._A, x._B, x._C, x._d = A, B, self._C, self._d
        return x

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
        return self._keep(-self._A, -self._B)

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
        return self._keep(self._A, -self._B)

    def sign(self) -> int:
        return _surd_sign(self._A, self._B, self._d)  # C > 0 leaves the sign to A + B sqrt(d)

    def __abs__(self):
        return -self if self.sign() < 0 else self

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
            "a_num": _int_decimal_str(a.numerator),
            "a_den": _int_decimal_str(a.denominator),
            "b_num": _int_decimal_str(b.numerator),
            "b_den": _int_decimal_str(b.denominator),
            "D": self._d,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "QuadNum":
        return make_quadnum(
            Fraction(_decimal_int(obj["a_num"]), _decimal_int(obj["a_den"])),
            Fraction(_decimal_int(obj["b_num"]), _decimal_int(obj["b_den"])),
            _decimal_int(obj["D"]),
        )


def _surd_sign(a: int, b: int, d: int) -> int:
    """Sign of a + b*sqrt(d) for d squarefree; squares only when a and b differ in sign."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return 1 if b > 0 else -1
    if (a > 0) == (b > 0):
        return 1 if a > 0 else -1
    lhs, rhs = a * a, b * b * d
    if lhs == rhs:  # would force sqrt(d) rational
        raise InputError(f"non-squarefree field parameter {d}")
    if a > 0:  # b < 0: positive iff a > |b| sqrt(d)
        return 1 if lhs > rhs else -1
    return 1 if rhs > lhs else -1


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
#
# An endpoint is an integer pair (m, e) meaning m * 2**e, normalised so that
# m is odd or (m, e) == (0, 0).  Sums and products of pairs may come out
# unnormalised; rounding normalises them.


def _norm(m: int, e: int) -> tuple[int, int]:
    if m & 1:
        return m, e
    if m == 0:
        return 0, 0
    t = (m & -m).bit_length() - 1
    return m >> t, e + t


def _pair(x) -> tuple[int, int] | None:
    """The endpoint pair of an exact rational, or None when it is not dyadic.

    A float is refused: the toolkit takes no decimal approximations.
    """
    if isinstance(x, int):
        return _norm(x, 0)
    if isinstance(x, float):
        raise InputError(f"expected an exact int or Fraction, got the float {x!r}")
    x = Fraction(x)
    d = x.denominator
    if d & (d - 1):
        return None
    return _norm(x.numerator, 1 - d.bit_length())


def _frac(p: tuple[int, int]) -> Fraction:
    m, e = p
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


def _lt(a: tuple[int, int], b: tuple[int, int]) -> bool:
    (am, ae), (bm, be) = a, b
    if ae <= be:
        return am < bm << (be - ae)
    return am << (ae - be) < bm


def _add(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """Exact sum, not normalised."""
    (am, ae), (bm, be) = a, b
    if not am or not bm:
        return b if not am else a
    if ae <= be:
        return am + (bm << (be - ae)), ae
    return (am << (ae - be)) + bm, be


def _neg(p: tuple[int, int]) -> tuple[int, int]:
    return -p[0], p[1]


def _round_down(n: int, d: int, e: int, bits: int) -> tuple[int, int]:
    """Largest dyadic <= (n/d) * 2**e on the bits-significant grid.

    n/d is in lowest terms with d > 0, and e == 0 unless d == 1 or n and d
    are odd, so that the grid step is 2**(bitlen|N| - bitlen(D) - bits) for
    the reduced fraction N/D of the value.  With d == 1 any n is allowed.
    """
    s = bits + d.bit_length() - abs(n).bit_length()
    if d == 1:
        return _norm(n, e) if s >= 0 else _norm(n >> -s, e - s)
    return _norm((n << s) // d if s >= 0 else n // (d << -s), e - s)


def _round_up(n: int, d: int, e: int, bits: int) -> tuple[int, int]:
    m, e = _round_down(-n, d, e, bits)
    return -m, e


def _check_order(lo, hi):
    if _lt(hi, lo):
        raise InputError(f"empty interval: lo={_frac(lo)} > hi={_frac(hi)}")


def dyadic_decimal_str(x: Fraction) -> str:
    """Exact decimal representation of a dyadic rational."""
    p = _pair(x)
    if p is None:
        raise InputError(f"not dyadic: {x}")
    return _decimal_str(p)


def _decimal_str(p: tuple[int, int]) -> str:
    m, e = p
    if e >= 0:
        return _int_decimal_str(m << e)
    k = -e
    scaled = m * 5**k
    sign = "-" if scaled < 0 else ""
    digits = _int_decimal_str(abs(scaled)).rjust(k + 1, "0")
    return f"{sign}{digits[:-k]}.{digits[-k:]}"


def _int_decimal_str(n: int) -> str:
    # str(int) is capped by sys.get_int_max_str_digits(); Decimal is not
    return format(Decimal(n), "f")


def _decimal_int(value) -> int:
    """A JSON int, or a string of decimal digits as ``_int_decimal_str`` writes.

    Parses through Decimal, so the int-to-str digit cap does not apply.
    Raises InputError for a float, a bool or any other string.
    """
    if type(value) is int:
        return value
    if isinstance(value, str) and _INT_TEXT.fullmatch(value):
        return int(Decimal(value))
    raise InputError(f"not an integer: {value!r}")


def decimal_to_fraction(text) -> Fraction:
    """Exact value of a finite decimal such as ``dyadic_decimal_str`` writes.

    Parses through Decimal, so the int-to-str digit cap does not apply.
    Raises InputError for anything that is not a finite number.
    """
    try:
        return Fraction(Decimal(text))
    except (TypeError, ValueError, ArithmeticError):
        raise InputError(f"not a finite decimal: {text!r}") from None


def _mpf_pair(t) -> tuple[int, int]:
    sign, man, exp, _ = t
    if not man and exp:  # inf/nan sentinel
        raise PrecisionError("interval kernel returned a non-finite endpoint")
    return (-int(man) if sign else int(man)), exp


def _iv(lo: tuple[int, int], hi: tuple[int, int], bits: int) -> "DyadicInterval":
    """An interval from pairs the class built itself: no validation."""
    iv = object.__new__(DyadicInterval)
    iv._lo, iv._hi, iv.precision_bits = lo, hi, bits
    return iv


def _out(lo: tuple[int, int], hi: tuple[int, int], bits: int) -> "DyadicInterval":
    """Round exact dyadic endpoints outward onto the bits-significant grid."""
    return _iv(_round_down(lo[0], 1, lo[1], bits), _round_up(hi[0], 1, hi[1], bits), bits)


class DyadicInterval:
    """Closed interval [lo, hi] with dyadic endpoints, outward rounding.

    ``precision_bits`` is the significance kept by rounding steps; it also
    sets the working precision of the log/exp kernels.  All operations are
    conservative: the exact result of the operation on any members of the
    inputs lies inside the output.  Endpoints are stored as integer pairs;
    ``lo`` and ``hi`` are read-only Fraction views of them.
    """

    __slots__ = ("_lo", "_hi", "precision_bits")

    def __init__(self, lo: Fraction, hi: Fraction, precision_bits: int = DEFAULT_PRECISION):
        lo, hi = _pair(lo), _pair(hi)
        if lo is None or hi is None:
            raise InputError("endpoints must be dyadic rationals")
        _check_order(lo, hi)
        self._lo, self._hi, self.precision_bits = lo, hi, precision_bits

    # ----- constructors -----

    @classmethod
    def from_int(cls, n: int, precision_bits: int = DEFAULT_PRECISION) -> "DyadicInterval":
        return cls(n, n, precision_bits)

    @classmethod
    def from_fraction(cls, x, precision_bits: int = DEFAULT_PRECISION) -> "DyadicInterval":
        return cls.from_endpoints(x, x, precision_bits)

    @classmethod
    def from_endpoints(cls, lo, hi, precision_bits: int = DEFAULT_PRECISION) -> "DyadicInterval":
        plo, phi = _pair(lo), _pair(hi)
        if plo is None:
            lo = Fraction(lo)
            plo = _round_down(lo.numerator, lo.denominator, 0, precision_bits)
        if phi is None:
            hi = Fraction(hi)
            phi = _round_up(hi.numerator, hi.denominator, 0, precision_bits)
        _check_order(plo, phi)
        return _iv(plo, phi, precision_bits)

    # ----- helpers -----

    def _lift(self, other) -> "DyadicInterval":
        if isinstance(other, DyadicInterval):
            return other
        if isinstance(other, _FractionLike):
            return DyadicInterval.from_fraction(other, self.precision_bits)
        return NotImplemented

    def _operand(self, other) -> "DyadicInterval":
        o = self._lift(other)
        if o is NotImplemented:
            raise TypeError(f"expected a DyadicInterval, int or Fraction, got {type(other).__name__}")
        return o

    @property
    def lo(self) -> Fraction:
        return _frac(self._lo)

    @property
    def hi(self) -> Fraction:
        return _frac(self._hi)

    # ----- arithmetic -----

    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        bits = min(self.precision_bits, o.precision_bits)
        return _out(_add(self._lo, o._lo), _add(self._hi, o._hi), bits)

    __radd__ = __add__

    def __neg__(self):
        return _iv(_neg(self._hi), _neg(self._lo), self.precision_bits)

    def __sub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        bits = min(self.precision_bits, o.precision_bits)
        return _out(_add(self._lo, _neg(o._hi)), _add(self._hi, _neg(o._lo)), bits)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        bits = min(self.precision_bits, o.precision_bits)
        (alm, ale), (ahm, ahe), (blm, ble), (bhm, bhe) = self._lo, self._hi, o._lo, o._hi
        if alm >= 0 and blm >= 0:
            return _out((alm * blm, ale + ble), (ahm * bhm, ahe + bhe), bits)
        lo = hi = (alm * blm, ale + ble)
        for p in ((alm * bhm, ale + bhe), (ahm * blm, ahe + ble), (ahm * bhm, ahe + bhe)):
            if _lt(p, lo):
                lo = p
            elif _lt(hi, p):
                hi = p
        return _out(lo, hi, bits)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        if o._lo[0] <= 0 <= o._hi[0]:
            raise ZeroDivisionError("division by an interval containing zero")
        bits = min(self.precision_bits, o.precision_bits)
        # (n, d, e) is (n/d) * 2**e with d > 0; pick the exact extremes first
        # and round once, because rounding a non-dyadic value is not monotone
        quots = []
        for n, ne in (self._lo, self._hi):
            for d, de in (o._lo, o._hi):
                quots.append((-n, -d, ne - de) if d < 0 else (n, d, ne - de))
        lo = hi = quots[0]
        for q in quots[1:]:
            if _lt((q[0] * lo[1], q[2]), (lo[0] * q[1], lo[2])):
                lo = q
            elif _lt((hi[0] * q[1], hi[2]), (q[0] * hi[1], q[2])):
                hi = q
        (ln, ld, le), (hn, hd, he) = lo, hi
        g, h = gcd(ln, ld), gcd(hn, hd)
        return _iv(_round_down(ln // g, ld // g, le, bits), _round_up(hn // h, hd // h, he, bits), bits)

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return o.__truediv__(self)

    def __abs__(self):
        if self._lo[0] >= 0:
            return self
        if self._hi[0] <= 0:
            return -self
        m = self._hi if _lt(_neg(self._lo), self._hi) else _neg(self._lo)
        return _iv((0, 0), m, self.precision_bits)

    def powi(self, n: int) -> "DyadicInterval":
        """n-th power, n any integer; even powers respect sign crossings."""
        if n == 0 or self._lo == self._hi == (1, 0):  # the walk raises the point 1 to Fibonacci powers
            return DyadicInterval.from_int(1, self.precision_bits)
        if n < 0:
            return 1 / self.powi(-n)
        if n % 2 == 0 and self._lo[0] < 0 <= self._hi[0]:
            return abs(self).powi(n)
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
        if self._lo[0] < 0:
            raise InputError("root of an interval reaching below zero")
        bits = self.precision_bits
        t = bits + 4
        return _iv(_root_pair(self._lo, n, t, False), _root_pair(self._hi, n, t, True), bits)

    def sqrt(self) -> "DyadicInterval":
        return self.root(2)

    def log(self) -> "DyadicInterval":
        """Natural logarithm; requires lo > 0."""
        if self._lo[0] <= 0:
            raise InputError("log of an interval reaching zero or below")
        return self._kernel(libmpi.mpi_log)

    def exp(self) -> "DyadicInterval":
        return self._kernel(libmpi.mpi_exp)

    def _kernel(self, f) -> "DyadicInterval":
        bits = self.precision_bits
        raw = f((libmp.from_man_exp(*self._lo), libmp.from_man_exp(*self._hi)), bits + 16)
        return _out(_mpf_pair(raw[0]), _mpf_pair(raw[1]), bits)

    # ----- lattice -----

    def max(self, other) -> "DyadicInterval":
        o = self._operand(other)
        bits = min(self.precision_bits, o.precision_bits)
        lo = o._lo if _lt(self._lo, o._lo) else self._lo
        hi = o._hi if _lt(self._hi, o._hi) else self._hi
        return _iv(lo, hi, bits)

    def min(self, other) -> "DyadicInterval":
        o = self._operand(other)
        bits = min(self.precision_bits, o.precision_bits)
        lo = o._lo if _lt(o._lo, self._lo) else self._lo
        hi = o._hi if _lt(o._hi, self._hi) else self._hi
        return _iv(lo, hi, bits)

    # ----- certified comparisons (None = indeterminate) -----

    def compare(self, other) -> int | None:
        o = self._operand(other)
        if _lt(self._hi, o._lo):
            return -1
        if _lt(o._hi, self._lo):
            return 1
        if self._lo == self._hi == o._lo == o._hi:
            return 0
        return None

    def definitely_lt(self, other) -> bool:
        return self.compare(other) == -1

    def definitely_gt(self, other) -> bool:
        return self.compare(other) == 1

    def definitely_le(self, other) -> bool:
        return not _lt(self._operand(other)._lo, self._hi)

    def definitely_ge(self, other) -> bool:
        return not _lt(self._lo, self._operand(other)._hi)

    def __repr__(self):
        lo, hi = (libmp.to_str(libmp.from_man_exp(*p), 17) for p in (self._lo, self._hi))
        return f"DyadicInterval({lo}, {hi}, bits={self.precision_bits})"

    def to_json(self) -> dict:
        return {"lo": _decimal_str(self._lo), "hi": _decimal_str(self._hi)}


def _int_nthroot(m: int, n: int) -> int:
    """floor(m ** (1/n)) for m >= 0 by Newton iteration on integers.

    From any start at or above the floor root the iteration descends to it.
    The start is one above the floor root of m's top bits, which carries
    about half the root's bits and is found the same way (Brent and
    Zimmermann, Modern Computer Arithmetic, 1.5.2).  Roots of at most 48
    bits start from a float estimate and one unconditional Newton step,
    which lands at or above the floor root by the AM-GM inequality.
    """
    if m < 0:
        raise InputError("negative radicand")
    if m < 2 or n == 1:
        return m
    if n == 2:
        return isqrt(m)
    size = (m.bit_length() - 1) // n + 1  # bit length of the root
    if size == 1:
        return 1
    top = (size + n.bit_length()) // 2 + 2  # enough that one step leaves an error < 1
    if size <= 48 or top >= size:
        x = int(exp(log(m) / n)) + 1
        x = ((n - 1) * x + m // x ** (n - 1)) // n
    else:
        shift = size - top
        x = (_int_nthroot(m >> (n * shift), n) + 1) << shift
    while True:
        y = ((n - 1) * x + m // x ** (n - 1)) // n
        if y >= x:
            return x
        x = y


def _root_pair(p: tuple[int, int], n: int, t: int, up: bool) -> tuple[int, int]:
    """p**(1/n) rounded down (up) to a multiple of 2**-t."""
    m, e = p
    k = e + n * t
    if k >= 0:
        m <<= k
    elif up:
        m = -(-m >> -k)
    else:
        m >>= -k
    r = _int_nthroot(m, n)
    if up and r**n < m:
        r += 1
    return _norm(r, -t)
