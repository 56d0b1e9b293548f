"""Absolute logarithmic heights of quadratic numbers.

Heights come back as ``HeightBound`` values: a certified interval plus a
`kind` flag saying whether the interval encloses the height itself
("exact") or only an upper bound for it ("bound").  Downstream assembly
must consume ``.value.hi``; the lower endpoint is diagnostic only.

The degree-2 height runs off the primitive integer minimal polynomial:
h(x) = (1/2)(log d0 + sum of log|root| over roots outside the unit circle),
with the outside-the-circle test done exactly in the quadratic field.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import InputError
from .quadfield import DEFAULT_PRECISION, DyadicInterval, QuadNum

__all__ = [
    "HeightBound",
    "Delta3Height",
    "log_plus",
    "height_quadratic",
    "delta3_height_bound",
]


@dataclass(frozen=True)
class HeightBound:
    value: DyadicInterval
    kind: str  # "exact" or "bound"

    def __post_init__(self):
        if self.kind not in ("exact", "bound"):
            raise InputError(f"bad kind {self.kind!r}")
        if not self.value.definitely_ge(0):
            object.__setattr__(self, "value", self.value.max(0))

    def to_json(self) -> dict:
        return {"value": self.value.to_json(), "kind": self.kind}


def _zero(bits: int) -> DyadicInterval:
    return DyadicInterval.from_int(0, bits)


def _log_int(n: int, bits: int) -> DyadicInterval:
    if n < 1:
        raise InputError("log of a non-positive integer")
    if n == 1:
        return _zero(bits)
    return DyadicInterval.from_int(n, bits).log()


def log_plus(x, precision_bits: int = DEFAULT_PRECISION) -> DyadicInterval:
    """log max{x, 3} as a certified interval; x an int, Fraction, or interval."""
    if isinstance(x, DyadicInterval):
        return x.max(3).log()
    return DyadicInterval.from_fraction(max(Fraction(x), 3), precision_bits).log()


def _minimal_poly(x: QuadNum) -> tuple[int, int, int]:
    """Primitive (d0, d1, d2) with d0 > 0 and d0 x^2 + d1 x + d2 = 0."""
    # x = (A + B sqrt(d))/C is a root of C^2 X^2 - 2AC X + (A^2 - B^2 d)
    A, B, C = x.coords
    d0, d1, d2 = C * C, -2 * A * C, A * A - B * B * x.d
    g = gcd(d0, d1, d2)  # d0 first: it is usually the small one
    return d0 // g, d1 // g, d2 // g


def height_quadratic(x: QuadNum, precision_bits: int = DEFAULT_PRECISION) -> HeightBound:
    if x.degenerate:
        raise InputError("degenerate input: the height of a rational p/q is log max(|p|, q)")
    d0, _, _ = _minimal_poly(x)
    outside = QuadNum(Fraction(1), Fraction(0), x.d)
    for root in (x, x.conjugate()):
        mag = abs(root)
        # |root| = 1 would force a rational root, so the sign test is safe
        if (mag - 1).sign() > 0:
            outside = outside * mag
    total = _log_int(d0, precision_bits)
    if not (outside.degenerate and outside.a == 1):
        total = total + outside.enclose(precision_bits).log()
    return HeightBound(total * Fraction(1, 2), "exact")


@dataclass(frozen=True)
class Delta3Height:
    """Height bound for a combination sum(d_i c1 theta1**(n_i - n_1)).

    ``tight`` is the per-instance bound; ``uniform`` is the linear envelope
    unit_coefficient * w * max{n_1 - n_w, 1} that dominates it.
    """

    tight: HeightBound
    uniform: HeightBound
    unit_coefficient: DyadicInterval
    theta1_height: DyadicInterval  # h(theta1), a term of unit_coefficient


def delta3_height_bound(w: int, d, gaps, bd, precision_bits: int = DEFAULT_PRECISION) -> Delta3Height:
    """d and gaps list the multiplicities d_i and differences n_1 - n_i, i = 1..w."""
    if w < 1:
        raise InputError("w must be >= 1")
    if len(d) < w or len(gaps) < w:
        raise InputError("need w multiplicities and w gaps")
    if gaps[0] != 0:
        raise InputError("gaps[0] is n_1 - n_1 = 0")
    if any(g < 0 for g in gaps[:w]) or any(x < 1 for x in d[:w]):
        raise InputError("gaps must be >= 0 and multiplicities >= 1")
    h_c1_max = None
    for c in bd.c1:
        h = height_quadratic(c, precision_bits).value
        h_c1_max = h if h_c1_max is None else h_c1_max.max(h)
    h_theta = height_quadratic(bd.theta1, precision_bits).value
    gap_w = gaps[w - 1]
    log_d = _log_int(sum(d[:w]), precision_bits)
    tight = h_c1_max * w + h_theta * gap_w + log_d
    unit = h_c1_max + h_theta + log_d
    uniform = unit * (w * max(gap_w, 1))
    return Delta3Height(HeightBound(tight, "bound"), HeightBound(uniform, "bound"), unit, h_theta)
