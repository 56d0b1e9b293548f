"""Numeration systems over convergent denominators, Fibonacci, and radix bases.

Ostrowski digits are little-endian (the q_0 coefficient first).  Zeckendorf
and radix representations store positions in descending order.  All encoders
are greedy; for Ostrowski and Zeckendorf greediness is what forces the
canonical digit conditions, and ``ostrowski_validate`` checks the local digit
conditions and the partial-sum characterization independently.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .cfrac import ContinuedFraction
from .errors import InputError, ToolkitError

__all__ = [
    "OstrowskiRep",
    "ZeckendorfRep",
    "RadixRep",
    "ostrowski_encode",
    "ostrowski_decode",
    "ostrowski_validate",
    "zeckendorf_encode",
    "radix_encode",
    "fibonacci",
]


@dataclass(frozen=True)
class OstrowskiRep:
    digits: tuple[int, ...]

    def to_json(self) -> dict:
        return {"digits": list(self.digits)}


@dataclass(frozen=True)
class ZeckendorfRep:
    indices: tuple[int, ...]

    def to_json(self) -> dict:
        return {"indices": list(self.indices)}


@dataclass(frozen=True)
class RadixRep:
    base: int
    positions: tuple[int, ...]
    digits: tuple[int, ...]

    def to_json(self) -> dict:
        return {"base": self.base, "positions": list(self.positions), "digits": list(self.digits)}


def ostrowski_encode(n: int, cf: ContinuedFraction) -> OstrowskiRep:
    """Greedy digit vector for n over the convergent denominators of cf."""
    if n < 0:
        raise InputError("n must be >= 0")
    if n == 0:
        return OstrowskiRep(())
    qs = cf.denominators_above(n)
    top = bisect_right(qs, n) - 1  # rightmost q <= n; ties go to the higher index
    digits = [0] * (top + 1)
    rem = n
    for i in range(top, -1, -1):
        digits[i], rem = divmod(rem, qs[i])
    return OstrowskiRep(tuple(digits))


def ostrowski_decode(rep: OstrowskiRep, cf: ContinuedFraction) -> int:
    return sum(d * q for d, q in zip(rep.digits, cf.denominators(len(rep.digits) - 1)))


def _digit_conditions(digits, quots) -> bool:
    """0 <= d_0 < a_1, d_i <= a_{i+1}, and d_i = a_{i+1} only after d_{i-1} = 0."""
    if any(d < 0 for d in digits) or (digits and digits[0] >= quots[0]):
        return False
    return not any(
        digits[i] > quots[i] or (digits[i] == quots[i] and digits[i - 1] != 0)
        for i in range(1, len(digits))
    )


def _partial_sums_bounded(digits, qs) -> bool:
    """Every partial sum d_0 q_0 + ... + d_i q_i stays below q_{i+1}."""
    acc = 0
    for i, d in enumerate(digits):
        if d < 0:
            return False
        acc += d * qs[i]
        if acc >= qs[i + 1]:
            return False
    return True


def ostrowski_validate(rep: OstrowskiRep, cf: ContinuedFraction) -> bool:
    """Digit conditions, cross-checked against the partial-sum bound."""
    digits = rep.digits
    conditions = _digit_conditions(digits, cf.quotients(len(digits))[1:])  # a_1 .. a_l
    if conditions != _partial_sums_bounded(digits, cf.denominators(len(digits))):
        raise ToolkitError(f"Ostrowski digit conditions and partial sums disagree on {list(digits)}")
    return conditions


_FIBS = [0, 1]


def fibonacci(t: int) -> int:
    if t < 0:
        raise InputError("t must be >= 0")
    while len(_FIBS) <= t:
        _FIBS.append(_FIBS[-1] + _FIBS[-2])
    return _FIBS[t]


def zeckendorf_encode(y: int) -> ZeckendorfRep:
    """Greedy sum of non-consecutive Fibonacci numbers, indices >= 2."""
    if y < 1:
        raise InputError("y must be >= 1")
    t = 2
    while fibonacci(t + 1) <= y:
        t += 1
    indices = []
    rem = y
    while rem:
        while fibonacci(t) > rem:
            t -= 1
        indices.append(t)
        rem -= fibonacci(t)
        t -= 2  # greedy remainder < F_{t-1}, so the gap condition is automatic
    return ZeckendorfRep(tuple(indices))


def radix_encode(y: int, b: int) -> RadixRep:
    if y < 1:
        raise InputError("y must be >= 1")
    if b < 2:
        raise InputError("base must be >= 2")
    positions = []
    digits = []
    m = 0
    while y:
        y, d = divmod(y, b)
        if d:
            positions.append(m)
            digits.append(d)
        m += 1
    positions.reverse()
    digits.reverse()
    return RadixRep(b, tuple(positions), tuple(digits))
