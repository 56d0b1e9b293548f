"""Lower bounds for linear forms in logarithms and the log-to-linear bridges.

``matveev_gamma_bound`` and ``matveev_lambda_bound`` evaluate the two
classical lower-bound formulas as certified intervals; the hypotheses
(non-vanishing, height floors) are the caller's responsibility.

``pw_transfer`` turns an inequality x <= a + g (log x)^c into an explicit
bound on x, valid when g > (e^2/c)^c.  ``escalate`` is the one loop that
doubles the working precision of a certified comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, PrecisionError, PWPreconditionError
from .quadfield import DEFAULT_PRECISION, DyadicInterval

__all__ = [
    "LinFormInstance",
    "matveev_gamma_bound",
    "matveev_lambda_bound",
    "pw_transfer",
    "escalate",
    "clamp_a",
]

_A_FLOOR = Fraction(4, 25)  # 0.16
_MAX_DOUBLINGS = 5  # 128 bits escalate to at most 4096


def clamp_a(x: DyadicInterval) -> DyadicInterval:
    """Raise an interval majorant onto the 0.16 floor (endpoints only go up)."""
    floor = DyadicInterval.from_fraction(_A_FLOOR, x.precision_bits).hi
    if x.lo >= floor:
        return x
    return DyadicInterval(max(x.lo, floor), max(x.hi, floor), x.precision_bits)


def escalate(builder, precision_bits: int = DEFAULT_PRECISION, what: str = "comparison"):
    """Run builder(bits) until it returns a non-None result, doubling bits.

    builder returns None to request more precision.  After
    ``_MAX_DOUBLINGS`` doublings it raises "precision-exhausted".
    """
    bits = precision_bits
    for _ in range(_MAX_DOUBLINGS + 1):
        result = builder(bits)
        if result is not None:
            return result
        bits *= 2
    raise PrecisionError(f"{what} still indeterminate at {bits // 2} bits")


def _lift(x, bits: int) -> DyadicInterval:
    if isinstance(x, DyadicInterval):
        return DyadicInterval(x.lo, x.hi, bits)
    return DyadicInterval.from_fraction(Fraction(x), bits)


@dataclass(frozen=True)
class LinFormInstance:
    """Shape of one linear form in T logarithms over a degree-D field.

    A holds per-term height/log majorants, each at least 0.16; B dominates
    the absolute values of the integer coefficients, so B >= 1.
    """

    T: int
    D: int
    A: tuple[DyadicInterval, ...]
    B: DyadicInterval

    def __post_init__(self):
        if self.T < 1 or self.D < 1:
            raise InputError("T and D must be >= 1")
        if len(self.A) != self.T:
            raise InputError(f"need exactly T={self.T} majorants, got {len(self.A)}")
        for j, aj in enumerate(self.A):
            if aj.lo < _A_FLOOR:
                raise InputError(f"A[{j}] must be >= 0.16, got lower endpoint {float(aj.lo)}")
        if not self.B.definitely_ge(1):
            raise InputError("B must be >= 1")


def _matveev_product(inst: LinFormInstance, scale: Fraction, power30: int, t1_exponent_doubled: int) -> DyadicInterval:
    """scale * 30**power30 * (T+1)**(t1_exponent_doubled/2) * D^2 log(eD) * prod(A) * log(eB)."""
    T, D = inst.T, inst.D
    bits = min([inst.B.precision_bits] + [a.precision_bits for a in inst.A])
    acc = DyadicInterval.from_int(30**power30 * D * D, bits) * scale
    acc = acc * DyadicInterval.from_int((T + 1) ** t1_exponent_doubled, bits).sqrt()
    if D > 1:
        acc = acc * (DyadicInterval.from_int(D, bits).log() + 1)
    for aj in inst.A:
        acc = acc * aj
    acc = acc * (inst.B.log() + 1)
    return acc


def matveev_gamma_bound(inst: LinFormInstance) -> DyadicInterval:
    """Certified lower bound for log|Gamma - 1|, Gamma the monomial form."""
    return -_matveev_product(inst, Fraction(7, 5), inst.T + 3, 9)


def matveev_lambda_bound(inst: LinFormInstance) -> DyadicInterval:
    """Certified lower bound for log|Lambda|, Lambda the logarithmic form."""
    return -_matveev_product(inst, Fraction(2), inst.T + 4, 12)


def _check_pw_args(a, c) -> Fraction:
    """c as a Fraction, once a >= 0 and c >= 1 are checked."""
    if Fraction(a) < 0:
        raise InputError("a must be >= 0")
    c_frac = Fraction(c)
    if c_frac < 1:
        raise InputError("c must be >= 1")
    return c_frac


def _pw_precondition_status(c: Fraction, g, bits: int):
    """1 if g > (e^2/c)^c holds, -1 if it fails, None if undecided."""
    g_i = _lift(g, bits)
    if not g_i.definitely_gt(0):
        return -1
    if c.denominator == 1:
        n = c.numerator
        lhs = g_i * n**n
        rhs = DyadicInterval.from_int(2 * n, bits).exp()
    else:
        c_i = _lift(c, bits)
        lhs = g_i.log()
        rhs = c_i * (2 - c_i.log())
    cmp = lhs.compare(rhs)
    if cmp == 1:
        return 1
    if cmp == -1 or cmp == 0:
        return -1
    return None


def _require_pw_precondition(c: Fraction, g, precision_bits: int):
    try:
        status = escalate(lambda bits: _pw_precondition_status(c, g, bits), precision_bits, "g > (e^2/c)^c")
    except PrecisionError as exc:
        raise PWPreconditionError(exc.detail) from None
    if status == -1:
        raise PWPreconditionError("need g > (e^2/c)^c")


def _root_nonneg(x: DyadicInterval, n: int) -> DyadicInterval:
    if n == 1:
        return x
    return x.root(n)


def _pow_pos(x: DyadicInterval, e: DyadicInterval) -> DyadicInterval:
    """x**e for the point 0 or an x with x.lo > 0, and e.lo > 0, via exp(e log x)."""
    if x.definitely_le(0):
        return DyadicInterval.from_int(0, x.precision_bits)
    return (x.log() * e).exp()


def pw_transfer(a, c, g, precision_bits: int = DEFAULT_PRECISION) -> DyadicInterval:
    """Bound 2^c (a^{1/c} + g^{1/c} log(c^c g))^c on solutions of x = a + g(log x)^c.

    ``a`` and ``c`` are exact (int or Fraction); ``g`` may be an interval.
    An exact a > 0 encloses with a positive lower endpoint, so the a-term
    is either the point 0 or a root of a positive interval.
    """
    c_frac = _check_pw_args(a, c)
    _require_pw_precondition(c_frac, g, precision_bits)
    bits = precision_bits
    a_i, g_i = _lift(a, bits), _lift(g, bits)
    if c_frac.denominator == 1:
        n = c_frac.numerator
        if a_i.definitely_le(0):
            term_a = DyadicInterval.from_int(0, bits)
        else:
            term_a = _root_nonneg(a_i, n)
        inner = term_a + _root_nonneg(g_i, n) * (g_i * n**n).log()
        return inner.powi(n) * 2**n
    c_i = _lift(c_frac, bits)
    inv_c = 1 / c_i
    log_g = g_i.log()
    inner = _pow_pos(a_i, inv_c) + _pow_pos(g_i, inv_c) * (c_i * c_i.log() + log_g)
    two_log = DyadicInterval.from_int(2, bits).log()
    return (c_i * (two_log + inner.log())).exp()
