"""Reference implementations that only the tests call.

The library keeps what a bound pipeline, the search or the CLI runs; these
helpers exist to state and check properties of it (height calculus rules,
the delta5 tail envelope, the transfer lemma's true root, the shifted
denominator recurrence, Fibonacci growth, index partitions).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from cfpow.cfrac import ContinuedFraction, period_matrix_trace
from cfpow.errors import InputError, PrecisionError, ToolkitError
from cfpow.heights import HeightBound, _log_int, _zero, height_quadratic, log_plus
from cfpow.linforms import _A_FLOOR, _check_pw_args, _lift, pw_transfer
from cfpow.numeration import ZeckendorfRep, fibonacci, zeckendorf_encode
from cfpow.quadfield import DEFAULT_PRECISION, DyadicInterval, QuadNum, _round_up, make_quadnum


class G2LDomainError(ToolkitError):
    """log_from_gamma was asked for a point outside |x - 1| <= 1/2."""

    code = "g2l-domain"


# ----- linear forms -----


def a_majorant(x, precision_bits: int = DEFAULT_PRECISION) -> DyadicInterval:
    """Point interval at the dyadic round-up of max(x, 0.16).

    0.16 itself is not dyadic, so majorants touching the floor must round
    up; overshooting a majorant is sound, undershooting is not.
    """
    v = _round_up(max(Fraction(x), _A_FLOOR), precision_bits)
    return DyadicInterval(v, v, precision_bits)


def _pw_f_sign(x: Fraction, a, c_int: int, g, bits: int):
    """Certified sign of f(x) = x - a - g (log x)^c at a dyadic point, or None."""
    xi = DyadicInterval(x, x, bits)
    val = xi - _lift(a, bits) - _lift(g, bits) * xi.log().powi(c_int)
    if val.lo > 0:
        return 1
    if val.hi < 0:
        return -1
    return None


def pw_largest_root(a, c, g, precision_bits: int = DEFAULT_PRECISION, max_iter: int = 500) -> DyadicInterval:
    """Enclose the largest solution of x = a + g (log x)^c by bisection.

    The bracket starts at the transfer bound and walks down by halving until
    the sign certifies negative; past the largest root the defect is
    positive, so the first negative window hit from above brackets it.
    """
    c_frac = _check_pw_args(a, c, g)
    if c_frac is None or c_frac.denominator != 1:
        raise InputError("root enclosure expects an integer exponent c")
    n = c_frac.numerator
    bound = pw_transfer(a, c, g, precision_bits)
    bits = precision_bits

    def certified_sign(x: Fraction):
        b = bits
        for _ in range(5):
            s = _pw_f_sign(x, a, n, g, b)
            if s is not None:
                return s
            b *= 2
        return None

    hi_pt = bound.hi
    if certified_sign(hi_pt) != 1:
        raise PrecisionError("transfer bound not certified above the root")
    lo_pt = hi_pt / 2
    steps = 0
    while certified_sign(lo_pt) != -1:
        lo_pt /= 2
        steps += 1
        if lo_pt <= 1 or steps > 200:
            raise PrecisionError("no negative window found below the bound")
    tol = Fraction(1, 2 ** min(48, precision_bits // 2))
    for _ in range(max_iter):
        if hi_pt - lo_pt <= tol * max(Fraction(1), lo_pt):
            return DyadicInterval(lo_pt, hi_pt, precision_bits)
        mid = (lo_pt + hi_pt) / 2
        s = certified_sign(mid)
        if s is None:
            # f vanishes at mid within evaluation width; the bracket is sound
            return DyadicInterval(lo_pt, hi_pt, precision_bits)
        if s == 1:
            hi_pt = mid
        else:
            lo_pt = mid
    raise PrecisionError(f"bisection did not converge within {max_iter} iterations")


def log_from_gamma(gamma_minus_1_abs: DyadicInterval) -> DyadicInterval:
    """Upper bound 2|x - 1| for |log x|, valid while |x - 1| <= 1/2."""
    if gamma_minus_1_abs.lo < 0:
        raise InputError("expected an absolute value, lower endpoint is negative")
    if gamma_minus_1_abs.hi > Fraction(1, 2):
        raise G2LDomainError("|x - 1| exceeds 1/2; use the large-deviation branch")
    return gamma_minus_1_abs * 2


# ----- heights -----


def height_combine(h1: HeightBound, h2: HeightBound, op: str) -> HeightBound:
    """h(x*y) and h(x/y) share the same upper bound h(x) + h(y)."""
    if op not in ("product", "quotient"):
        raise InputError(f"bad op {op!r}")
    return HeightBound(h1.value + h2.value, "bound")


def height_power(h: HeightBound, k: int) -> HeightBound:
    """h(x**k) = |k| h(x), an equality."""
    return HeightBound(h.value * abs(k), h.kind)


def height_poly_bound(degrees, L: int, h_list, precision_bits: int = DEFAULT_PRECISION) -> HeightBound:
    """Evaluation bound sum(deg_i * h_i) + log L for an integer polynomial."""
    if len(degrees) != len(h_list):
        raise InputError("degrees and heights must align")
    if L < 1:
        raise InputError("coefficient sum L must be >= 1")
    total = _log_int(L, precision_bits)
    for deg, h in zip(degrees, h_list):
        if deg < 0:
            raise InputError("negative degree")
        if deg:
            total = total + h.value * deg
    return HeightBound(total, "bound")


@dataclass(frozen=True)
class Delta5Height:
    """Height bound for the small-index tail sum of a numeration expansion."""

    final: HeightBound
    intermediate: HeightBound


def delta5_height_bound(
    v: int,
    gaps,
    variant: str = "zeckendorf",
    b: int | None = None,
    digits=None,
    precision_bits: int = DEFAULT_PRECISION,
) -> Delta5Height:
    """gaps lists m_1 - m_i for i = 1..v; the tail is exactly 1 when v = 1."""
    if v < 1:
        raise InputError("v must be >= 1")
    if len(gaps) < v or gaps[0] != 0 or any(g < 0 for g in gaps[:v]):
        raise InputError("need v gaps starting at 0")
    bits = precision_bits
    if v == 1:
        zero = HeightBound(_zero(bits), "exact")
        return Delta5Height(zero, zero)
    gap_v = gaps[v - 1]
    if gap_v < 1:
        raise InputError("positions must be strictly decreasing for v >= 2")
    if variant == "zeckendorf":
        phi = QuadNum(Fraction(1, 2), Fraction(1, 2), 5)
        inter = height_quadratic(phi, bits).value * gap_v + _log_int(v, bits)
        final = DyadicInterval.from_int(2 * v * gap_v, bits)
    elif variant == "radix":
        if b is None or b < 2:
            raise InputError("radix variant needs a base b >= 2")
        if digits is None:
            digit_sum = v * (b - 1)
        else:
            if len(digits) < v or any(not 0 < dd < b for dd in digits[:v]):
                raise InputError("digits must satisfy 0 < D_i < b")
            digit_sum = sum(digits[:v])
        inter = _log_int(b, bits) * gap_v + _log_int(digit_sum, bits) * 2
        final = log_plus(b, bits) * (5 * gap_v)
    else:
        raise InputError(f"bad variant {variant!r}")
    if not inter.lo <= final.hi:
        raise ToolkitError("intermediate must be dominated by the final bound")
    return Delta5Height(HeightBound(final, "bound"), HeightBound(inter, "bound"))


# ----- numeration -----


def zeckendorf_canonicalize(indices) -> ZeckendorfRep:
    """Re-encode an arbitrary multiset of Fibonacci indices (each >= 1)."""
    total = 0
    for m in indices:
        if m < 1:
            raise InputError("Fibonacci indices must be >= 1")
        total += fibonacci(m)
    if total == 0:
        raise InputError("empty sum")
    return zeckendorf_encode(total)


@dataclass(frozen=True)
class SumRepresentation:
    """K indices collected into distinct values and split along the period.

    ``terms`` holds (multiplicity, value) pairs with value >= r, descending;
    ``split`` aligns with terms and holds (n_i, j_i) where
    value = s*n_i + j_i + r and 0 <= j_i < s.  Indices below the preperiod
    length r cannot be split and sit in ``small_terms`` with multiplicities.
    """

    K: int
    r: int
    s: int
    terms: tuple[tuple[int, int], ...]
    split: tuple[tuple[int, int], ...]
    small_terms: tuple[tuple[int, int], ...]

    @property
    def k(self) -> int:
        return len(self.terms)

    def to_json(self) -> dict:
        return {
            "K": self.K,
            "r": self.r,
            "s": self.s,
            "terms": [{"d": d, "N": v} for d, v in self.terms],
            "split": [{"n": n, "j": j} for n, j in self.split],
            "small_terms": [{"d": d, "N": v} for d, v in self.small_terms],
        }


def partition_sum(N, cf: ContinuedFraction) -> SumRepresentation:
    """Collect weakly decreasing indices N_1 >= ... >= N_K by distinct value."""
    values = list(N)
    if not values:
        raise InputError("need at least one index")
    if any(v < 0 for v in values):
        raise InputError("indices must be >= 0")
    if any(values[i] < values[i + 1] for i in range(len(values) - 1)):
        raise InputError("indices must be weakly decreasing")
    r, s = cf.r, cf.s
    collected: list[tuple[int, int]] = []
    for v in values:
        if collected and collected[-1][1] == v:
            collected[-1] = (collected[-1][0] + 1, v)
        else:
            collected.append((1, v))
    terms = tuple(dv for dv in collected if dv[1] >= r)
    small = tuple(dv for dv in collected if dv[1] < r)
    split = tuple(divmod(v - r, s) for _, v in terms)
    return SumRepresentation(len(values), r, s, terms, split, small)


def fib_bounds_check(t: int, precision_bits: int = DEFAULT_PRECISION) -> bool:
    """Certify phi**(t-2) <= F_t <= phi**(t-1) with interval powers."""
    if t < 1:
        raise InputError("t must be >= 1")
    ft = fibonacci(t)
    phi = make_quadnum(Fraction(1, 2), Fraction(1, 2), 5)
    bits = precision_bits
    for _ in range(4):
        enc = phi.enclose(bits)
        target = DyadicInterval.from_int(ft, bits)
        low, high = enc.powi(t - 2), enc.powi(t - 1)
        if low.definitely_le(target) and high.definitely_ge(target):
            return True
        if low.definitely_gt(target) or high.definitely_lt(target):
            return False
        bits *= 2
    raise PrecisionError(f"fib bounds undecided for t={t} at {bits // 2} bits")


# ----- continued fractions -----


def theta1_by_factoring(cf: ContinuedFraction) -> QuadNum:
    """Growth root (t + sqrt(t^2 - 4(-1)^s))/2, field found by squarefree splitting."""
    t = period_matrix_trace(cf)
    unit = -1 if cf.s % 2 else 1
    return make_quadnum(Fraction(t, 2), Fraction(1, 2), t * t - 4 * unit)


def verify_shifted_recurrence(cf: ContinuedFraction, i_max: int, i_min: int | None = None) -> bool:
    """Check q_{i+2s} == t q_{i+s} - (-1)^s q_i exactly for r <= i <= i_max."""
    r, s = cf.r, cf.s
    lo = r if i_min is None else max(i_min, r)
    if i_max < lo:
        return True
    t = period_matrix_trace(cf)
    unit = -1 if s % 2 else 1
    qs = cf.denominators(i_max + 2 * s)
    return all(qs[i + 2 * s] == t * qs[i + s] - unit * qs[i] for i in range(lo, i_max + 1))
