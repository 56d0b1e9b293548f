"""Reference implementations that only the tests call.

The library keeps what a bound pipeline, the search or the CLI runs; these
helpers exist to state and check properties of it (height calculus rules,
the height of a rational, the delta5 tail envelope, the transfer lemma's
true root, the step-by-step grid-walk simulator with its state and value
helpers, the shifted denominator recurrence, Fibonacci growth, index
partitions, the Zeckendorf and radix decoders, perfect-power detection,
the norm and floor of a quadratic number, and the width, midpoint and
membership of an interval) or to check it against an earlier
implementation (the Fraction-endpoint interval kernel and its Newton
root, and the Binet data built from QuadNum products with the two-power
sandwich-index walk).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from mpmath import libmp
from mpmath.libmp import libmpi

from cfpow.bounds import _walk_inputs
from cfpow.cfrac import N0_CAP, BinetData, ContinuedFraction, period_matrix_trace
from cfpow.errors import InputError, PrecisionError, ToolkitError
from cfpow.heights import HeightBound, _log_int, _zero, height_quadratic, log_plus
from cfpow.linforms import _A_FLOOR, _check_pw_args, _lift, pw_transfer
from cfpow.numeration import RadixRep, ZeckendorfRep, fibonacci, zeckendorf_encode
from cfpow.quadfield import (
    DEFAULT_PRECISION,
    DyadicInterval,
    QuadNum,
    _FractionLike,
    dyadic_decimal_str,
    make_quadnum,
)
from cfpow.search import power_splits


class G2LDomainError(ToolkitError):
    """log_from_gamma was asked for a point outside |x - 1| <= 1/2."""

    code = "g2l-domain"


class WalkPathError(ToolkitError):
    """walk_simulate was given an unknown move or a path off the grid."""

    code = "walk-malformed"


# ----- quadratic numbers and intervals -----


def norm(x: QuadNum) -> Fraction:
    """x times its conjugate, exact."""
    A, B, C = x.coords
    return Fraction(A * A - B * B * x.d, C * C)


def floor(x: QuadNum) -> int:
    A, B, C = x.coords
    if B == 0:
        return A // C
    t = isqrt(B * B * x.d)
    # floor(B sqrt(d)) for irrational B sqrt(d)
    fl = t if B > 0 else -t - 1
    return (A + fl) // C


def width(iv: DyadicInterval) -> Fraction:
    return iv.hi - iv.lo


def midpoint(iv: DyadicInterval) -> Fraction:
    return (iv.lo + iv.hi) / 2


def contains(iv: DyadicInterval, x) -> bool:
    x = Fraction(x)
    return iv.lo <= x <= iv.hi


# ----- linear forms -----


def a_majorant(x, precision_bits: int = DEFAULT_PRECISION) -> DyadicInterval:
    """Point interval at the dyadic round-up of max(x, 0.16).

    0.16 itself is not dyadic, so majorants touching the floor must round
    up; overshooting a majorant is sound, undershooting is not.
    """
    v = DyadicInterval.from_fraction(max(Fraction(x), _A_FLOOR), precision_bits).hi
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
    c_frac = _check_pw_args(a, c)
    if c_frac.denominator != 1:
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


def height_rational(x, precision_bits: int = DEFAULT_PRECISION) -> HeightBound:
    """h(p/q) = log max(|p|, q), exact."""
    x = Fraction(x)
    m = max(abs(x.numerator), x.denominator)
    return HeightBound(_log_int(m, precision_bits), "exact")


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


def zeckendorf_decode(rep: ZeckendorfRep) -> int:
    return sum(fibonacci(m) for m in rep.indices)


def radix_decode(rep: RadixRep) -> int:
    return sum(d * rep.base**m for d, m in zip(rep.digits, rep.positions))


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


# ----- search -----


def is_perfect_power(n: int):
    """(y, a) with y^a = n and a maximal >= 2, or None.

    Values below 2 cannot be written with y >= 2, so they map to None.
    """
    splits = power_splits(n)
    return splits[-1] if splits else None


# ----- the grid walk, step by step -----
#
# The pipelines evaluate only cfpow.bounds.walk_closed_form; this walk over
# every grid path is the independent oracle that the closed form dominates.


@dataclass(frozen=True)
class WalkState:
    """Grid-walk snapshot: step index, double counter, bound sequence."""

    j: int
    v: int
    w: int
    u: tuple

    def __post_init__(self):
        if self.v + self.w != self.j + 3:
            raise InputError("walk counter out of sync: v + w must equal j + 3")
        if len(self.u) != self.j + 1:
            raise InputError("walk bound sequence must carry one entry per step")
        if not _walk_value_is_one(self.u[0]):
            raise InputError("walk bound sequence must start at 1")
        for prev, cur in zip(self.u, self.u[1:]):
            if not _walk_value_ge(cur, prev):
                raise InputError("walk bound sequence must be non-decreasing")


def _walk_value_is_one(x) -> bool:
    if isinstance(x, DyadicInterval):
        return x.lo == 1 and x.hi == 1
    return x == 1


def _walk_value_ge(x, y) -> bool:
    if isinstance(x, DyadicInterval):
        return x.lo >= y.lo and x.hi >= y.hi
    return x >= y


def walk_simulate(k: int, ell: int, C12, log_n1, path="worst") -> WalkState:
    """Run the double-indexed grid walk and return its bound sequence.

    The counter starts at (2, 2); each move increments one coordinate,
    capped one past its grid size, and u(j) multiplies the two previous
    bounds by C12 (v_j - 1)(w_j - 1) log n1.  ``path`` is a sequence of
    "down"/"right" moves, or "worst" to maximize the final bound over
    every saturating path.  Exact rational inputs are propagated
    exactly; interval inputs propagate as intervals.
    """
    if k < 2 or ell < 2:
        raise InputError(f"walk needs k >= 2 and ell >= 2, got k={k}, ell={ell}")
    c, g = _walk_inputs(C12, log_n1)
    if isinstance(c, DyadicInterval):
        seed_ok = (c * g).lo >= 1
        u0 = DyadicInterval.from_int(1, c.precision_bits)
    else:
        seed_ok = c * g >= 1
        u0 = Fraction(1)
    if not seed_ok:
        raise InputError("walk needs C12 * log_n1 >= 1 so the bound sequence is monotone")

    def run(moves):
        v, w, j = 2, 2, 1
        u = [u0, c * g]
        for move in moves:
            if move == "down":
                v += 1
            elif move == "right":
                w += 1
            else:
                raise WalkPathError(f"unknown move {move!r}")
            if v > ell + 1 or w > k + 1:
                raise WalkPathError("move past the grid boundary")
            j += 1
            u.append(c * (v - 1) * (w - 1) * u[-1] * u[-2] * g)
        return WalkState(j=j, v=v, w=w, u=tuple(u))

    if isinstance(path, str):
        if path != "worst":
            raise WalkPathError(f"path must be a move sequence or 'worst', got {path!r}")
        best = None
        # saturating paths interleave ell-1 downs with k-1 rights; ties keep
        # the first (down-first) candidate
        def explore(moves, downs, rights):
            nonlocal best
            if downs == ell - 1 and rights == k - 1:
                state = run(moves)
                if best is None or _walk_value_gt(state.u[-1], best.u[-1]):
                    best = state
                return
            if downs < ell - 1:
                explore(moves + ["down"], downs + 1, rights)
            if rights < k - 1:
                explore(moves + ["right"], downs, rights + 1)

        explore([], 0, 0)
        return best

    moves = list(path)
    if len(moves) > k + ell - 1:
        raise WalkPathError(f"path longer than {k + ell - 1} moves cannot stay on the grid")
    return run(moves)


def _walk_value_gt(x, y) -> bool:
    if isinstance(x, DyadicInterval):
        return (x.hi, x.lo) > (y.hi, y.lo)
    return x > y


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


def binet_data_by_products(cf: ContinuedFraction, precision_bits: int = DEFAULT_PRECISION) -> BinetData:
    """Binet data from QuadNum products: c1, c2 from (q1 - theta q0)/(theta1 - theta2),
    c3 and c4 from one exact max/min per class, N0 from the two-power walk."""
    r, s = cf.r, cf.s
    qs = cf.denominators(r + 2 * s)
    t = period_matrix_trace(cf)
    unit = -1 if s % 2 else 1
    disc = t * t - 4 * unit
    d = cf.alpha.d
    m = isqrt(max(disc, 0) // d)
    if m == 0 or m * m * d != disc:
        raise InputError(f"no growth root in Q(sqrt({d})): t={t}, s={s}, disc={disc}")
    theta1 = QuadNum(Fraction(t, 2), Fraction(m, 2), d)
    theta2 = theta1.conjugate()
    inv_dtheta = (theta1 - theta2).inverse()
    c1, c2 = [], []
    for j in range(s):
        q0, q1 = qs[j + r], qs[j + r + s]
        c1.append((q1 - theta2 * q0) * inv_dtheta)
        c2.append((q1 - theta1 * q0) * inv_dtheta)
    return BinetData(
        cf=cf,
        t_alpha=t,
        s=s,
        r=r,
        disc=disc,
        delta=theta1.d,
        theta1=theta1,
        theta2=theta2,
        c1=tuple(c1),
        c2=tuple(c2),
        c3=max(u + abs(v) for u, v in zip(c1, c2)).enclose(precision_bits),
        c4=(min(c1) / 2).enclose(precision_bits),
        N0=least_sandwich_index_by_powers(theta1, theta2, c1, c2),
        precision_bits=precision_bits,
    )


def least_sandwich_index_by_powers(theta1, theta2, c1, c2) -> int:
    """Smallest i with 2|c2[j]| |theta2|**i < c1[j] theta1**i for every j."""
    abs_t2 = abs(theta2)
    pow1 = theta1**0
    pow2 = abs_t2**0
    targets = [(2 * abs(v), u) for u, v in zip(c1, c2)]
    i = 0
    while True:
        if all((u * pow1 - w * pow2).sign() > 0 for w, u in targets):
            return i
        i += 1
        if i > N0_CAP:
            raise PrecisionError(f"sandwich index not found within {N0_CAP} steps")
        pow1 = pow1 * theta1
        pow2 = pow2 * abs_t2


# ----- the interval kernel before integer endpoints -----
#
# The differential oracle for cfpow.quadfield.DyadicInterval: the same
# operations on Fraction endpoints, with Fraction rounding and the Newton
# root from a power-of-two start.


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


class FractionInterval:
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
    def from_int(cls, n: int, precision_bits: int = DEFAULT_PRECISION) -> "FractionInterval":
        f = Fraction(n)
        return cls(f, f, precision_bits)

    @classmethod
    def from_fraction(cls, x, precision_bits: int = DEFAULT_PRECISION) -> "FractionInterval":
        x = Fraction(x)
        if _is_dyadic(x):
            return cls(x, x, precision_bits)
        return cls(_round_down(x, precision_bits), _round_up(x, precision_bits), precision_bits)

    @classmethod
    def from_endpoints(cls, lo, hi, precision_bits: int = DEFAULT_PRECISION) -> "FractionInterval":
        lo, hi = Fraction(lo), Fraction(hi)
        dlo = lo if _is_dyadic(lo) else _round_down(lo, precision_bits)
        dhi = hi if _is_dyadic(hi) else _round_up(hi, precision_bits)
        return cls(dlo, dhi, precision_bits)

    # ----- helpers -----

    def _lift(self, other) -> "FractionInterval":
        if isinstance(other, FractionInterval):
            return other
        if isinstance(other, _FractionLike):
            return FractionInterval.from_fraction(other, self.precision_bits)
        return NotImplemented

    def _out(self, lo: Fraction, hi: Fraction, bits: int) -> "FractionInterval":
        return FractionInterval(_round_down(lo, bits), _round_up(hi, bits), bits)

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
        return FractionInterval(-self.hi, -self.lo, self.precision_bits)

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
        return FractionInterval(Fraction(0), max(-self.lo, self.hi), self.precision_bits)

    def powi(self, n: int) -> "FractionInterval":
        """n-th power, n any integer; even powers respect sign crossings."""
        if n == 0 or self.lo == self.hi == 1:  # the walk raises the point 1 to Fibonacci powers
            return FractionInterval.from_int(1, self.precision_bits)
        if n < 0:
            return 1 / self.powi(-n)
        if n % 2 == 0 and self.lo < 0 <= self.hi:
            m = max(-self.lo, self.hi)
            body = FractionInterval(Fraction(0), m, self.precision_bits).powi(n)
            return body
        result = FractionInterval.from_int(1, self.precision_bits)
        base = self
        while n > 0:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def root(self, n: int) -> "FractionInterval":
        """n-th root (n >= 2) via directed integer root extraction."""
        if n < 2:
            raise InputError("root index must be >= 2")
        if self.lo < 0:
            raise InputError("root of an interval reaching below zero")
        bits = self.precision_bits
        return FractionInterval(
            _dyadic_root_down(self.lo, n, bits), _dyadic_root_up(self.hi, n, bits), bits
        )

    def sqrt(self) -> "FractionInterval":
        return self.root(2)

    def log(self) -> "FractionInterval":
        """Natural logarithm; requires lo > 0."""
        if self.lo <= 0:
            raise InputError("log of an interval reaching zero or below")
        bits = self.precision_bits
        raw = libmpi.mpi_log((_fraction_to_raw(self.lo), _fraction_to_raw(self.hi)), bits + 16)
        return self._out(_raw_to_fraction(raw[0]), _raw_to_fraction(raw[1]), bits)

    def exp(self) -> "FractionInterval":
        bits = self.precision_bits
        raw = libmpi.mpi_exp((_fraction_to_raw(self.lo), _fraction_to_raw(self.hi)), bits + 16)
        return self._out(_raw_to_fraction(raw[0]), _raw_to_fraction(raw[1]), bits)

    # ----- lattice -----

    def max(self, other) -> "FractionInterval":
        o = self._lift(other)
        bits = min(self.precision_bits, o.precision_bits)
        return FractionInterval(max(self.lo, o.lo), max(self.hi, o.hi), bits)

    def min(self, other) -> "FractionInterval":
        o = self._lift(other)
        bits = min(self.precision_bits, o.precision_bits)
        return FractionInterval(min(self.lo, o.lo), min(self.hi, o.hi), bits)

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
        return f"FractionInterval({float(self.lo)!r}, {float(self.hi)!r}, bits={self.precision_bits})"

    def to_json(self) -> dict:
        return {"lo": dyadic_decimal_str(self.lo), "hi": dyadic_decimal_str(self.hi)}


def newton_nthroot(m: int, n: int) -> int:
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
    return Fraction(newton_nthroot(m, n), 1 << t)


def _dyadic_root_up(x: Fraction, n: int, bits: int) -> Fraction:
    if x == 0:
        return Fraction(0)
    t = bits + 4
    den = x.denominator
    num = x.numerator << (n * t)
    m = -(-num // den)
    r = newton_nthroot(m, n)
    if r**n < m:
        r += 1
    return Fraction(r, 1 << t)
