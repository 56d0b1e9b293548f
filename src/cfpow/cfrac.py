"""Periodic continued fractions of real quadratic irrationals.

Expansion works on exact (P, Q) complete-quotient states with a fixed
radicand, so period detection is a dictionary lookup and the returned
preperiod/period lengths are minimal.  The convention here: the integer part
a0 always belongs to the preperiodic block, so the preperiod length r
satisfies r >= 1 and the stored ``preperiod`` tuple holds a1 .. a_{r-1}.

``binet_data`` splits the convergent denominators into s arithmetic
subsequences q_{j+r+s*i} (one per residue class j of the period) and returns
the exact closed-form coefficients of each: growth root theta1, its
conjugate theta2, and per-class constants c1, c2 with

    q_{j+r+s*i} = c1[j] * theta1**i - c2[j] * theta2**i.

c1 and c2 come in closed form from two integer numerator sequences that
follow the denominators' own recurrence; the sandwich constant c3 and the
index N0 come from exact integer comparisons of those numerators, and c4
from c1[0], the least c1.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt

from .errors import InputError, NonQuadraticError, PeriodCapError, PrecisionError
from .quadfield import DEFAULT_PRECISION, DyadicInterval, QuadNum, _int_decimal_str, _surd_sign

__all__ = [
    "ContinuedFraction",
    "ConvergentTable",
    "BinetData",
    "expand",
    "convergents",
    "binet_data",
]

PERIOD_CAP = N0_CAP = 10**6  # states expand tries, sandwich indices binet_data tries


@dataclass(frozen=True)
class ContinuedFraction:
    """Eventually periodic expansion [a0; a1, ..., a_{r-1}, overline(period)]."""

    alpha: QuadNum
    a0: int
    preperiod: tuple[int, ...]
    period: tuple[int, ...]
    # memoised denominator table: _a holds a_0, a_1, ... and _q holds the
    # seeds q_{-2} = 1, q_{-1} = 0 followed by q_0, q_1, ...
    _a: list = field(default_factory=list, init=False, repr=False, compare=False)
    _q: list = field(default_factory=lambda: [1, 0], init=False, repr=False, compare=False)

    @property
    def r(self) -> int:
        """Length of the preperiodic block, counting a0."""
        return len(self.preperiod) + 1

    @property
    def s(self) -> int:
        """Minimal period length."""
        return len(self.period)

    def quotient(self, i: int) -> int:
        """Partial quotient a_i for any i >= 0."""
        if i < 0:
            raise InputError("quotient index must be >= 0")
        if i == 0:
            return self.a0
        if i < self.r:
            return self.preperiod[i - 1]
        return self.period[(i - self.r) % self.s]

    def _grow(self, n: int) -> None:
        """Extend the table through index n via q_i = a_i q_{i-1} + q_{i-2}."""
        a, q = self._a, self._q
        while len(a) <= n:
            a.append(self.quotient(len(a)))
            q.append(a[-1] * q[-1] + q[-2])

    def quotients(self, n: int) -> list[int]:
        """The list a_0 .. a_n."""
        self._grow(n)
        return self._a[: max(n + 1, 0)]

    def denominators(self, n: int) -> list[int]:
        """The convergent denominators q_0 .. q_n."""
        self._grow(n)
        return self._q[2 : n + 3]

    def denominators_above(self, x: int) -> list[int]:
        """q_0, q_1, ... through the first denominator that exceeds x."""
        q = self._q
        while q[-1] <= x:
            self._grow(len(self._a))
        return q[2 : bisect_right(q, x, 2) + 1]

    def to_json(self) -> dict:
        return {
            "a0": self.a0,
            "preperiod": list(self.preperiod),
            "period": list(self.period),
        }


def expand(alpha: QuadNum) -> ContinuedFraction:
    """Continued fraction of a quadratic irrational, minimal (r, s)."""
    if alpha.degenerate:
        raise NonQuadraticError("rational input has a finite expansion; need b != 0")
    p, u, den = alpha.coords
    radicand = u * u * alpha.d
    if u > 0:
        P, Q = p, den
    else:
        P, Q = -p, -den
    if (radicand - P * P) % Q:
        P *= abs(Q)
        radicand *= Q * Q
        Q *= abs(Q)
    root_floor = isqrt(radicand)

    def floor_state(P: int, Q: int) -> int:
        if Q > 0:
            return (P + root_floor) // Q
        return -((P + root_floor) // -Q) - 1

    states: dict[tuple[int, int], int] = {}
    quots: list[int] = []
    while True:
        key = (P, Q)
        if key in states:
            f = states[key]
            break
        if len(states) > PERIOD_CAP:
            raise PeriodCapError(f"no period within {PERIOD_CAP} states")
        states[key] = len(quots)
        a = floor_state(P, Q)
        quots.append(a)
        P = a * Q - P
        Q = (radicand - P * P) // Q
    s = len(quots) - f
    if f == 0:
        # purely periodic: rotate so a0 still heads the preperiodic block
        return ContinuedFraction(alpha, quots[0], (), tuple(quots[1:] + quots[:1]))
    return ContinuedFraction(alpha, quots[0], tuple(quots[1:f]), tuple(quots[f:]))


@dataclass(frozen=True)
class ConvergentTable:
    """Denominators q_0 .. q_n of the convergents of a continued fraction."""

    cf: ContinuedFraction
    qs: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.qs)

    def __getitem__(self, i: int) -> int:
        return self.qs[i]

    def to_json(self) -> dict:
        return {"q": [_int_decimal_str(q) for q in self.qs]}


def convergents(cf: ContinuedFraction, n: int) -> ConvergentTable:
    """Table of q_0 .. q_n via q_{i+1} = a_{i+1} q_i + q_{i-1}, q_0 = 1."""
    if n < 0:
        raise InputError("n must be >= 0")
    return ConvergentTable(cf, tuple(cf.denominators(n)))


def period_matrix_trace(cf: ContinuedFraction) -> int:
    """Trace of the ordered product of the period's [[a,1],[1,0]] matrices."""
    m00, m01, m10, m11 = 1, 0, 0, 1
    for a in cf.period:
        m00, m01, m10, m11 = m00 * a + m01, m00, m10 * a + m11, m10
    return m00 + m11


@dataclass(frozen=True)
class BinetData:
    """Closed-form growth data of the convergent denominators.

    ``c3``/``c4`` are certified enclosures of the sandwich constants
    max_j(c1 + |c2|) and min_j(c1)/2; ``N0`` is the first index from which
    the lower half of the sandwich is guaranteed.
    """

    cf: ContinuedFraction
    t_alpha: int
    s: int
    r: int
    disc: int
    delta: int
    theta1: QuadNum
    theta2: QuadNum
    c1: tuple[QuadNum, ...]
    c2: tuple[QuadNum, ...]
    c3: DyadicInterval
    c4: DyadicInterval
    N0: int
    precision_bits: int = DEFAULT_PRECISION

    def subseq_term(self, j: int, i: int) -> int:
        """q_{j+r+s*i}, read from the denominator table of ``cf``."""
        return self.cf.denominators(j + self.r + self.s * i)[-1]

    def to_json(self) -> dict:
        return {
            "t_alpha": _int_decimal_str(self.t_alpha),
            "s": self.s,
            "r": self.r,
            "disc": _int_decimal_str(self.disc),
            "delta": _int_decimal_str(self.delta),
            "theta1": self.theta1.to_json(),
            "theta2": self.theta2.to_json(),
            "c1": [c.to_json() for c in self.c1],
            "c2": [c.to_json() for c in self.c2],
            "c3": self.c3.to_json(),
            "c4": self.c4.to_json(),
            "N0": self.N0,
        }


def binet_data(cf: ContinuedFraction, precision_bits: int = DEFAULT_PRECISION) -> BinetData:
    """Growth root, per-class constants c1/c2 in closed form, and the sandwich data."""
    r, s = cf.r, cf.s
    t = period_matrix_trace(cf)
    unit = -1 if s % 2 else 1
    disc = t * t - 4 * unit
    # theta1 = (t + sqrt(disc))/2 is a unit of Q(alpha), so disc = m^2 d
    d = cf.alpha.d
    m = isqrt(max(disc, 0) // d)
    if m == 0 or m * m * d != disc:
        raise InputError(f"no growth root in Q(sqrt({d})): t={t}, s={s}, disc={disc}")
    theta1 = QuadNum(Fraction(t, 2), Fraction(m, 2), d)
    # c1[j] = (X_j + Y_j sqrt(d))/den and c2[j] = -conj(c1[j]), where
    # X_j = (m/h) d q_{j+r}, Y_j = (2 q_{j+r+s} - t q_{j+r})/h and den = 2 (m/h) d.
    # Both follow q's recurrence in j (a_{n+s} = a_n for n >= r), so each grows
    # from its j = -1, 0 seeds by small-by-big products, and the h taken over
    # m and those two seeds divides every Y_j.
    qs = cf.denominators(r + s)
    ys = [2 * qs[r + s + i] - t * qs[r + i] for i in (-1, 0)]
    h = gcd(m, *ys)
    md = m // h * d
    xs = [md * qs[r - 1], md * qs[r]]
    ys = [y // h for y in ys]
    for a in cf.quotients(r + s - 1)[r + 1 :]:
        xs.append(a * xs[-1] + xs[-2])
        ys.append(a * ys[-1] + ys[-2])
    del xs[0], ys[0]
    den = 2 * md
    c1 = [theta1._make(x, y, den) for x, y in zip(xs, ys)]
    c2 = [-u.conjugate() for u in c1]
    root = isqrt(d << 128)
    # c1 + |c2| = max(c1 + c2, c1 - c2) = max(2 Y sqrt(d), 2 X)/den
    x_max, y_max = max(xs), max(ys)
    if _positive(-x_max, y_max, d, root):
        c3 = theta1._make(0, 2 * y_max, den).enclose(precision_bits)
    else:
        c3 = theta1._make(2 * x_max, 0, den).enclose(precision_bits)
    # min c1 = c1[0]: c1[j+1] - c1[j] = (e_{j+r+s} - theta2 e_{j+r})/(theta1 - theta2)
    # with e_n = q_{n+1} - q_n, and a_i >= 1 for i >= 1 gives e_{n+s} >= e_n > 0 for
    # n >= 1, while |theta2| < 1
    c4 = (c1[0] / 2).enclose(precision_bits)
    n0 = 0 if _sandwich_at_zero(xs, ys, d, root) else _least_sandwich_index(theta1, c1, c2)
    return BinetData(
        cf=cf,
        t_alpha=t,
        s=s,
        r=r,
        disc=disc,
        delta=theta1.d,
        theta1=theta1,
        theta2=theta1.conjugate(),
        c1=tuple(c1),
        c2=tuple(c2),
        c3=c3,
        c4=c4,
        N0=n0,
        precision_bits=precision_bits,
    )


def _positive(a: int, b: int, d: int, root: int) -> bool:
    """a + b*sqrt(d) > 0, given root = isqrt(d << 128).

    sqrt(d) * 2**64 lies strictly inside (root, root + 1), which settles the
    sign unless a + b*sqrt(d) is within |b| * 2**-64 of 0; only then is the
    exact test run.
    """
    lo = (a << 64) + b * root
    hi = lo + b
    if lo > 0 and hi > 0:
        return True
    if lo <= 0 and hi <= 0:
        return False
    return _surd_sign(a, b, d) > 0


def _sandwich_at_zero(xs, ys, d: int, root: int) -> bool:
    """2|c2[j]| < c1[j] for every j: 3 X_j > Y_j sqrt(d) and 3 Y_j sqrt(d) > X_j."""
    return all(_positive(3 * x, -y, d, root) and _positive(-x, 3 * y, d, root) for x, y in zip(xs, ys))


def _least_sandwich_index(theta1: QuadNum, c1, c2) -> int:
    """Smallest i with 2|c2[j]| |theta2|**i < c1[j] theta1**i for every j.

    |theta2| = 1/theta1, so the test is 2|c2[j]| < c1[j] theta1**(2i).
    """
    square = theta1 * theta1
    power = theta1**0
    targets = [(2 * abs(v), u) for u, v in zip(c1, c2)]
    i = 0
    while True:
        if all((u * power - w).sign() > 0 for w, u in targets):
            return i
        i += 1
        if i > N0_CAP:
            raise PrecisionError(f"sandwich index not found within {N0_CAP} steps")
        power = power * square
