"""Independent arithmetic that the benchmark checks cfpow's outputs against.

Nothing here imports cfpow: each function recomputes a quantity from its
textbook definition, so a defect in the library cannot hide in its own
cross-check.
"""

from __future__ import annotations

import math
from math import isqrt


def quotients(p: int, q: int, r: int, d: int, n: int) -> list[int]:
    """Partial quotients a_0 .. a_n of (p + q*sqrt(d))/r, d not a square.

    Runs the complete-quotient recurrence on (P + sqrt(D))/Q with Q | D - P^2.
    """
    if q < 0:
        p, q, r = -p, -q, -r
    D, P, Q = q * q * d, p, r
    if (D - P * P) % Q:
        P, D, Q = P * abs(Q), D * Q * Q, Q * abs(Q)
    root = isqrt(D)
    out = []
    for _ in range(n + 1):
        a = (P + root) // Q if Q > 0 else -((P + root) // -Q) - 1
        out.append(a)
        P = a * Q - P
        Q = (D - P * P) // Q
    return out


def denominators(quots: list[int]) -> list[int]:
    """q_0 .. q_n from a_0 .. a_n by q_{i+1} = a_{i+1} q_i + q_{i-1}, q_0 = 1."""
    qs, prev = [1], 0
    for a in quots[1:]:
        qs.append(a * qs[-1] + prev)
        prev = qs[-2]
    return qs


def sqrt_period(d: int, cap: int) -> tuple[int, list[int]] | None:
    """(a_0, period) of sqrt(d), or None when the period exceeds ``cap``.

    The period of sqrt(d) is the block that ends with the first a_i = 2 a_0.
    """
    a0 = isqrt(d)
    if a0 * a0 == d:
        return None
    m, q, a = 0, 1, a0
    period = []
    while len(period) < cap:
        m = a * q - m
        q = (d - m * m) // q
        a = (a0 + m) // q
        period.append(a)
        if a == 2 * a0:
            return a0, period
    return None


def period_trace(period: list[int]) -> int:
    """Trace of the product of [[a, 1], [1, 0]] over the period."""
    m00, m01, m10, m11 = 1, 0, 0, 1
    for a in period:
        m00, m01, m10, m11 = m00 * a + m01, m00, m10 * a + m11, m10
    return m00 + m11


def squarefree_part(d: int) -> int:
    """Squarefree kernel of a small positive d, by trial division."""
    f, p = 1, 2
    while p * p <= d:
        e = 0
        while d % p == 0:
            d //= p
            e += 1
        if e % 2:
            f *= p
        p += 1
    return f * d


def zeckendorf_weight(y: int) -> int:
    """Number of summands in the greedy Fibonacci representation of y >= 1."""
    fibs = [1, 2]
    while fibs[-1] <= y:
        fibs.append(fibs[-1] + fibs[-2])
    count = 0
    for f in reversed(fibs):
        if f <= y:
            y -= f
            count += 1
    return count


def radix_weight(y: int, b: int) -> int:
    """Number of nonzero base-b digits of y."""
    count = 0
    while y:
        y, digit = divmod(y, b)
        count += digit != 0
    return count


def fibonacci(t: int) -> int:
    a, b = 0, 1
    for _ in range(t):
        a, b = b, a + b
    return a


def log_power_below(y: int, a: int, bound: float) -> bool:
    """True when a*log(y) is certainly below ``bound``; False if undecided.

    A relative margin of 1e-9 covers the float rounding of log and of the
    product many times over.
    """
    return a * math.log(y) * (1 + 1e-9) < bound
