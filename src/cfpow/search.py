"""Desk-scale exhaustive search for perfect powers among K-term sums of
convergent denominators, plus the empirical cross-check of bound reports.

The tuple space is every weakly decreasing K-tuple (N_1, ..., N_K) with
N_1 <= N_max, walked in ascending lexicographic order with the sum carried
along.  Each sum is tested for every exponent split y^a with
2 <= a <= a_max, not just the maximal exponent, so one tuple can yield
several solutions (16 = 4^2 = 2^4).

Only prime exponents are tested, up to a_max and the bit length of the
largest sum (Bernstein, "Detecting perfect powers in essentially linear
time", Math. Comp. 67, 1998).  A sum first meets residue tables: modulo
64, 63, 65 and 11 for squares and modulo small primes l = 1 (mod p) for
odd p (Cohen, GTM 138, section 1.7), each entry the bitmask of primes p
for which the residue can still be a p-th power.  Most sums leave no bit
set and cost a few small-int operations.  Every surviving p gets an exact
integer root, which yields n = z^e with e maximal, and the splits are
(z^(e/a), a) for each a dividing e.  The tables only rule out what
provably is not a power, so the result is that of one root per exponent.

Partitions by N_1 are independent, which is what the process pool
exploits; the merge concatenates partitions in N_1 order, so output order
never depends on the worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt

from .bounds import BoundReport
from .cfrac import BinetData, ContinuedFraction, convergents
from .errors import BudgetExceededError, InputError, PrecisionError
from .linforms import escalate
from .numeration import radix_encode, zeckendorf_encode
from .quadfield import DyadicInterval, _int_decimal_str, _int_nthroot

__all__ = [
    "Solution",
    "SearchRange",
    "power_splits",
    "enumerate_solutions",
    "filter_by_weight",
    "verify_bounds",
]


@dataclass(frozen=True)
class Solution:
    """One representation y^a = q_{N_1} + ... + q_{N_K}."""

    y: int
    a: int
    N: tuple[int, ...]
    value: int

    def __post_init__(self):
        if self.y < 2 or self.a < 2:
            raise InputError("solutions need y >= 2 and a >= 2")
        # y^a >= 2^(a (bit length of y - 1)): refuse a value that is too short
        # before computing a power whose size only the exponent bounds
        if self.a * (self.y.bit_length() - 1) >= self.value.bit_length() or self.y**self.a != self.value:
            raise InputError("value disagrees with y^a")
        if any(type(i) is not int for i in self.N):
            raise InputError("indices must be integers")
        if not self.N or self.N[-1] < 0:
            raise InputError("indices must be non-negative and non-empty")
        if any(self.N[i] < self.N[i + 1] for i in range(len(self.N) - 1)):
            raise InputError("indices must be weakly decreasing")

    def to_json(self) -> dict:
        return {
            "y": _int_decimal_str(self.y),
            "a": self.a,
            "N": list(self.N),
            "value": _int_decimal_str(self.value),
        }


@dataclass(frozen=True)
class SearchRange:
    N_max: int
    a_max: int
    K: int

    def __post_init__(self):
        if self.N_max < 1 or self.a_max < 1 or self.K < 1:
            raise InputError("search range parameters must be positive")


# Moduli with few square residues (Cohen, GTM 138, section 1.7.2).  An odd
# prime p gets primes l = 1 (mod p) instead: mod such an l, a non-p-th
# power passes with probability about 1/p, so p takes moduli until a
# non-p-th power passes all of them with probability below 1/_REJECT.
_SQUARE_MODULI = (64, 63, 65, 11)
_REJECT = 1024


def _primes_upto(n: int) -> list[int]:
    if n < 2:
        return []
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p in range(n + 1) if flags[p]]


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def _moduli(p: int) -> list[int]:
    if p == 2:
        return list(_SQUARE_MODULI)
    found = []
    ell = 1
    while p ** len(found) < _REJECT:
        ell += 2 * p
        if _is_prime(ell):
            found.append(ell)
    return found


def _primitive_root(ell: int) -> int:
    """The least generator of the units modulo the prime ell."""
    divisors = [q for q in _primes_upto(ell - 1) if (ell - 1) % q == 0]
    return next(g for g in range(2, ell) if all(pow(g, (ell - 1) // q, ell) != 1 for q in divisors))


def _residue_table(m: int, users, full: int) -> list[int]:
    """Entry r: ``full`` minus the bit of each (p, bit) in ``users`` for
    which r is not a p-th power residue mod m."""
    table = [full & ~sum(bit for _, bit in users)] * m
    if _is_prime(m):
        # every p here divides m - 1, and g^j is a p-th power iff p | j
        g = _primitive_root(m)
        powers = [1] * (m - 1)
        for j in range(1, m - 1):
            powers[j] = powers[j - 1] * g % m
        table[0] = full
        for p, bit in users:
            for r in powers[::p]:
                table[r] |= bit
    else:
        for p, bit in users:
            for r in {pow(x, p, m) for x in range(m)}:
                table[r] |= bit
    return table


class _ExponentSieve:
    """The prime exponents up to a cap, and residue tables that rule them out.

    ``tables`` holds (m, table) pairs.  Bit i of ``table[r]`` is clear only
    when no integer congruent to r mod m is a ``primes[i]``-th power, so
    the AND of the entries for n's residues keeps every prime p for which
    n is a p-th power.  A modulus tests the primes that listed it, and a
    prime modulus l also every prime dividing l - 1; the tables are sorted
    most selective first, so a non-power is usually out after a few.
    """

    def __init__(self, cap: int):
        self.primes = _primes_upto(cap)
        self.full = (1 << len(self.primes)) - 1
        users: dict[int, set[int]] = {}
        for i, p in enumerate(self.primes):
            for m in _moduli(p):
                users.setdefault(m, set()).add(i)
        self.tables = []
        for m, indices in users.items():
            if _is_prime(m):
                indices.update(i for i, p in enumerate(self.primes) if (m - 1) % p == 0)
            pairs = [(self.primes[i], 1 << i) for i in indices]
            self.tables.append((m, _residue_table(m, pairs, self.full)))
        self.tables.sort(key=lambda mt: sum(map(int.bit_count, mt[1])) / mt[0])

    def survivors(self, mask: int) -> list[int]:
        return [p for i, p in enumerate(self.primes) if mask >> i & 1]


def _splits(n: int, primes, a_max: int | None) -> tuple[tuple[int, int], ...]:
    """Every (y, a) with y^a = n and 2 <= a (<= a_max), ascending in a.

    ``primes`` (ascending) must contain every prime p <= a_max for which n
    is a p-th power.  Exact roots over them give n = z^e with e maximal
    among such products, and the splits are (z^(e/a), a) for a dividing e.
    """
    z, e = n, 1
    for p in primes:
        while p < z.bit_length():  # z >= 2^p, so a p-th root >= 2 may exist
            y = _int_nthroot(z, p)
            if y**p != z:
                break
            z, e = y, e * p
    top = e if a_max is None else min(e, a_max)
    return tuple((z ** (e // a), a) for a in range(2, top + 1) if e % a == 0)


def power_splits(n: int, a_max: int | None = None) -> tuple[tuple[int, int], ...]:
    """Every (y, a) with y^a = n and 2 <= a (<= a_max), ascending in a."""
    if n < 4:
        return ()
    cap = n.bit_length() if a_max is None else min(a_max, n.bit_length())
    return _splits(n, _primes_upto(cap), cap)


def _tails(qs, bound: int, k: int, total: int, prefix: tuple[int, ...]):
    """(sum, indices) for prefix extended by every weakly decreasing k-tuple
    over [0, bound], ascending lexicographic; ``total`` is prefix's sum."""
    if k == 0:
        yield total, prefix
        return
    for i in range(bound + 1):
        yield from _tails(qs, i, k - 1, total + qs[i], (*prefix, i))


class _Kernel:
    """What every partition of one search range shares: q's and the sieve."""

    def __init__(self, qs, K: int, a_max: int):
        self.qs, self.K, self.a_max = qs, K, a_max
        # no exponent above the bit length of the largest sum can split it
        self.sieve = _ExponentSieve(min(a_max, (K * max(qs)).bit_length()))

    def partition(self, n1: int) -> list[Solution]:
        """Solutions whose leading index is n1, in search order."""
        qs, sieve = self.qs, self.sieve
        tables, full = sieve.tables, sieve.full
        found: list[Solution] = []
        if not full:
            return found
        # _tails walks all indices but the last; the last is the hot loop,
        # where a tuple the tables reject costs no tuple and no yield
        stems = _tails(qs, n1, self.K - 2, qs[n1], (n1,)) if self.K > 1 else [(0, ())]
        for base, stem in stems:
            for i in range(stem[-1] + 1) if stem else (n1,):
                total = base + qs[i]
                mask = full
                for m, table in tables:
                    mask &= table[total % m]
                    if not mask:
                        break
                else:
                    for y, a in _splits(total, sieve.survivors(mask), self.a_max):
                        found.append(Solution(y, a, (*stem, i), total))
        return found


_worker_kernel: _Kernel | None = None


def _init_worker(qs, K: int, a_max: int) -> None:
    global _worker_kernel
    _worker_kernel = _Kernel(qs, K, a_max)


def _worker_partition(n1: int) -> list[Solution]:
    return _worker_kernel.partition(n1)


def enumerate_solutions(
    cf: ContinuedFraction,
    rng: SearchRange,
    threads: int = 1,
    budget: int | None = None,
) -> tuple[Solution, ...]:
    """All solutions in the range, ordered by N lexicographic then a.

    ``budget`` caps the number of K-tuples examined.  Accounting is at
    partition granularity and forces the serial path (cross-process
    counters would make the stopping point racy): a partition that does
    not fit raises ``BudgetExceededError`` carrying the solutions and N_1
    values of every partition already finished.
    """
    if threads < 1:
        raise InputError("thread count must be >= 1")
    if budget is not None and budget < 0:
        raise InputError("tuple budget must be >= 0")
    qs = convergents(cf, rng.N_max).qs
    leads = range(rng.N_max + 1)
    if threads > 1 and budget is None:
        # workers receive the q table once, not with every partition
        with ProcessPoolExecutor(
            max_workers=threads, initializer=_init_worker, initargs=(qs, rng.K, rng.a_max)
        ) as pool:
            chunks = list(pool.map(_worker_partition, leads, chunksize=8))
        return tuple(sol for chunk in chunks for sol in chunk)
    kernel = _Kernel(qs, rng.K, rng.a_max)
    used = 0
    out: list[Solution] = []
    for n1 in leads:
        if budget is not None:
            used += comb(n1 + rng.K - 1, rng.K - 1)
            if used > budget:
                raise BudgetExceededError(
                    "tuple budget %d exhausted before N1 = %d" % (budget, n1),
                    partial=out,
                    completed=range(n1),
                )
        out.extend(kernel.partition(n1))
    return tuple(out)


def filter_by_weight(
    solutions,
    variant: str,
    ell: int,
    b: int | None = None,
) -> tuple[Solution, ...]:
    """Keep solutions whose y uses at most ell nonzero digits.

    "zeckendorf" counts Fibonacci summands; "radix" counts nonzero base-b
    digits and needs ``b``.
    """
    if ell < 1:
        raise InputError("weight threshold must be >= 1")
    if variant == "zeckendorf":
        weight = lambda y: len(zeckendorf_encode(y).indices)
    elif variant == "radix":
        if b is None or b < 2:
            raise InputError("radix weight needs a base b >= 2")
        weight = lambda y: len(radix_encode(y, b).digits)
    else:
        raise InputError("variant must be zeckendorf or radix")
    return tuple(sol for sol in solutions if weight(sol.y) <= ell)


def verify_bounds(solutions, report: BoundReport, bd: BinetData) -> bool:
    """True iff every solution sits under the report's three bounds.

    Each solution must have value = q_{N_1} + ... + q_{N_k} over ``bd.cf``
    and k <= K, the report's largest ``per_k`` key (1 when there is none);
    anything else raises "invalid-input".  The caller must pair the report
    with the same expansion.  Comparisons use the upper endpoints; log(y^a)
    is certified by enclosure, escalating precision when an enclosure
    straddles the bound, and counts as a failure if 4096 bits cannot
    separate them.
    """
    solutions = tuple(solutions)
    K = max((k for k, _ in report.per_k), default=1)
    for sol in solutions:
        if len(sol.N) > K:
            raise InputError(f"solution {list(sol.N)} has more than K = {K} summands")
        # q grows with the index, so the table through the first q > value
        # holds every index a correct solution can use
        qs = bd.cf.denominators_above(sol.value)
        if sol.N[0] >= len(qs) or sum(qs[i] for i in sol.N) != sol.value:
            raise InputError(f"value {sol.value} is not the sum of q_N over N = {list(sol.N)}")
    for sol in solutions:
        n1 = (sol.N[0] - bd.r) // bd.s if sol.N[0] >= bd.r else 0
        if report.n1_bound.definitely_lt(n1) or report.a_bound.definitely_lt(sol.a):
            return False
        try:
            if not escalate(lambda bits: _log_power_below(sol, report.log_ya_bound.hi, bits), what="log(y^a)"):
                return False
        except PrecisionError:
            return False
    return True


def _log_power_below(sol: Solution, bound: Fraction, bits: int) -> bool | None:
    """Whether a log(y) <= bound, certified at ``bits``; None if undecided."""
    log_ya = DyadicInterval.from_int(sol.y, bits).log() * DyadicInterval.from_int(sol.a, bits)
    if log_ya.definitely_le(bound):
        return True
    if log_ya.definitely_gt(bound):
        return False
    return None
