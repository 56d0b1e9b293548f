"""Exhaustive search for perfect powers among sums of convergent denominators."""

import dataclasses
import time
from fractions import Fraction
from itertools import combinations_with_replacement
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfpow.bounds import theorem_y_bound
from cfpow.cfrac import convergents, expand
from cfpow.errors import BudgetExceededError, InputError
from cfpow.quadfield import DyadicInterval, make_quadnum
from cfpow.search import (
    _ExponentSieve,
    SearchRange,
    Solution,
    enumerate_solutions,
    filter_by_weight,
    power_splits,
    verify_bounds,
)
from oracles import is_perfect_power, midpoint

GOLDEN_40_5_K2 = [
    (2, 2, (2, 2), 4),
    (2, 2, (3, 0), 4),
    (2, 2, (3, 1), 4),
    (2, 3, (4, 3), 8),
    (3, 2, (5, 0), 9),
    (3, 2, (5, 1), 9),
    (4, 2, (5, 5), 16),
    (2, 4, (5, 5), 16),
    (4, 2, (6, 3), 16),
    (2, 4, (6, 3), 16),
    (6, 2, (8, 2), 36),
    (12, 2, (10, 9), 144),
    (10, 3, (15, 6), 1000),
    (40, 2, (16, 3), 1600),
    (3864, 2, (35, 11), 14930496),
]


@pytest.fixture(scope="module")
def golden_cf_local():
    return expand(make_quadnum(Fraction(1, 2), Fraction(1, 2), 5))


# ----- oracle: one integer root per exponent, no sieve -----


def _oracle_nthroot(n, k):
    """floor(n^(1/k)) by integer Newton iteration from an upper seed."""
    if k == 1 or n < 2:
        return n
    if k == 2:
        return isqrt(n)
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def oracle_power_splits(n, a_max=None):
    """Every (y, a) with y^a = n and 2 <= a (<= a_max), ascending in a."""
    if n < 4:
        return ()
    top = n.bit_length()
    if a_max is not None:
        top = min(top, a_max)
    out = []
    for a in range(2, top + 1):
        y = _oracle_nthroot(n, a)
        if y >= 2 and y**a == n:
            out.append((y, a))
    return tuple(out)


def oracle_enumerate(cf, rng):
    """(y, a, N, value) over every weakly decreasing tuple, search order."""
    qs = convergents(cf, rng.N_max).qs
    tuples = sorted(c[::-1] for c in combinations_with_replacement(range(rng.N_max + 1), rng.K))
    out = []
    for N in tuples:
        total = sum(qs[i] for i in N)
        out.extend((y, a, N, total) for y, a in oracle_power_splits(total, rng.a_max))
    return out


def _rows(sols):
    return [(s.y, s.a, s.N, s.value) for s in sols]


A_MAXES = st.one_of(st.none(), st.integers(min_value=1, max_value=12), st.just(10**6))


# ----- perfect-power detection -----


def test_is_perfect_power_examples():
    assert is_perfect_power(64) == (2, 6)
    assert is_perfect_power(144) == (12, 2)
    assert is_perfect_power(14930496) == (3864, 2)
    assert is_perfect_power(12) is None
    for n in (0, 1, 2, 3):
        assert is_perfect_power(n) is None


def test_power_splits_enumerates_all_exponents():
    assert power_splits(4096) == ((64, 2), (16, 3), (8, 4), (4, 6), (2, 12))
    assert power_splits(64, a_max=3) == ((8, 2), (4, 3))
    assert power_splits(12) == ()


@settings(max_examples=150)
@given(st.integers(min_value=2, max_value=300), st.integers(min_value=2, max_value=7))
def test_perfect_powers_are_recognized(y, a):
    n = y**a
    found = is_perfect_power(n)
    assert found is not None
    y0, a0 = found
    assert y0**a0 == n
    assert a0 % a == 0  # maximal exponent refines every factorization
    assert (y, a) in power_splits(n)


@given(st.integers(min_value=4, max_value=10**6))
def test_power_splits_are_exact(n):
    for y, a in power_splits(n):
        assert a >= 2 and y >= 2
        assert y**a == n


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=2, max_value=3000),
    st.integers(min_value=2, max_value=36),
    st.integers(min_value=-1, max_value=1),
    A_MAXES,
)
def test_power_splits_match_oracle_near_powers(y, a, shift, a_max):
    n = y**a + shift
    assert power_splits(n, a_max) == oracle_power_splits(n, a_max)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**400), A_MAXES)
def test_power_splits_match_oracle_on_random_values(n, a_max):
    assert power_splits(n, a_max) == oracle_power_splits(n, a_max)


@pytest.mark.parametrize("cap", [2, 3, 9, 30])
def test_sieve_rejects_only_proven_non_powers(cap):
    sieve = _ExponentSieve(cap)
    assert sieve.primes == [p for p in range(2, cap + 1) if all(p % d for d in range(2, p))]
    for m, table in sieve.tables:
        for i, p in enumerate(sieve.primes):
            residues = {pow(x, p, m) for x in range(m)}
            assert all(table[r] >> i & 1 for r in residues), (m, p)
    # every prime exponent is tested modulo something
    assert all(
        any(not table[r] >> i & 1 for m, table in sieve.tables for r in range(m))
        for i in range(len(sieve.primes))
    )


# ----- solution and range containers -----


def test_solution_validation():
    Solution(2, 2, (1, 1), 4)
    with pytest.raises(InputError):
        Solution(1, 2, (1,), 1)
    with pytest.raises(InputError):
        Solution(2, 1, (1,), 2)
    with pytest.raises(InputError):
        Solution(2, 2, (1,), 5)  # value mismatch
    with pytest.raises(InputError):
        Solution(2, 2, (), 4)
    with pytest.raises(InputError):
        Solution(2, 2, (1, 2), 4)  # increasing indices
    with pytest.raises(InputError):
        Solution(2, 2, (-1,), 4)
    for N in [(1.5, 1), (1, 1.0), ("1", "1"), (True,)]:  # indices that are not ints
        with pytest.raises(InputError):
            Solution(2, 2, N, 4)


def test_solution_json():
    sol = Solution(3864, 2, (35, 11), 14930496)
    assert sol.to_json() == {
        "y": "3864",
        "a": 2,
        "N": [35, 11],
        "value": "14930496",
    }


def test_search_range_validation():
    with pytest.raises(InputError):
        SearchRange(0, 2, 1)
    with pytest.raises(InputError):
        SearchRange(10, 0, 1)
    with pytest.raises(InputError):
        SearchRange(10, 2, 0)


# ----- enumeration -----


def test_enumerate_golden_known_table(golden_cf_local):
    sols = enumerate_solutions(golden_cf_local, SearchRange(40, 5, 2))
    assert [(s.y, s.a, s.N, s.value) for s in sols] == GOLDEN_40_5_K2


def test_enumerate_root2_small(golden_cf_local):
    root2 = expand(make_quadnum(0, 1, 2))
    sols = enumerate_solutions(root2, SearchRange(30, 4, 2))
    assert [(s.y, s.a, s.N) for s in sols] == [(2, 2, (1, 1))]


def test_enumerate_matches_independent_double_loop(golden_cf_local):
    """Cross-check the tuple walk against a direct nested enumeration."""
    qs = list(convergents(golden_cf_local, 12))
    expected = set()
    for n1 in range(13):
        for n2 in range(n1 + 1):
            total = qs[n1] + qs[n2]
            for a in (2, 3):
                root = round(total ** (1 / a))
                for y in (root - 1, root, root + 1):
                    if y >= 2 and y**a == total:
                        expected.add((y, a, (n1, n2)))
    sols = enumerate_solutions(golden_cf_local, SearchRange(12, 3, 2))
    assert {(s.y, s.a, s.N) for s in sols} == expected
    assert len(sols) == 10


def test_enumerate_k1_fibonacci_powers(golden_cf_local):
    sols = enumerate_solutions(golden_cf_local, SearchRange(30, 6, 1))
    assert {(s.y, s.a, s.N[0]) for s in sols} == {(2, 3, 5), (12, 2, 11)}


def test_enumerate_threads_match_serial(golden_cf_local):
    serial = enumerate_solutions(golden_cf_local, SearchRange(25, 4, 2))
    parallel = enumerate_solutions(golden_cf_local, SearchRange(25, 4, 2), threads=3)
    assert serial == parallel


def test_enumerate_is_deterministic(golden_cf_local):
    one = enumerate_solutions(golden_cf_local, SearchRange(20, 4, 3))
    two = enumerate_solutions(golden_cf_local, SearchRange(20, 4, 3))
    assert one == two


@pytest.mark.parametrize(
    "alpha, shape",
    [
        ((Fraction(1, 2), Fraction(1, 2), 5), (25, 8, 2)),
        ((0, 1, 3), (12, 6, 3)),
        ((Fraction(6, 17), Fraction(-1, 17), 2), (60, 40, 1)),
        ((0, 1, 2), (8, 5, 4)),
    ],
)
def test_serial_threaded_and_budgeted_runs_match_oracle(alpha, shape):
    cf = expand(make_quadnum(*alpha))
    rng = SearchRange(*shape)
    expected = oracle_enumerate(cf, rng)
    assert _rows(enumerate_solutions(cf, rng)) == expected
    assert _rows(enumerate_solutions(cf, rng, threads=2)) == expected
    assert _rows(enumerate_solutions(cf, rng, budget=10**6)) == expected
    # a budget that stops mid-range keeps whole partitions, in order
    half = rng.N_max // 2
    cost = sum(len(list(combinations_with_replacement(range(n1 + 1), rng.K - 1))) for n1 in range(half + 1))
    with pytest.raises(BudgetExceededError) as err:
        enumerate_solutions(cf, rng, threads=2, budget=cost)
    assert err.value.completed == tuple(range(half + 1))
    assert _rows(err.value.partial) == [row for row in expected if row[2][0] <= half]


def test_huge_a_max_is_capped_by_bit_length(golden_cf_local):
    # sums stay below 2^16, so only the primes up to 13 can split them
    start = time.perf_counter()
    sols = enumerate_solutions(golden_cf_local, SearchRange(20, 10**6, 2))
    assert time.perf_counter() - start < 1.0
    assert _rows(sols) == oracle_enumerate(golden_cf_local, SearchRange(20, 10**6, 2))
    assert _rows(sols) == _rows(enumerate_solutions(golden_cf_local, SearchRange(20, 16, 2)))


def test_enumerate_rejects_bad_threads(golden_cf_local):
    with pytest.raises(InputError):
        enumerate_solutions(golden_cf_local, SearchRange(5, 2, 1), threads=0)


def test_budget_stops_at_a_partition_frontier(golden_cf_local):
    # leading-index slices cost C(N1+K-1, K-1) tuples; 100 covers N1 <= 12
    with pytest.raises(BudgetExceededError) as err:
        enumerate_solutions(golden_cf_local, SearchRange(20, 3, 2), budget=100)
    exc = err.value
    assert exc.completed == tuple(range(13))
    full = enumerate_solutions(golden_cf_local, SearchRange(12, 3, 2))
    assert set(exc.partial) == set(full)


def test_zero_budget_stops_before_the_first_partition(golden_cf_local):
    with pytest.raises(BudgetExceededError) as err:
        enumerate_solutions(golden_cf_local, SearchRange(5, 3, 2), budget=0)
    assert err.value.completed == ()
    assert err.value.partial == ()


def test_negative_budget_is_rejected(golden_cf_local):
    with pytest.raises(InputError):
        enumerate_solutions(golden_cf_local, SearchRange(5, 3, 2), budget=-1)


def test_budget_large_enough_completes(golden_cf_local):
    sols = enumerate_solutions(golden_cf_local, SearchRange(12, 3, 2), budget=10**6)
    assert len(sols) == 10


# ----- weight filtering -----


def test_filter_by_weight_zeckendorf(golden_cf_local):
    sols = enumerate_solutions(golden_cf_local, SearchRange(40, 5, 2))
    big = next(s for s in sols if s.y == 3864)
    assert big in filter_by_weight(sols, "zeckendorf", 5)
    assert big not in filter_by_weight(sols, "zeckendorf", 4)
    ones = filter_by_weight(sols, "zeckendorf", 1)
    assert {s.y for s in ones} == {2, 3}  # 2 = F_3, 3 = F_4


def test_filter_by_weight_radix(golden_cf_local):
    sols = enumerate_solutions(golden_cf_local, SearchRange(40, 5, 2))
    kept = filter_by_weight(sols, "radix", 2, b=10)
    assert {s.y for s in kept} == {2, 3, 4, 6, 12, 10, 40}
    assert all(s.y != 3864 for s in kept)


def test_filter_by_weight_validation(golden_cf_local):
    sols = enumerate_solutions(golden_cf_local, SearchRange(10, 2, 1))
    with pytest.raises(InputError):
        filter_by_weight(sols, "radix", 2)
    with pytest.raises(InputError):
        filter_by_weight(sols, "zeckendorf", 0)
    with pytest.raises(InputError):
        filter_by_weight(sols, "binary", 2)


# ----- bound verification -----


def test_verify_bounds_accepts_true_bounds(golden_cf_local):
    from cfpow.cfrac import binet_data

    bd = binet_data(golden_cf_local)
    sols = enumerate_solutions(golden_cf_local, SearchRange(40, 5, 2))
    for sol in sols:
        rep = theorem_y_bound(bd, 2, sol.y)
        assert verify_bounds([sol], rep, bd)


def test_verify_bounds_rejects_shrunk_report(golden_cf_local):
    from cfpow.cfrac import binet_data

    bd = binet_data(golden_cf_local)
    sols = enumerate_solutions(golden_cf_local, SearchRange(40, 5, 2))
    rep = theorem_y_bound(bd, 2, 3864)
    zero = DyadicInterval.from_int(0)
    shrunk = dataclasses.replace(
        rep, n1_bound=zero, a_bound=zero, log_ya_bound=zero, case="below_N0"
    )
    assert not verify_bounds(sols, shrunk, bd)


def test_verify_bounds_escalates_to_4096_bits_then_fails(golden_cf_local):
    from cfpow.cfrac import binet_data

    bd = binet_data(golden_cf_local)
    sol = Solution(2, 2, (3, 0), 4)  # q_3 + q_0 = 3 + 1
    rep = theorem_y_bound(bd, 2, 2)
    at_4096 = DyadicInterval.from_int(2, 4096).log() * DyadicInterval.from_int(2, 4096)
    reached = dataclasses.replace(rep, log_ya_bound=DyadicInterval(at_4096.hi, at_4096.hi))
    assert verify_bounds([sol], reached, bd)
    inside = midpoint(DyadicInterval.from_int(2, 8192).log() * 2)
    undecided = dataclasses.replace(rep, log_ya_bound=DyadicInterval(inside, inside))
    assert not verify_bounds([sol], undecided, bd)


def test_verify_bounds_rejects_what_is_not_a_solution_over_the_field(root2_bd):
    report = theorem_y_bound(root2_bd, 1, 2)
    with pytest.raises(InputError):
        verify_bounds([Solution(2, 2, (0,), 4)], report, root2_bd)  # q_0 = 1, not 4
    with pytest.raises(InputError):
        verify_bounds([Solution(2, 2, (1, 1), 4)], report, root2_bd)  # two summands, K = 1
    with pytest.raises(InputError):
        verify_bounds([Solution(2, 2, (1.5, 1), 4)], report, root2_bd)  # Solution refuses the float
    with pytest.raises(InputError):
        verify_bounds([Solution(2, 2, (60,), 4)], report, root2_bd)  # q_60 far above 4
    # the same sum is a solution against a K = 2 report
    assert verify_bounds([Solution(2, 2, (1, 1), 4)], theorem_y_bound(root2_bd, 2, 2), root2_bd)
