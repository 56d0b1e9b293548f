"""Ostrowski, Zeckendorf and radix digit systems plus the sum partitioner."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfpow.cfrac import convergents, expand
from cfpow import numeration
from cfpow.errors import InputError, PrecisionError, ToolkitError
from cfpow.numeration import (
    OstrowskiRep,
    RadixRep,
    ZeckendorfRep,
    fibonacci,
    ostrowski_decode,
    ostrowski_encode,
    ostrowski_validate,
    radix_encode,
    zeckendorf_encode,
)
from cfpow.quadfield import make_quadnum
from oracles import fib_bounds_check, partition_sum, radix_decode, zeckendorf_canonicalize, zeckendorf_decode


@pytest.fixture(scope="module")
def mixed_cf():
    # (6 - sqrt(2))/17 = [0; 3, 1, overline(2)], denominators 1, 3, 4, 11, ...
    return expand(make_quadnum(Fraction(6, 17), Fraction(-1, 17), 2))


# ----- Fibonacci numbers -----


def test_fibonacci_values():
    assert fibonacci(0) == 0
    assert fibonacci(1) == 1
    assert fibonacci(12) == 144
    assert fibonacci(36) == 14930352
    assert [fibonacci(t) for t in range(8)] == [0, 1, 1, 2, 3, 5, 8, 13]


def test_fibonacci_rejects_negative():
    with pytest.raises(InputError):
        fibonacci(-1)


def test_fib_bounds_check_certifies_growth():
    assert all(fib_bounds_check(t) for t in range(1, 120))


# ----- Zeckendorf -----


def test_zeckendorf_examples():
    assert zeckendorf_encode(100).indices == (11, 6, 4)
    assert zeckendorf_encode(1).indices == (2,)
    assert zeckendorf_encode(10).indices == (6, 3)
    assert zeckendorf_encode(14930496).indices == (36, 12)


def test_zeckendorf_rejects_nonpositive():
    with pytest.raises(InputError):
        zeckendorf_encode(0)


@given(st.integers(min_value=1, max_value=10**6))
def test_zeckendorf_round_trip_and_gap(y):
    rep = zeckendorf_encode(y)
    assert zeckendorf_decode(rep) == y
    assert all(i >= 2 for i in rep.indices)
    # no two consecutive Fibonacci indices
    assert all(a - b >= 2 for a, b in zip(rep.indices, rep.indices[1:]))


def test_zeckendorf_canonicalize():
    assert zeckendorf_canonicalize((3, 3)).indices == (4, 2)
    assert zeckendorf_canonicalize((2, 1)).indices == (3,)
    assert zeckendorf_canonicalize((13, 5)).indices == (13, 5)
    assert zeckendorf_canonicalize((1,)).indices == (2,)  # F_1 = 1 = F_2
    with pytest.raises(InputError):
        zeckendorf_canonicalize(())


def test_zeckendorf_canonicalize_rejects_zero_index():
    with pytest.raises(InputError):
        zeckendorf_canonicalize((3, 0))


# ----- radix -----


def test_radix_examples():
    rep = radix_encode(2024, 10)
    assert (rep.base, rep.positions, rep.digits) == (10, (3, 1, 0), (2, 2, 4))
    rep = radix_encode(8, 2)
    assert (rep.positions, rep.digits) == ((3,), (1,))
    rep = radix_encode(255, 16)
    assert (rep.positions, rep.digits) == ((1, 0), (15, 15))


def test_radix_rejects_bad_input():
    with pytest.raises(InputError):
        radix_encode(0, 10)
    with pytest.raises(InputError):
        radix_encode(5, 1)


@given(st.integers(min_value=1, max_value=10**9), st.sampled_from([2, 3, 10, 16]))
def test_radix_round_trip(y, b):
    rep = radix_encode(y, b)
    assert radix_decode(rep) == y
    assert all(0 < d < b for d in rep.digits)
    assert list(rep.positions) == sorted(rep.positions, reverse=True)


# ----- Ostrowski -----


def test_ostrowski_worked_example(mixed_cf):
    # 6 = 2*q_0 + 0*q_1 + 1*q_2 over denominators 1, 3, 4
    rep = ostrowski_encode(6, mixed_cf)
    assert rep.digits == (2, 0, 1)
    assert ostrowski_decode(rep, mixed_cf) == 6
    assert ostrowski_validate(rep, mixed_cf)


def test_ostrowski_rejects_noncanonical_forms(mixed_cf):
    # 6 = 2*q_1 is a sum of denominators but not the canonical digit vector
    assert not ostrowski_validate(OstrowskiRep((0, 2)), mixed_cf)
    # digit at position 0 must stay below a_1 = 3
    assert not ostrowski_validate(OstrowskiRep((3,)), mixed_cf)
    # equality at position i requires a zero below it
    assert ostrowski_validate(OstrowskiRep((0, 1)), mixed_cf)
    assert not ostrowski_validate(OstrowskiRep((1, 1)), mixed_cf)


@pytest.mark.parametrize("side", ["_digit_conditions", "_partial_sums_bounded"])
def test_ostrowski_characterisations_must_agree(mixed_cf, monkeypatch, side):
    # the two characterisations are cross-checked by an explicit error,
    # which survives python -O where an assert would not
    original = getattr(numeration, side)
    monkeypatch.setattr(numeration, side, lambda *args: not original(*args))
    with pytest.raises(ToolkitError) as info:
        ostrowski_validate(OstrowskiRep((2, 0, 1)), mixed_cf)
    assert info.value.code == "error"
    with pytest.raises(ToolkitError):
        ostrowski_validate(OstrowskiRep((0, 2)), mixed_cf)


def test_ostrowski_zero(mixed_cf):
    assert ostrowski_encode(0, mixed_cf).digits == ()
    assert ostrowski_decode(OstrowskiRep(()), mixed_cf) == 0
    assert ostrowski_validate(OstrowskiRep(()), mixed_cf)


def test_ostrowski_rejects_negative(mixed_cf):
    with pytest.raises(InputError):
        ostrowski_encode(-1, mixed_cf)


def test_ostrowski_uniqueness_exhaustive(mixed_cf):
    """Every n below q_5 has exactly one valid digit vector of length 5."""
    qs = list(convergents(mixed_cf, 5))
    quots = [mixed_cf.quotient(i) for i in range(1, 6)]
    seen = {}

    def vectors(i, acc, digits):
        if i == 5:
            seen.setdefault(acc, []).append(tuple(digits))
            return
        for d in range(quots[i] + 1):
            vectors(i + 1, acc + d * qs[i], digits + [d])

    vectors(0, 0, [])
    for n in range(qs[5]):
        valid = [
            v
            for v in seen.get(n, [])
            if ostrowski_validate(OstrowskiRep(_strip(v)), mixed_cf)
        ]
        assert len(valid) == 1, n
        assert _strip(valid[0]) == ostrowski_encode(n, mixed_cf).digits


def _strip(digits):
    out = list(digits)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=10**5))
def test_ostrowski_round_trip_golden(n):
    golden = expand(make_quadnum(Fraction(1, 2), Fraction(1, 2), 5))
    rep = ostrowski_encode(n, golden)
    assert ostrowski_decode(rep, golden) == n
    assert ostrowski_validate(rep, golden)


def test_ostrowski_golden_matches_zeckendorf_shift():
    """Over the golden ratio the denominators are q_i = F_{i+1}, so the greedy
    digit support is the Zeckendorf index set shifted down by one."""
    golden = expand(make_quadnum(Fraction(1, 2), Fraction(1, 2), 5))
    for n in (1, 10, 100, 14930496):
        digits = ostrowski_encode(n, golden).digits
        support = tuple(i + 1 for i, d in enumerate(digits) if d)
        assert support == tuple(sorted(zeckendorf_encode(n).indices))


# ----- sum partition -----


def test_partition_sum_examples():
    root2 = expand(make_quadnum(0, 1, 2))  # r = 1, s = 1
    rep = partition_sum((7, 7, 3), root2)
    assert rep.K == 3
    assert rep.terms == ((2, 7), (1, 3))
    assert rep.split == ((6, 0), (2, 0))
    assert rep.small_terms == ()
    assert rep.k == 2

    rep = partition_sum((5, 4), root2)
    assert rep.terms == ((1, 5), (1, 4))
    assert rep.split == ((4, 0), (3, 0))

    rep = partition_sum((0, 0), root2)
    assert rep.terms == ()
    assert rep.small_terms == ((2, 0),)
    assert rep.k == 0


def test_partition_sum_preperiod_indices(mixed_cf):
    # r = 3 here, so indices 0..2 cannot be aligned with the period
    rep = partition_sum((2, 1), mixed_cf)
    assert rep.terms == ()
    assert rep.small_terms == ((1, 2), (1, 1))
    rep = partition_sum((7, 3), mixed_cf)
    assert rep.terms == ((1, 7), (1, 3))
    assert rep.split == ((4, 0), (0, 0))


def test_partition_sum_rejects_increasing(mixed_cf):
    with pytest.raises(InputError):
        partition_sum((3, 7), mixed_cf)


@given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=6))
def test_partition_sum_conserves_value(ns):
    cf = expand(make_quadnum(0, 1, 2))
    N = tuple(sorted(ns, reverse=True))
    rep = partition_sum(N, cf)
    qs = list(convergents(cf, max(N)))
    total = sum(qs[n] for n in N)
    recon = sum(d * qs[np] for d, np in rep.terms) + sum(
        d * qs[np] for d, np in rep.small_terms
    )
    assert recon == total
    assert sum(d for d, _ in rep.terms) + sum(d for d, _ in rep.small_terms) == len(N)


def test_partition_sum_split_is_consistent(mixed_cf):
    rep = partition_sum((9, 8, 8, 2, 1), mixed_cf)
    r, s = mixed_cf.r, mixed_cf.s
    for (d, np), (n, j) in zip(rep.terms, rep.split):
        assert np == r + s * n + j
        assert 0 <= j < s
    for d, np in rep.small_terms:
        assert np < r


# ----- certified Fibonacci growth -----


def test_fib_bounds_check_small_t():
    assert fib_bounds_check(1)
    assert fib_bounds_check(2)
    assert fib_bounds_check(80)
