"""Exact arithmetic in real quadratic fields and dyadic interval enclosures."""

import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfpow.errors import CannotFactorError, InputError, MixedFieldError
from cfpow.quadfield import (
    DyadicInterval,
    QuadNum,
    dyadic_decimal_str,
    make_quadnum,
    squarefree_split,
)
from oracles import contains, floor, norm

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)
fields = st.sampled_from([2, 3, 5, 6, 7, 10, 13])


def quadnums(d):
    return st.builds(lambda a, b: QuadNum(a, b, d), rationals, rationals)


# ----- squarefree factoring -----


def test_squarefree_split_small():
    assert squarefree_split(8) == (2, 2)
    assert squarefree_split(5) == (1, 5)
    assert squarefree_split(12) == (2, 3)
    assert squarefree_split(360) == (6, 10)
    assert squarefree_split(1) == (1, 1)
    assert squarefree_split(49) == (7, 1)


def test_squarefree_split_large_cofactors():
    # a leftover cofactor below bound^2 must be prime, so it is squarefree
    p = 1000003
    assert squarefree_split(p) == (1, p)
    assert squarefree_split(p * p) == (p, 1)
    assert squarefree_split(4 * p) == (2, p)


def test_squarefree_split_gives_up_honestly():
    # product of two primes beyond the trial bound cannot be classified
    with pytest.raises(CannotFactorError):
        squarefree_split(1000003 * 1000000007)


@given(st.integers(min_value=1, max_value=10**6))
def test_squarefree_split_reconstructs(n):
    m, f = squarefree_split(n)
    assert m * m * f == n


# ----- construction and normalization -----


def test_make_quadnum_folds_square_part():
    x = make_quadnum(1, 1, 8)
    assert (x.a, x.b, x.d) == (1, 2, 2)


def test_make_quadnum_collapses_perfect_square():
    x = make_quadnum(0, 1, 9)
    assert (x.a, x.b, x.d) == (3, 0, 1)
    assert x.degenerate


def test_make_quadnum_degenerate_keeps_field():
    x = make_quadnum(3, 0, 5)
    assert x.degenerate and x.d == 5 and x.a == 3


def test_make_quadnum_rejects_small_d():
    with pytest.raises(InputError):
        make_quadnum(1, 1, 1)
    with pytest.raises(InputError):
        make_quadnum(1, 1, 0)


def test_quadnum_d1_requires_rational():
    with pytest.raises(InputError):
        QuadNum(Fraction(1), Fraction(1), 1)


# ----- the stored integer triple -----


def _assert_normalised(x):
    A, B, C = x.coords
    assert C > 0 and math.gcd(A, B, C) == 1
    assert (Fraction(A, C), Fraction(B, C)) == (x.a, x.b)


def _fraction_formulas(x, y, d):
    """Coordinates of x + y, x - y, x * y and x / y from the rational coordinates."""
    a1, b1, a2, b2 = x.a, x.b, y.a, y.b
    n = a2 * a2 - b2 * b2 * d
    out = {
        "+": (a1 + a2, b1 + b2),
        "-": (a1 - a2, b1 - b2),
        "*": (a1 * a2 + b1 * b2 * d, a1 * b2 + b1 * a2),
    }
    if n != 0:
        out["/"] = ((a1 * a2 - b1 * b2 * d) / n, (b1 * a2 - a1 * b2) / n)
    return out


@given(fields.flatmap(lambda d: st.tuples(st.just(d), quadnums(d), quadnums(d))))
def test_arithmetic_matches_the_fraction_formulas(case):
    d, x, y = case
    expected = _fraction_formulas(x, y, d)
    results = {"+": x + y, "-": x - y, "*": x * y}
    if y != 0:
        results["/"] = x / y
    assert results.keys() == expected.keys()
    for op, (a, b) in expected.items():
        z = results[op]
        _assert_normalised(z)
        assert (z.a, z.b, z.d) == (a, b, d), op


def test_coords_are_normalised():
    x = QuadNum(Fraction(6, 4), Fraction(-9, 6), 7)
    assert x.coords == (3, -3, 2)
    assert QuadNum(0, 0, 7).coords == (0, 0, 1)
    assert (x / -3).coords == (-1, 1, 2)


# ----- ring structure -----


@given(quadnums(5), quadnums(5), quadnums(5))
def test_ring_axioms(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert x * (y * z) == (x * y) * z
    assert x + y == y + x
    assert x - x == QuadNum(Fraction(0), Fraction(0), 5)


@given(quadnums(7), quadnums(7))
def test_conjugation_is_a_homomorphism(x, y):
    assert (x + y).conjugate() == x.conjugate() + y.conjugate()
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert x.conjugate().conjugate() == x


@given(quadnums(3))
def test_norm_is_multiplicative_with_conjugate(x):
    assert x * x.conjugate() == norm(x)


def test_inverse():
    theta = make_quadnum(1, 1, 2)
    assert theta.inverse() == make_quadnum(-1, 1, 2)
    assert theta * theta.inverse() == 1
    with pytest.raises(ZeroDivisionError):
        QuadNum(Fraction(0), Fraction(0), 2).inverse()


def test_pow_golden_ratio_identity():
    # phi^n = F(n) phi + F(n-1)
    phi = make_quadnum(Fraction(1, 2), Fraction(1, 2), 5)
    assert phi**5 == phi * 5 + 3
    assert phi**10 == phi * 55 + 34
    assert phi**0 == 1
    assert phi**-2 == (phi**2).inverse()


# ----- order structure -----


def test_sign_and_floor():
    root2 = make_quadnum(0, 1, 2)
    assert (root2 - 1).sign() == 1
    assert (1 - root2).sign() == -1
    assert (root2 - root2).sign() == 0
    assert floor(root2) == 1
    assert floor(-root2) == -2
    assert floor(make_quadnum(Fraction(1, 2), Fraction(1, 2), 5)) == 1
    assert floor(QuadNum(Fraction(35, 2), Fraction(0), 2)) == 17


@given(quadnums(6))
def test_floor_brackets_value(x):
    n = floor(x)
    assert n <= x < n + 1


@given(quadnums(10), quadnums(10))
def test_comparisons_are_consistent_with_difference_sign(x, y):
    s = (x - y).sign()
    assert (x > y) == (s == 1)
    assert (x == y) == (s == 0)
    assert (x < y) == (s == -1)


def test_mixed_fields_reject_true_combination():
    root2 = make_quadnum(0, 1, 2)
    root3 = make_quadnum(0, 1, 3)
    with pytest.raises(MixedFieldError):
        root2 + root3


def test_mixed_fields_allow_rational_members():
    three_a = QuadNum(Fraction(3), Fraction(0), 2)
    three_b = QuadNum(Fraction(3), Fraction(0), 3)
    assert three_a == three_b
    assert three_a + make_quadnum(0, 1, 3) == 3 + make_quadnum(0, 1, 3)


# ----- enclosures -----


def test_enclose_width_contract():
    root2 = make_quadnum(0, 1, 2)
    for bits in (16, 32, 64, 128, 256):
        iv = root2.enclose(bits)
        assert iv.hi - iv.lo <= Fraction(2) ** (2 - bits)
    big = make_quadnum(10**6, 10**6, 2)
    iv = big.enclose(64)
    assert iv.hi - iv.lo <= Fraction(2) ** (2 - 64) * (10**6 + 10**6 * 2)


def test_enclose_nests_with_precision():
    x = make_quadnum(Fraction(-3, 7), Fraction(2, 3), 13)
    coarse = x.enclose(20)
    fine = x.enclose(50)
    assert coarse.lo <= fine.lo <= fine.hi <= coarse.hi


def test_enclose_rational_is_exact_when_dyadic():
    iv = QuadNum(Fraction(7, 4), Fraction(0), 2).enclose(64)
    assert iv.lo == iv.hi == Fraction(7, 4)


@given(quadnums(5), st.sampled_from([24, 48, 96]))
def test_enclose_respects_sign(x, bits):
    iv = x.enclose(bits)
    if x.sign() > 0:
        assert iv.hi > 0
    elif x.sign() < 0:
        assert iv.lo < 0
    else:
        assert contains(iv, 0)


# ----- dyadic intervals -----


def test_interval_requires_dyadic_ordered_endpoints():
    with pytest.raises(InputError):
        DyadicInterval(Fraction(1, 3), Fraction(1, 2))
    with pytest.raises(InputError):
        DyadicInterval(Fraction(1, 2), Fraction(1, 4))


def test_from_fraction_rounds_outward():
    iv = DyadicInterval.from_fraction(Fraction(4, 25), 64)
    assert iv.lo < Fraction(4, 25) < iv.hi
    assert iv.hi - iv.lo <= Fraction(2) ** -60


def test_from_int_is_exact():
    iv = DyadicInterval.from_int(37)
    assert iv.lo == iv.hi == 37


@given(
    st.fractions(min_value=-20, max_value=20, max_denominator=64),
    st.fractions(min_value=-20, max_value=20, max_denominator=64),
)
def test_interval_arithmetic_contains_exact_result(xa, xb):
    ix = DyadicInterval.from_fraction(xa, 64)
    iy = DyadicInterval.from_fraction(xb, 64)
    assert contains(ix + iy, xa + xb)
    assert contains(ix - iy, xa - xb)
    assert contains(ix * iy, xa * xb)
    if xb != 0 and not (iy.lo <= 0 <= iy.hi):
        assert contains(ix / iy, Fraction(xa, xb))


def test_division_by_interval_spanning_zero():
    num = DyadicInterval.from_int(1)
    den = DyadicInterval.from_endpoints(Fraction(-1, 2), Fraction(1, 2))
    with pytest.raises(ZeroDivisionError):
        num / den


def test_powi_even_power_through_zero():
    iv = DyadicInterval.from_endpoints(-2, 3)
    sq = iv.powi(2)
    assert sq.lo == 0 and sq.hi >= 9
    cube = iv.powi(3)
    assert cube.lo <= -8 and cube.hi >= 27


def test_root_and_sqrt():
    two = DyadicInterval.from_int(2)
    r = two.sqrt()
    assert r.lo**2 <= 2 <= r.hi**2
    assert r.hi - r.lo <= Fraction(2) ** -100
    c = DyadicInterval.from_int(27).root(3)
    assert contains(c, 3)
    with pytest.raises(InputError):
        DyadicInterval.from_endpoints(-1, 8).root(3)


def test_log_exp_round_trip():
    x = DyadicInterval.from_fraction(Fraction(5, 2), 96)
    back = x.log().exp()
    assert back.lo <= Fraction(5, 2) <= back.hi
    assert back.hi - back.lo <= Fraction(2) ** -80
    assert contains(DyadicInterval.from_int(1).log(), 0)
    with pytest.raises(InputError):
        DyadicInterval.from_endpoints(0, 1).log()


def test_exp_log_enclose_known_values():
    # 20-digit references sit well inside 48-bit enclosures
    e1 = DyadicInterval.from_int(1, 48).exp()
    assert contains(e1, Fraction("2.71828182845904523536"))
    l2 = DyadicInterval.from_int(2, 48).log()
    assert contains(l2, Fraction("0.69314718055994530942"))


def test_min_max_compare():
    a = DyadicInterval.from_endpoints(0, 1)
    b = DyadicInterval.from_endpoints(2, 3)
    assert a.max(b).lo == 2 and a.min(b).hi == 1
    assert a.compare(b) == -1
    assert b.compare(a) == 1
    assert a.compare(DyadicInterval.from_endpoints(Fraction(1, 2), 2)) is None
    pt = DyadicInterval.from_int(4)
    assert pt.compare(DyadicInterval.from_int(4)) == 0
    assert a.definitely_le(b)
    assert b.definitely_ge(a)
    assert not a.definitely_lt(DyadicInterval.from_endpoints(1, 2))


def test_abs():
    iv = abs(DyadicInterval.from_endpoints(-3, 2))
    assert iv.lo == 0 and iv.hi == 3
    iv = abs(DyadicInterval.from_endpoints(-3, -2))
    assert iv.lo == 2 and iv.hi == 3


# ----- decimal serialization -----


def test_dyadic_decimal_str_is_exact():
    assert dyadic_decimal_str(Fraction(1, 8)) == "0.125"
    assert dyadic_decimal_str(Fraction(-3, 4)) == "-0.75"
    assert dyadic_decimal_str(Fraction(5)) == "5"
    assert dyadic_decimal_str(Fraction(0)) == "0"
    with pytest.raises(InputError):
        dyadic_decimal_str(Fraction(1, 3))


@given(st.integers(-10**6, 10**6), st.integers(0, 40))
def test_dyadic_decimal_str_round_trips(num, shift):
    x = Fraction(num, 2**shift)
    s = dyadic_decimal_str(x)
    assert Fraction(s) == x


def test_interval_to_json():
    iv = DyadicInterval.from_endpoints(Fraction(1, 4), Fraction(3, 2))
    assert iv.to_json() == {"lo": "0.25", "hi": "1.5"}


def test_quadnum_json_round_trip():
    x = make_quadnum(Fraction(-2, 3), Fraction(5, 7), 8)
    assert QuadNum.from_json(x.to_json()) == x


def test_quadnum_json_round_trip_past_the_int_str_digit_cap():
    big = 7**6000  # over 5000 decimal digits
    x = make_quadnum(Fraction(big, 3), Fraction(-1, big), 2)
    doc = x.to_json()
    assert len(doc["a_num"]) > 5000 and doc["b_den"] == format(Decimal(big), "f")
    assert QuadNum.from_json(doc) == x


@pytest.mark.parametrize("bad", [1.5, True, "1.5", "1e3", " 7", "", None])
def test_quadnum_from_json_rejects_what_is_not_an_integer(bad):
    doc = dict(make_quadnum(1, 1, 2).to_json(), b_num=bad)
    with pytest.raises(InputError):
        QuadNum.from_json(doc)
