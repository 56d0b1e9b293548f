"""Absolute logarithmic heights and the composite height bounds."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cfpow.cfrac import binet_data, expand
from cfpow.errors import InputError, ToolkitError
from cfpow.heights import delta3_height_bound, height_quadratic, log_plus
from cfpow.quadfield import DyadicInterval, QuadNum, make_quadnum
import oracles
from oracles import (
    delta5_height_bound,
    height_combine,
    height_poly_bound,
    height_power,
    height_rational,
    midpoint,
    width,
)

LOG2 = 0.6931471805599453
LOG3 = 1.0986122886681098
LOG10 = 2.302585092994046
H_PHI = 0.24060591252980172
H_SQRT5 = 0.8047189562170502
H_1_PLUS_SQRT2 = 0.4406867935097715
H_GOLDEN_C1 = 0.8835713031681285  # h((5 + 3*sqrt(5))/10)


def near(iv: DyadicInterval, x: float, tol: float = 1e-12) -> bool:
    mid = float(midpoint(iv))
    return abs(mid - x) <= tol * max(1.0, abs(x)) and float(width(iv)) < 1e-9


# ----- rational and quadratic heights -----


def test_height_rational_values():
    assert near(height_rational(Fraction(5, 3)).value, 1.6094379124341003)
    assert near(height_rational(2).value, LOG2)
    assert near(height_rational(Fraction(-7, 2)).value, 1.9459101490553132)
    h1 = height_rational(1)
    assert h1.value.lo == h1.value.hi == 0
    assert h1.kind == "exact"


def test_height_quadratic_values():
    phi = make_quadnum(Fraction(1, 2), Fraction(1, 2), 5)
    assert near(height_quadratic(phi).value, H_PHI)
    assert near(height_quadratic(make_quadnum(0, 1, 5)).value, H_SQRT5)
    assert near(height_quadratic(make_quadnum(1, 1, 2)).value, H_1_PLUS_SQRT2)
    assert near(
        height_quadratic(make_quadnum(Fraction(1, 2), Fraction(3, 10), 5)).value,
        H_GOLDEN_C1,
    )
    assert height_quadratic(phi).kind == "exact"


def test_height_quadratic_rejects_rationals():
    with pytest.raises(InputError):
        height_quadratic(QuadNum(Fraction(3), Fraction(0), 5))


small_rationals = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=12
)


@given(small_rationals, small_rationals, st.sampled_from([2, 3, 5]))
def test_height_is_conjugation_invariant(a, b, d):
    if b == 0:
        return
    x = QuadNum(a, b, d)
    hx = height_quadratic(x).value
    hc = height_quadratic(x.conjugate()).value
    assert (hx.lo, hx.hi) == (hc.lo, hc.hi)


@given(small_rationals, small_rationals, st.sampled_from([2, 3, 5]))
def test_height_is_inversion_invariant(a, b, d):
    if b == 0 or (a == 0 and b == 0):
        return
    x = QuadNum(a, b, d)
    if x.sign() == 0:
        return
    hx = height_quadratic(x).value
    hi = height_quadratic(x.inverse()).value
    assert hx.lo <= hi.hi and hi.lo <= hx.hi
    assert float(abs(midpoint(hx) - midpoint(hi))) < 1e-20


def test_unit_heights_come_from_the_large_root_only():
    # theta1 * theta2 = -1 here, so only theta1 contributes
    theta = make_quadnum(1, 1, 2)
    assert near(height_quadratic(theta).value, H_1_PLUS_SQRT2)
    assert near(height_quadratic(theta.conjugate()).value, H_1_PLUS_SQRT2)


# ----- combination rules -----


def test_height_combine_and_power():
    phi = make_quadnum(Fraction(1, 2), Fraction(1, 2), 5)
    h = height_quadratic(phi)
    prod = height_combine(h, h, "product")
    assert prod.kind == "bound"
    assert near(prod.value, 2 * H_PHI)
    quot = height_combine(h, height_rational(2), "quotient")
    assert near(quot.value, H_PHI + LOG2)
    with pytest.raises(InputError):
        height_combine(h, h, "sum")

    cube = height_power(h, -3)
    assert cube.kind == "exact"
    assert near(cube.value, 3 * H_PHI)


def test_height_power_agrees_with_minimal_polynomial():
    phi = make_quadnum(Fraction(1, 2), Fraction(1, 2), 5)
    direct = height_quadratic(phi**2).value
    scaled = height_power(height_quadratic(phi), 2).value
    assert direct.lo <= scaled.hi and scaled.lo <= direct.hi


def test_height_poly_bound():
    hb = height_poly_bound(
        (1, 1), 2, (height_rational(2), height_rational(3))
    )
    assert hb.kind == "bound"
    assert near(hb.value, LOG2 + LOG3 + LOG2)
    const = height_poly_bound((0,), 7, (height_rational(5),))
    assert near(const.value, 1.9459101490553132)  # log 7
    with pytest.raises(InputError):
        height_poly_bound((1,), 0, (height_rational(2),))


# ----- log_plus -----


def test_log_plus_floors_at_three():
    assert near(log_plus(2), LOG3)
    assert near(log_plus(Fraction(1, 2)), LOG3)
    assert near(log_plus(10), LOG10)
    iv = log_plus(DyadicInterval.from_endpoints(1, 4))
    assert float(iv.lo) == pytest.approx(LOG3, abs=1e-9)
    assert float(iv.hi) == pytest.approx(2 * LOG2, abs=1e-9)


# ----- combination-sum height (three-term linear form) -----


@pytest.fixture(scope="module")
def golden_bd_local():
    return binet_data(expand(make_quadnum(Fraction(1, 2), Fraction(1, 2), 5)))


def test_delta3_single_term(golden_bd_local):
    d3 = delta3_height_bound(1, (1,), (0,), golden_bd_local)
    assert near(d3.tight.value, H_GOLDEN_C1)
    assert near(d3.unit_coefficient, H_GOLDEN_C1 + H_PHI)
    assert near(d3.uniform.value, H_GOLDEN_C1 + H_PHI)
    assert d3.tight.kind == "bound"


def test_delta3_known_instance(golden_bd_local):
    # two summands, gap 24: the F_36 + F_12 configuration
    d3 = delta3_height_bound(2, (1, 1), (0, 24), golden_bd_local)
    assert near(d3.tight.value, 8.234831687611444)
    assert d3.uniform.value.hi >= d3.tight.value.lo


def test_delta3_gap_linearity(golden_bd_local):
    lo = delta3_height_bound(2, (1, 1), (0, 24), golden_bd_local).tight.value
    hi = delta3_height_bound(2, (1, 1), (0, 48), golden_bd_local).tight.value
    diff = hi - lo
    assert near(diff, 24 * H_PHI, tol=1e-10)


def test_delta3_agrees_with_generic_poly_bound(golden_bd_local):
    """The direct formula is the generic polynomial-height bound applied to
    w degree-one variables and one power of the growth root."""
    w, gaps = 3, (0, 5, 9)
    d3 = delta3_height_bound(w, (1, 1, 1), gaps, golden_bd_local)
    h_c1 = height_quadratic(golden_bd_local.c1[0])
    h_th = height_quadratic(golden_bd_local.theta1)
    generic = height_poly_bound((1,) * w + (gaps[-1],), 3, (h_c1,) * w + (h_th,))
    assert d3.tight.value.lo <= generic.value.hi
    assert generic.value.lo <= d3.tight.value.hi


def test_delta3_input_validation(golden_bd_local):
    with pytest.raises(InputError):
        delta3_height_bound(0, (), (), golden_bd_local)
    with pytest.raises(InputError):
        delta3_height_bound(2, (1, 1), (1, 2), golden_bd_local)  # gaps[0] != 0
    with pytest.raises(InputError):
        delta3_height_bound(2, (1, 0), (0, 2), golden_bd_local)  # zero multiplicity


def test_delta3_uniform_dominates_tight(golden_bd_local):
    for w, d, gaps in [(1, (1,), (0,)), (2, (2, 1), (0, 3)), (4, (1, 1, 1, 1), (0, 1, 2, 3))]:
        d3 = delta3_height_bound(w, d, gaps, golden_bd_local)
        assert d3.tight.value.lo <= d3.uniform.value.hi


# ----- tail-sum height -----


def test_delta5_trivial_tail():
    d5 = delta5_height_bound(1, (0,), "zeckendorf")
    assert d5.final.value.lo == d5.final.value.hi == 0
    assert d5.intermediate.kind == "exact"
    d5r = delta5_height_bound(1, (0,), "radix", b=10)
    assert d5r.final.value.hi == 0


def test_delta5_zeckendorf():
    d5 = delta5_height_bound(2, (0, 5), "zeckendorf")
    assert near(d5.intermediate.value, 1.8961767432089539)
    assert d5.final.value.lo == d5.final.value.hi == 20  # 2 * v * gap
    assert d5.final.kind == "bound"


def test_delta5_radix():
    d5 = delta5_height_bound(3, (0, 2, 4), "radix", b=10, digits=(9, 9, 9))
    assert near(d5.intermediate.value, 15.802014103984842)
    assert near(d5.final.value, 20 * LOG10)
    # default digit sum is the worst case v*(b-1)
    dflt = delta5_height_bound(3, (0, 2, 4), "radix", b=10)
    assert near(dflt.intermediate.value, 15.802014103984842)


def test_delta5_validation():
    with pytest.raises(InputError):
        delta5_height_bound(0, (), "zeckendorf")
    with pytest.raises(InputError):
        delta5_height_bound(2, (1, 5), "zeckendorf")  # gaps[0] != 0
    with pytest.raises(InputError):
        delta5_height_bound(2, (0, 0), "zeckendorf")  # positions not decreasing
    with pytest.raises(InputError):
        delta5_height_bound(2, (0, 3), "radix")  # missing base
    with pytest.raises(InputError):
        delta5_height_bound(2, (0, 3), "radix", b=10, digits=(5, 11))
    with pytest.raises(InputError):
        delta5_height_bound(2, (0, 3), "hexadecimal")


def test_delta5_intermediate_below_final():
    for v in (2, 3, 5):
        gaps = tuple(3 * i for i in range(v))
        z = delta5_height_bound(v, gaps, "zeckendorf")
        assert z.intermediate.value.lo <= z.final.value.hi
        r = delta5_height_bound(v, gaps, "radix", b=7)
        assert r.intermediate.value.lo <= r.final.value.hi


def test_delta5_domination_failure_is_an_explicit_error(monkeypatch):
    # an intermediate bound above the final one raises, also under python -O
    monkeypatch.setattr(oracles, "log_plus", lambda b, bits: DyadicInterval.from_int(0, bits))
    with pytest.raises(ToolkitError):
        delta5_height_bound(3, (0, 2, 4), "radix", b=10)
