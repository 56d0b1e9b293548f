"""Matveev-style lower bounds, the explicit-bound transfer, and its root oracle."""

from fractions import Fraction

import pytest

from cfpow import linforms
from cfpow.errors import (
    InputError,
    PrecisionError,
    PWPreconditionError,
)
from cfpow.linforms import (
    LinFormInstance,
    clamp_a,
    escalate,
    matveev_gamma_bound,
    matveev_lambda_bound,
    pw_transfer,
)
from cfpow.quadfield import DyadicInterval
from oracles import G2LDomainError, a_majorant, log_from_gamma, midpoint, pw_largest_root

A_FLOOR = Fraction(4, 25)


def near(iv: DyadicInterval, x: float, tol: float = 1e-9) -> bool:
    return abs(float(midpoint(iv)) - x) <= tol * max(1.0, abs(x))


def make_instance(T, D, a_vals, B):
    return LinFormInstance(
        T, D, tuple(a_majorant(Fraction(a)) for a in a_vals), DyadicInterval.from_int(B)
    )


# ----- majorant floor -----


def test_a_majorant_enforces_floor():
    low = a_majorant(Fraction(1, 10))
    assert low.lo >= A_FLOOR
    five = a_majorant(5)
    assert five.lo == five.hi == 5
    third = a_majorant(Fraction(1, 3))
    assert third.lo >= Fraction(1, 3)
    assert third.hi - Fraction(1, 3) < Fraction(2) ** -100


def test_clamp_a_repairs_outward_rounding():
    rounded = DyadicInterval.from_fraction(A_FLOOR)
    assert rounded.lo < A_FLOOR  # outward rounding dips below the floor
    with pytest.raises(InputError):
        LinFormInstance(1, 1, (rounded,), DyadicInterval.from_int(1))
    fixed = clamp_a(rounded)
    inst = LinFormInstance(1, 1, (fixed,), DyadicInterval.from_int(1))
    assert inst.A[0].lo >= A_FLOOR


def test_instance_validation():
    with pytest.raises(InputError):
        make_instance(2, 1, [1], 1)  # wrong arity
    with pytest.raises(InputError):
        make_instance(0, 1, [], 1)
    with pytest.raises(InputError):
        LinFormInstance(
            1, 1, (a_majorant(1),), DyadicInterval.from_fraction(Fraction(1, 2))
        )


# ----- Matveev evaluators -----


def test_gamma_smallest_instance():
    iv = matveev_gamma_bound(make_instance(1, 1, [A_FLOOR], 1))
    assert iv.hi < 0
    assert near(iv, -4105518.5401115899)


def test_lambda_smallest_instance():
    iv = matveev_lambda_bound(make_instance(1, 1, [A_FLOOR], 1))
    assert near(iv, -497664000.0)


def test_gamma_quadratic_field_instance():
    two_log2 = DyadicInterval.from_int(2).log() * 2
    log_phi = (DyadicInterval.from_int(5).sqrt() + 1) / 2
    A = (clamp_a(two_log2), clamp_a(log_phi.log()), a_majorant(A_FLOOR))
    inst = LinFormInstance(3, 2, A, DyadicInterval.from_int(10))
    assert near(matveev_gamma_bound(inst), -1247515569883.6779, tol=1e-10)


def test_lambda_gamma_ratio_depends_only_on_T():
    # lambda/gamma = (10/7) * 30 * (T+1)^1.5
    for T, expected in [(1, 121.21830534626529), (5, 629.86879100138865)]:
        inst = make_instance(T, 3, [1] * T, 7)
        g = matveev_gamma_bound(inst)
        l = matveev_lambda_bound(inst)
        ratio = float(midpoint(l) / midpoint(g))
        assert abs(ratio - expected) < 1e-9


def test_bounds_scale_linearly_in_each_majorant():
    base = make_instance(2, 2, [1, 3], 5)
    doubled = make_instance(2, 2, [2, 3], 5)
    g0 = matveev_gamma_bound(base)
    g1 = matveev_gamma_bound(doubled)
    assert abs(float(midpoint(g1) / midpoint(g0)) - 2.0) < 1e-12


def test_bounds_grow_with_T_and_D():
    g1 = matveev_gamma_bound(make_instance(1, 1, [1], 2))
    g2 = matveev_gamma_bound(make_instance(2, 1, [1, 1], 2))
    assert g2.hi < g1.lo  # more negative
    d1 = matveev_gamma_bound(make_instance(1, 1, [1], 2))
    d2 = matveev_gamma_bound(make_instance(1, 2, [1], 2))
    assert d2.hi < d1.lo


def test_bounds_scale_with_log_eB():
    import math

    base = make_instance(1, 1, [1], 1)
    bigger = make_instance(1, 1, [1], 10)
    ratio = float(midpoint(matveev_gamma_bound(bigger)) / midpoint(matveev_gamma_bound(base)))
    assert abs(ratio - (math.log(10) + 1)) < 1e-12


# ----- explicit-bound transfer -----


def test_pw_transfer_known_values():
    assert near(pw_transfer(0, 1, 10), 46.051701859880914)
    assert near(pw_transfer(0, 1, 8), 33.271064666877375)
    assert near(pw_transfer(0, 2, 100), 14359.058967700742)
    assert near(pw_transfer(5, 1, 10), 56.051701859880914)  # 2(a + g log g)


def test_pw_transfer_fractional_exponent():
    iv = pw_transfer(0, Fraction(3, 2), 100)
    assert near(iv, 3366.8405360618128, tol=1e-9)


def test_pw_preconditions():
    with pytest.raises(PWPreconditionError):
        pw_transfer(0, 1, 7)  # needs g > e^2
    pw_transfer(0, 1, 8)
    with pytest.raises(PWPreconditionError):
        pw_transfer(0, 2, 13)  # needs g > (e^2/2)^2
    pw_transfer(0, 2, 14)
    with pytest.raises(PWPreconditionError):
        pw_transfer(0, Fraction(3, 2), 10)


def test_pw_largest_root_values():
    assert near(pw_largest_root(0, 1, 10), 35.771520639572972, tol=1e-10)
    assert near(pw_largest_root(0, 1, 8), 26.09348547661191, tol=1e-10)
    assert near(pw_largest_root(5, 1, 10), 42.493514686823166, tol=1e-10)
    assert near(pw_largest_root(0, 2, 100), 8099.1190626380378, tol=1e-10)


def test_pw_root_is_a_fixed_point():
    r = pw_largest_root(5, 1, 10)
    rhs = r.log() * 10 + 5
    assert rhs.lo <= r.hi and r.lo <= rhs.hi


def test_pw_transfer_dominates_root_spot_checks():
    for a, c, g in [(0, 1, 10), (0, 1, 8), (5, 1, 10), (0, 2, 100), (100, 3, 1000)]:
        bound = pw_transfer(a, c, g)
        root = pw_largest_root(a, c, g)
        assert bound.lo >= root.hi


def test_pw_rejects_bad_inputs():
    with pytest.raises(InputError):
        pw_transfer(-1, 1, 10)
    with pytest.raises(InputError):
        pw_transfer(0, 0, 10)


# ----- gamma-to-log domain transfer -----


def test_log_from_gamma_doubles():
    iv = log_from_gamma(DyadicInterval.from_fraction(Fraction(1, 4)))
    assert iv.lo <= Fraction(1, 2) <= iv.hi
    boundary = log_from_gamma(DyadicInterval.from_fraction(Fraction(1, 2)))
    assert boundary.hi >= 1


def test_log_from_gamma_domain():
    with pytest.raises(G2LDomainError):
        log_from_gamma(DyadicInterval.from_fraction(Fraction(3, 5)))
    with pytest.raises(InputError):
        log_from_gamma(DyadicInterval.from_endpoints(Fraction(-1, 4), Fraction(1, 4)))


def test_log_from_gamma_dominates_direct_logarithm():
    for num, den in [(3, 4), (7, 8), (1, 1), (9, 8), (5, 4), (3, 2)]:
        x = DyadicInterval.from_fraction(Fraction(num, den))
        direct = abs(x.log())
        bound = log_from_gamma(abs(x - 1))
        assert direct.hi <= bound.hi


# ----- precision escalation -----


def test_escalate_doubles_until_success():
    calls = []

    def builder(bits):
        calls.append(bits)
        return "ok" if bits >= 512 else None

    assert escalate(builder, 128) == "ok"
    assert calls == [128, 256, 512]


def test_escalate_exhausts_honestly():
    with pytest.raises(PrecisionError):
        escalate(lambda bits: None, 64)


def test_escalate_caps_at_five_doublings():
    calls = []

    def builder(bits):
        calls.append(bits)

    with pytest.raises(PrecisionError, match="4096 bits"):
        escalate(builder, 128, what="probe")
    assert calls == [128, 256, 512, 1024, 2048, 4096]


def test_undecided_transfer_precondition_is_a_pw_precondition_error(monkeypatch):
    calls = []

    def undecided(c, g, bits):
        calls.append(bits)

    monkeypatch.setattr(linforms, "_pw_precondition_status", undecided)
    with pytest.raises(PWPreconditionError) as info:
        pw_transfer(0, 2, 100)
    assert info.value.code == "pw-precondition"
    assert calls == [128, 256, 512, 1024, 2048, 4096]
