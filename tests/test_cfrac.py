"""Continued fractions of quadratic irrationals and their denominator growth."""

import json
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cfpow import cfrac
from cfpow.cfrac import (
    ContinuedFraction,
    binet_data,
    convergents,
    expand,
    period_matrix_trace,
)
from cfpow.errors import InputError, NonQuadraticError
from cfpow.quadfield import QuadNum, _surd_sign, make_quadnum
from oracles import (
    binet_data_by_products,
    contains,
    floor,
    least_sandwich_index_by_powers,
    theta1_by_factoring,
    verify_shifted_recurrence,
)

CLASSICAL_EXPANSIONS = [
    ((0, 1, 2), 1, (), (2,)),
    ((0, 1, 3), 1, (), (1, 2)),
    ((0, 1, 5), 2, (), (4,)),
    ((0, 1, 6), 2, (), (2, 4)),
    ((0, 1, 7), 2, (), (1, 1, 1, 4)),
    ((0, 1, 13), 3, (), (1, 1, 1, 1, 6)),
    ((Fraction(1, 2), Fraction(1, 2), 5), 1, (), (1,)),
    ((Fraction(-1, 2), Fraction(1, 2), 5), 0, (), (1,)),
    # (6 - sqrt(2))/17 has a genuine preperiodic block
    ((Fraction(6, 17), Fraction(-1, 17), 2), 0, (3, 1), (2,)),
]


@pytest.mark.parametrize("coeffs,a0,pre,per", CLASSICAL_EXPANSIONS)
def test_expand_classical_surds(coeffs, a0, pre, per):
    cf = expand(make_quadnum(*coeffs))
    assert (cf.a0, cf.preperiod, cf.period) == (a0, pre, per)


def test_expand_rejects_rationals():
    with pytest.raises(NonQuadraticError):
        expand(make_quadnum(3, 0, 5))
    with pytest.raises(NonQuadraticError):
        expand(make_quadnum(0, 1, 9))


def test_expand_negative_values():
    cf = expand(make_quadnum(0, -1, 2))
    assert cf.a0 == -2
    root2 = make_quadnum(0, 1, 2)
    # floor(-sqrt(2)) = -2, then 1/(-sqrt(2)+2) = (2+sqrt(2))/2
    assert cf.quotient(1) == floor((2 + root2) / 2)


def test_quotient_indexing():
    cf = expand(make_quadnum(Fraction(6, 17), Fraction(-1, 17), 2))
    assert [cf.quotient(i) for i in range(6)] == [0, 3, 1, 2, 2, 2]
    assert cf.quotients(4) == [0, 3, 1, 2, 2]
    assert (cf.r, cf.s) == (3, 1)
    with pytest.raises(InputError):
        cf.quotient(-1)


def test_to_json_shape():
    cf = expand(make_quadnum(0, 1, 3))
    assert cf.to_json() == {"a0": 1, "preperiod": [], "period": [1, 2]}


# ----- convergent denominators -----


def test_convergents_known_sequences():
    golden = expand(make_quadnum(Fraction(1, 2), Fraction(1, 2), 5))
    assert list(convergents(golden, 10)) == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
    root2 = expand(make_quadnum(0, 1, 2))
    assert list(convergents(root2, 5)) == [1, 2, 5, 12, 29, 70]
    mixed = expand(make_quadnum(Fraction(6, 17), Fraction(-1, 17), 2))
    assert list(convergents(mixed, 4)) == [1, 3, 4, 11, 26]


def test_convergents_table_interface():
    cf = expand(make_quadnum(0, 1, 2))
    table = convergents(cf, 6)
    assert len(table) == 7
    assert table[3] == 12
    assert table.to_json() == {"q": ["1", "2", "5", "12", "29", "70", "169"]}
    with pytest.raises(InputError):
        convergents(cf, -1)


def _truncation_value(cf, n):
    """Evaluate [a0; a1 .. an] bottom-up as an exact rational."""
    x = Fraction(cf.quotient(n))
    for i in range(n - 1, -1, -1):
        x = cf.quotient(i) + 1 / x
    return x


@pytest.mark.parametrize(
    "coeffs",
    [(Fraction(1, 2), Fraction(1, 2), 5), (0, 1, 2), (Fraction(6, 17), Fraction(-1, 17), 2)],
)
def test_convergents_match_bottom_up_evaluation(coeffs):
    """The table's q_i is the reduced denominator of the truncated fraction."""
    cf = expand(make_quadnum(*coeffs))
    table = convergents(cf, 12)
    for i in range(1, 13):
        assert _truncation_value(cf, i).denominator == table[i]


def test_convergents_approximate_to_inverse_square():
    alpha = make_quadnum(0, 1, 7)
    cf = expand(alpha)
    table = convergents(cf, 15)
    for i in range(1, 16):
        t = _truncation_value(cf, i)
        err = alpha - t if (alpha - t).sign() >= 0 else t - alpha
        assert err < Fraction(1, table[i] ** 2)


# ----- period matrix and growth data -----


def test_period_matrix_trace():
    assert period_matrix_trace(expand(make_quadnum(Fraction(1, 2), Fraction(1, 2), 5))) == 1
    assert period_matrix_trace(expand(make_quadnum(0, 1, 2))) == 2
    assert period_matrix_trace(expand(make_quadnum(0, 1, 3))) == 4
    # trace of [[a,1],[1,0]][[b,1],[1,0]] is ab + 2, independent of minimality
    fake = ContinuedFraction(make_quadnum(0, 1, 2), 1, (), (1, 1))
    assert period_matrix_trace(fake) == 3


def test_binet_data_golden():
    bd = binet_data(expand(make_quadnum(Fraction(1, 2), Fraction(1, 2), 5)))
    assert (bd.t_alpha, bd.s, bd.r, bd.disc, bd.delta) == (1, 1, 1, 5, 5)
    assert bd.theta1 == make_quadnum(Fraction(1, 2), Fraction(1, 2), 5)
    assert bd.c1 == (make_quadnum(Fraction(1, 2), Fraction(3, 10), 5),)
    assert bd.c2 == (make_quadnum(Fraction(-1, 2), Fraction(3, 10), 5),)
    assert bd.N0 == 0
    assert contains(bd.c3, Fraction("1.3416407864998738")) or bd.c3.lo > Fraction(
        "1.3416407864"
    )
    assert bd.c4.lo > Fraction("0.5854101966") and bd.c4.hi < Fraction("0.5854101967")


def test_binet_data_root2():
    bd = binet_data(expand(make_quadnum(0, 1, 2)))
    assert (bd.t_alpha, bd.s, bd.disc, bd.delta) == (2, 1, 8, 2)
    assert bd.theta1 == make_quadnum(1, 1, 2)
    assert bd.theta2 == make_quadnum(1, -1, 2)
    assert bd.N0 == 0


def test_binet_roots_solve_recurrence_polynomial():
    for coeffs in [(0, 1, 2), (0, 1, 3), (Fraction(6, 17), Fraction(-1, 17), 2)]:
        bd = binet_data(expand(make_quadnum(*coeffs)))
        unit = -1 if bd.s % 2 else 1
        for theta in (bd.theta1, bd.theta2):
            assert theta**2 == bd.t_alpha * theta - unit
        assert bd.theta1 + bd.theta2 == bd.t_alpha
        assert bd.theta1 * bd.theta2 == unit
        assert bd.theta2 == bd.theta1.conjugate()


def test_binet_identity_exact_small_indices():
    for coeffs in [(Fraction(1, 2), Fraction(1, 2), 5), (0, 1, 2), (0, 1, 3)]:
        bd = binet_data(expand(make_quadnum(*coeffs)))
        qs = convergents(bd.cf, bd.r + bd.s * 61)
        for j in range(bd.s):
            pow1 = bd.theta1**0
            pow2 = bd.theta2**0
            for i in range(60):
                lhs = bd.c1[j] * pow1 - bd.c2[j] * pow2
                assert lhs == qs[j + bd.r + bd.s * i]
                pow1 = pow1 * bd.theta1
                pow2 = pow2 * bd.theta2


def test_binet_data_in_a_field_too_large_to_factor():
    """sqrt(1008017)/7: the trace discriminant has a 19-digit cofactor."""
    bd = binet_data(expand(make_quadnum(0, Fraction(1, 7), 1008017)))
    assert bd.delta == 1008017 and bd.theta1.d == 1008017
    assert bd.disc % bd.delta == 0
    qs = convergents(bd.cf, bd.r + bd.s * 11)
    for j in range(bd.s):
        for i in range(11):
            lhs = bd.c1[j] * bd.theta1**i - bd.c2[j] * bd.theta2**i
            assert lhs == qs[j + bd.r + bd.s * i]


def test_binet_data_rejects_a_trace_outside_the_field(monkeypatch):
    cf = expand(make_quadnum(0, 1, 2))
    # t = 5 with s = 1 gives disc = 29, which is no square times 2
    monkeypatch.setattr(cfrac, "period_matrix_trace", lambda cf: 5)
    with pytest.raises(InputError):
        binet_data(cf)


@settings(deadline=None)  # the oracle trial-divides up to 10**6
@given(st.integers(min_value=2, max_value=3000).filter(lambda d: isqrt(d) ** 2 != d))
def test_growth_root_matches_the_factoring_construction(d):
    cf = expand(make_quadnum(0, 1, d))
    assert binet_data(cf).theta1 == theta1_by_factoring(cf)


def test_subseq_term_reads_prefix():
    bd = binet_data(expand(make_quadnum(0, 1, 3)))
    qs = convergents(bd.cf, bd.r + 2 * bd.s)
    for j in range(bd.s):
        for i in (0, 1):
            assert bd.subseq_term(j, i) == qs[j + bd.r + bd.s * i]


def test_binet_n0_is_minimal():
    """N0 is the least index where the lower sandwich holds for every j."""
    for coeffs in [(Fraction(9, 4), Fraction(7, 4), 31), (1, 3, 11), (0, 10, 46)]:
        bd = binet_data(expand(make_quadnum(*coeffs)))

        def holds(i):
            return all(
                (bd.c1[j] * bd.theta1**i - 2 * abs(bd.c2[j]) * abs(bd.theta2) ** i).sign()
                > 0
                for j in range(bd.s)
            )

        assert holds(bd.N0)
        if bd.N0 > 0:
            assert not holds(bd.N0 - 1)


def test_binet_json_shape():
    bd = binet_data(expand(make_quadnum(0, 1, 2)))
    doc = bd.to_json()
    assert doc["t_alpha"] == "2" and doc["disc"] == "8" and doc["delta"] == "2"
    assert set(doc) == {
        "t_alpha",
        "s",
        "r",
        "disc",
        "delta",
        "theta1",
        "theta2",
        "c1",
        "c2",
        "c3",
        "c4",
        "N0",
    }


# ----- shifted recurrence -----


def test_shifted_recurrence_fixtures():
    for coeffs in [(Fraction(1, 2), Fraction(1, 2), 5), (0, 1, 2), (0, 1, 7)]:
        cf = expand(make_quadnum(*coeffs))
        assert verify_shifted_recurrence(cf, cf.r + 2 * cf.s + 100)


def test_shifted_recurrence_needs_the_preperiod_offset():
    # below the preperiodic cutoff the recurrence genuinely fails, which is
    # why verification starts at i = r
    cf = expand(make_quadnum(Fraction(6, 17), Fraction(-1, 17), 2))
    t = period_matrix_trace(cf)
    qs = list(convergents(cf, cf.r + 2 * cf.s + 2))
    unit = -1 if cf.s % 2 else 1
    assert qs[0 + 2 * cf.s] != t * qs[0 + cf.s] - unit * qs[0]
    assert verify_shifted_recurrence(cf, 40)


def test_shifted_recurrence_respects_i_min():
    cf = expand(make_quadnum(Fraction(6, 17), Fraction(-1, 17), 2))
    assert verify_shifted_recurrence(cf, cf.r + 2 * cf.s + 20, i_min=cf.r)


# ----- memoised denominator table -----


def _independent_denominators(cf, n):
    """q_0 .. q_n by the textbook recurrence, from the quotients alone."""
    q_prev, q = 0, 1
    out = [q]
    for i in range(1, n + 1):
        q_prev, q = q, cf.quotient(i) * q + q_prev
        out.append(q)
    return out


@given(
    st.sampled_from(CLASSICAL_EXPANSIONS),
    st.lists(st.integers(min_value=0, max_value=250), min_size=1, max_size=6),
)
def test_denominator_table_matches_recurrence_in_any_query_order(expansion, queries):
    cf = expand(make_quadnum(*expansion[0]))
    for n in queries:
        assert cf.denominators(n) == _independent_denominators(cf, n)
        assert cf.quotients(n) == [cf.quotient(i) for i in range(n + 1)]
        above = cf.denominators_above(n)
        assert above == _independent_denominators(cf, len(above) - 1)
        assert above[-1] > n and all(q <= n for q in above[:-1])


def test_denominator_table_long_then_short_queries():
    cf = expand(make_quadnum(Fraction(6, 17), Fraction(-1, 17), 2))
    reference = _independent_denominators(cf, 200)
    for n in (50, 5, 200, 0, 120):
        assert cf.denominators(n) == reference[: n + 1]
    assert convergents(cf, 200).qs == tuple(reference)
    assert cf.denominators_above(10) == [1, 3, 4, 11]


def test_denominator_table_is_not_part_of_the_value():
    alpha = make_quadnum(0, 1, 7)
    warm, cold = expand(alpha), expand(alpha)
    warm.denominators(300)
    assert warm == cold
    assert hash(warm) == hash(cold)
    assert warm.to_json() == cold.to_json()
    assert "_q" not in repr(warm)
    assert binet_data(warm).to_json() == binet_data(cold).to_json()


# ----- closed-form Binet data against the product construction -----


def _assert_same_binet(bd, ref):
    assert json.dumps(bd.to_json(), sort_keys=True) == json.dumps(ref.to_json(), sort_keys=True)
    assert bd.theta1.coords == ref.theta1.coords and bd.theta2.coords == ref.theta2.coords
    assert [c.coords for c in bd.c1] == [c.coords for c in ref.c1]
    assert [c.coords for c in bd.c2] == [c.coords for c in ref.c2]


@settings(deadline=None, max_examples=60)
@given(
    st.integers(min_value=-60, max_value=60),
    st.integers(min_value=-6, max_value=6).filter(bool),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=2, max_value=5000).filter(lambda d: isqrt(d) ** 2 != d),
    st.sampled_from([128, 512]),
)
def test_closed_form_binet_data_matches_the_products(p, q, r, d, bits):
    cf = expand(make_quadnum(Fraction(p, r), Fraction(q, r), d))
    assume(cf.s <= 60)
    _assert_same_binet(binet_data(cf, bits), binet_data_by_products(cf, bits))


@pytest.mark.parametrize("bits", [128, 512])
def test_closed_form_binet_data_matches_the_products_at_long_period(bits):
    cf = expand(make_quadnum(0, 1, 847893))
    assert cf.s == 324
    _assert_same_binet(binet_data(cf, bits), binet_data_by_products(cf, bits))


UNITS = [
    make_quadnum(Fraction(1, 2), Fraction(1, 2), 5),  # norm -1
    make_quadnum(1, 1, 2),  # norm -1
    make_quadnum(2, 1, 3),  # norm +1
]


@settings(deadline=None)
@given(
    st.sampled_from(UNITS),
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=50),
            st.integers(min_value=-50, max_value=50),
            st.integers(min_value=-5000, max_value=5000),
            st.integers(min_value=-50, max_value=50),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_general_sandwich_index_matches_the_two_power_walk(theta1, entries):
    """Synthetic c1/c2 with 2|c2| >= c1 reach N0 > 0, which no real field does."""
    d = theta1.d
    c1 = [QuadNum(a, Fraction(b, 100), d) for a, b, _, _ in entries]
    c2 = [QuadNum(a, Fraction(b, 100), d) for _, _, a, b in entries]
    assume(all(u > 0 for u in c1))
    n0 = cfrac._least_sandwich_index(theta1, c1, c2)
    assert n0 == least_sandwich_index_by_powers(theta1, theta1.conjugate(), c1, c2)


def test_general_sandwich_index_is_positive_when_c2_dominates():
    theta1 = make_quadnum(1, 1, 2)
    c1 = [make_quadnum(1, 0, 2), make_quadnum(3, 1, 2)]
    c2 = [make_quadnum(-1000, 0, 2), make_quadnum(1, 0, 2)]
    n0 = cfrac._least_sandwich_index(theta1, c1, c2)
    assert n0 == least_sandwich_index_by_powers(theta1, theta1.conjugate(), c1, c2) == 5


@pytest.mark.parametrize("coeffs", [(0, 1, 2), (Fraction(6, 17), Fraction(-1, 17), 2), (1, 3, 11), (0, 1, 7)])
def test_binet_data_takes_the_general_sandwich_path(monkeypatch, coeffs):
    cf = expand(make_quadnum(*coeffs))
    monkeypatch.setattr(cfrac, "_sandwich_at_zero", lambda *args: False)
    _assert_same_binet(binet_data(cf), binet_data_by_products(cf))


def _near_zero_pairs(d, n):
    """(-p_i, q_i) over the convergents p_i/q_i of sqrt(d): p_i - q_i sqrt(d) tends to 0."""
    cf = expand(make_quadnum(0, 1, d))
    ps = [1, cf.a0]
    for a in cf.quotients(n)[1:]:
        ps.append(a * ps[-1] + ps[-2])
    return [(-p, q) for p, q in zip(ps[1:], cf.denominators(n))]


@settings(deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7, 981451]),
    st.integers(min_value=1, max_value=3000),
    st.integers(min_value=-3000, max_value=3000),
)
def test_sandwich_at_zero_is_two_c2_below_c1(d, x, y):
    c1, c2 = QuadNum(x, y, d), QuadNum(-x, y, d)
    assert cfrac._sandwich_at_zero([x], [y], d, isqrt(d << 128)) == (2 * abs(c2) < c1)


def test_sandwich_at_zero_at_both_edges():
    # sqrt(2) = 1.414...: 2|c2| < c1 iff X/3 < Y sqrt(2) < 3X
    root = isqrt(2 << 128)
    assert cfrac._sandwich_at_zero([4, 1], [1, 2], 2, root)
    assert not cfrac._sandwich_at_zero([5], [1], 2, root)  # 3 sqrt(2) < 5
    assert not cfrac._sandwich_at_zero([1], [3], 2, root)  # 3 sqrt(2) > 3


@pytest.mark.parametrize("d", [2, 7, 61, 981451])
def test_bracketed_sign_agrees_with_the_exact_sign(d):
    root = isqrt(d << 128)
    pairs = _near_zero_pairs(d, 120)
    pairs += [(a * k, b * k) for a, b in pairs[-3:] for k in (-1, 3)]
    pairs += [(5, 0), (-5, 0), (0, 0), (0, 3), (0, -3)]
    for a, b in pairs:
        assert cfrac._positive(a, b, d, root) == (_surd_sign(a, b, d) > 0), (a, b)
