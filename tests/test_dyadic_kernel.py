"""The integer-endpoint interval kernel against the Fraction-endpoint oracle.

``DyadicInterval`` stores each endpoint as an integer pair (m, e) meaning
m * 2**e.  ``oracles.FractionInterval`` is the same class on Fraction
endpoints, as it stood before the integer kernel.  Every operation must give
the same endpoints, the same precision and the same exceptions, since the
certified report bytes are built from them.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfpow.bounds import theorem_ham_bound
from cfpow.errors import InputError
from cfpow.quadfield import DyadicInterval, _int_nthroot
from oracles import FractionInterval, _round_up, newton_nthroot

BITS = st.sampled_from([32, 64, 128, 512])


def _dyadic(m, e):
    return Fraction(m) * Fraction(2) ** e


dyadics = st.one_of(
    st.just(Fraction(0)),
    st.integers(-8, 8).map(Fraction),
    # mantissas up to 300 bits, exponents far apart
    st.builds(_dyadic, st.integers(-(2**300), 2**300), st.integers(-400, 400)),
)
rationals = st.one_of(
    dyadics,
    st.fractions(max_denominator=10**6),
    st.builds(Fraction, st.integers(-(2**200), 2**200), st.integers(1, 2**150)),
)


@st.composite
def endpoints(draw, elements=dyadics):
    a = draw(elements)
    b = draw(st.one_of(st.just(a), elements))  # point intervals come often
    return min(a, b), max(a, b)


def build(cls, ends, bits):
    return cls(ends[0], ends[1], bits)


def outcome(f, cls):
    """f(cls), or the type of the toolkit exception it raised."""
    try:
        return f(cls)
    except (InputError, ZeroDivisionError) as exc:
        return type(exc)


def same(f):
    new, old = outcome(f, DyadicInterval), outcome(f, FractionInterval)
    if isinstance(new, DyadicInterval):
        assert isinstance(old, FractionInterval)
        assert (new.lo, new.hi, new.precision_bits) == (old.lo, old.hi, old.precision_bits)
        assert new.to_json() == old.to_json()
    else:
        assert new == old
    return new


@settings(deadline=None)
@given(endpoints(rationals), rationals, st.integers(-(2**100), 2**100), BITS)
def test_constructors_match_the_oracle(ends, x, n, bits):
    same(lambda cls: cls.from_int(n, bits))
    same(lambda cls: cls.from_fraction(x, bits))
    same(lambda cls: cls.from_endpoints(ends[0], ends[1], bits))
    same(lambda cls: cls.from_endpoints(ends[1], ends[0], bits))  # empty unless equal
    same(lambda cls: cls(ends[0], ends[1], bits))  # refused unless both are dyadic
    same(lambda cls: cls(ends[1], ends[0], bits))


operands = st.one_of(
    st.tuples(endpoints(), BITS),
    st.integers(-1000, 1000),
    st.fractions(max_denominator=10**6),
)


def lifted(cls, other):
    return build(cls, *other) if isinstance(other, tuple) else other


@settings(deadline=None)
@given(endpoints(), BITS, operands)
def test_arithmetic_matches_the_oracle(ends, bits, other):
    for op in (
        lambda x, y: x + y,
        lambda x, y: y + x,
        lambda x, y: x - y,
        lambda x, y: y - x,
        lambda x, y: x * y,
        lambda x, y: y * x,
        lambda x, y: x / y,
        lambda x, y: y / x,
    ):
        same(lambda cls: op(build(cls, ends, bits), lifted(cls, other)))
    same(lambda cls: -build(cls, ends, bits))
    same(lambda cls: abs(build(cls, ends, bits)))


@settings(deadline=None)
@given(endpoints(), BITS, st.integers(-6, 6))
def test_powi_matches_the_oracle(ends, bits, n):
    same(lambda cls: build(cls, ends, bits).powi(n))


@settings(deadline=None)
@given(endpoints(), BITS, st.integers(1, 12))
def test_root_matches_the_oracle(ends, bits, n):
    same(lambda cls: build(cls, ends, bits).root(n))
    same(lambda cls: abs(build(cls, ends, bits)).root(n))


small = st.builds(_dyadic, st.integers(-(2**60), 2**60), st.integers(-70, -50))  # |x| < 2**10


@settings(deadline=None)
@given(endpoints(), endpoints(small), BITS)
def test_log_exp_match_the_oracle(ends, small_ends, bits):
    same(lambda cls: build(cls, ends, bits).log())
    same(lambda cls: abs(build(cls, ends, bits)).log())
    same(lambda cls: build(cls, small_ends, bits).exp())


@settings(deadline=None)
@given(endpoints(), BITS, operands)
def test_lattice_and_comparisons_match_the_oracle(ends, bits, other):
    same(lambda cls: build(cls, ends, bits).max(lifted(cls, other)))
    same(lambda cls: build(cls, ends, bits).min(lifted(cls, other)))
    for name in ("compare", "definitely_lt", "definitely_gt", "definitely_le", "definitely_ge"):
        same(lambda cls: getattr(build(cls, ends, bits), name)(lifted(cls, other)))


def test_division_rounds_the_exact_extreme_once():
    # a division from the sqrt(7), K = 4 bound pipeline at 128 bits: the
    # largest quotient rounds up to a lower value than the next largest,
    # because its reduced fraction sits on a finer grid
    num = (
        Fraction(531260290497878907018158943856976771517, 2**48),
        Fraction(265630145248939453509079471928488385767, 2**47),
    )
    den = (
        Fraction(654991595286505723628366422456956027405, 2**130),
        Fraction(327495797643252861814183211228478013703, 2**129),
    )
    got = same(lambda cls: build(cls, num, 128) / build(cls, den, 128))
    each_first = max(_round_up(a / b, 128) for a in num for b in den)
    assert got.hi == _round_up(max(a / b for a in num for b in den), 128)
    assert got.hi != each_first


def test_endpoints_are_integer_pairs():
    iv = DyadicInterval.from_fraction(Fraction(1, 3), 64) * 12
    assert "lo" not in DyadicInterval.__slots__ and "hi" not in DyadicInterval.__slots__
    for name in ("_lo", "_hi"):
        m, e = getattr(iv, name)
        assert type(m) is int and type(e) is int and (m % 2 == 1 or (m, e) == (0, 0))
    assert isinstance(iv.lo, Fraction) and isinstance(iv.hi, Fraction)


@pytest.mark.parametrize("name", ["max", "min", "compare", "definitely_lt", "definitely_gt",
                                  "definitely_le", "definitely_ge"])
@pytest.mark.parametrize("other", ["1", None, 0.5, [1]])
def test_comparisons_reject_non_interval_operands(name, other):
    with pytest.raises(TypeError):
        getattr(DyadicInterval.from_int(1), name)(other)


def test_float_endpoints_are_refused():
    with pytest.raises(InputError):
        DyadicInterval(0.1, 0.5)
    with pytest.raises(InputError):
        DyadicInterval(0, 0.5)
    with pytest.raises(InputError):
        DyadicInterval.from_fraction(0.25)
    with pytest.raises(InputError):
        DyadicInterval.from_endpoints(0.25, 1)
    with pytest.raises(InputError):
        DyadicInterval.from_endpoints(0, 1.5)


def test_repr_prints_endpoints_beyond_float_range(root2_bd):
    big = DyadicInterval(Fraction(2) ** 5000, Fraction(3) * Fraction(2) ** 5000)
    assert repr(big) == "DyadicInterval(1.412467032139426e+1505, 4.2374010964182781e+1505, bits=128)"
    tiny = DyadicInterval(-Fraction(2) ** -5000, 0, 64)
    assert repr(tiny) == "DyadicInterval(-7.0798112610481729e-1506, 0.0, bits=64)"
    report = theorem_ham_bound(root2_bd, 4, 5)
    assert report.n1_bound.hi > 2**1024
    assert "e+6364" in repr(report.n1_bound)
    assert repr(report).startswith("BoundReport(")


# ----- integer n-th roots -----


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 200), st.data())
def test_int_nthroot_matches_the_newton_oracle(n, data):
    y = data.draw(st.integers(1, 2 ** (100_000 // n)), label="y")
    for m in (y**n - 1, y**n, y**n + 1):
        assert _int_nthroot(m, n) == newton_nthroot(m, n)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**2000), st.integers(1, 200))
def test_int_nthroot_is_the_floor_root(m, n):
    r = _int_nthroot(m, n)
    assert r**n <= m < (r + 1) ** n


@pytest.mark.parametrize("n", [3, 7, 136, 200])
def test_int_nthroot_on_hundred_thousand_bit_radicands(n):
    y = (1 << (100_000 // n)) - 12345
    for m in (y**n - 1, y**n, y**n + 1):
        assert _int_nthroot(m, n) == newton_nthroot(m, n)
