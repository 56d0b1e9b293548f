"""Effective-bound pipelines: constant assembly, grid walk, and the three routes."""

import functools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfpow.bounds import (
    BoundReport,
    ConstantLedger,
    elementary_constants,
    nonvanishing_check,
    petho_preconditions,
    theorem_ham2_bound,
    theorem_ham_bound,
    theorem_y_bound,
    walk_closed_form,
)
from cfpow.cfrac import binet_data, expand
from cfpow.errors import InapplicableError, InputError
from cfpow.quadfield import DyadicInterval, dyadic_decimal_str, make_quadnum
from oracles import WalkPathError, WalkState, contains, midpoint, walk_simulate

# assembled constants for the two reference expansions, frozen from an
# independent high-precision evaluation of the defining formulas
GOLDEN_ZECK_K2 = {
    "c5": 1.5798241137277131,
    "c6": 2.2792044143517733,
    "c7": 5.051155980817281,
    "c8": 3.2830118285892795,
    "c9": 24759334242687.82,
    "c10": 136868539793037.03,
    "c11": 7.862554655644856e22,
    "C12": 1.633907199739115e23,
    "tail_coeff": 4.291796067500631,
}
ROOT2_RADIX_B10_K2 = {
    "c5": 2.3265594659676254,
    "c6": 3.356515803884768,
    "c7p": 1.0104119378895162,
    "c8p": 3.8589735746037728,
    "c9": 63258639969415.02,
    "c10": 216212013038929.2,
    "c11": 1.6942162604758615e23,
    "C12": 1.9222453286863647e23,
    "tail_coeff": 4.058874503045719,
}


def near(iv: DyadicInterval, x: float, tol: float = 1e-9) -> bool:
    return abs(float(midpoint(iv)) - x) <= tol * max(1.0, abs(x))


def int_digits(iv: DyadicInterval) -> str:
    return dyadic_decimal_str(iv.hi).split(".")[0]


# ----- constant assembly -----


def test_golden_zeckendorf_constants(golden_bd):
    led = elementary_constants(golden_bd, 2, variant="zeckendorf")
    for name, expected in GOLDEN_ZECK_K2.items():
        assert near(getattr(led, name), expected), name
    assert led.c7p is None and led.c8p is None and led.b is None


def test_root2_radix_constants(root2_bd):
    led = elementary_constants(root2_bd, 2, variant="radix", b=10)
    for name, expected in ROOT2_RADIX_B10_K2.items():
        assert near(getattr(led, name), expected), name
    assert led.c7 is None and led.c8 is None
    assert led.b.lo == led.b.hi == 10


def test_c5_c6_are_log2_rescalings(golden_bd, root2_bd):
    for bd, variant, b in [(golden_bd, "zeckendorf", None), (root2_bd, "radix", 10)]:
        led = elementary_constants(bd, 2, variant=variant, b=b)
        prod = led.c6 * DyadicInterval.from_int(2).log()
        assert prod.lo <= led.c5.hi and led.c5.lo <= prod.hi


def test_constants_grow_with_K(root2_bd):
    l2 = elementary_constants(root2_bd, 2, variant="zeckendorf")
    l5 = elementary_constants(root2_bd, 5, variant="zeckendorf")
    assert l5.c5.lo > l2.c5.lo
    assert l5.c9.lo > l2.c9.lo
    assert l5.C12.lo > l2.C12.lo


def test_elementary_constants_validation(golden_bd):
    with pytest.raises(InputError):
        elementary_constants(golden_bd, 0, variant="zeckendorf")
    with pytest.raises(InputError):
        elementary_constants(golden_bd, 2, variant="radix")  # missing base
    with pytest.raises(InputError):
        elementary_constants(golden_bd, 2, variant="powers-of-two")


def test_ledger_json_key_sets(golden_bd, root2_bd):
    zeck = elementary_constants(golden_bd, 2, variant="zeckendorf").to_json()
    assert list(zeck) == ["c5", "c6", "c7", "c8", "c9", "c10", "c11", "C12", "tail_coeff"]
    radix = elementary_constants(root2_bd, 2, variant="radix", b=10).to_json()
    assert list(radix) == [
        "c5",
        "c6",
        "c7p",
        "c8p",
        "c9",
        "c10",
        "c11",
        "C12",
        "tail_coeff",
        "b",
    ]
    assert set(zeck["c5"]) == {"lo", "hi"}


def _minimal_ledger(**overrides):
    one = DyadicInterval.from_int(1)
    fields = dict(
        c5=one,
        c6=one,
        c9=one,
        c10=DyadicInterval.from_int(11),
        c11=one,
        C12=one,
        tail_coeff=one,
    )
    fields.update(overrides)
    return ConstantLedger(**fields)


def test_ledger_guards_transfer_preconditions():
    _minimal_ledger()  # c10 = 11 > e^2 / log 2 passes
    with pytest.raises(InputError):
        _minimal_ledger(c10=DyadicInterval.from_int(10))
    with pytest.raises(InputError):
        _minimal_ledger(C12=DyadicInterval.from_fraction(Fraction(1, 2)))


# ----- applicability -----


def test_petho_preconditions_hold_for_fixtures(golden_bd, root2_bd):
    assert petho_preconditions(golden_bd)
    assert petho_preconditions(root2_bd)


def test_nonvanishing_check(golden_bd, root2_bd):
    assert not nonvanishing_check(golden_bd, "zeckendorf")
    assert nonvanishing_check(root2_bd, "zeckendorf")
    assert nonvanishing_check(golden_bd, "radix")
    with pytest.raises(InputError):
        nonvanishing_check(golden_bd, "fibonacci")


# ----- grid walk -----


def test_walk_worked_example():
    state = walk_simulate(2, 2, 10, 2)
    assert state.u == (1, 20, 800, 1280000)
    assert (state.j, state.v, state.w) == (3, 3, 3)
    for path in (["down", "right"], ["right", "down"]):
        assert walk_simulate(2, 2, 10, 2, path=path).u[-1] == 1280000


def test_walk_partial_path():
    state = walk_simulate(3, 2, 10, 2, path=["down"])
    assert state.u == (1, 20, 800)
    assert (state.v, state.w) == (3, 2)


def test_walk_exact_rational_arithmetic():
    state = walk_simulate(2, 2, Fraction(3, 2), 1)
    assert isinstance(state.u[-1], Fraction)
    # u2 = c*2*1*u1*u0*g, u3 = c*2*2*u2*u1*g with c = 3/2, g = 1
    assert state.u == (Fraction(1), Fraction(3, 2), Fraction(9, 2), Fraction(81, 2))


def test_walk_interval_mode_contains_exact():
    exact = walk_simulate(3, 3, 10, 2)
    interval = walk_simulate(
        3, 3, DyadicInterval.from_int(10), DyadicInterval.from_int(2)
    )
    for e, iv in zip(exact.u, interval.u):
        assert contains(iv, e)


def test_walk_path_errors():
    with pytest.raises(WalkPathError):
        walk_simulate(2, 2, 10, 2, path=["down", "down"])  # past the grid edge
    with pytest.raises(WalkPathError):
        walk_simulate(2, 2, 10, 2, path=["down", "right", "down", "right"])
    with pytest.raises(WalkPathError):
        walk_simulate(2, 2, 10, 2, path=["sideways"])
    with pytest.raises(WalkPathError):
        walk_simulate(2, 2, 10, 2, path="zigzag")


def test_walk_seed_condition():
    with pytest.raises(InputError):
        walk_simulate(2, 2, Fraction(1, 4), 2)
    walk_simulate(2, 2, Fraction(1, 2), 2)  # product exactly 1 is allowed


def test_walk_rejects_degenerate_grid():
    with pytest.raises(InputError):
        walk_simulate(1, 2, 10, 2)
    with pytest.raises(InputError):
        walk_simulate(2, 1, 10, 2)


def test_walk_state_invariants():
    with pytest.raises(InputError):
        WalkState(j=1, v=3, w=3, u=(Fraction(1), Fraction(2)))  # v+w != j+3
    with pytest.raises(InputError):
        WalkState(j=1, v=2, w=2, u=(Fraction(1),))  # missing entry
    with pytest.raises(InputError):
        WalkState(j=1, v=2, w=2, u=(Fraction(2), Fraction(3)))  # u[0] != 1
    with pytest.raises(InputError):
        WalkState(j=1, v=2, w=2, u=(Fraction(1), Fraction(1, 2)))  # decreasing


def test_walk_closed_form_worked_instance():
    assert walk_closed_form(2, 2, 10, 2, 3) == 2560000
    assert walk_simulate(2, 2, 10, 2).u[3] <= 2560000


def test_walk_closed_form_dominates_every_step():
    for k, ell in [(2, 3), (3, 2), (3, 3), (4, 2)]:
        state = walk_simulate(k, ell, 10, 2)
        for j, u in enumerate(state.u):
            assert u <= walk_closed_form(k, ell, 10, 2, j), (k, ell, j)


# ----- single-power route -----


def test_theorem_y_root2(root2_bd):
    rep = theorem_y_bound(root2_bd, 2, 2)
    assert rep.case == "main"
    digits = int_digits(rep.n1_bound)
    assert len(digits) == 33 and digits.startswith("399303")
    assert dict(rep.per_k).keys() == {1, 2}
    assert rep.field_not_Q_sqrt5
    assert rep.petho_preconditions_ok


def test_theorem_y_golden(golden_bd):
    rep = theorem_y_bound(golden_bd, 2, 3864)
    digits = int_digits(rep.n1_bound)
    assert len(digits) == 35 and digits.startswith("255576")
    assert not rep.field_not_Q_sqrt5
    # the known solution q_35 + q_11 = 3864^2 sits far below the bound
    assert rep.n1_bound.hi > 35


def test_theorem_y_secondary_bounds_are_rescalings(root2_bd):
    rep = theorem_y_bound(root2_bd, 2, 2)
    a_ratio = midpoint(rep.a_bound) / midpoint(rep.n1_bound)
    assert abs(float(a_ratio) - float(midpoint(rep.ledger.c6))) < 1e-6
    log_ratio = midpoint(rep.log_ya_bound) / midpoint(rep.n1_bound)
    assert abs(float(log_ratio) - float(midpoint(rep.ledger.c5))) < 1e-6


def test_theorem_y_monotone_in_y(root2_bd):
    bounds = [
        theorem_y_bound(root2_bd, 2, y).n1_bound.hi for y in (2, 10, 100)
    ]
    assert bounds[0] <= bounds[1] <= bounds[2]


def test_theorem_y_dominated_by_per_k(root2_bd):
    rep = theorem_y_bound(root2_bd, 2, 2)
    assert rep.n1_bound.hi >= max(iv.hi for _, iv in rep.per_k)


def test_theorem_y_validation(root2_bd):
    with pytest.raises(InputError):
        theorem_y_bound(root2_bd, 2, 1)
    with pytest.raises(InputError):
        theorem_y_bound(root2_bd, 0, 2)


# ----- Hamming-weight routes -----


def test_theorem_ham_root2(root2_bd):
    rep = theorem_ham_bound(root2_bd, 2, 2)
    assert rep.case == "main"
    digits = int_digits(rep.n1_bound)
    assert len(digits) == 260 and digits.startswith("333806")
    assert [k for k, _ in rep.per_k] == [2]


def test_theorem_ham_grows_with_weight(root2_bd):
    b2 = theorem_ham_bound(root2_bd, 2, 2).n1_bound.hi
    b3 = theorem_ham_bound(root2_bd, 2, 3).n1_bound.hi
    assert b3 > b2


def test_theorem_ham_rejects_golden_field(golden_bd):
    with pytest.raises(InapplicableError):
        theorem_ham_bound(golden_bd, 2, 2)


def test_theorem_ham_single_term_case(root2_bd):
    rep = theorem_ham_bound(root2_bd, 1, 2)
    assert rep.case == "k_equals_one"
    assert rep.per_k == ()
    assert rep.n1_bound.hi == 3


def test_theorem_ham2_golden(golden_bd):
    rep = theorem_ham2_bound(golden_bd, 2, 2, 10)
    assert rep.case == "main"
    digits = int_digits(rep.n1_bound)
    assert len(digits) == 257 and digits.startswith("434401")
    assert rep.ledger.b.lo == 10
    assert rep.field_not_Q_sqrt5 is False
    assert rep.petho_preconditions_ok


def test_theorem_ham2_validation(golden_bd, root2_bd):
    with pytest.raises(InputError):
        theorem_ham2_bound(golden_bd, 2, 2, 1)
    rep = theorem_ham2_bound(root2_bd, 1, 2, 2)
    assert rep.case == "k_equals_one"


# ----- report serialization -----


def test_report_json_shape(root2_bd):
    rep = theorem_y_bound(root2_bd, 2, 2)
    doc = rep.to_json()
    assert set(doc) == {
        "ledger",
        "n1_bound",
        "a_bound",
        "log_ya_bound",
        "case",
        "applicability",
        "per_k",
    }
    assert doc["n1_bound"] == dyadic_decimal_str(rep.n1_bound.hi)
    assert set(doc["applicability"]) == {"field_not_Q_sqrt5", "petho_preconditions_ok"}
    assert set(doc["per_k"]) == {"1", "2"}


def test_reports_are_deterministic(root2_bd):
    import json

    one = json.dumps(theorem_ham_bound(root2_bd, 2, 2).to_json(), sort_keys=True)
    two = json.dumps(theorem_ham_bound(root2_bd, 2, 2).to_json(), sort_keys=True)
    assert one == two


# ----- report reading -----

_FIELDS = {
    "sqrt2": (0, 1, 2),
    "sqrt7": (0, 1, 7),
    "mixed": (Fraction(6, 17), Fraction(-1, 17), 2),
    "golden": (Fraction(1, 2), Fraction(1, 2), 5),
}


@functools.lru_cache(maxsize=None)
def _bd(field, bits):
    return binet_data(expand(make_quadnum(*_FIELDS[field])), bits)


def _round_trips(rep):
    doc = json.loads(json.dumps(rep.to_json()))
    assert BoundReport.from_json(doc).to_json() == rep.to_json()


_field_bits = st.tuples(st.sampled_from(sorted(_FIELDS)), st.sampled_from([64, 128, 512]))


@settings(max_examples=25, deadline=None)
@given(_field_bits, st.integers(1, 4), st.integers(2, 10**6))
def test_y_report_round_trips(field_bits, K, y):
    _round_trips(theorem_y_bound(_bd(*field_bits), K, y))


@settings(max_examples=25, deadline=None)
@given(_field_bits, st.integers(1, 4), st.integers(2, 3))
def test_ham_report_round_trips(field_bits, K, ell):
    try:
        rep = theorem_ham_bound(_bd(*field_bits), K, ell)
    except InapplicableError:
        assert field_bits[0] == "golden"
        return
    _round_trips(rep)


@settings(max_examples=25, deadline=None)
@given(_field_bits, st.integers(1, 4), st.integers(2, 3), st.integers(2, 16))
def test_ham2_report_round_trips(field_bits, K, ell, b):
    _round_trips(theorem_ham2_bound(_bd(*field_bits), K, ell, b))


def test_report_reader_rejects_what_a_pipeline_cannot_produce(root2_bd):
    doc = theorem_y_bound(root2_bd, 2, 2).to_json()
    bad_case = dict(doc, case="maybe")
    low_c10 = dict(doc, ledger=dict(doc["ledger"], c10={"lo": "7", "hi": "7"}))
    low_C12 = dict(doc, ledger=dict(doc["ledger"], C12={"lo": "0.5", "hi": "0.5"}))
    unknown_constant = dict(doc, ledger=dict(doc["ledger"], c13={"lo": "1", "hi": "1"}))
    non_dyadic = dict(doc, n1_bound="0.1")
    for broken in (bad_case, low_c10, low_C12, unknown_constant, non_dyadic, [], {}, dict(doc, per_k=[])):
        with pytest.raises(InputError):
            BoundReport.from_json(broken)
