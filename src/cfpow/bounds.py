"""Explicit constants and the three effective bound pipelines.

The pipelines share one skeleton: certify a lower bound for a linear form
in logarithms, play it against the geometric decay of the conjugate terms
of the denominator subsequence, and transfer the resulting "x is below a
power of log x" inequality into a closed bound.  The first pipeline
treats a known power base.  The other two eliminate an unknown base
through its digit expansion (a sum of Fibonacci numbers, or a sum of
base-b digit terms) and walk a double-indexed grid of linear forms to
decouple the base-side subscript from the denominator-side subscript.

Every constant is a certified interval enclosure assembled from the
Matveev evaluators and the exact height machinery; reported bounds are
upper endpoints.  Degenerate situations (a vanishing linear form, a
subscript below the sandwich threshold, a single repeated denominator)
contribute separate branches, and each report records which branch won.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .cfrac import BinetData
from .errors import InapplicableError, InputError, PrecisionError
from .heights import delta3_height_bound, height_quadratic, log_plus
from .linforms import LinFormInstance, clamp_a, matveev_gamma_bound, matveev_lambda_bound, pw_transfer
from .numeration import fibonacci
from .quadfield import DyadicInterval, QuadNum, decimal_to_fraction, dyadic_decimal_str

_CASES = ("main", "gamma_equals_one", "k_equals_one", "below_N0")


def _pos(x: DyadicInterval, what: str) -> DyadicInterval:
    if not x.definitely_gt(0):
        raise PrecisionError(f"enclosure of {what} touches zero; raise the precision")
    return x


def _exp2(bits: int) -> DyadicInterval:
    return DyadicInterval.from_int(2, max(bits, 64)).exp()


def _interval(lo: str, hi: str) -> DyadicInterval:
    return DyadicInterval(decimal_to_fraction(lo), decimal_to_fraction(hi))


@dataclass(frozen=True)
class ConstantLedger:
    """Named interval constants shared by the bound pipelines.

    ``c5``/``c6`` convert the leading subscript into bounds on log(y^a)
    and on the exponent a; ``c7``/``c8`` (Fibonacci) and ``c7p``/``c8p``
    (base-b) tie the digit-side subscript to the denominator-side one;
    ``c9``/``c10`` drive the known-base pipeline, ``c11``/``C12`` the two
    walk pipelines.  ``tail_coeff`` bounds |Gamma - 1| by a multiple of
    theta1^-(gap) and feeds the small-gap absorbers.
    """

    c5: DyadicInterval
    c6: DyadicInterval
    c9: DyadicInterval
    c10: DyadicInterval
    c11: DyadicInterval
    C12: DyadicInterval
    tail_coeff: DyadicInterval
    c7: DyadicInterval | None = None
    c8: DyadicInterval | None = None
    c7p: DyadicInterval | None = None
    c8p: DyadicInterval | None = None
    b: DyadicInterval | None = None

    def __post_init__(self):
        # both floors are what lets the transfer lemma and the walk run at all
        bits = max(self.c10.precision_bits, 64)
        floor = _exp2(bits) / DyadicInterval.from_int(2, bits).log()
        if not self.c10.definitely_gt(floor):
            raise InputError("c10 must exceed e^2/log 2")
        log3 = DyadicInterval.from_int(3, bits).log()
        if not (self.C12 * log3).definitely_ge(1):
            raise InputError("C12 too small: the walk seed u(1) would drop below u(0)")

    def to_json(self) -> dict:
        names = ("c5", "c6", "c7", "c8", "c7p", "c8p", "c9", "c10", "c11", "C12",
                 "tail_coeff", "b")
        out = {}
        for name in names:
            value = getattr(self, name)
            if value is not None:
                out[name] = value.to_json()
        return out


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one pipeline run: certified bounds plus provenance.

    ``case`` names the branch that achieved the maximum.  The two
    applicability flags are properties of the input field checked up
    front; a false ``field_not_Q_sqrt5`` makes the Fibonacci pipeline
    refuse to run, and ``petho_preconditions_ok`` is asserted for the
    single-denominator routing.
    """

    ledger: ConstantLedger
    n1_bound: DyadicInterval
    a_bound: DyadicInterval
    log_ya_bound: DyadicInterval
    case: str
    field_not_Q_sqrt5: bool
    petho_preconditions_ok: bool
    per_k: tuple[tuple[int, DyadicInterval], ...] = ()

    def __post_init__(self):
        if self.case not in _CASES:
            raise InputError(f"unknown report case {self.case!r}")
        if self.case == "main":
            for value in (self.n1_bound, self.a_bound, self.log_ya_bound):
                if not value.definitely_gt(0):
                    raise InputError("main-case bounds must be positive")

    def to_json(self) -> dict:
        return {
            "ledger": self.ledger.to_json(),
            "n1_bound": dyadic_decimal_str(self.n1_bound.hi),
            "a_bound": dyadic_decimal_str(self.a_bound.hi),
            "log_ya_bound": dyadic_decimal_str(self.log_ya_bound.hi),
            "case": self.case,
            "applicability": {
                "field_not_Q_sqrt5": self.field_not_Q_sqrt5,
                "petho_preconditions_ok": self.petho_preconditions_ok,
            },
            "per_k": {str(k): dyadic_decimal_str(v.hi) for k, v in self.per_k},
        }

    @classmethod
    def from_json(cls, doc: dict) -> "BoundReport":
        """Inverse of ``to_json``, ledger included: the one report reader.

        Bounds come back as point intervals at the upper endpoints that
        ``to_json`` keeps.  The ledger floors and the case are checked as
        for a computed report; malformed input raises "invalid-input".
        """
        try:
            ledger = {name: _interval(v["lo"], v["hi"]) for name, v in doc["ledger"].items()}
            flags = doc["applicability"]
            return cls(
                ConstantLedger(**ledger),
                *(_interval(doc[key], doc[key]) for key in ("n1_bound", "a_bound", "log_ya_bound")),
                doc["case"],
                flags["field_not_Q_sqrt5"],
                flags["petho_preconditions_ok"],
                tuple((int(k), _interval(v, v)) for k, v in doc["per_k"].items()),
            )
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise InputError(f"malformed report: {exc!r}") from None


def petho_preconditions(bd: BinetData) -> bool:
    """Exact-integer check of the single-denominator routing hypotheses.

    The trace discriminant must not be a perfect square and the squared
    trace must avoid the four smallest signed values; both always hold
    for non-degenerate data, so this is an executable assertion.
    """
    unit = -1 if bd.s % 2 else 1
    if bd.disc >= 0 and isqrt(bd.disc) ** 2 == bd.disc:
        return False
    return all(bd.t_alpha * bd.t_alpha != j * unit for j in (1, 2, 3, 4))


def nonvanishing_check(bd: BinetData, variant: str) -> bool:
    """Whether the walk pipeline's linear forms are certified nonzero.

    The Fibonacci variant needs the growth field to differ from the
    golden one; the base-b variant settles vanishing by rationality and
    needs no condition at all.
    """
    if variant == "zeckendorf":
        return bd.delta != 5
    if variant == "radix":
        return True
    raise InputError(f"unknown variant {variant!r}")


def _abs_log(x: DyadicInterval) -> DyadicInterval:
    return abs(x.log())


def _growth_enclosures(bd: BinetData) -> tuple[DyadicInterval, DyadicInterval, DyadicInterval]:
    """theta1, min_j c1 and max_j |c2|, each certified positive."""
    bits = bd.precision_bits
    theta1 = _pos(bd.theta1.enclose(bits), "theta1")
    c1min = _pos(bd.c4 * 2, "min_j c1")
    c2max = _pos(max(abs(c) for c in bd.c2).enclose(bits), "max_j |c2|")
    return theta1, c1min, c2max


def elementary_constants(
    bd: BinetData,
    K: int,
    variant: str = "zeckendorf",
    b: int | None = None,
) -> ConstantLedger:
    """Assemble every interval constant one pipeline run needs.

    ``K`` caps the number of denominator summands.  The variant selects
    which digit expansion ties the base to the leading subscript; only
    the base-b variant needs ``b``.
    """
    if K < 1:
        raise InputError(f"summand cap must be >= 1, got {K}")
    if variant not in ("zeckendorf", "radix"):
        raise InputError(f"unknown variant {variant!r}")
    if variant == "radix" and (b is None or b < 2):
        raise InputError("the base-b variant needs b >= 2")
    bits = bd.precision_bits
    one = DyadicInterval.from_int(1, bits)
    log2 = DyadicInterval.from_int(2, bits).log()
    log3 = DyadicInterval.from_int(3, bits).log()
    theta1, c1min, c2max = _growth_enclosures(bd)
    log_t1 = theta1.log()
    c1max = _pos(max(bd.c1).enclose(bits), "max_j c1")
    c3 = bd.c3

    c5 = log_plus(c3 * K, bits) + log_t1
    c6 = c5 / log2
    inv_c4 = log_plus(one / _pos(bd.c4, "c4"), bits)

    phi = QuadNum(Fraction(1, 2), Fraction(1, 2), 5)
    phi_enc = phi.enclose(bits)
    log_phi = phi_enc.log()
    c7 = c8 = c7p = c8p = b_enc = None
    if variant == "zeckendorf":
        phi2 = (phi * phi).enclose(bits)
        c7 = (log_plus(c3 * K * phi2, bits) + log_t1) / log_phi
        c8 = ((log_phi + inv_c4) / log_t1).max(1)
    else:
        b_enc = DyadicInterval.from_int(b, bits)
        log_b = b_enc.log()
        c7p = (log_plus(c3 * K, bits) + log_t1) / log_b
        c8p = ((log_b + inv_c4) / log_t1).max(1)

    # coefficient of theta1^-(gap) in the tail of the subsequence sum; the
    # q_r term absorbs summands that sit below the preperiod
    q_r = bd.subseq_term(0, 0)
    tail_coeff = (c2max + c3 + DyadicInterval.from_int(q_r, bits)) * K / c1min

    # per-gap height envelope of the truncated subsequence sum (K summands
    # of multiplicity one), and the two-sided log envelope of its value
    d3 = delta3_height_bound(K, (1,) * K, (0,) * K, bd, bits)
    d3_unit, h_t1 = d3.unit_coefficient, d3.theta1_height
    l_delta3 = _abs_log(c1min).max(_abs_log(c1max * K))

    # known-base pipeline: degree-2 form in three logarithms; the digit
    # count w <= K folds into the third height slot
    a3_coef = clamp_a((d3_unit * 2).max(l_delta3))
    inst_y = LinFormInstance(
        T=3,
        D=2,
        A=(DyadicInterval.from_int(2, bits), clamp_a(log_t1), a3_coef * K),
        B=one,
    )
    c9 = -matveev_gamma_bound(inst_y)
    eb_y = one + (one + c6.max(1).log()) / log3
    floor = _exp2(bits) / DyadicInterval.from_int(2, max(bits, 64)).log() + Fraction(1, 1024)
    c10 = ((c9 * eb_y + log_plus(tail_coeff * 2, bits) / (log2 * log3)) / log_t1).max(floor)

    # walk pipeline: degree-5 form; per-node factors v, w and the two gap
    # terms stay symbolic, only the uniform coefficient enters c11
    if variant == "zeckendorf":
        h_sqrt5 = height_quadratic(QuadNum(0, 1, 5), bits).value
        h_phi = height_quadratic(phi, bits).value
        a_slots = (
            clamp_a(h_sqrt5 * 4),
            clamp_a(h_phi * 4),
            clamp_a((d3_unit * 4).max(l_delta3)),
            clamp_a(h_t1 * 4),
            DyadicInterval.from_int(8, bits),
        )
        degree = 4
        eb_walk = (one + log_plus(c8, bits) + log_plus(c6, bits) + log_plus(c7, bits)) / log3 + 2
        kappa_star = tail_coeff * 2 + 12
        mu = theta1.min(phi_enc)
        gap_absorber = DyadicInterval.from_int(6, bits) / log3
    else:
        log_b = b_enc.log()
        a_slots = (
            clamp_a(log_b * 2),
            clamp_a(log_b * 2),
            clamp_a((d3_unit * 2).max(l_delta3)),
            clamp_a(h_t1 * 2),
            clamp_a(log_plus(b_enc, bits) * 10),
        )
        degree = 2
        eb_walk = (one + log_plus(c8p, bits) + log_plus(c6, bits) + log_plus(c7p + 1, bits)) / log3 + 2
        kappa_star = tail_coeff * 2 + 2 * b
        mu = theta1.min(b_enc)
        gap_absorber = DyadicInterval.from_int(2, bits) / log3
    inst_walk = LinFormInstance(T=5, D=degree, A=a_slots, B=one)
    c11 = -matveev_lambda_bound(inst_walk) * eb_walk
    log_mu = _pos(mu, "min growth base").log()
    c12 = ((c11 + (log_plus(c6, bits) + log_plus(kappa_star, bits)) / log3 + 1) / log_mu)
    c12 = c12.max(gap_absorber)
    c12 = c12.max(log_plus(tail_coeff * 2, bits) / (log_t1 * log3))
    c12 = c12.max(_exp2(bits))

    return ConstantLedger(
        c5=c5, c6=c6, c9=c9, c10=c10, c11=c11, C12=c12, tail_coeff=tail_coeff,
        c7=c7, c8=c8, c7p=c7p, c8p=c8p, b=b_enc,
    )


def _degenerate_branches(bd: BinetData, K: int) -> list[tuple[DyadicInterval, str]]:
    """Candidate subscript bounds for the cases the linear forms miss.

    A truncated linear form that vanishes exactly forces the power to
    equal a conjugate-side sum, which is bounded, so the subscript is
    capped by an elementary logarithm ratio (possibly negative; the max
    fold absorbs it).  A subscript below the sandwich threshold N0, or
    below 3, is not covered by the main case, so both floors are
    candidates too.
    """
    bits = bd.precision_bits
    theta1, c1min, c2max = _growth_enclosures(bd)
    return [
        ((c2max * K / c1min).log() / theta1.log(), "gamma_equals_one"),
        (DyadicInterval.from_int(bd.N0, bits), "below_N0"),
        (DyadicInterval.from_int(3, bits), "below_N0"),
    ]


def _resolve(candidates) -> tuple[DyadicInterval, str]:
    envelope = candidates[0][0]
    for value, _ in candidates[1:]:
        envelope = envelope.max(value)
    for value, label in candidates:
        if value.hi == envelope.hi:
            return envelope, label
    raise AssertionError("max candidate vanished")


def _finish_report(bd, led, candidates, per_k) -> BoundReport:
    n1_bound, case = _resolve(candidates)
    return BoundReport(
        ledger=led,
        n1_bound=n1_bound,
        a_bound=led.c6 * n1_bound,
        log_ya_bound=led.c5 * n1_bound,
        case=case,
        field_not_Q_sqrt5=bd.delta != 5,
        petho_preconditions_ok=petho_preconditions(bd),
        per_k=tuple(per_k),
    )


def theorem_y_bound(bd: BinetData, K: int, y: int) -> BoundReport:
    """Effective subscript bound for a known power base y.

    For each admissible summand count k the linear-form chain yields
    n1 <= (c10 log y)^k (log n1)^k, which the transfer lemma resolves;
    the report takes the maximum over k and over the degenerate
    branches (vanishing form, subscript below the sandwich threshold).
    """
    if y < 2:
        raise InputError(f"power base must be >= 2, got {y}")
    led = elementary_constants(bd, K, "zeckendorf")
    bits = bd.precision_bits
    log_y = DyadicInterval.from_int(y, bits).log()
    candidates = []
    per_k = []
    for k in range(1, K + 1):
        g = (led.c10 * log_y).powi(k)
        bound_k = pw_transfer(0, k, g, bits)
        candidates.append((bound_k, "main"))
        per_k.append((k, bound_k))
    candidates += _degenerate_branches(bd, K)
    return _finish_report(bd, led, candidates, per_k)


def _walk_inputs(C12, log_n1):
    """Both walk inputs as Fractions, or both as intervals at the lower interval precision."""
    intervals = [x for x in (C12, log_n1) if isinstance(x, DyadicInterval)]
    if not intervals:
        return Fraction(C12), Fraction(log_n1)
    bits = min(x.precision_bits for x in intervals)
    return tuple(
        x if isinstance(x, DyadicInterval) else DyadicInterval.from_fraction(x, bits) for x in (C12, log_n1)
    )


def walk_closed_form(k: int, ell: int, C12, log_n1, j: int):
    """Closed-form dominator of u(j): Fibonacci-exponent product.

    Matches the walk recursion's worst case; the two outer factors carry
    exponent F(j+2) - 1 and the grid-size factor carries F(j+1) - 1.
    """
    if j < 0:
        raise InputError(f"step index must be >= 0, got {j}")
    e_outer = fibonacci(j + 2) - 1
    e_grid = fibonacci(j + 1) - 1
    c, g = _walk_inputs(C12, log_n1)
    if isinstance(c, DyadicInterval):
        grid = DyadicInterval.from_int((ell * k) ** e_grid, c.precision_bits)
        return c.powi(e_outer) * grid * g.powi(e_outer)
    return c**e_outer * (ell * k) ** e_grid * g**e_outer


def _surplus_coefficient(led: ConstantLedger, k: int, trivial_floor: DyadicInterval,
                         bits: int, log_b: DyadicInterval | None) -> DyadicInterval:
    """Coefficient turning digit-side bounds back into subscript bounds.

    Re-runs the known-base pipeline with log y eliminated against the
    digit-side subscript; the second term absorbs the degenerate
    branches so one inequality covers every case.
    """
    one = DyadicInterval.from_int(1, bits)
    log3 = DyadicInterval.from_int(3, bits).log()
    log_k = DyadicInterval.from_int(k, bits).log()
    if log_b is None:
        body = led.c10 * (2 * k) * (log_k + led.c10.log() + one)
    else:
        body = led.c10 * (2 * k) * log_b * (log_k + led.c10.log() + log_plus(log_b, bits) + one)
    return body.powi(k) + trivial_floor / log3.powi(k)


def _walk_pipeline(bd: BinetData, K: int, ell: int, variant: str, b: int | None) -> BoundReport:
    if ell < 2:
        raise InputError(f"digit count cap must be >= 2, got {ell}")
    led = elementary_constants(bd, K, variant, b=b)
    bits = bd.precision_bits
    log3 = DyadicInterval.from_int(3, bits).log()
    degenerate = _degenerate_branches(bd, K)

    if K == 1:
        # a single repeated denominator couples both subscripts circularly;
        # only the degenerate branches are certified here and the case label
        # marks the report as conditional on the single-denominator routing
        return _finish_report(bd, led, [(value, "k_equals_one") for value, _ in degenerate], [])

    trivial_floor, _ = _resolve(degenerate)
    log_b = None if variant == "zeckendorf" else led.b.log()
    candidates = []
    per_k = []
    for k in range(2, K + 1):
        cstar = fibonacci(k + ell + 1) - 1
        # u(k + ell - 1) of the walk with the log n1 factors stripped off
        cf_coef = walk_closed_form(k, ell, led.C12, 1, k + ell - 1)
        # exit with the denominator-side subscript as the minimum: resolve
        # n1 <= cf_coef (log n1)^cstar directly
        right = pw_transfer(0, cstar, cf_coef, bits)
        # exit with the digit-side subscript as the minimum: substitute it
        # into the surplus inequality, inflating the log exponent
        surplus = _surplus_coefficient(led, k, trivial_floor, bits, log_b)
        if variant == "zeckendorf":
            digit_cap = cf_coef
        else:
            digit_cap = cf_coef * 2  # digit subscript + 1 fits below twice the cap
        g_bottom = surplus * digit_cap.powi(k) * (log_plus(digit_cap, bits) / log3 + cstar).powi(k)
        bottom = pw_transfer(0, k * (cstar + 1), g_bottom, bits)
        candidates.append((right, "main"))
        candidates.append((bottom, "main"))
        per_k.append((k, right.max(bottom)))
    return _finish_report(bd, led, candidates + degenerate, per_k)


def theorem_ham_bound(bd: BinetData, K: int, ell: int) -> BoundReport:
    """Effective bound when the base is a sum of at most ell Fibonacci numbers.

    Refuses to run over the golden field, where the linear forms cannot
    be certified nonzero.
    """
    if not nonvanishing_check(bd, "zeckendorf"):
        raise InapplicableError(
            "Fibonacci-expansion pipeline needs the growth field to differ from Q(sqrt(5))"
        )
    return _walk_pipeline(bd, K, ell, "zeckendorf", None)


def theorem_ham2_bound(bd: BinetData, K: int, ell: int, b: int) -> BoundReport:
    """Effective bound when the base has at most ell nonzero base-b digits."""
    return _walk_pipeline(bd, K, ell, "radix", b)
