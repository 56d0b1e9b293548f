"""Acceptance checklist: thirteen end-to-end guarantees, one test each.

Each test states its runtime budget and checks it; every numeric claim is
either exact or certified through interval endpoints, never a float guess.
"""

import contextlib
import io
import itertools
import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

from conftest import sample_irrationals
from oracles import (
    a_majorant,
    is_perfect_power,
    midpoint,
    pw_largest_root,
    verify_shifted_recurrence,
    walk_simulate,
)

from cfpow import cli
from cfpow.bounds import (
    petho_preconditions,
    theorem_ham2_bound,
    theorem_ham_bound,
    theorem_y_bound,
    walk_closed_form,
)
from cfpow.cfrac import binet_data, convergents, expand
from cfpow.linforms import (
    LinFormInstance,
    matveev_gamma_bound,
    matveev_lambda_bound,
    pw_transfer,
)
from cfpow.numeration import (
    OstrowskiRep,
    fibonacci,
    ostrowski_decode,
    ostrowski_encode,
    ostrowski_validate,
    radix_encode,
    zeckendorf_encode,
)
from cfpow.quadfield import DyadicInterval, make_quadnum
from cfpow.search import (
    SearchRange,
    enumerate_solutions,
    filter_by_weight,
    verify_bounds,
)

from mpmath import mp


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def test_01_golden_conjugate_expands_to_all_ones():
    """(sqrt(5)-1)/2 = [0; 1, 1, ...] and its denominators are Fibonacci."""
    start = time.monotonic()
    cf = expand(make_quadnum(Fraction(-1, 2), Fraction(1, 2), 5))
    assert cf.a0 == 0 and cf.preperiod == () and cf.period == (1,)
    qs = convergents(cf, 60)
    for i in range(61):
        assert qs[i] == fibonacci(i + 1)
    assert time.monotonic() - start < 1


def test_02_search_finds_the_large_known_square(golden_cf):
    start = time.monotonic()
    sols = enumerate_solutions(golden_cf, SearchRange(40, 5, 2))
    hits = [s for s in sols if s.value == 14930496]
    assert len(hits) == 1
    sol = hits[0]
    assert sol.y == 3864 and sol.a == 2 and sol.N == (35, 11)
    assert 14930496 == 3864**2 == fibonacci(36) + fibonacci(12)
    assert time.monotonic() - start < 60


def test_03_perfect_powers_among_small_fibonacci_numbers(golden_cf):
    start = time.monotonic()
    flagged = {
        fibonacci(i)
        for i in range(61)
        if fibonacci(i) in (0, 1) or is_perfect_power(fibonacci(i)) is not None
    }
    assert flagged == {0, 1, 8, 144}
    assert is_perfect_power(8) == (2, 3)
    assert is_perfect_power(144) == (12, 2)
    # cross-check the nontrivial hits through the K=1 search
    sols = enumerate_solutions(golden_cf, SearchRange(59, 42, 1))
    assert {(s.y, s.a, s.N[0]) for s in sols} == {(2, 3, 5), (12, 2, 11)}
    assert time.monotonic() - start < 10


def test_04_shifted_recurrence_exact_on_random_pool(random_cf_pool):
    start = time.monotonic()
    for _, cf in random_cf_pool:
        assert verify_shifted_recurrence(cf, cf.r + 2 * cf.s + 200)
    assert time.monotonic() - start < 30


def test_05_binet_identity_exact_on_random_pool(random_cf_pool):
    """q_{j+r+s*i} == c1_j*theta1^i - c2_j*theta2^i, all j, i <= 200."""
    start = time.monotonic()
    for _, cf in random_cf_pool:
        bd = binet_data(cf, 64)
        r, s = bd.r, bd.s
        qs = convergents(cf, r + s * 201)
        for j in range(s):
            p1, p2 = bd.c1[j], bd.c2[j]
            for i in range(201):
                assert p1 - p2 == qs[j + r + s * i]
                p1 = p1 * bd.theta1
                p2 = p2 * bd.theta2
    assert time.monotonic() - start < 30


def test_06_growth_sandwich_certified():
    """c4*theta1^i <= q_{j+r+s*i} <= c3*theta1^i, certified for i <= 500."""
    start = time.monotonic()
    fixtures = [
        make_quadnum(Fraction(1, 2), Fraction(1, 2), 5),
        make_quadnum(0, 1, 2),
        make_quadnum(0, 1, 3),
        make_quadnum(0, 1, 7),
        make_quadnum(Fraction(6, 17), Fraction(-1, 17), 2),
    ]
    for x in fixtures:
        cf = expand(x)
        bd = binet_data(cf, 128)
        r, s = bd.r, bd.s
        qs = convergents(cf, r + s * 501)
        # exact versions of the constants, for tie resolution only
        c3_exact = max(bd.c1[j] + abs(bd.c2[j]) for j in range(s))
        c4_exact = min(bd.c1) * Fraction(1, 2)
        for j in range(s):
            power = bd.theta1 ** 0
            for i in range(501):
                q = qs[j + r + s * i]
                q_iv = DyadicInterval.from_int(q)
                bits, certified = 128, False
                while bits <= 4096:
                    if q_iv.definitely_le(bd.c3 * power.enclose(bits)):
                        certified = True
                        break
                    bits *= 2
                if not certified:
                    assert (c3_exact * power - q).sign() == 0, (x, j, i)
                if i >= bd.N0:
                    assert q_iv.definitely_ge(bd.c4 * power.enclose(128)), (x, j, i)
                    assert (q - c4_exact * power).sign() >= 0
                power = power * bd.theta1
    assert time.monotonic() - start < 60


def test_07_ostrowski_roundtrip_conditions_greediness():
    start = time.monotonic()
    for x in sample_irrationals(10, seed=71):
        cf = expand(x)
        for n in range(10**5):
            rep = ostrowski_encode(n, cf)
            assert ostrowski_decode(rep, cf) == n
            assert ostrowski_validate(rep, cf)
    # worked instance over (6 - sqrt(2))/17, whose denominators start 1, 3, 4
    mixed = expand(make_quadnum(Fraction(6, 17), Fraction(-1, 17), 2))
    assert ostrowski_encode(6, mixed).digits == (2, 0, 1)
    assert not ostrowski_validate(OstrowskiRep((0, 2)), mixed)  # 6 = 2*q_1 is rejected
    assert time.monotonic() - start < 60


def test_08_transfer_bound_dominates_true_root():
    start = time.monotonic()
    checked = 0
    for a, c, g in itertools.product((0, 10, 100), (1, 2, 3), (10, 100, 1000)):
        if g * c**c <= math.exp(2 * c):
            continue  # outside the transfer lemma's hypothesis
        bound = pw_transfer(a, c, g)
        root = pw_largest_root(a, c, g)
        assert bound.definitely_ge(root), (a, c, g)
        checked += 1
    assert checked == 21
    assert abs(float(midpoint(pw_transfer(0, 1, 10))) - 46.051701859880914) < 1e-9
    assert abs(float(midpoint(pw_largest_root(0, 1, 10))) - 35.771520639572972) < 1e-9
    assert time.monotonic() - start < 5


def test_09_matveev_matches_independent_oracle():
    start = time.monotonic()
    rng = random.Random(909)
    with mp.workdps(50):
        tol = mp.mpf("1e-6")
        for _ in range(50):
            T = rng.randint(1, 6)
            D = rng.randint(1, 4)
            a_vals = [Fraction(rng.randint(1, 2**16), 2**10) for _ in range(T)]
            b_val = Fraction(rng.randint(2**10, 2**20), 2**10)
            inst = LinFormInstance(
                T, D, tuple(a_majorant(v) for v in a_vals), DyadicInterval.from_fraction(b_val)
            )
            # independent 50-digit reimplementation of the defining products
            prod_a = mp.mpf(1)
            for iv in inst.A:
                prod_a *= mp.mpf(iv.hi.numerator) / iv.hi.denominator
            big_b = mp.mpf(inst.B.hi.numerator) / inst.B.hi.denominator
            common = D**2 * mp.log(mp.e * D) * prod_a * mp.log(mp.e * big_b)
            oracle_gamma = -mp.mpf("1.4") * mp.power(30, T + 3) * mp.power(T + 1, mp.mpf("4.5")) * common
            oracle_lambda = -2 * mp.power(30, T + 4) * mp.power(T + 1, 6) * common
            for got, oracle in (
                (matveev_gamma_bound(inst), oracle_gamma),
                (matveev_lambda_bound(inst), oracle_lambda),
            ):
                mid = midpoint(got)
                approx = mp.mpf(mid.numerator) / mid.denominator
                assert abs((approx - oracle) / oracle) < tol
    assert time.monotonic() - start < 5


def test_10_walk_stays_under_closed_form_on_every_path():
    start = time.monotonic()
    for k, ell in itertools.product(range(2, 6), repeat=2):
        moves = (ell - 1) + (k - 1)
        paths = sorted(set(itertools.permutations(["down"] * (ell - 1) + ["right"] * (k - 1))))
        for c12 in (10, 100):
            for log_n1 in (2, 10):
                caps = [walk_closed_form(k, ell, c12, log_n1, j) for j in range(moves + 2)]
                for path in paths:
                    state = walk_simulate(k, ell, c12, log_n1, path=list(path))
                    assert len(state.u) == moves + 2
                    for u_j, cap in zip(state.u, caps):
                        assert u_j <= cap, (k, ell, c12, log_n1, path)
    worked = walk_simulate(2, 2, 10, 2)
    assert worked.u == (1, 20, 800, 1280000)
    assert walk_closed_form(2, 2, 10, 2, 3) == 2560000
    assert time.monotonic() - start < 5


def test_11_bound_pipelines_dominate_search(golden_cf, golden_bd, root2_cf, root2_bd):
    start = time.monotonic()
    sols = enumerate_solutions(root2_cf, SearchRange(30, 4, 2))
    assert [(s.y, s.a, s.N) for s in sols] == [(2, 2, (1, 1))]
    for y in sorted({s.y for s in sols}):
        report = theorem_y_bound(root2_bd, 2, y)
        assert verify_bounds([s for s in sols if s.y == y], report, root2_bd)
    ham_report = theorem_ham_bound(root2_bd, 2, 2)
    assert verify_bounds(filter_by_weight(sols, "zeckendorf", 2), ham_report, root2_bd)

    golden_sols = enumerate_solutions(golden_cf, SearchRange(30, 4, 2))
    kept = filter_by_weight(golden_sols, "radix", 2, b=10)
    assert len(kept) == len(golden_sols) == 14
    ham2_report = theorem_ham2_bound(golden_bd, 2, 2, 10)
    assert verify_bounds(kept, ham2_report, golden_bd)
    assert time.monotonic() - start < 300


def test_12_applicability_gates():
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "cfpow.cli", "--alpha", "1,1,2,5", "bounds", "ham", "--K", "2", "--l", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"] == "inapplicable"
    for x in sample_irrationals(100, seed=121):
        assert petho_preconditions(binet_data(expand(x), 64))
    assert time.monotonic() - start < 5


def _pipeline_snapshot():
    """Re-run every JSON-producing stage from scratch and serialize it all."""
    golden = expand(make_quadnum(Fraction(1, 2), Fraction(1, 2), 5))
    root2 = expand(make_quadnum(0, 1, 2))
    mixed = expand(make_quadnum(Fraction(6, 17), Fraction(-1, 17), 2))
    golden_bd = binet_data(golden, 128)
    root2_bd = binet_data(root2, 128)
    parts = [
        golden.to_json(),
        root2.to_json(),
        mixed.to_json(),
        convergents(golden, 30).to_json(),
        root2_bd.to_json(),
        golden_bd.to_json(),
        theorem_y_bound(root2_bd, 2, 2).to_json(),
        theorem_ham_bound(root2_bd, 2, 2).to_json(),
        theorem_ham2_bound(golden_bd, 2, 2, 10).to_json(),
        zeckendorf_encode(14930496).to_json(),
        radix_encode(2024, 10).to_json(),
        ostrowski_encode(6, mixed).to_json(),
    ]
    sols = enumerate_solutions(golden, SearchRange(12, 3, 2))
    parts.extend(sol.to_json() for sol in sols)
    parts.extend(sol.to_json() for sol in filter_by_weight(sols, "zeckendorf", 1))
    rc, out = _cli(["--alpha", "0,1,1,2", "bounds", "y", "--K", "2", "--y", "2"])
    assert rc == 0
    parts.append(out)
    return json.dumps(parts, sort_keys=True, separators=(",", ":")).encode()


def test_13_pipeline_is_byte_deterministic():
    assert _pipeline_snapshot() == _pipeline_snapshot()
