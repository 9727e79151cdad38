"""Acceptance gate: the eight headline claims, one test per claim.

Each test pins the numbers the package is advertised to reproduce, with
tolerances and runtime ceilings.  Where a claim is a limit, the test checks
it at the rate the mathematics gives: the smooth-class constant is reached
as kappa a^(-1/2), and the Poisson-profile gap is pinned to its exact value.
"""

import math
import time

import numpy as np
import pytest

from bcv.bernstein import (bernstein_derivative, central_moment,
                           central_moment_closed,
                           krawtchouk_orthogonality_check)
from bcv.bounds import (build_fn_lower, central_converse_check,
                        iterate_converse_check, lower_bound_ratio,
                        modulus_upper_check, noncentral_converse_check,
                        smooth_class_constant, upper_expr_H1, upper_expr_H2)
from bcv.central import (H_n_exact, H_n_upper, I_n_brute, I_n_closed,
                         phi_ratio_moment_sides, sup_C, sup_C_tilde, sup_H_n)
from bcv.dist import (inv_moment_shift_V, stirling_mode_bound_check,
                      tv_binom_poisson, tv_binom_poisson_bound)
from bcv.noncentral import finite_n_J_bound, first_valid_i, simulate_J

from oracles import SYMPY_Y, sympy_bernstein_derivative


def test_envelope_sup_is_point_nine_eight_three():
    t0 = time.perf_counter()
    res = sup_C()
    elapsed = time.perf_counter() - t0
    assert res.sup_value == pytest.approx(0.9827, abs=0.003)
    assert res.sup_value < 0.99
    assert res.tail_certificate
    assert elapsed < 10.0, f"sup search took {elapsed:.1f} s"


def test_flat_envelope_sup_below_ninety_nine_hundredths():
    res = sup_C_tilde()
    assert res.sup_value < 0.99
    # the computed sup is pinned here; it sits 2.7e-3 below the historically
    # quoted 0.9792, and the CLI constants subcommand logs that divergence
    assert res.sup_value == pytest.approx(0.9764857919, abs=1e-6)
    assert res.arg == pytest.approx(1.5, abs=1e-3)


def test_upper_bound_expressions_stay_below_74_8():
    t0 = time.perf_counter()
    assert first_valid_i(7.2) == 13
    e1 = upper_expr_H1(7.2)
    e2 = upper_expr_H2(7.2, 20)
    elapsed = time.perf_counter() - t0
    assert 74.5 <= e1 < 74.8
    assert e2 < 74.8
    assert elapsed < 30.0, f"expressions took {elapsed:.1f} s"


def test_smooth_class_constant_matches_large_a_limit():
    c = smooth_class_constant()
    assert c == pytest.approx(15.0477, abs=1e-3)
    # K(a) = sqrt(3) + (9/8) a^(-1/2) + O(1/a), so the expression approaches
    # c from above as kappa a^(-1/2) + O(1/a), kappa being d/dK of the
    # expression at K = sqrt(3) times 9/8
    kappa = ((9.0 / 8.0) * (0.99 / 3.0) * math.sqrt(2.0) * (math.sqrt(2.0) + 1.0)
             * math.log(4.0) / (1.0 - 0.99 / math.sqrt(3.0)) ** 2)
    gaps = {10.0 ** e: upper_expr_H1(10.0 ** e) - c for e in range(6, 16)}
    seq = list(gaps.values())
    assert seq[-1] > 0.0, seq
    assert all(g1 < g0 for g0, g1 in zip(seq, seq[1:])), seq
    for a, gap in gaps.items():
        if a >= 1e8:
            assert math.sqrt(a) * gap == pytest.approx(kappa, rel=1e-3), (
                f"sqrt(a) * gap at a = {a:.0e} is {math.sqrt(a) * gap:.6f}, "
                f"expected kappa = {kappa:.6f}")
    # the rate predicts 3.03e-7 here: the 1e-6 agreement, where attainable
    assert gaps[1e15] < 1e-6, f"gap at a = 1e15 is {gaps[1e15]:.4e}"


def test_lower_bound_witness_ratio_near_five():
    t0 = time.perf_counter()
    rep = lower_bound_ratio(10_000)
    elapsed = time.perf_counter() - t0
    assert 3.98 <= rep.omega2phi <= 4.00
    assert rep.sup_err <= 0.80
    assert rep.ratio >= 4.9
    assert elapsed < 60.0, f"lower-bound report took {elapsed:.1f} s"
    # exact value at lambda = 2: G(2) = 1 - 1.8 P1 - 2 P2 - 0.96 P3 with
    # P1 = P2 = 2 e^-2, P3 = (4/3) e^-2, so |G(2) - g(2)| = 2 - 8.88 e^-2
    assert rep.sup_G_minus_g == pytest.approx(2.0 - 8.88 * math.exp(-2.0),
                                              abs=1e-9)
    assert rep.sup_G_minus_g <= 0.80
    # Poisson-limit link: f_n(k/n) = g(k) at every integer k and osc g = 2,
    # so |B_n f_n - f_n| at x = 2/n is within 2 d_TV(S_n(2/n), N_2) of
    # |G(2) - g(2)|
    assert (rep.sup_G_minus_g - 2.0 * tv_binom_poisson_bound(rep.n, 2.0)
            <= rep.sup_err)


def test_oracle_equivalences():
    # closed form of the absolute-deviation inverse moment vs direct sum
    for n in (1, 2, 3, 7, 30, 120, 300):
        for x in np.linspace(0.02, 0.5, 50):
            a = I_n_closed(n, float(x))
            b = I_n_brute(n, float(x))
            assert a == pytest.approx(b, rel=1e-11, abs=1e-13)

    # closed central-moment formulas vs brute sums, all n up to 100
    for n in range(1, 101):
        for x in (0.137, 0.5, 0.91):
            for k in (4, 6):
                closed = central_moment_closed(n, x, k)
                brute = central_moment(n, x, k)
                assert closed == pytest.approx(brute, rel=1e-12, abs=1e-300)

    # the two derivative representations agree internally (the evaluator
    # raises if they disagree beyond rel 1e-9) and match a symbolic oracle
    poly = lambda y: np.asarray(y) ** 3
    for n, m, x in ((10, 1, 0.3), (15, 2, 0.5), (25, 3, 0.2), (30, 2, 0.9)):
        got = bernstein_derivative(poly, n, m, x)
        want = sympy_bernstein_derivative(SYMPY_Y ** 3, n, m, x)
        assert got == pytest.approx(want, rel=1e-9)

    # Krawtchouk orthogonality relations
    for n in (2, 7, 18, 30):
        for x in (0.3, 0.62):
            for r in range(4):
                for m in range(4):
                    if r > n or m > n:
                        continue
                    c, e = krawtchouk_orthogonality_check(n, x, r, m)
                    assert abs(c - e) <= 1e-10 * max(1.0, abs(e))

    # inverse-moment endpoints
    assert inv_moment_shift_V(0.0) == pytest.approx(math.log(4.0), abs=1e-12)
    assert inv_moment_shift_V(1.0) == pytest.approx(math.log(27.0 / 16.0),
                                                    abs=1e-12)


def test_inequality_suites(corpus):
    # the explicit envelope dominates the exact weighted inverse moment
    for n in (10, 50, 100, 500):
        for x in np.linspace(0.02, 0.5, 25):
            assert H_n_upper(n, float(x)) >= H_n_exact(n, float(x)) - 1e-12

    # the exact sup stays below 1
    for n in (100, 500, 2000):
        assert sup_H_n(n).sup_value <= 1.0

    # total-variation bound dominates the exact distance
    for n in (10, 20, 50, 100):
        for lam in (0.5, 1.0, 2.0, 5.0):
            assert tv_binom_poisson(n, lam) <= tv_binom_poisson_bound(n, lam) + 1e-15

    # mode bound holds for every n up to 200
    assert all(np.all(stirling_mode_bound_check(n, np.arange(1, n)))
               for n in range(2, 201))

    # weighted-ratio moment bound on a 10 x 10 (x, z) grid
    for m in (2, 3):
        for x in np.linspace(0.05, 0.95, 10):
            for z in np.linspace(0.0, 1.0, 10):
                lhs, rhs = phi_ratio_moment_sides(m, float(x), float(z))
                assert lhs <= rhs + 1e-12

    # direct modulus estimate across the corpus and the witness
    for f in corpus.values():
        for n in (10, 50, 200, 1000):
            assert modulus_upper_check(f, n)
    assert modulus_upper_check(build_fn_lower(10_000), 10_000)

    # converse validators pass, or report the vacuity condition
    cube = corpus["cube"]
    sine = corpus["sine"]
    for res in (central_converse_check(cube, 50),
                central_converse_check(sine, 50),
                iterate_converse_check(cube, 50),
                noncentral_converse_check(cube, 200),
                noncentral_converse_check(cube, 2000)):
        if not res.binding:
            print(f"validator vacuous: {res.note}")
            assert "not binding" in res.note or "vacuous" in res.note
        assert res.holds, res.note


def test_monte_carlo_reproducible_and_within_bound():
    for n, m, a in ((1000, 1, 0.9), (2000, 13, 7.2)):
        bound = finite_n_J_bound(n, m, a)
        sim = simulate_J(n, m, a, 20_000, np.random.default_rng(20240817))
        assert sim.value <= bound + 4.0 * sim.std_error, (
            f"(n={n}, m={m}, a={a}): estimate {sim.value:.6f} "
            f"exceeds bound {bound:.6f} + 4 x {sim.std_error:.6f}")
        again = simulate_J(n, m, a, 20_000, np.random.default_rng(20240817))
        assert again == sim  # tuple fields make this a byte-level comparison
