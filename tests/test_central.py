"""Central-region quantities: inverse moments, envelopes, sup searches."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import mc_H_n, mp_nu, mp_phi_ratio_lhs, quad_integral
from bcv.central import (C_of_lambda, C_tilde, D_coeff,
                         _H_weight, H_n_exact, H_n_upper,
                         I_n_branch_check, I_n_brute, I_n_closed, K_func,
                         SupSearchResult, nu, phi_ratio_moment_sides,
                         r_of_lambda, sup_C, sup_C_tilde, sup_H_n)
from bcv.dist import LOG4, LOG2716


# ---------------------------------------------------------------------------
# inverse first moments I_n


def test_I_1_half_exact():
    # n=1: phi(1/2) * 1 * (0.5*0.5/1 + 0.5*0.5/2) = 0.1875
    assert I_n_brute(1, 0.5) == pytest.approx(0.1875, abs=1e-15)
    assert I_n_closed(1, 0.5) == pytest.approx(0.1875, abs=1e-12)


def test_I_closed_matches_brute_on_spots():
    for n in (2, 17, 120, 300):
        for x in (0.013, 0.2, 0.449, 0.5, 0.81):
            a, b = I_n_closed(n, x), I_n_brute(n, x)
            assert abs(a - b) / max(1.0, abs(b)) <= 1e-11, (n, x)


def test_I_closed_domain():
    with pytest.raises(ValueError):
        I_n_closed(10, 0.0)
    with pytest.raises(ValueError):
        I_n_closed(10, 1.0)


# ---------------------------------------------------------------------------
# the profile nu and the envelopes C, C~


def test_nu_at_one_equals_four_over_e_minus_one():
    assert nu(1.0) == pytest.approx(4.0 / math.e - 1.0, abs=1e-14)


def test_nu_matches_high_precision_oracle():
    lams = (0.3, 0.999, 1.0, 1.5, 2.0, 3.4794, 7.0, 25.3, 59.0)
    for lam in lams:
        assert nu(lam) == pytest.approx(mp_nu(lam), abs=1e-12)
    assert np.array_equal(nu(np.array(lams)), [nu(lam) for lam in lams])


def test_nu_continuous_with_slope_kink_at_integers():
    # the formula piece changes with the ceiling at each integer, but the
    # value glues continuously there; only the one-sided slopes differ
    assert abs(nu(2.0 + 1e-9) - nu(2.0)) < 1e-7
    h = 1e-7
    left = (nu(2.0) - nu(2.0 - h)) / h
    right = (nu(2.0 + h) - nu(2.0)) / h
    assert abs(right - left) > 0.1


def test_nu_positive_domain():
    with pytest.raises(ValueError):
        nu(0.0)
    with pytest.raises(ValueError):
        nu(np.array([1.0, -0.5]))


def test_r_peaks_at_three_halves():
    lams = np.linspace(0.01, 20.0, 2000)
    vals = r_of_lambda(lams)
    assert float(np.max(vals)) <= r_of_lambda(1.5) + 1e-15
    assert r_of_lambda(0.0) == 0.0
    with pytest.raises(ValueError):
        r_of_lambda(-1.0)


def test_C_assembles_nu_and_r():
    for lam in (0.7, 1.5, 3.2):
        assert C_of_lambda(lam) == pytest.approx(
            2.0 * LOG2716 * nu(lam) + r_of_lambda(lam), abs=1e-14)
    assert C_of_lambda(0.0) == 0.0
    lams = (0.0, 0.7, 1.5, 3.2)
    assert np.array_equal(C_of_lambda(np.array(lams)),
                          [C_of_lambda(lam) for lam in lams])
    with pytest.raises(ValueError):
        C_of_lambda(-0.1)
    with pytest.raises(ValueError):
        C_of_lambda(np.array([1.0, -0.1]))


def test_C_tilde_is_flat_plus_r():
    assert C_tilde(1.5) == pytest.approx(2.0 * 0.8 * LOG2716 + r_of_lambda(1.5),
                                         abs=1e-14)


def test_sup_C_value_location_and_certificate():
    res = sup_C()
    assert isinstance(res, SupSearchResult)
    assert res.sup_value == pytest.approx(0.9827, abs=0.003)
    assert res.sup_value < 0.99
    assert res.arg == pytest.approx(3.4794, abs=0.01)
    assert "lambda >= 60" in res.tail_certificate
    assert res.scan_range == (0.0, 60.0)


def test_sup_C_requires_full_scan_range():
    with pytest.raises(ValueError):
        sup_C(lambda_max=30.0)


def test_sup_C_deterministic():
    a = sup_C()
    b = sup_C()
    assert a.sup_value == b.sup_value and a.arg == b.arg


def test_sup_C_tilde_value_and_location():
    res = sup_C_tilde()
    assert res.sup_value == pytest.approx(0.9764857919, abs=1e-6)
    assert res.sup_value < 0.99
    assert res.arg == pytest.approx(1.5, abs=1e-3)


# ---------------------------------------------------------------------------
# H_n and its envelopes


def test_H_3_half_frozen_value():
    assert H_n_exact(3, 0.5) == pytest.approx(0.8125522704363204, abs=1e-12)


def test_H_n_matches_monte_carlo_oracle():
    est, se = mc_H_n(50, 0.3, 2_000_000, seed=321)
    assert abs(H_n_exact(50, 0.3) - est) <= 4.0 * se


def test_H_n_domain():
    with pytest.raises(ValueError):
        H_n_exact(2, 0.4)
    with pytest.raises(ValueError):
        H_n_exact(10, 0.0)
    with pytest.raises(ValueError):
        H_n_exact(10, 0.6)


def test_H_2000_quarter_near_half_normal_constant():
    assert abs(H_n_exact(2000, 0.25) - math.sqrt(2.0 / math.pi)) < 0.2


def test_sup_H_n_values_and_bound():
    res100 = sup_H_n(100)
    assert res100.sup_value == pytest.approx(0.9549235, abs=2e-4)
    assert res100.sup_value <= 1.0
    res500 = sup_H_n(500)
    assert res500.sup_value <= 1.0
    assert res500.arg < 0.05  # maximizer sits near the left edge


@pytest.mark.parametrize("n", [10, 50, 10_000, 100_000])
def test_batched_H_n_equals_scalar_calls_bitwise(n):
    lam = np.array([0.5, 1.0, 2.0, 3.0, 7.5, 20.0])
    xs = np.concatenate([np.linspace(0.02, 0.5, 13), lam / n])
    xs = xs[(xs > 0.0) & (xs <= 0.5)]
    many = H_n_exact(n, xs)
    assert many.shape == xs.shape
    assert np.array_equal(many, [H_n_exact(n, float(x)) for x in xs])
    assert not _H_weight(n).flags.writeable


def test_sup_H_n_at_n_1e5_stays_below_one():
    res = sup_H_n(100_000)
    assert 0.8 < res.sup_value <= 1.0


def test_H_upper_dominates_exact_on_spots():
    for n in (10, 50, 100):
        for x in (0.02, 0.1, 0.3, 0.5):
            assert H_n_upper(n, x) >= H_n_exact(n, x), (n, x)


def test_H_upper_domain():
    with pytest.raises(ValueError):
        H_n_upper(10, 0.0)
    with pytest.raises(ValueError):
        H_n_upper(10, 0.7)


def test_D_coeff_value_and_domain():
    assert D_coeff(223600.0) == pytest.approx(8.650389e18, rel=1e-6)
    lam = 10.0
    expect = (3.0 * math.sqrt(lam) * (lam + 1.0)
              * (math.sqrt(2.0) / 4.0 + (2.0 / 11.0) * (3.0 * lam + 4.0) * lam))
    assert D_coeff(lam) == pytest.approx(expect, rel=1e-14)
    with pytest.raises(ValueError):
        D_coeff(0.0)


def test_branch_check_small_lambda_surrogate():
    # with a small surrogate threshold, points with n x below it use the
    # profile-plus-correction branch
    for x in (0.001, 0.003, 0.006, 0.009):
        assert I_n_branch_check(1000, x, lambda0=10.0)


def test_branch_check_large_lambda_at_real_threshold():
    # n >= 2 lambda0 with lambda0 = 223600 needs n in the half-million range;
    # at x = 1/2 the limit value sqrt(1/(2 pi)) sits just under 0.8 (1 - x)
    n = 450_000
    for x in (0.497, 0.5):
        assert n * x >= 223600.0
        assert I_n_branch_check(n, x, lambda0=223600.0)


def test_branch_check_domain():
    with pytest.raises(ValueError):
        I_n_branch_check(100, 0.3, lambda0=223600.0)


# ---------------------------------------------------------------------------
# the kernel K and the inverse-beta moment bound


def test_K_plug_in_values():
    expect1 = 2.0 + 1.5 + (3.0 / 16.0) * math.sqrt(164.0) + 7.0 * 41.0 / 16.0
    assert K_func(1.0) == pytest.approx(expect1, rel=1e-12)
    assert K_func(7.2) == pytest.approx(2.8276, abs=5e-4)
    assert abs(K_func(1e12) - math.sqrt(3.0)) < 2e-6


def test_K_decreasing_and_domain():
    s = np.logspace(0.0, 6.0, 200)
    vals = K_func(s)
    assert np.all(np.diff(vals) < 0.0)
    with pytest.raises(ValueError):
        K_func(0.0)
    with pytest.raises(ValueError):
        K_func(np.array([1.0, -2.0]))


def test_phi_ratio_trivial_at_z_equal_x():
    for m in (2, 3):
        lhs, rhs = phi_ratio_moment_sides(m, 0.37, 0.37)
        assert lhs == pytest.approx(1.0, abs=1e-15)
        assert rhs == pytest.approx(1.0, abs=1e-14)


def test_phi_ratio_named_spots_hold():
    for m, x, z in ((3, 0.5, 0.9), (2, 0.1, 0.05)):
        lhs, rhs = phi_ratio_moment_sides(m, x, z)
        assert lhs <= rhs + 1e-12


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("x", [1e-6, 0.1, 0.37, 0.9])
def test_phi_ratio_lhs_matches_mpmath(m, x):
    # the boundary, z next to x (where the closed forms need their series),
    # z = x itself, and z just inside the far end
    for z in (0.0, 1e-300, 1e-12, x - 1e-9, x + 1e-9, x, 0.5, 1.0 - 1e-9, 1.0):
        lhs, _ = phi_ratio_moment_sides(m, x, z)
        assert lhs == pytest.approx(float(mp_phi_ratio_lhs(m, x, z)), rel=1e-13, abs=0.0)


def test_phi_ratio_lhs_matches_library_quadrature_at_boundary():
    # z on the boundary gives a bounded kink at t=1; cross-check the closed
    # form against scipy with the same integrand limits
    for m, x, z in ((2, 0.3, 0.0), (2, 0.7, 1.0), (3, 0.5, 1.0)):
        lhs, _ = phi_ratio_moment_sides(m, x, z)
        phim = (x * (1.0 - x)) ** (m / 2.0)

        def integrand(t):
            pt = x + (z - x) * t
            w = pt * (1.0 - pt)
            if w <= 0.0:
                return 0.0 if m >= 3 else 2.0 * (x if z >= 0.5 else 1.0 - x)
            return m * (1.0 - t) ** (m - 1) * phim / w ** (m / 2.0)

        assert lhs == pytest.approx(quad_integral(integrand, 0.0, 1.0), abs=1e-8)


def test_phi_ratio_domain():
    with pytest.raises(ValueError):
        phi_ratio_moment_sides(4, 0.5, 0.5)
    with pytest.raises(ValueError):
        phi_ratio_moment_sides(2, 0.0, 0.5)
    with pytest.raises(ValueError):
        phi_ratio_moment_sides(2, 0.5, 1.1)


@given(st.integers(0, 1), st.floats(0.1, 0.9), st.floats(0.0, 1.0))
def test_phi_ratio_bound_property(mi, x, z):
    m = 2 + mi
    lhs, rhs = phi_ratio_moment_sides(m, x, z)
    assert lhs <= rhs + 1e-12
