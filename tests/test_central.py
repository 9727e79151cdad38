"""Central-region quantities: inverse moments, envelopes, sup searches."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import mc_H_n, mp_nu, mp_phi_ratio_lhs, quad_integral
from bcv import central
from bcv.bounds import central_converse_check
from bcv.central import (C_of_lambda, C_tilde, D_coeff, _C_grid,
                         _H_grid, _H_n_scan, _H_weight, H_n_exact, H_n_upper,
                         I_n_branch_check, I_n_brute, I_n_closed, K_func,
                         SupSearchResult, nu, phi_ratio_moment_sides,
                         r_of_lambda, sup_C, sup_C_tilde, sup_H_n)
from bcv.dist import _BAND_LOG_MASS, LOG4, LOG2716, _band_windows, _window_err
from bcv.search import sup_search


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
    # over 2.2e4 random lam in (0, 200] the largest error was 4.4e-15; with
    # gammaln and pdtr it was 2.5e-13, near lam = 182
    ints = np.arange(1.0, 61.0)
    lams = np.concatenate([(0.3, 0.999, 1.5, 3.4794, 25.3),
                           np.random.default_rng(31).uniform(0.0, 200.0, 300),
                           ints - 1e-9, ints, ints + 1e-9])
    got = nu(lams)
    for lam, value in zip(lams.tolist(), got.tolist()):
        assert value == pytest.approx(mp_nu(lam), rel=0.0, abs=5e-15), lam
    assert np.array_equal(got, [nu(lam) for lam in lams.tolist()])


def test_nu_is_accurate_and_positive_up_to_one():
    # on (0, 1/4) the closed form cancelled: nu(1e-9) read -8.0e-13 (true
    # 4.7e-14) and nu(1e-6) was off by 7.8e-5 relative; on (1/4, 1] it
    # still lost bits, 3.1e-15 relative near 1/4; the oracle needs more
    # digits as lam shrinks, since it cancels in the same way
    lams = np.concatenate([np.logspace(-200.0, 0.0, 400), np.linspace(0.25, 1.0, 76),
                           (1e-30, 1e-9, 1e-6, 6e-4, np.nextafter(0.25, 0.0),
                            np.nextafter(1.0, 0.0))])
    got = nu(lams)
    assert np.all(got > 0.0)
    for lam, value in zip(lams.tolist(), got.tolist()):
        want = mp_nu(lam, dps=60 + 3 * int(abs(math.log10(lam))))
        assert value == pytest.approx(want, rel=1e-15, abs=0.0), lam
    assert np.array_equal(got, [nu(lam) for lam in lams.tolist()])
    # the series at 1 and the closed form just above it agree where they meet
    assert nu(1.0) == pytest.approx(nu(np.nextafter(1.0, 2.0)), rel=1e-15)
    # below lam^{3/2} ~ 1e-308 nu underflows to 0, never below it
    assert C_of_lambda(1e-320) == 0.0 and nu(1e-320) == 0.0


def test_C_of_lambda_in_blocks_equals_its_pieces_and_scalar_calls():
    # C_of_lambda takes an array in blocks of _C_BLOCK points; the values
    # may not depend on where a point falls in its block
    lams = _C_grid()
    got = C_of_lambda(lams)
    assert central._C_BLOCK == 4096 and len(lams) > 20 * central._C_BLOCK
    pieces = np.concatenate([C_of_lambda(p) for p in np.split(lams, [1, 4095, 4097])])
    assert got.tobytes() == pieces.tobytes()
    at = np.random.default_rng(32).choice(len(lams), 200, replace=False)
    assert got[at].tolist() == [C_of_lambda(lam) for lam in lams[at].tolist()]
    assert C_of_lambda(lams.reshape(2, -1)).tobytes() == got.tobytes()
    # golden_max's six points of a round, across an integer, where nu's
    # ceil(lam) steps
    across = 3.0 + np.array([-1e-9, -4.4e-16, 0.0, 4.4e-16, 1e-15, 1e-9])
    assert C_of_lambda(across).tolist() == [C_of_lambda(lam) for lam in across.tolist()]
    assert C_of_lambda(np.array([])).shape == (0,)


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


@pytest.mark.parametrize("fn", [nu, r_of_lambda, C_of_lambda],
                         ids=["nu", "r_of_lambda", "C_of_lambda"])
def test_nan_lambda_raises(fn):
    # NaN fails every comparison, so a guard written as "any(lam < 0)" let
    # it through: nu and r returned NaN, and C returned 0.0 as if lam = 0
    for lam in (math.nan, np.array([1.0, math.nan])):
        with pytest.raises(ValueError):
            fn(lam)


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
    # the scan range is fixed and reaches the lambda >= 60 of the tail
    # certificate; no shorter range can be asked for
    assert central.C_LAMBDA_MAX >= 60.0
    with pytest.raises(TypeError):
        sup_C(lambda_max=30.0)


def test_sup_C_deterministic():
    a = sup_C()
    b = sup_C()
    assert a.sup_value == b.sup_value and a.arg == b.arg


def test_sup_C_tilde_value_and_location():
    res = sup_C_tilde()
    assert res.sup_value == 0.9764857919412275
    assert res.sup_value < 0.99
    assert res.arg == 1.5


def test_sup_C_tilde_is_closed_form(monkeypatch):
    # r'(lambda) has the sign of 3/2 - lambda, so the sup is C~(3/2) itself
    # and no scan runs
    def no_search(*args, **kwargs):
        raise AssertionError("sup_search ran")

    monkeypatch.setattr("bcv.central.sup_search", no_search)
    res = sup_C_tilde()
    assert res.sup_value == C_tilde(1.5)
    assert res.arg == 1.5
    assert res.scan_range == (0.0, math.inf)


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


def test_sup_H_n_searches_once_per_n(monkeypatch):
    # sup_H_n keeps no results: every call searches, and a wrapper of the
    # plain function sees every call.  The central converse check takes its
    # functions together, so bcv verify's two functions at n = 50 share one
    # search of sup H_48
    assert inspect.isfunction(sup_H_n)
    calls = []
    search = central.sup_search

    def spy(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(central, "sup_search", spy)
    first = sup_H_n(48)
    assert len(calls) == 1
    assert sup_H_n(np.int64(48)) == first
    assert len(calls) == 2
    with pytest.raises(ValueError, match="n must be a positive integer, got 48.0"):
        sup_H_n(48.0)
    cube = lambda y: np.asarray(y) ** 3
    sine = lambda y: np.sin(math.pi * np.asarray(y))
    calls.clear()
    both = central_converse_check([cube, sine], 50)
    assert len(calls) == 1
    assert both == [central_converse_check(cube, 50), central_converse_check(sine, 50)]
    assert len(calls) == 3


@pytest.mark.parametrize("n", [10, 50, 100, 10_000, 100_000])
def test_batched_H_n_equals_scalar_calls_bitwise(n):
    lam = np.array([0.5, 1.0, 2.0, 3.0, 7.5, 20.0])
    xs = np.concatenate([np.linspace(0.02, 0.5, 13), lam / n])
    xs = xs[(xs > 0.0) & (xs <= 0.5)]
    many = H_n_exact(n, xs)
    assert many.shape == xs.shape
    assert np.array_equal(many, [H_n_exact(n, float(x)) for x in xs])
    # golden_max's six points of a round, near the peak at lam = nx = 3.45
    near = (3.45 + np.linspace(-1e-3, 1e-3, 6)) / n
    assert H_n_exact(n, near).tolist() == [H_n_exact(n, x) for x in near.tolist()]
    assert not _H_weight(n).flags.writeable


def test_sup_H_n_at_n_1e5_stays_below_one():
    res = sup_H_n(100_000)
    assert 0.8 < res.sup_value <= 1.0


@pytest.mark.parametrize("n", [30_000, 100_000])
def test_sup_H_n_reaches_the_peak_below_the_uniform_grid(n):
    # the peak sits near lambda = nx = 3.45, below the first uniform grid
    # point 1/8192 once n > 2.8e4; the lambda/n layer of the grid reaches it
    assert 3.45 / n < 0.5 / central.H_SCAN_POINTS
    res = sup_H_n(n)
    assert res.sup_value >= H_n_exact(n, 3.45 / n)
    assert res.arg == pytest.approx(3.45 / n, rel=0.01)


def _scan_and_exact_points(monkeypatch, n, xs):
    """_H_n_scan(n, xs), and the mask of points whose value is exact: those
    where it called H_n_exact, and those whose narrow window is all of
    [0, n], where it never calls H_n_exact."""
    called = np.zeros(len(xs), dtype=bool)
    exact = central.H_n_exact

    def spy(n_, x):
        called[np.isin(xs, x)] = True
        return exact(n_, x)

    monkeypatch.setattr(central, "H_n_exact", spy)
    out = _H_n_scan(n, xs)
    monkeypatch.setattr(central, "H_n_exact", exact)
    _, lo, hi = _band_windows(n, xs, central._SCAN_LOG_MASS + math.log(n))
    whole = (lo == 0) & (hi == n)
    assert not np.any(called & whole)
    return out, called | whole


def _assert_scan_encloses(monkeypatch, n, xs):
    scan, exact_pts = _scan_and_exact_points(monkeypatch, n, xs)
    want = H_n_exact(n, xs)
    assert np.array_equal(scan[exact_pts], want[exact_pts])
    assert np.all(scan[~exact_pts] >= want[~exact_pts])
    assert np.all(scan[~exact_pts] < np.max(want))
    return exact_pts


_SCAN_NS = [3, 4, 10, 48, 100, 198, 1000, 10_000, 100_000]


@pytest.mark.parametrize("n", _SCAN_NS)
def test_H_n_scan_is_exact_where_it_can_win_and_an_upper_bound_elsewhere(monkeypatch, n):
    exact_pts = _assert_scan_encloses(monkeypatch, n, _H_grid(n))
    if n >= 1000:
        # the narrow pass prunes all but the winner's neighbourhood
        assert np.sum(exact_pts) <= 8


@pytest.mark.parametrize("n", _SCAN_NS)
def test_sup_H_n_equals_the_exact_scan_bitwise(n):
    arg, value, _ = sup_search(lambda t: H_n_exact(n, t), _H_grid(n))
    res = sup_H_n(n)
    assert (res.sup_value, res.arg) == (value, arg)


@pytest.mark.parametrize("n", [100, 10_000, 100_000])
def test_narrow_H_sums_lie_within_their_window_err_of_the_full_sums(n):
    # the scan sums each point over the union window of its block, which
    # holds the point's narrow window; the bound is that of _H_n_scan
    xs = _H_grid(n)
    log_mass = central._SCAN_LOG_MASS + math.log(n)
    narrow = central._H_sums(n, xs, log_mass)
    full = central._H_sums(n, xs, _BAND_LOG_MASS)
    err = _window_err(n, xs, log_mass, n * float(np.max(_H_weight(n))), narrow)
    assert np.all(np.abs(full - narrow) <= err)


def test_scan_enclosure_fails_without_its_tail_term(monkeypatch):
    # at the narrow log-mass T = 5 the band leaves out far more mass than
    # the rounding margin: kept, the tail term makes every point a candidate
    # and the scan exact; dropped, the upper bounds fall below H_n_exact
    n = 10_000
    xs = _H_grid(n)
    monkeypatch.setattr(central, "_SCAN_LOG_MASS", 5.0 - math.log(n))
    _assert_scan_encloses(monkeypatch, n, xs)
    monkeypatch.setattr(central, "_window_err",
                        lambda n, xs, log_mass, term_bound, env:
                        _window_err(n, xs, log_mass, 0.0, env))
    with pytest.raises(AssertionError):
        _assert_scan_encloses(monkeypatch, n, xs)


def test_H_upper_dominates_exact_on_spots():
    for n in (10, 50, 100):
        for x in (0.02, 0.1, 0.3, 0.5):
            assert H_n_upper(n, x) >= H_n_exact(n, x), (n, x)


def test_H_upper_domain():
    with pytest.raises(ValueError):
        H_n_upper(10, 0.0)
    with pytest.raises(ValueError):
        H_n_upper(10, 0.7)


@pytest.mark.parametrize("n", [0, -4])
def test_H_upper_rejects_a_bad_n(n):
    # unguarded, n = 0 and n = -4 raised a bare math domain error
    with pytest.raises(ValueError, match="n must be a positive integer"):
        H_n_upper(n, 0.3)


def test_D_coeff_value_and_domain():
    assert D_coeff(223600.0) == pytest.approx(8.650389e18, rel=1e-6)
    lam = 10.0
    expect = (3.0 * math.sqrt(lam) * (lam + 1.0)
              * (math.sqrt(2.0) / 4.0 + (2.0 / 11.0) * (3.0 * lam + 4.0) * lam))
    assert D_coeff(lam) == pytest.approx(expect, rel=1e-14)
    for bad in (0.0, math.nan):
        with pytest.raises(ValueError):
            D_coeff(bad)
    # a NaN threshold is rejected, not reported as a violated bound
    with pytest.raises(ValueError):
        I_n_branch_check(1000, 0.005, lambda0=math.nan)


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


@pytest.mark.parametrize("lambda0", [-1.0, 0.0])
def test_branch_check_rejects_a_nonpositive_threshold(monkeypatch, lambda0):
    # unguarded, every point took the n x >= lambda0 branch and the check
    # returned a verdict at a threshold that means nothing
    monkeypatch.setattr(central, "I_n_closed", None)  # no work before the check
    with pytest.raises(ValueError, match="lambda0 must be positive"):
        I_n_branch_check(1000, 0.005, lambda0)


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
    for bad in (math.nan, np.array([1.0, math.nan])):
        with pytest.raises(ValueError):
            K_func(bad)


def test_K_is_inf_where_its_terms_overflow():
    # K(s) -> inf as s -> 0; the suite turns any RuntimeWarning into an error
    assert K_func(1e-300) == math.inf
    assert K_func(np.array([1e-200, 1.0])).tolist() == [math.inf, K_func(1.0)]


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
