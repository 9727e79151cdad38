"""Headline constants, the lower-bound witness, and the converse validators."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from oracles import dense_iteration_matrix
from bcv.bernstein import bernstein_apply_many
from bcv.bounds import (SQRT2, _NORM_XS, G_of_lambda, LowerBoundReport,
                        UpperBoundReport, ValidatorResult, _fn_lower_error,
                        _d2_norm, _error_norm, build_fn_lower,
                        central_converse_check, fn_lower_error_sup,
                        g_of_lambda, iterate_converse_check, lower_bound_ratio,
                        modulus_upper_check, modulus_upper_sides,
                        noncentral_converse_check, smooth_class_constant,
                        sup_G_minus_g, sweep_upper, upper_bound_report,
                        upper_expr_H1, upper_expr_H2)
from bcv.dist import LOG4, _log_binom
from bcv.noncentral import J_limit, first_valid_i


# ---------------------------------------------------------------------------
# upper-bound expressions


def test_upper_expr_H1_frozen_value_and_window():
    v = upper_expr_H1(7.2)
    assert v == pytest.approx(74.7265893, abs=1e-6)
    assert 74.5 <= v < 74.8


def test_upper_expr_H1_decreasing_in_a():
    # defined only above a ~ 6.19, where 0.99 K(a)/3 drops below 1
    grid = (6.3, 7.0, 7.2, 10.0, 20.0, 50.0, 100.0)
    vals = [upper_expr_H1(a) for a in grid]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_upper_expr_H1_rejects_small_a():
    # K(6.0) = 3.079 > 3/0.99 makes the denominator negative
    for a in (1.0, 6.0):
        with pytest.raises(ValueError):
            upper_expr_H1(a)


def test_upper_expr_H2_frozen_value():
    # 40-digit value 74.7923132104719858 from mpmath quadrature of every L_k
    v = upper_expr_H2(7.2, 20)
    assert v == pytest.approx(74.7923132104719858, abs=1e-12)
    assert v < 74.8


def test_upper_expr_H2_equals_the_sum_of_single_J_calls():
    a, m = 7.2, 25
    i = first_valid_i(a)
    total = sum(J_limit(k, a) for k in range(i, m + 1))
    expect = 4.0 + math.sqrt(2.0) * (i + total) / (1.0 - J_limit(m + 1, a)) * LOG4
    assert upper_expr_H2(a, m) == expect


def test_upper_expr_H2_at_large_m_is_one_pass():
    # each J(k, a) re-running the alpha recursion from theta made this O(m^2)
    v = upper_expr_H2(7.2, 2000)
    assert math.isfinite(v) and v > upper_expr_H2(7.2, 20)


def test_upper_expr_H2_validates_index():
    # i = first_valid_i(7.2) = 13 must not exceed m
    upper_expr_H2(7.2, 13)
    with pytest.raises(ValueError):
        upper_expr_H2(7.2, 12)


def test_upper_bound_report_assembly():
    rep = upper_bound_report(7.2, 20)
    assert isinstance(rep, UpperBoundReport)
    assert rep.i == 13
    assert rep.max == max(rep.expr_H1, rep.expr_H2)
    assert 70.0 < rep.max < 74.8
    assert rep.passes_74_8


def test_smooth_class_constant_value():
    v = smooth_class_constant()
    expect = 4.0 + math.sqrt(2.0) * (math.sqrt(2.0) + 1.0) / (
        1.0 - 0.99 / math.sqrt(3.0)) * math.log(4.0)
    assert v == pytest.approx(expect, abs=1e-14)
    assert v == pytest.approx(15.047731866651418, abs=1e-9)


def test_smooth_class_beats_general_constant():
    for a in (6.5, 7.2, 8.0):
        assert smooth_class_constant() < upper_bound_report(a, 20).max


def test_sweep_sorted_refined_and_consistent():
    reports = sweep_upper(6.9, 7.5, 0.1, 20)
    avals = [r.a for r in reports]
    assert avals == sorted(avals)
    assert len(avals) == len(set(round(a, 6) for a in avals))
    # the refinement pass fills in 0.01-steps around the coarse minimum
    assert any(abs(a - 7.23) < 1e-9 for a in avals)
    at72 = next(r for r in reports if abs(r.a - 7.2) < 1e-9)
    direct = upper_bound_report(7.2, 20)
    assert at72.expr_H1 == pytest.approx(direct.expr_H1, rel=1e-12)
    assert at72.expr_H2 == pytest.approx(direct.expr_H2, rel=1e-12)


def test_sweep_validation():
    with pytest.raises(ValueError):
        sweep_upper(5.0, 4.0, 0.1, 20)


# ---------------------------------------------------------------------------
# the witness f_n and its profiles


def test_witness_structure():
    fn = build_fn_lower(100)
    assert fn.breakpoints == ((2.0 - math.sqrt(2.0)) / 100, 0.01, 0.02, 0.03,
                              (2.0 + math.sqrt(2.0)) / 100)
    assert fn.values == (1.0, -0.8, -1.0, 0.04, 1.0)
    assert fn(0.0) == 1.0 and fn(0.5) == 1.0 and fn(1.0) == 1.0
    assert fn(0.02) == -1.0
    with pytest.raises(ValueError):
        build_fn_lower(7)


def test_g_profile_nodes_and_extension():
    assert [g_of_lambda(k) for k in range(5)] == [1.0, -0.8, -1.0, 0.04, 1.0]
    assert g_of_lambda(1.5) == pytest.approx(-0.9)
    assert g_of_lambda(7.0) == 1.0
    out = g_of_lambda(np.array([0.5, 2.5]))
    assert out == pytest.approx([0.1, -0.48])


def test_G_profile_values():
    assert G_of_lambda(0.0) == 1.0
    # closed form at lam = 2: 1 + e^{-2}(1 - 1.6 - 2 + 0.16/3 - sum pmf terms)
    p = stats.poisson.pmf(np.arange(4), 2.0)
    expect = p[0] - 0.8 * p[1] - p[2] + 0.04 * p[3] + 1.0 - p.sum()
    assert G_of_lambda(2.0) == pytest.approx(float(expect), abs=1e-12)
    assert G_of_lambda(2.0) == pytest.approx(-0.2017773, abs=1e-6)
    lams = (0.0, 0.5, 2.0, 7.0)
    assert np.array_equal(G_of_lambda(np.array(lams)),
                          [G_of_lambda(lam) for lam in lams])
    with pytest.raises(ValueError):
        G_of_lambda(-0.5)
    with pytest.raises(ValueError):
        G_of_lambda(np.array([1.0, -0.5]))


@given(st.floats(0.0, 100.0))
def test_G_profile_bounded_by_sup_of_g(lam):
    # G is an average of g-values, all of which lie in [-1, 1]
    assert -1.0 - 1e-12 <= G_of_lambda(lam) <= 1.0 + 1e-12


def test_sup_G_minus_g_value_location_certificate():
    res = sup_G_minus_g()
    assert res.sup_value == pytest.approx(0.798222684859, abs=1e-9)
    assert res.arg == pytest.approx(2.0, abs=1e-6)
    assert "2 P(N <= 3)" in res.tail_certificate
    with pytest.raises(ValueError):
        sup_G_minus_g(lambda_max=30.0)
    assert sup_G_minus_g(lambda_max=50.0).scan_range == (0.0, 50.0)


def test_witness_error_closed_form_matches_operator():
    n = 500
    fn = build_fn_lower(n)
    xs = np.linspace(0.0, 60.0 / n, 401)
    direct = np.abs(bernstein_apply_many(fn, n, xs) - fn(xs))
    assert np.allclose(_fn_lower_error(n, xs), direct, atol=1e-11)


def test_witness_error_reads_three_log_binomials_not_the_table():
    # the (n+1)-entry log C(n, k) table would hold 80 MB at n = 10^7
    _log_binom.cache_clear()
    _fn_lower_error(10 ** 7, np.linspace(0.0, 40.0 / 10 ** 7, 101))
    assert _log_binom.cache_info().currsize == 0
    for n in (10 ** 3, 10 ** 4):
        xs = np.concatenate([np.linspace(0.0, 40.0 / n, 3001), np.linspace(0.0, 1.0, 1001)])
        logc = _log_binom(n)
        b = np.ones_like(xs)
        with np.errstate(divide="ignore"):
            for k, w in ((1, -1.8), (2, -2.0), (3, -0.96)):
                pk = np.exp(logc[k] + k * np.log(xs) + (n - k) * np.log1p(-xs))
                b = b + w * np.where((xs > 0.0) & (xs < 1.0), pk, 0.0)
        expect = np.abs(b - build_fn_lower(n)(xs))
        assert np.array_equal(_fn_lower_error(n, xs), expect), n


def test_witness_error_sup_value_and_certificate():
    res = fn_lower_error_sup(10_000)
    assert res.sup_value == pytest.approx(0.7981512, abs=1e-6)
    assert res.arg == pytest.approx(2.0 / 10_000, abs=1e-7)
    # the far-field certificate confirms nothing outside [0, 40/n] competes
    assert float(res.tail_certificate.split(":")[-1]) < res.sup_value


def test_lower_bound_report_at_thousand():
    rep = lower_bound_ratio(1000)
    assert isinstance(rep, LowerBoundReport)
    assert rep.omega2phi == pytest.approx(3.9906, abs=5e-3)
    assert rep.sup_err == pytest.approx(0.7975, abs=2e-3)
    assert rep.ratio == pytest.approx(5.004, abs=2e-2)
    assert rep.ratio == pytest.approx(rep.omega2phi / rep.sup_err, rel=1e-12)
    with pytest.raises(ValueError):
        lower_bound_ratio(999)


def test_lower_bound_ratio_nondecreasing_in_n():
    ratios = [lower_bound_ratio(n).ratio for n in (1000, 10_000, 100_000)]
    assert ratios[1] >= ratios[0] - 0.05
    assert ratios[2] >= ratios[1] - 0.05
    assert all(abs(r - 5.0) < 0.1 for r in ratios)


# ---------------------------------------------------------------------------
# the direct modulus estimate


def test_modulus_upper_spot_square():
    # for y^2: both norms have closed forms
    n = 100
    lhs, rhs = modulus_upper_sides(lambda y: np.asarray(y) ** 2, n)
    assert lhs == pytest.approx(1.0 / (2.0 * n), abs=1e-10)
    expect_rhs = 4.0 / (4.0 * n) + math.log(4.0) / n * 0.5 * (1.0 - 1.0 / n)
    assert rhs == pytest.approx(expect_rhs, abs=1e-8)
    assert lhs <= rhs


def test_modulus_upper_affine_is_zero_on_both_sides():
    lhs, rhs = modulus_upper_sides(lambda y: 2.0 * np.asarray(y) - 1.0, 50)
    assert lhs <= 1e-10 and abs(rhs) <= 1e-9
    assert modulus_upper_check(lambda y: 2.0 * np.asarray(y) - 1.0, 50)


def test_modulus_upper_holds_on_witness():
    assert modulus_upper_check(build_fn_lower(1000), 1000)


# ---------------------------------------------------------------------------
# converse validators


def test_central_converse_binding_and_holds():
    res = central_converse_check(lambda y: np.asarray(y) ** 3, 50)
    assert isinstance(res, ValidatorResult)
    assert res.binding and res.holds
    assert res.lhs <= res.rhs + 1e-12
    assert "multiplier" in res.note


def test_central_converse_rejects_tiny_n():
    with pytest.raises(ValueError):
        central_converse_check(lambda y: np.asarray(y) ** 3, 4)


def test_noncentral_converse_not_binding_at_small_n():
    res = noncentral_converse_check(lambda y: np.asarray(y) ** 3, 200)
    assert not res.binding
    assert res.holds  # vacuously
    assert "not binding" in res.note and "b_n" in res.note


def test_noncentral_converse_binding_at_large_n():
    res = noncentral_converse_check(lambda y: np.asarray(y) ** 3, 2000)
    assert res.binding and res.holds
    assert res.lhs <= res.rhs


def test_noncentral_converse_validates_index():
    # i = first_valid_i(7.2) = 13 must not exceed m
    with pytest.raises(ValueError):
        noncentral_converse_check(lambda y: np.asarray(y) ** 3, 2000, m=12)


def test_iterate_converse_holds():
    res = iterate_converse_check(lambda y: np.asarray(y) ** 3, 50)
    assert res.binding and res.holds
    assert res.note == "g = B_n f"


def _matrix_iterate_converse(f, n):
    """(holds, binding, lhs, rhs) of iterate_converse_check with h = B_n f - f
    on the grid taken as the dense iteration matrix times f's grid values,
    minus those values."""
    f_grid = np.asarray(f(np.arange(n + 1) / n), dtype=float)
    h_grid = dense_iteration_matrix(n) @ f_grid - f_grid
    h_fn = lambda y: h_grid[np.rint(np.asarray(y, dtype=float) * n).astype(int)]
    lhs = _d2_norm(h_fn, n, _NORM_XS) / (2.0 * n)
    rhs = _error_norm(f, n, _NORM_XS) / SQRT2
    return lhs <= rhs + 1e-12, True, lhs, rhs


@pytest.mark.parametrize("n", [10, 50, 200])
@pytest.mark.parametrize("f", [lambda y: np.asarray(y) ** 3,
                               lambda y: np.sin(math.pi * np.asarray(y))],
                         ids=["cube", "sine"])
def test_iterate_converse_matches_the_matrix_path(f, n):
    res = iterate_converse_check(f, n)
    holds, binding, lhs, rhs = _matrix_iterate_converse(f, n)
    assert (res.holds, res.binding) == (holds, binding)
    assert res.rhs == pytest.approx(rhs, rel=1e-13, abs=0.0)
    # lhs is max phi^2 |(B_n h)''| / (2n) for h = B_n f - f, up to n times
    # smaller than B_n f: the ulps by which the two paths' B_n f differ move
    # it by up to 2.5e-13 of itself at n = 200, so it is compared at 1e-13
    # of the scale max phi^2 |(B_n f)''| / (2n)
    scale = _d2_norm(f, n, _NORM_XS) / (2.0 * n)
    assert abs(res.lhs - lhs) <= 1e-13 * scale
