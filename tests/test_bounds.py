"""Headline constants, the lower-bound witness, and the converse validators."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy import stats

from oracles import d2_norm, dense_iteration_matrix, error_norm, mp_binom_pmf
from bcv import bernstein, bounds, cli
from bcv.bernstein import _derivative_and_apply, bernstein_apply_many
from bcv.bounds import (CONVERSE_A, CONVERSE_M, G_LAMBDA_MAX, SQRT2, _NORM_XS,
                        G_of_lambda, LowerBoundReport, UpperBoundReport,
                        ValidatorResult, _d2_and_apply, _fn_lower_error,
                        _modulus_norm_grid, _norms,
                        build_fn_lower,
                        central_converse_check, fn_lower_error_sup,
                        g_of_lambda, iterate_converse_check, lower_bound_ratio,
                        modulus_upper_check, modulus_upper_sides,
                        noncentral_converse_check, smooth_class_constant,
                        sup_G_minus_g, sweep_upper, upper_bound_report,
                        upper_expr_H1, upper_expr_H2)
from bcv.dist import _BAND_LOG_MASS, _SCAN_LOG_MASS, LOG4, _log_binom
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


def test_upper_expr_H1_rejects_tiny_a_without_warnings():
    # K(1e-300) overflows to inf; unguarded, its divide-by-zero and overflow
    # RuntimeWarnings were raised as errors before the ValueError
    with pytest.raises(ValueError, match="a too small"):
        upper_expr_H1(1e-300)


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


@pytest.mark.parametrize("m", [20.5, math.nan, 0])
def test_upper_expressions_name_a_bad_m(m):
    # m = 20.5 failed inside J_limit ("k must be an integer >= 1"), m = nan in
    # numpy's arange, and m = 0 as m < first_valid_i(a)
    for fn in (upper_expr_H2, upper_bound_report):
        with pytest.raises(ValueError, match=f"^m must be an integer >= 1, got m={m!r}$"):
            fn(7.2, m)


def test_upper_bound_report_assembly():
    rep = upper_bound_report(7.2, 20)
    assert isinstance(rep, UpperBoundReport)
    assert rep.i == 13
    assert rep.max == max(rep.expr_H1, rep.expr_H2)
    assert 70.0 < rep.max < 74.8


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


@pytest.mark.parametrize("step", [math.inf, math.nan, 0.0, -0.1])
def test_sweep_rejects_a_step_that_is_not_finite_and_positive(step):
    with pytest.raises(ValueError, match=r"^need 0 < a_lo < a_hi and a finite step > 0$"):
        sweep_upper(5.0, 10.0, step, 20)


@pytest.mark.parametrize("m", [20.0, 0, -3, 2.5])
def test_sweep_names_a_bad_m(m):
    # unguarded, each grid point's ValueError was swallowed and the sweep
    # reported that no a in the range admits the expressions
    with pytest.raises(ValueError, match=f"got m={m!r}"):
        sweep_upper(7.0, 7.4, 0.1, m)


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


@pytest.mark.parametrize("n", [10.5, 1e4, math.nan, 7])
def test_witness_names_a_bad_n(n):
    # n = 10.5 built a witness, on which fn_lower_error_sup then failed with a
    # TypeError from math.comb
    with pytest.raises(ValueError, match=f"^n must be an integer >= 8, got {n!r}$"):
        build_fn_lower(n)


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


def test_G_profile_rejects_nan():
    for lam in (math.nan, np.array([1.0, math.nan])):
        with pytest.raises(ValueError):
            G_of_lambda(lam)


@given(st.floats(0.0, 100.0))
def test_G_profile_bounded_by_sup_of_g(lam):
    # G is an average of g-values, all of which lie in [-1, 1]
    assert -1.0 - 1e-12 <= G_of_lambda(lam) <= 1.0 + 1e-12


def test_sup_G_minus_g_value_location_certificate():
    res = sup_G_minus_g()
    # 2 - 8.88 e^-2, correctly rounded
    with mpmath.workdps(40):
        assert res.sup_value == float(2 - mpmath.mpf("8.88") * mpmath.e ** -2)
    assert res.sup_value == 0.7982226848588793
    assert res.arg == pytest.approx(2.0, abs=1e-6)
    assert "2 P(N <= 3)" in res.tail_certificate
    # the scan covers [0, 40], as far as the tail certificate needs
    assert res.scan_range == (0.0, G_LAMBDA_MAX) == (0.0, 40.0)
    assert res.tail_certificate.startswith("for lambda > 40:")


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
        b = np.ones_like(xs)
        with np.errstate(divide="ignore"):
            for k, w in ((1, -1.8), (2, -2.0), (3, -0.96)):
                pk = np.exp(math.log(math.comb(n, k)) + k * np.log(xs) + (n - k) * np.log1p(-xs))
                b = b + w * np.where((xs > 0.0) & (xs < 1.0), pk, 0.0)
        expect = np.abs(b - build_fn_lower(n)(xs))
        assert np.array_equal(_fn_lower_error(n, xs), expect), n


@pytest.mark.parametrize("n", [10 ** 6, 10 ** 7, 10 ** 8])
def test_witness_error_binomial_probabilities_match_mpmath(monkeypatch, n):
    # p_1, p_2, p_3 from exact log C(n, k): gammaln's log C(n, k) is off by
    # up to 2.2e-7 at n = 10^8
    seen = []
    mean = bounds._witness_mean
    monkeypatch.setattr(bounds, "_witness_mean", lambda p: seen.append(p) or mean(p))
    xs = np.linspace(0.0, 40.0, 41)[1:] / n
    _fn_lower_error(n, xs)
    for k, pk in zip((1, 2, 3), seen[0]):
        want = [mp_binom_pmf(n, k, x) for x in xs]
        np.testing.assert_allclose(pk, want, rtol=1e-14, atol=0.0)


def test_witness_error_approaches_G_gap_at_rate_one_over_n():
    # n (||B_n f_n - f_n|| - sup |G - g|) settles near -0.71457 from n = 10^4
    # on; a log C(n, k) error of 2e-7 moves it by 24 at n = 10^8
    gap = sup_G_minus_g().sup_value
    for n in (10 ** 4, 10 ** 5, 10 ** 6, 10 ** 7, 10 ** 8):
        rate = n * (fn_lower_error_sup(n).sup_value - gap)
        assert -0.7147 <= rate <= -0.7145, (n, rate)


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
    lhs, rhs = modulus_upper_sides(cli._SQUARE, n)
    assert lhs == pytest.approx(1.0 / (2.0 * n), abs=1e-10)
    expect_rhs = 4.0 / (4.0 * n) + math.log(4.0) / n * 0.5 * (1.0 - 1.0 / n)
    assert rhs == pytest.approx(expect_rhs, abs=1e-8)
    assert lhs <= rhs


def test_modulus_upper_affine_is_zero_on_both_sides():
    affine = lambda y: 2.0 * np.asarray(y) - 1.0
    affine.curvature = 1  # f'' = 0 has either sign
    lhs, rhs = modulus_upper_sides(affine, 50)
    assert lhs <= 1e-10 and abs(rhs) <= 1e-9
    assert modulus_upper_check(affine, 50)


def test_modulus_upper_holds_on_witness():
    assert modulus_upper_check(build_fn_lower(1000), 1000)


@pytest.mark.parametrize("fn", [modulus_upper_sides, modulus_upper_check])
@pytest.mark.parametrize("n", [1, 0, -3, math.nan])
def test_modulus_upper_needs_n_at_least_two(fn, n):
    # (B_n f)'' needs n >= 2; unguarded, n = 0 divided by zero, n = -3 hit a
    # math domain error and n = 1 reported the derivative order instead
    with pytest.raises(ValueError, match=f"got n={n}"):
        fn(lambda y: np.asarray(y) ** 2, n)


def _iterate_h(n):
    """h = B_n f - f for f = sin(pi y), read from its values on the grid j/n
    as iterate_converse_check builds it."""
    f = lambda y: np.sin(math.pi * np.asarray(y))
    grid = np.arange(n + 1) / n
    h_grid = bernstein_apply_many(f, n, grid) - f(grid)
    return lambda y: h_grid[np.rint(np.asarray(y, dtype=float) * n).astype(int)]


# the functions bcv verify's bounds.modulus_upper_corpus check passes to
# modulus_upper_check, the witness, and an h of iterate_converse_check
_NORM_FNS = {
    "square": lambda n: cli._SQUARE,
    "cube": lambda n: cli._CUBE,
    "vee": lambda n: cli._VEE,
    "sine": lambda n: cli._SINE,
    "witness": build_fn_lower,
    "iterate_h": _iterate_h,
    # B_n f = f and (B_n f)'' = 0 up to rounding, so every point's enclosure
    # reaches the largest lower end and every point is a candidate
    "affine": lambda n: lambda y: 2.0 * np.asarray(y) - 0.5,
}


@pytest.mark.parametrize("n", [100, 1000, 10_000])
@pytest.mark.parametrize("name", list(_NORM_FNS))
def test_shared_norm_pass_equals_the_two_norms_bitwise(name, n):
    f = _NORM_FNS[name](n)
    grid = _modulus_norm_grid(f, n)
    # the modulus grid holds both endpoints and f's breakpoints
    assert grid[0] == 0.0 and grid[-1] == 1.0
    assert set(getattr(f, "breakpoints", ())) <= set(grid.tolist())
    for xs in (grid, _NORM_XS):
        assert _norms([f], n, xs) == [(error_norm(f, n, xs), d2_norm(f, n, xs))], xs[:3]


@pytest.mark.parametrize("nan_at", [0.25, 0.2505])
def test_norms_stay_nan_where_f_is_nan(nan_at):
    # NaN at a grid point k/n (0.25), or only at a norm point (0.2505), whose
    # narrow window is not all of [0, n]: the maxima are those of a full
    # pass, NaN included, and nothing raises
    n = 1000
    f = lambda y: np.where(np.asarray(y) == nan_at, np.nan, np.asarray(y) ** 2)
    xs = np.union1d(_NORM_XS, [nan_at])
    got, = _norms([f], n, xs)
    assert np.isnan(got[0])
    np.testing.assert_equal(got, (error_norm(f, n, xs), d2_norm(f, n, xs)))


# bcv verify's modulus corpus and the witness, which share norm passes
_BATCH_FNS = ("square", "cube", "vee", "sine", "witness")


def _batch_grid(fns, n):
    """The union of the modulus norm grids of fns: 0, 1 and every breakpoint."""
    return np.unique(np.concatenate([_modulus_norm_grid(f, n) for f in fns]))


@pytest.mark.parametrize("n", [10, 50, 10_000])
def test_batched_norm_pass_equals_one_function_calls_bitwise(n):
    fns = [_NORM_FNS[name](n) for name in _BATCH_FNS]
    for xs in (_batch_grid(fns, n), _NORM_XS):
        assert _norms(fns, n, xs) == [_norms([f], n, xs)[0] for f in fns], (n, xs[:3])
    x = _batch_grid(fns, n)[1:-1:7]  # every window width, at a seventh of the cost
    log_mass = _SCAN_LOG_MASS + math.log(n) + math.log(math.comb(n, 2))
    for m, mass in ((1, _BAND_LOG_MASS), (2, log_mass), (2, _BAND_LOG_MASS), (3, _BAND_LOG_MASS)):
        many = _derivative_and_apply(fns, n, m, x, mass)
        for f, got in zip(fns, many):
            (want,) = _derivative_and_apply([f], n, m, x, mass)
            assert all(np.array_equal(a, b) for a, b in zip(got, want)), (n, m, mass)


def test_nan_function_leaves_the_other_norms_of_its_batch_alone():
    n = 1000
    square, cube = _NORM_FNS["square"](n), _NORM_FNS["cube"](n)
    bad = lambda y: np.where(np.asarray(y) == 0.2505, np.nan, np.asarray(y) ** 2)
    xs = np.union1d(_NORM_XS, [0.2505])
    got = _norms([square, bad, cube], n, xs)
    assert np.isnan(got[1][0])
    np.testing.assert_equal(got[1], (error_norm(bad, n, xs), d2_norm(bad, n, xs)))
    assert [got[0], got[2]] == [_norms([square], n, xs)[0], _norms([cube], n, xs)[0]]


def _count_norm_passes(monkeypatch):
    """Patch bounds._norms to record the number of functions of each pass."""
    passes = []

    def spy(fs, n, xs):
        passes.append(len(fs))
        return _norms(fs, n, xs)

    monkeypatch.setattr(bounds, "_norms", spy)
    return passes


@pytest.mark.parametrize("n", [10, 50])
def test_modulus_sides_of_a_sequence_equal_the_one_function_calls(monkeypatch, n):
    fns = [_NORM_FNS[name](n) for name in _BATCH_FNS]
    each = [modulus_upper_sides(f, n) for f in fns]
    passes = _count_norm_passes(monkeypatch)
    assert modulus_upper_sides(fns, n) == each
    # the corpus shares one grid, as _VEE's breakpoints lie on it; the
    # witness's breakpoints give it a grid of its own
    assert passes == [4, 1]
    assert modulus_upper_check(tuple(fns), n) == [lhs <= rhs + 1e-12 for lhs, rhs in each]
    assert modulus_upper_sides([], n) == [] and modulus_upper_check([], n) == []


def test_iterate_converse_takes_both_norms_from_one_pass(monkeypatch):
    f = _NORM_FNS["cube"](50)
    want = iterate_converse_check(f, 50)
    passes = _count_norm_passes(monkeypatch)
    assert iterate_converse_check(f, 50) == want
    assert passes == [2]


def _narrow_and_full(f, n, xs, log_mass):
    """_d2_and_apply's (values, window errors) at log_mass and its values at
    the full windows, at the points xs."""
    (d2, bn, d2_err, bn_err), = _d2_and_apply([f], n, xs, log_mass)
    (d2_full, bn_full, _, _), = _d2_and_apply([f], n, xs, _BAND_LOG_MASS)
    return (d2, bn, d2_err, bn_err), (d2_full, bn_full)


@given(n=st.integers(2, 10_000), name=st.sampled_from(sorted(_NORM_FNS)),
       xs=st.lists(st.floats(1e-9, 1.0 - 1e-9), min_size=1, max_size=8))
def test_full_window_values_lie_in_the_narrow_enclosure(n, name, xs):
    assume(name != "witness" or n >= 8)  # build_fn_lower needs n >= 8
    f, xs = _NORM_FNS[name](n), np.array(xs)
    log_mass = _SCAN_LOG_MASS + math.log(n) + math.log(math.comb(n, 2))
    (d2, bn, d2_err, bn_err), (d2_full, bn_full) = _narrow_and_full(f, n, xs, log_mass)
    assert np.all(np.abs(bn_full - bn) <= bn_err), (bn_full - bn, bn_err)
    assert np.all(np.abs(d2_full - d2) <= d2_err), (d2_full - d2, d2_err)


@pytest.mark.parametrize("n", [100, 10_000, 100_000])
def test_narrow_norm_pass_lies_within_its_window_err_on_the_modulus_grid(n):
    # the narrow pass of _norms over a grid, whose union blocks sum each
    # point over more than its narrow window; every third inner point of the
    # modulus grid, at a third of the cost
    f = build_fn_lower(n)
    xs = _modulus_norm_grid(f, n)[1:-1:3]
    log_mass = _SCAN_LOG_MASS + math.log(n) + math.log(math.comb(n, 2))
    (d2, bn, d2_err, bn_err), (d2_full, bn_full) = _narrow_and_full(f, n, xs, log_mass)
    assert np.all(np.abs(bn_full - bn) <= bn_err)
    assert np.all(np.abs(d2_full - d2) <= d2_err)


def test_narrow_enclosure_needs_its_tail_term(monkeypatch):
    # at log-mass 3 the windows leave out far more than rounding: the
    # enclosures still hold, and the distance to the full sums exceeds the
    # rounding part gamma max|f| of the B_n f bound.  So much left out fails
    # the two-form check, which is switched off here: it is not under test.
    monkeypatch.setattr(bernstein, "_REL_TOL", math.inf)
    n = 1000
    f = build_fn_lower(n)
    xs = np.linspace(0.01, 0.99, 99)
    (d2, bn, d2_err, bn_err), (d2_full, bn_full) = _narrow_and_full(f, n, xs, 3.0)
    assert np.all(np.abs(bn_full - bn) <= bn_err)
    assert np.all(np.abs(d2_full - d2) <= d2_err)
    assert np.max(np.abs(bn_full - bn)) > 4.0 * (n + 1) * 2.0 ** -53


def test_witness_norms_sum_few_points_over_full_windows(monkeypatch):
    # the narrow pass sums every inner point; full windows are summed again
    # only where a max can sit
    n = 10_000
    f = build_fn_lower(n)
    xs = _modulus_norm_grid(f, n)
    seen = []

    def spy(fs, n, m, xs, log_mass):
        seen.append((log_mass, len(xs)))
        return _derivative_and_apply(fs, n, m, xs, log_mass)

    monkeypatch.setattr(bounds, "_derivative_and_apply", spy)
    _norms([f], n, xs)
    narrow, *full = seen
    assert narrow == (_SCAN_LOG_MASS + math.log(n) + math.log(math.comb(n, 2)), len(xs) - 2)
    assert all(log_mass == _BAND_LOG_MASS for log_mass, _ in full)
    assert sum(points for _, points in full) <= 8


# ---------------------------------------------------------------------------
# converse validators


def test_central_converse_binding_and_holds():
    res = central_converse_check(lambda y: np.asarray(y) ** 3, 50)
    assert isinstance(res, ValidatorResult)
    assert res.binding and res.holds
    assert res.lhs <= res.rhs + 1e-12
    assert "multiplier" in res.note


def test_central_converse_of_a_sequence_equals_the_one_function_calls(monkeypatch):
    fns = [lambda y: np.asarray(y) ** 3, lambda y: np.sin(math.pi * np.asarray(y))]
    each = [central_converse_check(f, 50) for f in fns]
    passes = _count_norm_passes(monkeypatch)
    assert central_converse_check(tuple(fns), 50) == each
    assert passes == [2]
    assert central_converse_check([], 50) == []


def test_central_converse_of_no_functions_runs_no_search(monkeypatch):
    # it ran a whole sup_H_n(n - 2) search and then returned []
    def never(n):
        raise AssertionError("sup_H_n searched")

    monkeypatch.setattr(bounds, "sup_H_n", never)
    assert central_converse_check([], 50) == []
    with pytest.raises(ValueError, match="got n=4"):
        central_converse_check([], 4)


@pytest.mark.parametrize("n", [0, 1, 3.5, 5.5, math.nan])
@pytest.mark.parametrize("check", [central_converse_check, noncentral_converse_check,
                                   iterate_converse_check])
def test_converse_validators_reject_a_bad_n_by_name(check, n):
    # unguarded, iterate_converse_check(f, 1) named m=2, iterate(f, 0) warned
    # of a division by zero, and central_converse_check(f, 5.5) named n - 2
    with pytest.raises(ValueError, match=f"got n={n}"):
        check(lambda y: np.asarray(y) ** 3, n)


def test_lower_bound_ratio_rejects_a_non_integer_n():
    with pytest.raises(ValueError, match="n must be a positive integer"):
        lower_bound_ratio(1000.5)


def test_central_converse_rejects_tiny_n():
    with pytest.raises(ValueError):
        central_converse_check(lambda y: np.asarray(y) ** 3, 4)


@pytest.mark.parametrize("n,note", [
    # the J-bound hypothesis fails
    pytest.param(200, "not binding: hypothesis fails: b_n", id="200"),
    # the hypothesis holds, but the multiplier 1 - J_n(m+1, a) is negative
    pytest.param(500, "vacuous: 1 - J bound = -0.0038 <= 0", id="500"),
])
def test_noncentral_converse_not_binding_at_small_n(n, note):
    res = noncentral_converse_check(lambda y: np.asarray(y) ** 3, n)
    assert not res.binding
    assert res.holds  # vacuously
    assert res.note.startswith(note)


@pytest.mark.parametrize("n", [200, 500])
def test_noncentral_converse_skips_the_norm_pass_when_not_binding(monkeypatch, n):
    # the J bounds decide binding before any norm is taken
    def never(*args):
        raise AssertionError("_norms ran")

    monkeypatch.setattr(bounds, "_norms", never)
    assert not noncentral_converse_check(lambda y: np.asarray(y) ** 3, n).binding


def test_noncentral_converse_binding_at_large_n():
    res = noncentral_converse_check(lambda y: np.asarray(y) ** 3, 2000)
    assert res.binding and res.holds
    assert res.lhs <= res.rhs


def test_noncentral_converse_validates_index():
    # i = first_valid_i(7.2) = 13 must not exceed m: the validator's fixed
    # (a, m) satisfies that
    assert first_valid_i(CONVERSE_A) == 13 <= CONVERSE_M


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
    lhs = d2_norm(h_fn, n, _NORM_XS) / (2.0 * n)
    rhs = error_norm(f, n, _NORM_XS) / SQRT2
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
    scale = d2_norm(f, n, _NORM_XS) / (2.0 * n)
    assert abs(res.lhs - lhs) <= 1e-13 * scale
