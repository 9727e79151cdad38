"""Discrete laws, total variation, and inverse-moment closed forms."""

import math
import os
import platform
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

import bcv
from oracles import (dense_binomial_row, frac_binom_pmf, mp_inv_moment_shift,
                     quad_integral, tent_density)
from bcv.bernstein import bernstein_apply_many, bernstein_derivative
from bcv.bounds import iterate_converse_check
from bcv.central import H_n_exact
from bcv.dist import (LOG4, LOG2716, _BLOCK_ENTRIES, BinomialLaw, PoissonLaw,
                      _band_windows, _blocks, _log_binom, binomial_band,
                      inv_moment_shift_V, stirling_mode_bound_check,
                      tv_binom_poisson_bound, tv_distance)


# ---------------------------------------------------------------------------
# binomial law


def test_binomial_pmf_matches_exact_rational_values():
    for n in (1, 5, 12):
        for p in (Fraction(1, 3), Fraction(2, 5), Fraction(1, 7)):
            law = BinomialLaw(n, float(p))
            for k in range(n + 1):
                assert law.pmf(k) == pytest.approx(
                    float(frac_binom_pmf(n, k, p)), rel=1e-13)


def test_binomial_pmf_vector_sums_to_one():
    for n in (1, 10, 200, 2000):
        # log-space terms each carry ~1e-16 relative error; the sum
        # accumulates to ~1e-12 by n = 2000
        assert abs(BinomialLaw(n, 0.37).pmf_vector().sum() - 1.0) < 1e-11


def test_binomial_degenerate_probabilities():
    assert BinomialLaw(5, 0.0).pmf(0) == 1.0
    assert BinomialLaw(5, 0.0).pmf(1) == 0.0
    assert BinomialLaw(5, 1.0).pmf(5) == 1.0
    assert BinomialLaw(5, 1.0).pmf(4) == 0.0


def test_binomial_pmf_outside_support_is_zero():
    law = BinomialLaw(4, 0.3)
    assert law.pmf(-1) == 0.0
    assert law.pmf(5) == 0.0
    assert law.pmf(2.5) == 0.0


@pytest.mark.parametrize("n", [1, 7, 59, 200, 1000, 10_000])
def test_binomial_pmf_reads_the_pmf_vector_bitwise(n):
    for x in (0.0, 1e-9, 0.3, 0.5, 1.0 - 1e-9, 1.0, 3.0 / (n + 3)):
        law = BinomialLaw(n, x)
        row = law.pmf_vector()
        k = np.arange(-2, n + 3)
        got = law.pmf(k)
        assert got.shape == k.shape
        assert np.array_equal(got[2:n + 3], row), (n, x)
        assert np.all(got[:2] == 0.0) and np.all(got[n + 3:] == 0.0)
        assert np.array_equal(law.pmf(k + 0.5), np.zeros(len(k)))
        for kk in (0, n // 2, n):
            assert law.pmf(kk) == row[kk]


def test_binomial_cdf_endpoints_and_monotonicity():
    # the cdf as the running sum of the pmf row
    cdf = np.cumsum(BinomialLaw(9, 0.42).pmf_vector())
    assert cdf[0] == pytest.approx(0.58 ** 9, rel=1e-12)
    assert cdf[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(cdf) >= 0.0)
    assert np.allclose(cdf, stats.binom.cdf(np.arange(10), 9, 0.42), rtol=0, atol=1e-12)


def test_binomial_validation():
    with pytest.raises(ValueError):
        BinomialLaw(0, 0.5)
    with pytest.raises(ValueError):
        BinomialLaw(3, 1.5)


@given(st.integers(1, 40), st.floats(0.0, 1.0))
def test_binomial_mean_property(n, x):
    law = BinomialLaw(n, x)
    k = np.arange(n + 1)
    assert float(k @ law.pmf_vector()) == pytest.approx(n * x, abs=1e-9)


# ---------------------------------------------------------------------------
# banded binomial-row kernel

# Bernstein's inequality puts every entry with |k - nx| > t below
# exp(-_BAND_T), t = T/3 + sqrt(T^2/9 + 2 T nx(1-x)); exp(-745.2) is 0.0.
_BAND_T = 760.0


def _row_points(n):
    xs = (0.0, 1e-12, 0.5 / n, 3.0 / n, 0.3, 0.5, 1.0 - 2.0 / n, 1.0 - 1e-9, 1.0)
    return [x for x in xs if 0.0 <= x <= 1.0]


def _scattered_rows(n, xs):
    """The rows of one binomial_band over all of xs, each scattered into a
    zero row of n+1 entries."""
    band = binomial_band(n, xs)
    out = np.zeros((len(xs), n + 1))
    out[:, band.cols] = band.rows
    return out


@pytest.mark.parametrize("n", [1, 2, 10, 1000, 10_000, 100_000])
def test_binomial_rows_equal_dense_reference_bitwise(n):
    # the band's rows and pmf_vector's one-point band, both against the
    # full row of n+1 entries
    xs = _row_points(n)
    rows = _scattered_rows(n, xs)
    for x, row in zip(xs, rows):
        ref = dense_binomial_row(n, x)
        assert np.array_equal(row, ref), (n, x)
        assert np.array_equal(BinomialLaw(n, x).pmf_vector(), ref), (n, x)


@pytest.mark.parametrize("n", [10, 1000, 10_000, 100_000])
def test_dense_reference_is_zero_outside_the_band(n):
    k = np.arange(n + 1)
    for x in _row_points(n):
        t = _BAND_T / 3.0 + math.sqrt(_BAND_T ** 2 / 9.0 + 2.0 * _BAND_T * n * x * (1.0 - x))
        outside = np.abs(k - n * x) > t
        assert np.all(dense_binomial_row(n, x)[outside] == 0.0), (n, x)


_EDGE_POINTS = st.sampled_from([0.0, 1e-12, 0.5, 1.0 - 1e-9, 1.0])


@given(st.sampled_from([1, 2, 10, 500, 1000, 10_000, 100_000]),
       st.lists(st.one_of(st.floats(0.0, 1.0), _EDGE_POINTS), min_size=1, max_size=8))
def test_band_window_is_per_point_and_holds_the_band(n, xs):
    band = binomial_band(n, xs)
    _, lo, hi = _band_windows(n, xs)
    for i, x in enumerate(xs):
        alone = binomial_band(n, [x])
        _, lo1, hi1 = _band_windows(n, [x])
        assert (lo[i], hi[i]) == (lo1[0], hi1[0]), (n, x)
        assert 0 <= lo[i] <= hi[i] <= n
        # every k with |k - nx| <= t lies in [lo, hi]
        t = _BAND_T / 3.0 + math.sqrt(_BAND_T ** 2 / 9.0 + 2.0 * _BAND_T * n * x * (1.0 - x))
        assert lo[i] == 0 or lo[i] <= n * x - t, (n, x)
        assert hi[i] == n or hi[i] >= n * x + t, (n, x)
        # and the row is exactly zero outside its window, the one-point row in it
        k = np.arange(band.offset, band.offset + band.rows.shape[1])
        inside = (k >= lo[i]) & (k <= hi[i])
        assert np.all(band.rows[i][~inside] == 0.0), (n, x)
        assert np.array_equal(band.rows[i][inside],
                              alone.rows[0][lo[i] - alone.offset:hi[i] + 1 - alone.offset])


@pytest.mark.parametrize("n", [10, 10_000, 1_000_000])
def test_blocks_cover_the_points_in_order_within_the_block_size(n):
    # a sorted run, points spread over the whole row, then one window held
    # by more points than fit a block at n >= 10^4
    xs = np.concatenate([np.linspace(0.2, 0.3, 500), np.linspace(0.0, 1.0, 300),
                         np.full(300, 0.5)])
    slices = _blocks(n, xs)
    stops = [sl.stop for sl in slices]
    assert [sl.start for sl in slices] == [0] + stops[:-1] and stops[-1] == len(xs)
    _, lo, hi = _band_windows(n, xs)
    for sl in slices:
        # one window per block, so its band is that window
        assert len(set(lo[sl])) == len(set(hi[sl])) == 1
        width = hi[sl.start] - lo[sl.start] + 1
        assert sl.stop - sl.start == 1 or (sl.stop - sl.start) * width <= _BLOCK_ENTRIES
        band = binomial_band(n, xs[sl])
        assert (band.offset, band.rows.shape[1]) == (lo[sl.start], width)


def test_binomial_rows_match_exact_rationals_for_small_n():
    ps = (Fraction(1, 3), Fraction(2, 5), Fraction(1, 7), Fraction(9, 10))
    for n in range(1, 13):
        rows = _scattered_rows(n, [float(p) for p in ps])
        for p, row in zip(ps, rows):
            ref = [float(frac_binom_pmf(n, k, p)) for k in range(n + 1)]
            assert row == pytest.approx(ref, rel=1e-13, abs=0.0), (n, p)
            assert BinomialLaw(n, float(p)).pmf_vector() == pytest.approx(
                ref, rel=1e-13, abs=0.0), (n, p)


def test_binomial_row_at_a_million_is_narrow_and_normalized():
    n = 10 ** 6
    row = BinomialLaw(n, 0.5).pmf_vector()
    nz = np.flatnonzero(row)
    assert nz[-1] - nz[0] + 1 < n / 10
    # log C(n, k) is a difference of gammaln values near 1.3e7, whose ulp
    # is 1.9e-9, so the log-space row sums to 1 only to about 1e-9 here
    assert abs(row.sum() - 1.0) < 5e-9


def test_binomial_rows_validation_and_read_only_cache():
    for n, xs in ((0, [0.5]), (5, [0.2, 1.5]), (5, [float("nan")])):
        with pytest.raises(ValueError):
            binomial_band(n, xs)
        with pytest.raises(ValueError):
            BinomialLaw(n, xs[-1])
    empty = binomial_band(5, [])
    assert empty.rows.shape == (0, 0)
    assert bernstein_apply_many(np.cos, 5, []).shape == (0,)
    assert not _log_binom(7).flags.writeable


def test_batched_expectations_never_build_a_dense_row(monkeypatch):
    # every batched expectation reads binomial_band; only the one-point
    # helpers of BinomialLaw build a row of n+1 entries
    def no_dense_row(self):
        raise AssertionError("dense pmf row built")

    monkeypatch.setattr(BinomialLaw, "pmf_vector", no_dense_row)
    cube = lambda y: np.asarray(y) ** 3
    xs = np.linspace(0.05, 0.5, 7)
    assert np.all(np.isfinite(bernstein_apply_many(cube, 200, xs)))
    assert np.all(np.isfinite(bernstein_derivative(cube, 200, 2, xs)))
    assert np.all(np.isfinite(H_n_exact(200, xs)))
    assert np.all(stirling_mode_bound_check(200, np.arange(1, 200)))
    assert iterate_converse_check(cube, 50).holds
    with pytest.raises(AssertionError, match="dense pmf row"):
        BinomialLaw(5, 0.5).pmf_vector()


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's heap limits")
def test_block_loops_do_not_page_fault_every_block():
    # in a fresh interpreter, so no earlier test has grown glibc's limits:
    # without them the 35 band blocks of this derivative take 1.3e4 minor
    # page faults, with them about 4.6e3
    code = ("import resource, numpy as np\n"
            "from bcv import bernstein\n"
            "x = np.linspace(0.01, 0.99, 2000)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "bernstein.bernstein_derivative(lambda y: np.sin(3.0 * y), 10000, 2, x)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
    src = os.path.dirname(os.path.dirname(bcv.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert int(out.stdout) < 10_000


# ---------------------------------------------------------------------------
# Poisson law


def test_poisson_pmf_matches_scipy():
    for lam in (0.1, 1.0, 4.5, 60.0):
        law = PoissonLaw(lam)
        k = np.arange(0, 30)
        assert np.allclose(law.pmf(k), stats.poisson.pmf(k, lam), atol=1e-14)


def test_poisson_truncation_tail_is_negligible():
    for lam in (0.5, 10.0, 100.0):
        cut = PoissonLaw(lam).truncation()
        assert float(stats.poisson.sf(cut, lam)) < 1e-15


def test_poisson_pmf_vector_sums_to_one():
    for lam in (0.0, 2.0, 55.0):
        law = PoissonLaw(lam)
        assert abs(law.pmf(law.support()).sum() - 1.0) < 1e-12


def test_poisson_zero_mean_is_point_mass():
    law = PoissonLaw(0.0)
    assert law.pmf(0) == 1.0
    assert law.pmf(1) == 0.0


def test_poisson_validation():
    with pytest.raises(ValueError):
        PoissonLaw(-0.1)


# ---------------------------------------------------------------------------
# continuous auxiliaries


def test_triangular_density_normalizes_and_peaks_at_one():
    # the law of V that the quadrature oracle for E 1/(y+V) integrates against
    assert quad_integral(tent_density, 0.0, 2.0) == pytest.approx(1.0, abs=1e-10)
    assert tent_density(1.0) == 1.0
    assert tent_density(-0.5) == 0.0 and tent_density(2.5) == 0.0
    assert quad_integral(lambda v: v * tent_density(v), 0.0, 2.0) == pytest.approx(
        1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# total variation


def test_tv_distance_agrees_with_direct_half_l1():
    p, q = BinomialLaw(20, 0.05), PoissonLaw(1.0)
    k = np.arange(0, 200)
    direct = 0.5 * float(np.sum(np.abs(stats.binom.pmf(k, 20, 0.05)
                                       - stats.poisson.pmf(k, 1.0))))
    assert tv_distance(p, q) == pytest.approx(direct, abs=1e-12)


@given(st.integers(2, 30), st.floats(0.01, 0.99), st.floats(0.1, 10.0))
def test_tv_distance_symmetric_bounded_zero_on_self(n, x, lam):
    p, q = BinomialLaw(n, x), PoissonLaw(lam)
    d = tv_distance(p, q)
    assert d == pytest.approx(tv_distance(q, p), abs=1e-14)
    assert -1e-12 <= d <= 1.0 + 1e-12
    assert tv_distance(p, p) == 0.0


def test_tv_bound_formula_value():
    # (1/100)(sqrt(2)/4 + (4/11) * 7 / 100) with lam = 1
    assert tv_binom_poisson_bound(100, 1.0) == pytest.approx(
        (1 / 100) * (math.sqrt(2) / 4 + (4 / 11) * 7 / 100), rel=1e-14)
    assert tv_binom_poisson_bound(100, 1.0) == pytest.approx(0.00379008, abs=5e-9)


def test_tv_bound_requires_n_at_least_ten():
    with pytest.raises(ValueError):
        tv_binom_poisson_bound(9, 1.0)
    with pytest.raises(ValueError):
        tv_binom_poisson_bound(100, -1.0)


def test_tv_bound_dominates_exact_distance_on_grid():
    for n in (10, 20, 50, 100):
        for lam in (0.5, 1.0, 2.0, 5.0):
            if lam > n / 2:
                continue
            d = tv_distance(BinomialLaw(n, lam / n), PoissonLaw(lam))
            assert d <= tv_binom_poisson_bound(n, lam), (n, lam)


# ---------------------------------------------------------------------------
# mode bound and inverse moments


def test_stirling_mode_bound_holds_up_to_n_60():
    for n in range(2, 61):
        each = [stirling_mode_bound_check(n, m) for m in range(1, n)]
        assert all(each)
        assert stirling_mode_bound_check(n, np.arange(1, n)).tolist() == each


def test_stirling_mode_bound_validation():
    with pytest.raises(ValueError):
        stirling_mode_bound_check(5, 0)
    with pytest.raises(ValueError):
        stirling_mode_bound_check(5, 5)
    with pytest.raises(ValueError):
        stirling_mode_bound_check(5, np.array([1, 5]))


def test_inv_moment_closed_form_values():
    assert inv_moment_shift_V(0.0) == pytest.approx(LOG4, abs=1e-14)
    assert inv_moment_shift_V(1.0) == pytest.approx(LOG2716, abs=1e-14)


def test_inv_moment_matches_quadrature_oracle():
    for y in (0.0, 0.5, 1.0, 2.0, 10.0, 100.0):
        ref = quad_integral(lambda v: tent_density(v) / (y + v), 0.0, 2.0)
        assert inv_moment_shift_V(y) == pytest.approx(ref, abs=1e-10)


def test_inv_moment_matches_high_precision_oracle():
    for y in (0.0, 0.25, 1.0, 3.7, 50.0):
        assert inv_moment_shift_V(y) == pytest.approx(
            mp_inv_moment_shift(y), abs=1e-13)


def test_inv_moment_accepts_arrays_and_rejects_negative():
    ys = np.array([0.0, 1.0, 2.0])
    out = inv_moment_shift_V(ys)
    assert out.shape == ys.shape
    assert out[0] == pytest.approx(LOG4)
    with pytest.raises(ValueError):
        inv_moment_shift_V(-0.5)


@given(st.floats(0.0, 1e4))
def test_inv_moment_positive_and_decreasing(y):
    a = inv_moment_shift_V(y)
    b = inv_moment_shift_V(y + 1.0)
    assert a > 0.0
    # the xlogy closed form cancels ~y log y down to ~1/y, so demand
    # monotonicity only above the cancellation noise floor
    assert b <= a + 1e-10
