"""The binomial law and its band kernel, total variation, and inverse-moment
closed forms."""

import itertools
import math
import os
import platform
import subprocess
import sys
import warnings
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
from bcv.bounds import G_of_lambda, iterate_converse_check
from bcv.central import H_n_exact, _H_grid, nu
from bcv.dist import (LOG4, LOG2716, _BLOCK_ENTRIES, _EXP_ZERO, _SCAN_LOG_MASS,
                      BinomialLaw, _band_windows, _blocks, _dropped_moments, _exact_near_max,
                      _log_binom, _poisson_terms, inv_moment_shift_V,
                      stirling_mode_bound_check, tv_binom_poisson,
                      tv_binom_poisson_bound)


# ---------------------------------------------------------------------------
# binomial law


def test_binomial_pmf_matches_exact_rational_values():
    for n in (1, 5, 12):
        for p in (Fraction(1, 3), Fraction(2, 5), Fraction(1, 7)):
            row = BinomialLaw(n, float(p)).pmf_vector()
            for k in range(n + 1):
                assert row[k] == pytest.approx(
                    float(frac_binom_pmf(n, k, p)), rel=1e-13)


def test_binomial_pmf_vector_sums_to_one():
    for n in (1, 10, 200, 2000):
        # log-space terms each carry ~1e-16 relative error; the sum
        # accumulates to ~1e-12 by n = 2000
        assert abs(BinomialLaw(n, 0.37).pmf_vector().sum() - 1.0) < 1e-11


def test_binomial_degenerate_probabilities():
    assert BinomialLaw(5, 0.0).pmf_vector().tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    assert BinomialLaw(5, 1.0).pmf_vector().tolist() == [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]


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
    """The rows of the blocks of _blocks over xs, each scattered into a zero
    row of n+1 entries."""
    out = np.zeros((len(xs), n + 1))
    for sl, cols, rows in _blocks(n, xs):
        out[sl, cols] = rows
    return out


@pytest.mark.parametrize("n", [1, 2, 10, 1000, 10_000, 100_000])
def test_binomial_rows_equal_dense_reference_bitwise(n):
    # the rows of _blocks and pmf_vector's one-point block, both against
    # the full row of n+1 entries
    xs = _row_points(n)
    rows = _scattered_rows(n, xs)
    for x, row in zip(xs, rows):
        ref = dense_binomial_row(n, x)
        assert np.array_equal(row, ref), (n, x)
        assert np.array_equal(BinomialLaw(n, x).pmf_vector(), ref), (n, x)


def _window_log_mass(n, x):
    """The log-mass of each entry of the window of x in (0, 1), formed as
    _window_rows forms it."""
    _, lo, hi = _band_windows(n, [x])
    k = np.arange(lo[0], hi[0] + 1, dtype=float)
    return k * math.log(x) + _log_binom(n)[lo[0]:hi[0] + 1] + (n - k) * math.log1p(-x)


@pytest.mark.parametrize("n", [10_000, 100_000])
def test_rows_skip_exp_where_it_is_zero_and_keep_subnormals_bitwise(n):
    xs = _row_points(n)
    logs = np.concatenate([_window_log_mass(n, x) for x in xs if 0.0 < x < 1.0])
    # the windows hold entries whose exp is skipped and subnormal entries
    assert np.count_nonzero(logs < _EXP_ZERO) > 0
    assert np.count_nonzero((logs >= -745.13) & (logs <= -708.4)) > 0
    # byte for byte, so a -0.0 or a flushed subnormal fails
    rows = _scattered_rows(n, xs)
    for x, row in zip(xs, rows):
        assert row.tobytes() == dense_binomial_row(n, x).tobytes(), (n, x)
    assert np.any((rows > 0.0) & (rows < np.finfo(float).tiny))


def test_exp_below_the_zero_cut_is_positive_zero():
    # _window_rows leaves entries with log-mass below _EXP_ZERO at +0.0
    # rather than taking exp, which must give the same bits there
    assert _EXP_ZERO < -745.1332
    args = np.concatenate([np.linspace(-745.1333, -800.0, 1_000_001),
                           np.linspace(-800.0, -1e6, 100_001), [-1e300]])
    assert not np.any(np.exp(args).view(np.uint64))


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
    rows = _scattered_rows(n, xs)
    _, lo, hi = _band_windows(n, xs)
    for i, x in enumerate(xs):
        _, lo1, hi1 = _band_windows(n, [x])
        assert (lo[i], hi[i]) == (lo1[0], hi1[0]), (n, x)
        assert 0 <= lo[i] <= hi[i] <= n
        # every k with |k - nx| <= t lies in [lo, hi]
        t = _BAND_T / 3.0 + math.sqrt(_BAND_T ** 2 / 9.0 + 2.0 * _BAND_T * n * x * (1.0 - x))
        assert lo[i] == 0 or lo[i] <= n * x - t, (n, x)
        assert hi[i] == n or hi[i] >= n * x + t, (n, x)
        # and the row is the dense row, the same as the point's row alone
        assert np.array_equal(rows[i], dense_binomial_row(n, x)), (n, x)
        assert np.array_equal(rows[i], _scattered_rows(n, [x])[0]), (n, x)


@pytest.mark.parametrize("n", [10, 10_000, 1_000_000])
def test_blocks_cover_the_points_in_order_within_the_block_size(n):
    # a sorted run, points spread over the whole row, then one window held
    # by more points than fit a block at n >= 10^4
    xs = np.concatenate([np.linspace(0.2, 0.3, 500), np.linspace(0.0, 1.0, 300),
                         np.full(300, 0.5)])
    blocks = list(_blocks(n, xs))
    stops = [sl.stop for sl, _, _ in blocks]
    assert [sl.start for sl, _, _ in blocks] == [0] + stops[:-1] and stops[-1] == len(xs)
    _, lo, hi = _band_windows(n, xs)
    for sl, cols, rows in blocks:
        # one window per block, and the block's columns are that window
        assert len(set(lo[sl])) == len(set(hi[sl])) == 1
        width = hi[sl.start] - lo[sl.start] + 1
        assert sl.stop - sl.start == 1 or (sl.stop - sl.start) * width <= _BLOCK_ENTRIES
        assert (cols.start, cols.stop) == (lo[sl.start], hi[sl.start] + 1)
        assert rows.shape == (sl.stop - sl.start, width)
        # each row is the point's one-point row, and the dense row in the window
        for x, row in zip(xs[sl], rows):
            (_, _, alone), = _blocks(n, [x])
            assert np.array_equal(row, alone[0]), (n, x)
            if n <= 10_000:
                assert np.array_equal(row, dense_binomial_row(n, x)[cols]), (n, x)


@pytest.mark.parametrize("n", [10, 100, 10_000, 1_000_000])
def test_scan_blocks_cover_the_points_in_order_over_the_union_of_their_windows(n):
    # below the full log-mass a block takes consecutive points greedily over
    # the union of their narrow windows: sup_H_n's grid, then the points of
    # the shared-window test above
    log_mass = _SCAN_LOG_MASS + math.log(n)
    xs = np.concatenate([_H_grid(n), np.linspace(0.2, 0.3, 500),
                         np.linspace(0.0, 1.0, 300), np.full(300, 0.5)])
    blocks = list(_blocks(n, xs, log_mass))
    stops = [sl.stop for sl, _, _ in blocks]
    assert [sl.start for sl, _, _ in blocks] == [0] + stops[:-1] and stops[-1] == len(xs)
    _, lo, hi = _band_windows(n, xs, log_mass)
    for sl, cols, rows in blocks:
        # the block's window is the union of its points' windows, so it
        # holds each of them
        assert (cols.start, cols.stop) == (lo[sl].min(), hi[sl].max() + 1)
        assert rows.shape == (sl.stop - sl.start, cols.stop - cols.start)
        assert sl.stop - sl.start == 1 or rows.size <= _BLOCK_ENTRIES
        # the dense row over the block's window, at each block's last point
        if n <= 10_000:
            x = xs[sl.stop - 1]
            assert np.array_equal(rows[-1], dense_binomial_row(n, x)[cols]), (n, x)
    # greedy: the next point would not have fit
    for (sl, cols, _), (nxt, _, _) in zip(blocks, blocks[1:]):
        width = max(cols.stop - 1, hi[nxt.start]) - min(cols.start, lo[nxt.start]) + 1
        assert (sl.stop - sl.start + 1) * width > _BLOCK_ENTRIES


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
            list(_blocks(n, xs))
        with pytest.raises(ValueError):
            BinomialLaw(n, xs[-1])
    assert list(_blocks(5, [])) == []
    assert bernstein_apply_many(np.cos, 5, []).shape == (0,)
    assert not _log_binom(7).flags.writeable


def test_batched_expectations_never_build_a_dense_row(monkeypatch):
    # every batched expectation reads the bands of _blocks; only the
    # one-point helpers of BinomialLaw build a row of n+1 entries
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
    # without them the 753 band blocks of this derivative, of at most 2^15
    # entries, take about 2.9e4 minor page faults, with them about 610
    # (glibc 2.36)
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


def test_scan_passes_hold_few_blocks_of_memory():
    # in a fresh interpreter, the tracemalloc peaks of the scans of verify's
    # sup_H_n(100) and of the witness's norm pass: with blocks of 2^18
    # entries they were 7.3 and 7.4 MB; with 2^15, 1.5 and 2.8 MB, about 6
    # and 11 blocks of 8 _BLOCK_ENTRIES bytes, so the bounds of 8 and 16
    # blocks leave 1.4 times headroom.  sup_C took nu over its whole
    # 100,174-point grid at once, 8.5 MB here; with C_of_lambda's blocks of
    # 4,096 points it is 2.9 MB, mostly building the grid and what the calls
    # before it keep, so the bound of 4 MB leaves 1.37 times headroom.
    # scipy.special, which the first binomial row imports, is loaded before
    # tracing starts: its import is not the scans' memory
    code = ("import tracemalloc\n"
            "import scipy.special\n"
            "from bcv import bounds, central\n"
            "f = bounds.build_fn_lower(10 ** 4)\n"
            "tracemalloc.start()\n"
            "central.sup_H_n(100)\n"
            "print(tracemalloc.get_traced_memory()[1])\n"
            "tracemalloc.reset_peak()\n"
            "bounds.modulus_upper_check(f, 10 ** 4)\n"
            "print(tracemalloc.get_traced_memory()[1])\n"
            "tracemalloc.reset_peak()\n"
            "central.sup_C()\n"
            "print(tracemalloc.get_traced_memory()[1])\n")
    src = os.path.dirname(os.path.dirname(bcv.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    sup_h, modulus, sup_c = map(int, out.stdout.split())
    block = 8 * _BLOCK_ENTRIES
    assert sup_h < 8 * block
    assert modulus < 16 * block
    assert sup_c <= 4e6


@given(data=st.data(), rows=st.integers(1, 3), points=st.integers(1, 12))
def test_exact_near_max_is_exact_where_a_row_max_can_sit(data, rows, points):
    # full values F and errors, with zeros and a few NaNs, and narrow values
    # anywhere within the errors (equal to F where the error is 0)
    grid = lambda s: np.array(data.draw(st.lists(
        st.lists(s, min_size=points, max_size=points), min_size=rows, max_size=rows)))
    spots = st.lists(st.tuples(st.integers(0, rows - 1), st.integers(0, points - 1)),
                     max_size=2)
    F = grid(st.one_of(st.integers(-3, 3).map(float), st.floats(-10.0, 10.0)))
    u = grid(st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0)))
    errs = grid(st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
    for a in (F, errs):
        for r, i in data.draw(spots):
            a[r, i] = math.nan
    values = np.where(errs == 0.0, F, F + u * errs)
    asked = []

    def full(idx):
        asked.extend(idx.tolist())
        return F[:, idx]

    out = _exact_near_max(values, errs, full)
    # a point whose errors are all 0 is never summed again
    assert not np.any(np.all(errs[:, asked] == 0.0, axis=0))
    nan = np.isnan(F).any(axis=1, keepdims=True)
    top = np.max(F, axis=1, keepdims=True)
    # where a row's max can sit, every row is exact; a NaN keeps its point
    can_win = np.any(nan | (F == top), axis=0) | np.any(np.isnan(values + errs), axis=0)
    np.testing.assert_array_equal(out[:, can_win], F[:, can_win])
    # elsewhere each row is an upper bound strictly below that row's max
    below = ~nan & ~can_win
    assert np.all(out[below] < np.broadcast_to(top, F.shape)[below])
    assert np.all(out[below] >= F[below])
    np.testing.assert_array_equal(np.max(out, axis=1), np.max(F, axis=1))


def test_exact_near_max_sums_again_where_the_enclosures_overlap():
    # the max sits at point 0, its narrow value at the bottom of its
    # enclosure; point 1, at the top of its own, reaches above it; point 2
    # cannot win and keeps its upper end
    F = np.array([[1.0, 0.9, -5.0]])
    errs = np.full((1, 3), 0.5)
    asked = []

    def full(idx):
        asked.extend(idx.tolist())
        return F[:, idx]

    out = _exact_near_max(F + np.array([[-0.5, 0.5, 0.0]]), errs, full)
    assert asked == [0, 1]
    assert out[0, 0] == 1.0 and out[0, 1] == 0.9
    assert -4.5 <= out[0, 2] < 1.0


@pytest.mark.parametrize("n", [3, 10, 63, 64, 10_000, 1_000_000])
def test_dropped_moments_bound_the_dense_tails_on_each_side(n):
    # windows that reach 0, that reach n, interior ones, and the narrow
    # windows of the scans, at points within 1e-9 of 0 and 1 and inside
    xs = np.array([1e-9, 1.0 - 1e-9, 0.05, 0.5, 0.77, min(3.45 / n, 0.3)])
    k = np.arange(n + 1)
    for x in xs.tolist():
        row = dense_binomial_row(n, x)
        moments = row * np.abs(k - n * x) ** np.arange(3).reshape(-1, 1)
        # left[:, a] sums the entries below a, right[:, b] those above b,
        # each from its own end, so without cancellation
        zero = np.zeros((3, 1))
        left = np.hstack([zero, np.cumsum(moments, axis=1)])
        right = np.hstack([np.cumsum(moments[:, ::-1], axis=1)[:, ::-1][:, 1:], zero])
        spread = math.sqrt(n * x * (1.0 - x)) + 1.0
        cuts = {0, n, *(int(np.clip(n * x + c * spread, 0, n)) for c in (-9, -4, -1, 1, 4, 9))}
        for log_mass in (5.0, _SCAN_LOG_MASS + math.log(n), 40.0):
            _, lo, hi = _band_windows(n, [x], log_mass)
            cuts |= {int(lo[0]), int(hi[0])}
        for lo, hi in itertools.product(sorted(cuts), repeat=2):
            if lo > hi:
                continue
            # each side alone, then both: a window that reaches 0 or n on a
            # side leaves nothing out there
            for a, b in ((lo, n), (0, hi), (lo, hi)):
                t = _dropped_moments(n, np.array([x]), np.array([a]), np.array([b]))[:, 0]
                assert np.all(t >= left[:, a] + right[:, b]), (n, x, a, b)
        t = _dropped_moments(n, np.array([x]), np.array([0]), np.array([n]))
        assert np.array_equal(t, np.zeros((3, 1)))


@pytest.mark.parametrize("n", [3, 64, 10_000, 1_000_000])
def test_dropped_moments_of_a_band_window_stay_below_its_bernstein_charge(n):
    # a window at log-mass T holds its Bernstein band, outside which lies
    # mass at most 2 e^-T: the edge bounds, rounding slack and all, stay
    # within twice that, and n times it for the first moment
    xs = np.concatenate([[1e-9, 1.0 - 1e-9, 0.0, 1.0], np.linspace(0.0, 1.0, 1001)])
    for log_mass in (1.0, 5.0, _SCAN_LOG_MASS + math.log(n), 40.0, 700.0):
        xs, lo, hi = _band_windows(n, xs, log_mass)
        t0, t1, _ = _dropped_moments(n, xs, lo, hi)
        assert np.all(t0 <= 4.0 * math.exp(-log_mass)), (n, log_mass)
        assert np.all(t1 <= 4.0 * n * math.exp(-log_mass)), (n, log_mass)


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
    # scipy's pmfs over k = 0..999 hold all but 1e-15 of both laws; at
    # lam = n nearly half the Poisson mass lies beyond k = n
    k = np.arange(1000)
    for n, lam in ((20, 1.0), (10, 0.1), (50, 5.0), (1000, 2.0), (30, 29.0),
                   (100, 99.5), (100, 100.0), (10, 10.0)):
        direct = 0.5 * float(np.sum(np.abs(stats.binom.pmf(k, n, lam / n)
                                           - stats.poisson.pmf(k, lam))))
        assert tv_binom_poisson(n, lam) == pytest.approx(direct, abs=1e-12), (n, lam)


def test_poisson_kernel_rejects_lambda_beyond_its_normal_start():
    # p_0 = e^-lam is a normal float up to lam = 708.39; past 700 nu and
    # tv_binom_poisson raise, naming lam, where a ceil(lam)-step pass would
    # run on (and at lam = 1e9 never end).  G needs P_1..P_3 only, which
    # round to 0 long before, so G is 1.0 there, correct to the last bit
    with pytest.raises(ValueError, match="lam=700.5"):
        nu(700.5)
    with pytest.raises(ValueError, match="lam=800.0"):
        tv_binom_poisson(1000, 800.0)
    assert G_of_lambda(1e4) == 1.0


def test_poisson_terms_follow_the_recurrence_for_arrays_and_floats():
    lams = np.array([0.0, 0.5, 3.0, 40.0])
    terms = list(itertools.islice(_poisson_terms(lams), 6))
    for k, row in enumerate(terms):
        exact = [float(stats.poisson.pmf(k, lam)) for lam in lams]
        np.testing.assert_allclose(row, exact, rtol=1e-14, atol=0.0)
        assert np.array_equal(row, [list(itertools.islice(_poisson_terms(lam), 6))[k]
                                    for lam in lams])


@given(st.integers(1, 60), st.floats(1e-3, 1.0))
def test_tv_binom_poisson_lies_in_the_unit_interval(n, frac):
    assert 0.0 <= tv_binom_poisson(n, frac * n) <= 1.0


def test_tv_binom_poisson_validation():
    for n, lam in ((10, 0.0), (10, -0.1), (10, 10.5), (10, math.nan), (0, 0.5)):
        with pytest.raises(ValueError):
            tv_binom_poisson(n, lam)


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


@pytest.mark.parametrize("fn", [lambda y: inv_moment_shift_V(y),
                                lambda lam: tv_binom_poisson_bound(100, lam)],
                         ids=["inv_moment_shift_V", "tv_binom_poisson_bound"])
def test_nan_argument_raises(fn):
    with pytest.raises(ValueError):
        fn(math.nan)


def test_tv_bound_dominates_exact_distance_on_grid():
    for n in (10, 20, 50, 100):
        for lam in (0.5, 1.0, 2.0, 5.0):
            if lam > n / 2:
                continue
            assert tv_binom_poisson(n, lam) <= tv_binom_poisson_bound(n, lam), (n, lam)


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


@pytest.mark.parametrize("m", [2.5, 3.0, np.array([1.0, 2.0]), True])
def test_stirling_mode_bound_rejects_a_non_integer_m_by_name(m):
    # a float m raised numpy's IndexError on the float index arrays
    with pytest.raises(ValueError, match=r"m must be an integer.*got m="):
        stirling_mode_bound_check(10, m)


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


def test_inv_moment_relative_error_up_to_a_million():
    # the closed form cancels y log y down to ~1/y (1.6e-3 relative at 10^6);
    # the series in 1/(y+1) takes over where that loses digits
    ys = np.concatenate([np.linspace(0.0, 4.0, 33), np.geomspace(4.0, 1e6, 40),
                         np.arange(1.0, 60.0)])
    for y in ys:
        ref = mp_inv_moment_shift(float(y), dps=50)
        assert abs(inv_moment_shift_V(y) / ref - 1.0) <= 1e-14, y
    assert np.array_equal(inv_moment_shift_V(ys), [inv_moment_shift_V(float(y)) for y in ys])


def test_inv_moment_is_finite_at_huge_and_infinite_y():
    # the closed form is taken only below _INV_SERIES_FROM: at y = inf it
    # formed inf - inf, and at 1e300 the series' c * c overflowed, each a
    # RuntimeWarning; E 1/(y + V) falls as 1/y
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = inv_moment_shift_V(np.array([0.5, 1e300, math.inf]))
        assert inv_moment_shift_V(math.inf) == 0.0
    assert out[0] == inv_moment_shift_V(0.5)
    assert out[1] == pytest.approx(1e-300, rel=1e-15)
    assert out[2] == 0.0


@given(st.floats(0.0, 1e4))
def test_inv_moment_positive_and_decreasing(y):
    a = inv_moment_shift_V(y)
    b = inv_moment_shift_V(y + 1.0)
    assert a > 0.0
    assert b < a
