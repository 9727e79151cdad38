"""Noncentral-region machinery: fixpoint iterates, J constants, simulation."""

import itertools
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import mp_L_k_table, plain_alpha, riemann_midpoint, serial_simulate_J
from bcv import noncentral
from bcv.noncentral import (L_k, SimulatedJ, b_n, edge_region_max,
                            epsilon_n, finite_n_J_bound, first_valid_i,
                            J_limit, simulate_J)
from bcv.dist import LOG4, LOG2716


# ---------------------------------------------------------------------------
# the iterates alpha_k


def alpha_iter(m, theta):
    """alpha_m(theta), read from the package's iterate generator; a float
    for a float theta."""
    v = next(itertools.islice(noncentral._alpha_iterates(np.asarray(theta, dtype=float)),
                              m, None))
    return v if v.ndim else float(v)


def test_alpha_iter_start_and_recursion():
    assert alpha_iter(0, 0.7) == 0.7
    for m in range(4):
        a, b = alpha_iter(m, 0.7), alpha_iter(m + 1, 0.7)
        assert b == pytest.approx(1.0 - math.exp(-a), abs=1e-15)


def test_alpha_iter_matches_plain_recursion():
    for m in (0, 1, 5, 40):
        for theta in (0.0, 0.3, 1.0):
            assert alpha_iter(m, theta) == pytest.approx(
                plain_alpha(m, theta), abs=1e-15)


def test_alpha_iterates_decrease_to_zero():
    prev = 1.0
    for m in range(1, 201):
        cur = alpha_iter(m, 1.0)
        assert 0.0 < cur < prev
        prev = cur
    assert alpha_iter(200, 1.0) < 0.02


def test_alpha_iter_on_an_array_equals_pointwise_calls():
    theta = np.linspace(0.0, 1.0, 101)
    for m in (0, 1, 13):
        v = alpha_iter(m, theta)
        assert v.shape == theta.shape
        assert np.array_equal(v, [alpha_iter(m, float(t)) for t in theta])


def test_alpha_fixes_zero():
    assert alpha_iter(17, 0.0) == 0.0


@given(st.integers(1, 60), st.floats(0.0, 1.0))
def test_alpha_contracts_property(m, theta):
    v = alpha_iter(m, theta)
    assert 0.0 <= v <= theta + 1e-15


# ---------------------------------------------------------------------------
# the index i and the scale b_n


def test_first_valid_i_certificates():
    assert first_valid_i(7.2) == 13
    assert alpha_iter(12, 1.0) < 1.0 / 7.2 < alpha_iter(11, 1.0)
    assert first_valid_i(0.9) == 1
    with pytest.raises(ValueError):
        first_valid_i(0.0)


@pytest.mark.parametrize("a", [math.nan, math.inf, 1e300])
def test_first_valid_i_rejects_non_finite_and_unreachable_a(a):
    # 1e300 would need an index far past the depth cap, since i grows like 2a
    with pytest.raises(ValueError):
        first_valid_i(a)


def test_b_n_limit_identity_and_domain():
    # b_n solves b (1 - b/n) = a and decreases to a
    for a, n in ((7.2, 100.0), (0.9, 1000.0), (7.2, 1e9)):
        b = b_n(a, n)
        assert b * (1.0 - b / n) == pytest.approx(a, abs=1e-10)
    assert b_n(7.2, 1e12) == pytest.approx(7.2, abs=1e-9)
    assert b_n(7.2, 100.0) > b_n(7.2, 1000.0) > 7.2
    for a, n in ((7.2, 28.0), (7.2, math.nan), (math.nan, 100.0)):
        with pytest.raises(ValueError):
            b_n(a, n)
    with pytest.raises(ValueError):
        finite_n_J_bound(1000, 1, math.nan)


@pytest.mark.parametrize("a", [-1.0, 0.0, math.nan])
@pytest.mark.parametrize("fn", [lambda a: b_n(a, 100.0),
                                lambda a: edge_region_max(a, 100.0),
                                lambda a: finite_n_J_bound(1000, 1, a)],
                         ids=["b_n", "edge_region_max", "finite_n_J_bound"])
def test_edge_region_needs_positive_finite_a(fn, a):
    # as J_limit and simulate_J; unguarded, finite_n_J_bound(1000, 1, -1.0)
    # returns a negative bound, -2.71
    with pytest.raises(ValueError, match="a must be positive"):
        fn(a)


def test_epsilon_n_value_and_monotonicity():
    assert epsilon_n(100) == pytest.approx(4.0 * LOG2716 / 100 + math.exp(-50.0),
                                           rel=1e-14)
    assert epsilon_n(10) > epsilon_n(100) > epsilon_n(10_000)
    for bad in (0, math.nan):
        with pytest.raises(ValueError):
            epsilon_n(bad)


def test_edge_region_endpoint_solves_phi_equation():
    for a, n in ((7.2, 100.0), (0.9, 5000.0)):
        xa = edge_region_max(a, n)
        assert n * xa * (1.0 - xa) == pytest.approx(a, abs=1e-9)
        assert 0.0 < xa < 0.5
    for a, n in ((7.2, 20.0), (7.2, math.nan), (math.nan, 100.0)):
        with pytest.raises(ValueError):
            edge_region_max(a, n)


# ---------------------------------------------------------------------------
# the integrals L_k and the limit constants J


def test_L_1_closed_form():
    # alpha_0 = theta makes the integrand e^{-a theta}
    for a in (0.5, 7.2):
        assert L_k(1, a) == pytest.approx((1.0 - math.exp(-a)) / a, abs=1e-12)
    assert L_k(1, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_L_k_matches_library_quadrature():
    ks, avals = (1, 2, 5, 13, 21, 25), (0.0, 0.9, 5.0, 7.2, 10.0, 400.0, 1e4)
    ref = mp_L_k_table(ks, avals)
    for k in ks:
        for a in avals:
            assert L_k(k, a) == pytest.approx(float(ref[k, a]), rel=1e-14, abs=0.0)


def test_L_k_and_J_limit_on_an_array_of_k_equal_single_calls():
    ks = np.arange(1, 30)
    for a in (0.9, 7.2):
        L, J = L_k(ks, a), J_limit(ks, a)
        assert L.shape == J.shape == ks.shape
        assert np.array_equal(L, [L_k(int(k), a) for k in ks])
        assert np.array_equal(J, [J_limit(int(k), a) for k in ks])
    with pytest.raises(ValueError):
        J_limit(np.array([2, 0]), 7.2)
    with pytest.raises(ValueError):
        L_k(1.5, 7.2)


def test_J_limit_over_more_a_than_one_block_equals_single_calls():
    # 1,000 values of a at m = 20 span 11 blocks of _L_and_alpha1
    ks, avals = np.arange(1, 22), np.linspace(6.0, 9.0, 1000)
    rows = J_limit(ks, avals)
    assert rows.shape == (1000, 21)
    assert np.array_equal(rows, [J_limit(ks, float(a)) for a in avals])


def test_L_k_matches_midpoint_riemann():
    ref = riemann_midpoint(
        lambda t: (plain_alpha(2, t) / t) ** 2 * math.exp(-7.2 * plain_alpha(2, t)),
        0.0, 1.0, 200_000)
    assert L_k(3, 7.2) == pytest.approx(ref, abs=1e-7)


def test_L_k_range_and_monotonicity_in_a():
    for k in (1, 3, 10):
        assert 0.0 < L_k(k, 5.0) <= 1.0
        assert L_k(k, 1.0) > L_k(k, 5.0)
    with pytest.raises(ValueError):
        L_k(0, 1.0)
    with pytest.raises(ValueError):
        L_k(1, -0.5)


def test_J_limit_frozen_values():
    assert J_limit(1, 7.2) == pytest.approx(1.047541544872507, abs=1e-9)
    assert J_limit(21, 7.2) == pytest.approx(0.5074842517, abs=1e-8)
    assert J_limit(21, 7.2) < 1.0


def test_J_limit_continuous_in_a():
    h = 1e-4
    assert abs(J_limit(13, 7.2 + h) - J_limit(13, 7.2)) < 10.0 * h


def test_J_limit_assembly_from_parts():
    k, a = 3, 2.5
    a1 = alpha_iter(k - 1, 1.0)
    expect = a * (2.0 * L_k(k, a) * LOG2716
                  + (LOG4 - 2.0 * LOG2716) * a1 * a1 * math.exp(-a * a1))
    assert J_limit(k, a) == pytest.approx(expect, rel=1e-12)


def test_J_limit_domain():
    with pytest.raises(ValueError):
        J_limit(0, 7.2)
    with pytest.raises(ValueError):
        J_limit(1, 0.0)


# ---------------------------------------------------------------------------
# finite-n bounds


def test_finite_bound_converges_to_limit():
    bound = finite_n_J_bound(10 ** 6, 13, 7.2)
    lim = J_limit(13, 7.2)
    assert abs(bound / lim - 1.0) <= 1e-3


def test_finite_bound_frozen_value():
    assert finite_n_J_bound(2000, 13, 7.2) == pytest.approx(0.759360, abs=1e-5)


def test_finite_bound_hypothesis_failure_raises():
    # b_n(7.2, 1000) = 7.2524 exceeds 1/alpha_0(1) = 1 for m = 1
    with pytest.raises(ValueError, match="hypothesis fails"):
        finite_n_J_bound(1000, 1, 7.2)
    with pytest.raises(ValueError):
        finite_n_J_bound(1000, 0, 0.9)


@pytest.mark.parametrize("m", [13.5, 13.0, 0, -1])
def test_finite_bound_names_a_bad_m(m):
    # a non-integer m was reported as "k must be an integer >= 1", the
    # argument of an internal helper
    with pytest.raises(ValueError, match=f"^m must be an integer >= 1, got m={m!r}$"):
        finite_n_J_bound(10_000, m, 7.2)


def test_finite_bound_valid_configuration():
    val = finite_n_J_bound(1000, 1, 0.9)
    assert val == pytest.approx(0.748949, abs=1e-5)


# ---------------------------------------------------------------------------
# Monte Carlo simulator


def test_simulate_J_deterministic_under_fixed_seed():
    a = simulate_J(500, 2, 0.9, 10_000, np.random.default_rng(7), grid_points=8)
    b = simulate_J(500, 2, 0.9, 10_000, np.random.default_rng(7), grid_points=8)
    assert a == b  # dataclass equality: every estimate bitwise identical
    assert isinstance(a, SimulatedJ)
    assert len(a.grid) == 8 and len(a.estimates) == 8


def test_simulate_J_stays_below_bound_plus_four_se():
    rng = np.random.default_rng(20240817)
    sim = simulate_J(1000, 1, 0.9, 20_000, rng)
    bound = finite_n_J_bound(1000, 1, 0.9)
    assert sim.value <= bound + 4.0 * sim.std_error


def test_simulate_J_grid_inside_edge_region():
    sim = simulate_J(500, 1, 0.9, 10_000, np.random.default_rng(3), grid_points=8)
    xa = edge_region_max(0.9, 500)
    assert all(0.0 < x < xa for x in sim.grid)
    assert sim.arg_x in sim.grid


def test_simulate_J_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        simulate_J(500, 1, 0.9, 5000, rng)
    with pytest.raises(ValueError):
        simulate_J(500, 0, 0.9, 10_000, rng)
    for bad in (0, -3, 8.0):
        with pytest.raises(ValueError, match="grid_points"):
            simulate_J(500, 1, 0.9, 10_000, rng, grid_points=bad)
    for bad in (1000.7, 1):
        with pytest.raises(ValueError, match="^n "):
            simulate_J(bad, 1, 0.1, 10_000, rng)
    with pytest.raises(ValueError, match="^m "):
        simulate_J(500, 1.0, 0.9, 10_000, rng)
    with pytest.raises(ValueError, match="trials"):
        simulate_J(500, 1, 0.9, 2e4, rng)
    for bad in (0.0, -0.9, math.inf, math.nan):
        with pytest.raises(ValueError, match="^a "):
            simulate_J(500, 1, bad, 10_000, rng)
    # an int seed or a legacy RandomState has no spawn: it died with an
    # AttributeError after the argument checks
    for bad in (5, np.random.RandomState(1)):
        with pytest.raises(ValueError, match="^rng "):
            simulate_J(1000, 1, 0.9, 10_000, bad)


def test_simulate_point_holds_few_arrays_of_trials():
    # theta and the second uniform draw live in two reused buffers: the
    # traced peak of one point was 963,571 B with a fresh theta and uniform
    # pair per step, 6.0 arrays of trials floats; it is 652,438 B (4.1
    # arrays: the two buffers, the binomial draw and np.std's temporary),
    # so the bound of 5 arrays leaves 1.23 times headroom
    trials = 20_000
    tracemalloc.start()
    try:
        noncentral._simulate_point(10_000, 13, trials, 3e-4, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 8 * trials


_SERIAL_CASES = [(500, 2, 0.9, 10_000, 8, 7), (1000, 1, 0.9, 20_000, 64, 1),
                 (2000, 13, 7.2, 10_000, 5, 31), (500, 2, 0.9, 10_000, 1, 31)]


@pytest.mark.parametrize("cpus", [None, 1, 3])
@pytest.mark.parametrize("n, m, a, trials, points, seed", _SERIAL_CASES)
def test_simulate_J_equals_serial_loop(monkeypatch, cpus, n, m, a, trials, points, seed):
    if cpus is not None:
        monkeypatch.setattr(noncentral, "_cpu_count", lambda: cpus)
    got = simulate_J(n, m, a, trials, np.random.default_rng(seed), grid_points=points)
    want = serial_simulate_J(n, m, a, trials, np.random.default_rng(seed), grid_points=points)
    assert got == want  # tuple fields make this a bitwise comparison


class _PointFailure(Exception):
    pass


def _record_point_threads(monkeypatch, fail_at=None):
    """Patch the per-point helper to record the thread running each grid
    point, and to raise _PointFailure at grid point x = fail_at."""
    seen = []
    point = noncentral._simulate_point

    def recording(n, m, trials, x, g):
        seen.append(threading.get_ident())
        if x == fail_at:
            raise _PointFailure(x)
        return point(n, m, trials, x, g)

    monkeypatch.setattr(noncentral, "_simulate_point", recording)
    return seen


@pytest.mark.parametrize("cpus, points", [(None, 8), (3, 8), (3, 2), (1, 4)])
def test_simulate_J_pool_is_bounded_and_joined(monkeypatch, cpus, points):
    if cpus is not None:
        monkeypatch.setattr(noncentral, "_cpu_count", lambda: cpus)
    limit = min(points, noncentral._cpu_count())
    seen = _record_point_threads(monkeypatch)
    before = set(threading.enumerate())
    simulate_J(500, 1, 0.9, 10_000, np.random.default_rng(5), grid_points=points)
    assert len(seen) == points
    assert 1 <= len(set(seen)) <= limit
    assert threading.get_ident() not in seen  # the points ran on the pool
    assert set(threading.enumerate()) == before
    assert threading.active_count() == len(before)


def test_simulate_J_passes_a_point_error_through(monkeypatch):
    monkeypatch.setattr(noncentral, "_cpu_count", lambda: 2)
    xs = np.linspace(0.0, edge_region_max(0.9, 500), 10)[1:-1]
    _record_point_threads(monkeypatch, fail_at=xs[3])
    before = set(threading.enumerate())
    with pytest.raises(_PointFailure):
        simulate_J(500, 1, 0.9, 10_000, np.random.default_rng(5), grid_points=8)
    assert set(threading.enumerate()) == before
