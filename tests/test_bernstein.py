"""Bernstein operator: exact oracles, derivative representations, moments."""

import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from oracles import (SYMPY_Y, dense_bernstein_apply_many,
                     dense_bernstein_derivative, dense_H_n,
                     dense_iteration_matrix, frac_bernstein,
                     frac_bernstein_grid, krawtchouk_k1, krawtchouk_k2,
                     quad_integral, sympy_bernstein_derivative)
import bcv.bernstein as bernstein_module
from bcv.bernstein import (ConsistencyError, PiecewiseLinearFn,
                           bernstein_apply_many, bernstein_derivative,
                           central_moment, central_moment_closed,
                           irwin_hall_density, kantorovich_check, krawtchouk,
                           krawtchouk_orthogonality_check, phi)
from bcv.bounds import build_fn_lower
from bcv.central import H_n_exact, K_func


# ---------------------------------------------------------------------------
# function wrappers


def test_piecewise_linear_interpolates_and_extends_constantly():
    f = PiecewiseLinearFn((0.2, 0.5, 0.8), (1.0, -1.0, 3.0))
    assert f(0.2) == 1.0 and f(0.5) == -1.0 and f(0.8) == 3.0
    assert f(0.35) == pytest.approx(0.0)
    assert f(0.0) == 1.0 and f(1.0) == 3.0  # constant beyond the ends
    out = f(np.array([0.2, 0.65]))
    assert out.shape == (2,)
    assert out[1] == pytest.approx(1.0)


@pytest.mark.parametrize("bp,vals", [
    ((0.5,), (1.0,)),                       # too few points
    ((0.2, 0.2), (1.0, 2.0)),               # not strictly increasing
    ((0.5, 0.3), (1.0, 2.0)),               # decreasing
    ((0.2, 0.5), (1.0,)),                   # length mismatch
    ((-0.1, 0.5), (1.0, 2.0)),              # outside [0,1]
    ((0.5, 1.2), (1.0, 2.0)),
])
def test_piecewise_linear_validation(bp, vals):
    with pytest.raises(ValueError):
        PiecewiseLinearFn(bp, vals)


def test_phi_range_symmetry_and_domain():
    assert phi(0.0) == 0.0 and phi(1.0) == 0.0
    assert phi(0.5) == 0.5
    with pytest.raises(ValueError):
        phi(-0.01)
    with pytest.raises(ValueError):
        phi(np.array([0.2, 1.3]))


@given(st.floats(0.0, 1.0))
def test_phi_symmetric_and_bounded(x):
    # rounding 1 - x perturbs the argument by up to eps/2, so compare the
    # squares: the square-root step would amplify that without bound as
    # x approaches an endpoint
    assert abs(phi(x) ** 2 - phi(1.0 - x) ** 2) <= 2.3e-16
    assert 0.0 <= phi(x) <= 0.5


# ---------------------------------------------------------------------------
# operator evaluation against exact rational oracles


def bernstein_apply(f, n, x):
    """B_n f at the one point x."""
    return float(bernstein_apply_many(f, n, [x])[0])


def test_partition_of_unity():
    one = lambda y: np.ones_like(np.asarray(y, dtype=float))
    for n in (1, 10, 100, 2000):
        for x in (0.0, 0.123, 0.5, 0.987, 1.0):
            assert abs(bernstein_apply(one, n, x) - 1.0) < 1e-11


def test_affine_reproduction():
    f = lambda y: 1.7 * np.asarray(y) - 0.3
    for n in (1, 7, 64, 500):
        for x in (0.0, 0.31, 0.5, 0.99):
            assert abs(bernstein_apply(f, n, x) - (1.7 * x - 0.3)) <= 1e-13


@given(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0),
       st.integers(1, 60), st.floats(0.0, 1.0))
def test_affine_reproduction_property(a, b, n, x):
    f = lambda y: a * np.asarray(y) + b
    assert abs(bernstein_apply(f, n, x) - (a * x + b)) <= 1e-12 * (1 + abs(a) + abs(b))


def test_square_image_closed_form_and_rational_oracle():
    # B_n(y^2)(x) = x^2 + x(1-x)/n
    f = lambda y: np.asarray(y) ** 2
    for n in (3, 7, 12):
        for xr in (Fraction(1, 3), Fraction(1, 7), Fraction(2, 5)):
            x = float(xr)
            got = bernstein_apply(f, n, x)
            assert got == pytest.approx(x * x + x * (1 - x) / n, rel=1e-13)
            vals = [Fraction(k, n) ** 2 for k in range(n + 1)]
            assert got == pytest.approx(float(frac_bernstein(vals, xr)), rel=1e-13)


def test_apply_many_matches_pointwise_apply():
    f = lambda y: np.sin(2.0 * np.asarray(y))
    xs = np.linspace(0.0, 1.0, 11)
    many = bernstein_apply_many(f, 25, xs)
    each = [bernstein_apply(f, 25, float(x)) for x in xs]
    assert np.array_equal(many, each)


def test_iterate_k1_equals_apply():
    # one product with the grid matrix is B_n f at the grid points
    f = lambda y: np.cos(np.asarray(y))
    for n in (5, 30):
        grid = np.arange(n + 1) / n
        once = dense_iteration_matrix(n) @ f(grid)
        assert np.allclose(once, bernstein_apply_many(f, n, grid), rtol=0, atol=1e-14)


def test_iterate_matches_exact_rational_iteration():
    # B_n^k f on the grid j/n is M^k applied to the grid values of f
    n = 8
    grid = [Fraction(k, n) ** 3 for k in range(n + 1)]
    M = dense_iteration_matrix(n)
    for k in (1, 2, 3):
        grid = frac_bernstein_grid(grid)
        vals = np.linalg.matrix_power(M, k) @ ((np.arange(n + 1) / n) ** 3)
        assert vals == pytest.approx([float(v) for v in grid], rel=1e-13)


# ---------------------------------------------------------------------------
# Krawtchouk polynomials


def test_krawtchouk_order_zero_is_one():
    assert krawtchouk(10, 0, 0.3, 4.0) == 1.0


def test_krawtchouk_low_order_closed_forms():
    n, x = 12, 0.3
    ys = np.arange(n + 1, dtype=float)
    assert np.allclose(krawtchouk(n, 1, x, ys), krawtchouk_k1(n, x, ys), atol=1e-12)
    assert np.allclose(krawtchouk(n, 2, x, ys), krawtchouk_k2(n, x, ys), atol=1e-12)


def test_krawtchouk_accepts_real_y():
    v = krawtchouk(6, 2, 0.4, 1.7)
    w = krawtchouk_k2(6, 0.4, 1.7)
    assert v == pytest.approx(w, rel=1e-12)


def test_krawtchouk_validation():
    with pytest.raises(ValueError):
        krawtchouk(5, 6, 0.3, 1.0)
    with pytest.raises(ValueError):
        krawtchouk(5, -1, 0.3, 1.0)


def test_orthogonality_against_closed_moments():
    for n in (5, 12, 30):
        for x in (0.2, 0.5, 0.7):
            for r in range(4):
                for m in range(4):
                    c, e = krawtchouk_orthogonality_check(n, x, r, m)
                    assert abs(c - e) / max(1.0, abs(e)) <= 1e-10, (n, x, r, m)


def test_orthogonality_check_restricted_to_small_n():
    with pytest.raises(ValueError):
        krawtchouk_orthogonality_check(31, 0.5, 1, 1)
    with pytest.raises(ValueError):
        krawtchouk_orthogonality_check(10, 0.5, 11, 1)


# ---------------------------------------------------------------------------
# differences and derivatives


def test_forward_difference_annihilates_low_degree_polynomials():
    # Delta_{1/n}^m kills degree m-1, so (B_n p)^(m) = 0; bernstein_derivative
    # also checks its Krawtchouk form against the difference form
    for m in (1, 2, 3):
        poly = lambda t: sum((j + 1.0) * np.asarray(t) ** j for j in range(m))
        for n in (5, 20):
            assert bernstein_derivative(poly, n, m, 0.3) == pytest.approx(0.0, abs=1e-9)


def test_forward_difference_of_top_degree_monomial():
    # Delta_h^m t^m = m! h^m everywhere, so (B_n t^m)^(m) = (n)_m m! / n^m
    for m in (1, 2, 3):
        for n in (5, 20):
            got = bernstein_derivative(lambda t: np.asarray(t) ** m, n, m, 0.2)
            expect = math.perm(n, m) * math.factorial(m) / n ** m
            assert got == pytest.approx(expect, rel=1e-9)


def test_derivative_matches_symbolic_oracle_on_polynomials():
    polys = {
        "square": (SYMPY_Y ** 2, lambda y: np.asarray(y) ** 2),
        "cube": (SYMPY_Y ** 3, lambda y: np.asarray(y) ** 3),
        "quartic": (SYMPY_Y ** 4 - SYMPY_Y,
                    lambda y: np.asarray(y) ** 4 - np.asarray(y)),
    }
    for expr, f in polys.values():
        for n in (5, 10, 30):
            for m in (1, 2, 3):
                for x in (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)):
                    got = bernstein_derivative(f, n, m, float(x))
                    ref = sympy_bernstein_derivative(expr, n, m, x)
                    assert abs(got - ref) / max(1.0, abs(ref)) <= 1e-9, (n, m, x)


def test_derivative_representations_agree_on_corpus(corpus):
    # bernstein_derivative raises internally if its two representations
    # drift beyond rel 1e-9, so evaluating it is already the agreement check
    fns = dict(corpus)
    for n in (5, 10, 30):
        if n >= 8:
            fns["witness"] = build_fn_lower(n)
        for f in fns.values():
            for m in (1, 2, 3):
                for x in np.arange(0.1, 0.95, 0.1):
                    bernstein_derivative(f, n, m, float(x))


def _batch_points(n):
    """A uniform grid plus lambda = nx boundary layers at both ends."""
    lam = np.array([0.5, 1.0, 2.0, 3.0, 7.5, 20.0])
    xs = np.concatenate([np.linspace(0.01, 0.99, 15), lam / n, 1.0 - lam / n])
    return xs[(xs > 0.0) & (xs < 1.0)]


@pytest.mark.parametrize("n", [10, 50, 10_000])
def test_batched_derivative_and_apply_equal_scalar_calls_bitwise(n):
    f = build_fn_lower(n)
    xs = _batch_points(n)
    for m in (1, 2, 3):
        many = bernstein_derivative(f, n, m, xs)
        assert many.shape == xs.shape
        each = np.array([bernstein_derivative(f, n, m, float(x)) for x in xs])
        assert np.array_equal(many, each), (n, m)
    grid = np.concatenate([[0.0, 1.0], xs])
    many = bernstein_apply_many(f, n, grid)
    each = np.array([bernstein_apply(f, n, float(x)) for x in grid])
    assert np.array_equal(many, each), n


# At n = 1e5 the third derivative of the witness fails the two-form check in
# bernstein_derivative (ConsistencyError at x = 0.15, ..., 0.85): the
# Krawtchouk form cancels about 1e9 down to 0 there, and the log-space pmf
# carries about 1e-10 relative noise per entry at that n.
_M_AT = {100_000: (1, 2)}


@pytest.mark.parametrize("m", _M_AT[100_000])
def test_batched_derivative_and_apply_equal_scalar_calls_bitwise_at_1e5(m):
    n = 100_000
    f = build_fn_lower(n)
    xs = _batch_points(n)
    many = bernstein_derivative(f, n, m, xs)
    assert np.array_equal(many, [bernstein_derivative(f, n, m, float(x)) for x in xs]), m
    grid = np.concatenate([[0.0, 1.0], xs])
    many = bernstein_apply_many(f, n, grid)
    assert np.array_equal(many, [bernstein_apply(f, n, float(x)) for x in grid])


@pytest.mark.parametrize("n", [10, 1000, 10_000, 100_000])
def test_band_sums_agree_with_dense_rows(n):
    # each row is summed over its window only, so only the summation tree
    # differs from the sum over all n+1 entries of the dense row
    xs = np.concatenate([_batch_points(n), [1e-12, 1.0 - 1e-9]])
    f = build_fn_lower(n)
    positive = lambda y: 2.0 + f(y)  # no cancellation, so relative error is meaningful
    grid = np.concatenate([[0.0, 1.0], xs])
    got, ref = bernstein_apply_many(positive, n, grid), dense_bernstein_apply_many(positive, n, grid)
    assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref)), n
    for m in _M_AT.get(n, (1, 2, 3)):
        got, ref = bernstein_derivative(f, n, m, xs), dense_bernstein_derivative(f, n, m, xs)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), (n, m)
    half = xs[xs <= 0.5]
    got, ref = H_n_exact(n, half), dense_H_n(n, half)
    assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref)), n


def test_corrupted_krawtchouk_basis_raises_in_batched_path(monkeypatch):
    n, m = 50, 2
    xs = np.linspace(0.05, 0.95, 19)
    f = lambda y: np.asarray(y) ** 3
    bernstein_derivative(f, n, m, xs)  # the intact basis passes
    bad = np.array(bernstein_module._krawtchouk_basis(n, m))
    bad[1, 20] *= 1.5  # one entry, inside the band of x = 0.4
    monkeypatch.setattr(bernstein_module, "_krawtchouk_basis", lambda n_, m_: bad)
    with pytest.raises(ConsistencyError):
        bernstein_derivative(f, n, m, xs)


def test_derivative_of_affine_image():
    f = lambda y: 3.0 * np.asarray(y) + 1.0
    assert bernstein_derivative(f, 20, 1, 0.4) == pytest.approx(3.0, rel=1e-12)
    assert bernstein_derivative(f, 20, 2, 0.4) == pytest.approx(0.0, abs=1e-9)


def test_derivative_validation():
    f = lambda y: np.asarray(y) ** 2
    with pytest.raises(ValueError):
        bernstein_derivative(f, 5, 0, 0.5)
    with pytest.raises(ValueError):
        bernstein_derivative(f, 5, 6, 0.5)
    with pytest.raises(ValueError):
        bernstein_derivative(f, 5, 1, 0.0)


# ---------------------------------------------------------------------------
# Irwin-Hall smoothing


def test_irwin_hall_normalization_and_symmetry():
    for m in (1, 2, 3):
        assert quad_integral(lambda t: irwin_hall_density(m, t), 0.0, m) == \
            pytest.approx(1.0, abs=1e-10)
        for t in (0.2, 0.7, 1.3):
            if t <= m:
                assert irwin_hall_density(m, t) == pytest.approx(
                    irwin_hall_density(m, m - t), abs=1e-14)


def test_irwin_hall_on_an_array_equals_pointwise_calls():
    t = np.linspace(-0.5, 3.5, 81)
    for m in (1, 2, 3):
        dens = irwin_hall_density(m, t)
        assert dens.shape == t.shape
        assert np.array_equal(dens, [irwin_hall_density(m, float(u)) for u in t])
        assert np.all(dens[(t < 0.0) | (t > m)] == 0.0)


def test_irwin_hall_known_values():
    assert irwin_hall_density(2, 1.0) == 1.0
    assert irwin_hall_density(3, 1.5) == 0.75
    assert irwin_hall_density(3, 0.5) == 0.125
    with pytest.raises(ValueError):
        irwin_hall_density(4, 1.0)


def test_kantorovich_representation_for_cube():
    f = lambda y: np.asarray(y) ** 3
    dm = {1: lambda y: 3.0 * np.asarray(y) ** 2,
          2: lambda y: 6.0 * np.asarray(y),
          3: lambda y: 6.0 * np.ones_like(np.asarray(y, dtype=float))}
    for m in (1, 2, 3):
        lhs, rhs = kantorovich_check(f, dm[m], 10, m, 0.3)
        assert abs(lhs - rhs) / max(1.0, abs(lhs)) <= 1e-9


def test_kantorovich_representation_for_sine():
    f = lambda y: np.sin(math.pi * np.asarray(y))
    d2 = lambda y: -math.pi ** 2 * np.sin(math.pi * np.asarray(y))
    lhs, rhs = kantorovich_check(f, d2, 15, 2, 0.4)
    assert abs(lhs - rhs) / max(1.0, abs(lhs)) <= 1e-8


def test_kantorovich_rejects_large_order():
    with pytest.raises(ValueError):
        kantorovich_check(lambda y: np.asarray(y), lambda y: np.asarray(y),
                          10, 4, 0.5)


# ---------------------------------------------------------------------------
# central moments


def test_central_moment_exact_small_cases():
    assert central_moment(2, 0.5, 4) == pytest.approx(0.03125, abs=1e-15)
    assert central_moment(2, 0.5, 3) == pytest.approx(0.0625, abs=1e-15)


def test_central_moment_closed_forms_match_brute():
    for n in (1, 2, 3, 10, 40, 100):
        for x in (0.05, 0.3, 0.5, 0.77, 0.95):
            for k in (2, 4, 6):
                brute = central_moment(n, x, k)
                closed = central_moment_closed(n, x, k)
                assert abs(brute - closed) / max(abs(closed), 1e-300) <= 1e-12


def test_central_moment_validation():
    with pytest.raises(ValueError):
        central_moment(5, 0.5, 0)
    with pytest.raises(ValueError):
        central_moment_closed(5, 0.5, 3)


def test_even_moment_upper_bounds():
    for n in (5, 10, 50, 100):
        for x in np.linspace(0.05, 0.95, 19):
            p2 = x * (1.0 - x)
            s = n * p2
            mu4 = central_moment(n, x, 4)
            mu6 = central_moment(n, x, 6)
            assert mu4 <= (p2 ** 2 / n ** 2) * (3.0 + 1.0 / s) + 1e-15
            assert mu6 <= (p2 ** 3 / n ** 3) * (15.0 + 25.0 / s + 1.0 / s ** 2) + 1e-15


def test_odd_moments_schwarz_chain():
    for n in (5, 10, 50, 100):
        for x in np.linspace(0.05, 0.95, 19):
            mu = {k: central_moment(n, x, k) for k in range(2, 7)}
            assert mu[3] <= math.sqrt(mu[2] * mu[4]) + 1e-15
            assert mu[5] <= math.sqrt(mu[4] * mu[6]) + 1e-15


def test_weighted_moment_chain_below_kernel():
    # n sqrt(n)/phi^3 (mu3 + 3/8 mu4/phi^2 + 3/16 mu5/phi^4 + 7/16 mu6/phi^6)
    # stays below K(n phi^2) pointwise
    for n in (5, 20, 100, 1000):
        for x in np.linspace(0.05, 0.95, 19):
            p = phi(x)
            lhs = n * math.sqrt(n) / p ** 3 * (
                central_moment(n, x, 3)
                + 3.0 / 8.0 * central_moment(n, x, 4) / p ** 2
                + 3.0 / 16.0 * central_moment(n, x, 5) / p ** 4
                + 7.0 / 16.0 * central_moment(n, x, 6) / p ** 6)
            assert lhs <= K_func(n * p * p), (n, x)
