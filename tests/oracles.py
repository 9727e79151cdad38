"""Independent reference implementations used by the tests.

Everything here is deliberately built on different machinery than the
package -- exact rational arithmetic, symbolic algebra, generic library
quadrature, high-precision floats, Monte Carlo -- so that agreement with
the package is evidence of correctness rather than a tautology.
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import sympy
from scipy import integrate
from scipy.special import gammaln

_Y, _X = sympy.symbols("y x")


# ---------------------------------------------------------------------------
# exact rational arithmetic


def frac_binom_pmf(n, k, p):
    """Binomial(n, p) pmf at k as an exact Fraction (p a Fraction)."""
    p = Fraction(p)
    return math.comb(n, k) * p ** k * (1 - p) ** (n - k)


def frac_bernstein(values, x):
    """Exact Bernstein sum: values are f(k/n) for k = 0..n, x a Fraction."""
    n = len(values) - 1
    x = Fraction(x)
    return sum(Fraction(v) * frac_binom_pmf(n, k, x) for k, v in enumerate(values))


def frac_bernstein_grid(values):
    """One exact Bernstein iteration of the grid values f(k/n), k = 0..n."""
    n = len(values) - 1
    return [frac_bernstein(values, Fraction(i, n)) for i in range(n + 1)]


# ---------------------------------------------------------------------------
# symbolic algebra


def sympy_bernstein_expr(fexpr, n):
    """The Bernstein image of a sympy expression in y, as an expression in x."""
    terms = sum(fexpr.subs(_Y, sympy.Rational(k, n)) * sympy.binomial(n, k)
                * _X ** k * (1 - _X) ** (n - k) for k in range(n + 1))
    return sympy.expand(terms)


def sympy_bernstein_derivative(fexpr, n, m, x):
    """Exact m-th derivative of the Bernstein image at rational x, as float."""
    d = sympy.diff(sympy_bernstein_expr(fexpr, n), _X, m)
    return float(d.subs(_X, sympy.Rational(x)))


SYMPY_Y = _Y


# ---------------------------------------------------------------------------
# generic quadrature


def quad_integral(f, a, b):
    """scipy.integrate.quad with a tight tolerance; returns the value only."""
    val, _ = integrate.quad(f, a, b, epsabs=1e-12, epsrel=1e-12, limit=400)
    return val


def riemann_midpoint(f, a, b, points):
    ts = a + (b - a) * (np.arange(points) + 0.5) / points
    return (b - a) * float(np.mean([f(float(t)) for t in ts]))


# ---------------------------------------------------------------------------
# high-precision floats


def mp_nu(lam, dps=40):
    """The Poisson jump profile at lam, computed with mpmath arithmetic."""
    with mp.workdps(dps):
        lam = mp.mpf(lam)
        c = int(mp.ceil(lam))
        pm = mp.e ** (-lam) * lam ** c / mp.factorial(c)
        p0 = mp.e ** (-lam)
        cm = sum(mp.e ** (-lam) * lam ** k / mp.factorial(k) for k in range(c + 1))
        return float(mp.sqrt(lam) * (2 * pm - p0) + (2 * cm - 1 - p0) / mp.sqrt(lam))


def mp_binom_pmf(n, k, x, dps=40):
    """Binomial(n, x) pmf at k, computed with mpmath arithmetic."""
    with mp.workdps(dps):
        x = mp.mpf(x)
        return float(mp.binomial(n, k) * x ** k * (1 - x) ** (n - k))


def mp_inv_moment_shift(y, dps=40):
    """E 1/(y+V) via the closed second difference of t log t, high precision."""
    with mp.workdps(dps):
        y = mp.mpf(y)
        def xlogx(t):
            return t * mp.log(t) if t > 0 else mp.mpf(0)
        return float(xlogx(y + 2) - 2 * xlogx(y + 1) + xlogx(y))


def mp_L_k_table(ks, avals, dps=40):
    """{(k, a): L_k(a)} by mpmath tanh-sinh quadrature on [0, 1] split at
    4^-7, ..., 4^-1, so the layer e^{-a alpha} stays resolved up to a = 10^4.
    alpha_{k-1}(t) is memoised per node, and every integral shares the nodes,
    so the table costs about one integral per k."""
    out = {}
    with mp.workdps(dps):
        memo = {}

        def alpha(k, t):
            if k == 0:
                return t
            if (k, t) not in memo:
                memo[k, t] = -mp.expm1(-alpha(k - 1, t))
            return memo[k, t]

        pts = [0] + [mp.mpf(4) ** j for j in range(-7, 1)]
        for k in ks:
            for a in avals:
                am = mp.mpf(a)
                out[k, a] = mp.quad(
                    lambda t: (alpha(k - 1, t) / t) ** 2 * mp.exp(-am * alpha(k - 1, t)),
                    pts)
    return out


def mp_phi_ratio_lhs(m, x, z, dps=30):
    """E (phi(x)/phi(x + (z-x)B))^m, B ~ Beta(1, m), as the defining integral
    over t in [0, 1] by mpmath quadrature, split toward t = 1 where the
    integrand steepens when z is on or near the boundary."""
    with mp.workdps(dps):
        x, z = mp.mpf(x), mp.mpf(z)

        def f(t):
            p = x + (z - x) * t
            w = p * (1 - p)
            if w == 0:  # t = 1 with z on the boundary: the integrand's limit
                return mp.mpf(0) if m >= 3 else 2 * (x if z == 1 else 1 - x)
            return m * (1 - t) ** (m - 1) * (x * (1 - x) / w) ** (mp.mpf(m) / 2)

        pts = [0, mp.mpf(1) / 2] + [1 - mp.mpf(10) ** -j for j in range(1, 16, 3)] + [1]
        return mp.quad(f, pts)


# ---------------------------------------------------------------------------
# Monte Carlo


def mc_H_n(n, x, trials, seed):
    """Monte Carlo estimate of the weighted inverse-moment sum

        phi(x) sqrt(n) E |S - nx| (1/(S + V) + 1/(n - S + V')),

    S binomial(n, x), V and V' independent sums of two uniforms.
    Returns (estimate, standard error)."""
    rng = np.random.default_rng(seed)
    s = rng.binomial(n, x, size=trials).astype(float)
    v1 = rng.random(trials) + rng.random(trials)
    v2 = rng.random(trials) + rng.random(trials)
    vals = np.abs(s - n * x) * (1.0 / (s + v1) + 1.0 / (n - s + v2))
    c = math.sqrt(x * (1.0 - x)) * math.sqrt(n)
    return c * float(np.mean(vals)), c * float(np.std(vals, ddof=1)) / math.sqrt(trials)


def serial_simulate_J(n, m, a, trials, rng, grid_points=64):
    """bcv.noncentral.simulate_J as one loop over the grid on the calling
    thread: the reference its concurrent grid points must reproduce bit for
    bit."""
    from bcv.noncentral import SimulatedJ, edge_region_max

    xa = edge_region_max(a, n)
    xs = np.linspace(0.0, xa, grid_points + 2)[1:-1]
    streams = rng.spawn(len(xs))
    est = np.empty(len(xs))
    se = np.empty(len(xs))
    for idx, (x, g) in enumerate(zip(xs, streams)):
        theta = np.full(trials, x)
        for _ in range(m):
            s = g.binomial(n - 2, theta)
            v = g.random(trials) + g.random(trials)
            theta = (s + v) / n
        if not (np.all(theta > 0.0) and np.all(theta < 1.0)):
            raise AssertionError("composition left (0,1); V in (0,2) forbids this")
        ratio = (x * (1.0 - x)) / (theta * (1.0 - theta))
        est[idx] = np.mean(ratio)
        se[idx] = np.std(ratio, ddof=1) / math.sqrt(trials)
    k = int(np.argmax(est))
    return SimulatedJ(float(est[k]), float(se[k]), float(xs[k]),
                      tuple(xs), tuple(est), tuple(se))


# ---------------------------------------------------------------------------
# dense binomial rows: every expectation summed over all n+1 entries, the
# reference for the package's sums over each row's window


def dense_binomial_row(n, x):
    """exp(log C(n,k) + k log x + (n-k) log1p(-x)) over all of k = 0..n, with
    math.log/log1p, as the package's rows."""
    k = np.arange(n + 1, dtype=float)
    if x == 0.0:
        return (k == 0).astype(float)
    if x == 1.0:
        return (k == n).astype(float)
    return np.exp(gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
                  + k * math.log(x) + (n - k) * math.log1p(-x))


def dense_iteration_matrix(n):
    """The matrix of B_n on the grid j/n: row i is the full Binomial(n, i/n)
    row, so M @ v is B_n v on the grid and M^k @ v is B_n^k v."""
    return np.array([dense_binomial_row(n, i / n) for i in range(n + 1)])


def dense_bernstein_apply_many(f, n, xs):
    """B_n f at each x of xs: the full row @ f(k/n)."""
    vals = np.asarray(f(np.arange(n + 1) / n), dtype=float)
    return np.array([dense_binomial_row(n, x) @ vals for x in map(float, xs)])


def dense_bernstein_derivative(f, n, m, xs):
    """(B_n f)^(m) at each x of xs in the Krawtchouk form
    (m!/phi^(2m)(x)) E f(S_n(x)/n) K_m(x; S_n(x)), summed over the full row."""
    from bcv.bernstein import krawtchouk

    k = np.arange(n + 1)
    fk = np.asarray(f(k / n), dtype=float)
    return np.array([math.factorial(m) / (x * (1.0 - x)) ** m
                     * np.sum(dense_binomial_row(n, x) * fk * krawtchouk(n, m, x, k))
                     for x in map(float, xs)])


def error_norm(f, n, xs):
    """max |B_n f - f| over xs through bernstein_apply_many: the reference for
    the first of bcv.bounds._norms."""
    from bcv.bernstein import bernstein_apply_many

    return float(np.max(np.abs(bernstein_apply_many(f, n, xs) - f(xs))))


def d2_norm(f, n, xs):
    """max phi^2 |(B_n f)''| over the points of xs inside (0, 1) through
    bernstein_derivative: the reference for the second of bcv.bounds._norms."""
    from bcv.bernstein import bernstein_derivative

    x = xs[(xs > 0.0) & (xs < 1.0)]
    return float(np.max(x * (1.0 - x) * np.abs(bernstein_derivative(f, n, 2, x))))


def dense_H_n(n, xs):
    """H_n at each x of xs, phi(x) sqrt(n) E|S - nx| (E 1/(S+V) + E 1/(n-S+V)),
    summed over the full row."""
    from bcv.dist import inv_moment_shift_V

    k = np.arange(n + 1)
    inv = inv_moment_shift_V(k)
    return np.array([math.sqrt(x * (1.0 - x) * n)
                     * np.sum(dense_binomial_row(n, x) * np.abs(k - n * x) * (inv + inv[::-1]))
                     for x in map(float, xs)])


# ---------------------------------------------------------------------------
# closed forms


def krawtchouk_k1(n, x, y):
    """K_1(x; y) = y - nx."""
    return np.asarray(y, dtype=float) - n * x


def krawtchouk_k2(n, x, y):
    """K_2(x; y) = (d^2 - (1-2x) d - nx(1-x))/2 with d = y - nx."""
    d = np.asarray(y, dtype=float) - n * x
    return 0.5 * (d * d - (1.0 - 2.0 * x) * d - n * x * (1.0 - x))


def tent_density(v):
    """Density min(v, 2-v) on [0, 2] of V = U1 + U2, zero elsewhere."""
    return np.maximum(0.0, np.minimum(v, 2.0 - v))


# ---------------------------------------------------------------------------
# elementary recursions (re-derived, not imported)


def plain_alpha(k, theta):
    """k-fold iterate of t -> 1 - e^{-t} starting at theta, plain math."""
    v = float(theta)
    for _ in range(k):
        v = 1.0 - math.exp(-v)
    return v


# ---------------------------------------------------------------------------
# moduli by brute force


def brute_force_modulus(kind, f, delta):
    """Max of |difference| of the modulus named kind ("omega1", "omega2" or
    "omega2_phi") over a dense grid of admissible (x, s): 1001 values of x,
    201 steps each."""
    x = np.linspace(0.0, 1.0, 1001).reshape(-1, 1)
    smax = np.minimum(delta, 1.0 - x)
    if kind != "omega1":
        smax = np.minimum(smax, x)
    if kind == "omega2_phi":
        smax = np.minimum(smax, delta * np.sqrt(x * (1.0 - x)))
    s = smax * np.linspace(0.0, 1.0, 201)
    up = f(np.minimum(x + s, 1.0))
    if kind == "omega1":
        return float(np.max(np.abs(up - f(x))))
    return float(np.max(np.abs(up - 2.0 * f(x) + f(np.maximum(x - s, 0.0)))))


# ---------------------------------------------------------------------------
# a scalar golden-section search (one point per call of f), which
# search.golden_max must reproduce bit for bit


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def scalar_golden_max(f, lo, hi, tol=1e-13, max_iter=200):
    """Golden-section search for the max of a scalar f on [lo, hi], one point
    per call of f; returns (argmax, max)."""
    if hi < lo:
        lo, hi = hi, lo
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if b - a <= tol:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)
