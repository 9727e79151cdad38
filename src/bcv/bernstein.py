"""Bernstein operator machinery.

Evaluation of B_n f, Krawtchouk polynomials and their orthogonality under
the binomial law, the two closed representations of (B_n f)^(m), the
Kantorovich representation through Irwin-Hall smoothing, and exact absolute
central moments of S_n(x)/n.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dist import _BAND_LOG_MASS, BinomialLaw, _blocks, _check_n
from .quadrature import gauss_legendre

# Relative tolerance of the two-form check in bernstein_derivative.
_REL_TOL = 1e-9


class ConsistencyError(RuntimeError):
    """Two representations of the same quantity disagreed beyond tolerance."""


@dataclass(frozen=True)
class PiecewiseLinearFn:
    """Piecewise-linear interpolant with constant extension beyond the ends,
    so linear between consecutive points of {0, 1} U breakpoints on [0, 1]:
    the contract under which bcv.moduli computes its moduli exactly."""
    breakpoints: tuple
    values: tuple

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        if bp.ndim != 1 or len(bp) < 2:
            raise ValueError("need at least two breakpoints")
        if len(bp) != len(self.values):
            raise ValueError("breakpoints and values must have equal length")
        if not np.all(np.diff(bp) > 0):  # NaN fails too
            raise ValueError("breakpoints must be strictly increasing")
        if not (bp[0] >= 0.0 and bp[-1] <= 1.0):
            raise ValueError("breakpoints must lie in [0,1]")

    def __call__(self, y):
        out = np.interp(y, self.breakpoints, self.values)
        return out if np.ndim(out) else float(out)


def phi(x):
    """The weight sqrt(x(1-x)), in [0, 1/2] and symmetric about 1/2."""
    x = np.asarray(x, dtype=float)
    if not np.all((x >= 0.0) & (x <= 1.0)):  # NaN fails too
        raise ValueError("x must lie in [0,1]")
    out = np.sqrt(x * (1.0 - x))
    return out if out.ndim else float(out)


def _grid_values(f, n):
    """fk = f(k/n), k = 0..n: all that B_n f and its derivatives read of f."""
    _check_n(n)
    return np.asarray(f(np.arange(n + 1) / n), dtype=float)


def bernstein_apply_many(f, n, xs):
    """B_n f(x) = sum_k f(k/n) C(n,k) x^k (1-x)^(n-k) on an array of points,
    all read from one table f(k/n); each point's sum runs over its window."""
    return _apply_table(_grid_values(f, n), n, xs)


def _apply_table(fk, n, xs):
    """bernstein_apply_many from the table fk = f(k/n) of _grid_values."""
    xs = np.asarray(xs, dtype=float).ravel()
    out = np.empty(len(xs))
    for sl, cols, rows in _blocks(n, xs):
        out[sl] = np.sum(rows * fk[cols], axis=1)
    return out


def _gen_binom(z, j):
    """Generalized binomial coefficient C(z, j) for real (or array) z."""
    z = np.asarray(z, dtype=float)
    out = np.ones_like(z)
    for t in range(j):
        out = out * (z - t)
    out = out / math.factorial(j)
    return out if out.ndim else float(out)


def _krawtchouk_factors(n, m, y):
    """Row j holds C(n-y, m-j) C(y, j) over the 1-D array y: the y-only
    factors of K_m(x; y)."""
    return np.array([_gen_binom(n - y, m - j) * _gen_binom(y, j) for j in range(m + 1)])


def _krawtchouk_basis(n, m):
    """_krawtchouk_factors over y = 0..n."""
    return _krawtchouk_factors(n, m, np.arange(n + 1, dtype=float))


def _krawtchouk_rows(factors, xs):
    """K_m(x; y) for each x of the 1-D array xs, one row each, from the
    factors of _krawtchouk_factors: row j of the factors times (-x)^(m-j),
    then times (1-x)^j, summed over j."""
    m = len(factors) - 1
    x = xs.reshape(-1, 1)
    out = np.zeros((len(xs), factors.shape[1]))
    for j in range(m + 1):
        out = out + factors[j] * (-x) ** (m - j) * (1.0 - x) ** j
    return out


def krawtchouk(n, m, x, y):
    """Krawtchouk polynomial K_m(x; y) for the binomial(n, x) law:

        K_m(x;y) = sum_j C(n-y, m-j) C(y, j) (-x)^(m-j) (1-x)^j,

    with generalized binomial coefficients, so y may be any real; x must lie
    in [0, 1], as in phi.
    """
    if not 0.0 <= x <= 1.0:  # NaN fails too
        raise ValueError("x must lie in [0,1]")
    if not (isinstance(m, (int, np.integer)) and 0 <= m <= n):
        raise ValueError(f"m must be an integer in [0, n], got m={m}, n={n}")
    y = np.asarray(y, dtype=float)
    out = _krawtchouk_rows(_krawtchouk_factors(n, m, y.ravel()), np.array([x], dtype=float))[0]
    return out.reshape(y.shape) if y.ndim else float(out[0])


def krawtchouk_orthogonality_check(n, x, r, m):
    """Return (E K_r K_m under binomial(n,x), C(n,m) phi^(2m)(x) delta_rm).

    Restricted to n <= 30: the brute-force expectation loses accuracy for
    larger n and every intended use is small.
    """
    if n > 30:
        raise ValueError("orthogonality check is restricted to n <= 30")
    if not (0 <= r <= n and 0 <= m <= n):
        raise ValueError("r and m must lie in [0, n]")
    k = np.arange(n + 1)
    p = BinomialLaw(n, x).pmf_vector()
    computed = float(np.sum(p * krawtchouk(n, r, x, k) * krawtchouk(n, m, x, k)))
    expected = math.comb(n, m) * phi(x) ** (2 * m) if r == m else 0.0
    return computed, expected


def bernstein_derivative(f, n, m, x):
    """(B_n f)^(m)(x) computed two ways, returning the Krawtchouk form:

        (m!/phi^(2m)(x)) E f(S_n(x)/n) K_m(x; S_n(x))
      = (n)_m E Delta_{1/n}^m f(S_{n-m}(x)/n).

    x may be a scalar (a float is returned) or an array (an array of the
    same shape is returned); every point is checked.

    Raises ConsistencyError if the two representations disagree beyond
    _REL_TOL at any point; that signals a numerics bug, not a user error.
    Both expectations can cancel far below the magnitude of their terms, and
    the log-space pmf carries small relative noise per term, so the
    disagreement is also measured against the absolute-sum envelopes of the
    two sums: a formula bug moves the result by orders of magnitude more
    than that.
    """
    xa = np.asarray(x, dtype=float)
    (kraw, *_), = _derivative_and_apply([_grid_values(f, n)], n, m, xa.ravel(), _BAND_LOG_MASS)
    return kraw.reshape(xa.shape) if xa.ndim else float(kraw[0])


def _derivative_and_apply(fks, n, m, xs, log_mass):
    """For each table fk of the sequence fks, from _grid_values (which checks
    n), ((B_n f)^(m), B_n f) at the points of the 1-D array xs,
    each point summed over its block's window from dist._blocks at log_mass
    and checked as in bernstein_derivative, plus the envelopes of the two
    sums, pref sum |p f K_m| and sum |p f| (pref = m!/phi^(2m)), from which
    dist._window_err bounds their distance to the full-window values: one
    tuple (kraw, apply, kraw_env, apply_env) per table, in the order of fks.

    The work that does not depend on f, the pmf rows, the Krawtchouk rows
    and the S_{n-m} rows of each block, is done once per block for all of
    fks; each table then runs the arithmetic of a one-table call, so its
    tuple is bit for bit what [fk] alone gives.  The Krawtchouk terms are
    built on the products rows * fk whose row sums are B_n f, bit for bit as
    bernstein_apply_many sums them; the difference form, np.diff(fk, m),
    feeds only the check.  At the full log-mass _BAND_LOG_MASS a point's
    values depend on (fk, n, m, x) alone, never on the other points or
    tables of a call; below it, the points of a block of dist._blocks are
    summed over the union of their windows, so a value depends also on the
    points beside it, within dist._window_err."""
    if not 1 <= m <= n:
        raise ValueError(f"m must lie in [1, n], got m={m}, n={n}")
    if not np.all((xs > 0.0) & (xs < 1.0)):
        raise ValueError("x must lie in (0,1)")
    basis = _krawtchouk_basis(n, m)
    # Delta_{1/n}^m f(j/n), j = 0..n-m
    diffs = [np.diff(fk, m) for fk in fks]
    fall = float(math.perm(n, m))
    with np.errstate(divide="ignore", over="ignore"):
        pref = math.factorial(m) / phi(xs) ** (2 * m)
    if not np.all(np.isfinite(pref)):
        raise ValueError(f"m!/phi(x)^(2m) overflows at x={float(xs[np.argmin(np.isfinite(pref))])} "
                         f"(m={m}): the Krawtchouk form cannot be scaled")
    # per function: kraw, apply, kraw_env, apply_env, fdiff, fdiff_env
    outs = [[np.empty(len(xs)) for _ in range(6)] for _ in fks]
    for sl, cols, rows in _blocks(n, xs, log_mass):
        krows = _krawtchouk_rows(basis[:, cols], xs[sl])
        # one buffer holds each function's products p * fk, then its terms
        # (p * fk) * K_m in place, so a batch holds no more rows than one f
        pf = np.empty_like(rows)
        for fk, (kraw, apply, kraw_env, apply_env, _, _) in zip(fks, outs):
            np.multiply(rows, fk[cols], out=pf)
            apply[sl] = np.sum(pf, axis=1)
            apply_env[sl] = rows @ np.abs(fk[cols])
            pf *= krows
            kraw[sl] = pref[sl] * np.sum(pf, axis=1)
            kraw_env[sl] = pref[sl] * np.sum(np.abs(pf), axis=1)
    if m < n:
        for sl, cols, rows in _blocks(n - m, xs, log_mass):
            for diff, (*_, fdiff, fdiff_env) in zip(diffs, outs):
                fdiff[sl] = fall * np.sum(rows * diff[cols], axis=1)
                fdiff_env[sl] = fall * np.sum(rows * np.abs(diff[cols]), axis=1)
    else:  # S_0 = 0
        for diff, (*_, fdiff, fdiff_env) in zip(diffs, outs):
            fdiff[:] = fall * diff[0]
            np.abs(fdiff, out=fdiff_env)
    for kraw, _, kraw_env, _, fdiff, fdiff_env in outs:
        scale = np.maximum(1.0, np.maximum(np.abs(kraw), np.abs(fdiff)))
        floor = 1e-10 * (kraw_env + fdiff_env)
        bad = np.flatnonzero(np.abs(kraw - fdiff) > _REL_TOL * scale + floor)
        if len(bad):
            i = int(bad[0])
            raise ConsistencyError(
                f"derivative representations disagree: {float(kraw[i])!r} vs "
                f"{float(fdiff[i])!r} (n={n}, m={m}, x={float(xs[i])})")
    return [tuple(out[:4]) for out in outs]


def irwin_hall_density(m, t):
    """Density of U_1 + ... + U_m on [0, m], in closed form for m <= 3;
    t is a float or an array."""
    t = np.asarray(t, dtype=float)
    if m == 1:
        out = np.where((0.0 <= t) & (t <= 1.0), 1.0, 0.0)
    elif m == 2:
        out = np.maximum(0.0, np.minimum(t, 2.0 - t))
    elif m == 3:
        out = np.select([(t < 0.0) | (t > 3.0), t <= 1.0, t <= 2.0],
                        [0.0, 0.5 * t * t, 0.5 * (-2.0 * t * t + 6.0 * t - 3.0)],
                        0.5 * (3.0 - t) ** 2)
    else:
        raise ValueError("Irwin-Hall density implemented for m <= 3 only")
    return out if out.ndim else float(out)


def kantorovich_check(f, f_deriv, n, m, x):
    """Return both sides of the smoothed-derivative representation

        (B_n f)^(m)(x) = ((n)_m / n^m) E f^(m)((S_{n-m}(x) + U_1+...+U_m)/n),

    the right side integrated against the exact Irwin-Hall density (m <= 3)
    by the fixed rule of bcv.quadrature on each unit piece, where the density
    is a polynomial.  f_deriv is the analytic m-th derivative of f and must
    accept arrays.
    """
    if m not in (1, 2, 3):
        raise ValueError("kantorovich representation implemented for m in {1,2,3}")
    lhs = bernstein_derivative(f, n, m, x)
    j = np.arange(n - m + 1)
    pj = BinomialLaw(n - m, x).pmf_vector() if m < n else np.array([1.0])
    theta, w = gauss_legendre()
    t = (np.arange(m)[:, None] + theta).ravel()
    smoothed = pj @ f_deriv((j[:, None] + t) / n)
    rhs = float(np.tile(w, m) @ (irwin_hall_density(m, t) * smoothed))
    rhs *= math.perm(n, m) / n ** m
    return lhs, rhs


def central_moment(n, x, k):
    """Exact absolute central moment E |S_n(x)/n - x|^k (finite sum)."""
    if not k >= 1:  # NaN fails too
        raise ValueError("moment order k must be >= 1")
    j = np.arange(n + 1)
    p = BinomialLaw(n, x).pmf_vector()
    return float(np.sum(p * np.abs(j / n - x) ** k))


def central_moment_closed(n, x, k):
    """Closed forms for the even central moments k in {2, 4, 6}."""
    BinomialLaw(n, x)  # central_moment's checks: n a positive integer, x in [0, 1]
    p2 = x * (1.0 - x)
    if k == 2:
        return p2 / n
    if k == 4:
        return 3.0 * p2 ** 2 / n ** 2 + p2 * (1.0 - 6.0 * p2) / n ** 3
    if k == 6:
        return (p2 / n ** 5) * (15.0 * p2 ** 2 * n ** 2
                                + 5.0 * p2 * (5.0 - 26.0 * p2) * n
                                + 1.0 - 30.0 * p2 * (1.0 - 2.0 * x) ** 2)
    raise ValueError("closed forms available for k in {2, 4, 6}")
