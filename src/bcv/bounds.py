"""Assembly of the headline constants and the lower-bound construction.

Upper side: two expressions for the constant in the strong converse
inequality omega2_phi(f; 1/sqrt(n)) <= C ||B_n f - f||, one driven by the
central kernel K, one by the noncentral constants J(k, a); both evaluate
below 74.8 at (a, m) = (7.2, 20).  A separate limit constant covers the
smoother function class.

Lower side: the piecewise-linear witness f_n with
omega2_phi(f_n; 1/sqrt(n)) -> 4 and ||B_n f_n - f_n|| <= 0.8, giving ratio
>= 4.9 at n = 10^4, plus its Poisson-limit profile G.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bernstein import (PiecewiseLinearFn, bernstein_apply_many,
                        bernstein_derivative)
from .central import K_func, SupSearchResult, _check_scan, sup_H_n
from .dist import LOG4, PoissonLaw, _log_comb
from .moduli import X_POINTS, omega2_phi
from .noncentral import J_limit, finite_n_J_bound, first_valid_i
from .search import sup_search

SQRT2 = math.sqrt(2.0)
# Grid of the norms in the converse validators: 1024 points on (0, 1/2].
_NORM_XS = np.linspace(0.0, 0.5, 1025)[1:]


@dataclass(frozen=True)
class UpperBoundReport:
    a: float
    m: int
    i: int
    expr_H1: float
    expr_H2: float
    max: float
    passes_74_8: bool


@dataclass(frozen=True)
class LowerBoundReport:
    n: int
    omega2phi: float
    sup_err: float
    ratio: float
    sup_G_minus_g: float


@dataclass(frozen=True)
class ValidatorResult:
    """Outcome of one inequality validator.

    binding is False when the hypotheses needed for the inequality fail at
    this n (the check is then vacuous, not violated)."""
    holds: bool
    binding: bool
    lhs: float
    rhs: float
    note: str


def upper_expr_H1(a):
    """4 + sqrt(2)(sqrt(2)+1) / (1 - 0.99 K(a)/3) * log 4."""
    denom = 1.0 - 0.99 * K_func(a) / 3.0
    if denom <= 0.0:
        raise ValueError(f"a too small: 1 - 0.99 K(a)/3 = {denom:.4g} <= 0")
    return 4.0 + SQRT2 * (SQRT2 + 1.0) / denom * LOG4


def upper_expr_H2(a, m):
    """4 + sqrt(2)(i + sum_{k=i}^m J(k,a)) / (1 - J(m+1,a)) * log 4, with
    i = first_valid_i(a)."""
    i = first_valid_i(a)
    if i > m:
        raise ValueError(f"need m >= first_valid_i(a) = {i}")
    js = J_limit(np.arange(i, m + 2), a).tolist()
    j_top = js.pop()
    if j_top >= 1.0:
        raise ValueError(f"J(m+1, a) = {j_top:.4g} >= 1: expression undefined")
    return 4.0 + SQRT2 * (i + sum(js)) / (1.0 - j_top) * LOG4


def upper_bound_report(a, m):
    i = first_valid_i(a)
    e1 = upper_expr_H1(a)
    e2 = upper_expr_H2(a, m)
    mx = max(e1, e2)
    return UpperBoundReport(a, m, i, e1, e2, mx, mx < 74.8)


def smooth_class_constant():
    """Limit constant 4 + sqrt(2)(sqrt(2)+1)/(1 - 0.99/sqrt(3)) * log 4 for
    the class where the central kernel attains its limit sqrt(3).

    It is lim_{a -> inf} upper_expr_H1(a), approached from above as
    kappa a^(-1/2) + O(1/a) with kappa = (9/8)(0.99/3) sqrt(2)(sqrt(2)+1)
    log 4 / (1 - 0.99/sqrt(3))^2 = 9.5734..., since K(a) - sqrt(3) is
    (9/8) a^(-1/2) + O(1/a)."""
    return 4.0 + SQRT2 * (SQRT2 + 1.0) / (1.0 - 0.99 / math.sqrt(3.0)) * LOG4


def sweep_upper(a_lo=5.0, a_hi=10.0, step=0.1, m=20):
    """Reports over an a-grid, plus a 0.01-step refinement pass around the
    coarse minimum of the max column.  Grid points where the K-driven
    expression is undefined (denominator <= 0, roughly a < 6.2) are skipped
    rather than reported."""
    if not (a_lo > 0.0 and a_hi > a_lo and step > 0.0):
        raise ValueError("need 0 < a_lo < a_hi and step > 0")
    grid = list(np.arange(a_lo, a_hi + step / 2.0, step))
    reports = []
    for a in grid:
        try:
            reports.append(upper_bound_report(float(a), m))
        except ValueError:
            continue
    if not reports:
        raise ValueError("no a in the range admits the upper-bound expressions")
    if len(reports) > 2:
        k = min(range(len(reports)), key=lambda j: reports[j].max)
        lo = reports[max(k - 1, 0)].a
        hi = reports[min(k + 1, len(reports) - 1)].a
        fine = np.arange(lo, hi + 0.005, 0.01)
        seen = {round(r.a, 6) for r in reports}
        for a in fine:
            if round(float(a), 6) in seen:
                continue
            try:
                reports.append(upper_bound_report(float(a), m))
            except ValueError:
                continue
        reports.sort(key=lambda r: r.a)
    return reports


def build_fn_lower(n):
    """The lower-bound witness: piecewise linear with breakpoints
    (2-sqrt(2))/n < 1/n < 2/n < 3/n < (2+sqrt(2))/n, values
    1, -0.8, -1, 0.04, 1, and constant 1 outside."""
    if n < 8:
        raise ValueError("need n >= 8")
    bp = ((2.0 - SQRT2) / n, 1.0 / n, 2.0 / n, 3.0 / n, (2.0 + SQRT2) / n)
    return PiecewiseLinearFn(bp, (1.0, -0.8, -1.0, 0.04, 1.0))


_G_NODES = np.array([1.0, -0.8, -1.0, 0.04, 1.0])


def g_of_lambda(lam):
    """The witness values on the integer grid, read in lambda = nx
    coordinates: piecewise linear between the nodes 0, 1, 2, 3, 4 with
    values 1, -0.8, -1, 0.04, 1 and constantly 1 beyond.

    This is not f_n(lambda/n) itself, whose outer breakpoints sit at
    2 -/+ sqrt(2) rather than 0 and 4; the two agree at every integer
    lambda.  G = E g(N_lam) depends only on those integer values, so it is
    the same under either reading, and so is sup |G - g|: both reach
    2 - 8.88 e^-2 at lambda = 2 (checked on a 4e5-point lambda-grid over
    [0, 40]).  Which of the two the paper means is not settled by its
    abstract."""
    out = np.interp(lam, np.arange(5.0), _G_NODES)
    return out if np.ndim(out) else float(out)


def G_of_lambda(lam):
    """Poisson profile G(lam) = E g(N_lam) = P0 - 0.8 P1 - P2 + 0.04 P3
    + 1 - P(N <= 3); lam may be a scalar or an array."""
    lam = np.asarray(lam, dtype=float)
    if np.any(lam < 0.0):
        raise ValueError("lam must be >= 0")
    e = np.exp(-lam)
    p0, p1 = e, lam * e
    p2, p3 = lam ** 2 * e / 2.0, lam ** 3 * e / 6.0
    out = p0 - 0.8 * p1 - p2 + 0.04 * p3 + 1.0 - (p0 + p1 + p2 + p3)
    return out if out.ndim else float(out)


def sup_G_minus_g(*, lambda_max=40.0, points=100_000):
    """sup over [0, lambda_max] of |G - g|, scanned on points + 1 grid points
    and the nodes of g, with a Poisson-tail certificate that nothing beyond
    lambda_max can compete.  Refinement stays between neighbouring nodes of
    g, where |G - g| is smooth."""
    _check_scan(lambda_max, points)
    if lambda_max < 40.0:
        raise ValueError("need lambda_max >= 40 for the tail certificate")
    lams = np.unique(np.concatenate([
        np.linspace(0.0, lambda_max, points + 1), np.arange(5.0)]))
    arg, value, _ = sup_search(lambda t: np.abs(G_of_lambda(t) - g_of_lambda(t)),
                               lams, breaks=np.arange(5.0))
    tail = 2.0 * float(np.sum([PoissonLaw(lambda_max).pmf(k) for k in range(4)]))
    cert = (f"for lambda > {lambda_max:g}: |G - g| = |G - 1| <= 2 P(N <= 3) "
            f"<= {tail:.3e} (decreasing in lambda)")
    return SupSearchResult(value, arg, (0.0, lambda_max), cert)


def _fn_lower_error(n, x):
    """|B_n f_n - f_n| at points x, using the exact four-term form
    B_n f_n = 1 - 1.8 p_1 - 2 p_2 - 0.96 p_3.

    The three binomial probabilities p_1, p_2, p_3 are formed here from
    three log C(n, k) values, not read from the band kernel: lower accepts n
    up to 10^8, where a table of n+1 log C(n, k) values does not fit."""
    x = np.asarray(x, dtype=float)
    fn = build_fn_lower(n)
    logc = _log_comb(n, np.arange(4.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        logx = np.log(x)
        log1mx = np.log1p(-x)
        b = np.ones_like(x)
        for k, w in ((1, -1.8), (2, -2.0), (3, -0.96)):
            pk = np.where((x > 0.0) & (x < 1.0),
                          np.exp(logc[k] + k * logx + (n - k) * log1mx), 0.0)
            b = b + w * pk
    return np.abs(b - fn(x))


def fn_lower_error_sup(n):
    """sup over [0,1] of |B_n f_n - f_n|: a lambda-grid on [0,40] mapped to
    x = lambda/n, a uniform grid, the breakpoints, then golden refinement."""
    fn = build_fn_lower(n)
    xs = np.unique(np.concatenate([
        np.linspace(0.0, 40.0, 16001) / n,
        np.linspace(0.0, 1.0, X_POINTS // 2 + 1),
        np.asarray(fn.breakpoints)]))
    arg, value, _ = sup_search(lambda t: _fn_lower_error(n, t), xs, tol=1e-13)
    far = float(np.max(_fn_lower_error(n, np.linspace(40.0 / n, 1.0, 1001))))
    cert = f"max of |B_n f_n - f_n| over [40/n, 1] on a 1001-point grid: {far:.3e}"
    return SupSearchResult(value, arg, (0.0, 1.0), cert)


def lower_bound_ratio(n):
    """Lower-bound report at one n: the weighted modulus at delta = 1/sqrt(n),
    the Bernstein approximation error of f_n, their ratio, and the Poisson
    profile gap."""
    if n < 1000:
        raise ValueError("need n >= 1000 for the asymptotic regime")
    fn = build_fn_lower(n)
    om = omega2_phi(fn, 1.0 / math.sqrt(n)).value
    err = fn_lower_error_sup(n).sup_value
    gap = sup_G_minus_g().sup_value
    return LowerBoundReport(n, om, err, om / err, gap)


def _error_norm(f, n, xs):
    """max |B_n f - f| over xs, a grid maximum: a lower estimate of the norm,
    so a check built on it is not certified."""
    return float(np.max(np.abs(bernstein_apply_many(f, n, xs) - f(xs))))


def _d2_norm(f, n, xs):
    """max phi^2 |(B_n f)''| over the points of xs inside (0, 1), a grid
    maximum: a lower estimate of the norm, as in _error_norm."""
    x = xs[(xs > 0.0) & (xs < 1.0)]
    return float(np.max(x * (1.0 - x) * np.abs(bernstein_derivative(f, n, 2, x))))


def modulus_upper_sides(f, n):
    """(LHS, RHS) of omega2_phi(f; 1/sqrt(n)) <= 4 ||B_n f - f||
    + (log 4 / n) ||phi^2 (B_n f)''||, norms over grids on [0,1] and (0,1).

    The norm grids combine a uniform grid with lambda = n x boundary layers
    (and any breakpoints of f): B_n resolves structure at scale 1/n near the
    endpoints, which a uniform grid undersamples for n-localized functions.
    Both norms are grid maxima, which under-estimate the norms, so the
    reported RHS is a lower estimate of the true RHS and the check built on
    it is not certified."""
    lhs = omega2_phi(f, 1.0 / math.sqrt(n)).value
    lam = np.linspace(0.0, 40.0, 2001) / n
    xs = np.concatenate([np.linspace(0.0, 1.0, X_POINTS // 2 + 1),
                         lam, 1.0 - lam])
    bp = getattr(f, "breakpoints", None)
    if bp is not None:
        xs = np.concatenate([xs, np.asarray(bp, dtype=float)])
    xs = np.unique(np.clip(xs, 0.0, 1.0))
    return lhs, 4.0 * _error_norm(f, n, xs) + LOG4 / n * _d2_norm(f, n, xs)


def modulus_upper_check(f, n):
    lhs, rhs = modulus_upper_sides(f, n)
    return lhs <= rhs + 1e-12


def central_converse_check(f, n, a=7.2):
    """Central-region converse estimate at one n:

        (1 - sqrt((n+1)/n) H_{n-2} K(a) / 3) ||phi^2 (B_n f)''|| / (2n)
            <= ((sqrt(2)+1)/sqrt(2)) ||B_n f - f||,

    norms over (0, 1/2]; H_{n-2} is the sup of H over x."""
    if n < 5:
        raise ValueError("need n >= 5")
    h = sup_H_n(n - 2).sup_value
    mult = 1.0 - math.sqrt((n + 1.0) / n) * h * K_func(a) / 3.0
    err, wd2 = _error_norm(f, n, _NORM_XS), _d2_norm(f, n, _NORM_XS)
    if mult <= 0.0:
        return ValidatorResult(True, False, mult * wd2 / (2.0 * n),
                               (SQRT2 + 1.0) / SQRT2 * err,
                               f"vacuous: multiplier {mult:.4f} <= 0")
    lhs = mult * wd2 / (2.0 * n)
    rhs = (SQRT2 + 1.0) / SQRT2 * err
    return ValidatorResult(lhs <= rhs + 1e-12, True, lhs, rhs,
                           f"multiplier {mult:.4f}")


def noncentral_converse_check(f, n, a=7.2, m=20):
    """Noncentral converse estimate with the finite-n J bounds substituted
    (conservative on both sides):

        ||phi^2 (B_n f)''|| (1 - J_n(m+1,a)) / n
            <= sqrt(2) (i + sum_{k=i}^m J_n(k,a)) ||B_n f - f||,

    i = first_valid_i(a).  Reports not-binding when the J-bound hypothesis
    fails at this n or the multiplier is nonpositive."""
    i = first_valid_i(a)
    if i > m:
        raise ValueError(f"need m >= first_valid_i(a) = {i}")
    err, wd2 = _error_norm(f, n, _NORM_XS), _d2_norm(f, n, _NORM_XS)
    try:
        js = {k: finite_n_J_bound(n, k, a) for k in range(i, m + 2)}
    except ValueError as e:
        return ValidatorResult(True, False, 0.0, 0.0, f"not binding: {e}")
    mult = 1.0 - js[m + 1]
    if mult <= 0.0:
        return ValidatorResult(True, False, 0.0, 0.0,
                               f"vacuous: 1 - J bound = {mult:.4f} <= 0")
    lhs = wd2 * mult / n
    rhs = SQRT2 * (i + sum(js[k] for k in range(i, m + 1))) * err
    return ValidatorResult(lhs <= rhs + 1e-12, True, lhs, rhs,
                           f"multiplier {mult:.4f}")


def iterate_converse_check(f, n):
    """Second-iterate smoothing estimate with g = B_n f:

        ||phi^2 ((B_n g)'' - g'')|| / (2n) <= (1/sqrt(2)) ||B_n f - f||,

    norms over (0, 1/2].  By linearity (B_n g)'' - g'' = (B_n h)'' with
    h = g - f, taken as one derivative: the two derivatives it replaces are
    up to n times their difference.  The derivative only reads h on the grid
    j/n, so h is represented exactly by its grid values B_n f(j/n) - f(j/n).
    """
    grid = np.arange(n + 1) / n
    h_grid = bernstein_apply_many(f, n, grid) - f(grid)

    def h_fn(y):
        return h_grid[np.rint(np.asarray(y, dtype=float) * n).astype(int)]

    lhs = _d2_norm(h_fn, n, _NORM_XS) / (2.0 * n)
    rhs = _error_norm(f, n, _NORM_XS) / SQRT2
    return ValidatorResult(lhs <= rhs + 1e-12, True, lhs, rhs, "g = B_n f")
