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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bernstein import PiecewiseLinearFn, _apply_table, _derivative_and_apply, _grid_values
from .central import K_func, SupSearchResult, sup_H_n
from .dist import (_BAND_LOG_MASS, _SCAN_LOG_MASS, LOG4, _check_n, _exact_near_max,
                   _poisson_terms, _window_err)
from .moduli import X_POINTS, omega2_phi
from .noncentral import J_limit, finite_n_J_bound, first_valid_i
from .search import sup_search

SQRT2 = math.sqrt(2.0)
# Grid of the norms in the converse validators: 1024 points on (0, 1/2].
_NORM_XS = np.linspace(0.0, 0.5, 1025)[1:]
# The a of K(a) and J(k, a) in the converse validators, and the m of the
# noncentral one: the headline point, where first_valid_i(a) = 13 <= m.
CONVERSE_A = 7.2
CONVERSE_M = 20
# sup_G_minus_g scans [0, G_LAMBDA_MAX] on G_POINTS + 1 points; its tail
# certificate needs G_LAMBDA_MAX >= 40.
G_LAMBDA_MAX = 40.0
G_POINTS = 100_000
# fn_lower_error_sup scans lambda = nx on FN_LAMBDA_POINTS + 1 points of
# [0, FN_LAMBDA_MAX], X_POINTS // 2 + 1 uniform points of [0, 1] and the
# breakpoints of f_n.
FN_LAMBDA_MAX = 40.0
FN_LAMBDA_POINTS = 16_000


@dataclass(frozen=True)
class UpperBoundReport:
    a: float
    m: int
    i: int
    expr_H1: float
    expr_H2: float
    max: float


@dataclass(frozen=True)
class LowerBoundReport:
    n: int
    omega2phi: float
    sup_err: float
    ratio: float
    sup_G_minus_g: float
    # vertex candidates of the exact omega2_phi path
    omega2phi_candidates: int


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
    return _expr_H2(a, _J_row(a, m))


def _J_row(a, m):
    """J(k, a) at k = 1..m+1: a row, or one per a of a 1-D array of them."""
    if not (isinstance(m, (int, np.integer)) and m >= 1):
        raise ValueError(f"m must be an integer >= 1, got m={m!r}")
    return J_limit(np.arange(1, m + 2), a)


def _expr_H2(a, js):
    """upper_expr_H2 from js, the row J(k, a) at k = 1..m+1 of _J_row."""
    i = first_valid_i(a)
    if i > len(js) - 1:
        raise ValueError(f"need m >= first_valid_i(a) = {i}")
    *js, j_top = js[i - 1:].tolist()
    if j_top >= 1.0:
        raise ValueError(f"J(m+1, a) = {j_top:.4g} >= 1: expression undefined")
    return 4.0 + SQRT2 * (i + sum(js)) / (1.0 - j_top) * LOG4


def upper_bound_report(a, m):
    return _report(a, _J_row(a, m))


def _report(a, js):
    """upper_bound_report from js, the row of _expr_H2."""
    e1 = upper_expr_H1(a)
    e2 = _expr_H2(a, js)
    return UpperBoundReport(a, len(js) - 1, first_valid_i(a), e1, e2, max(e1, e2))


def smooth_class_constant():
    """upper_expr_H1(inf), for the class where the central kernel attains its
    limit K(inf) = sqrt(3), exact in floating point too.  upper_expr_H1(a)
    approaches it from above as kappa a^(-1/2) + O(1/a) with kappa = (9/8)
    (0.99/3) sqrt(2)(sqrt(2)+1) log 4 / (1 - 0.99/sqrt(3))^2 = 9.5734...,
    since K(a) - sqrt(3) is (9/8) a^(-1/2) + O(1/a)."""
    return upper_expr_H1(math.inf)


def sweep_upper(a_lo, a_hi, step, m):
    """Reports at the points a_lo + j step of [a_lo, a_hi], plus a 0.01-step
    refinement pass between the coarse neighbours of the minimum of the max
    column.  Grid points where the K-driven expression is undefined
    (denominator <= 0, roughly a < 6.2) are skipped rather than reported.

    Each report is upper_bound_report's at its a, bit for bit, but each pass
    takes the J(k, a) of all its values of a from one _J_row call, so from
    one pass of the alpha recursion."""
    if not (a_lo > 0.0 and a_hi > a_lo and 0.0 < step < math.inf):
        raise ValueError("need 0 < a_lo < a_hi and a finite step > 0")

    def reports_at(lo, hi, step, skip):
        """Reports at np.arange's points lo + j step up to hi, hi kept
        through rounding, but for those whose a to 6 places is in skip."""
        grid = np.arange(lo, hi + step / 2.0, step).tolist()
        avals = [a for a in grid if a <= hi + 1e-9 * step and round(a, 6) not in skip]
        out = []
        for a, row in zip(avals, _J_row(np.array(avals), m) if avals else ()):
            try:
                out.append(_report(a, row))
            except ValueError:  # an expression is undefined at this a
                pass
        return out

    reports = reports_at(a_lo, a_hi, step, set())
    if not reports:
        raise ValueError("no a in the range admits the upper-bound expressions")
    k = min(range(len(reports)), key=lambda j: reports[j].max)
    lo = reports[max(k - 1, 0)].a
    hi = reports[min(k + 1, len(reports) - 1)].a
    reports += reports_at(lo, hi, 0.01, {round(r.a, 6) for r in reports})
    reports.sort(key=lambda r: r.a)
    return reports


# The witness f_n's values at its knots; the outer knots (2 -/+ sqrt(2))/n lie
# in (0, 1/n) and (3/n, 4/n), so these are also f_n(k/n), k = 0..4.
_WITNESS = (1.0, -0.8, -1.0, 0.04, 1.0)


def build_fn_lower(n):
    """The lower-bound witness: piecewise linear through the values _WITNESS
    at the breakpoints (2-sqrt(2))/n < 1/n < 2/n < 3/n < (2+sqrt(2))/n, and
    constant 1 outside."""
    if not (isinstance(n, (int, np.integer)) and n >= 8):
        raise ValueError(f"n must be an integer >= 8, got {n!r}")
    bp = ((2.0 - SQRT2) / n, 1.0 / n, 2.0 / n, 3.0 / n, (2.0 + SQRT2) / n)
    return PiecewiseLinearFn(bp, _WITNESS)


def _witness_mean(p):
    """E w(N) = 1 + sum_{k=1..3} (w_k - 1) p_k for w = _WITNESS and a law
    N on the integers with P(N = k) = p[k-1]; w_0 = w_4 = 1, and w = 1 beyond."""
    out = 1.0
    for w, pk in zip(_WITNESS[1:4], p):
        out = out + (w - 1.0) * pk
    return out


def g_of_lambda(lam):
    """The witness values on the integer grid, read in lambda = nx
    coordinates: piecewise linear between the nodes 0, 1, 2, 3, 4 with
    values _WITNESS and constantly 1 beyond.

    This is not f_n(lambda/n) itself, whose outer breakpoints sit at
    2 -/+ sqrt(2) rather than 0 and 4; the two agree at every integer
    lambda.  G = E g(N_lam) depends only on those integer values, so it is
    the same under either reading, and so is sup |G - g|: both reach
    2 - 8.88 e^-2 at lambda = 2 (checked on a 4e5-point lambda-grid over
    [0, 40]).  Which of the two the paper means is not settled by its
    abstract."""
    lam = np.asarray(lam, dtype=float)
    if not np.all((lam >= 0.0) & np.isfinite(lam)):
        raise ValueError("lam must be finite and >= 0")
    out = np.interp(lam, np.arange(5.0), _WITNESS)
    return out if np.ndim(out) else float(out)


def G_of_lambda(lam):
    """Poisson profile G(lam) = E g(N_lam) = 1 + sum_{k=1..3} (w_k - 1) P_k,
    P_k from dist._poisson_terms (0 past lam = 745); lam a scalar or array."""
    lam = np.asarray(lam, dtype=float)
    if not np.all((lam >= 0.0) & np.isfinite(lam)):
        raise ValueError("lam must be finite and >= 0")
    out = _witness_mean(itertools.islice(_poisson_terms(lam), 1, 4))
    return out if out.ndim else float(out)


def sup_G_minus_g():
    """sup over [0, G_LAMBDA_MAX] of |G - g|, scanned on G_POINTS + 1 grid
    points and the nodes of g, with a Poisson-tail certificate that nothing
    beyond G_LAMBDA_MAX can compete.  Refinement stays between neighbouring
    nodes of g, where |G - g| is smooth."""
    lam = G_LAMBDA_MAX
    nodes = np.arange(float(len(_WITNESS)))
    lams = np.unique(np.concatenate([np.linspace(0.0, lam, G_POINTS + 1), nodes]))
    arg, value, _ = sup_search(lambda t: np.abs(G_of_lambda(t) - g_of_lambda(t)),
                               lams, breaks=nodes)
    w1 = max(abs(w - 1.0) for w in _WITNESS)
    tail = w1 * sum(itertools.islice(_poisson_terms(lam), 4))
    cert = (f"for lambda > {lam:g}: |G - g| = |G - 1| <= {w1:g} P(N <= 3) "
            f"<= {tail:.3e} (decreasing in lambda)")
    return SupSearchResult(value, arg, (0.0, lam), cert)


def _fn_lower_error(n, x):
    """|B_n f_n - f_n| at points x, B_n f_n taken as the four-term
    _witness_mean of the binomial probabilities p_1, p_2, p_3.

    Those are formed here from the exact log C(n, k), k = 1..3, not read from
    the band kernel: lower accepts n up to 10^8, where a table of n+1
    log C(n, k) values does not fit."""
    x = np.asarray(x, dtype=float)
    inner = (x > 0.0) & (x < 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        logx, log1mx = np.log(x), np.log1p(-x)
        p = [np.where(inner, np.exp(math.log(math.comb(n, k)) + k * logx
                                    + (n - k) * log1mx), 0.0) for k in (1, 2, 3)]
    return np.abs(_witness_mean(p) - build_fn_lower(n)(x))


def fn_lower_error_sup(n):
    """sup over [0,1] of |B_n f_n - f_n|: a lambda-grid on [0,40] mapped to
    x = lambda/n, a uniform grid, the breakpoints, then golden refinement."""
    fn = build_fn_lower(n)
    xs = np.unique(np.concatenate([
        np.linspace(0.0, FN_LAMBDA_MAX, FN_LAMBDA_POINTS + 1) / n,
        np.linspace(0.0, 1.0, X_POINTS // 2 + 1),
        np.asarray(fn.breakpoints)]))
    arg, value, _ = sup_search(lambda t: _fn_lower_error(n, t), xs, tol=1e-13)
    far = float(np.max(_fn_lower_error(n, np.linspace(FN_LAMBDA_MAX / n, 1.0, 1001))))
    cert = f"max of |B_n f_n - f_n| over [40/n, 1] on a 1001-point grid: {far:.3e}"
    return SupSearchResult(value, arg, (0.0, 1.0), cert)


def lower_bound_ratio(n):
    """Lower-bound report at one n: the weighted modulus at delta = 1/sqrt(n),
    the Bernstein approximation error of f_n, their ratio, and the Poisson
    profile gap."""
    _check_n(n)
    if n < 1000:
        raise ValueError("need n >= 1000 for the asymptotic regime")
    fn = build_fn_lower(n)
    om = omega2_phi(fn, 1.0 / math.sqrt(n))
    err = fn_lower_error_sup(n).sup_value
    gap = sup_G_minus_g().sup_value
    return LowerBoundReport(n, om.value, err, om.value / err, gap, om.grid_points)


def _need_n(n, least):
    """Raise ValueError, naming n, unless n is an integer >= least: the
    validators' checks, made before any of their work."""
    if not (isinstance(n, (int, np.integer)) and n >= least):
        raise ValueError(f"need an integer n >= {least}, got n={n}")


def _norms(fks, fxs, n, x):
    """For each table fk = f(k/n), k = 0..n, of fks (bernstein._grid_values)
    and the values fx = f(x) of fxs at the points x of (0, 1), (max |B_n f - f|,
    max phi^2 |(B_n f)''|) over x, bit for bit as summing every point over
    its full window gives them, and as one table alone gives them.  Both are
    grid maxima: lower estimates of the norms, so a check built on them is
    not certified.  No grid needs 0 or 1: the band kernel's row there is a
    unit vector, so B_n f = f at both, bit for bit.

    A first pass sums every point over a window that holds its narrow
    window, at log-mass _SCAN_LOG_MASS + log n + log C(n, 2), for all of fks
    at once, and bounds each sum's distance to its full-window value by
    dist._window_err: a term of B_n f is at most max|fk|, and one of the
    Krawtchouk sum at most (pref/2) max|fk| ((k - nx)^2 + |k - nx| +
    nx(1-x)), pref = 2/phi^4, as K_2(x; k) = ((k - nx)^2 - (1 - 2x)(k - nx)
    - nx(1-x))/2; the computed rows exceed that bound by at most 1e-10
    relative for n <= 10^6, far inside the factor 2 of _dropped_moments.
    Then dist._exact_near_max sums full windows again, one table at a time,
    only where either maximum can sit.  The two-form check of (B_n f)'' runs
    on every sum taken: the log C(n, 2) in the log-mass keeps what the
    narrow windows leave out of its two forms far below its tolerance."""
    w = x * (1.0 - x)
    log_mass = _SCAN_LOG_MASS + math.log(n) + math.log(math.comb(n, 2))
    out = []
    narrow = _derivative_and_apply(fks, n, 2, x, log_mass)
    for fk, fx, (d2, bn, d2_env, bn_env) in zip(fks, fxs, narrow):
        fmax = float(np.max(np.abs(fk)))
        c = fmax / w ** 2  # (pref/2) max|f|
        d2_err = _window_err(n, x, log_mass, (c * (n * x * (1.0 - x)), c, c), d2_env)
        bn_err = _window_err(n, x, log_mass, (fmax, 0.0, 0.0), bn_env)

        def full(i):
            (d2_full, bn_full, _, _), = _derivative_and_apply([fk], n, 2, x[i], _BAND_LOG_MASS)
            return np.abs(bn_full - fx[i]), w[i] * np.abs(d2_full)

        err, wd2 = _exact_near_max([np.abs(bn - fx), w * np.abs(d2)], [bn_err, w * d2_err], full)
        out.append((float(np.max(err)), float(np.max(wd2))))
    return out


def modulus_upper_sides(f, n):
    """(LHS, RHS) of omega2_phi(f; 1/sqrt(n)) <= 4 ||B_n f - f||
    + (log 4 / n) ||phi^2 (B_n f)''||, norms over one grid on (0, 1).
    f may be one function, or a sequence of functions, which gives a list
    of (LHS, RHS), one per function: functions whose norm grids are the same
    share one pass of the norms (_norms).

    The norm grids combine a uniform grid with lambda = n x boundary layers
    (and any breakpoints of f): B_n resolves structure at scale 1/n near the
    endpoints, which a uniform grid undersamples for n-localized functions.
    Both norms are grid maxima, which under-estimate the norms, so the
    reported RHS is a lower estimate of the true RHS and the check built on
    it is not certified."""
    _need_n(n, 2)
    fs = [f] if callable(f) else list(f)
    lhs = [omega2_phi(g, 1.0 / math.sqrt(n)).value for g in fs]
    grids = [_modulus_norm_grid(g, n) for g in fs]
    groups = {}
    for i, xs in enumerate(grids):
        groups.setdefault(xs.tobytes(), []).append(i)
    rhs = [0.0] * len(fs)
    for idx in groups.values():
        x = grids[idx[0]]
        fks, fxs = [_grid_values(fs[i], n) for i in idx], [fs[i](x) for i in idx]
        for i, (err, wd2) in zip(idx, _norms(fks, fxs, n, x)):
            rhs[i] = 4.0 * err + LOG4 / n * wd2
    sides = list(zip(lhs, rhs))
    return sides[0] if callable(f) else sides


def _modulus_norm_grid(f, n):
    """The sorted norm grid of modulus_upper_sides on (0, 1)."""
    lam = np.linspace(0.0, 40.0, 2001) / n
    xs = np.concatenate([np.linspace(0.0, 1.0, X_POINTS // 2 + 1),
                         lam, 1.0 - lam])
    bp = getattr(f, "breakpoints", None)
    if bp is not None:
        xs = np.concatenate([xs, np.asarray(bp, dtype=float)])
    xs = np.unique(xs)
    return xs[(xs > 0.0) & (xs < 1.0)]


def modulus_upper_check(f, n):
    """Whether LHS <= RHS + 1e-12 in modulus_upper_sides: a bool for one
    function, a list of them for a sequence of functions."""
    sides = modulus_upper_sides([f] if callable(f) else f, n)
    ok = [lhs <= rhs + 1e-12 for lhs, rhs in sides]
    return ok[0] if callable(f) else ok


def central_converse_check(f, n):
    """Central-region converse estimate at one n, a = CONVERSE_A:

        (1 - sqrt((n+1)/n) H_{n-2} K(a) / 3) ||phi^2 (B_n f)''|| / (2n)
            <= ((sqrt(2)+1)/sqrt(2)) ||B_n f - f||,

    norms over (0, 1/2]; H_{n-2} is the sup of H over x.  f may be one
    function, or a sequence of functions, which gives a list of results,
    one per function: they share one sup_H_n search and one pass of the
    norms (_norms)."""
    _need_n(n, 5)
    fs = [f] if callable(f) else list(f)
    if not fs:
        return []
    h = sup_H_n(n - 2).sup_value
    mult = 1.0 - math.sqrt((n + 1.0) / n) * h * K_func(CONVERSE_A) / 3.0
    out = []
    fks, fxs = [_grid_values(g, n) for g in fs], [g(_NORM_XS) for g in fs]
    for err, wd2 in _norms(fks, fxs, n, _NORM_XS):
        lhs = mult * wd2 / (2.0 * n)
        rhs = (SQRT2 + 1.0) / SQRT2 * err
        if mult <= 0.0:
            out.append(ValidatorResult(True, False, lhs, rhs,
                                       f"vacuous: multiplier {mult:.4f} <= 0"))
        else:
            out.append(ValidatorResult(lhs <= rhs + 1e-12, True, lhs, rhs,
                                       f"multiplier {mult:.4f}"))
    return out[0] if callable(f) else out


def noncentral_converse_check(f, n):
    """Noncentral converse estimate with the finite-n J bounds substituted
    (conservative on both sides), at a = CONVERSE_A and m = CONVERSE_M:

        ||phi^2 (B_n f)''|| (1 - J_n(m+1,a)) / n
            <= sqrt(2) (i + sum_{k=i}^m J_n(k,a)) ||B_n f - f||,

    i = first_valid_i(a).  Reports not-binding when the J-bound hypothesis
    fails at this n or the multiplier is nonpositive."""
    _need_n(n, 2)
    a, m = CONVERSE_A, CONVERSE_M
    i = first_valid_i(a)
    try:
        js = {k: finite_n_J_bound(n, k, a) for k in range(i, m + 2)}
    except ValueError as e:
        return ValidatorResult(True, False, 0.0, 0.0, f"not binding: {e}")
    mult = 1.0 - js[m + 1]
    if mult <= 0.0:
        return ValidatorResult(True, False, 0.0, 0.0,
                               f"vacuous: 1 - J bound = {mult:.4f} <= 0")
    (err, wd2), = _norms([_grid_values(f, n)], [f(_NORM_XS)], n, _NORM_XS)
    lhs = wd2 * mult / n
    rhs = SQRT2 * (i + sum(js[k] for k in range(i, m + 1))) * err
    return ValidatorResult(lhs <= rhs + 1e-12, True, lhs, rhs,
                           f"multiplier {mult:.4f}")


def iterate_converse_check(f, n):
    """Second-iterate smoothing estimate with g = B_n f:

        ||phi^2 ((B_n g)'' - g'')|| / (2n) <= (1/sqrt(2)) ||B_n f - f||,

    norms over (0, 1/2].  By linearity (B_n g)'' - g'' = (B_n h)'' with
    h = g - f, taken as one derivative: the two derivatives it replaces are
    up to n times their difference.  h enters _norms as its table
    B_n f(k/n) - f(k/n), all that the derivative reads of it, and its values
    B_n f - f on the norm points, which only its unused error norm reads.
    f is evaluated once on the grid k/n and once on the norm points.
    """
    _need_n(n, 2)
    fk, fx = _grid_values(f, n), f(_NORM_XS)
    hk = _apply_table(fk, n, np.arange(n + 1) / n) - fk
    hx = _apply_table(fk, n, _NORM_XS) - fx
    (_, wd2), (err, _) = _norms([hk, fk], [hx, fx], n, _NORM_XS)
    lhs = wd2 / (2.0 * n)
    rhs = err / SQRT2
    return ValidatorResult(lhs <= rhs + 1e-12, True, lhs, rhs, "g = B_n f")
