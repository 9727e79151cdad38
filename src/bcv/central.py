"""Central-region quantities for the converse estimate.

The key object is

    H_n(x) = phi(x) sqrt(n) ( E|S_n(x)-nx| / (S_n(x)+V)
                            + E|S_n(1-x)-n(1-x)| / (S_n(1-x)+V) ),

with S_n(x) binomial(n, x) and V = U_1 + U_2 independent uniform.  Everything
here feeds the claim sup_x H_n(x) <= 1 for large n: the inverse-moment
quantity I_n, its Poisson-limit profile nu, the envelope C(lambda), the
pointwise upper bound on H_n, and the auxiliary kernel K(s) and inverse-beta
moment bound used downstream.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval
from scipy.special import gammaln, pdtr, xlogy

from .dist import (LOG4, LOG2716, BinomialLaw, _blocks, binomial_band,
                   inv_moment_shift_V)
from .search import sup_search

# Grid points of the x-scan in sup_H_n.
H_SCAN_POINTS = 4096
# The flat profile level c of C~ = 2 c log(27/16) + r and of the large-lambda
# branch I_n(x) <= c (1-x).
C_FLAT = 0.8
# Taylor coefficients of q(u) = ((1+u) log(1+u) - u)/u^2 in u, and of
# A(y) = (y - atan y)/y^3 in y^2.  Below |u|, |y| = 1/4 the closed forms
# cancel; there the series, truncated below 1e-17, take over.
_Q_SERIES = np.array([(-1.0) ** j / ((j + 1) * (j + 2)) for j in range(24)])
_A_SERIES = np.array([(-1.0) ** j / (2 * j + 3) for j in range(13)])


@dataclass(frozen=True)
class SupSearchResult:
    sup_value: float
    arg: float
    scan_range: tuple
    tail_certificate: str


def I_n_brute(n, x):
    """I_n(x) = phi(x) sqrt(n) E|S_n(x) - nx|/(S_n(x) + 1), summed directly."""
    law = BinomialLaw(n, x)
    k = np.arange(n + 1)
    return float(math.sqrt(x * (1.0 - x)) * math.sqrt(n)
                 * np.sum(law.pmf_vector() * np.abs(k - n * x) / (k + 1.0)))


def I_n_closed(n, x):
    """Closed form of I_n through the cdf at ceil(nx):

        (n(1-x)^{3/2}/(n+1)) ( sqrt(lam) (2 P(S = ceil(lam)) - P(S = 0))
          + (1/sqrt(lam)) (2 P(S <= ceil(lam)) - 1 - P(S = 0)) ),

    lam = nx.  Matches I_n_brute to high relative accuracy.
    """
    if not 0.0 < x < 1.0:
        raise ValueError("x must lie in (0,1)")
    lam = n * x
    m = math.ceil(lam)
    p = BinomialLaw(n, x).pmf_vector()
    pm, p0 = float(p[m]), float(p[0])
    cm = float(np.sum(p[:m + 1]))
    return (n * (1.0 - x) ** 1.5 / (n + 1.0)) * (
        math.sqrt(lam) * (2.0 * pm - p0)
        + (2.0 * cm - 1.0 - p0) / math.sqrt(lam))


def nu(lam):
    """Poisson-limit profile of I_n:

        nu(lam) = sqrt(lam) (2 P(N = ceil(lam)) - P(N = 0))
                + (1/sqrt(lam)) (2 P(N <= ceil(lam)) - 1 - P(N = 0)),

    N Poisson(lam).  Jumps at integer lam through the ceiling.  lam may be
    a scalar (a float is returned) or an array; P(N <= m) is the regularized
    Poisson cdf pdtr."""
    lam = np.asarray(lam, dtype=float)
    if np.any(lam <= 0.0):
        raise ValueError("lam must be positive")
    m = np.ceil(lam)
    pm = np.exp(m * np.log(lam) - lam - gammaln(m + 1.0))
    p0 = np.exp(-lam)
    cm = pdtr(m, lam)
    out = np.sqrt(lam) * (2.0 * pm - p0) + (2.0 * cm - 1.0 - p0) / np.sqrt(lam)
    return out if out.ndim else float(out)


def r_of_lambda(lam):
    """r(lam) = (log 4 - 2 log(27/16)) lam^{3/2} e^{-lam}; peaks at lam = 3/2."""
    lam = np.asarray(lam, dtype=float)
    if np.any(lam < 0.0):
        raise ValueError("lam must be >= 0")
    out = (LOG4 - 2.0 * LOG2716) * lam ** 1.5 * np.exp(-lam)
    return out if out.ndim else float(out)


def C_of_lambda(lam):
    """C(lam) = 2 log(27/16) nu(lam) + r(lam), extended by C(0) = 0; lam may
    be a scalar or an array."""
    lam = np.asarray(lam, dtype=float)
    if np.any(lam < 0.0):
        raise ValueError("lam must be >= 0")
    pos = lam > 0.0
    c = 2.0 * LOG2716 * nu(np.where(pos, lam, 1.0)) + r_of_lambda(lam)
    out = np.where(pos, c, 0.0)
    return out if out.ndim else float(out)


def C_tilde(lam):
    """Flat-profile variant 2 c log(27/16) + r(lam), c = C_FLAT."""
    return 2.0 * C_FLAT * LOG2716 + r_of_lambda(lam)


def _check_scan(lambda_max, points):
    """Validate a sup search's scan range (0, lambda_max] and its grid size."""
    if not (math.isfinite(lambda_max) and lambda_max > 0):
        raise ValueError("lambda_max must be positive and finite")
    if points < 100:
        raise ValueError("scan needs at least 100 points")


def _scan_lambdas(lambda_max, points):
    lams = np.linspace(0.0, lambda_max, points + 1)[1:]
    ints = np.arange(1.0, math.floor(lambda_max) + 1.0)
    # the ceiling jumps at integers; sample both sides and the integer itself
    extra = np.concatenate([ints - 1e-9, ints, ints + 1e-9])
    return np.unique(np.concatenate([lams, extra]))


def _tail_certificate():
    lams = np.linspace(60.0, 200.0, 1001)
    nu_cap = math.sqrt(2.0 / math.pi) + 0.02
    if np.max(nu(lams)) > nu_cap:
        raise RuntimeError("tail envelope for nu failed on [60,200]")
    r60 = r_of_lambda(60.0)
    if not r60 < 1e-20:
        raise RuntimeError("tail bound for r failed at lambda=60")
    cert = ("for lambda >= 60: r(lambda) <= r(60) < 1e-20 (r decreasing there) "
            "and nu(lambda) <= sqrt(2/pi)+0.02 checked on [60,200], "
            "so C(lambda) <= 2*log(27/16)*0.82 < 0.87")
    return cert


def sup_C(*, lambda_max=60.0, points=100_000):
    """sup over lambda of C(lambda), scanned on points grid points of
    (0, lambda_max] and at each integer and either side of it, with a
    certificate that the tail beyond 60 stays below the reported sup.
    Refinement stays on one piece (m-1, m] of the ceiling in nu."""
    _check_scan(lambda_max, points)
    if lambda_max < 60.0:
        raise ValueError("scan must cover (0, 60]")
    arg, value, grid_value = sup_search(
        C_of_lambda, _scan_lambdas(lambda_max, points),
        breaks=np.arange(math.ceil(lambda_max) + 1.0))
    if value - grid_value > 1e-3:
        raise RuntimeError("scan too coarse: refinement moved the sup by "
                           f"{value - grid_value:.2e}")
    return SupSearchResult(value, arg, (0.0, lambda_max), _tail_certificate())


def sup_C_tilde(*, lambda_max=60.0, points=100_000):
    """sup over lambda of the flat-profile variant, scanned as in sup_C; the
    lambda-dependence is all in r, whose unique maximum sits at
    lambda = 3/2."""
    _check_scan(lambda_max, points)
    if lambda_max < 60.0:
        raise ValueError("scan must cover (0, 60]")
    arg, value, _ = sup_search(C_tilde, _scan_lambdas(lambda_max, points))
    cert = ("r is unimodal with peak at lambda = 3/2 and r(60) < 1e-20, "
            "so the scanned maximum is global")
    return SupSearchResult(value, arg, (0.0, lambda_max), cert)


@functools.lru_cache(maxsize=8)
def _H_weight(n):
    """E 1/(k+V) + E 1/(n-k+V) for k = 0..n, read-only."""
    inv = inv_moment_shift_V(np.arange(n + 1))
    out = inv + inv[::-1]
    out.flags.writeable = False
    return out


def H_n_exact(n, x):
    """H_n(x) by exact summation over the binomial support.

    Uses E 1/(y + V) from inv_moment_shift_V; the mirrored term needs
    E 1/(n - S_n(x) + 2 - V), which equals E 1/(n - S_n(x) + V) because
    2 - V has the law of V.  x may be a scalar (a float is returned) or an
    array (an array of the same shape is returned).
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    xa = np.asarray(x, dtype=float)
    xs = xa.ravel()
    if not np.all((xs > 0.0) & (xs <= 0.5)):
        raise ValueError("x must lie in (0, 1/2]")
    k = np.arange(n + 1)
    w = _H_weight(n)
    sums = np.empty(len(xs))
    for sl in _blocks(n, xs):
        band = binomial_band(n, xs[sl])
        dev = np.abs(k[band.cols] - (n * xs[sl]).reshape(-1, 1))
        sums[sl] = np.sum(band.rows * dev * w[band.cols], axis=1)
    out = np.sqrt(xs * (1.0 - xs)) * math.sqrt(n) * sums
    return out.reshape(xa.shape) if xa.ndim else float(out[0])


def sup_H_n(n):
    """sup of H_n over (0, 1/2] on an H_SCAN_POINTS grid with golden
    refinement.

    The grid maximum and its golden refinement are attained values, so the
    result is a lower estimate of the sup: the claim sup H_n <= 1 is checked
    on a lower estimate and is not certified by this search."""
    xs = np.linspace(0.0, 0.5, H_SCAN_POINTS + 1)[1:]
    arg, value, _ = sup_search(lambda t: H_n_exact(n, t), xs)
    cert = "H_n(x) -> 0 as x -> 0+ (exact sum is continuous with H_n(0+) = 0)"
    return SupSearchResult(value, arg, (0.0, 0.5), cert)


def D_coeff(lambda0):
    """D(lambda0) = 3 sqrt(lambda0) (lambda0+1) (sqrt(2)/4 + (2/11)(3 lambda0 + 4) lambda0)."""
    if lambda0 <= 0.0:
        raise ValueError("lambda0 must be positive")
    return (3.0 * math.sqrt(lambda0) * (lambda0 + 1.0)
            * (math.sqrt(2.0) / 4.0 + (2.0 / 11.0) * (3.0 * lambda0 + 4.0) * lambda0))


def H_n_upper(n, x):
    """Pointwise upper bound for H_n by splitting at V's mean:

        2 log(27/16) (I_n(x) + I_n(1-x))
          + (log 4 - 2 log(27/16)) (nx)^{3/2} (1-x)^{n+1/2}
          + n^{3/2} / 2^{n+1/2}.
    """
    if not 0.0 < x <= 0.5:
        raise ValueError("x must lie in (0, 1/2]")
    mid = (LOG4 - 2.0 * LOG2716) * (n * x) ** 1.5 * math.exp((n + 0.5) * math.log1p(-x))
    tail = math.exp(1.5 * math.log(n) - (n + 0.5) * LOG4 / 2.0)
    return 2.0 * LOG2716 * (I_n_closed(n, x) + I_n_closed(n, 1.0 - x)) + mid + tail


def I_n_branch_check(n, x, lambda0):
    """Check the two-branch bound on I_n at one point, c = C_FLAT:

        I_n(x) <= c (1-x)                          if nx >= lambda0,
        I_n(x) <= (1-x)(nu(nx) + D(lambda0)/n)     if nx <  lambda0.

    lambda0 is a plain float so small surrogate thresholds can be
    exercised; the caller owns the hypotheses that make each branch valid.
    """
    if n < 2.0 * lambda0:
        raise ValueError(f"branch bound needs n >= 2*lambda0 = {2.0 * lambda0:g}")
    lam = n * x
    v = I_n_closed(n, x)
    if lam >= lambda0:
        return v <= C_FLAT * (1.0 - x)
    return v <= (1.0 - x) * (nu(lam) + D_coeff(lambda0) / n)


def K_func(s):
    """Decreasing kernel with limit sqrt(3):

        K(s) = sqrt(3+1/s) + (3/(8 sqrt(s)))(3+1/s)
             + (3/(16 s)) sqrt((3+1/s)(15+25/s+1/s^2))
             + (7/(16 s sqrt(s)))(15+25/s+1/s^2),

    so K(s) = sqrt(3) + (9/8) s^(-1/2) + O(1/s) as s -> infinity.
    """
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0.0):
        raise ValueError("s must be positive")
    a = 3.0 + 1.0 / s
    b = 15.0 + 25.0 / s + 1.0 / s ** 2
    rs = np.sqrt(s)
    out = (np.sqrt(a) + 3.0 / (8.0 * rs) * a
           + 3.0 / (16.0 * s) * np.sqrt(a * b) + 7.0 / (16.0 * s * rs) * b)
    return out if out.ndim else float(out)


def _q(u, r):
    """((1+u) log(1+u) - u)/u^2 for u >= -1, given the ratio r = 1 + u
    separately: below u = -1/2 the log is taken of r, which stays accurate
    (and r log r -> 0) where 1 + u has cancelled to 0."""
    if abs(u) < 0.25:
        return float(polyval(u, _Q_SERIES))
    r_log_r = xlogy(r, r) if u < -0.5 else r * math.log1p(u)
    return (r_log_r - u) / u / u


def _A(y):
    """(y - atan y)/y^3, positive and even, 1/3 at y = 0."""
    if abs(y) < 0.25:
        return float(polyval(y * y, _A_SERIES))
    return (y - math.atan(y)) / y ** 3


def phi_ratio_moment_sides(m, x, z):
    """Both sides of the inverse-beta moment bound

        E (phi(x)/phi(x+(z-x) B))^m
          <= 1 + (m/(2(m+1))) |z-x|/phi^2
             + (m/(4(m+1))) |z-x|^2/phi^4 + ((m+4)/(4(m+1))) |z-x|^3/phi^6,

    B ~ Beta(1, m).  The left side is in closed form, written in terms that
    do not cancel, so it holds 1e-14 relative accuracy for every z in
    [0, 1], z = x (value 1) and z on the boundary included.  With d = z - x:

      m = 2: 2x(1-x) KL(z||x)/d^2 = 2((1-x) q(d/x) + x q(-d/(1-x))),
             q(u) = ((1+u) log(1+u) - u)/u^2;
      m = 3: substitute s = sqrt(p/(1-p)) in the integral over p = x + dB;
             with s = s(x), S = s(z), r = 1 + sS and y = (S - s)/r it is
             6 (s/(S+s))^3 (S/(s r) + A(y)/((1-z)^2 r^3)) / (1-z),
             A(y) = (y - atan y)/y^3, after the reflection
             (x, z) -> (1-x, 1-z) when z > 1/2, so that S <= 1.
    """
    if m not in (2, 3):
        raise ValueError("m must be 2 or 3")
    if not 0.0 < x < 1.0:
        raise ValueError("x must lie in (0,1)")
    if not 0.0 <= z <= 1.0:
        raise ValueError("z must lie in [0,1]")
    d, xc, zc = z - x, 1.0 - x, 1.0 - z
    p2 = x * xc
    rhs = (1.0 + m / (2.0 * (m + 1.0)) * abs(d) / p2
           + m / (4.0 * (m + 1.0)) * d ** 2 / p2 ** 2
           + (m + 4.0) / (4.0 * (m + 1.0)) * abs(d) ** 3 / p2 ** 3)
    if m == 2:
        lhs = 2.0 * (xc * _q(d / x, z / x) + x * _q(-d / xc, zc / xc))
    else:
        if z > 0.5:
            x, xc, z, zc, d = xc, x, zc, z, -d
        s, S = math.sqrt(x / xc), math.sqrt(z / zc)
        r = 1.0 + s * S
        y = d / (zc * xc * (S + s) * r)  # (S - s)/r without cancellation
        lhs = 6.0 * (s / (S + s)) ** 3 * (S / (s * r) + _A(y) / (zc * zc * r ** 3)) / zc
    return lhs, rhs
