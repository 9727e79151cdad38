"""Discrete laws and inverse moments.

Binomial and Poisson laws with log-space pmfs, the banded binomial-row
kernel that every expectation over Binomial(n, x) runs on, the triangular law of
V = U1 + U2 on [0, 2], the beta(1, m) laws, total variation distance, the
binomial-Poisson total variation bound, the Stirling bound on the binomial
mode, and the closed form E 1/(y+V) = (y+2)log(y+2) - 2(y+1)log(y+1) + y log y.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, xlogy

LOG4 = math.log(4.0)
LOG2716 = math.log(27.0 / 16.0)

# Entries of one transient block of binomial rows (about 2 MB of float64).
_BLOCK_ENTRIES = 1 << 18
# Log-mass beyond which exp underflows to exactly 0.0 with room to spare:
# exp(-745.2) already rounds to zero.
_BAND_LOG_MASS = 760.0


@functools.lru_cache(maxsize=8)
def _log_binom(n):
    """log C(n, k) for k = 0..n, read-only; every log C(n, k) in bcv is read
    from here."""
    k = np.arange(n + 1, dtype=float)
    out = gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
    out.flags.writeable = False
    return out


def _blocks(n, count):
    """Slices of range(count) whose rows of n+1 entries fit one block."""
    step = max(1, _BLOCK_ENTRIES // (n + 1))
    return [slice(s, s + step) for s in range(0, count, step)]


def binomial_rows(n, xs):
    """The Binomial(n, x) pmf over k = 0..n for each x in xs, one row each.

    Each row is bit-identical to the dense exp(logpmf(0..n)), but exp is
    taken only over the union of the rows' bands |k - nx| <= t, with
    t = T/3 + sqrt(T^2/9 + 2 T sigma^2), sigma^2 = nx(1-x) and T = 760.  By
    Bernstein's inequality every entry outside its band has mass below
    exp(-760), which the dense code rounds to exactly 0.0, so the zero fill
    changes no bit of the row or of any sum over it.  Callers pass blocks of
    points from _blocks, so that one call holds about _BLOCK_ENTRIES entries.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    xs = np.asarray(xs, dtype=float).ravel()
    if not np.all((xs >= 0.0) & (xs <= 1.0)):
        raise ValueError("success probabilities must lie in [0,1]")
    out = np.zeros((len(xs), n + 1))
    out[xs == 0.0, 0] = 1.0
    out[xs == 1.0, n] = 1.0
    inner = np.flatnonzero((xs > 0.0) & (xs < 1.0))
    if len(inner) == 0:
        return out
    x = xs[inner]
    var = n * x * (1.0 - x)
    t = _BAND_LOG_MASS / 3.0 + np.sqrt(_BAND_LOG_MASS ** 2 / 9.0 + 2.0 * _BAND_LOG_MASS * var)
    lo = max(0, int(np.floor(np.min(n * x - t))))
    hi = min(n, int(np.ceil(np.max(n * x + t))))
    k = np.arange(lo, hi + 1, dtype=float)
    # math.log/log1p per x: np.log can differ from them by an ulp
    lx = np.array([math.log(v) for v in x]).reshape(-1, 1)
    l1x = np.array([math.log1p(-v) for v in x]).reshape(-1, 1)
    out[inner, lo:hi + 1] = np.exp(_log_binom(n)[lo:hi + 1] + k * lx + (n - k) * l1x)
    return out


@dataclass(frozen=True)
class BinomialLaw:
    """Law of the number of successes in n trials with probability x."""
    n: int
    x: float

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if not 0.0 <= self.x <= 1.0:
            raise ValueError(f"success probability must lie in [0,1], got {self.x}")

    @property
    def mean(self):
        return self.n * self.x

    def support(self):
        return np.arange(self.n + 1)

    def logpmf(self, k):
        k = np.asarray(k, dtype=float)
        n, x = self.n, self.x
        out = np.full(k.shape, -np.inf)
        valid = (k >= 0) & (k <= n) & (k == np.floor(k))
        if x == 0.0:
            out[valid & (k == 0)] = 0.0
        elif x == 1.0:
            out[valid & (k == n)] = 0.0
        else:
            kv = k[valid]
            out[valid] = (_log_binom(n)[kv.astype(int)]
                          + kv * math.log(x) + (n - kv) * math.log1p(-x))
        return out if out.ndim else float(out)

    def pmf(self, k):
        return np.exp(self.logpmf(k))

    def pmf_vector(self):
        """All n+1 probabilities; sums to 1 up to rounding."""
        return binomial_rows(self.n, [self.x])[0]


@dataclass(frozen=True)
class PoissonLaw:
    lam: float

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError(f"Poisson mean must be >= 0, got {self.lam}")

    @property
    def mean(self):
        return self.lam

    def truncation(self):
        """Support cutoff k* with tail mass below 1e-15 for lam <= 100."""
        return math.ceil(self.lam) + math.ceil(40.0 * math.sqrt(self.lam + 1.0)) + 40

    def support(self):
        return np.arange(self.truncation() + 1)

    def logpmf(self, k):
        k = np.asarray(k, dtype=float)
        out = np.full(k.shape, -np.inf)
        valid = (k >= 0) & (k == np.floor(k))
        if self.lam == 0.0:
            out[valid & (k == 0)] = 0.0
        else:
            kv = k[valid]
            out[valid] = kv * math.log(self.lam) - self.lam - gammaln(kv + 1)
        return out if out.ndim else float(out)

    def pmf(self, k):
        return np.exp(self.logpmf(k))

    def pmf_vector(self):
        return np.exp(self.logpmf(self.support()))


@dataclass(frozen=True)
class TriangularV:
    """Law of V = U1 + U2: tent density min(v, 2-v) on [0, 2]."""

    mean = 1.0
    var = 1.0 / 6.0

    def density(self, v):
        v = np.asarray(v, dtype=float)
        out = np.maximum(0.0, np.minimum(v, 2.0 - v))
        return out if out.ndim else float(out)


def tv_distance(p, q):
    """Total variation distance (1/2) sum_k |p(k) - q(k)|.

    Both laws live on the nonnegative integers; the sum is truncated where
    both effective supports end (binomial at n, Poisson where the tail is
    below 1e-15), so the truncation error is < 1e-14.
    """
    hi = max(int(p.support()[-1]), int(q.support()[-1]))
    k = np.arange(hi + 1)
    return 0.5 * float(np.sum(np.abs(p.pmf(k) - q.pmf(k))))


def tv_binom_poisson_bound(n, lam):
    """Upper bound for d_TV(S_n(lam/n), N_lam), valid for n >= 10:

        (lam/n) (sqrt(2)/4 + (4/11)(3 lam + 4) lam^2 / n).
    """
    if n < 10:
        raise ValueError(f"the bound requires n >= 10, got n={n}")
    if lam < 0:
        raise ValueError("lam must be >= 0")
    return (lam / n) * (math.sqrt(2.0) / 4.0 + (4.0 / 11.0) * (3.0 * lam + 4.0) * lam ** 2 / n)


def stirling_mode_bound_check(n, m):
    """Check P(S_n(m/n) = m) <= (1/sqrt(2 pi)) sqrt(n/(m(n-m)))."""
    if not 1 <= m <= n - 1:
        raise ValueError(f"m must lie in [1, n-1], got m={m}, n={n}")
    pmf = BinomialLaw(n, m / n).pmf(m)
    bound = math.sqrt(n / (m * (n - m))) / math.sqrt(2.0 * math.pi)
    return bool(pmf <= bound)


def inv_moment_shift_V(y):
    """E 1/(y+V) for V = U1+U2, via the second difference of y log y.

    Equals (y+2)log(y+2) - 2(y+1)log(y+1) + y log y with 0 log 0 = 0.
    """
    y = np.asarray(y, dtype=float)
    if np.any(y < 0):
        raise ValueError("y must be >= 0")
    out = xlogy(y + 2.0, y + 2.0) - 2.0 * xlogy(y + 1.0, y + 1.0) + xlogy(y, y)
    return out if out.ndim else float(out)

