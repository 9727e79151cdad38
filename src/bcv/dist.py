"""Discrete laws and inverse moments.

Binomial and Poisson laws, the banded binomial-row kernel that every
expectation over Binomial(n, x) runs on, total variation distance, the
binomial-Poisson total variation bound, the Stirling bound on the binomial
mode, and the closed form E 1/(y+V) = (y+2)log(y+2) - 2(y+1)log(y+1) + y log y
for V = U1 + U2.
"""

import ctypes
import functools
import math
import os
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


def _log_comb(n, k):
    """log C(n, k) for a float array k; every log C(n, k) in bcv is formed
    here."""
    return gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)


@functools.lru_cache(maxsize=8)
def _log_binom(n):
    """log C(n, k) for k = 0..n, read-only."""
    out = _log_comb(n, np.arange(n + 1, dtype=float))
    out.flags.writeable = False
    return out


@functools.cache
def _keep_freed_memory():
    """Under glibc, serve arrays below 32 MB from the heap and keep up to 64 MB
    of it when freed, so block loops reuse their memory: one
    bernstein_derivative(f, 10**4, 2, x) over 5,000 points then takes 2.0e3
    minor page faults, not 2.9e5 (glibc 2.36)."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if os.name == "posix" else None
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, the largest glibc allows
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def _blocks(n, count):
    """Slices of range(count) whose rows of n+1 entries fit one block."""
    _keep_freed_memory()
    step = max(1, _BLOCK_ENTRIES // (n + 1))
    return [slice(s, s + step) for s in range(0, count, step)]


def binomial_rows(n, xs):
    """The Binomial(n, x) pmf over k = 0..n for each x in xs, one row each.

    Each row is bit-identical to the dense exp(log C(n, k) + k log x
    + (n - k) log1p(-x)) over k = 0..n, but exp is taken only over the union
    of the rows' bands |k - nx| <= t, with
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

    def pmf(self, k):
        """P(S = k), read from pmf_vector; 0 off the support 0..n, at
        non-integer k too."""
        k = np.asarray(k, dtype=float)
        valid = (k >= 0) & (k <= self.n) & (k == np.floor(k))
        out = np.where(valid, self.pmf_vector()[np.where(valid, k, 0).astype(int)], 0.0)
        return out if out.ndim else float(out)

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
    """Check P(S_n(m/n) = m) <= (1/sqrt(2 pi)) sqrt(n/(m(n-m))) at an int m
    (a bool is returned) or at each entry of an int array m (a bool array),
    reading the pmf rows of all m in blocks of binomial_rows calls."""
    ma = np.asarray(m)
    ms = ma.ravel()
    if np.any((ms < 1) | (ms > n - 1)):
        raise ValueError(f"m must lie in [1, n-1], got m={m}, n={n}")
    pmf = np.empty(len(ms))
    for sl in _blocks(n, len(ms)):
        rows = binomial_rows(n, ms[sl] / n)
        pmf[sl] = rows[np.arange(len(rows)), ms[sl]]
    out = pmf <= np.sqrt(n / (ms * (n - ms))) / math.sqrt(2.0 * math.pi)
    return out.reshape(ma.shape) if ma.ndim else bool(out[0])


def inv_moment_shift_V(y):
    """E 1/(y+V) for V = U1+U2, via the second difference of y log y.

    Equals (y+2)log(y+2) - 2(y+1)log(y+1) + y log y with 0 log 0 = 0.
    """
    y = np.asarray(y, dtype=float)
    if np.any(y < 0):
        raise ValueError("y must be >= 0")
    out = xlogy(y + 2.0, y + 2.0) - 2.0 * xlogy(y + 1.0, y + 1.0) + xlogy(y, y)
    return out if out.ndim else float(out)

