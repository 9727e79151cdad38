"""Discrete laws and inverse moments.

Binomial and Poisson laws, the band kernel that every expectation over
Binomial(n, x) runs on, total variation distance, the binomial-Poisson total
variation bound, the Stirling bound on the binomial mode, and the closed form
E 1/(y+V) = (y+2)log(y+2) - 2(y+1)log(y+1) + y log y for V = U1 + U2.

The band kernel: by Bernstein's inequality all but exp(-760) of a
Binomial(n, x) row lies in a band |k - nx| <= t around nx, and every entry
outside it rounds to exactly 0.0.  Each point x gets a window [lo, hi] that
holds its band, snapped outward to multiples of 64 and clamped to [0, n], so
the window depends on (n, x) alone.  _blocks cuts the points into runs that
share one window, of at most _BLOCK_ENTRIES band entries each, and
binomial_band takes exp over that window, so every expectation is one
np.sum(axis=1) over a block's rows.  A point's summation tree is therefore
the same alone and inside any batch.
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

# Band entries of one transient block of binomial rows (about 2 MB of float64).
_BLOCK_ENTRIES = 1 << 18
# Log-mass beyond which exp underflows to exactly 0.0 with room to spare:
# exp(-745.2) already rounds to zero.
_BAND_LOG_MASS = 760.0
# Window edges are multiples of this, so nearby points share a window.
_BAND_LATTICE = 64


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
    bernstein_derivative(f, 10**4, 2, x) over 5,000 points then takes 4.9e3
    minor page faults, not 3.9e4 (glibc 2.36)."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if os.name == "posix" else None
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, the largest glibc allows
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def _band_windows(n, xs):
    """Validated points and each one's window [lo, hi] of k.

    The window holds the Bernstein band |k - nx| <= t, with
    t = T/3 + sqrt(T^2/9 + 2 T nx(1-x)) and T = _BAND_LOG_MASS, snapped
    outward to multiples of _BAND_LATTICE and clamped to [0, n].  It depends
    on (n, x) alone, never on the other points of a call."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    xs = np.asarray(xs, dtype=float).ravel()
    if not np.all((xs >= 0.0) & (xs <= 1.0)):
        raise ValueError("success probabilities must lie in [0,1]")
    nx = n * xs
    t = _BAND_LOG_MASS / 3.0 + np.sqrt(_BAND_LOG_MASS ** 2 / 9.0
                                       + 2.0 * _BAND_LOG_MASS * nx * (1.0 - xs))
    lo = np.floor((nx - t) / _BAND_LATTICE) * _BAND_LATTICE
    hi = np.ceil((nx + t + 1.0) / _BAND_LATTICE) * _BAND_LATTICE - 1.0
    return xs, np.maximum(lo, 0.0).astype(int), np.minimum(hi, n).astype(int)


def _blocks(n, xs):
    """Consecutive slices of the points xs, each a run of points that share
    one window [lo, hi] from _band_windows.

    A run holding more than _BLOCK_ENTRIES entries is cut into chunks of
    max(1, _BLOCK_ENTRIES // width) points, so a block's band is one window
    wide and holds at most _BLOCK_ENTRIES entries, or one point."""
    _keep_freed_memory()
    _, lo, hi = _band_windows(n, xs)
    cut = np.flatnonzero((np.diff(lo) != 0) | (np.diff(hi) != 0)) + 1
    starts = [0, *cut.tolist()] if len(lo) else []
    out = []
    for s, e in zip(starts, [*starts[1:], len(lo)]):
        step = max(1, _BLOCK_ENTRIES // int(hi[s] - lo[s] + 1))
        out += [slice(a, min(a + step, e)) for a in range(s, e, step)]
    return out


@dataclass(frozen=True)
class BinomialBand:
    """Binomial(n, x) pmf rows over the band k = offset..offset+width-1 that
    holds every point's window; each row is exactly 0.0 outside its own
    window.  For a block from _blocks the band is the one window its points
    share, so np.sum(..., axis=1) reduces each row over exactly its window."""
    offset: int
    rows: np.ndarray

    @property
    def cols(self):
        """The band's slice of a vector indexed by k = 0..n."""
        return slice(self.offset, self.offset + self.rows.shape[1])


def binomial_band(n, xs):
    """The Binomial(n, x) pmf of each x in xs over the union of their windows.

    Every entry is bit-identical to the dense exp(log C(n, k) + k log x
    + (n - k) log1p(-x)), and exp is taken only over the union of the
    windows from _band_windows.  By Bernstein's inequality every entry
    outside a row's band has mass below exp(-760), which exp rounds to
    exactly 0.0, so dropping the rest of the row changes no entry, and a sum
    over the window differs from the dense sum only in its summation tree.
    Callers pass blocks of points from _blocks, so that the band is one
    window of at most _BLOCK_ENTRIES entries, or one point's window."""
    xs, lo, hi = _band_windows(n, xs)
    offset, end = (int(lo.min()), int(hi.max()) + 1) if len(xs) else (0, 0)
    inner = np.flatnonzero((xs > 0.0) & (xs < 1.0))
    k = np.arange(offset, end, dtype=float)
    # math.log/log1p per x: np.log can differ from them by an ulp
    lx = np.array([math.log(v) for v in xs[inner]]).reshape(-1, 1)
    l1x = np.array([math.log1p(-v) for v in xs[inner]]).reshape(-1, 1)
    # exp(log C + k log x + (n - k) log1p(-x)), added in that order
    out = k * lx
    out += _log_binom(n)[offset:end]
    out += (n - k) * l1x
    np.exp(out, out=out)
    if len(inner) < len(xs):
        rows, out = out, np.zeros((len(xs), end - offset))
        out[inner] = rows
        edge = np.flatnonzero((xs == 0.0) | (xs == 1.0))
        out[edge, (n * xs[edge]).astype(int) - offset] = 1.0
    return BinomialBand(offset, out)


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
        """All n+1 probabilities, the one-point band scattered into a zero
        row; sums to 1 up to rounding."""
        band = binomial_band(self.n, [self.x])
        out = np.zeros(self.n + 1)
        out[band.cols] = band.rows[0]
        return out


@dataclass(frozen=True)
class PoissonLaw:
    lam: float

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError(f"Poisson mean must be >= 0, got {self.lam}")

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
    reading the pmf rows of all m in blocks of binomial_band calls."""
    ma = np.asarray(m)
    ms = ma.ravel()
    if np.any((ms < 1) | (ms > n - 1)):
        raise ValueError(f"m must lie in [1, n-1], got m={m}, n={n}")
    xs = ms / n
    pmf = np.empty(len(ms))
    for sl in _blocks(n, xs):
        band = binomial_band(n, xs[sl])
        pmf[sl] = band.rows[np.arange(len(band.rows)), ms[sl] - band.offset]
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

