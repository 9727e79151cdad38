"""Discrete laws and inverse moments.

The binomial law and the band kernel that every expectation over
Binomial(n, x) runs on, the Poisson terms that every Poisson probability is
read from, the exact binomial-Poisson total variation distance beside its
bound, the Stirling bound on the binomial mode, and the closed form
E 1/(y+V) = (y+2)log(y+2) - 2(y+1)log(y+1) + y log y for V = U1 + U2, taken
by its series in 1/(y+1) where the closed form cancels.  The one module that
imports scipy: gammaln for log C(n, k), xlogy for that closed form.

The band kernel: by Bernstein's inequality all but exp(-760) of a
Binomial(n, x) row lies in a band |k - nx| <= t around nx, and every entry
outside it rounds to exactly 0.0.  Each point x gets a window [lo, hi] that
holds its band, snapped outward to multiples of 64 and clamped to [0, n], so
the window depends on (n, x) alone.  _blocks cuts the points into blocks of
at most _BLOCK_ENTRIES band entries and builds each block's rows by taking
exp over its window, so every expectation is one np.sum(axis=1) over a
block's rows.  exp is skipped at entries whose log-mass lies below
_EXP_ZERO = -746, where it would round to +0.0 by a slow path; subnormal
entries stay on np.exp.  In a full-window pass a block is a run of points
that share one window, so a point's summation tree is the same alone and
inside any batch; a scan pass, at a smaller log-mass, sums each point over
the union of its block's windows.  BinomialLaw.pmf_vector is a one-point
block scattered into a row of n + 1 entries.

The two-pass scans (central._H_n_scan, bounds._norms) sum over narrow
windows, or unions of them, bound the distance to the full-window sums by
_window_err, and sum full windows again only where a max can sit, by
_exact_near_max.
"""

import ctypes
import functools
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval
from scipy.special import gammaln, xlogy

LOG4 = math.log(4.0)
LOG2716 = math.log(27.0 / 16.0)

# Band entries of one transient block of binomial rows: 256 KiB of float64, so
# a block and its few temporaries stay in a core's L2 cache.
_BLOCK_ENTRIES = 1 << 15
# Log-mass beyond which exp underflows to exactly 0.0 with room to spare:
# exp(-745.2) already rounds to zero.
_BAND_LOG_MASS = 760.0
# The narrow windows of the two-pass scans sit at log-mass this plus the log
# of the bound on a term's factor besides the pmf: log n in central._H_n_scan
# (43.2 at n = 10^4), log n + log C(n, 2) in bounds._norms (60.9 there).  The
# tail _window_err charges is then 4 e^-34, about 7e-15, of that bound divided
# by n or less, below its rounding term near the max.
_SCAN_LOG_MASS = 34.0
# The relative pad of _exact_near_max's enclosures, 8 units in the last place.
_PAD = 2.0 ** -50
# exp(x) for x < -745.1332 is below 2^-1075 and rounds to +0.0, so rows skip
# exp below this log-mass: numpy's exp takes a slow path for such arguments.
_EXP_ZERO = -746.0
# Window edges are multiples of this, so nearby points share a window.
_BAND_LATTICE = 64
# inv_moment_shift_V takes its series from this y on, where the closed form
# has lost about 1e-15 relative; with c = y + 1 >= 3 the terms of the
# series fall by c^-2 <= 1/9 each, so 17 of them reach below 1e-17.
_INV_SERIES_FROM = 2.0
_INV_SERIES = np.array([2.0 / ((2 * j + 1) * (2 * j + 2)) for j in range(17)])
# Largest lam of nu and tv_binom_poisson: e^-lam is normal up to lam = 708.39.
_POISSON_LAM_MAX = 700.0


def _check_n(n):
    """Raise ValueError unless n is a positive integer."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")


def _log_comb(n, k):
    """log C(n, k) for a float array k, from gammaln; it forms the band
    kernel's tables _log_binom."""
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
    bernstein_derivative(f, 10**4, 2, x) over 2,000 points then takes about
    610 minor page faults, not 2.9e4 (glibc 2.36)."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if os.name == "posix" else None
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, the largest glibc allows
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def _band_windows(n, xs, log_mass=_BAND_LOG_MASS):
    """Validated points and each one's window [lo, hi] of k.

    The window holds the Bernstein band |k - nx| <= t, with
    t = T/3 + sqrt(T^2/9 + 2 T nx(1-x)) and T = log_mass, snapped outward to
    multiples of _BAND_LATTICE and clamped to [0, n]; outside it lies mass at
    most 2 exp(-T).  It depends on (n, x, T) alone, never on the other
    points of a call, and grows with T."""
    _check_n(n)
    xs = np.asarray(xs, dtype=float).ravel()
    if not np.all((xs >= 0.0) & (xs <= 1.0)):
        raise ValueError("success probabilities must lie in [0,1]")
    nx = n * xs
    t = log_mass / 3.0 + np.sqrt(log_mass ** 2 / 9.0 + 2.0 * log_mass * nx * (1.0 - xs))
    lo = np.floor((nx - t) / _BAND_LATTICE) * _BAND_LATTICE
    hi = np.ceil((nx + t + 1.0) / _BAND_LATTICE) * _BAND_LATTICE - 1.0
    return xs, np.maximum(lo, 0.0).astype(int), np.minimum(hi, n).astype(int)


def _blocks(n, xs, log_mass=_BAND_LOG_MASS):
    """Yield blocks (sl, cols, rows) of the points xs: consecutive slices sl;
    cols, the block's window, a slice of a vector indexed by k = 0..n; and
    rows, the pmf rows of xs[sl] over that window, so np.sum(..., axis=1)
    reduces each row over exactly the block's window.

    A block holds at most _BLOCK_ENTRIES entries, or one point.  At the full
    log-mass _BAND_LOG_MASS a block is a run of points that share one window
    from _band_windows, so a point's summation tree is the same alone and
    inside any batch.  Below it, the pass is a scan whose sums feed
    _window_err enclosures only: a block takes consecutive points while they
    fit over the union of their windows, which holds each point's window."""
    _keep_freed_memory()
    xs, lo, hi = _band_windows(n, xs, log_mass)
    # math.log/log1p per x: np.log can differ from them by an ulp
    inner = np.flatnonzero((xs > 0.0) & (xs < 1.0))
    xi = xs[inner].tolist()
    lx, l1x = np.zeros((2, len(xs), 1))
    lx[inner, 0] = [math.log(v) for v in xi]
    l1x[inner, 0] = [math.log1p(-v) for v in xi]
    for a, e, l, h in _spans(lo, hi, log_mass < _BAND_LOG_MASS):
        rows = _window_rows(n, xs[a:e], lx[a:e], l1x[a:e], l, h + 1)
        yield slice(a, e), slice(l, h + 1), rows


def _spans(lo, hi, union):
    """The blocks of _blocks as (a, e, l, h), points a..e-1 over the window
    [l, h], from the points' windows [lo, hi]: each run of points that share
    a window, cut into chunks of max(1, _BLOCK_ENTRIES // width) points; or
    if union, greedy runs of points that fit over the union of their
    windows."""
    if not union:
        cut = np.flatnonzero((np.diff(lo) != 0) | (np.diff(hi) != 0)) + 1
        starts = [0, *cut.tolist()] if len(lo) else []
        for s, e in zip(starts, [*starts[1:], len(lo)]):
            l, h = int(lo[s]), int(hi[s])
            step = max(1, _BLOCK_ENTRIES // (h - l + 1))
            for a in range(s, e, step):
                yield a, min(a + step, e), l, h
        return
    a = 0
    while a < len(lo):
        # no more points fit than over the first one's own window
        e = min(len(lo), a + max(1, _BLOCK_ENTRIES // int(hi[a] - lo[a] + 1)))
        l, h = np.minimum.accumulate(lo[a:e]), np.maximum.accumulate(hi[a:e])
        # the union only widens, so the points that fit are a prefix
        fits = np.arange(1, e - a + 1) * (h - l + 1) <= _BLOCK_ENTRIES
        m = max(1, int(np.count_nonzero(fits)))
        yield a, a + m, int(l[m - 1]), int(h[m - 1])
        a += m


def _window_rows(n, xs, lx, l1x, offset, end):
    """The pmf rows of the validated float array xs over k = offset..end-1,
    which must hold every point's window, given the columns lx = log x and
    l1x = log1p(-x) at the points inside (0, 1).

    Every entry is bit-identical to the dense exp(log C(n, k) + k log x
    + (n - k) log1p(-x)): by Bernstein's inequality every entry outside a
    row's band has mass below exp(-760), which exp rounds to exactly 0.0.
    Entries with log-mass below _EXP_ZERO are set to -inf before exp, which
    gives the same +0.0 without numpy's slow path; a row's log-mass is
    concave in k, so that pass runs only where a window's end lies below
    _EXP_ZERO.  Subnormal results, log-mass in [-745.13, -708.4], are taken
    by np.exp, as math.exp can round them differently."""
    inner = (xs > 0.0) & (xs < 1.0)
    if not np.all(inner):
        out = np.zeros((len(xs), end - offset))
        out[inner] = _window_rows(n, xs[inner], lx[inner], l1x[inner], offset, end)
        edge = ~inner
        out[edge, (n * xs[edge]).astype(int) - offset] = 1.0
        return out
    k = np.arange(offset, end, dtype=float)
    # exp(log C + k log x + (n - k) log1p(-x)), added in that order
    logs = k * lx
    logs += _log_binom(n)[offset:end]
    logs += (n - k) * l1x
    if len(logs) and min(logs[:, 0].min(), logs[:, -1].min()) < _EXP_ZERO:
        np.copyto(logs, -np.inf, where=logs < _EXP_ZERO)
    np.exp(logs, out=logs)
    return logs


def _window_err(n, xs, log_mass, term_bound, env):
    """How far sum_k p_k g_k over each point's window at log_mass T, or over
    any window of k that holds it, can lie from the same sum over its full
    window, given term_bound >= |g_k| and the envelope env = sum_k |p_k g_k|:
    term_bound 4 e^-T + gamma env.  The window's entries are those of the
    full row, and it leaves out mass at most 2 e^-T (Bernstein's
    inequality), doubled for the entries' rounding.
    Either sum, of at most n + 1 terms, rounds by at most (n + 1) 2^-53 env;
    gamma = 4(n + 1) 2^-53 covers both with room for the callers' products.
    0 where the window is all of [0, n], as the full one is then."""
    _, lo, hi = _band_windows(n, xs, log_mass)
    err = term_bound * (4.0 * math.exp(-log_mass)) + 4.0 * (n + 1) * 2.0 ** -53 * env
    return np.where((lo == 0) & (hi == n), 0.0, err)


def _exact_near_max(values, errs, full):
    """The sup_search(scan=) contract, row by row: values exact wherever a
    row's max can sit, and strictly below that row's max elsewhere.

    values and errs hold one row per quantity, one column per point; each
    full value lies within errs of its value, up to a few roundings of the
    caller's last products, and equals it where errs is 0.  The enclosure
    values -/+ (errs + _PAD (|values| + errs)), exact where errs is 0, covers
    those and its own.  A point is a candidate if in some row its upper end
    reaches the largest lower end; a NaN keeps its point.  full(idx) gives
    the rows at the candidates idx with a nonzero err; the other candidates
    keep values, and every other point its upper ends."""
    values, errs = np.atleast_2d(values, errs)
    pad = np.where(errs == 0.0, 0.0, errs + _PAD * (np.abs(values) + errs))
    out = values + pad
    low = np.max(values - pad, axis=1, initial=-np.inf, keepdims=True)
    need = np.any(~(out < low), axis=0)
    out[:, need] = values[:, need]
    rerun = np.flatnonzero(need & np.any(errs != 0.0, axis=0))
    if len(rerun):
        out[:, rerun] = full(rerun)
    return out


@dataclass(frozen=True)
class BinomialLaw:
    """Law of the number of successes in n trials with probability x."""
    n: int
    x: float

    def __post_init__(self):
        _check_n(self.n)
        if not 0.0 <= self.x <= 1.0:
            raise ValueError(f"success probability must lie in [0,1], got {self.x}")

    def pmf_vector(self):
        """All n+1 probabilities, the one-point block of _blocks scattered
        into a zero row; sums to 1 up to rounding."""
        (_, cols, rows), = _blocks(self.n, [self.x])
        out = np.zeros(self.n + 1)
        out[cols] = rows[0]
        return out


def _poisson_terms(lam):
    """P(N = 0), P(N = 1), ... without end for N Poisson(lam), lam a float or
    an array: p_0 = e^-lam, p_j = p_{j-1} (lam/j), each within about 2j
    roundings while e^-lam is a normal float; past lam = 745 all are 0."""
    p = np.exp(-lam)
    for j in itertools.count(1):
        yield p
        p = p * (lam / j)


def tv_binom_poisson(n, lam):
    """d_TV(S_n(lam/n), N_lam) = (1/2) sum_k |P(S = k) - P(N = k)|, for
    0 < lam <= min(n, 700): over the terms of _poisson_terms up to k = n, or
    until they underflow to 0, plus the Poisson mass beyond, 1 - P(N <= k)."""
    if not (0.0 < lam <= n and lam <= _POISSON_LAM_MAX):
        raise ValueError(f"need 0 < lam <= min(n, {_POISSON_LAM_MAX:g}), "
                         f"got lam={lam}, n={n}")
    p = BinomialLaw(n, lam / n).pmf_vector()
    q = np.array(list(itertools.takewhile(
        lambda t: t > 0.0, itertools.islice(_poisson_terms(lam), n + 1))))
    k = len(q)
    return 0.5 * float(np.sum(np.abs(p[:k] - q)) + np.sum(p[k:]) + (1.0 - np.sum(q)))


def tv_binom_poisson_bound(n, lam):
    """Upper bound for d_TV(S_n(lam/n), N_lam), valid for n >= 10:

        (lam/n) (sqrt(2)/4 + (4/11)(3 lam + 4) lam^2 / n).
    """
    if not isinstance(n, (int, np.integer)) or n < 10:
        raise ValueError(f"the bound requires an integer n >= 10, got n={n!r}")
    if not lam >= 0:  # NaN fails too
        raise ValueError("lam must be >= 0")
    return (lam / n) * (math.sqrt(2.0) / 4.0 + (4.0 / 11.0) * (3.0 * lam + 4.0) * lam ** 2 / n)


def stirling_mode_bound_check(n, m):
    """Check P(S_n(m/n) = m) <= (1/sqrt(2 pi)) sqrt(n/(m(n-m))) at an int m
    (a bool is returned) or at each entry of an int array m (a bool array),
    reading the pmf rows of all m from the blocks of _blocks."""
    ma = np.asarray(m)
    if not np.issubdtype(ma.dtype, np.integer):
        raise ValueError(f"m must be an integer or an integer array, got m={m!r}")
    ms = ma.ravel()
    if np.any((ms < 1) | (ms > n - 1)):
        raise ValueError(f"m must lie in [1, n-1], got m={m}, n={n}")
    xs = ms / n
    pmf = np.empty(len(ms))
    for sl, cols, rows in _blocks(n, xs):
        pmf[sl] = rows[np.arange(len(rows)), ms[sl] - cols.start]
    out = pmf <= np.sqrt(n / (ms * (n - ms))) / math.sqrt(2.0 * math.pi)
    return out.reshape(ma.shape) if ma.ndim else bool(out[0])


def inv_moment_shift_V(y):
    """E 1/(y+V) for V = U1+U2, via the second difference of y log y.

    Equals (y+2)log(y+2) - 2(y+1)log(y+1) + y log y with 0 log 0 = 0.  That
    form cancels terms of size y log y down to about 1/y, losing 1e-9 relative
    at y = 10^3 and 2e-3 at 10^6; from y = _INV_SERIES_FROM on, its Taylor
    series about c = y + 1, sum_j 2 c^(-2j-1)/((2j+1)(2j+2)), is taken
    instead.
    """
    y = np.asarray(y, dtype=float)
    if not np.all(y >= 0):  # NaN fails too
        raise ValueError("y must be >= 0")
    out = np.empty(y.shape)
    near = y < _INV_SERIES_FROM
    t = y[near]
    out[near] = xlogy(t + 2.0, t + 2.0) - 2.0 * xlogy(t + 1.0, t + 1.0) + xlogy(t, t)
    c = y[~near] + 1.0
    with np.errstate(over="ignore"):  # past 1e154, 1/(c c) = 1/inf = 0 is right
        out[~near] = polyval(1.0 / (c * c), _INV_SERIES) / c
    return out if out.ndim else float(out)

