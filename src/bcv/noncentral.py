"""Noncentral-region machinery: the exponential-fixpoint iterates and the
J constants controlling the subordinated second-derivative estimate.

The iterates alpha_0(theta) = theta, alpha_{k+1} = 1 - e^{-alpha_k} decrease
slowly to zero; they drive both the limit constants

    J(k, a) = a (2 L_k(a) log(27/16)
                 + (log 4 - 2 log(27/16)) alpha_{k-1}(1)^2 e^{-a alpha_{k-1}(1)}),
    L_k(a)  = integral_0^1 (alpha_{k-1}(theta)/theta)^2 e^{-a alpha_{k-1}(theta)} dtheta,

and the finite-n bound on J_n(m, a) = sup over the edge region of
E phi^2(x)/phi^2(W_n^{(m)}(x)), where W_n^{(m)} is the m-fold composition of
theta -> (S_{n-2}(theta) + V)/n.  A seeded Monte Carlo simulator of that
composition sanity-checks the bound.
"""

import functools
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dist import LOG4, LOG2716
from .quadrature import gauss_legendre


# Depth at which first_valid_i gives up.
_MAX_DEPTH = 10_000


def _alpha_iterates(theta):
    """alpha_0(theta), alpha_1(theta), ... without end; theta a float or an
    array."""
    v = theta
    while True:
        yield v
        v = -np.expm1(-v)


def first_valid_i(a):
    """Smallest i >= 1 with a < 1/alpha_{i-1}(1); the iterates vanish slowly,
    so this grows roughly like 2a."""
    if not (a > 0.0 and math.isfinite(a)):
        raise ValueError("a must be positive and finite")
    for i, v in enumerate(itertools.islice(_alpha_iterates(1.0), _MAX_DEPTH), 1):
        if a * v < 1.0:
            return i
    raise ValueError(f"a = {a:g} needs an index above depth {_MAX_DEPTH}")


def b_n(a, n):
    """Edge-region scale 2a/(1 + sqrt(1 - 4a/n)); decreases to a as n grows."""
    if n <= 4.0 * a:
        raise ValueError(f"need n > 4a = {4.0 * a:g}")
    return 2.0 * a / (1.0 + math.sqrt(1.0 - 4.0 * a / n))


def epsilon_n(n):
    """Discretization slack (4/n) log(27/16) + e^{-n/2}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 4.0 * LOG2716 / n + math.exp(-n / 2.0)


def _L_and_alpha1(k, a):
    """L_k(a) and alpha_{k-1}(1) for an integer k >= 1 or an array of them.

    One pass of the alpha recursion over the quadrature nodes and theta = 1
    serves every k up to max(k), so a table of J(k, a) costs O(max k)."""
    ks = np.asarray(k)
    if ks.dtype.kind not in "iu" or np.any(ks < 1):
        raise ValueError("k must be an integer >= 1")
    theta, w = gauss_legendre()
    L = np.empty(int(ks.max()))
    a1 = np.empty_like(L)
    # v is alpha_j on the nodes and at theta = 1
    for j, v in zip(range(len(L)), _alpha_iterates(np.append(theta, 1.0))):
        r = v[:-1] / theta
        L[j] = w @ (r * r * np.exp(-a * v[:-1]))
        a1[j] = v[-1]
    return L[ks - 1], a1[ks - 1]


def L_k(k, a):
    """L_k(a) = integral_0^1 (alpha_{k-1}(theta)/theta)^2 e^{-a alpha_{k-1}(theta)} dtheta,
    for an integer k >= 1 or an array of them.

    The integrand extends continuously by 1 at theta = 0 (alpha_{k-1}(theta)
    ~ theta there) and is analytic, so the fixed rule of bcv.quadrature
    integrates it to rounding; values lie in (0, 1].
    """
    if not a >= 0.0:
        raise ValueError("a must be >= 0")
    L, _ = _L_and_alpha1(k, a)
    return L if L.ndim else float(L)


def J_limit(k, a):
    """Limit constant J(k, a) for an integer k >= 1 or an array of them; the
    second term decays exponentially in a."""
    if not a > 0.0:
        raise ValueError("a must be positive")
    L, a1 = _L_and_alpha1(k, a)
    out = a * (2.0 * L * LOG2716 + (LOG4 - 2.0 * LOG2716) * a1 * a1 * np.exp(-a * a1))
    return out if out.ndim else float(out)


def finite_n_J_bound(n, m, a):
    """Finite-n upper bound for J_n(m, a):

        b_n e^{2 b_n m / n} (2 log(27/16) L_m(b_n)
            + (log 4 - 2 log(27/16)) alpha_{m-1}(1)^2 e^{-b_n alpha_{m-1}(1)}
            + epsilon_n),

    valid under the hypothesis b_n <= 1/alpha_{m-1}(1); converges to
    J_limit(m, a) as n grows.
    """
    b = b_n(a, n)
    L, a1 = _L_and_alpha1(m, b)
    if b > 1.0 / a1:
        raise ValueError(
            f"hypothesis fails: b_n = {b:.6g} > 1/alpha_{{m-1}}(1) = {1.0 / a1:.6g}")
    return float(b * math.exp(2.0 * b * m / n) * (
        2.0 * LOG2716 * L
        + (LOG4 - 2.0 * LOG2716) * a1 * a1 * math.exp(-b * a1)
        + epsilon_n(n)))


def edge_region_max(a, n):
    """Right endpoint of the edge region {x <= 1/2 : n phi^2(x) < a}."""
    if n <= 4.0 * a:
        raise ValueError(f"need n > 4a = {4.0 * a:g}")
    return 0.5 * (1.0 - math.sqrt(1.0 - 4.0 * a / n))


@dataclass(frozen=True)
class SimulatedJ:
    value: float
    std_error: float
    arg_x: float
    grid: tuple
    estimates: tuple
    std_errors: tuple


def _cpu_count():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _simulate_point(n, m, trials, x, g):
    """Mean of phi^2(x)/phi^2(W) over trials paths of W started at x, all
    drawn from the stream g, and its standard error."""
    theta = np.full(trials, x)
    for _ in range(m):
        s = g.binomial(n - 2, theta)
        v = g.random(trials) + g.random(trials)
        theta = (s + v) / n
    if not (np.all(theta > 0.0) and np.all(theta < 1.0)):
        raise AssertionError("composition left (0,1); V in (0,2) forbids this")
    ratio = (x * (1.0 - x)) / (theta * (1.0 - theta))
    return np.mean(ratio), np.std(ratio, ddof=1) / math.sqrt(trials)


def simulate_J(n, m, a, trials, rng, grid_points=64):
    """Monte Carlo estimate of J_n(m, a).

    For each x on a grid over the edge region, draws trials paths of the
    m-fold composition W of theta -> (S_{n-2}(theta) + V)/n started at x and
    averages phi^2(x)/phi^2(W).  Reports the max over the grid with its
    standard error; per-point estimates ride along.

    Grid points run concurrently, one thread per available CPU.  Each point
    draws from its own rng stream spawned from the caller's generator, so
    the result is bit-identical for any CPU count and evaluation order.  The
    speedup relies on numpy releasing the GIL inside Generator.binomial and
    Generator.random, where nearly all the time goes.
    """
    for name, v in (("n", n), ("m", m), ("trials", trials), ("grid_points", grid_points)):
        if not isinstance(v, (int, np.integer)):
            raise ValueError(f"{name} must be an integer")
    if n < 2:
        raise ValueError("n must be >= 2")
    if trials < 10_000:
        raise ValueError("need trials >= 1e4 for a usable standard error")
    if m < 1:
        raise ValueError("m must be >= 1")
    if grid_points < 1:
        raise ValueError("grid_points must be >= 1")
    if not (a > 0.0 and math.isfinite(a)):
        raise ValueError("a must be positive and finite")
    xa = edge_region_max(a, n)
    xs = np.linspace(0.0, xa, grid_points + 2)[1:-1]
    streams = rng.spawn(len(xs))
    point = functools.partial(_simulate_point, n, m, trials)
    with ThreadPoolExecutor(min(len(xs), _cpu_count())) as pool:
        est, se = map(np.array, zip(*pool.map(point, xs, streams)))
    k = int(np.argmax(est))
    return SimulatedJ(float(est[k]), float(se[k]), float(xs[k]),
                      tuple(xs), tuple(est), tuple(se))
