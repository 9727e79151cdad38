"""Moduli of continuity: exact for piecewise-linear f, a 1-D search for f
with one-signed f''.

omega1 and omega2 are the usual first and second moduli and omega2_phi the
weighted one, with step s = h phi(x), phi(x) = sqrt(x(1-x)).  Each is the sup
of |sum_j c_j f(x + a_j s)| over the steps 0 <= s <= smax(x): min(delta, 1 - x),
min(delta, x, 1 - x) and min(delta phi(x), x, 1 - x); h is formed at the winner.

If f has `breakpoints`, it is taken to be linear between consecutive points
of {0, 1} U breakpoints (the knots).  The difference is then linear on each
cell of the lines x + a_j s = b (b a knot), which with s = 0 and s = delta,
or for omega2_phi the ellipse s^2 = delta^2 x(1-x), bound the admissible set.
So |diff| peaks at a crossing of two lines or of a line and the ellipse, or
where a cell's level lines touch the ellipse; all are evaluated through f in
one pass (bound "exact"), so the value is attained even for wrong breakpoints.

Otherwise f must declare `curvature`, +1 or -1: f'' has that one sign on
[0, 1].  As Delta^2_s f(x) = int_{-s}^{s} (s - |t|) f''(x + t) dt, |Delta^2|
cannot decrease in s, so the second moduli take their sup on the boundary
s = smax(x): one search.sup_search over x (bound "lower"), whose grid holds
the corners of the admissible region, where smax has its kinks.  omega1
takes only f with breakpoints.  Both paths raise ValueError, naming the
modulus and delta, when f has no contract or is not finite at a point of the
search or at a vertex candidate.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .search import sup_search

# The x grid of the search for f with one-signed f'': X_POINTS + 1 uniform
# points, to which the corners of the admissible region are added.
X_POINTS = 2048
# Interval width at which golden section stops.
_REFINE_TOL = 1e-13


@dataclass(frozen=True)
class ModulusResult:
    value: float
    arg_x: float
    arg_h: float
    grid_points: int
    bound: str  # "exact", or "lower" for the search on s = smax(x)


def _second(f):
    return lambda x, s: np.abs(f(np.clip(x + s, 0.0, 1.0)) - 2.0 * f(x)
                               + f(np.clip(x - s, 0.0, 1.0)))


def _finite(diff, x, s, what, where):
    with np.errstate(invalid="ignore"):  # inf - inf: raised below instead
        vals = diff(x, s)
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"{what}: f is not finite at every {where} point")
    return vals


def _vertices(f, diff, smax, delta, arms, coef, weighted, what):
    """Exact sup of diff(x, s) = |sum_j coef_j f(x + arms_j s)| over
    0 <= s <= smax(x), capped by the line s = delta or, weighted, the ellipse
    s^2 = delta^2 x(1-x), for f linear between its knots.  `what` names the
    modulus in the ValueError raised when a candidate's value is not finite."""
    knots = np.unique(np.clip(np.concatenate([[0.0, 1.0], f.breakpoints]), 0.0, 1.0))
    a, b = np.repeat(arms, len(knots)), np.tile(knots, len(arms))
    # lines p x + q s = r: x + a s = b for each arm and knot, s = 0, s = delta;
    # with p in {0, 1} and q in {-1, 0, 1} Cramer's rule adds like signs only
    caps = [0.0] if weighted else [0.0, delta]
    p, q, r = np.hstack([[np.ones_like(a), a, b], [[0.0] * len(caps), [1.0] * len(caps), caps]])
    i, j = np.triu_indices(len(p), 1)
    det = p[i] * q[j] - p[j] * q[i]  # 0 for parallel lines: dropped below
    with np.errstate(divide="ignore", invalid="ignore"):
        xs, ss = [(r[i] * q[j] - r[j] * q[i]) / det], [(p[i] * r[j] - p[j] * r[i]) / det]
        if weighted:
            # x + a s = b on the ellipse: (1 + d2 a^2) s^2 + d2 a (1 - 2b) s
            # - d2 b (1 - b) = 0, both roots in the cancellation-free form
            d2 = delta * delta
            qa, qb, qc = 1.0 + d2 * a * a, d2 * a * (1.0 - 2.0 * b), -d2 * b * (1.0 - b)
            t = -0.5 * (qb + np.copysign(np.sqrt(qb * qb - 4.0 * qa * qc), qb))
            roots = np.concatenate([t / qa, qc / t])
            cx = np.tile(b, 2) - np.tile(a, 2) * roots
            xs, ss = xs + [cx], ss + [roots]
            # each upper arc between crossings lies in one cell, with gradient
            # g = (sum c m, sum c a m) for arm slopes m; +-g is the outward
            # normal at x = 1/2 +- gx/(2N), s = +-d2 gs/(2N), N = |(gx, delta gs)|,
            # and the x nearer an edge is d2 gs^2 / (2N (N + |gx|))
            ex = np.sort(np.clip(np.concatenate([[0.0, 1.0], cx[roots >= 0.0]]), 0.0, 1.0))
            mid = 0.5 * (ex[1:] + ex[:-1])
            arm = mid + np.multiply.outer(arms, delta * np.sqrt(mid * (1.0 - mid)))
            seg = np.clip(np.searchsorted(knots, arm, side="right") - 1, 0, len(knots) - 2)
            m = (np.diff(f(knots)) / np.diff(knots))[seg]
            gx, gs = np.asarray(coef) @ m, np.asarray(coef) * arms @ m
            n = np.hypot(gx, delta * gs)
            near, far = d2 * gs * gs / (2.0 * n * (n + np.abs(gx))), (n + np.abs(gx)) / (2.0 * n)
            xs += [np.where(gx >= 0.0, far, near), np.where(gx >= 0.0, near, far)]
            ss += [d2 * gs / (2.0 * n), -d2 * gs / (2.0 * n)]
        x, s = np.concatenate(xs), np.concatenate(ss)
        ok = np.isfinite(x + s)
    x = np.clip(x[ok], 0.0, 1.0)
    s = np.clip(s[ok], 0.0, smax(x))
    vals = _finite(diff, x, s, what, "candidate")
    k = int(np.argmax(vals))
    return ModulusResult(float(vals[k]), float(x[k]), float(s[k]), len(x), "exact")


def _boundary(f, diff, smax, corners, what):
    """Sup of diff(x, smax(x)) over x for f with f'' of one sign: sup_search
    on X_POINTS + 1 uniform points and the corners, which are also its breaks.
    `what` names the modulus in the ValueError raised when f has no contract,
    declares a curvature other than +1 or -1, or is not finite at a point."""
    c = getattr(f, "curvature", None)
    if c is None:
        raise ValueError(f"{what}: f declares neither breakpoints (piecewise linear) "
                         "nor curvature (+1 or -1: f'' of one sign)")
    if c not in (1, -1):
        raise ValueError(f"{what}: curvature must be +1 or -1, got {c!r}")
    g = lambda x: _finite(diff, x, smax(x), what, "search")
    xs = np.unique(np.concatenate([np.linspace(0.0, 1.0, X_POINTS + 1), corners]))
    x, value, _ = sup_search(g, xs, _REFINE_TOL, breaks=corners)
    return ModulusResult(value, x, float(smax(x)), len(xs), "lower")


def omega1(f, delta):
    """First modulus sup{|f(x+h)-f(x)| : 0 <= h <= delta, x+h <= 1}."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0,1]")
    if delta == 0.0:
        return ModulusResult(0.0, 0.0, 0.0, 0, "exact")
    smax = lambda x: np.minimum(delta, 1.0 - x)
    diff = lambda x, s: np.abs(f(np.clip(x + s, 0.0, 1.0)) - f(x))
    what = f"omega1 at delta={delta}"
    if getattr(f, "breakpoints", None) is None:
        raise ValueError(f"{what}: f declares no breakpoints (piecewise linear)")
    return _vertices(f, diff, smax, delta, (1.0, 0.0), (1.0, -1.0), False, what)


def omega2(f, delta):
    """Second modulus sup{|f(x+h)-2f(x)+f(x-h)| : h <= delta, x+/-h in [0,1]}."""
    if not 0.0 <= delta <= 0.5:
        raise ValueError("delta must lie in [0,1/2]")
    if delta == 0.0:
        return ModulusResult(0.0, 0.5, 0.0, 0, "exact")
    smax = lambda x: np.minimum(delta, np.minimum(x, 1.0 - x))
    diff = _second(f)
    what = f"omega2 at delta={delta}"
    if getattr(f, "breakpoints", None) is not None:
        return _vertices(f, diff, smax, delta, (1.0, 0.0, -1.0), (1.0, -2.0, 1.0), False, what)
    return _boundary(f, diff, smax, [delta, 1.0 - delta], what)


def omega2_phi(f, delta):
    """Weighted second modulus with step s = h phi(x), arms on 0 or 1 admissible.
    The reported h is s / phi(x) <= delta, rounded up until h phi(x) reaches s,
    so such an arm stays there; the value is the difference at that step."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0,1]")
    if delta == 0.0:
        return ModulusResult(0.0, 0.5, 0.0, 0, "exact")
    smax = lambda x: np.minimum(delta * np.sqrt(x * (1.0 - x)), np.minimum(x, 1.0 - x))
    diff = _second(f)
    what = f"omega2_phi at delta={delta}"
    if getattr(f, "breakpoints", None) is not None:
        res = _vertices(f, diff, smax, delta, (1.0, 0.0, -1.0), (1.0, -2.0, 1.0), True, what)
    else:
        # the corners c and r, where delta phi meets x and 1 - x, each stepped
        # outward until it reaches them, so the cap puts an arm on 0 or 1
        c = delta ** 2 / (1.0 + delta ** 2)
        while delta * math.sqrt(c * (1.0 - c)) < c:
            c = math.nextafter(c, 0.0)
        r = 1.0 / (1.0 + delta ** 2)
        while delta * math.sqrt(r * (1.0 - r)) < 1.0 - r:
            r = math.nextafter(r, 1.0)
        res = _boundary(f, diff, smax, [c, r], what)
    x, s = res.arg_x, res.arg_h
    p = math.sqrt(x * (1.0 - x))
    h = min(s / p, delta) if p > 0.0 else 0.0
    while h < delta and h * p < s:
        h = math.nextafter(h, delta)
    value = _finite(diff, np.array([x]), np.array([h * p]), what, "reported")
    return replace(res, value=float(value[0]), arg_h=h)
