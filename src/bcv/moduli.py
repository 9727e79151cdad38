"""Moduli of continuity: exact for piecewise-linear f, a 1-D search for f
with one-signed f''.

omega1 and omega2 are the usual first and second moduli and omega2_phi the
weighted second modulus, whose step is h phi(x), phi(x) = sqrt(x(1-x)).  Each
is the sup of |sum_j c_j f(x + a_j s)| over the admissible (x, s), with s = h,
or s = h phi(x) for omega2_phi.

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
h = hmax(x): one search.sup_search over x (bound "lower"), whose grid holds
the corners of the admissible region, where hmax has its kinks.  omega1
takes only f with breakpoints.  Both paths raise ValueError, naming the
modulus and delta, when f has no contract or is not finite at a point of the
search or at a vertex candidate.
"""

from dataclasses import dataclass

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
    bound: str  # "exact", or "lower" for the search on h = hmax(x)


def _second(f, x, s):
    return np.abs(f(np.clip(x + s, 0.0, 1.0)) - 2.0 * f(x) + f(np.clip(x - s, 0.0, 1.0)))


def _vertices(f, diff, hmax_fn, delta, arms, coef, weighted, what):
    """Exact sup of diff(x, h) = |sum_j coef_j f(x + arms_j s)| for f linear
    between its knots.  The step is s = h, capped by the line s = delta, or,
    weighted, s = h phi(x), capped by the ellipse s^2 = delta^2 x(1-x).
    `what` names the modulus in the ValueError raised when a candidate's
    value is not finite."""
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
        x, s = np.clip(x[ok], 0.0, 1.0), s[ok]
        if weighted:
            s = np.where(x * (1.0 - x) > 0.0, s / np.sqrt(x * (1.0 - x)), 0.0)
    h = np.clip(s, 0.0, hmax_fn(x))
    with np.errstate(invalid="ignore"):  # inf - inf: raised below instead
        vals = diff(x, h)
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"{what}: f is not finite at every candidate point")
    k = int(np.argmax(vals))
    return ModulusResult(float(vals[k]), float(x[k]), float(h[k]), len(x), "exact")


def _boundary(f, diff, hmax_fn, corners, what):
    """Sup of diff(x, hmax(x)) over x for f with f'' of one sign: sup_search
    on X_POINTS + 1 uniform points and the corners of the admissible region,
    which are also its breaks.  `what` names the modulus in the ValueError
    raised when f has no contract, declares a curvature other than +1 or -1,
    or is not finite at a point of the search."""
    c = getattr(f, "curvature", None)
    if c is None:
        raise ValueError(f"{what}: f declares neither breakpoints (piecewise linear) "
                         "nor curvature (+1 or -1: f'' of one sign)")
    if c not in (1, -1):
        raise ValueError(f"{what}: curvature must be +1 or -1, got {c!r}")

    def g(x):
        with np.errstate(invalid="ignore"):  # inf - inf: raised below instead
            vals = diff(x, hmax_fn(x))
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"{what}: f is not finite at every search point")
        return vals

    corners = np.unique(corners)
    xs = np.unique(np.concatenate([np.linspace(0.0, 1.0, X_POINTS + 1), corners]))
    x, value, _ = sup_search(g, xs, _REFINE_TOL, breaks=corners)
    return ModulusResult(value, x, float(hmax_fn(x)), len(xs), "lower")


def omega1(f, delta):
    """First modulus sup{|f(x+h)-f(x)| : 0 <= h <= delta, x+h <= 1}."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0,1]")
    if delta == 0.0:
        return ModulusResult(0.0, 0.0, 0.0, 0, "exact")
    hmax = lambda x: np.minimum(delta, 1.0 - x)
    diff = lambda x, h: np.abs(f(np.clip(x + h, 0.0, 1.0)) - f(x))
    what = f"omega1 at delta={delta}"
    if getattr(f, "breakpoints", None) is None:
        raise ValueError(f"{what}: f declares no breakpoints (piecewise linear)")
    return _vertices(f, diff, hmax, delta, (1.0, 0.0), (1.0, -1.0), False, what)


def omega2(f, delta):
    """Second modulus sup{|f(x+h)-2f(x)+f(x-h)| : h <= delta, x+/-h in [0,1]}."""
    if not 0.0 <= delta <= 0.5:
        raise ValueError("delta must lie in [0,1/2]")
    if delta == 0.0:
        return ModulusResult(0.0, 0.5, 0.0, 0, "exact")
    hmax = lambda x: np.minimum(delta, np.minimum(x, 1.0 - x))
    diff = lambda x, h: _second(f, x, h)
    what = f"omega2 at delta={delta}"
    if getattr(f, "breakpoints", None) is not None:
        return _vertices(f, diff, hmax, delta, (1.0, 0.0, -1.0), (1.0, -2.0, 1.0), False, what)
    return _boundary(f, diff, hmax, [delta, 1.0 - delta], what)


def _hmax_phi(x, delta):
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        left = np.sqrt(x / (1.0 - x))    # h with x - h phi(x) = 0
        right = np.sqrt((1.0 - x) / x)   # h with x + h phi(x) = 1
    out = np.minimum(delta, np.minimum(np.where(x < 1.0, left, np.inf),
                                       np.where(x > 0.0, right, np.inf)))
    return np.where((x <= 0.0) | (x >= 1.0), 0.0, out)


def omega2_phi(f, delta):
    """Weighted second modulus with step h*phi(x); boundary-touching steps
    (x - h phi(x) = 0 exactly, and symmetrically) are admissible."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0,1]")
    if delta == 0.0:
        return ModulusResult(0.0, 0.5, 0.0, 0, "exact")
    hmax = lambda x: _hmax_phi(x, delta)
    diff = lambda x, h: _second(f, x, h * np.sqrt(x * (1.0 - x)))
    what = f"omega2_phi at delta={delta}"
    if getattr(f, "breakpoints", None) is not None:
        return _vertices(f, diff, hmax, delta, (1.0, 0.0, -1.0), (1.0, -2.0, 1.0), True, what)
    # the corners of the admissible region, where the boundary-touching cap
    # sqrt(x/(1-x)) (or its mirror) crosses delta
    corner = delta ** 2 / (1.0 + delta ** 2)
    return _boundary(f, diff, hmax, [corner, 1.0 - corner], what)
