"""Moduli of continuity by grid search with local refinement.

omega1 and omega2 are the usual first and second moduli.  omega2_phi is the
weighted second modulus

    sup{ |f(x+h phi(x)) - 2 f(x) + f(x - h phi(x))| : 0 <= h <= delta,
         x +/- h phi(x) in [0,1] },

with phi(x) = sqrt(x(1-x)).  All three are computed as a coarse scan over an
(x, h) grid followed by golden-section refinement around the best cells, so
the returned value is always a lower bound of the true supremum.  All seeds
are refined in one lockstep golden-section pass, one lane per seed, on the
same primitive (search.golden_max) that search.sup_search uses: each step
evaluates the difference once, on the points of every lane still searching.

For piecewise-linear functions the grids are augmented with breakpoint-exact
candidates: the maximizers sit where a difference arm crosses a kink, and
uniform grids alone miss them.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .config import GridConfig
from .search import golden_max

# Best grid cells (and best kink pairs) refined by golden section.
_REFINE_TOP = 8
# Interval width at which golden section stops.
_REFINE_TOL = 1e-13


@dataclass(frozen=True)
class ModulusResult:
    value: float
    arg_x: float
    arg_h: float
    grid_points: int
    refined: bool


def _breakpoints(f):
    bp = getattr(f, "breakpoints", None)
    return None if bp is None else np.asarray(bp, dtype=float)


def _scan(diff, hmax_fn, xs, h_points):
    """Max of diff over the grid {(x, t*hmax(x)) : t in [0,1]}; returns the
    best value, its (x, h), the _REFINE_TOP best cells in descending order as
    refinement seeds, and the grid size scanned."""
    xs = np.asarray(xs, dtype=float).reshape(-1, 1)
    hm = hmax_fn(xs)
    t = np.linspace(0.0, 1.0, h_points + 1).reshape(1, -1)
    vals = diff(xs, hm * t)
    flat = vals.ravel()
    # select the top cells without sorting the whole grid, then order them
    top = np.argpartition(flat, -_REFINE_TOP)[-_REFINE_TOP:]
    order = top[np.argsort(flat[top])[::-1]]
    i, j = np.unravel_index(order, vals.shape)
    seeds = [(float(a), float(b)) for a, b in zip(xs[i, 0], hm[i, 0] * t[0, j])]
    return float(vals[i[0], j[0]]), *seeds[0], seeds, vals.size


def _refine(diff, hmax_fn, x, h, dx):
    """Two rounds of coordinate golden-section ascent from all seeds (x, h)
    at once, one lane each; the x move keeps h at a fixed fraction of hmax so
    admissibility is preserved.  Returns the rows (value, x, h) of each lane's
    best point, updated only on a strict gain."""
    best = np.array([diff(x, h), x, h])

    def keep(lanes, *cand):
        up = cand[0] > best[0, lanes]
        best[:, lanes[up]] = np.array(cand)[:, up]

    for _ in range(2):
        hm = hmax_fn(x)
        on = np.flatnonzero(hm > 0.0)  # lanes with hmax = 0 skip the h move
        frac = np.zeros_like(h)
        if on.size:
            dh = np.maximum(hm[on] / 64.0, 4.0 * _REFINE_TOL)
            hh, v = golden_max(lambda t, xx: diff(xx, t), np.maximum(0.0, h[on] - dh),
                               np.minimum(hm[on], h[on] + dh), _REFINE_TOL, args=(x[on],))
            keep(on, v, x[on], hh)
            frac[on] = hh / hm[on]
        x, v = golden_max(lambda xx, fr: diff(xx, fr * hmax_fn(xx)), np.maximum(0.0, x - dx),
                          np.minimum(1.0, x + dx), _REFINE_TOL, args=(frac,))
        h = frac * hmax_fn(x)
        keep(np.arange(len(x)), v, x, h)
    return best


def _search(diff, hmax_fn, xs, pairs, cfg):
    value, ax, ah, seeds, npts = _scan(diff, hmax_fn, xs, cfg.h_points)
    if len(pairs):
        pv = diff(pairs[:, 0], pairs[:, 1])
        k = int(np.argmax(pv))
        if pv[k] > value:
            value, ax, ah = float(pv[k]), float(pairs[k, 0]), float(pairs[k, 1])
        seeds = np.vstack([seeds, pairs[np.argsort(pv)[::-1][:_REFINE_TOP]]])
        npts += len(pairs)
    sx, sh = np.transpose(seeds)
    for v, rx, rh in zip(*_refine(diff, hmax_fn, sx, sh, 1.0 / cfg.x_points)):
        if v > value:
            value, ax, ah = float(v), float(rx), float(rh)
    return ModulusResult(value, ax, ah, npts, True)


def _kink_pairs(xs, bp, hmax_fn, scale_fn):
    """(x, h) candidates where x + h*scale(x) or x - h*scale(x) hits a kink."""
    out = []
    xs = np.asarray(xs, dtype=float)
    s = scale_fn(xs)
    hm = hmax_fn(xs)
    ok = s > 0.0
    for b in bp:
        for signed in ((xs - b) / np.where(ok, s, 1.0), (b - xs) / np.where(ok, s, 1.0)):
            m = ok & (signed > 0.0) & (signed <= hm)
            out.append(np.column_stack([xs[m], signed[m]]))
    return np.concatenate(out) if out else np.empty((0, 2))


def _boundary_roots(bp, delta):
    """x solving x - delta*phi(x) = b and x + delta*phi(x) = b for kinks b."""
    roots = []
    for b in bp:
        g = lambda x: x - delta * np.sqrt(x * (1.0 - x)) - b
        if b < 1.0 and g(b) * g(1.0) <= 0.0:
            roots.append(brentq(g, b, 1.0, xtol=1e-14))
        g = lambda x: x + delta * np.sqrt(x * (1.0 - x)) - b
        if b > 0.0 and g(0.0) * g(b) <= 0.0:
            roots.append(brentq(g, 0.0, b, xtol=1e-14))
    return roots


def omega1(f, delta, cfg=GridConfig()):
    """First modulus sup{|f(x+h)-f(x)| : 0 <= h <= delta, x+h <= 1}."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0,1]")
    if delta == 0.0:
        return ModulusResult(0.0, 0.0, 0.0, 0, False)
    xs = np.linspace(0.0, 1.0, cfg.x_points + 1)
    bp = _breakpoints(f)
    pairs = np.empty((0, 2))
    if bp is not None:
        xs = np.unique(np.concatenate([xs, bp]))
        pairs = _kink_pairs(xs, bp, lambda x: np.minimum(delta, 1.0 - x),
                            lambda x: np.ones_like(x))

    def diff(x, h):
        return np.abs(f(np.clip(x + h, 0.0, 1.0)) - f(x))

    return _search(diff, lambda x: np.minimum(delta, 1.0 - x), xs, pairs, cfg)


def omega2(f, delta, cfg=GridConfig()):
    """Second modulus sup{|f(x+h)-2f(x)+f(x-h)| : h <= delta, x+/-h in [0,1]}."""
    if not 0.0 <= delta <= 0.5:
        raise ValueError("delta must lie in [0,1/2]")
    if delta == 0.0:
        return ModulusResult(0.0, 0.5, 0.0, 0, False)
    xs = np.linspace(0.0, 1.0, cfg.x_points + 1)
    bp = _breakpoints(f)
    pairs = np.empty((0, 2))
    hmax = lambda x: np.minimum(delta, np.minimum(x, 1.0 - x))
    if bp is not None:
        mids = (bp.reshape(-1, 1) + bp.reshape(1, -1)).ravel() / 2.0
        xs = np.unique(np.concatenate([xs, bp, mids]))
        pairs = _kink_pairs(xs, bp, hmax, lambda x: np.ones_like(x))

    def diff(x, h):
        return np.abs(f(np.clip(x + h, 0.0, 1.0)) - 2.0 * f(x) + f(np.clip(x - h, 0.0, 1.0)))

    return _search(diff, hmax, xs, pairs, cfg)


def _hmax_phi(x, delta):
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        left = np.sqrt(x / (1.0 - x))    # h with x - h phi(x) = 0
        right = np.sqrt((1.0 - x) / x)   # h with x + h phi(x) = 1
    out = np.minimum(delta, np.minimum(np.where(x < 1.0, left, np.inf),
                                       np.where(x > 0.0, right, np.inf)))
    return np.where((x <= 0.0) | (x >= 1.0), 0.0, out)


def omega2_phi(f, delta, cfg=GridConfig()):
    """Weighted second modulus with step h*phi(x); boundary-touching steps
    (x - h phi(x) = 0 exactly, and symmetrically) are admissible."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0,1]")
    if delta == 0.0:
        return ModulusResult(0.0, 0.5, 0.0, 0, False)
    xs = np.linspace(0.0, 1.0, cfg.x_points + 1)
    # corners of the admissible region, where the boundary-touching cap
    # sqrt(x/(1-x)) (or its mirror) crosses delta: suprema attained on the
    # boundary sit exactly there and uniform grids only approach them
    corner = delta ** 2 / (1.0 + delta ** 2)
    xs = np.unique(np.concatenate([xs, [corner, 1.0 - corner]]))
    bp = _breakpoints(f)
    pairs = np.empty((0, 2))
    phi_fn = lambda x: np.sqrt(np.asarray(x, dtype=float) * (1.0 - np.asarray(x, dtype=float)))
    hmax = lambda x: _hmax_phi(x, delta)
    if bp is not None:
        xs = np.unique(np.concatenate([xs, bp, _boundary_roots(bp, delta)]))
        pairs = _kink_pairs(xs, bp, hmax, phi_fn)

    def diff(x, h):
        s = h * phi_fn(x)
        return np.abs(f(np.clip(x + s, 0.0, 1.0)) - 2.0 * f(x) + f(np.clip(x - s, 0.0, 1.0)))

    return _search(diff, hmax, xs, pairs, cfg)
