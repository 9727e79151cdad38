"""Moduli of continuity by grid search with local refinement.

omega1 and omega2 are the usual first and second moduli.  omega2_phi is the
weighted second modulus

    sup{ |f(x+h phi(x)) - 2 f(x) + f(x - h phi(x))| : 0 <= h <= delta,
         x +/- h phi(x) in [0,1] },

with phi(x) = sqrt(x(1-x)).  All three are computed as a coarse scan over an
(x, h) grid followed by golden-section refinement around the best cells, so
the returned value is always a lower bound of the true supremum.

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
    seeds = []
    for idx in order:
        i, j = np.unravel_index(int(idx), vals.shape)
        seeds.append((float(xs[i, 0]), float(hm[i, 0] * t[0, j])))
    i, j = np.unravel_index(int(order[0]), vals.shape)
    return float(vals[i, j]), float(xs[i, 0]), float(hm[i, 0] * t[0, j]), seeds, vals.size


def _refine(diff, hmax_fn, x, h, dx):
    """Two rounds of coordinate golden-section ascent around (x, h); the x
    move keeps h at a fixed fraction of hmax so admissibility is preserved."""
    best = (float(diff(x, h)), x, h)
    for _ in range(2):
        hm = float(hmax_fn(x))
        if hm > 0.0:
            dh = max(hm / 64.0, 4.0 * _REFINE_TOL)
            h, v = golden_max(lambda hh: float(diff(x, hh)),
                              max(0.0, h - dh), min(hm, h + dh), _REFINE_TOL)
            if v > best[0]:
                best = (v, x, h)
        frac = h / hm if hm > 0.0 else 0.0

        def along_x(xx):
            return float(diff(xx, frac * float(hmax_fn(xx))))

        x, v = golden_max(along_x, max(0.0, x - dx), min(1.0, x + dx), _REFINE_TOL)
        h = frac * float(hmax_fn(x))
        if v > best[0]:
            best = (v, x, h)
    return best


def _search(diff, hmax_fn, xs, pairs, cfg):
    value, ax, ah, seeds, npts = _scan(diff, hmax_fn, xs, cfg.h_points)
    if len(pairs):
        px, ph = pairs[:, 0], pairs[:, 1]
        pv = diff(px, ph)
        k = int(np.argmax(pv))
        if pv[k] > value:
            value, ax, ah = float(pv[k]), float(px[k]), float(ph[k])
        order = np.argsort(pv)[::-1][:_REFINE_TOP]
        seeds.extend((float(px[i]), float(ph[i])) for i in order)
        npts += len(pairs)
    dx = 1.0 / cfg.x_points
    for sx, sh in seeds:
        v, rx, rh = _refine(diff, hmax_fn, sx, sh, dx)
        if v > value:
            value, ax, ah = v, rx, rh
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
