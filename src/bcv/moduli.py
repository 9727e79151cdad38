"""Moduli of continuity: exact for piecewise-linear f, by grid search otherwise.

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

Otherwise an (x, h) grid scan is refined around its best cells in one lockstep
golden-section pass on search.golden_max (bound "lower").  The scan is
evaluated in row blocks of at most _SCAN_BLOCK_CELLS cells into one table of
the grid's values, so no other array is full size.  The seeds are the
_REFINE_TOP best cells by value, descending, ties going to the lower
row-major flat index (smaller x, then smaller h).  Picking them costs a row
maximum per block, taken while the block is in cache, and a comparison and
stable sort in only the rows whose maximum reaches the _REFINE_TOP-th
largest row maximum.  Both paths raise ValueError, naming the
modulus and delta, when f is not finite at a grid cell, at the point a
refinement lane settles on after each golden-section search, or at a vertex
candidate; the steps inside a search are not checked.
"""

from dataclasses import dataclass

import numpy as np

from .search import golden_max

# The (x, h) scan: X_POINTS + 1 values of x, H_POINTS + 1 steps h each.
X_POINTS = 2048
H_POINTS = 512
# Best grid cells refined by golden section.
_REFINE_TOP = 8
# Interval width at which golden section stops.
_REFINE_TOL = 1e-13
# Most grid cells per call of diff in the scan (63 rows at H_POINTS = 512).
_SCAN_BLOCK_CELLS = 1 << 15


@dataclass(frozen=True)
class ModulusResult:
    value: float
    arg_x: float
    arg_h: float
    grid_points: int
    bound: str  # "exact", or "lower" for the grid search


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


def _scan(diff, hmax_fn, xs, h_points, what):
    """Max of diff over the grid {(x, t*hmax(x)) : t in [0,1]}; returns the
    best value, its (x, h), the _REFINE_TOP best cells as refinement seeds
    and the grid size scanned.  diff is called on blocks of whole x-rows of
    at most _SCAN_BLOCK_CELLS cells (one row if a row is larger), so it must
    be elementwise.  The seeds run by value, descending, with
    ties to the lower row-major flat index (smaller x, then smaller h); they
    cost a row max per block while it is in cache, plus a comparison and a
    stable sort in only the rows whose max reaches the _REFINE_TOP-th
    largest row max.  `what` names the modulus in the
    ValueError raised when a grid value is not finite."""
    xs = np.asarray(xs, dtype=float).reshape(-1, 1)
    hm = hmax_fn(xs)
    t = np.linspace(0.0, 1.0, h_points + 1).reshape(1, -1)
    vals = np.empty((len(xs), t.shape[1]))
    rowmax = np.empty(len(xs))
    rows = max(1, _SCAN_BLOCK_CELLS // t.shape[1])
    with np.errstate(invalid="ignore"):  # inf - inf: raised below instead
        for lo in range(0, len(xs), rows):
            block = vals[lo:lo + rows]
            block[:] = diff(xs[lo:lo + rows], hm[lo:lo + rows] * t)
            np.max(block, axis=1, out=rowmax[lo:lo + rows])
    if not np.all(np.isfinite(rowmax)):
        raise ValueError(f"{what}: f is not finite at every scan point")
    flat = vals.ravel()
    # the _REFINE_TOP-th largest row max is reached by that many distinct
    # cells, so no seed lies below it, nor in a row whose max is below it;
    # with fewer rows every cell may be one
    if len(rowmax) < _REFINE_TOP:
        cand = np.arange(flat.size)
    else:
        thr = np.partition(rowmax, -_REFINE_TOP)[-_REFINE_TOP]
        top = np.flatnonzero(rowmax >= thr)
        r, c = np.nonzero(vals[top] >= thr)
        cand = top[r] * vals.shape[1] + c  # ascending, as flatnonzero over flat
    order = cand[np.argsort(-flat[cand], kind="stable")[:_REFINE_TOP]]
    i, j = np.unravel_index(order, vals.shape)
    seeds = [(float(a), float(b)) for a, b in zip(xs[i, 0], hm[i, 0] * t[0, j])]
    return float(vals[i[0], j[0]]), *seeds[0], seeds, vals.size


def _refine(diff, hmax_fn, x, h, dx, what):
    """Two rounds of coordinate golden-section ascent from all seeds (x, h)
    at once, one lane each; the x move keeps h at a fixed fraction of hmax so
    admissibility is preserved.  Returns the rows (value, x, h) of each lane's
    best point, updated only on a strict gain.  `what` names the modulus in
    the ValueError raised when a point a lane settles on has no finite value."""
    best = np.array([diff(x, h), x, h])

    def keep(lanes, *cand):
        if not np.all(np.isfinite(cand[0])):
            raise ValueError(f"{what}: f is not finite at every refined point")
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


def _search(diff, hmax_fn, xs, what):
    value, ax, ah, seeds, npts = _scan(diff, hmax_fn, xs, H_POINTS, what)
    sx, sh = np.transpose(seeds)
    with np.errstate(invalid="ignore"):  # inf - inf: raised by _refine instead
        best = _refine(diff, hmax_fn, sx, sh, 1.0 / X_POINTS, what)
    for v, rx, rh in zip(*best):
        if v > value:
            value, ax, ah = float(v), float(rx), float(rh)
    return ModulusResult(value, ax, ah, npts, "lower")


def omega1(f, delta):
    """First modulus sup{|f(x+h)-f(x)| : 0 <= h <= delta, x+h <= 1}."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0,1]")
    if delta == 0.0:
        return ModulusResult(0.0, 0.0, 0.0, 0, "exact")
    hmax = lambda x: np.minimum(delta, 1.0 - x)
    diff = lambda x, h: np.abs(f(np.clip(x + h, 0.0, 1.0)) - f(x))
    what = f"omega1 at delta={delta}"
    if getattr(f, "breakpoints", None) is not None:
        return _vertices(f, diff, hmax, delta, (1.0, 0.0), (1.0, -1.0), False, what)
    return _search(diff, hmax, np.linspace(0.0, 1.0, X_POINTS + 1), what)


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
    return _search(diff, hmax, np.linspace(0.0, 1.0, X_POINTS + 1), what)


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
    # corners of the admissible region, where the boundary-touching cap
    # sqrt(x/(1-x)) (or its mirror) crosses delta: suprema attained on the
    # boundary sit exactly there and uniform grids only approach them
    corner = delta ** 2 / (1.0 + delta ** 2)
    xs = np.unique(np.concatenate([np.linspace(0.0, 1.0, X_POINTS + 1), [corner, 1.0 - corner]]))
    return _search(diff, hmax, xs, what)
