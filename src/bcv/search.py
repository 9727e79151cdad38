"""Golden-section maximization and the grid-plus-golden sup search."""

import numpy as np

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0
# Golden-section steps before golden_max stops regardless of tol.
_MAX_ITER = 200


def golden_max(f, lo, hi, tol):
    """Return (argmax, max) of f on [lo, hi] by golden-section search, as
    Python floats; stops once the bracket is at most tol wide, or after
    _MAX_ITER steps.

    f is vectorised and called on 1-D arrays: once on the two first points,
    then once per round of two steps, and once on the final point.  Before
    a round, the bracket fixes the point the next step needs on either
    outcome of its comparison, and the two points the step after needs on
    each of those, so one call on all six gives every value both steps can
    read; their comparisons, the stopping rule and the _MAX_ITER count are
    those of one step at a time, so the points visited and the result are
    too.  This needs f to give each point the value it gives that point
    alone, whatever the other points of the call.  A round may evaluate
    points that the walk then discards, so a ValueError from f can name a
    point of the bracket that a one-step search would never have visited.

    Assumes f is unimodal on the bracket; on a multimodal bracket it still
    converges to a local maximum, so callers feed it brackets around coarse
    grid winners only.
    """
    a, b = float(min(lo, hi)), float(max(lo, hi))
    c, d = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    fc, fd = np.asarray(f(np.array([c, d])), dtype=float).tolist()
    steps = 0
    while steps < _MAX_ITER and b - a > tol:
        # fc >= fd: the max lies in [a, d], so d becomes b and c becomes d,
        # and the new c is cl; otherwise it lies in [c, b], so c becomes a
        # and d becomes c, and the new d is dr.  The step after that makes
        # the same choice on the new bracket: cl and its successors cll
        # (again left) or clr (then right), dr and drl or drr
        cl, dr = d - _INVPHI * (d - a), c + _INVPHI * (b - c)
        cll, clr = c - _INVPHI * (c - a), cl + _INVPHI * (d - cl)
        drl, drr = dr - _INVPHI * (dr - c), d + _INVPHI * (b - d)
        vals = np.asarray(f(np.array([cl, dr, cll, clr, drl, drr])), dtype=float).tolist()
        left = fc >= fd
        if left:
            b, d, fd = d, c, fc
            c, fc = cl, vals[0]
        else:
            a, c, fc = c, d, fd
            d, fd = dr, vals[1]
        steps += 1
        if steps == _MAX_ITER or b - a <= tol:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c, fc = (cll, vals[2]) if left else (drl, vals[4])
        else:
            a, c, fc = c, d, fd
            d, fd = (clr, vals[3]) if left else (drr, vals[5])
        steps += 1
    x = float(0.5 * (a + b))
    return x, float(f(np.array([x]))[0])


def sup_search(f, xs, tol=1e-12, breaks=None, scan=None):
    """Grid scan plus golden refinement of the winning cell.

    f is vectorised; f(xs) is scanned over the sorted grid xs and only the
    winner is refined, by golden section between its two grid neighbours.
    With sorted breaks, the bracket is clipped to the piece (b, b'] that
    holds the winner, nudged 1e-12 off b, so refinement never crosses a jump
    of f.  The refined point is kept only if it beats the grid.

    A cheaper scan may stand in for f on the grid pass only: scan(xs) must
    equal f(xs) wherever f(xs) is maximal and lie strictly below that max
    elsewhere, so the winner and its value are those of f(xs).  Refinement
    always calls f.

    Returns (arg, value, grid_value) as Python floats.  Both values are
    attained, so each is a lower estimate of the sup, never a certified one.
    """
    xs = np.asarray(xs, dtype=float)
    vals = f(xs) if scan is None else scan(xs)
    i = int(np.argmax(vals))
    arg, value = float(xs[i]), float(vals[i])
    grid_value = value
    lo = float(xs[max(i - 1, 0)])
    hi = float(xs[min(i + 1, len(xs) - 1)])
    if breaks is not None:
        j = int(np.searchsorted(breaks, arg))
        if j > 0:
            lo = max(lo, float(breaks[j - 1]) + 1e-12)
        if j < len(breaks):
            hi = min(hi, float(breaks[j]))
    if hi > lo:
        x, v = golden_max(f, lo, hi, tol)
        if v > value:
            arg, value = float(x), float(v)
    return arg, value, grid_value
