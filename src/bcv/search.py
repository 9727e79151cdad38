"""Golden-section maximization and the grid-plus-golden sup search."""

import numpy as np

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0
# Golden-section steps before golden_max stops regardless of tol.
_MAX_ITER = 200


def golden_max(f, lo, hi, tol=1e-13):
    """Return (argmax, max) of f on [lo, hi] by golden-section search.

    Assumes f is unimodal on the bracket; on a multimodal bracket it still
    converges to a local maximum, so callers feed it brackets around coarse
    grid winners only.
    """
    if hi < lo:
        lo, hi = hi, lo
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(_MAX_ITER):
        if b - a <= tol:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def sup_search(f, xs, tol=1e-12, breaks=None):
    """Grid scan plus golden refinement of the winning cell.

    f is vectorised; f(xs) is scanned over the sorted grid xs and only the
    winner is refined, by golden section between its two grid neighbours.
    With sorted breaks, the bracket is clipped to the piece (b, b'] that
    holds the winner, nudged 1e-12 off b, so refinement never crosses a jump
    of f.  tol=None skips refinement.  The refined point is kept only if it
    beats the grid.

    Returns (arg, value, grid_value) as Python floats.  Both values are
    attained, so each is a lower estimate of the sup, never a certified one.
    """
    xs = np.asarray(xs, dtype=float)
    vals = f(xs)
    i = int(np.argmax(vals))
    arg, value = float(xs[i]), float(vals[i])
    grid_value = value
    if tol is None:
        return arg, value, grid_value
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
