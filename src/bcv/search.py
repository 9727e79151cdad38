"""Golden-section maximization and the grid-plus-golden sup search."""

import numpy as np

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0
# Golden-section steps before golden_max stops regardless of tol.
_MAX_ITER = 200


def golden_max(f, lo, hi, tol=1e-13, args=()):
    """Return (argmax, max) of f on [lo, hi] by golden-section search.

    lo and hi may be arrays, one lane per search; a lane stops once its
    bracket is at most tol wide, or after _MAX_ITER steps.  Each step calls f
    once, on the points of the lanes still searching and those lanes' entries
    of each array in args.  Scalar lo and hi give two floats, arrays two arrays.

    Assumes f is unimodal on the bracket; on a multimodal bracket it still
    converges to a local maximum, so callers feed it brackets around coarse
    grid winners only.
    """
    scalar = np.ndim(lo) == np.ndim(hi) == 0
    a, b = np.atleast_1d(np.minimum(lo, hi, dtype=float), np.maximum(lo, hi, dtype=float))
    c, d = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    fc, fd = np.split(np.asarray(f(np.concatenate([c, d]), *(np.tile(v, 2) for v in args))), 2)
    s, live = np.array([a, b, c, d, fc, fd], dtype=float), np.arange(len(a))
    for _ in range(_MAX_ITER):
        live = live[s[1, live] - s[0, live] > tol]
        if not live.size:
            break
        a, b, c, d, fc, fd = s[:, live]
        # fc >= fd: the max lies in [a, d], so d becomes b and c becomes d;
        # otherwise it lies in [c, b], so c becomes a and d becomes c
        left = fc >= fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        t = np.where(left, b - _INVPHI * (b - a), a + _INVPHI * (b - a))
        ft = f(t, *(v[live] for v in args))
        s[:, live] = np.where(left, [a, b, t, c, ft, fc], [a, b, d, t, fd, ft])
    x = 0.5 * (s[0] + s[1])
    v = np.asarray(f(x, *args), dtype=float)
    return (float(x[0]), float(v[0])) if scalar else (x, v)


def sup_search(f, xs, tol=1e-12, breaks=None):
    """Grid scan plus golden refinement of the winning cell.

    f is vectorised; f(xs) is scanned over the sorted grid xs and only the
    winner is refined, by golden section between its two grid neighbours.
    With sorted breaks, the bracket is clipped to the piece (b, b'] that
    holds the winner, nudged 1e-12 off b, so refinement never crosses a jump
    of f.  The refined point is kept only if it beats the grid.

    Returns (arg, value, grid_value) as Python floats.  Both values are
    attained, so each is a lower estimate of the sup, never a certified one.
    """
    xs = np.asarray(xs, dtype=float)
    vals = f(xs)
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
