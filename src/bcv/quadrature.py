"""One fixed composite Gauss-Legendre rule on [0, 1].

The panels are dyadic and graded toward 0: [0, 2^-19], [2^-19, 2^-18], ...,
[1/2, 1], with 16 Gauss-Legendre nodes on each.  The rule is exact for
polynomials of degree <= 31 on every panel, and the grading keeps the layer
e^{-a theta} of width 1/a resolved up to a = 10^4.  Its callers integrate
functions that are analytic on each panel, so the rule has no tolerance and
no failure mode; the nodes are interior, so a removable singularity at 0 or
1 is never evaluated.
"""

import functools

import numpy as np

PANELS = 20
NODES_PER_PANEL = 16


@functools.cache
def gauss_legendre():
    """(nodes, weights) of the composite rule on [0, 1], as read-only arrays.

    The integral of f over [0, 1] is weights @ f(nodes).
    """
    x, w = np.polynomial.legendre.leggauss(NODES_PER_PANEL)
    edges = np.concatenate(([0.0], 2.0 ** np.arange(1 - PANELS, 1)))
    lo, half = edges[:-1, None], 0.5 * np.diff(edges)[:, None]
    nodes = (lo + half * (x + 1.0)).ravel()
    weights = (half * w).ravel()
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights
