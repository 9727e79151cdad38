"""Golden-section maximization and the grid-plus-golden sup search."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bcv.bounds import fn_lower_error_sup, sup_G_minus_g
from bcv.central import sup_C, sup_C_tilde, sup_H_n
from bcv.search import golden_max, sup_search
from oracles import scalar_golden_max


def test_parabola_maximum_is_located():
    x, v = golden_max(lambda t: -(t - 0.3721) ** 2, 0.0, 1.0)
    assert abs(x - 0.3721) < 1e-10
    assert abs(v) < 1e-18


def test_reversed_bracket_is_accepted():
    x, _ = golden_max(lambda t: -(t - 0.25) ** 2, 1.0, 0.0)
    assert abs(x - 0.25) < 1e-10


def test_sine_peak():
    x, v = golden_max(np.sin, 0.0, math.pi)
    # near a smooth peak the argument is only determined to ~sqrt(eps):
    # within that plateau all f values round to the same double
    assert abs(x - math.pi / 2.0) < 1e-6
    assert abs(v - 1.0) < 1e-15


@given(st.floats(0.05, 0.95))
def test_golden_never_below_bracket_midpoint_value(c):
    f = lambda t: -abs(t - c)
    _, v = golden_max(f, 0.0, 1.0)
    assert v >= f(0.5) - 1e-12


@example([(1.0, -1.0, 0.3), (0.5, 0.5, 0.0), (-2.0, 2.0, 2.5), (0.0, 0.1, 0.05)], 1e-13)
@given(st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
                          st.floats(-3.0, 3.0)), min_size=1, max_size=12),
       st.sampled_from([1e-13, 1e-6, 0.5]))
def test_lane_call_equals_per_lane_scalar_calls(lanes, tol):
    # lanes hold reversed and zero-width brackets and peaks inside and
    # outside them, so they stop after different numbers of steps; f uses
    # only correctly rounded operations, so a scalar and an array evaluation
    # agree bit for bit
    lo, hi, c = (np.array(v) for v in zip(*lanes))
    calls = []

    def f(t, cc):
        calls.append(len(t))
        return -np.abs(t - cc) * (1.0 + (t - cc) * (t - cc))

    x, v = golden_max(f, lo, hi, tol, args=(c,))
    assert calls[0] == 2 * len(lo) and all(n <= len(lo) for n in calls[1:])
    for i, (a, b, ci) in enumerate(lanes):
        g = lambda t: -np.abs(t - ci) * (1.0 + (t - ci) * (t - ci))
        want = golden_max(g, a, b, tol)
        assert type(want[0]) is float and type(want[1]) is float
        assert (x[i], v[i]) == want
        ref = scalar_golden_max(lambda t: float(g(t)), a, b, tol)
        assert want == ref


def test_sup_search_improves_on_the_grid():
    f = lambda t: np.sin(3.0 * t)
    xs = np.linspace(0.0, 1.0, 17)
    x, v, grid = sup_search(f, xs, 1e-13)
    assert grid == float(f(xs).max())
    assert v >= grid
    assert abs(x - math.pi / 6.0) < 1e-6  # fp plateau limits the argument
    assert abs(v - 1.0) < 1e-12


def test_sup_search_handles_boundary_best_cell():
    xs = np.linspace(0.0, 1.0, 9)
    x, v, grid = sup_search(lambda t: t, xs, 1e-13)
    assert v >= 1.0 - 1e-12
    assert grid == 1.0 and x == 1.0


def test_sup_search_refines_only_on_the_winners_piece():
    # grid winner 0.5 on the piece (0, 0.55]; its right neighbour 0.625 lies
    # past the jump at 0.55, and f peaks higher between the two, so an
    # unclipped bracket leaves the winner's piece
    f = lambda t: np.where(t <= 0.55, 1.0 - (t - 0.52) ** 2,
                           2.0 - 1000.0 * (t - 0.58) ** 2)
    xs = np.linspace(0.0, 1.0, 9)
    x, v, grid = sup_search(f, xs, 1e-13, breaks=np.array([0.0, 0.55, 1.0]))
    assert grid == float(f(0.5))
    assert 0.5 <= x <= 0.55
    assert abs(x - 0.52) < 1e-6
    assert v == pytest.approx(1.0, abs=1e-12)
    x_free, v_free, _ = sup_search(f, xs, 1e-13)
    assert abs(x_free - 0.58) < 1e-6 and v_free > 1.0


@pytest.mark.parametrize("search", [
    sup_C, sup_C_tilde, lambda: sup_H_n(100), sup_G_minus_g,
    lambda: fn_lower_error_sup(1000),
], ids=["sup_C", "sup_C_tilde", "sup_H_n", "sup_G_minus_g", "fn_lower_error_sup"])
def test_every_sup_reports_python_floats(search):
    res = search()
    assert type(res.sup_value) is float
    assert type(res.arg) is float
    assert all(type(b) is float for b in res.scan_range)
