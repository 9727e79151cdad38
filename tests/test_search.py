"""Golden-section maximization and the grid-plus-golden sup search."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bcv import bounds, cli, moduli
from bcv.bounds import fn_lower_error_sup, sup_G_minus_g
from bcv.central import sup_C, sup_C_tilde, sup_H_n
from bcv.moduli import omega2_phi
from bcv.search import golden_max, sup_search
from oracles import scalar_golden_max


def test_parabola_maximum_is_located():
    x, v = golden_max(lambda t: -(t - 0.3721) ** 2, 0.0, 1.0, 1e-13)
    assert abs(x - 0.3721) < 1e-10
    assert abs(v) < 1e-18


def test_reversed_bracket_is_accepted():
    x, _ = golden_max(lambda t: -(t - 0.25) ** 2, 1.0, 0.0, 1e-13)
    assert abs(x - 0.25) < 1e-10


def test_sine_peak():
    x, v = golden_max(np.sin, 0.0, math.pi, 1e-13)
    # near a smooth peak the argument is only determined to ~sqrt(eps):
    # within that plateau all f values round to the same double
    assert abs(x - math.pi / 2.0) < 1e-6
    assert abs(v - 1.0) < 1e-15


@given(st.floats(0.05, 0.95))
def test_golden_never_below_bracket_midpoint_value(c):
    f = lambda t: -abs(t - c)
    _, v = golden_max(f, 0.0, 1.0, 1e-13)
    assert v >= f(0.5) - 1e-12


@example(1.0, -1.0, 0.3, 1e-13)
@example(0.5, 0.5, 0.0, 1e-13)
@example(-2.0, 2.0, 2.5, 1e-13)
@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-3.0, 3.0),
       st.sampled_from([1e-13, 1e-6, 0.5]))
def test_golden_max_equals_the_scalar_reference(lo, hi, c, tol):
    # reversed and zero-width brackets, peaks inside and outside them; f
    # uses only correctly rounded operations, so a scalar and an array
    # evaluation agree bit for bit
    sizes = []

    def f(t):
        sizes.append(len(t))
        return -np.abs(t - c) * (1.0 + (t - c) * (t - c))

    got = golden_max(f, lo, hi, tol)
    assert type(got[0]) is float and type(got[1]) is float
    # the two first points in one call, then six points per round of two
    # steps, then the final point
    assert sizes == [2] + [6] * (len(sizes) - 2) + [1]
    assert got == scalar_golden_max(lambda t: float(f(np.array([t]))[0]), lo, hi, tol)


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


def _peaked(t):
    return np.sin(3.0 * t) + 0.1 * np.cos(17.0 * t)


def test_sup_search_calls_scan_once_on_the_grid_and_golden_only_f():
    xs = np.linspace(0.0, 1.0, 33)
    f_calls, scan_calls = [], []

    def f(t):
        f_calls.append(np.array(t, copy=True))
        return _peaked(t)

    def scan(t):
        scan_calls.append(np.array(t, copy=True))
        return _peaked(t)

    sup_search(f, xs, 1e-13, scan=scan)
    assert len(scan_calls) == 1 and np.array_equal(scan_calls[0], xs)
    assert f_calls and not any(np.array_equal(c, xs) for c in f_calls)


def test_sup_search_with_a_scan_lowered_off_the_argmax_is_unchanged():
    xs = np.linspace(0.0, 1.0, 33)
    rng = np.random.default_rng(5)

    def lowered(t):
        v = _peaked(t)
        return np.where(v == np.max(v), v, v - rng.uniform(1e-12, 1.0, len(v)))

    assert sup_search(_peaked, xs, 1e-13, scan=lowered) == sup_search(_peaked, xs, 1e-13)


@pytest.mark.parametrize("search", [
    sup_C, sup_C_tilde, lambda: sup_H_n(100), sup_G_minus_g,
    lambda: fn_lower_error_sup(1000),
], ids=["sup_C", "sup_C_tilde", "sup_H_n", "sup_G_minus_g", "fn_lower_error_sup"])
def test_every_sup_reports_python_floats(search):
    res = search()
    assert type(res.sup_value) is float
    assert type(res.arg) is float
    assert all(type(b) is float for b in res.scan_range)


@pytest.mark.parametrize("module, search, points", [
    (bounds, sup_G_minus_g, 2.0 + np.array([-1e-6, -1e-9, -4.4e-16, 0.0, 4.4e-16, 1e-6])),
    (bounds, lambda: fn_lower_error_sup(10_000), (2.0 + np.linspace(-1e-3, 1e-3, 6)) / 10_000),
    (moduli, lambda: omega2_phi(cli._SINE, 0.1), np.linspace(0.0098, 0.01, 6)),
], ids=["G_minus_g_across_a_node", "fn_lower_error_10000", "omega2_phi_sine_across_a_corner"])
def test_sup_objectives_give_a_batch_the_values_of_single_points(monkeypatch, module, search,
                                                                 points):
    # golden_max evaluates six points per round and keeps one or two, so the
    # objective each search passes to sup_search must give a point the
    # value it gives that point alone (H_n and C: see test_central.py)
    objectives = []
    real = module.sup_search
    monkeypatch.setattr(module, "sup_search",
                        lambda f, *args, **kwargs: objectives.append(f) or real(f, *args, **kwargs))
    search()
    (f,) = objectives
    singles = np.concatenate([f(points[i:i + 1]) for i in range(len(points))])
    assert f(points).tobytes() == singles.tobytes()
