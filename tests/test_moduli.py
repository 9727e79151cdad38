"""Moduli of continuity: closed-form cases, admissibility, search quality."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bcv import moduli
from bcv.bernstein import PiecewiseLinearFn
from bcv.bounds import build_fn_lower
from bcv.moduli import ModulusResult, omega1, omega2, omega2_phi
from oracles import brute_force_modulus


def _curved(curvature, f):
    """f, declaring that f'' has the sign of curvature on [0, 1]."""
    f.curvature = curvature
    return f


SQUARE = _curved(1, lambda y: np.asarray(y) ** 2)
CUBE = _curved(1, lambda y: np.asarray(y) ** 3)
SINE = _curved(-1, lambda y: np.sin(math.pi * np.asarray(y)))
SQRT = _curved(-1, lambda y: np.sqrt(np.abs(np.asarray(y, dtype=float))))
VEE = PiecewiseLinearFn((0.0, 0.5, 1.0), (0.5, 0.0, 0.5))


# ---------------------------------------------------------------------------
# degenerate and closed-form cases


def test_all_moduli_vanish_at_delta_zero():
    for fn in (omega1, omega2, omega2_phi):
        res = fn(SQUARE, 0.0)
        assert isinstance(res, ModulusResult)
        assert res.value == 0.0


def test_affine_functions_have_zero_second_moduli():
    # f'' = 0 has either sign; omega1 takes the same line with its breakpoints
    affine = _curved(1, lambda y: 2.0 * np.asarray(y) - 0.25)
    assert omega2(affine, 0.3).value <= 1e-10
    assert omega2_phi(affine, 0.3).value <= 1e-10
    # first modulus of an affine function is slope * delta
    line = PiecewiseLinearFn((0.0, 1.0), (-0.25, 1.75))
    assert omega1(line, 0.3).value == pytest.approx(0.6, abs=1e-10)


def test_omega1_square_attained_at_right_edge():
    # |f(x+h)-f(x)| for y^2, interpolated at the knots k/20, is maximal at
    # x = 1-delta, h = delta, as for y^2 itself
    knots = np.linspace(0.0, 1.0, 21)
    res = omega1(PiecewiseLinearFn(tuple(knots), tuple(knots ** 2)), 0.1)
    assert res.value == pytest.approx(0.19, abs=1e-10)
    assert res.arg_x == pytest.approx(0.9, abs=1e-6)


def test_omega2_square_closed_form():
    # second difference of y^2 is exactly 2h^2
    res = omega2(SQUARE, 0.1)
    assert res.value == pytest.approx(0.02, abs=1e-12)


def test_omega2_vee_kink_value():
    res = omega2(VEE, 0.1)
    assert res.value == pytest.approx(0.2, abs=1e-12)
    assert res.arg_x == pytest.approx(0.5, abs=1e-9)
    assert res.arg_h == pytest.approx(0.1, abs=1e-9)


def test_omega2_phi_square_closed_form():
    # second difference is 2 h^2 phi^2(x), maximized at x = 1/2, h = delta
    for delta in (0.1, 0.2, 0.5):
        res = omega2_phi(SQUARE, delta)
        assert res.value == pytest.approx(delta ** 2 / 2.0, abs=1e-12)


def test_omega2_phi_vee_via_breakpoint_function():
    brk = omega2_phi(VEE, 0.3)
    assert brk.bound == "exact"
    assert brk.value >= brute_force_modulus("omega2_phi", VEE, 0.3) - 1e-12
    # the kink contributes |2 h phi(1/2)| at x = 1/2
    assert brk.value == pytest.approx(0.3, abs=1e-10)


# ---------------------------------------------------------------------------
# domain validation


def test_delta_domain_validation():
    with pytest.raises(ValueError):
        omega1(SQUARE, 1.2)
    with pytest.raises(ValueError):
        omega2(SQUARE, 0.6)
    with pytest.raises(ValueError):
        omega2_phi(SQUARE, 1.0001)
    for fn in (omega1, omega2, omega2_phi):
        with pytest.raises(ValueError):
            fn(SQUARE, -0.1)


# ---------------------------------------------------------------------------
# structural properties


def test_monotone_in_delta_on_corpus(corpus):
    deltas = (0.05, 0.1, 0.2, 0.4)
    for f in corpus.values():
        # omega1 takes only piecewise-linear f
        for fn in (omega1, omega2_phi) if hasattr(f, "breakpoints") else (omega2_phi,):
            vals = [fn(f, d).value for d in deltas]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        vals2 = [omega2(f, d).value for d in deltas if d <= 0.5]
        assert all(b >= a - 1e-12 for a, b in zip(vals2, vals2[1:]))


def test_omega2_phi_bounded_by_four_sup_norm(corpus):
    xs = np.linspace(0.0, 1.0, 4001)
    for f in corpus.values():
        supf = float(np.max(np.abs(f(xs))))
        assert omega2_phi(f, 1.0).value <= 4.0 * supf + 1e-10


def test_omega2_phi_second_order_bound_for_smooth_functions():
    # for C^2 functions the value is at most delta^2 sup|phi^2 f''| log 4
    xs = np.linspace(0.0, 1.0, 4001)
    second = {
        "square": lambda y: 2.0 * np.ones_like(np.asarray(y, dtype=float)),
        "cube": lambda y: 6.0 * np.asarray(y),
        "sine": lambda y: -math.pi ** 2 * np.sin(math.pi * np.asarray(y)),
    }
    fns = {"square": SQUARE, "cube": CUBE, "sine": SINE}
    for name, f in fns.items():
        wsec = float(np.max(xs * (1.0 - xs) * np.abs(second[name](xs))))
        for delta in (0.1, 0.3):
            assert omega2_phi(f, delta).value <= delta ** 2 * wsec * math.log(4.0) + 1e-10


def test_refinement_is_stable_under_grid_doubling(monkeypatch):
    for f in (CUBE, SINE):
        base = omega2_phi(f, 0.3).value
        with monkeypatch.context() as mp:
            mp.setattr(moduli, "X_POINTS", 2 * moduli.X_POINTS)
            fine = omega2_phi(f, 0.3).value
        assert abs(base - fine) < 1e-12


def test_boundary_touching_steps_are_admissible():
    # for x <= delta^2/(1+delta^2) the arm x - h phi(x) can reach 0 exactly;
    # on f = sqrt the second difference is largest on that boundary family,
    # where it equals (2-sqrt(2)) sqrt(x) with x up to delta^2/(1+delta^2)
    delta = 0.5
    res = omega2_phi(SQRT, delta)
    x, h = res.arg_x, res.arg_h
    assert x - h * math.sqrt(x * (1.0 - x)) >= -1e-12
    corner = (2.0 - math.sqrt(2.0)) * delta / math.sqrt(1.0 + delta ** 2)
    assert res.value >= corner - 1e-9


_MIRRORED = (0.1, 0.2, 0.5, 0.5097088626685123)


@pytest.mark.parametrize("delta", [0.001, 0.0011106673070516379, 0.005, *_MIRRORED])
def test_omega2_phi_of_sqrt_lands_exactly_on_its_corners(delta):
    # |Delta^2 sqrt| is (2 - sqrt(2)) sqrt(x) on the steps s = x, which put the
    # arm x - s on 0, so the sup is at the corner c = delta^2/(1+delta^2),
    # where delta phi(x) meets x; at delta = 0.2 that arm once rounded to
    # 6.9e-18 there and the value missed by 2.6e-10, and golden section alone,
    # stopping 1e-13 short of the corner, misses by 7e-14.  With c on the
    # 2^-53 grid, the three small delta missed by 5e-15 to 2e-14 (up to 3e-11
    # relative).  sqrt(1 - y) mirrors it at the corner 1 - c, where the float
    # spacing near 1 limits it to about 1e-11 relative at delta = 0.001, so
    # it is checked at the larger delta only.
    # At the last delta, h = s / phi(c) rounds so that h phi(c) falls short
    # of c: the reported h must still give the arm 0, and so the value.
    value = (2.0 - math.sqrt(2.0)) * delta / math.sqrt(1.0 + delta ** 2)
    corner = delta ** 2 / (1.0 + delta ** 2)
    mirror = _curved(-1, lambda y: np.sqrt(np.abs(1.0 - np.asarray(y, dtype=float))))
    cases = [(SQRT, corner)]
    if delta in _MIRRORED:
        cases.append((mirror, 1.0 - corner))
    for f, x in cases:
        res = omega2_phi(f, delta)
        assert res.value == pytest.approx(value, rel=0.0, abs=1e-15)
        assert res.arg_x == pytest.approx(x, rel=0.0, abs=1e-15)
        _assert_on_the_boundary(omega2_phi, f, delta, res)


def test_result_reports_grid_metadata(monkeypatch):
    monkeypatch.setattr(moduli, "X_POINTS", 64)
    res = omega2(SQUARE, 0.2)
    assert res.bound == "lower"
    # 65 uniform points and the corners 0.2 and 0.8, which lie off them
    xs = np.union1d(np.linspace(0.0, 1.0, 65), [0.2, 0.8])
    assert res.grid_points == len(xs) == 67
    # refinement only ever improves on the grid winner
    h = np.minimum(0.2, np.minimum(xs, 1.0 - xs))
    grid_best = np.max(np.abs(SQUARE(xs + h) - 2.0 * SQUARE(xs) + SQUARE(xs - h)))
    assert res.value >= grid_best
    assert omega2(SQUARE, 0.0).bound == "exact"


@pytest.mark.parametrize("fn", [omega1, omega2, omega2_phi],
                         ids=["omega1", "omega2", "omega2_phi"])
def test_non_finite_f_raises_naming_the_modulus_and_delta(fn):
    nan_above = _curved(1, lambda y: np.where(np.asarray(y) > 0.7, np.nan, np.asarray(y) ** 2))
    all_inf = _curved(1, lambda y: np.full(np.shape(y), np.inf))
    # finite on the search's grid, but not at the one or two points of each
    # golden-section step
    off_grid = [_curved(1, lambda y, bad=bad: np.asarray(y) ** 2 if np.size(y) > 2
                        else np.full(np.shape(y), bad)) for bad in (np.nan, np.inf)]
    # with breakpoints the exact path evaluates the candidates instead
    exact = [PiecewiseLinearFn((0.0, 0.7, 1.0), (0.0, 0.49, np.nan)),
             PiecewiseLinearFn((0.0, 1.0), (np.inf, np.inf))]
    cases = [(f, "candidate") for f in exact]
    if fn is not omega1:  # omega1 takes only piecewise-linear f
        cases += [(f, "search") for f in [nan_above, all_inf] + off_grid]
    for f, where in cases:
        with pytest.raises(ValueError, match=rf"^{fn.__name__} at delta=0\.3: f is not "
                                             rf"finite at every {where} point$"):
            fn(f, 0.3)


@given(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=6))
def test_random_piecewise_linear_obeys_sup_norm_bound(vals):
    bp = np.linspace(0.0, 1.0, len(vals))
    f = PiecewiseLinearFn(tuple(bp), tuple(vals))
    res = omega2_phi(f, 0.4)
    assert res.bound == "exact"
    assert 0.0 <= res.value <= 4.0 * max(abs(v) for v in vals) + 1e-10


def test_omega2_phi_call_budget():
    # one call of diff on the grid, then the golden-section calls, each
    # calling f three times: on SINE 153 calls, of which 3 are the grid's
    fn_n = build_fn_lower(10000)
    for f, delta in ((SINE, 0.3), (fn_n, 0.01)):
        calls = 0

        def counted(y):
            nonlocal calls
            calls += 1
            return f(y)

        counted.breakpoints = getattr(f, "breakpoints", None)
        counted.curvature = getattr(f, "curvature", None)
        omega2_phi(counted, delta)
        assert 0 < calls <= 200


# ---------------------------------------------------------------------------
# exact path for piecewise-linear functions

MODULI_DELTAS = ((omega1, (0.05, 0.3, 1.0)),
                 (omega2, (0.05, 0.2, 0.5)),
                 (omega2_phi, (0.01, 0.3, 1.0)))


def _arms_and_value(fn, f, x, h):
    """(x - s, x + s, |difference|) at (x, h), from the modulus definition:
    the step s is h, or h phi(x) for omega2_phi."""
    s = h * math.sqrt(x * (1.0 - x)) if fn is omega2_phi else h
    up = f(min(x + s, 1.0))
    if fn is omega1:
        return x, x + s, abs(up - f(x))
    return x - s, x + s, abs(up - 2.0 * f(x) + f(max(x - s, 0.0)))


def _assert_attained(fn, f, delta, res):
    lo, hi, value = _arms_and_value(fn, f, res.arg_x, res.arg_h)
    assert 0.0 <= res.arg_x <= 1.0 and 0.0 <= res.arg_h <= delta
    assert lo >= -1e-15 and hi <= 1.0 + 1e-15
    assert res.value == value


@st.composite
def piecewise_linear(draw):
    """(breakpoints, values) with 3-6 kinks at non-uniform positions in (0, 1)."""
    k = draw(st.integers(3, 6))
    gaps = np.array(draw(st.lists(st.floats(0.02, 1.0), min_size=k + 1, max_size=k + 1)))
    vals = draw(st.lists(st.floats(-1.0, 1.0), min_size=k, max_size=k))
    return tuple(float(b) for b in np.cumsum(gaps)[:-1] / gaps.sum()), tuple(vals)


# the omega2 maximizer of the first sits on the vertex x - h = 0, x + h = 0.76;
# at delta = 0.3 the omega2_phi maximizer of the second is where the line
# x - s = 0.29 crosses the ellipse (without those crossings: 1.56613 of
# 1.61632), and that of the third is a tangency point inside an arc of the
# ellipse (x = 0.35485, h = delta; the vertices alone reach 0.69353 of 0.69417);
# at delta = 0.01 the omega2_phi winner of the fourth has s / phi(x) rounding
# to 0.010000000000000002, which the reported h must not exceed, and at
# delta = 1 that of the fifth has no h with h phi(x) rounding to its s, so its
# value must be taken at the reported h
@example(((0.05, 0.36, 0.75, 0.76), (0.9, -0.6, 0.0, 0.8)))
@example(((0.29, 0.36, 0.56, 0.77), (-0.7, 0.8, 1.0, -0.2)))
@example(((0.17, 0.34, 0.47, 0.81), (-0.18, -0.85, -0.77, 0.73)))
@example(((0.4298042376011551, 0.7521574158020214, 0.7607535005540446, 0.9907659245827877),
          (0.0, 0.0, 0.0, 1.0)))
@example(((0.22741433021806853, 0.5763239875389408, 0.9501557632398754), (0.0, -0.5, -1.0)))
@settings(max_examples=10)
@given(piecewise_linear())
def test_exact_moduli_dominate_brute_force_and_grid(knots):
    # the brute force is a dense (x, s) grid
    f = PiecewiseLinearFn(*knots)
    for fn, deltas in MODULI_DELTAS:
        for delta in deltas:
            res = fn(f, delta)
            assert res.bound == "exact"
            _assert_attained(fn, f, delta, res)
            assert res.value >= brute_force_modulus(fn.__name__, f, delta) - 1e-12


def test_exact_path_finds_vertices_the_augmented_grids_missed():
    # omega1: x + h = 0.9 (a kink) and h = delta meet at (0.6, 0.3), where
    # |f(0.9) - f(0.6)| = 1 + 4/15; the kink-pair grids stopped at 1.26654
    res = omega1(PiecewiseLinearFn((0.05, 0.8, 0.9), (1.0, 0.0, -1.0)), 0.3)
    assert res.value == pytest.approx(19.0 / 15.0, abs=1e-15)
    assert (res.arg_x, res.arg_h) == pytest.approx((0.6, 0.3), abs=1e-15)
    # omega2: x - h = 0 and x + h = 0.76 meet at (0.38, 0.38), value
    # 0.9 + 2 (0.6 - 0.02 * 0.6 / 0.39) + 0.8 = 369/130; the grids gave 2.83732
    res = omega2(PiecewiseLinearFn((0.05, 0.36, 0.75, 0.76), (0.9, -0.6, 0.0, 0.8)), 0.5)
    assert res.value == pytest.approx(369.0 / 130.0, abs=1e-15)
    assert (res.arg_x, res.arg_h) == pytest.approx((0.38, 0.38), abs=1e-15)


def test_witness_modulus_is_exact_and_at_least_the_grid_value():
    for n in (10 ** 4, 10 ** 6):
        fn = build_fn_lower(n)
        res = omega2_phi(fn, n ** -0.5)
        assert res.bound == "exact"
        # 7 knots: 168 line crossings, 40 line-ellipse crossings and 30
        # tangency points, one pair per arc of the ellipse between crossings
        # (the 9 arcs with zero gradient and the 2 degenerate roots dropped)
        assert res.grid_points == 238
        _assert_attained(omega2_phi, fn, n ** -0.5, res)
        assert res.value >= brute_force_modulus("omega2_phi", fn, n ** -0.5) - 1e-12


def test_wrong_breakpoints_still_give_an_attained_value():
    # sine is not piecewise linear: the candidates are no longer complete,
    # but each is admissible and evaluated through f
    f = lambda y: np.sin(math.pi * np.asarray(y, dtype=float))
    f.breakpoints = (0.3, 0.7)
    for fn, deltas in MODULI_DELTAS:
        for delta in deltas:
            _assert_attained(fn, f, delta, fn(f, delta))


# ---------------------------------------------------------------------------
# the boundary path for f with one-signed f''

SMOOTH_DELTAS = ((omega2, (0.05, 0.2, 1.0 / math.sqrt(50.0), 0.5)),
                 (omega2_phi, (0.01, 1.0 / math.sqrt(50.0), 0.3, 1.0 / math.sqrt(10.0), 1.0)))


def _hmax(fn, x, delta):
    """The largest admissible h at x, from the modulus definition."""
    if fn is omega2:
        return min(delta, x, 1.0 - x)
    if x in (0.0, 1.0):
        return 0.0
    return min(delta, math.sqrt(x / (1.0 - x)), math.sqrt((1.0 - x) / x))


def _assert_on_the_boundary(fn, f, delta, res):
    assert res.bound == "lower"
    _assert_attained(fn, f, delta, res)
    assert res.arg_h == pytest.approx(_hmax(fn, res.arg_x, delta), rel=1e-15, abs=1e-300)


@pytest.mark.parametrize("delta", [0.05, 0.2, 1.0 / math.sqrt(50.0), 0.5, 1.0 / math.sqrt(10.0)])
def test_boundary_path_closed_forms(delta):
    # Delta^2 of y^2 is 2 s^2 and of y^3 is 6 x s^2: omega2_phi is 2 delta^2
    # phi^2 at x = 1/2 and 6 delta^2 x^2 (1 - x) at x = 2/3, omega2 of y^3 is
    # 6 x delta^2 at x = 1 - delta
    assert omega2_phi(SQUARE, delta).value == pytest.approx(delta ** 2 / 2.0, rel=1e-14)
    assert omega2_phi(CUBE, delta).value == pytest.approx(8.0 * delta ** 2 / 9.0, rel=1e-14)
    assert omega2(SQUARE, delta).value == pytest.approx(2.0 * delta ** 2, rel=1e-14)
    assert omega2(CUBE, delta).value == pytest.approx(6.0 * (1.0 - delta) * delta ** 2, rel=1e-14)


@pytest.mark.parametrize("f", [SQUARE, CUBE, SINE, SQRT], ids=["square", "cube", "sine", "sqrt"])
def test_boundary_path_dominates_brute_force_and_is_attained(f):
    for fn, deltas in SMOOTH_DELTAS:
        for delta in deltas:
            res = fn(f, delta)
            _assert_on_the_boundary(fn, f, delta, res)
            assert res.value >= brute_force_modulus(fn.__name__, f, delta) - 1e-12


def test_wrong_curvature_still_gives_an_attained_value():
    # f'' changes sign: the sup need not sit on h = hmax(x), but the value
    # is one of f's differences there
    for f in (_curved(1, lambda y: np.sin(2.0 * math.pi * np.asarray(y, dtype=float))),
              _curved(-1, lambda y: (np.asarray(y) - 0.5) ** 3)):
        for fn, deltas in SMOOTH_DELTAS:
            for delta in deltas:
                _assert_on_the_boundary(fn, f, delta, fn(f, delta))


@pytest.mark.parametrize("fn", [omega2, omega2_phi], ids=["omega2", "omega2_phi"])
def test_second_moduli_need_a_contract(fn):
    for bad in (0, 2, math.nan):
        with pytest.raises(ValueError, match=rf"^{fn.__name__} at delta=0\.3: curvature "
                                             rf"must be \+1 or -1, got {bad!r}$"):
            fn(_curved(bad, lambda y: np.asarray(y) ** 2), 0.3)
    with pytest.raises(ValueError, match=r"declares neither breakpoints .* nor curvature"):
        fn(lambda y: np.asarray(y) ** 2, 0.3)


def test_omega1_needs_breakpoints():
    for f in (lambda y: np.asarray(y) ** 2, SQUARE):
        with pytest.raises(ValueError, match=r"^omega1 at delta=0\.3: f declares no breakpoints"):
            omega1(f, 0.3)
