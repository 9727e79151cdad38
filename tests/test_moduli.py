"""Moduli of continuity: closed-form cases, admissibility, search quality."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bcv import moduli
from bcv.bernstein import PiecewiseLinearFn
from bcv.bounds import build_fn_lower
from bcv.moduli import ModulusResult, _scan, omega1, omega2, omega2_phi
from oracles import dense_scan, scalar_refine, top_cells


SQUARE = lambda y: np.asarray(y) ** 2
CUBE = lambda y: np.asarray(y) ** 3
VEE = lambda y: np.abs(np.asarray(y) - 0.5)
SINE = lambda y: np.sin(math.pi * np.asarray(y))


# ---------------------------------------------------------------------------
# degenerate and closed-form cases


def test_all_moduli_vanish_at_delta_zero():
    for fn in (omega1, omega2, omega2_phi):
        res = fn(SQUARE, 0.0)
        assert isinstance(res, ModulusResult)
        assert res.value == 0.0


def test_affine_functions_have_zero_second_moduli():
    affine = lambda y: 2.0 * np.asarray(y) - 0.25
    assert omega2(affine, 0.3).value <= 1e-10
    assert omega2_phi(affine, 0.3).value <= 1e-10
    # first modulus of an affine function is slope * delta
    assert omega1(affine, 0.3).value == pytest.approx(0.6, abs=1e-10)


def test_omega1_square_attained_at_right_edge():
    # |f(x+h)-f(x)| for y^2 is maximal at x = 1-delta, h = delta
    res = omega1(SQUARE, 0.1)
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
    pwl = PiecewiseLinearFn((0.0, 0.5, 1.0), (0.5, 0.0, 0.5))
    lam = omega2_phi(VEE, 0.3)
    brk = omega2_phi(pwl, 0.3)
    # same function, one with declared breakpoints; searches must agree
    assert brk.value == pytest.approx(lam.value, abs=1e-10)
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
        for fn in (omega1, omega2_phi):
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
        assert abs(base - fine) < 1e-3


def test_boundary_touching_steps_are_admissible():
    # for x <= delta^2/(1+delta^2) the arm x - h phi(x) can reach 0 exactly;
    # on f = sqrt the second difference is largest on that boundary family,
    # where it equals (2-sqrt(2)) sqrt(x) with x up to delta^2/(1+delta^2)
    f = lambda y: np.sqrt(np.abs(np.asarray(y, dtype=float)))
    delta = 0.5
    res = omega2_phi(f, delta)
    x, h = res.arg_x, res.arg_h
    assert x - h * math.sqrt(x * (1.0 - x)) >= -1e-12
    corner = (2.0 - math.sqrt(2.0)) * delta / math.sqrt(1.0 + delta ** 2)
    assert res.value >= corner - 1e-9


def test_result_reports_grid_metadata(monkeypatch):
    monkeypatch.setattr(moduli, "X_POINTS", 64)
    monkeypatch.setattr(moduli, "H_POINTS", 16)
    res = omega2(SQUARE, 0.2)
    assert res.bound == "lower"
    assert res.grid_points == (64 + 1) * (16 + 1)
    # refinement only ever improves on the grid winner
    grid_best = max(abs(SQUARE(x + h) - 2.0 * SQUARE(x) + SQUARE(x - h))
                    for x in np.linspace(0.0, 1.0, 64 + 1)
                    for h in min(0.2, x, 1.0 - x) * np.linspace(0.0, 1.0, 16 + 1))
    assert res.value >= grid_best
    assert omega2(SQUARE, 0.0).bound == "exact"


def test_scan_seeds_are_the_best_cells_in_descending_order(monkeypatch):
    rng = np.random.default_rng(5)
    for x_points, h_points in ((16, 8), (100, 37), (2048, 512)):
        xs = np.linspace(0.0, 1.0, x_points + 1)
        table = rng.permutation((x_points + 1) * (h_points + 1)).astype(float)
        table = table.reshape(x_points + 1, h_points + 1)
        t = np.linspace(0.0, 1.0, h_points + 1)
        # the grid values are the table itself, read by row
        value, ax, ah, seeds, npts = _scan(_table_rows(table, xs),
                                           lambda x: np.full_like(x, 0.5), xs, h_points, "t")
        flat = table.ravel()
        expect = np.argsort(flat)[::-1][:8]
        i, j = np.unravel_index(expect, table.shape)
        assert seeds == [(float(xs[a]), float(0.5 * t[b])) for a, b in zip(i, j)]
        assert (value, ax, ah) == (flat[expect[0]], *seeds[0])
        assert npts == flat.size
    # tied cells go to the lower flat index: smaller x, then smaller h
    assert _scan_seed_cells(np.full((9, 12), 3.0)) == [(0, j) for j in range(8)]
    for distinct in (2, 3, 4, 5):
        _assert_seeds_are_top_cells(rng.integers(0, distinct, (40, 17)).astype(float))
    # five cells above, and many tied at, 8th place, scattered over the rows
    table = np.zeros((30, 20))
    table[rng.integers(0, 30, 200), rng.integers(0, 20, 200)] = 1.0
    table[[3, 29, 0, 17, 3], [5, 0, 19, 17, 6]] = [6.0, 5.0, 4.0, 3.0, 2.0]
    cells = _assert_seeds_are_top_cells(table)
    assert cells[:5] == [(3, 5), (29, 0), (0, 19), (17, 17), (3, 6)]
    assert all(table[c] == 1.0 for c in cells[5:])
    # fewer than 8 rows, and fewer than 8 cells
    for shape in ((3, 10), (1, 12), (5, 2), (2, 3)):
        _assert_seeds_are_top_cells(rng.integers(0, 3, shape).astype(float))
    # ties across rows: every row's max is 2 at column 3, three rows hold a
    # second 2, and one cell above; the seeds read the tied rows in order
    table = np.zeros((12, 6))
    table[:, 3] = 2.0
    table[[1, 4, 7], [0, 5, 2]] = 2.0
    table[10, 1] = 5.0
    assert _assert_seeds_are_top_cells(table) == \
        [(10, 1), (0, 3), (1, 0), (1, 3), (2, 3), (3, 3), (4, 3), (4, 5)]
    # row maxima taken block by block, one row per block, with fewer rows
    # than seeds and with ties across rows
    monkeypatch.setattr(moduli, "_SCAN_BLOCK_CELLS", 1)
    assert moduli._REFINE_TOP == 8
    for shape in ((5, 4), (7, 3), (8, 2), (30, 20)):
        _assert_seeds_are_top_cells(rng.integers(0, 3, shape).astype(float))
    assert _assert_seeds_are_top_cells(np.tile([1.0, 3.0, 3.0], (5, 1))) == \
        [(0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)]


def _table_rows(table, xs):
    """A diff for _scan whose values are the rows of table at the sorted
    grid xs, for whichever block of x-rows _scan asks for."""
    return lambda x, h: table[np.searchsorted(xs, x[:, 0])]


def _scan_seed_cells(table):
    """The (row, column) cells that _scan picks as seeds on a table of grid
    values, after checking the value and grid size it reports."""
    rows, cols = table.shape
    xs, t = np.linspace(0.0, 1.0, rows), np.linspace(0.0, 1.0, cols)
    value, ax, ah, seeds, npts = _scan(_table_rows(table, xs),
                                       lambda x: np.full_like(x, 0.5), xs, cols - 1, "t")
    assert (value, ax, ah, npts) == (table.max(), *seeds[0], table.size)
    # the x values and steps differ by row and column, so a seed names its cell
    return [(int(np.flatnonzero(xs == a)[0]), int(np.flatnonzero(0.5 * t == b)[0]))
            for a, b in seeds]


def _assert_seeds_are_top_cells(table):
    cells = _scan_seed_cells(table)
    i, j = np.unravel_index(top_cells(table.ravel(), 8), table.shape)
    assert cells == list(zip(i.tolist(), j.tolist())), table
    return cells


def _scan_inputs(monkeypatch, fn, f, delta):
    """The (diff, hmax, xs, what) that fn(f, delta) hands to its grid scan."""
    seen = []
    with monkeypatch.context() as mp:
        mp.setattr(moduli, "_search", lambda *args: seen.append(args))
        fn(f, delta)
    return seen[0]


@pytest.mark.parametrize("fn", [omega1, omega2, omega2_phi],
                         ids=["omega1", "omega2", "omega2_phi"])
def test_blocked_scan_matches_the_dense_scan_bitwise(fn, monkeypatch):
    # the scan's value, argmax, seeds and size equal those of one full-size
    # diff call.  Neither 2049 nor 2051 rows (omega2_phi adds two corners)
    # fill whole blocks; a block of 300 cells holds 4 rows of 61, so 103 rows
    # end on a short block, and a row of 513 cells is a block by itself
    rows = moduli._SCAN_BLOCK_CELLS // (moduli.H_POINTS + 1)
    assert (moduli.X_POINTS + 1) % rows and (moduli.X_POINTS + 3) % rows
    for f in (SQUARE, CUBE, SINE):
        for delta in (0.1, 1.0 / math.sqrt(50.0)):
            diff, hmax, xs, what = _scan_inputs(monkeypatch, fn, f, delta)
            assert _scan(diff, hmax, xs, moduli.H_POINTS, what) == \
                dense_scan(diff, hmax, xs, moduli.H_POINTS)
            with monkeypatch.context() as mp:
                mp.setattr(moduli, "_SCAN_BLOCK_CELLS", 300)
                for h_points in (60, moduli.H_POINTS):
                    assert _scan(diff, hmax, xs[:103], h_points, what) == \
                        dense_scan(diff, hmax, xs[:103], h_points)


def test_scan_temporaries_stay_within_the_block():
    # the 2051 x 513 table of omega2_phi is 8.4 MB; a full-size evaluation
    # held about five more such arrays at once (a 50 MB peak)
    omega2_phi(SINE, 0.3)
    tracemalloc.start()
    try:
        omega2_phi(SINE, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


@given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 4), st.data())
def test_scan_seeds_follow_the_tie_rule_on_integer_tables(rows, cols, top, data):
    vals = data.draw(st.lists(st.integers(0, top), min_size=rows * cols,
                              max_size=rows * cols))
    _assert_seeds_are_top_cells(np.array(vals, dtype=float).reshape(rows, cols))


@pytest.mark.parametrize("fn", [omega1, omega2, omega2_phi],
                         ids=["omega1", "omega2", "omega2_phi"])
def test_non_finite_f_raises_naming_the_modulus_and_delta(fn):
    nan_above = lambda y: np.where(np.asarray(y) > 0.7, np.nan, np.asarray(y) ** 2)
    all_inf = lambda y: np.full(np.shape(y), np.inf)
    grid = [nan_above, all_inf]
    # finite on the (x, h) grid, whose arrays are 2-D, but not at the 1-D
    # lanes of the refinement
    off_grid = [lambda y, bad=bad: np.asarray(y) ** 2 if np.ndim(y) == 2
                else np.full(np.shape(y), bad) for bad in (np.nan, np.inf)]
    # with breakpoints the exact path evaluates the candidates instead
    exact = [PiecewiseLinearFn((0.0, 0.7, 1.0), (0.0, 0.49, np.nan)),
             PiecewiseLinearFn((0.0, 1.0), (np.inf, np.inf))]
    for f, where in ([(f, "scan") for f in grid] + [(f, "refined") for f in off_grid]
                     + [(f, "candidate") for f in exact]):
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


# ---------------------------------------------------------------------------
# lockstep refinement against the scalar reference


def _assert_lanes_match_scalar_refine(fn, f, delta, grid=None):
    """Run fn(f, delta), on the (x_points, h_points) grid if given, and check
    every lane of its one _refine call against the per-seed scalar
    refinement, bit for bit."""
    calls = []
    lane_refine = moduli._refine

    def record(diff, hmax_fn, x, h, dx, what):
        seeds = (x.copy(), h.copy())
        out = lane_refine(diff, hmax_fn, x, h, dx, what)
        calls.append((diff, hmax_fn, *seeds, dx, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moduli, "_refine", record)
        if grid is not None:
            mp.setattr(moduli, "X_POINTS", grid[0])
            mp.setattr(moduli, "H_POINTS", grid[1])
        fn(f, delta)
    assert len(calls) == 1
    diff, hmax_fn, x, h, dx, (v, rx, rh) = calls[0]
    assert len(v) == len(rx) == len(rh) == len(x)
    for i in range(len(x)):
        want = scalar_refine(diff, hmax_fn, float(x[i]), float(h[i]), dx)
        assert (float(v[i]), float(rx[i]), float(rh[i])) == want, (fn.__name__, delta, i)


@pytest.mark.parametrize("fn, deltas", [
    (omega1, (0.05, 1.0)),
    (omega2, (0.05, 0.5)),
    (omega2_phi, (0.01, 0.3, 1.0)),
], ids=["omega1", "omega2", "omega2_phi"])
def test_lane_refinement_matches_scalar_on_corpus(corpus, fn, deltas):
    for f in corpus.values():
        for delta in deltas:
            _assert_lanes_match_scalar_refine(fn, f, delta)


# the wrapper hides the breakpoints, so the grid path runs on a
# piecewise-linear function; constant functions tie every cell, and ties go
# to the lower flat index, so all 8 seeds are the first cells of the row
# x = 0: for omega2 and omega2_phi hmax(0) = 0, so they reach the refinement
# with h = 0 and skip their h-search, while omega1's run it; each example
# runs 24 scalar reference refinements, so the example count is kept small
@example([0.25, 0.25, 0.25])
@example([-1.0, -1.0, -1.0, -1.0])
@settings(max_examples=8)
@given(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=6))
def test_lane_refinement_matches_scalar_on_piecewise_linear(vals):
    f = PiecewiseLinearFn(tuple(np.linspace(0.0, 1.0, len(vals))), tuple(vals))
    wrapped = lambda y: f(y)
    for fn, delta in ((omega1, 0.4), (omega2, 0.4), (omega2_phi, 0.4)):
        _assert_lanes_match_scalar_refine(fn, wrapped, delta, (256, 64))


def test_omega2_phi_call_budget():
    # the refinement evaluates all seeds per golden-section step, so the
    # user function sees a few hundred vector calls, not one per point: on
    # SINE 726, of which 99 are the scan's (3 per block of x-rows, 33 blocks)
    # and 627 the refinement's
    fn_n = build_fn_lower(10000)
    for f, delta in ((SINE, 0.3), (fn_n, 0.01)):
        calls = 0

        def counted(y):
            nonlocal calls
            calls += 1
            return f(y)

        counted.breakpoints = getattr(f, "breakpoints", None)
        omega2_phi(counted, delta)
        assert 0 < calls <= 1000


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


def _brute_force(fn, f, delta):
    """Max of |difference| over a dense grid of admissible (x, s)."""
    x = np.linspace(0.0, 1.0, 1001).reshape(-1, 1)
    smax = np.minimum(delta, 1.0 - x)
    if fn is not omega1:
        smax = np.minimum(smax, x)
    if fn is omega2_phi:
        smax = np.minimum(smax, delta * np.sqrt(x * (1.0 - x)))
    s = smax * np.linspace(0.0, 1.0, 201)
    up = f(np.minimum(x + s, 1.0))
    if fn is omega1:
        return float(np.max(np.abs(up - f(x))))
    return float(np.max(np.abs(up - 2.0 * f(x) + f(np.maximum(x - s, 0.0)))))


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
# ellipse (x = 0.35485, h = delta; the vertices alone reach 0.69353 of 0.69417)
@example(((0.05, 0.36, 0.75, 0.76), (0.9, -0.6, 0.0, 0.8)))
@example(((0.29, 0.36, 0.56, 0.77), (-0.7, 0.8, 1.0, -0.2)))
@example(((0.17, 0.34, 0.47, 0.81), (-0.18, -0.85, -0.77, 0.73)))
@settings(max_examples=10)
@given(piecewise_linear())
def test_exact_moduli_dominate_brute_force_and_grid(knots):
    f = PiecewiseLinearFn(*knots)
    hidden = lambda y: f(y)  # no breakpoints: the grid path
    for fn, deltas in MODULI_DELTAS:
        for delta in deltas:
            res = fn(f, delta)
            assert res.bound == "exact"
            _assert_attained(fn, f, delta, res)
            assert res.value >= _brute_force(fn, f, delta) - 1e-12
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(moduli, "X_POINTS", 256)
                mp.setattr(moduli, "H_POINTS", 64)
                assert res.value >= fn(hidden, delta).value - 1e-12


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
        assert res.value >= omega2_phi(lambda y: fn(y), n ** -0.5).value - 1e-12


def test_wrong_breakpoints_still_give_an_attained_value():
    # sine is not piecewise linear: the candidates are no longer complete,
    # but each is admissible and evaluated through f
    f = lambda y: np.sin(math.pi * np.asarray(y, dtype=float))
    f.breakpoints = (0.3, 0.7)
    for fn, deltas in MODULI_DELTAS:
        for delta in deltas:
            _assert_attained(fn, f, delta, fn(f, delta))
