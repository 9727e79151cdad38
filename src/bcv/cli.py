"""Command-line front end.

Subcommands map the headline claims to runnable checks:

  constants   sup of C and its flat variant, the smooth-class constant, K(7.2)
  upper       the two upper-bound expressions at (a, m)
  lower       the lower-bound witness report at one n
  hn          sup over x of H_n
  verify      per-module check suites
  sweep       CSV table of the upper-bound expressions over an a-grid

Reports are emitted as JSON, CSV, or text; exit code 0 means every entry
passed, 1 means at least one failed, 2 means usage error.  Identical flags
and seed give byte-identical JSON up to the runtime_ms fields.
"""

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import bernstein, bounds, central, dist, moduli, noncentral

SCHEMA = 1
DEFAULT_SEED = 20240817
# Largest --n accepted: lower takes about 1 s and 120 MB at n = 10^8 (it
# holds no (n+1)-entry array); hn takes about 2 s at n = 10^6, and stops
# there because log C(n, k) from gammaln carries about 3e-8 relative error
# per entry at 10^7.
MAX_N_LOWER = 10 ** 8
MAX_N_HN = 10 ** 6
# Largest --m accepted by upper and sweep: upper_expr_H2 sums m J values,
# about 0.1 s at m = 10^4 and 11 s at 10^6.
MAX_M = 10 ** 4
# Most a-grid points in a sweep, (hi - lo) / step: about 0.3 ms each at
# m = 20, so 10^5 points take about 30 s.
MAX_SWEEP_POINTS = 10 ** 5
# Most a-grid points times m, as a point's cost grows with m: 10^5 at m = 20.
MAX_SWEEP_WORK = 20 * MAX_SWEEP_POINTS


@dataclass(frozen=True)
class ReportEntry:
    claim_id: str
    computed: float
    reference: float
    tolerance: float
    passed: bool
    runtime_ms: int
    seed: int
    grid: str


class _Check:
    """One claim: a thunk plus either a reference window or a predicate."""

    def __init__(self, claim_id, thunk, reference=None, tolerance=None,
                 predicate=None, seed=None, grid=""):
        self.claim_id = claim_id
        self.thunk = thunk
        self.reference = reference
        self.tolerance = tolerance
        self.predicate = predicate
        self.seed = seed
        self.grid = grid

    def run(self):
        t0 = time.perf_counter()
        value = float(self.thunk())
        ms = int(round((time.perf_counter() - t0) * 1000.0))
        if self.reference is not None:
            ok = abs(value - self.reference) <= self.tolerance
        else:
            ok = bool(self.predicate(value))
        return ReportEntry(self.claim_id, value, self.reference, self.tolerance,
                           ok, ms, self.seed, self.grid)


def _render_json(command, entries):
    payload = {
        "schema": SCHEMA,
        "command": command,
        "entries": [{
            "claim_id": e.claim_id,
            "computed": e.computed,
            "reference": e.reference,
            "tolerance": e.tolerance,
            "pass": e.passed,
            "runtime_ms": e.runtime_ms,
            "seed": e.seed,
            "grid": e.grid,
        } for e in entries],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _render_csv(entries):
    lines = ["claim_id,computed,reference,tolerance,pass,runtime_ms,seed,grid"]
    for e in entries:
        ref = "" if e.reference is None else repr(e.reference)
        tol = "" if e.tolerance is None else repr(e.tolerance)
        seed = "" if e.seed is None else str(e.seed)
        lines.append(f"{e.claim_id},{e.computed!r},{ref},{tol},"
                     f"{str(e.passed).lower()},{e.runtime_ms},{seed},\"{e.grid}\"")
    return "\n".join(lines) + "\n"


def _render_text(entries):
    lines = []
    for e in entries:
        tag = "PASS" if e.passed else "FAIL"
        extra = ""
        if e.reference is not None:
            extra = f"  (reference {e.reference:g}, tol {e.tolerance:g})"
        if e.grid:
            extra += f"  [{e.grid}]"
        lines.append(f"[{tag}] {e.claim_id}: {e.computed:.10g}{extra}")
    npass = sum(e.passed for e in entries)
    lines.append(f"{npass}/{len(entries)} checks passed")
    return "\n".join(lines) + "\n"


def _write(text, out):
    """Write text to the file out, or to stdout when out is None."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(command, checks, args):
    """Run the checks, write their report and return the exit code."""
    entries = [c.run() for c in checks]
    if args.format == "json":
        text = _render_json(command, entries)
    elif args.format == "csv":
        text = _render_csv(entries)
    else:
        text = _render_text(entries)
    _write(text, args.out)
    failing = [e.claim_id for e in entries if not e.passed]
    if failing:
        print("failing: " + ", ".join(failing), file=sys.stderr)
        return 1
    return 0


def _cmd_constants(args):
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise _Usage("need a finite --tol >= 0")
    try:
        sup_c = central.sup_C(lambda_max=args.lambda_max, points=args.grid)
        sup_ct = central.sup_C_tilde(lambda_max=args.lambda_max, points=args.grid)
    except ValueError as e:
        raise _Usage(str(e))
    desc = f"points={args.grid},lambda_max={args.lambda_max:g}"
    gap = abs(sup_ct.sup_value - 0.9792)
    print(f"note: sup of C~ computed as {sup_ct.sup_value:.6f}; quoted value "
          f"0.9792 differs by {gap:.2e}; the asserted claim is < 0.99",
          file=sys.stderr)
    checks = [
        _Check("sup_C", lambda: sup_c.sup_value,
              reference=0.9827, tolerance=args.tol, grid=desc),
        _Check("sup_C_below_0.99", lambda: sup_c.sup_value,
              predicate=lambda v: v < 0.99, grid=desc),
        _Check("sup_C_tilde_below_0.99", lambda: sup_ct.sup_value,
              predicate=lambda v: v < 0.99, grid=desc),
        _Check("smooth_class_constant", bounds.smooth_class_constant,
              reference=15.0477, tolerance=1e-3),
        _Check("K_7.2", lambda: central.K_func(7.2),
              reference=2.8276, tolerance=5e-4),
    ]
    return _emit("constants", checks, args)


def _cmd_upper(args):
    if args.a <= 0.0 or not 1 <= args.m <= MAX_M:
        raise _Usage(f"need --a > 0 and 1 <= --m <= {MAX_M}")
    try:
        rep = bounds.upper_bound_report(args.a, args.m)
    except ValueError as e:
        raise _Usage(str(e))
    desc = f"a={rep.a:g},m={rep.m},i={rep.i}"
    checks = [
        _Check("first_valid_i", lambda: float(rep.i),
              predicate=lambda v: v <= rep.m, grid=desc),
        _Check("upper_expr_H1_below_74.8", lambda: rep.expr_H1,
              predicate=lambda v: v < 74.8, grid=desc),
        _Check("upper_expr_H2_below_74.8", lambda: rep.expr_H2,
              predicate=lambda v: v < 74.8, grid=desc),
    ]
    return _emit("upper", checks, args)


def _cmd_lower(args):
    if not 1000 <= args.n <= MAX_N_LOWER:
        raise _Usage(f"need 1000 <= --n <= {MAX_N_LOWER}")
    rep = bounds.lower_bound_ratio(args.n)
    desc = f"n={rep.n},x_points={moduli.X_POINTS},h_points={moduli.H_POINTS}"
    checks = [
        _Check("omega2phi_fn", lambda: rep.omega2phi,
              predicate=lambda v: 3.98 <= v <= 4.0, grid=desc),
        _Check("fn_error_sup", lambda: rep.sup_err,
              predicate=lambda v: v <= 0.80, grid=desc),
        _Check("lower_ratio", lambda: rep.ratio,
              predicate=lambda v: v >= 4.9, grid=desc),
        _Check("sup_G_minus_g", lambda: rep.sup_G_minus_g,
              predicate=lambda v: v <= 0.80, grid=desc),
    ]
    return _emit("lower", checks, args)


def _cmd_hn(args):
    if not 3 <= args.n <= MAX_N_HN:
        raise _Usage(f"need 3 <= --n <= {MAX_N_HN}")
    res = central.sup_H_n(args.n)
    checks = [
        _Check(f"sup_H_{args.n}", lambda: res.sup_value,
              predicate=lambda v: v <= 1.0,
              grid=f"x_points={central.H_SCAN_POINTS},arg={res.arg:.6g}"),
    ]
    return _emit("hn", checks, args)


def _suite_dist():
    def tv_gap():
        worst = -math.inf
        for n in (10, 20, 50):
            for lam in (0.5, 1.0, 2.0):
                d = dist.tv_distance(dist.BinomialLaw(n, lam / n),
                                     dist.PoissonLaw(lam))
                worst = max(worst, d - dist.tv_binom_poisson_bound(n, lam))
        return worst

    def stirling_all():
        return float(sum(np.sum(dist.stirling_mode_bound_check(n, np.arange(1, n)))
                         for n in range(2, 51)))

    return [
        _Check("dist.tv_bound_dominates", tv_gap, predicate=lambda v: v <= 0.0,
              grid="n in {10,20,50}, lambda in {0.5,1,2}"),
        _Check("dist.stirling_mode_bound", stirling_all,
              predicate=lambda v: v == 1225.0, grid="n <= 50, all modes"),
        _Check("dist.inv_moment_at_0", lambda: dist.inv_moment_shift_V(0.0),
              reference=math.log(4.0), tolerance=1e-12),
        _Check("dist.inv_moment_at_1", lambda: dist.inv_moment_shift_V(1.0),
              reference=math.log(27.0 / 16.0), tolerance=1e-12),
    ]


def _suite_bernstein():
    cube = lambda y: np.asarray(y) ** 3

    def ortho_gap():
        worst = 0.0
        for r, m in ((1, 1), (2, 2), (3, 3), (1, 2), (0, 3)):
            c, e = bernstein.krawtchouk_orthogonality_check(12, 0.3, r, m)
            worst = max(worst, abs(c - e) / max(1.0, abs(e)))
        return worst

    def deriv_spots():
        count = 0
        for n, m, x in ((10, 1, 0.3), (15, 2, 0.5), (20, 3, 0.25), (30, 2, 0.9)):
            bernstein.bernstein_derivative(cube, n, m, x)
            count += 1
        return float(count)

    def kantorovich_gap():
        dm = {1: lambda y: 3.0 * np.asarray(y) ** 2,
              2: lambda y: 6.0 * np.asarray(y),
              3: lambda y: 6.0 * np.ones_like(np.asarray(y, dtype=float))}
        worst = 0.0
        for m in (1, 2, 3):
            lhs, rhs = bernstein.kantorovich_check(cube, dm[m], 10, m, 0.3)
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
        return worst

    def moment_gap():
        worst = 0.0
        for n in (10, 40):
            for k in (2, 4, 6):
                a = bernstein.central_moment(n, 0.3, k)
                b = bernstein.central_moment_closed(n, 0.3, k)
                worst = max(worst, abs(a - b) / max(abs(b), 1e-300))
        return worst

    return [
        _Check("bernstein.krawtchouk_orthogonality", ortho_gap,
              predicate=lambda v: v <= 1e-10, grid="n=12, x=0.3"),
        _Check("bernstein.derivative_spots", deriv_spots,
              predicate=lambda v: v == 4.0, grid="4 (n,m,x) spots"),
        _Check("bernstein.kantorovich_agreement", kantorovich_gap,
              predicate=lambda v: v <= 1e-8, grid="n=10, x=0.3, m in {1,2,3}"),
        _Check("bernstein.moment_closed_forms", moment_gap,
              predicate=lambda v: v <= 1e-12, grid="n in {10,40}, x=0.3"),
    ]


def _suite_moduli():
    affine = lambda y: 2.0 * np.asarray(y) - 0.25
    square = lambda y: np.asarray(y) ** 2
    vee = lambda y: np.abs(np.asarray(y) - 0.5)
    return [
        _Check("moduli.affine_vanishes",
              lambda: max(moduli.omega1(affine, 0.3).value - 0.3 * 2.0,
                          moduli.omega2(affine, 0.3).value,
                          moduli.omega2_phi(affine, 0.3).value),
              predicate=lambda v: abs(v) <= 1e-10, grid="delta=0.3"),
        _Check("moduli.quadratic_exact",
              lambda: abs(moduli.omega2_phi(square, 0.2).value - 0.02),
              predicate=lambda v: v <= 1e-10, grid="delta=0.2"),
        _Check("moduli.monotone_in_delta",
              lambda: moduli.omega2_phi(vee, 0.2).value
              - moduli.omega2_phi(vee, 0.1).value,
              predicate=lambda v: v >= -1e-12, grid="delta 0.1 vs 0.2"),
    ]


def _suite_central():
    def closed_vs_brute():
        worst = 0.0
        for n in (1, 3, 50, 200):
            for x in (0.01, 0.25, 0.5, 0.9):
                a = central.I_n_closed(n, x)
                b = central.I_n_brute(n, x)
                worst = max(worst, abs(a - b) / max(1.0, abs(b)))
        return worst

    def upper_margin():
        worst = math.inf
        for n in (10, 100):
            for x in (0.05, 0.2, 0.35, 0.5):
                worst = min(worst, central.H_n_upper(n, x) - central.H_n_exact(n, x))
        return worst

    def ratio_margin():
        worst = math.inf
        for m in (2, 3):
            for x in (0.2, 0.5, 0.8):
                for z in (0.1, 0.5, 0.9):
                    lhs, rhs = central.phi_ratio_moment_sides(m, x, z)
                    worst = min(worst, rhs - lhs)
        return worst

    def branch_spots():
        return float(sum(bool(central.I_n_branch_check(1000, x, lambda0=10.0))
                         for x in (0.001, 0.003, 0.006, 0.009)))

    return [
        _Check("central.I_closed_vs_brute", closed_vs_brute,
              predicate=lambda v: v <= 1e-11, grid="n in {1,3,50,200}"),
        _Check("central.H_upper_dominates", upper_margin,
              predicate=lambda v: v >= 0.0, grid="n in {10,100}"),
        _Check("central.sup_H_100", lambda: central.sup_H_n(100).sup_value,
              predicate=lambda v: v <= 1.0,
              grid=f"x_points={central.H_SCAN_POINTS}"),
        _Check("central.phi_ratio_bound", ratio_margin,
              predicate=lambda v: v >= -1e-9, grid="m in {2,3}, 3x3 (x,z)"),
        _Check("central.I_branch_surrogate", branch_spots,
              predicate=lambda v: v == 4.0, grid="n=1000, lambda0=10"),
    ]


def _suite_noncentral(seed):
    def alpha_drop():
        worst = -math.inf
        prev = 1.0
        for _ in range(200):
            cur = -math.expm1(-prev)
            worst = max(worst, cur - prev)
            prev = cur
        return worst

    def mc_margin():
        rng = np.random.default_rng(seed)
        sim = noncentral.simulate_J(1000, 1, 0.9, 20000, rng)
        bound = noncentral.finite_n_J_bound(1000, 1, 0.9)
        return bound + 4.0 * sim.std_error - sim.value

    return [
        _Check("noncentral.alpha_decreasing", alpha_drop,
              predicate=lambda v: v < 0.0, grid="200 iterates at theta=1"),
        _Check("noncentral.L1_closed_form",
              lambda: abs(noncentral.L_k(1, 7.2) - (-math.expm1(-7.2)) / 7.2),
              predicate=lambda v: v <= 1e-10),
        _Check("noncentral.J21_below_1", lambda: noncentral.J_limit(21, 7.2),
              predicate=lambda v: v < 1.0),
        _Check("noncentral.finite_bound_to_limit",
              lambda: abs(noncentral.finite_n_J_bound(10 ** 6, 13, 7.2)
                          / noncentral.J_limit(13, 7.2) - 1.0),
              predicate=lambda v: v <= 1e-3, grid="n=1e6, m=13, a=7.2"),
        _Check("noncentral.mc_within_bound", mc_margin,
              predicate=lambda v: v >= 0.0, seed=seed,
              grid="n=1000, m=1, a=0.9, trials=20000"),
    ]


def _suite_bounds():
    square = lambda y: np.asarray(y) ** 2
    cube = lambda y: np.asarray(y) ** 3
    vee = lambda y: np.abs(np.asarray(y) - 0.5)
    sine = lambda y: np.sin(math.pi * np.asarray(y))

    def modulus_corpus():
        return float(sum(bool(bounds.modulus_upper_check(f, n))
                         for f in (square, cube, vee, sine) for n in (10, 50)))

    def validators():
        count = 0
        for res in (bounds.central_converse_check(cube, 50),
                    bounds.central_converse_check(sine, 50),
                    bounds.iterate_converse_check(cube, 50),
                    bounds.noncentral_converse_check(cube, 200)):
            if res.holds or not res.binding:
                count += 1
        return float(count)

    return [
        _Check("bounds.upper_below_74.8",
              lambda: bounds.upper_bound_report(7.2, 20).max,
              predicate=lambda v: v < 74.8, grid="a=7.2, m=20"),
        _Check("bounds.smooth_constant", bounds.smooth_class_constant,
              reference=15.0477, tolerance=1e-3),
        _Check("bounds.modulus_upper_corpus", modulus_corpus,
              predicate=lambda v: v == 8.0, grid="4 functions, n in {10,50}"),
        _Check("bounds.converse_validators", validators,
              predicate=lambda v: v == 4.0, grid="n in {50,200}"),
    ]


_SUITES = {
    "dist": lambda seed: _suite_dist(),
    "bernstein": lambda seed: _suite_bernstein(),
    "moduli": lambda seed: _suite_moduli(),
    "central": lambda seed: _suite_central(),
    "noncentral": _suite_noncentral,
    "bounds": lambda seed: _suite_bounds(),
}


def _cmd_verify(args):
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    seed = DEFAULT_SEED if args.seed is None else args.seed
    if seed < 0:
        raise _Usage("need --seed >= 0")
    checks = []
    for name in names:
        checks.extend(_SUITES[name](seed))
    return _emit("verify", checks, args)


def _cmd_sweep(args):
    try:
        lo, hi = (float(t) for t in args.a_range.split(","))
    except ValueError:
        raise _Usage("--a-range must look like 5.0,10.0")
    if not (0.0 < lo < hi) or args.step <= 0.0:
        raise _Usage("need 0 < lo < hi and --step > 0")
    if (hi - lo) / args.step > MAX_SWEEP_POINTS:
        raise _Usage(f"need at most {MAX_SWEEP_POINTS} grid points in --a-range")
    if not 1 <= args.m <= MAX_M:
        raise _Usage(f"need 1 <= --m <= {MAX_M}")
    if (hi - lo) / args.step * args.m > MAX_SWEEP_WORK:
        raise _Usage(f"need grid points times --m at most {MAX_SWEEP_WORK}")
    try:
        reports = bounds.sweep_upper(lo, hi, args.step, args.m)
    except ValueError as e:
        raise _Usage(str(e))
    lines = ["a,i,expr_H1,expr_H2,max"]
    lines.extend(f"{r.a:.2f},{r.i},{r.expr_H1:.6f},{r.expr_H2:.6f},{r.max:.6f}"
                 for r in reports)
    _write("\n".join(lines) + "\n", args.out)
    return 0


class _Usage(Exception):
    pass


def build_parser():
    p = argparse.ArgumentParser(
        prog="bcv",
        description="numerical checks for Bernstein-operator converse bounds")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "text"),
                        default="text")
    common.add_argument("--out", metavar="FILE", default=None)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("constants", parents=[common],
                       help="envelope constants and their sups")
    c.add_argument("--grid", type=int, default=100_000)
    c.add_argument("--lambda-max", type=float, default=60.0)
    c.add_argument("--tol", type=float, default=0.003)
    c.set_defaults(fn=_cmd_constants)

    u = sub.add_parser("upper", parents=[common],
                       help="upper-bound expressions at (a, m)")
    u.add_argument("--a", type=float, default=7.2)
    u.add_argument("--m", type=int, default=20)
    u.set_defaults(fn=_cmd_upper)

    lo = sub.add_parser("lower", parents=[common],
                        help="lower-bound witness report")
    lo.add_argument("--n", type=int, default=10_000)
    lo.set_defaults(fn=_cmd_lower)

    h = sub.add_parser("hn", parents=[common], help="sup over x of H_n")
    h.add_argument("--n", type=int, default=500)
    h.set_defaults(fn=_cmd_hn)

    v = sub.add_parser("verify", parents=[common],
                       help="per-module check suites")
    v.add_argument("--suite", choices=tuple(_SUITES) + ("all",), default="all")
    v.add_argument("--seed", type=int, default=None)
    v.set_defaults(fn=_cmd_verify)

    s = sub.add_parser("sweep", help="CSV sweep of the upper expressions")
    s.add_argument("--out", metavar="FILE", default=None)
    s.add_argument("--a-range", default="5.0,10.0")
    s.add_argument("--step", type=float, default=0.1)
    s.add_argument("--m", type=int, default=20)
    s.set_defaults(fn=_cmd_sweep)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _Usage as e:
        parser.error(str(e))  # exits 2


if __name__ == "__main__":
    sys.exit(main())
