"""End-to-end checks of the command-line front end."""

import dataclasses
import itertools
import json
import math
import os
import re
import subprocess
import sys
import threading
from collections.abc import Iterator

import pytest

import bcv
from bcv import bounds, central, cli, moduli
from oracles import brute_force_modulus

SRC = os.path.dirname(os.path.dirname(bcv.__file__))


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    capsys.readouterr()
    return exc.value.code


def strip_runtimes(text):
    return re.sub(r'"runtime_ms": \d+', '"runtime_ms": 0', text)


# ---------------------------------------------------------------------------
# constants


def test_constants_text_passes(capsys):
    code, out, err = run_cli(capsys, "constants")
    assert code == 0
    assert "5/5 checks passed" in out
    assert "[PASS] sup_C:" in out
    # the divergence between the computed flat-envelope sup and the quoted
    # figure is surfaced on stderr, not silently absorbed
    assert "0.9792" in err and "differs by" in err


def test_constants_json_schema(capsys):
    code, out, _ = run_cli(capsys, "constants", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["command"] == "constants"
    assert len(payload["entries"]) == 5
    for entry in payload["entries"]:
        assert set(entry) == {"claim_id", "computed", "reference", "tolerance",
                              "pass", "runtime_ms", "seed", "grid"}
        assert entry["pass"] is True
    ids = [e["claim_id"] for e in payload["entries"]]
    assert "sup_C" in ids and "smooth_class_constant" in ids


def test_constants_flat_envelope_sup_is_closed_form_on_any_grid(capsys, monkeypatch):
    # sup C~ is C~(3/2) with no grid, whatever grid the scan of sup C takes
    monkeypatch.setattr(central, "C_SCAN_POINTS", 12345)
    code, out, _ = run_cli(capsys, "constants", "--format", "json")
    assert code == 0
    entries = {e["claim_id"]: e for e in json.loads(out)["entries"]}
    entry = entries["sup_C_tilde_below_0.99"]
    assert entry["computed"] == central.C_tilde(1.5)
    assert entry["grid"] == ""


def test_constants_rejects_coarse_grid(capsys):
    assert run_cli_usage_error(capsys, "constants", "--grid", "10") == 2


def test_constants_rejects_short_lambda_range(capsys):
    assert run_cli_usage_error(capsys, "constants", "--lambda-max", "30") == 2


@pytest.mark.parametrize("lam", ["inf", "nan"])
def test_constants_rejects_non_finite_lambda_max(capsys, lam):
    with pytest.raises(SystemExit) as exc:
        cli.main(["constants", "--lambda-max", lam])
    assert exc.value.code == 2
    assert "unrecognized arguments: --lambda-max" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--grid", "100"], ["--lambda-max", "100000"]])
def test_constants_too_coarse_scan_is_a_usage_error(capsys, argv):
    # input that once asked for a scan too coarse for its range is now an
    # unknown option: a usage error, not a traceback
    with pytest.raises(SystemExit) as exc:
        cli.main(["constants", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [["--grid", "1000001"],
                                  ["--lambda-max", "100001"]])
def test_constants_rejects_grid_and_range_above_caps(capsys, monkeypatch, argv):
    def no_scan(**kwargs):
        raise AssertionError("scan ran")

    monkeypatch.setattr(cli.central, "sup_C", no_scan)
    monkeypatch.setattr(cli.central, "sup_C_tilde", no_scan)
    with pytest.raises(SystemExit) as exc:
        cli.main(["constants", *argv])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_constants_rejects_negative_and_non_finite_tol(capsys, tol):
    with pytest.raises(SystemExit) as exc:
        cli.main(["constants", "--tol", tol])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--grid", "100000"], ["--lambda-max", "60"],
                                  ["--tol", "0.003"]], ids=["grid", "lambda-max", "tol"])
def test_constants_takes_no_scan_flags(capsys, argv):
    # the scan of sup C and the window of the sup_C claim are fixed, so no
    # value of these flags is accepted, not even the fixed one
    assert run_cli_usage_error(capsys, "constants", *argv) == 2


def test_constants_csv_header(capsys):
    code, out, _ = run_cli(capsys, "constants", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "claim_id,computed,reference,tolerance,pass,runtime_ms,seed,grid"
    assert len(lines) == 6
    assert all(line.count(",") >= 7 for line in lines[1:])


# ---------------------------------------------------------------------------
# upper / lower / hn


def test_upper_default_passes(capsys):
    code, out, _ = run_cli(capsys, "upper")
    assert code == 0
    assert "3/3 checks passed" in out
    assert "a=7.2,m=20,i=13" in out


def test_upper_off_optimum_fails_with_stderr(capsys):
    code, out, err = run_cli(capsys, "upper", "--a", "7.35")
    assert code == 1
    assert "[FAIL] upper_expr_H2_below_74.8" in out
    assert "failing: upper_expr_H2_below_74.8" in err


def test_upper_rejects_bad_a(capsys):
    assert run_cli_usage_error(capsys, "upper", "--a", "-1") == 2


@pytest.mark.parametrize("a", ["nan", "inf", "1e300"])
def test_upper_rejects_non_finite_and_unreachable_a(capsys, a):
    with pytest.raises(SystemExit) as exc:
        cli.main(["upper", "--a", a])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["upper", "sweep"])
def test_huge_m_is_usage_error_not_a_long_run(capsys, cmd):
    # only the argument check runs: a rejected m never reaches the numerics
    with pytest.raises(SystemExit) as exc:
        cli.main([cmd, "--m", str(cli.MAX_M + 1)])
    assert exc.value.code == 2
    assert f"--m <= {cli.MAX_M}" in capsys.readouterr().err


def test_lower_passes(capsys):
    code, out, _ = run_cli(capsys, "lower", "--n", "1000")
    assert code == 0
    assert "4/4 checks passed" in out
    for claim in ("omega2phi_fn", "fn_error_sup", "lower_ratio", "sup_G_minus_g"):
        assert f"[PASS] {claim}:" in out


def test_lower_entries_name_their_own_grids(capsys):
    code, out, _ = run_cli(capsys, "lower", "--n", "1000", "--format", "json")
    assert code == 0
    grids = {e["claim_id"]: e["grid"] for e in json.loads(out)["entries"]}
    om = moduli.omega2_phi(bounds.build_fn_lower(1000), 1.0 / math.sqrt(1000))
    assert om.bound == "exact"
    assert grids == {
        "omega2phi_fn": f"n=1000,bound=exact,candidates={om.grid_points}",
        "fn_error_sup": "n=1000,lambda_points=16000,lambda_max=40,x_points=1024",
        "lower_ratio": "n=1000,omega2phi_fn/fn_error_sup",
        "sup_G_minus_g": "lambda_points=100000,lambda_max=40",
    }


def test_lower_rejects_small_n(capsys):
    assert run_cli_usage_error(capsys, "lower", "--n", "500") == 2


def test_hn_claim_id_carries_n(capsys):
    code, out, _ = run_cli(capsys, "hn", "--n", "200")
    assert code == 0
    assert "[PASS] sup_H_200:" in out
    assert "[x_points=4096,lambda_points=2000,lambda_max=40,arg=" in out
    assert "1/1 checks passed" in out


def test_hn_rejects_small_n(capsys):
    assert run_cli_usage_error(capsys, "hn", "--n", "2") == 2


@pytest.mark.parametrize("cmd, limit", [("lower", cli.MAX_N_LOWER), ("hn", cli.MAX_N_HN)])
@pytest.mark.parametrize("excess", [1, 10 ** 11])
def test_huge_n_is_usage_error_not_traceback(capsys, cmd, limit, excess):
    # only the argument check runs: a rejected n never reaches the numerics
    with pytest.raises(SystemExit) as exc:
        cli.main([cmd, "--n", str(limit + excess)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"--n <= {limit}" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# verify


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "dist")
    assert code == 0
    assert "4/4 checks passed" in out


def test_verify_rejects_unknown_suite(capsys):
    assert run_cli_usage_error(capsys, "verify", "--suite", "bogus") == 2


def test_verify_seed_recorded_in_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "noncentral",
                           "--seed", "42", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    mc = next(e for e in payload["entries"]
              if e["claim_id"] == "noncentral.mc_within_bound")
    assert mc["seed"] == 42 and mc["pass"] is True
    # deterministic entries carry no seed
    assert all(e["seed"] is None for e in payload["entries"]
               if e["claim_id"] != "noncentral.mc_within_bound")


def test_verify_default_seed(capsys):
    _, out, _ = run_cli(capsys, "verify", "--suite", "noncentral",
                        "--format", "json")
    payload = json.loads(out)
    mc = next(e for e in payload["entries"]
              if e["claim_id"] == "noncentral.mc_within_bound")
    assert mc["seed"] == 20240817


def test_json_deterministic_modulo_runtime(capsys):
    _, first, _ = run_cli(capsys, "verify", "--suite", "moduli",
                          "--format", "json")
    _, second, _ = run_cli(capsys, "verify", "--suite", "moduli",
                           "--format", "json")
    assert strip_runtimes(first) == strip_runtimes(second)


def test_verify_checks_run_on_the_calling_thread(capsys, monkeypatch):
    threads = []
    run = cli._Check.run

    def recording_run(self):
        threads.append(threading.get_ident())
        return run(self)

    monkeypatch.setattr(cli._Check, "run", recording_run)
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert "25/25 checks passed" in out
    assert threads == [threading.get_ident()] * 25


def test_verify_moduli_of_piecewise_linear_functions_are_exact(monkeypatch):
    # _VEE and _AFFINE declare their breakpoints, so every modulus that the
    # moduli and bounds suites take of them comes from the exact vertex path,
    # and is at least the brute-force maximum over a dense (x, s) grid
    names = {cli._VEE: "vee", cli._AFFINE: "affine"}
    assert cli._VEE.breakpoints == (0.0, 0.5, 1.0)
    assert cli._AFFINE.breakpoints == (0.0, 1.0)
    taken = []

    def recording(fn):
        def call(f, delta):
            res = fn(f, delta)
            if f in names:
                taken.append((fn, f, delta, res))
            return res
        return call

    for name in ("omega1", "omega2", "omega2_phi"):
        monkeypatch.setattr(moduli, name, recording(getattr(moduli, name)))
    monkeypatch.setattr(bounds, "omega2_phi", moduli.omega2_phi)
    for check in cli._suite_moduli() + cli._suite_bounds():
        if check.claim_id.startswith("moduli.") or check.claim_id == "bounds.modulus_upper_corpus":
            check.thunk()
    monkeypatch.undo()
    assert sorted((fn.__name__, names[f], delta) for fn, f, delta, _ in taken) == sorted(
        [("omega1", "affine", 0.3), ("omega2", "affine", 0.3), ("omega2_phi", "affine", 0.3),
         ("omega2_phi", "vee", 0.1), ("omega2_phi", "vee", 0.2),
         ("omega2_phi", "vee", 1.0 / math.sqrt(10)), ("omega2_phi", "vee", 1.0 / math.sqrt(50))])
    for fn, f, delta, res in taken:
        assert res.bound == "exact"
        assert res.value >= brute_force_modulus(fn.__name__, f, delta) - 1e-12, \
            (fn.__name__, delta)


def test_verify_alpha_check_reads_the_library_iterates(monkeypatch):
    # the check reads noncentral's own recursion, not a copy of it
    (alpha,) = [c for c in cli._suite_noncentral(1)
                if c.claim_id == "noncentral.alpha_decreasing"]
    assert alpha.run()["computed"] == -4.858014087434116e-05
    monkeypatch.setattr(cli.noncentral, "_alpha_iterates", itertools.count)
    entry = alpha.run()
    assert entry["computed"] == 1.0 and not entry["pass"]


def _nan_at(fn, spot):
    """fn, but with the value at index spot NaN: that item of an iterator it
    returns, or else that call's value, the first of a tuple or a
    ModulusResult's value."""
    calls = itertools.count()

    def spoiled(*args):
        out, i = fn(*args), next(calls)
        if isinstance(out, Iterator):
            return (math.nan if j == spot else v for j, v in enumerate(out))
        if i != spot:
            return out
        if isinstance(out, tuple):
            return (math.nan, *out[1:])
        if isinstance(out, moduli.ModulusResult):
            return dataclasses.replace(out, value=math.nan)
        return math.nan

    return spoiled


# A spot of each claim that reduces over spots, never its first: the call
# (or, for the alpha iterates, the item) of module.name whose value is made NaN
@pytest.mark.parametrize("claim_id, module, name, spot", [
    ("dist.tv_bound_dominates", cli.dist, "tv_binom_poisson", 1),
    ("bernstein.krawtchouk_orthogonality", cli.bernstein, "krawtchouk_orthogonality_check", 1),
    ("bernstein.kantorovich_agreement", cli.bernstein, "kantorovich_check", 1),
    ("bernstein.moment_closed_forms", cli.bernstein, "central_moment", 1),
    # omega2 is the second of omega1, omega2 and omega2_phi
    ("moduli.affine_vanishes", moduli, "omega2", 0),
    ("central.I_closed_vs_brute", central, "I_n_closed", 1),
    ("central.H_upper_dominates", central, "H_n_upper", 1),
    ("central.phi_ratio_bound", central, "phi_ratio_moment_sides", 1),
    # a NaN iterate spoils the differences on either side of it
    ("noncentral.alpha_decreasing", cli.noncentral, "_alpha_iterates", 2),
])
def test_verify_spot_reductions_fail_on_one_nan_spot(monkeypatch, claim_id, module, name, spot):
    # Python's max(worst, nan) keeps worst: a running max or min would drop
    # a NaN at any spot but the first, and its claim would pass
    monkeypatch.setattr(module, name, _nan_at(getattr(module, name), spot))
    (check,) = [c for c in cli._SUITES[claim_id.split(".")[0]](0) if c.claim_id == claim_id]
    entry = check.run()
    assert math.isnan(entry["computed"]) and not entry["pass"]


def test_verify_rejects_negative_seed(capsys):
    assert run_cli_usage_error(capsys, "verify", "--seed", "-1") == 2


# ---------------------------------------------------------------------------
# claims as data

# Every claim's (claim_id, relation, bound, tolerance), in entry order.  The
# golden reports print only a claim's value and verdict, so loosening a bound
# (v < 74.8 to v < 80, say) moves no golden byte while the claim passes; this
# table pins the judgements themselves.
CLAIMS = {
    ("constants",): [
        ("sup_C", "==", 0.9827, 0.003),
        ("sup_C_below_0.99", "<", 0.99, None),
        ("sup_C_tilde_below_0.99", "<", 0.99, None),
        ("smooth_class_constant", "==", 15.0477, 1e-3),
        ("K_7.2", "==", 2.8276, 5e-4),
    ],
    ("upper",): [
        ("first_valid_i", "<=", 20, None),
        ("upper_expr_H1_below_74.8", "<", 74.8, None),
        ("upper_expr_H2_below_74.8", "<", 74.8, None),
    ],
    ("lower", "--n", "1000"): [
        ("omega2phi_fn", "in", (3.98, 4.0), None),
        ("fn_error_sup", "<=", 0.80, None),
        ("lower_ratio", ">=", 4.9, None),
        ("sup_G_minus_g", "<=", 0.80, None),
    ],
    ("hn", "--n", "3"): [
        ("sup_H_3", "<=", 1.0, None),
    ],
    ("verify",): [
        ("dist.tv_bound_dominates", "<=", 0.0, None),
        ("dist.stirling_mode_bound", "==", 1225.0, None),
        ("dist.inv_moment_at_0", "==", math.log(4.0), 1e-12),
        ("dist.inv_moment_at_1", "==", math.log(27.0 / 16.0), 1e-12),
        ("bernstein.krawtchouk_orthogonality", "<=", 1e-10, None),
        ("bernstein.derivative_spots", "==", 4.0, None),
        ("bernstein.kantorovich_agreement", "<=", 1e-8, None),
        ("bernstein.moment_closed_forms", "<=", 1e-12, None),
        ("moduli.affine_vanishes", "<=", 1e-10, None),
        ("moduli.quadratic_exact", "<=", 1e-10, None),
        ("moduli.monotone_in_delta", ">=", -1e-12, None),
        ("central.I_closed_vs_brute", "<=", 1e-11, None),
        ("central.H_upper_dominates", ">=", 0.0, None),
        ("central.sup_H_100", "<=", 1.0, None),
        ("central.phi_ratio_bound", ">=", -1e-9, None),
        ("central.I_branch_surrogate", "==", 4.0, None),
        ("noncentral.alpha_decreasing", "<", 0.0, None),
        ("noncentral.L1_closed_form", "<=", 1e-10, None),
        ("noncentral.J21_below_1", "<", 1.0, None),
        ("noncentral.finite_bound_to_limit", "<=", 1e-3, None),
        ("noncentral.mc_within_bound", ">=", 0.0, None),
        ("bounds.upper_below_74.8", "<", 74.8, None),
        ("bounds.smooth_constant", "==", 15.0477, 1e-3),
        ("bounds.modulus_upper_corpus", "==", 8.0, None),
        ("bounds.converse_validators", "==", 4.0, None),
    ],
}


@pytest.mark.parametrize("argv", list(CLAIMS), ids=lambda argv: argv[0])
def test_every_claim_is_one_relation_to_one_bound(monkeypatch, argv):
    emitted = []

    def capture(command, checks, args):
        emitted.extend(checks)
        return 0

    monkeypatch.setattr(cli, "_emit", capture)
    assert cli.main(list(argv)) == 0
    claims = [(c.claim_id, c.relation, c.bound, c.tolerance) for c in emitted]
    assert claims == CLAIMS[argv]
    for claim_id, relation, bound, tolerance in claims:
        assert relation in cli._RELATIONS
        # a tolerance only widens "==" into a reference window
        assert tolerance is None or relation == "=="
        # an id that names its threshold, "..._below_<t>", is judged "< t"
        if "_below_" in claim_id:
            assert (relation, bound) == ("<", float(claim_id.rsplit("_below_", 1)[1]))


@pytest.mark.parametrize("relation, bound, value, ok", [
    ("<", 1.0, 1.0, False), ("<=", 1.0, 1.0, True),
    (">=", 1.0, math.nextafter(1.0, 0.0), False),
    ("==", 4.0, 4.0, True), ("==", 4.0, 4.0 + 1e-15, False),
    ("in", (3.98, 4.0), 3.98, True), ("in", (3.98, 4.0), 4.0, True),
    ("in", (3.98, 4.0), 4.0 + 1e-15, False),
    ("<=", 1.0, math.nan, False), ("in", (3.98, 4.0), math.nan, False)])
def test_relation_table_judges_at_the_bound(relation, bound, value, ok):
    entry = cli._Check("c", lambda: value, relation, bound).run()
    assert entry["pass"] is ok
    assert (entry["reference"], entry["tolerance"]) == (None, None)


def test_a_tolerance_makes_a_reference_window():
    window = cli._Check("c", lambda: 1.25, "==", 1.0, tolerance=0.25).run()
    assert (window["pass"], window["reference"], window["tolerance"]) == (True, 1.0, 0.25)
    assert not cli._Check("c", lambda: 0.7, "==", 1.0, tolerance=0.25).run()["pass"]


# ---------------------------------------------------------------------------
# output plumbing


def test_out_writes_file_and_keeps_stdout_quiet(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "--suite", "moduli",
                           "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["command"] == "verify"


@pytest.mark.parametrize("argv, work", [
    (["upper"], "upper_bound_report"),
    (["sweep", "--a-range", "6.0,7.0"], "sweep_upper"),
])
@pytest.mark.parametrize("where, error", [
    ("missing/report.out", "No such file or directory"),
    (".", "Is a directory"),
])
def test_unwritable_out_is_a_usage_error_before_any_work(capsys, monkeypatch, tmp_path,
                                                         argv, work, where, error):
    # unguarded, every check or sweep row ran and _write then died with a
    # traceback and exit 1, the code of a failed check
    def never(*args):
        raise AssertionError(f"{work} ran")

    monkeypatch.setattr(bounds, work, never)
    out = str(tmp_path / where)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", out])
    assert exc.value.code == 2
    assert f"cannot write --out {out}: {error}" in capsys.readouterr().err


def test_out_probe_leaves_no_file_on_a_usage_error(capsys, tmp_path):
    target = tmp_path / "report.json"
    assert run_cli_usage_error(capsys, "upper", "--a", "-1", "--out", str(target)) == 2
    assert not target.exists()


def test_runs_in_one_process_keep_no_hidden_state(capsys, monkeypatch):
    # each round searches as a fresh process does: no result of one run is
    # kept for the next.  verify's central converse check takes both of its
    # functions in one call, which searches sup H_48 once
    searches, converse = [], []
    search, check = central.sup_search, bounds.central_converse_check

    def spy_search(*args, **kwargs):
        searches.append(args)
        return search(*args, **kwargs)

    def spy_check(f, n):
        converse.append((f, n))
        return check(f, n)

    monkeypatch.setattr(central, "sup_search", spy_search)
    monkeypatch.setattr(bounds, "central_converse_check", spy_check)
    rounds = []
    for _ in range(2):
        searches.clear()
        converse.clear()
        assert run_cli(capsys, "verify", "--seed", "31")[0] == 0
        assert run_cli(capsys, "hn", "--n", "10000")[0] == 0
        rounds.append((len(searches), list(converse)))
    # sup H_100, sup H_48 and sup H_10000
    assert [count for count, _ in rounds] == [3, 3]
    assert all(calls == [([cli._CUBE, cli._SINE], 50)] for _, calls in rounds)


def test_global_flags_must_follow_subcommand(capsys):
    assert run_cli_usage_error(capsys, "--format", "json", "constants") == 2


def test_no_arguments_is_usage_error(capsys):
    assert run_cli_usage_error(capsys) == 2


def test_import_does_not_load_scipy_optimize():
    # every bcv call pays the import; no module needs a root finder
    code = "import sys, bcv; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120, env={**os.environ, "PYTHONPATH": SRC})
    assert out.stdout.strip() == "False"


def test_commands_that_form_no_binomial_row_do_not_load_scipy():
    # of scipy only dist's gammaln (binomial rows) and xlogy (E 1/(y+V))
    # remain, each imported where it is called
    code = ("import contextlib, io, sys\n"
            "from bcv.cli import main\n"
            "for argv in (['upper'], ['constants'], ['lower', '--n', '1000'], ['sweep']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120, env={**os.environ, "PYTHONPATH": SRC})
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# sweep


def test_sweep_csv_and_minimum(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--a-range", "6.9,7.5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "a,i,expr_H1,expr_H2,max"
    rows = [line.split(",") for line in lines[1:]]
    assert all(re.fullmatch(r"\d+\.\d\d", r[0]) for r in rows)
    # the first admissible index steps from 13 to 14 near a = 7.35
    assert all(r[1] == "13" for r in rows if float(r[0]) <= 7.3)
    assert {r[1] for r in rows} <= {"13", "14"}
    # refinement inserts 0.01-step rows around the coarse minimum
    assert any(r[0] == "7.23" for r in rows)
    best = min(rows, key=lambda r: float(r[4]))
    assert best[0] == "7.20"
    assert best[4] == "74.792313"


def test_sweep_rejects_malformed_range(capsys):
    assert run_cli_usage_error(capsys, "sweep", "--a-range", "abc") == 2
    assert run_cli_usage_error(capsys, "sweep", "--a-range", "5.0") == 2
    assert run_cli_usage_error(capsys, "sweep", "--a-range", "7.0,6.0") == 2


def test_sweep_rejects_nonpositive_step(capsys):
    assert run_cli_usage_error(capsys, "sweep", "--step", "0") == 2


def test_sweep_rejects_an_infinite_step(capsys):
    # numpy's arange raised "arange: cannot compute length" instead
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--step", "inf"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "need 0 < a_lo < a_hi and a finite step > 0" in err
    assert "arange" not in err


@pytest.mark.parametrize("argv", [("--step", "1e-9"), ("--a-range", "5,1e12")])
def test_sweep_rejects_oversized_grid(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"at most {cli.MAX_SWEEP_POINTS} grid points" in err
    assert "Traceback" not in err


def test_sweep_caps_grid_points_times_m(capsys, monkeypatch):
    # 10^5 points at m = 10^4 pass each cap alone but would run for hours;
    # only the argument check runs, sweep_upper is never reached
    def never(*args, **kwargs):
        raise AssertionError("sweep_upper ran")

    monkeypatch.setattr(cli.bounds, "sweep_upper", never)
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--m", str(cli.MAX_M), "--step", "5e-5"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"at most {cli.MAX_SWEEP_WORK}" in err
    assert "Traceback" not in err


def test_sweep_rejects_format(capsys):
    # sweep has only a CSV form
    assert run_cli_usage_error(capsys, "sweep", "--format", "json") == 2


def test_sweep_rejects_m_below_first_valid_index(capsys):
    assert run_cli_usage_error(capsys, "sweep", "--m", "0") == 2
