"""The scan settings (the modulus search grid constant and the fixed lambda
scan of sup_C with its refinement-gain guard), the ledger of every defaulted
parameter and command-line flag, the one module that imports scipy, and the
guards on non-finite input."""

import argparse
import ast
import importlib
import inspect
import math
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import bcv
from bcv import central, cli, moduli
from bcv.bounds import G_of_lambda, g_of_lambda
from bcv.bernstein import central_moment, krawtchouk
from bcv.central import C_of_lambda, nu, r_of_lambda, sup_C
from bcv.dist import tv_binom_poisson_bound
from bcv.noncentral import J_limit, L_k, finite_n_J_bound


def test_grid_config_defaults():
    # the boundary path of the second moduli searches x_points=2048 and the
    # corners, with no grid of steps h
    assert moduli.X_POINTS == 2048
    assert not hasattr(moduli, "H_POINTS")


def test_sup_search_config_defaults_and_validation(monkeypatch):
    # sup_C scans one fixed grid and takes no arguments
    assert not inspect.signature(sup_C).parameters
    assert central.C_SCAN_POINTS == 100_000
    assert central.C_LAMBDA_MAX == 60.0
    # the refinement-gain guard runs on every call: on a grid too coarse for
    # (0, 60], refinement moves the sup by more than 1e-3
    monkeypatch.setattr(central, "C_SCAN_POINTS", 100)
    with pytest.raises(RuntimeError, match="scan too coarse"):
        sup_C()


def _defaulted_parameters():
    """(qualified name, parameter, default) of every defaulted parameter of
    every function, class and method defined in a bcv module."""
    found = []
    for info in pkgutil.iter_modules(bcv.__path__):
        mod = importlib.import_module(f"bcv.{info.name}")
        for obj in vars(mod).values():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                fns = [f for f in vars(obj).values() if inspect.isfunction(f)]
            elif inspect.isfunction(obj):
                fns = [obj]
            else:
                continue
            for f in fns:
                found.extend((f"{mod.__name__[4:]}.{f.__qualname__}", p.name, p.default)
                             for p in inspect.signature(f).parameters.values()
                             if p.default is not p.empty)
    return sorted(found, key=lambda t: t[:2])


def test_options_ledger():
    # every knob of the package: adding a defaulted parameter or a flag means
    # adding it here
    assert _defaulted_parameters() == [
        ("cli._Check.__init__", "grid", ""),
        ("cli._Check.__init__", "seed", None),
        ("cli._Check.__init__", "tolerance", None),
        ("cli.main", "argv", None),
        ("dist._band_windows", "log_mass", bcv.dist._BAND_LOG_MASS),
        ("dist._blocks", "log_mass", bcv.dist._BAND_LOG_MASS),
        ("noncentral.simulate_J", "grid_points", 64),
        ("search.sup_search", "breaks", None),
        ("search.sup_search", "scan", None),
        ("search.sup_search", "tol", 1e-12),
    ]
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    flags = {name: sorted(s for a in sub._actions for s in a.option_strings)
             for name, sub in subparsers.choices.items()}
    common = ["--format", "--help", "--out", "-h"]
    assert flags == {
        "constants": common,
        "upper": sorted(common + ["--a", "--m"]),
        "lower": sorted(common + ["--n"]),
        "hn": sorted(common + ["--n"]),
        "verify": sorted(common + ["--seed", "--suite"]),
        "sweep": ["--a-range", "--help", "--m", "--out", "--step", "-h"],
    }


def _scipy_use(path):
    """Whether the module at path imports scipy, and the functions (dotted
    from the module, or the module's name at top level) that call gammaln."""
    imports, callers = False, set()

    def visit(node, where):
        nonlocal imports
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                imports |= any(a.name.split(".")[0] == "scipy" for a in child.names)
            elif isinstance(child, ast.ImportFrom):
                imports |= (child.module or "").split(".")[0] == "scipy"
            elif isinstance(child, ast.Call):
                fn = child.func
                if getattr(fn, "id", getattr(fn, "attr", None)) == "gammaln":
                    callers.add(where)
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{where}.{child.name}" if named else where)

    visit(ast.parse(path.read_text()), path.stem)
    return imports, callers


def test_scipy_is_imported_by_dist_alone():
    # every Poisson probability comes from dist._poisson_terms, so of scipy
    # only dist's gammaln (log C(n, k) of the band kernel) and xlogy remain
    paths = sorted(Path(bcv.__file__).parent.glob("*.py"))
    use = {path.name: _scipy_use(path) for path in paths}
    assert {name for name, (imports, _) in use.items() if imports} == {"dist.py"}
    assert set().union(*(callers for _, callers in use.values())) == {"dist._log_comb"}


@pytest.mark.parametrize("call", [lambda: J_limit(13, math.inf),
                                  lambda: nu(math.inf),
                                  lambda: r_of_lambda(math.inf),
                                  lambda: C_of_lambda(np.array([1.0, math.inf])),
                                  lambda: G_of_lambda(math.inf),
                                  lambda: g_of_lambda(math.nan),
                                  lambda: g_of_lambda(np.array([1.0, math.inf])),
                                  lambda: g_of_lambda(-0.5),
                                  lambda: tv_binom_poisson_bound(math.nan, 1.0),
                                  lambda: tv_binom_poisson_bound(math.inf, 1.0),
                                  lambda: tv_binom_poisson_bound(10.5, 1.0),
                                  lambda: central_moment(10, 0.3, math.nan),
                                  lambda: L_k(1, math.inf),
                                  lambda: finite_n_J_bound(10000.5, 13, 7.2),
                                  lambda: finite_n_J_bound(10000, 13.5, 7.2),
                                  lambda: krawtchouk(10, 2.5, 0.3, 1)],
                         ids=["J_limit", "nu", "r_of_lambda", "C_of_lambda", "G_of_lambda",
                              "g_of_lambda", "g_of_lambda_inf", "g_of_lambda_negative",
                              "tv_binom_poisson_bound", "tv_binom_poisson_bound_inf",
                              "tv_binom_poisson_bound_non_integer",
                              "central_moment_nan_k", "L_k_inf", "finite_n_J_bound_non_integer_n",
                              "finite_n_J_bound_non_integer_m", "krawtchouk_non_integer_m"])
def test_non_finite_input_is_rejected(call):
    # unguarded, each returned NaN or a number (the first five NaN after a
    # RuntimeWarning from inf * 0 or inf - inf; g_of_lambda(-0.5) the node
    # value 1.0, tv_binom_poisson_bound 0.0 at n = inf and 0.0568 at n = 10.5,
    # central_moment NaN, L_k(1, inf) 0.0, finite_n_J_bound(10000.5, ...)
    # 0.697) instead of raising; krawtchouk at m = 2.5 raised a TypeError
    with pytest.raises(ValueError):
        call()
