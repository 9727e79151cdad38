"""The benchmark's workloads: their steps and the checks on each step's output.

A step calls ``bcv.cli.main(argv)`` in-process, or a public library function,
and returns its checks (attempted, failed) plus a digest of its output.  A
check fails when a CLI report entry has ``pass: false``, an expected entry
is missing, the exit code is non-zero, the step raises, or a library step's
claim is false.  The digest is the SHA-256 of the report JSON with its
``runtime_ms`` fields removed, or of the CSV text, or of the library result:
it makes a change that moves a number visible, but is not itself a check.

The seed reaches only the Monte Carlo streams: ``bcv verify --seed`` and the
generator handed to ``simulate_J``.
"""

import contextlib
import hashlib
import io
import json
import sys
import time
import traceback
from dataclasses import dataclass

WORKLOADS = ("verify", "witness", "headline")


@dataclass
class StepResult:
    name: str
    attempted: int
    failed: int
    digest: str
    seconds: float


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _call_cli(argv):
    from bcv import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as e:  # argparse usage errors exit 2
            rc = e.code
    return rc, out.getvalue()


def cli_report(argv, entries):
    """A `bcv <cmd> --format json` step expected to report `entries` checks."""
    def run():
        rc, text = _call_cli(list(argv) + ["--format", "json"])
        report = json.loads(text) if text else {"entries": []}
        got = report["entries"]
        failed = sum(not e["pass"] for e in got) + max(0, entries - len(got))
        for e in got:
            e.pop("runtime_ms", None)
        digest = _digest(json.dumps(report, sort_keys=True))
        return max(entries, len(got)) + 1, failed + (rc != 0), digest
    return run, entries + 1


def cli_csv(argv, rows):
    """A CSV-emitting `bcv` step expected to print a header plus `rows` rows."""
    def run():
        rc, text = _call_cli(list(argv))
        got = len(text.splitlines()) - 1
        return 2, (rc != 0) + (got != rows), _digest(text)
    return run, 2


def library(fn):
    """A library step: fn returns (claim holds, JSON-able output)."""
    def run():
        ok, output = fn()
        return 1, int(not ok), _digest(json.dumps(output, sort_keys=True))
    return run, 1


def _witness_modulus():
    from bcv import bounds
    ok = bounds.modulus_upper_check(bounds.build_fn_lower(10_000), 10_000)
    return ok is True, bool(ok)


def _headline_mc(seed):
    import numpy as np
    from bcv import noncentral
    sim = noncentral.simulate_J(10_000, 13, 7.2, 20_000, np.random.default_rng(seed))
    bound = noncentral.finite_n_J_bound(10_000, 13, 7.2)
    return sim.value <= bound + 4.0 * sim.std_error, [sim.value, sim.std_error, bound]


def steps(workload, seed):
    """The workload's steps in order, as (name, run, expected checks)."""
    if workload == "verify":
        plan = [("verify", cli_report(["verify", "--seed", str(seed)], 25))]
    elif workload == "witness":
        plan = [("lower", cli_report(["lower", "--n", "10000"], 4)),
                ("hn", cli_report(["hn", "--n", "10000"], 1)),
                ("modulus_upper", library(_witness_modulus))]
    elif workload == "headline":
        plan = [("constants", cli_report(["constants"], 5)),
                ("upper", cli_report(["upper"], 3)),
                ("sweep", cli_csv(["sweep", "--a-range", "5.0,10.0", "--step", "0.01"], 381)),
                ("mc", library(lambda: _headline_mc(seed)))]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return [(name, run, expected) for name, (run, expected) in plan]


def run_steps(plan, step_context=None):
    """Run each step, recording its checks; a step that raises fails all of
    its expected checks and the next step still runs."""
    results = []
    for name, run, expected in plan:
        ctx = step_context(name) if step_context else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with ctx:
                attempted, failed, digest = run()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            attempted, failed, digest = expected, expected, "raised"
        results.append(StepResult(name, attempted, failed, digest,
                                  time.perf_counter() - t0))
    return results
