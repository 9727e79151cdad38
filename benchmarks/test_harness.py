"""Self-tests of the benchmark harness; not part of the Tier-1 suite.

    PYTHONPATH=src python -m pytest -q benchmarks/test_harness.py
"""

import importlib
import inspect
import json
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_times_split_children_that_overlap_across_threads():
    # step [0,10] on the main thread; main [0.5,9.5] under it; two pool
    # spans under main on other threads, overlapping on [3,5]; one child of
    # the first pool span on [2,4]
    starts = [0.0, 0.5, 1.0, 2.0, 3.0]
    ends = [10.0, 9.5, 5.0, 4.0, 8.0]
    parents = [-1, 0, 1, 2, 1]
    selfs, uncovered = spans.self_times(starts, ends, parents, -1.0, 11.0)
    assert uncovered == pytest.approx(2.0)
    # a parent loses the union of its children's intervals, not their sum
    assert selfs[0] == pytest.approx(10.0 - 9.0)
    assert selfs[1] == pytest.approx(9.0 - (8.0 - 1.0))
    # concurrent innermost spans share each instant equally
    assert selfs[2] == pytest.approx(1.0 + 0.5)
    assert selfs[3] == pytest.approx(1.0 + 0.5)
    assert selfs[4] == pytest.approx(0.5 + 0.5 + 3.0)
    assert sum(selfs) + uncovered == pytest.approx(12.0)


def test_self_times_of_nested_spans_on_one_thread():
    selfs, uncovered = spans.self_times([0.0, 1.0, 2.0], [6.0, 5.0, 3.0],
                                        [-1, 0, 1], 0.0, 6.0)
    assert selfs == pytest.approx([2.0, 3.0, 1.0])
    assert uncovered == pytest.approx(0.0)


def test_failing_steps_count_against_passed_frac(capsys):
    def boom():
        raise RuntimeError("deliberate")

    plan = [
        # K(5.0) makes the first upper expression undefined: usage error, exit 2
        ("upper_bad_a", *workloads.cli_report(["upper", "--a", "5.0"], 3)),
        ("hn_ok", *workloads.cli_report(["hn", "--n", "100"], 1)),
        ("false_claim", *workloads.library(lambda: (False, 0.0))),
        ("raises", *workloads.library(boom)),
    ]
    results = workloads.run_steps(plan)
    assert [(r.attempted, r.failed) for r in results] == [(4, 4), (2, 0), (1, 1), (1, 1)]
    rep = {"steps": [vars(r) for r in results]}
    attempted, failed = run.check_totals([rep, rep])
    assert (attempted, failed) == (2 * 8 + 4, 2 * 6)
    assert "deliberate" in capsys.readouterr().err


def test_digest_mismatch_between_repetitions_is_a_failed_check():
    a = {"steps": [{"name": "s", "digest": "x", "attempted": 1, "failed": 0}]}
    b = {"steps": [{"name": "s", "digest": "y", "attempted": 1, "failed": 0}]}
    assert run.check_totals([a, b]) == (3, 1)


def _small_plan():
    from bcv import bounds
    return [
        ("hn", *workloads.cli_report(["hn", "--n", "40"], 1)),
        ("verify_moduli", *workloads.cli_report(["verify", "--suite", "moduli"], 3)),
        ("verify_noncentral",
         *workloads.cli_report(["verify", "--suite", "noncentral", "--seed", "3"], 5)),
        ("modulus", *workloads.library(
            lambda: (bounds.modulus_upper_check(bounds.build_fn_lower(200), 200), 0))),
    ]


def _bindings():
    import bcv
    namespaces = [bcv] + [importlib.import_module(f"bcv.{m}") for m in spans.LAYERS]
    out = {(ns.__name__, k): v for ns in namespaces for k, v in vars(ns).items()}
    from bcv import cli, dist
    out[("BinomialLaw", "pmf_vector")] = dist.BinomialLaw.__dict__["pmf_vector"]
    out[("_Check", "run")] = cli._Check.__dict__["run"]
    return out


def _traced_run():
    tracer = spans.Tracer()
    tracer.install()
    try:
        import time
        t0 = time.perf_counter()
        results = workloads.run_steps(_small_plan(), tracer.step)
        t1 = time.perf_counter()
    finally:
        tracer.restore()
    assert all(r.failed == 0 for r in results)
    return tracer, tracer.metrics(t0, t1)


def test_tracer_wraps_every_binding_and_restores_it():
    from bcv import bounds, central, moduli, search
    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        for mod in (central, moduli, bounds):
            assert mod.golden_max is not search.golden_max.__bench_original__
            assert mod.golden_max.__bench_original__ is before[("bcv.search", "golden_max")]
        assert bounds.bernstein_derivative.__bench_original__ is \
            before[("bcv.bernstein", "bernstein_derivative")]
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    _traced_run()
    assert all(_bindings()[k] is before[k] for k in before)


def test_every_public_function_is_wrapped():
    tracer = spans.Tracer()
    tracer.install()
    try:
        for layer in spans.LAYERS:
            mod = importlib.import_module(f"bcv.{layer}")
            for name, obj in vars(mod).items():
                if name.startswith("_") or not callable(obj) or inspect.isclass(obj):
                    continue
                original = getattr(obj, "__bench_original__", obj)
                if inspect.isfunction(original) and original.__module__.startswith("bcv."):
                    assert obj is not original, f"bcv.{layer}.{name} not wrapped"
    finally:
        tracer.restore()


def test_counts_repeat_and_self_times_add_up_to_wall():
    # Tracer.metrics raises unless layer self times plus un-spanned time
    # equal the traced wall time
    tracer_a, a = _traced_run()
    _, b = _traced_run()
    counts = [k for k in a if not k.endswith("_s")]
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}
    assert a["cli.checks"] == 9 and a["central.H_n_evals"] > 0
    assert a["search.golden_evals"] > a["search.golden_calls"] > 0
    assert a["noncentral.mc_draws"] == 20000 * 64 * 1
    # the single hn check runs inline; the suites' checks run on the pool,
    # and every check span hangs under the step
    from bcv import cli
    assert a["cli.pool_checks"] == (8 if cli._threads() > 1 else 0)
    ids = [i for i, n in enumerate(tracer_a.names) if n == "cli._Check.run"]
    assert all(tracer_a.parents[i] >= 0 for i in ids)


def test_pool_thread_spans_parent_to_the_step_threads_open_span():
    tracer = spans.Tracer()
    with tracer.step("s"):
        outer = tracer._open("cli.main")
        seen = []

        def work():
            sid = tracer._open("cli.check")
            tracer._close(sid)
            seen.append(sid)

        worker = threading.Thread(target=work)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        tracer._close(outer)
    assert tracer.parents[seen[0]] == outer
    assert tracer.parents[outer] == 0


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    _, layers = _traced_run()
    printed = set(layers) | {"setup.numpy_s", "setup.scipy_s", "setup.bcv_s",
                             "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == printed
    assert {m["name"] for m in spec["end_to_end"]} == \
        {"setup_s", "wall_s", "cpu_s", "peak_rss_mb", "passed_frac"}
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_summary_reports_a_tail_percentile_only_with_ten_samples_beyond():
    assert run.summary([1.0, 2.0, 3.0])["tail"] is None
    s = run.summary([float(i) for i in range(1, 101)])
    assert s["median"] == 50.5 and s["n"] == 100
    assert s["tail"] == {"p": 90, "value": 90.0}


def test_child_times_are_scaled_to_the_reference_speed():
    half_speed = 2 * run.REF_PROBE_S
    rep = {"setup_s": 0.6, "wall_s": 8.0, "cpu_s": 9.0, "peak_rss_mb": 180.0,
           "setup": {"setup.numpy_s": 0.2}, "layers": {"dist.pmf_s": 4.0, "dist.pmf_rows": 7},
           "steps": [{"name": "verify", "seconds": 8.0}]}
    out = run.to_reference_speed(rep, half_speed)
    assert out["raw"] == {"setup_s": 0.6, "wall_s": 8.0, "cpu_s": 9.0}
    assert (out["setup_s"], out["wall_s"], out["cpu_s"]) == pytest.approx((0.3, 4.0, 4.5))
    assert out["setup"]["setup.numpy_s"] == pytest.approx(0.1)
    assert out["layers"] == pytest.approx({"dist.pmf_s": 2.0, "dist.pmf_rows": 7})
    assert out["steps"][0]["seconds"] == pytest.approx(4.0)
    assert out["peak_rss_mb"] == 180.0 and out["probe_s"] == half_speed


def test_speed_probe_samples_at_least_once_and_stops():
    with run.SpeedProbe() as probe:
        pass
    assert not probe._thread.is_alive()
    assert len(probe.samples) >= 1 and probe.probe_s() > 0
