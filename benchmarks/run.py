"""End-to-end and per-layer benchmark of bcv's verdicts.

    python3 benchmarks/run.py --workload verify --seed 1 --seconds 30 --trace 0

Run from anywhere; the checkout is the parent of this directory, and the
program is run from its sources under src/.  Workloads (see BENCHMARK.json
for why each was chosen and which layers it exercises or bypasses):

  verify    bcv verify --seed <seed>: 6 suites, 25 checks, many small-n calls
  witness   bcv lower --n 10000, bcv hn --n 10000, then
            modulus_upper_check(build_fn_lower(10000), 10000): bulk pmf rows
  headline  bcv constants, bcv upper, bcv sweep --a-range 5.0,10.0
            --step 0.01, then simulate_J(10000, 13, 7.2, 20000, rng(seed))

Every repetition runs in a fresh interpreter (benchmarks/child.py), one
child at a time, with BCV_THREADS removed from its environment so the
default check-runner pool is what gets measured.  A run first compiles the
bytecode cache, times set-up alone in SETUP_RUNS children, then repeats the
workload while the next repetition is expected to end within --seconds
(at least MIN_REPS times).  Reported values are medians over the run.

Times are given at a reference CPU speed.  On a shared host the speed of
the whole machine changes by 30-60 % within seconds, for both vCPUs at
once, so raw times of the same code spread past any useful bound.  While
a child runs, a thread of this process (otherwise idle, waiting for the
child) times a fixed pure-Python loop every PROBE_EVERY_S in its own
thread CPU time, so waiting while the child runs does not count.  Every
time the child reports is multiplied by REF_PROBE_S / (median probe time
during that child): it is the time the child would have taken on a
machine where the probe takes REF_PROBE_S.  The raw times are kept in the
detail line as raw.setup_s, raw.wall_s and raw.cpu_s, with the probe's
median as probe_s.  The probe removes the machine-wide part of the noise
(most of it on set-up and headline); it does not see what slows only the
bulk numpy work of witness, nor the check pool's GIL hand-offs on verify,
so those two keep a run-to-run spread of about 10 %.

--trace 0 prints the end-to-end metrics (times at the reference speed):
  setup_s      import numpy, scipy and bcv.cli plus build_parser()
  wall_s       wall time of the workload's steps after set-up
  cpu_s        user plus system CPU time of the child over the same interval
  peak_rss_mb  the child's ru_maxrss
  passed_frac  checks passed / checks attempted (1 - the failed share)
--trace 1 alternates untraced and traced repetitions and prints the
per-layer metrics of the traced ones (counts, self times) plus
trace.overhead_s, traced minus untraced wall_s.  The spans of the last
traced repetition are written to .bench_out/ in the checkout.

Every line but the last is detail (samples, percentiles, digests,
environment); the last line is the result object.  A failed check makes
"correct" false; a harness error exits non-zero without printing a result.
"""

import argparse
import compileall
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 3
MIN_REPS = 2
# The whole run must end within 180 s; no child starts past this point.
BUDGET_S = 170.0
# The speed probe: every PROBE_EVERY_S, the fastest of PROBE_REPEATS timings
# of a PROBE_LOOPS-iteration pure-Python loop (taking the fastest drops the
# ones the child's threads interrupted).  On a 2-vCPU Xeon KVM guest one
# loop takes 0.23-0.36 ms, so the probe uses about 3 % of one vCPU.
# REF_PROBE_S, the loop time that defines the reference speed, is about
# that machine's fastest state, so reported times read about as raw times
# on a quiet machine.
PROBE_LOOPS = 4_000
PROBE_REPEATS = 5
PROBE_EVERY_S = 0.05
REF_PROBE_S = 2.5e-4


class HarnessError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env.pop("BCV_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def probe_loop():
    s = 0.0
    for i in range(PROBE_LOOPS):
        s += math.sqrt(i)
    return s


class SpeedProbe:
    """Times probe_loop() in a thread, in that thread's CPU time, once at
    the start and then every PROBE_EVERY_S until the block ends; each
    sample is the fastest of PROBE_REPEATS timings."""

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while True:
            best = math.inf
            for _ in range(PROBE_REPEATS):
                t0 = time.thread_time()
                probe_loop()
                best = min(best, time.thread_time() - t0)
            self.samples.append(best)
            if self._stop.wait(PROBE_EVERY_S):
                return

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def probe_s(self):
        return statistics.median(self.samples)


def to_reference_speed(result, probe_s):
    """Scale every time a child reported by REF_PROBE_S / probe_s, keeping
    the raw end-to-end times under "raw"."""
    scale = REF_PROBE_S / probe_s
    result["probe_s"] = probe_s
    result["raw"] = {k: result[k] for k in ("setup_s", "wall_s", "cpu_s") if k in result}
    for k in result["raw"]:
        result[k] *= scale
    for group in ("setup", "layers"):
        for k in result.get(group, {}):
            if k.endswith("_s"):
                result[group][k] *= scale
    for step in result.get("steps", []):
        step["seconds"] *= scale
    return result


def run_child(extra, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise HarnessError("time budget exhausted before a repetition could start")
    cmd = [sys.executable, str(HERE / "child.py"), "--root", str(ROOT), *extra]
    try:
        with SpeedProbe() as probe:
            proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                                  text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"child timed out: {' '.join(extra)}")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"child exited {proc.returncode}: {' '.join(extra)}")
    return to_reference_speed(json.loads(lines[-1]), probe.probe_s())


def summary(values):
    """Median, sample count, and the highest percentile with at least ten
    samples beyond it (None when there are too few samples)."""
    values = sorted(values)
    n = len(values)
    counts = all(isinstance(v, int) for v in values)
    out = {"median": (statistics.median_low if counts else statistics.median)(values),
           "n": n, "values": values}
    for p in (99.9, 99, 95, 90, 75, 50):
        rank = max(1, math.ceil(round(p * n / 100, 9)))  # nearest-rank percentile
        if n - rank >= 10:
            out["tail"] = {"p": p, "value": values[rank - 1]}
            break
    else:
        out["tail"] = None
    return out


def repeat(extra_sets, seconds, min_rounds, deadline):
    """Run rounds of children (one per entry of extra_sets) while the next
    round is expected to end within `seconds`; at least min_rounds rounds."""
    rounds = []
    t0 = time.monotonic()
    durations = []
    while True:
        r0 = time.monotonic()
        rounds.append([run_child(extra, deadline) for extra in extra_sets])
        durations.append(time.monotonic() - r0)
        elapsed = time.monotonic() - t0
        expected = statistics.median(durations)
        if len(rounds) >= min_rounds and elapsed + expected > seconds:
            return rounds
        if time.monotonic() + expected > deadline:
            return rounds


def check_totals(reps):
    """Checks of every step of every repetition, plus one check per step and
    later repetition that its output digest equals the first repetition's:
    identical flags and seed must give identical output."""
    attempted = failed = 0
    first = {s["name"]: s["digest"] for s in reps[0]["steps"]}
    for i, rep in enumerate(reps):
        for s in rep["steps"]:
            attempted += s["attempted"]
            failed += s["failed"]
            if i:
                attempted += 1
                failed += s["digest"] != first.get(s["name"])
    return attempted, failed


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S

    if not (ROOT / "src" / "bcv" / "__init__.py").is_file():
        print(f"no bcv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    # build: the bytecode cache, so that no timed import compiles
    if not compileall.compile_dir(str(ROOT / "src" / "bcv"), quiet=1):
        print("bcv sources do not compile", file=sys.stderr)
        return 1

    try:
        setups = [run_child(["--setup-only"], deadline) for _ in range(SETUP_RUNS)]
        base = ["--workload", args.workload, "--seed", str(args.seed)]
        spans_out = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.json.gz"
        if args.trace:
            sets = [base, base + ["--trace", "--spans-out", str(spans_out)]]
            rounds = repeat(sets, args.seconds, 1, deadline)
        else:
            rounds = repeat([base], args.seconds, MIN_REPS, deadline)
    except HarnessError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1

    reps = [rep for rnd in rounds for rep in rnd]
    untraced = [rnd[0] for rnd in rounds]
    setup_samples = setups + reps
    attempted, failed = check_totals(reps)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": reps[0]["env"],
              "steps": [{k: s[k] for k in ("name", "digest", "attempted", "failed", "seconds")}
                        for s in reps[0]["steps"]]}
    samples = {"setup_s": [r["setup_s"] for r in setup_samples],
               "raw.setup_s": [r["raw"]["setup_s"] for r in setup_samples],
               "probe_s": [r["probe_s"] for r in setup_samples + reps]}
    if args.trace:
        traced = [rnd[1] for rnd in rounds]
        for key in setup_samples[0]["setup"]:
            samples[key] = [r["setup"][key] for r in setup_samples]
        layers = [r["layers"] for r in traced]
        for key in layers[0]:
            samples[key] = [lay[key] for lay in layers]
        counts = [k for k in layers[0] if not k.endswith("_s")]
        unstable = [k for k in counts if len({lay[k] for lay in layers}) > 1]
        if unstable:
            print(f"warning: counts differ between traced repetitions: {unstable}",
                  file=sys.stderr)
        untraced_wall = statistics.median(r["wall_s"] for r in untraced)
        samples["trace.overhead_s"] = [r["wall_s"] - untraced_wall for r in traced]
        detail["spans_file"] = str(spans_out.relative_to(ROOT))
    else:
        for key in ("wall_s", "cpu_s", "peak_rss_mb"):
            samples[key] = [r[key] for r in reps]
        for key in ("wall_s", "cpu_s"):
            samples["raw." + key] = [r["raw"][key] for r in reps]
        samples["passed_frac"] = [(attempted - failed) / attempted]
    detail["samples"] = {k: summary(v) for k, v in samples.items()}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": detail["samples"][m["name"]]["median"], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
