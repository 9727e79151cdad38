"""One repetition of a benchmark workload, run in a fresh interpreter.

    python3 benchmarks/child.py --root <checkout> --workload verify --seed 1 [--trace]
    python3 benchmarks/child.py --root <checkout> --setup-only

Times the set-up a user pays on every `bcv` call (import numpy, then scipy's
special and optimize modules, then `bcv.cli` and `build_parser()`), then the
workload's steps, and prints one JSON object as its last line.  With
--trace the steps run under the span tracer and the object carries the
per-layer metrics.  Only the standard library is imported before set-up
is timed.
"""

import argparse
import ctypes
import glob
import gzip
import json
import os
import platform
import resource
import sys
import time


def setup():
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    t1 = time.perf_counter()
    import scipy.optimize  # noqa: F401
    import scipy.special  # noqa: F401
    t2 = time.perf_counter()
    import bcv.cli
    bcv.cli.build_parser()
    t3 = time.perf_counter()
    return {"setup.numpy_s": t1 - t0, "setup.scipy_s": t2 - t1, "setup.bcv_s": t3 - t2}


def blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, or None if not found."""
    import numpy
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    import numpy
    import scipy
    from bcv import cli
    threads = getattr(cli, "_threads", None)
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": blas_threads(),
            "check_pool_workers": threads() if threads else None,
            "BCV_THREADS": os.environ.get("BCV_THREADS")}


def write_spans(path, tracer, t0):
    names = sorted(set(tracer.names))
    index = {n: i for i, n in enumerate(names)}
    threads = {}
    rows = [[index[name], round(start - t0, 7), round(end - t0, 7), parent,
             threads.setdefault(thread, len(threads))]
            for name, start, end, parent, thread in tracer.span_records()]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with gzip.open(path, "wt") as fh:
        json.dump({"columns": ["name", "start_s", "end_s", "parent", "thread"],
                   "names": names, "spans": rows}, fh)


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans-out", default=None)
    args = p.parse_args(argv)

    setup_split = setup()
    import bcv
    src = os.path.realpath(os.path.join(args.root, "src"))
    if not os.path.realpath(bcv.__file__).startswith(src + os.sep):
        raise SystemExit(f"bcv was imported from {bcv.__file__}, not from {src}")
    result = {"setup": setup_split, "setup_s": sum(setup_split.values())}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    import workloads
    plan = workloads.steps(args.workload, args.seed)
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    steps = workloads.run_steps(plan, tracer.step if tracer else None)
    t1 = time.perf_counter()
    cpu1 = time.process_time()
    if tracer:
        tracer.restore()
        result["layers"] = tracer.metrics(t0, t1)
        if args.spans_out:
            write_spans(args.spans_out, tracer, t0)
    result.update({
        "wall_s": t1 - t0,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "steps": [vars(s) for s in steps],
        "env": environment(),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
