"""Span tracing for the benchmark's traced run.

The tracer wraps the public functions of every ``bcv`` module from outside
the package: at every place a function is bound (its defining module, each
``from .x import y`` binding such as ``bounds.bernstein_derivative`` or the
``golden_max`` in ``central``, ``moduli`` and ``bounds``, and the package
namespace), plus ``BinomialLaw.pmf_vector`` and the CLI's ``_Check.run`` on
their classes.  Every call records a span (name, start, end, parent, thread)
in memory, and counters ride along at the same boundaries.  ``restore``
puts every original binding back.

Self time is computed by ``self_times``: an instant belongs to the spans
that are open at it and have no open child, shared equally when spans on
several threads qualify at once.  Without concurrency that is a span's
duration minus the part of it covered by its children; with concurrency it
makes the self times of all layers plus the un-spanned time add up to the
wall time.
"""

import functools
import importlib
import inspect
import threading
import time
from contextlib import contextmanager

import numpy as np

# The bcv modules whose public functions are wrapped; each is one layer.
LAYERS = ("cli", "dist", "bernstein", "moduli", "search", "central",
          "noncentral", "quadrature", "bounds")

# A pmf entry counts as useful when it is at least this share of its row max.
USEFUL_REL = 1e-17


class Tracer:
    """Wraps bcv's public functions and records spans and counts."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.threads = []
        self.counts = {}  # calls per span name, plus the hooks' counters
        self._lock = threading.Lock()
        self._local = threading.local()
        self._step_stack = None
        self._step_thread = None
        self._restore = []

    # -- spans ---------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._step_stack:
            # A pool worker has no open span of its own: its work was handed
            # over by the innermost span open on the thread running the step.
            parent = self._step_stack[-1]
        else:
            parent = -1
        with self._lock:
            sid = len(self.starts)
            self.names.append(name)
            self.parents.append(parent)
            self.threads.append(threading.get_ident())
            self.ends.append(None)
            self.starts.append(time.perf_counter())
        stack.append(sid)
        return sid

    def _close(self, sid):
        self.ends[sid] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def step(self, name):
        """Root span of one workload step, opened on the calling thread."""
        self._step_stack = self._stack()
        self._step_thread = threading.get_ident()
        sid = self._open("step." + name)
        try:
            yield
        finally:
            self._close(sid)
            self._step_stack = self._step_thread = None

    def count(self, key, amount=1):
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name, after=None, counted_arg=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counted_arg is not None:
                args = (tracer._counting(args[0], counted_arg),) + args[1:]
            sid = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            tracer.count(name)
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__bench_original__ = fn
        return traced

    def _counting(self, f, key):
        """f with every call counted under key; wrapped at most once, so a
        recursive call that passes f on is not counted twice."""
        if getattr(f, "__bench_count_key__", None) == key:
            return f

        def counted(*args, **kwargs):
            self.count(key)
            return f(*args, **kwargs)

        counted.__bench_count_key__ = key
        return counted

    def _hooks(self):
        """Per-function counters, keyed by span name."""

        def pmf_rows(args, kwargs, p):
            p = np.asarray(p)
            useful = int(np.count_nonzero(p >= USEFUL_REL * p.max())) if p.size else 0
            self.count("dist.pmf_rows")
            self.count("dist.pmf_entries", int(p.size))
            self.count("dist.pmf_useful", useful)

        def apply_points(args, kwargs, result):
            self.count("bernstein.apply_points", int(np.size(result)))

        def grid_points(args, kwargs, result):
            self.count("moduli.grid_points", int(result.grid_points))

        sim_sig = inspect.signature(importlib.import_module("bcv.noncentral").simulate_J)

        def mc_draws(args, kwargs, result):
            bound = sim_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            self.count("noncentral.mc_draws",
                       int(a["trials"]) * int(a["grid_points"]) * int(a["m"]))

        def pool_check(args, kwargs, result):
            if threading.get_ident() != self._step_thread:
                self.count("cli.pool_checks")

        return {
            "dist.BinomialLaw.pmf_vector": dict(after=pmf_rows),
            "bernstein.bernstein_apply": dict(after=apply_points),
            "bernstein.bernstein_apply_many": dict(after=apply_points),
            "moduli.omega1": dict(after=grid_points),
            "moduli.omega2": dict(after=grid_points),
            "moduli.omega2_phi": dict(after=grid_points),
            "noncentral.simulate_J": dict(after=mc_draws),
            "search.golden_max": dict(counted_arg="search.golden_evals"),
            "quadrature.adaptive_simpson": dict(counted_arg="quadrature.integrand_evals"),
            "cli._Check.run": dict(after=pool_check),
        }

    def install(self):
        """Wrap every public bcv function at every binding site."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        pkg = importlib.import_module("bcv")
        modules = {layer: importlib.import_module(f"bcv.{layer}") for layer in LAYERS}
        hooks = self._hooks()
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    name = f"{layer}.{attr}"
                    wrappers[id(obj)] = self._wrap(obj, name, **hooks.get(name, {}))
        for ns in (pkg, *modules.values()):
            for attr, obj in list(vars(ns).items()):
                w = wrappers.get(id(obj))
                if w is not None and w.__bench_original__ is obj:
                    self._restore.append((ns, attr, obj))
                    setattr(ns, attr, w)
        methods = ((modules["dist"].BinomialLaw, "pmf_vector", "dist.BinomialLaw.pmf_vector"),
                   (modules["cli"]._Check, "run", "cli._Check.run"))
        for cls, attr, name in methods:
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, name, **hooks.get(name, {})))

    def restore(self):
        for ns, attr, obj in reversed(self._restore):
            setattr(ns, attr, obj)
        self._restore = []

    # -- analysis ------------------------------------------------------------

    def metrics(self, t0, t1):
        """Per-layer counts and self times over the traced interval [t0, t1]."""
        if any(e is None for e in self.ends):
            raise RuntimeError("span left open")
        selfs, uncovered = self_times(self.starts, self.ends, self.parents, t0, t1)
        by_name = {}
        for name, s in zip(self.names, selfs):
            by_name[name] = by_name.get(name, 0.0) + s
        layer_self = {layer: 0.0 for layer in LAYERS}
        step_self = 0.0
        for name, s in by_name.items():
            head = name.split(".", 1)[0]
            if head == "step":
                step_self += s
            else:
                layer_self[head] += s
        unspanned = uncovered + step_self
        wall = t1 - t0
        total = sum(layer_self.values()) + unspanned
        if abs(total - wall) > 1e-6 * max(wall, 1.0):
            raise RuntimeError(f"self times add up to {total!r}, wall is {wall!r}")

        def s(*names):
            return sum(by_name.get(n, 0.0) for n in names)

        def c(*names):
            return sum(self.counts.get(n, 0) for n in names)

        k = self.counts
        entries = k.get("dist.pmf_entries", 0)
        out = {
            "cli.checks": c("cli._Check.run"),
            "cli.pool_checks": k.get("cli.pool_checks", 0),
            "dist.pmf_rows": k.get("dist.pmf_rows", 0),
            "dist.pmf_entries": entries,
            "dist.pmf_useful_frac": k.get("dist.pmf_useful", 0) / entries if entries else 0.0,
            "dist.pmf_s": s("dist.BinomialLaw.pmf_vector"),
            "bernstein.derivative_calls": c("bernstein.bernstein_derivative"),
            "bernstein.derivative_s": s("bernstein.bernstein_derivative"),
            "bernstein.krawtchouk_s": s("bernstein.krawtchouk"),
            "bernstein.apply_points": k.get("bernstein.apply_points", 0),
            "bernstein.apply_s": s("bernstein.bernstein_apply", "bernstein.bernstein_apply_many"),
            "moduli.omega_calls": c("moduli.omega1", "moduli.omega2", "moduli.omega2_phi"),
            "moduli.grid_points": k.get("moduli.grid_points", 0),
            "moduli.omega_s": s("moduli.omega1", "moduli.omega2", "moduli.omega2_phi"),
            "search.golden_calls": c("search.golden_max"),
            "search.golden_evals": k.get("search.golden_evals", 0),
            "search.golden_s": s("search.golden_max"),
            "central.H_n_evals": c("central.H_n_exact"),
            "central.H_n_s": s("central.H_n_exact"),
            "central.sup_H_n_s": s("central.sup_H_n"),
            "central.sup_C_s": s("central.sup_C"),
            "noncentral.L_k_calls": c("noncentral.L_k"),
            "noncentral.L_k_s": s("noncentral.L_k"),
            "noncentral.mc_draws": k.get("noncentral.mc_draws", 0),
            "noncentral.mc_s": s("noncentral.simulate_J"),
            "quadrature.simpson_calls": c("quadrature.adaptive_simpson"),
            "quadrature.integrand_evals": k.get("quadrature.integrand_evals", 0),
            "quadrature.simpson_s": s("quadrature.adaptive_simpson"),
            "bounds.modulus_upper_s": s("bounds.modulus_upper_check", "bounds.modulus_upper_sides"),
            "trace.spans": len(self.starts),
            "trace.unspanned_s": unspanned,
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
        return out

    def span_records(self):
        """Spans as (name, start, end, parent, thread) tuples, in open order."""
        return list(zip(self.names, self.starts, self.ends, self.parents, self.threads))


def self_times(starts, ends, parents, t0, t1):
    """Self time of each span within [t0, t1], and the time no span covers.

    Parents must precede their children in the sequences.  At each instant
    the open spans without an open child share the instant equally, so a
    parent's self time is its duration minus the union of its children's
    intervals, and the self times plus the uncovered time add up to t1 - t0.
    """
    n = len(starts)
    depth = [0] * n
    for i, p in enumerate(parents):
        if p >= 0:
            depth[i] = depth[p] + 1
    events = [(starts[i], 1, depth[i], i) for i in range(n)]
    events += [(ends[i], 0, -depth[i], i) for i in range(n)]
    events.sort()
    selfs = [0.0] * n
    open_children = [0] * n
    is_open = [False] * n
    innermost = set()
    uncovered = 0.0
    prev = t0
    for t, is_start, _, i in events:
        t = min(max(t, t0), t1)
        if t > prev:
            if innermost:
                share = (t - prev) / len(innermost)
                for j in innermost:
                    selfs[j] += share
            else:
                uncovered += t - prev
            prev = t
        p = parents[i]
        if is_start:
            is_open[i] = True
            innermost.add(i)
            if p >= 0 and is_open[p]:
                open_children[p] += 1
                innermost.discard(p)
        else:
            is_open[i] = False
            innermost.discard(i)
            if p >= 0 and is_open[p]:
                open_children[p] -= 1
                if open_children[p] == 0:
                    innermost.add(p)
    if t1 > prev:
        uncovered += t1 - prev
    return selfs, uncovered
