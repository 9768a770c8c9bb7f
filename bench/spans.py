"""Span tracer for the traced run.

It times afcec from outside: `install` replaces the module attributes that
afcec's callers look up at call time with wrappers that record one span per
call, and `uninstall` puts the originals back. No file under src/ knows about
it. Spans stay in memory until the run writes them out.

A span is (id, parent id, name, thread id, start, end, error class or None,
work). ring-sweep runs its restarts on pool threads; a span opened on a thread
with no open span of its own takes as parent the innermost open span of the
thread that created the tracer, which is where the pool is waited on.
"""

import functools
import itertools
import json
import threading
import time
from collections import defaultdict

import numpy as np

from afcec import acagmm, curves, data, density, engine, numerics, selection


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home_stack = self._stack()
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, work=None):
        stack = self._stack()
        parent = stack[-1] if stack else (self._home_stack[-1] if self._home_stack else 0)
        sid = next(self._ids)
        stack.append(sid)
        error = amount = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if work is not None:
                amount = work(args, result)
            return result
        except BaseException as e:
            error = type(e).__name__
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, threading.get_ident(), start, end, error, amount))

    def wrap(self, owner, attr, name, work=None):
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            return self.call(name, orig, args, kwargs, work)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(SPAN_FIELDS, s))) + "\n")


SPAN_FIELDS = ("id", "parent", "name", "thread", "start", "end", "error", "work")


def install(tracer):
    """Wrap every traced afcec boundary. Where a module imported a function by
    name, its own binding is wrapped too, under the same span name."""
    last = threading.local()  # assignment the next assign_step starts from, per thread

    def refit_work(args, result):
        last.assignment = result[1]
        return result[2]

    def assign_work(args, result):
        prev = getattr(last, "assignment", None)
        return 0 if prev is None else int(np.count_nonzero(result != prev))

    def floored(args, result):
        return int(result[1].resid_var <= density.RESID_VAR_FLOOR)

    def regularized(args, result):
        return int(not np.array_equal(result[1], args[0]))

    def rows(args, result):
        return len(getattr(args[0], "rows", args[0]))

    w = tracer.wrap
    w(engine, "fit_restarts", "engine.restart_pool")
    w(engine, "fit", "engine.fit", lambda a, r: r.iterations)
    w(engine, "_init_partition", "engine.init")
    w(engine, "assign_step", "engine.assign", assign_work)
    w(engine, "delete_small", "engine.delete", lambda a, r: r[2])
    w(engine, "_reestimate", "engine.refit", refit_work)
    w(engine, "cost", "engine.cost")
    w(engine, "select_orientation", "curves.select_orientation")
    w(curves, "fit_curve", "curves.fit_curve")
    w(curves.FunctionFamily, "design_matrix", "curves.design", lambda a, r: r.size)
    w(numerics, "least_squares", "numerics.lstsq")
    w(engine, "fadapted_log_density", "density.log_density", lambda a, r: np.size(r))
    w(selection, "fadapted_log_density", "density.log_density", lambda a, r: np.size(r))
    w(density, "fadapted_cross_entropy", "density.cross_entropy", floored)
    w(engine, "fadapted_cross_entropy", "density.cross_entropy", floored)
    w(density, "_cholesky_reg", "density.cholesky_reg", regularized)
    w(selection, "log_likelihood", "selection.loglik", rows)
    w(data, "load_csv", "data.load_csv", lambda a, r: r.n)
    w(data, "save_model", "data.save_model")
    w(acagmm, "_log_density_grid", "acagmm.grid_density", lambda a, r: np.size(a[1]))
    w(acagmm, "fold_mass", "acagmm.fold_mass")


def _covered(lo, hi, intervals):
    """Length of [lo, hi] covered by the union of intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans):
    """Per span name: summed self time, calls, errors by class, summed work.

    Self time is a span's duration minus the part of it that its child spans
    cover; children running at once on pool threads are counted once.
    """
    children = defaultdict(list)
    for s in spans:
        children[s[1]].append((s[4], s[5]))
    out = defaultdict(lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0, "work": 0,
                               "errors": defaultdict(int)})
    for sid, _, name, _, start, end, error, amount in spans:
        agg = out[name]
        agg["total_s"] += end - start
        agg["self_s"] += (end - start) - _covered(start, end, children.get(sid, ()))
        agg["calls"] += 1
        if error:
            agg["errors"][error] += 1
        if amount:
            agg["work"] += amount
    return out


# (metric, unit, span name, field); field is "self_s", "calls", "work" or an
# error class name. Each line of bench/README.md's layer map names the
# end-to-end metric and workload these should move.
LAYER_METRICS = (
    ("engine.assign_s", "s", "engine.assign", "self_s"),
    ("engine.assign_calls", "count", "engine.assign", "calls"),
    ("density.log_density_s", "s", "density.log_density", "self_s"),
    ("density.log_density_rows", "count", "density.log_density", "work"),
    ("engine.refit_s", "s", "engine.refit", "self_s"),
    ("engine.refit_dropped", "count", "engine.refit", "work"),
    ("curves.select_orientation_s", "s", "curves.select_orientation", "self_s"),
    ("curves.select_orientation_calls", "count", "curves.select_orientation", "calls"),
    ("curves.fit_curve_s", "s", "curves.fit_curve", "self_s"),
    ("numerics.lstsq_s", "s", "numerics.lstsq", "self_s"),
    ("numerics.lstsq_calls", "count", "numerics.lstsq", "calls"),
    ("numerics.lstsq_failed", "count", "numerics.lstsq", "RankDeficient"),
    ("density.cross_entropy_s", "s", "density.cross_entropy", "self_s"),
    ("density.cross_entropy_calls", "count", "density.cross_entropy", "calls"),
    ("density.cholesky_reg_s", "s", "density.cholesky_reg", "self_s"),
    ("curves.design_s", "s", "curves.design", "self_s"),
    ("curves.design_calls", "count", "curves.design", "calls"),
    ("curves.design_cells", "count", "curves.design", "work"),
    ("engine.init_s", "s", "engine.init", "self_s"),
    ("engine.delete_s", "s", "engine.delete", "self_s"),
    ("engine.deleted", "count", "engine.delete", "work"),
    ("engine.cost_s", "s", "engine.cost", "self_s"),
    ("engine.restarts", "count", "engine.fit", "calls"),
    ("engine.iterations", "count", "engine.fit", "work"),
    ("engine.points_moved", "count", "engine.assign", "work"),
    ("density.cholesky_regularized", "count", "density.cholesky_reg", "work"),
    ("density.resid_floor_hits", "count", "density.cross_entropy", "work"),
    ("density.degenerate", "count", "density.cross_entropy", "DegenerateCluster"),
    ("selection.loglik_s", "s", "selection.loglik", "self_s"),
    ("selection.loglik_rows", "count", "selection.loglik", "work"),
    ("data.load_csv_s", "s", "data.load_csv", "self_s"),
    ("data.load_csv_rows", "count", "data.load_csv", "work"),
    ("data.save_model_s", "s", "data.save_model", "self_s"),
    ("acagmm.grid_density_s", "s", "acagmm.grid_density", "self_s"),
    ("acagmm.grid_nodes", "count", "acagmm.grid_density", "work"),
    ("acagmm.fold_mass_s", "s", "acagmm.fold_mass", "self_s"),
    ("acagmm.fold_mass_calls", "count", "acagmm.fold_mass", "calls"),
    ("cli.self_s", "s", "cli", "self_s"),
)
RESTART_FAILURES = ("DegenerateCluster", "AllClustersDegenerate", "RankDeficient")


def layer_metrics(spans):
    """{metric: value} for one traced command whose root span is named "cli"."""
    by_name = summarize(spans)

    def field(name, key):
        agg = by_name.get(name)
        if agg is None:
            return 0
        return agg[key] if key in agg else agg["errors"].get(key, 0)

    out = {metric: field(name, key) for metric, _, name, key in LAYER_METRICS}
    out["engine.restarts_failed"] = sum(field("engine.fit", e) for e in RESTART_FAILURES)
    pool = field("engine.restart_pool", "total_s")
    out["engine.restart_parallel_ratio"] = field("engine.fit", "total_s") / pool if pool else 0.0
    return out


UNITS = {metric: unit for metric, unit, _, _ in LAYER_METRICS}
UNITS.update({
    "engine.restarts_failed": "count",
    "engine.restart_parallel_ratio": "ratio",
    "trace.overhead_frac": "ratio",
})
