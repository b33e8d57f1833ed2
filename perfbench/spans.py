"""Span recorder for the traced benchmark run.

`install(rec)` replaces each traced function of staircase_lab with a wrapper
that records a span (name, start, end, parent) into `rec`.  A function is
replaced in every module namespace that holds it, because modules call each
other both through `from .x import f` names and through `module.f` lookups;
patching one namespace alone would miss calls without any error.  Methods are
replaced on their class.  The model kernels get a count-only wrapper because
they run thousands of times per solve.  `uninstall()` restores everything.

Spans stay in memory; `layer_metrics` turns them into the per-layer numbers.
Self time of a span is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "staircase_lab"

# (name, unit, better) of every per-layer metric, in output order.
LAYER_METRICS = [
    ("solvers.newton_periodic_u.calls", "count", "lower"),
    ("solvers.newton_periodic_u.s", "s", "lower"),
    ("solvers.newton_periodic_u.converged_ratio", "ratio", "higher"),
    ("solvers.solve_all_starts.calls", "count", "lower"),
    ("solvers.solve_all_starts.self_s", "s", "lower"),
    ("solvers.distinct_per_start", "ratio", "higher"),
    ("solvers.class_distance.calls", "count", "lower"),
    ("solvers.class_distance.s", "s", "lower"),
    ("solvers.certify_psd_periodic_u.calls", "count", "lower"),
    ("solvers.certify_psd_periodic_u.s", "s", "lower"),
    ("solvers.modified_newton_direction.calls", "count", "lower"),
    ("solvers.modified_newton_direction.s", "s", "lower"),
    ("solvers.newton_segment.calls", "count", "lower"),
    ("solvers.newton_segment.s", "s", "lower"),
    ("solvers.newton_segment.converged_ratio", "ratio", "higher"),
    ("model.kernel_calls", "count", "lower"),
    ("model.h_evals", "count", "lower"),
    ("variational.minimize_periodic.calls", "count", "lower"),
    ("variational.minimize_periodic.s", "s", "lower"),
    ("variational.minimize_periodic.distinct_ratio", "ratio", "higher"),
    ("cache.get.calls", "count", "lower"),
    ("cache.get.s", "s", "lower"),
    ("cache.get.hit_ratio", "ratio", "higher"),
    ("cache.payload_checksum.calls", "count", "lower"),
    ("cache.payload_checksum.s", "s", "lower"),
    ("cache.bytes_read", "B", "lower"),
    ("cache.put.calls", "count", "lower"),
    ("cache.put.s", "s", "lower"),
    ("cache.bytes_written", "B", "lower"),
    ("staircase.beta.calls", "count", "lower"),
    ("staircase.memo_hit_ratio", "ratio", "higher"),
    ("staircase.one_sided.calls", "count", "lower"),
    ("staircase.one_sided.s", "s", "lower"),
    ("staircase.estimators.s", "s", "lower"),
    ("staircase.locking_intervals.s", "s", "lower"),
    ("staircase.legendre.s", "s", "lower"),
    ("staircase.convexity_probe.s", "s", "lower"),
    ("hyperbolicity.full_report.calls", "count", "lower"),
    ("hyperbolicity.full_report.s", "s", "lower"),
    ("hyperbolicity.pn_barrier.calls", "count", "lower"),
    ("hyperbolicity.pn_barrier.s", "s", "lower"),
    ("hyperbolicity.pn_barrier.failures", "count", "lower"),
    ("flatness.flatness_curve.calls", "count", "lower"),
    ("flatness.flatness_curve.s", "s", "lower"),
    ("flatness.concatenate_loop.calls", "count", "lower"),
    ("flatness.concatenate_loop.s", "s", "lower"),
    ("scan.fill_table.s", "s", "lower"),
    ("scan.pool_tasks", "count", "higher"),
    ("scan.write_csv.s", "s", "lower"),
    ("scan.bytes_written", "B", "lower"),
    ("scan.run_scan.self_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
]


class Recorder:
    """In-memory spans plus named counters, filled by the installed wrappers."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.minimize_keys: set = set()
        self._restore: list[tuple[object, str, object]] = []

    def span(self, name, fn, before=None, after=None):
        """Wrapper recording one span per call; direct recursion records one.

        before(*args, **kwargs) runs ahead of the span and its return value
        reaches after(ctx, result, exc), which runs once the span has closed.
        """
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            ctx = before(*args, **kwargs) if before else None
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            result = exc = None
            spans[idx][1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                spans[idx][2] = clock()
                stack.pop()
                if after:
                    after(ctx, result, exc)

        return wrapper

    def kernel_counter(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(model, x, xp):
            counts["model.kernel_calls"] += 1
            counts["model.h_evals"] += np.broadcast(np.asarray(x), np.asarray(xp)).size
            return fn(model, x, xp)

        return wrapper

    # ---- patching -----------------------------------------------------------

    def patch_function(self, module, name, wrap):
        """Replaces module.name, and every other package-global alias of it."""
        original = getattr(module, name)
        wrapper = wrap(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def patch_attr(self, owner, name, wrapper):
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def uninstall(self):
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def install(rec: Recorder) -> None:
    """Wraps the traced functions of staircase_lab; rec.uninstall() undoes it."""
    from staircase_lab import (cache, cli, flatness, hyperbolicity, model, scan,
                               solvers, staircase, variational)

    counts = rec.counts

    def span_fn(module, layer, name, **hooks):
        rec.patch_function(module, name,
                           lambda fn: rec.span(f"{layer}.{name}", fn, **hooks))

    def span_method(cls, layer, name, **hooks):
        rec.patch_attr(cls, name, rec.span(f"{layer}.{name}", cls.__dict__[name], **hooks))

    def converged(label):
        def after(ctx, result, exc):
            if exc is None and result[2]:
                counts[label] += 1
        return after

    def distinct(ctx, result, exc):
        if exc is None:
            counts["solvers.solve_all_starts.distinct"] += len(result)

    minimize_sig = inspect.signature(variational.minimize_periodic)

    def minimize_key(*args, **kwargs):
        bound = minimize_sig.bind(*args, **kwargs)
        a = bound.arguments
        rec.minimize_keys.add((a["model"].model_hash, a["p"], a["q"], a.get("options")))

    def get_after(ctx, result, exc):
        if exc is None and result is not None:
            counts["cache.get.hits"] += 1
            counts["cache.bytes_read"] += _file_size(ctx)

    def put_before(self, model_, cfg):
        path = self.record_path(model_.model_hash, cfg.p, cfg.q)
        return path if not path.exists() else None

    def put_after(ctx, result, exc):
        if exc is None and ctx is not None:
            counts["cache.bytes_written"] += _file_size(ctx)

    normalize = staircase.normalize_rational

    def beta_memo(self, p, q):
        if normalize(p, q) in self._entries:
            counts["staircase.beta.memo_hits"] += 1

    def pn_after(ctx, result, exc):
        if exc is not None:
            counts["hyperbolicity.pn_barrier.failures"] += 1

    def written(path, *_):
        return path

    def bytes_after(ctx, result, exc):
        counts["scan.bytes_written"] += _file_size(ctx)

    for name in ("class_distance", "certify_psd_periodic_u", "modified_newton_direction"):
        span_fn(solvers, "solvers", name)
    span_fn(solvers, "solvers", "newton_periodic_u",
            after=converged("solvers.newton_periodic_u.converged"))
    span_fn(solvers, "solvers", "newton_segment",
            after=converged("solvers.newton_segment.converged"))
    span_fn(solvers, "solvers", "solve_all_starts", after=distinct)

    for name in ("eval_h", "d1h", "d2h", "d11h"):
        rec.patch_attr(model.GeneratingModel, name,
                       rec.kernel_counter(model.GeneratingModel.__dict__[name]))

    span_fn(variational, "variational", "minimize_periodic", before=minimize_key)

    span_method(cache.BetaCache, "cache", "get",
                before=lambda self, m, p, q: self.record_path(m.model_hash, p, q),
                after=get_after)
    span_method(cache.BetaCache, "cache", "put", before=put_before, after=put_after)
    span_fn(cache, "cache", "payload_checksum")

    span_method(staircase.BetaTable, "staircase", "beta", before=beta_memo)
    span_method(staircase.BetaTable, "staircase", "one_sided")
    for name in ("variation_estimator", "hausdorff_estimator", "locking_intervals",
                 "legendre", "convexity_probe"):
        span_fn(staircase, "staircase", name)

    span_fn(hyperbolicity, "hyperbolicity", "full_report")
    span_fn(hyperbolicity, "hyperbolicity", "pn_barrier", after=pn_after)

    span_fn(flatness, "flatness", "flatness_curve")
    span_fn(flatness, "flatness", "concatenate_loop")

    span_fn(scan, "scan", "run_scan")
    span_fn(scan, "scan", "fill_table")
    span_fn(scan, "scan", "write_csv", before=written, after=bytes_after)
    span_fn(scan, "scan", "write_report", before=written, after=bytes_after)

    class CountingPool(scan.ProcessPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            counts["scan.pool_tasks"] += 1
            return super().submit(fn, *args, **kwargs)

    rec.patch_attr(scan, "ProcessPoolExecutor", CountingPool)

    span_fn(cli, "cli", "main")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, passes: int, overhead: float) -> dict[str, float]:
    """Per-pass counts and seconds, plus ratios, for every LAYER_METRICS name."""
    spans = rec.spans
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: defaultdict[str, int] = defaultdict(int)
    total: defaultdict[str, float] = defaultdict(float)
    self_s: defaultdict[str, float] = defaultdict(float)
    starts = 0
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_s[name] += end - start - child[i]
        if (name == "solvers.newton_periodic_u" and parent >= 0
                and spans[parent][0] == "solvers.solve_all_starts"):
            starts += 1
    c = rec.counts
    n = max(passes, 1)
    out = {}
    for name, _, _ in LAYER_METRICS:
        if name.endswith(".calls"):
            out[name] = calls[name[:-6]] / n
        elif name.endswith(".self_s"):
            out[name] = self_s[name[:-7]] / n
        elif name.endswith(".s"):
            out[name] = total[name[:-2]] / n
    out.update({
        "solvers.newton_periodic_u.converged_ratio": _ratio(
            c["solvers.newton_periodic_u.converged"], calls["solvers.newton_periodic_u"]),
        "solvers.newton_segment.converged_ratio": _ratio(
            c["solvers.newton_segment.converged"], calls["solvers.newton_segment"]),
        "solvers.distinct_per_start": _ratio(c["solvers.solve_all_starts.distinct"], starts),
        "model.kernel_calls": c["model.kernel_calls"] / n,
        "model.h_evals": c["model.h_evals"] / n,
        "variational.minimize_periodic.distinct_ratio": _ratio(
            len(rec.minimize_keys), calls["variational.minimize_periodic"]),
        "cache.get.hit_ratio": _ratio(c["cache.get.hits"], calls["cache.get"]),
        "cache.bytes_read": c["cache.bytes_read"] / n,
        "cache.bytes_written": c["cache.bytes_written"] / n,
        "staircase.memo_hit_ratio": _ratio(c["staircase.beta.memo_hits"],
                                           calls["staircase.beta"]),
        "staircase.estimators.s": (total["staircase.variation_estimator"]
                                   + total["staircase.hausdorff_estimator"]) / n,
        "hyperbolicity.pn_barrier.failures": c["hyperbolicity.pn_barrier.failures"] / n,
        "scan.pool_tasks": c["scan.pool_tasks"] / n,
        "scan.bytes_written": c["scan.bytes_written"] / n,
        "trace.overhead": overhead,
    })
    return out
