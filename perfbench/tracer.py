"""Outside-in span tracer for fclt_lab.

The tracer patches the public entry points of each ``fclt_lab`` module at
every module binding the benchmark pipeline calls through, so no source file
of the package changes. Spans (name, start, end, parent, thread) and their
counts stay in memory until the benchmark writes them out. ``uninstall``
restores every original binding; an untraced run never installs anything.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import threading
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


def _shape_steps(args, kwargs, out) -> dict:
    # one volatility update per (row, time) entry of the innovation block
    return {"steps": int(np.size(args[1]))}


def _lag_kernel_counts(args, kwargs, out) -> dict:
    """Flops and bytes of ``_long_run_sum``, computed from array sizes.

    Lag i multiplies and adds every (a, b) pair of the 3 component series over
    n - i overlapping times (2 * 9 * (n - i) flops per row) and reads both
    length n - i operands of all 3 series (2 * 3 * (n - i) doubles per row).
    """
    series = args[0]
    max_lag = args[1] if len(args) > 1 else kwargs["max_lag"]
    n = series.shape[-1]
    rows = int(np.prod(series.shape[:-2]))
    lags = min(max_lag, n - 1)
    overlap = sum(n - i for i in range(lags + 1))
    return {"flops": 18 * rows * overlap, "bytes": 48 * rows * overlap}


def _draw_counts(args, kwargs, out) -> dict:
    return {"draws": int(np.size(out))}


class Tracer:
    """Collects spans from patched bindings; one instance per traced run."""

    # (module, attribute, span name, count function); a binding is patched at
    # every module the pipeline looks it up in
    FUNCTIONS = [
        ("fclt_lab.cli", "main", "cli.main", None),
        ("fclt_lab.cli", "run_clt_experiment", "harness.run_clt_experiment", None),
        ("fclt_lab.cli", "run_bahadur_experiment", "harness.run_bahadur_experiment", None),
        ("fclt_lab.cli", "ned_scan", "ned.ned_scan", None),
        ("fclt_lab.ned", "ned_scan", "ned.ned_scan", None),
        ("fclt_lab.asymptotics", "trivariate_long_run_cov_mc", "asymptotics.trivariate_long_run_cov_mc", None),
        ("fclt_lab.asymptotics", "gamma_target_with_se", "asymptotics.gamma_target_with_se", None),
        ("fclt_lab.ned", "estimate_ned", "ned.estimate_ned", None),
        ("fclt_lab.harness", "sample_quantile", "estimators.sample_quantile", None),
        ("fclt_lab.harness", "centred_abs_moment", "estimators.centred_abs_moment", None),
        ("fclt_lab.harness", "bahadur_remainder", "asymptotics.bahadur_remainder", None),
        ("fclt_lab.asymptotics", "sample_quantile", "estimators.sample_quantile", None),
        ("fclt_lab.truth", "sample_quantile", "estimators.sample_quantile", None),
        ("fclt_lab.truth", "pilot_truth", "truth.pilot_truth", None),
        ("fclt_lab.asymptotics", "_long_run_sum", "asymptotics.lag_kernel", _lag_kernel_counts),
        ("fclt_lab.harness", "simulate_batch", "processes.simulate_batch", None),
        ("fclt_lab.asymptotics", "simulate_batch", "processes.simulate_batch", None),
        ("fclt_lab.truth", "simulate_batch", "processes.simulate_batch", None),
        ("fclt_lab.processes", "garch_values_from_innovations", "garch.recursion", _shape_steps),
        ("fclt_lab.processes", "arma_values_from_innovations", "arma.filter", None),
        ("fclt_lab.processes", "stream_generator", "rng.stream_generator", None),
        ("fclt_lab.ned", "stream_generator", "rng.stream_generator", None),
        ("fclt_lab.harness", "approve", "conditions.approve", None),
        ("fclt_lab.asymptotics", "approve", "conditions.approve", None),
    ]
    METHODS = [
        ("fclt_lab.innovations", "InnovationDist", "sample", "innovations.sample", _draw_counts),
        ("fclt_lab.innovations", "InnovationDist", "expect", "innovations.expect", None),
    ]
    CHUNKED = ["fclt_lab.harness", "fclt_lab.asymptotics", "fclt_lab.truth", "fclt_lab.ned"]

    def __init__(self, track_memory: bool = False):
        self.track_memory = track_memory
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []
        self.peak_recursion_bytes = 0
        self._mem_lock = threading.Lock()
        self._mem_users = 0

    # --- span bookkeeping ---------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, parent: Span | None = None) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = Span(
            id=next(self._ids),
            name=name,
            parent=None if parent is None else parent.id,
            thread=threading.get_ident(),
            start=time.perf_counter(),
        )
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span):
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    # --- patching -------------------------------------------------------------

    def _wrap(self, name: str, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if count is not None:
                span.counts = count(args, kwargs, out)
            return out

        return traced

    def _wrap_recursion(self, fn, count):
        """Time the recursion and track its allocations with tracemalloc.

        Tracing runs only while some recursion call is active, and only in a
        tracer made with ``track_memory``: tracemalloc slows the recursion's
        per-step allocations severalfold, so the timed iterations run without
        it. Concurrent calls share one tracing window.
        """
        tracer = self
        traced_inner = self._wrap("garch.recursion", fn, count)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.track_memory:
                return traced_inner(*args, **kwargs)
            with tracer._mem_lock:
                tracer._mem_users += 1
                if tracer._mem_users == 1:
                    tracemalloc.start()
            try:
                return traced_inner(*args, **kwargs)
            finally:
                with tracer._mem_lock:
                    tracer._mem_users -= 1
                    if tracer._mem_users == 0:
                        peak = tracemalloc.get_traced_memory()[1]
                        tracemalloc.stop()
                        tracer.peak_recursion_bytes = max(tracer.peak_recursion_bytes, peak)

        return traced

    def _wrap_chunked(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(total, task, *args, **kwargs):
            threads = kwargs.get("threads", args[1] if len(args) > 1 else 1) or 1
            outer = tracer.open("parallel.run_chunked")
            outer.counts = {"threads": int(threads)}

            def timed_task(start, stop):
                # worker threads start with an empty stack: parent explicitly
                span = tracer.open("parallel.task", parent=outer)
                try:
                    task(start, stop)
                finally:
                    tracer.close(span)

            try:
                return fn(total, timed_task, *args, **kwargs)
            finally:
                tracer.close(outer)

        return traced

    def _patch(self, owner, attr: str, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        for mod_name, attr, name, count in self.FUNCTIONS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            if name == "garch.recursion":
                self._patch(mod, attr, self._wrap_recursion(fn, count))
            else:
                self._patch(mod, attr, self._wrap(name, fn, count))
        for mod_name, cls_name, attr, name, count in self.METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            self._patch(cls, attr, self._wrap(name, cls.__dict__[attr], count))
        for mod_name in self.CHUNKED:
            mod = importlib.import_module(mod_name)
            self._patch(mod, "run_chunked", self._wrap_chunked(mod.run_chunked))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# --- analysis -----------------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
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


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: (s.end - s.start) - _covered(children.get(s.id, []), s.start, s.end) for s in spans}


def summarize(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, thread-seconds offered
    (duration x threads of a ``run_chunked`` span) and summed counts.

    A chunk task runs code of the layer that called ``run_chunked``, so that
    caller's self time also takes in the self time of its chunk tasks.
    """
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    adopted: dict[int, float] = {}
    for s in spans:
        if s.name == "parallel.task":
            caller = by_id[s.parent].parent
            if caller is not None:
                adopted[caller] = adopted.get(caller, 0.0) + selfs[s.id]
    out: dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "thread_s": 0.0, "counts": {}})
        row["calls"] += 1
        row["total_s"] += s.end - s.start
        row["self_s"] += selfs[s.id] + adopted.get(s.id, 0.0)
        row["thread_s"] += (s.end - s.start) * s.counts.get("threads", 1)
        for key, val in s.counts.items():
            row["counts"][key] = row["counts"].get(key, 0) + val
    return out
