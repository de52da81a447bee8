#!/usr/bin/env python3
"""One workload in a fresh interpreter: set up, iterate, check, report.

Started by ``perfbench/run.py`` from the root of a source checkout. It prints
``ready`` once set-up is done (imports, inputs, the first ``approve``), then,
unless ``--setup-only``, runs iterations for about ``--seconds`` and prints
one JSON line with per-iteration timings, digests, checks and, with
``--trace 1``, the per-layer numbers of the traced iterations.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

from hostspeed import adjust, calibrate

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")


def _import_package():
    if not os.path.isfile(os.path.join(SRC, "fclt_lab", "__init__.py")):
        sys.stderr.write(f"perfbench: no fclt_lab sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    import fclt_lab

    if not os.path.abspath(fclt_lab.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"perfbench: imported fclt_lab from {fclt_lab.__file__}, not {SRC}\n")
        sys.exit(2)


def versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def run_iteration(wl, sub: int) -> tuple[float, object, str | None]:
    t0 = time.perf_counter()
    try:
        outcome = wl.run(sub)
        error = None
    except Exception:
        outcome, error = None, traceback.format_exc(limit=8)
        sys.stderr.write(error)
    return time.perf_counter() - t0, outcome, error


def _plain(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        return [float(v) for v in value]
    return float(value)


def record(sub: int, wall: float, outcome, error) -> dict:
    if outcome is None:
        return {"sub": sub, "wall_s": wall, "ok": False, "error": error.splitlines()[-1]}
    return {
        "sub": sub,
        "wall_s": wall,
        "ok": bool(all(outcome.checks.values())),
        "checks": {k: bool(v) for k, v in outcome.checks.items()},
        "digest": outcome.digest,
        "rel_se": outcome.rel_se,
        "attempted": outcome.attempted,
        "used": outcome.used,
        "quarantined": outcome.quarantined,
        "detail": {k: _plain(v) for k, v in outcome.detail.items()},
    }


def untraced(wl, seconds: float) -> list[dict]:
    """Cycle over the sub-seeds: each at least once and the first one twice,
    so that every run sees a repeated sub-seed reproduce its digest, then
    while time is left.

    The host's speed is measured before the first iteration and after each
    one; an iteration's ``adjusted_s`` is its wall time rescaled by the mean
    of the two measurements around it (``hostspeed``).
    """
    rows = []
    start = time.perf_counter()
    before = calibrate()
    i = 0
    while True:
        sub = i % wl.subseeds
        wall, outcome, error = run_iteration(wl, sub)
        after = calibrate()
        row = record(sub, wall, outcome, error)
        row["calibration_s"] = (before + after) / 2
        row["adjusted_s"] = adjust(wall, row["calibration_s"])
        rows.append(row)
        before = after
        i += 1
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["wall_s"] for r in rows)
        if i > wl.subseeds and elapsed + typical > seconds:
            return rows


def traced_iteration(wl, track_memory: bool = False):
    from tracer import Tracer

    tracer = Tracer(track_memory=track_memory)
    tracer.install()
    try:
        with tracer.span("bench.iteration"):
            wall, outcome, error = run_iteration(wl, 0)
    finally:
        tracer.uninstall()
    return tracer, record(0, wall, outcome, error)


def traced(wl, seconds: float, trace_path: str) -> tuple[list[dict], list[dict], list[dict], dict]:
    """Alternate untraced and traced iterations of sub-seed 0, then one more
    traced iteration under tracemalloc for the recursion's peak memory."""
    from tracer import summarize

    plain, marked, summaries, dumps = [], [], [], []
    start = time.perf_counter()
    while True:
        wall, outcome, error = run_iteration(wl, 0)
        plain.append(record(0, wall, outcome, error))
        tracer, row = traced_iteration(wl)
        marked.append(row)
        summaries.append(summarize(tracer.spans))
        dumps.append([dataclasses.asdict(s) for s in tracer.spans])
        elapsed = time.perf_counter() - start
        pair = plain[-1]["wall_s"] + marked[-1]["wall_s"]
        if len(marked) >= 2 and elapsed + pair > seconds:
            break
    memory, memory_row = traced_iteration(wl, track_memory=True)
    for summary in summaries:
        summary["_peak_recursion_bytes"] = memory.peak_recursion_bytes
    with open(trace_path, "w") as fh:
        json.dump({"workload": wl.name, "seed": wl.seed, "iterations": dumps}, fh)
    return plain, marked, summaries, memory_row


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--toy", action="store_true", help="tiny sizes for the self-test")
    args = ap.parse_args(argv)

    _import_package()
    from workloads import WORKLOADS

    work_root = os.path.join(ROOT, ".perfbench")
    os.makedirs(work_root, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        wl = WORKLOADS[args.workload](tmpdir, args.seed, toy=args.toy)
        wl.setup()
        print("ready", flush=True)
        if args.setup_only:
            return 0
        out = {"workload": wl.name, "meta": wl.meta() | {"versions": versions()}}
        if args.trace:
            trace_path = os.path.join(work_root, f"trace-{wl.name}-{args.seed}.json")
            plain, marked, summaries, memory_row = traced(wl, args.seconds, trace_path)
            out.update(
                iterations=plain,
                traced_iterations=marked,
                memory_iteration=memory_row,
                summaries=summaries,
                trace_file=trace_path,
            )
        else:
            out["iterations"] = untraced(wl, args.seconds)
            out["run_checks"] = {k: bool(v) for k, v in wl.run_checks(out["iterations"]).items()}
        out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps(out), flush=True)
        return 0
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
