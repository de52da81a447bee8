#!/usr/bin/env python3
"""fclt-lab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. Each workload runs in fresh interpreters (``perfbench/worker.py``):
with ``--trace 0`` three set-up-only interpreters plus the measured one give
``setup_s``, and the measured one iterates for about ``S`` seconds. The
iteration times that go into ``wall_s``, ``steps_per_s`` and ``cost_1pct_s``
are rescaled to a reference host speed measured around each of them
(``perfbench/hostspeed.py``); the raw ones are on the line before the
result. Set-up times are raw. With
``--trace 1`` the worker alternates untraced and traced iterations and the
per-layer metrics come from the traced ones. The last line of standard
output is the result object; the line before it holds the run metadata,
sample counts, quartiles and determinism digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SETUP_ONLY_RUNS = 3
DEADLINE_S = 170.0  # a run must end within 180 s
COUNT_UNITS = {"count", "flop", "B"}  # exact counts: must repeat across iterations


class BenchError(Exception):
    pass


# --- child processes -------------------------------------------------------------


def run_worker(args: list[str], deadline: float) -> tuple[float, str]:
    """Start a worker; return (seconds from spawn to ``ready``, remaining stdout)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready.strip() != "ready":
        raise BenchError(f"worker {' '.join(args)} exited with {code}")
    return ready_s, rest


# --- metadata --------------------------------------------------------------------


def _cpu_model() -> tuple[int, str | None]:
    count, model = 0, None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("processor"):
                    count += 1
                elif line.startswith("model name") and model is None:
                    model = line.split(":", 1)[1].strip()
    except OSError:
        pass
    return count or (os.cpu_count() or 0), model


def _source_identity() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "fclt_lab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def metadata(args, worker_meta: dict) -> dict:
    nproc, model = _cpu_model()
    return {
        "nproc": nproc,
        "cpu_model": model,
        "python": platform.python_version(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        **worker_meta.pop("versions", {}),
        **_source_identity(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **worker_meta,
    }


# --- metrics ---------------------------------------------------------------------


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q = statistics.quantiles(values, n=4)
    return [q[0], statistics.median(values), q[2]]


def _digests_stable(rows: list[dict]) -> bool:
    seen: dict[int, str] = {}
    for row in rows:
        if "digest" in row and seen.setdefault(row["sub"], row["digest"]) != row["digest"]:
            return False
    return True


def end_to_end(rows: list[dict], setup: list[float], peak_rss: float, steps: int) -> dict[str, float]:
    wall = statistics.median(r["adjusted_s"] for r in rows)
    first = {}
    for row in rows:
        if row["ok"]:
            first.setdefault(row["sub"], row)
    # precision pooled over the distinct sub-seeds: the mean of rel_se^2
    rel2 = statistics.fmean(r["rel_se"] ** 2 for r in first.values()) if first else 0.0
    done = [r for r in rows if "attempted" in r]
    attempted = sum(r["attempted"] for r in done)
    return {
        "wall_s": wall,
        "steps_per_s": steps / wall,
        "cost_1pct_s": wall * rel2 / 1e-4,
        "setup_s": statistics.median(setup),
        "peak_rss_mib": peak_rss,
        "ok_share": sum(r["ok"] for r in rows) / len(rows),
        "used_share": sum(r["used"] for r in done) / attempted if attempted else 0.0,
    }


def layer_values(s: dict, row: dict) -> dict[str, float]:
    """Per-layer metrics of one traced iteration from its span summary."""

    def get(name, key):
        return s.get(name, {}).get(key, 0)

    def count(name, key):
        return s.get(name, {}).get("counts", {}).get(key, 0)

    experiment = get("harness.run_clt_experiment", "calls") + get("harness.run_bahadur_experiment", "calls")
    busy = get("parallel.task", "total_s")
    offered = get("parallel.run_chunked", "thread_s")
    kernel_s = get("asymptotics.lag_kernel", "total_s")
    flops = count("asymptotics.lag_kernel", "flops")
    steps = count("garch.recursion", "steps")
    return {
        "estimators.moment_s": get("estimators.centred_abs_moment", "total_s"),
        "estimators.moment_calls": get("estimators.centred_abs_moment", "calls"),
        "estimators.quantile_s": get("estimators.sample_quantile", "total_s"),
        "estimators.quantile_calls": get("estimators.sample_quantile", "calls"),
        "harness.experiment_self_s": get("harness.run_clt_experiment", "self_s")
        + get("harness.run_bahadur_experiment", "self_s"),
        "harness.used_share": row.get("used", 0) / row.get("attempted", 1) if experiment else 0.0,
        "parallel.chunks": get("parallel.task", "calls"),
        "parallel.task_busy_s": busy,
        "parallel.busy_share": busy / offered if offered else 0.0,
        "truth.pilot_truth_s": get("truth.pilot_truth", "total_s"),
        "truth.pilot_truth_self_s": get("truth.pilot_truth", "self_s"),
        "cli.self_s": get("cli.main", "self_s"),
        "asymptotics.lrc_mc_self_s": get("asymptotics.trivariate_long_run_cov_mc", "self_s"),
        "asymptotics.lag_kernel_s": kernel_s,
        "asymptotics.lag_kernel_flops": flops,
        "asymptotics.lag_kernel_bytes": count("asymptotics.lag_kernel", "bytes"),
        "asymptotics.lag_kernel_gflops": flops / kernel_s / 1e9 if kernel_s else 0.0,
        "asymptotics.bahadur_remainder_s": get("asymptotics.bahadur_remainder", "total_s"),
        "asymptotics.bahadur_remainder_calls": get("asymptotics.bahadur_remainder", "calls"),
        "garch.recursion_s": get("garch.recursion", "total_s"),
        "garch.recursion_calls": get("garch.recursion", "calls"),
        "garch.steps": steps,
        "garch.ns_per_step": get("garch.recursion", "total_s") / steps * 1e9 if steps else 0.0,
        "garch.peak_traced_mib": s["_peak_recursion_bytes"] / 2**20,
        "arma.filter_s": get("arma.filter", "total_s"),
        "arma.filter_calls": get("arma.filter", "calls"),
        "processes.simulate_batch_s": get("processes.simulate_batch", "total_s"),
        "processes.simulate_batch_self_s": get("processes.simulate_batch", "self_s"),
        "innovations.sample_s": get("innovations.sample", "total_s"),
        "innovations.sample_calls": get("innovations.sample", "calls"),
        "innovations.draws": count("innovations.sample", "draws"),
        "rng.stream_generator_s": get("rng.stream_generator", "total_s"),
        "rng.stream_generator_calls": get("rng.stream_generator", "calls"),
        "ned.estimate_ned_self_s": get("ned.estimate_ned", "self_s"),
        "ned.estimate_ned_calls": get("ned.estimate_ned", "calls"),
        "conditions.approve_s": get("conditions.approve", "total_s"),
        "conditions.approve_calls": get("conditions.approve", "calls"),
        "innovations.expect_calls": get("innovations.expect", "calls"),
        "trace.wall_s": get("bench.iteration", "total_s"),
        "trace.remainder_s": get("bench.iteration", "self_s"),
    }


def per_layer(plain: list[dict], marked: list[dict], summaries: list[dict], units: dict) -> tuple[dict, bool]:
    """Median over the traced iterations; counts must repeat exactly."""
    per_iter = [layer_values(s, row) for s, row in zip(summaries, marked)]
    values, counts_repeat = {}, True
    for name in per_iter[0]:
        column = [v[name] for v in per_iter]
        if units.get(name) in COUNT_UNITS and len(set(column)) != 1:
            counts_repeat = False
        values[name] = statistics.median(column)
    values["trace_overhead_s"] = statistics.median(r["wall_s"] for r in marked) - statistics.median(
        r["wall_s"] for r in plain
    )
    return values, counts_repeat


# --- main ------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="tiny sizes, for perfbench/selftest.py")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"perfbench: cannot read BENCHMARK.json: {exc}\n")
        return 2
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}\n")
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "fclt_lab", "__init__.py")):
        sys.stderr.write("perfbench: run from the root of an fclt-lab source checkout (no src/fclt_lab)\n")
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)] + (["--toy"] if args.toy else [])
    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_ONLY_RUNS):
                setup.append(run_worker(common + ["--setup-only"], deadline)[0])
        ready_s, rest = run_worker(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline
        )
        setup.append(ready_s)
        result = json.loads(rest.strip().splitlines()[-1])
    except (BenchError, json.JSONDecodeError, IndexError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1

    rows = result["iterations"]
    stable = _digests_stable(rows)
    correct = stable and all(r["ok"] for r in rows)
    if args.trace:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        marked = result["traced_iterations"]
        values, counts_repeat = per_layer(rows, marked, result["summaries"], units)
        # the tracemalloc iteration counts for digests and checks, not for times
        every = rows + marked + [result["memory_iteration"]]
        same_digest = {r.get("digest") for r in every} == {rows[0].get("digest")}
        correct = counts_repeat and same_digest and all(r["ok"] for r in every)
        attempted, failed = len(every), sum(not r["ok"] for r in every)
        checks = {"counts_repeat": counts_repeat, "traced_digest_matches": same_digest}
    else:
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        values = end_to_end(rows, setup, result["peak_rss_mib"], result["meta"]["steps"])
        attempted, failed = len(rows), sum(not r["ok"] for r in rows)
        checks = dict(result["run_checks"])
        correct = correct and all(checks.values())
    checks["digests_stable"] = stable

    walls = [r["wall_s"] for r in rows]
    adjusted = [r["adjusted_s"] for r in rows if "adjusted_s" in r]
    info = {
        "metadata": metadata(args, result["meta"]),
        "checks": checks,
        "iterations": [{k: v for k, v in r.items() if k != "detail"} | r.get("detail", {}) for r in rows],
        "wall_s_quartiles": _quartiles(walls),
        "wall_s_samples": len(walls),
        "adjusted_wall_s_quartiles": _quartiles(adjusted) if adjusted else None,
        "setup_s_samples": setup,
        "digests": sorted({(r["sub"], r["digest"]) for r in rows if "digest" in r}),
        "peak_rss_mib": result["peak_rss_mib"],
        # the metrics carry the complements of these, because a metric must never read 0
        "failed_share": failed / attempted,
        "quarantined_share": 1.0 - values["used_share"] if not args.trace else None,
    }
    if args.trace:
        info["trace_file"] = result["trace_file"]
    print(json.dumps({"perfbench": info}))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
