#!/usr/bin/env python3
"""Parent/change pairs of the benchmark, summarised into ``BENCH_<label>.json``.

    python3 scripts/bench.py --label NAME [--base REV] [--head REV]
        [--workload W ...] [--seed N ...] [--pairs K] [--seconds S] [--trace 0|1]

Run from the root of a git checkout. ``--base`` (default ``HEAD``) and
``--head`` (default: the working tree) are exported into a temporary
directory each (``git archive`` for a revision). Both sides run this
checkout's ``perfbench/`` and ``BENCHMARK.json``, so only ``src/`` differs.
For every workload and seed, K pairs of ``perfbench/run.py`` runs alternate
which side goes first. The file holds the machine, the versions, the
settings, every run's metrics and determinism digests, and per metric and
side the median and quartiles, plus the pairs the head wins and loses (ties
count for neither).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
from run import _quartiles  # noqa: E402  (perfbench/run.py: the quartiles its results report)

ROOT = os.getcwd()
WORKING_TREE = "working tree"
MIN_PAIRS = 10  # fewer pairs support no claim of a gain


# --- summary (pure: the unit tests feed it canned result lines) -------------------


def parse_run(stdout: str) -> tuple[dict, dict]:
    """The (run information, result) objects of the last two stdout lines."""
    info, result = (json.loads(line) for line in stdout.strip().splitlines()[-2:])
    return info["perfbench"], result


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload and metric: both sides' values, quartiles and the pair wins.

    ``runs`` are records ``{"workload", "seed", "pair", "side", "result"}``
    with ``side`` ``"base"`` or ``"head"`` and ``result`` the last line of
    ``perfbench/run.py`` (None for a run that failed). ``metrics`` are the
    ``BENCHMARK.json`` entries (``name``, ``better``, optional ``bound``).
    Only a pair in which both runs gave a result has metric values. A pair
    is a win for the head only if the head's run is correct and better.
    """
    pairs: dict[tuple, dict] = {}
    for run in runs:
        pairs.setdefault((run["workload"], run["seed"], run["pair"]), {})[run["side"]] = run["result"]
    out: dict[str, dict] = {}
    for (workload, _, _), sides in pairs.items():
        entry = out.setdefault(workload, {
            "pairs": 0, "failed_pairs": 0, "correct": {"base": 0, "head": 0},
            "attempted": {"base": 0, "head": 0}, "failed": {"base": 0, "head": 0}, "metrics": {},
        })
        entry["pairs"] += 1
        base, head = sides.get("base"), sides.get("head")
        if base is None or head is None:
            entry["failed_pairs"] += 1
            continue
        for side, result in (("base", base), ("head", head)):
            entry["correct"][side] += bool(result["correct"])
            entry["attempted"][side] += result["attempted"]
            entry["failed"][side] += result["failed"]
        for metric in metrics:
            name = metric["name"]
            if name not in base["metrics"] or name not in head["metrics"]:
                continue
            b, h = base["metrics"][name]["value"], head["metrics"][name]["value"]
            m = entry["metrics"].setdefault(name, {"base": [], "head": [], "wins": 0, "losses": 0})
            m["base"].append(b)
            m["head"].append(h)
            better = h < b if metric["better"] == "lower" else h > b
            worse = h > b if metric["better"] == "lower" else h < b
            m["wins"] += better and bool(head["correct"])
            m["losses"] += worse
    for entry in out.values():
        for metric in metrics:
            m = entry["metrics"].get(metric["name"])
            if m is None:
                continue
            for side in ("base", "head"):
                m[f"{side}_quartiles"] = _quartiles(m[side])
            _judge(m, metric, entry)
    return out


def _judge(m: dict, metric: dict, entry: dict):
    """The claim rule and the regression bound, applied to one metric's pairs.

    A gain holds when at least ``MIN_PAIRS`` pairs ran, none of them failed,
    the head is correct in as many runs as the base and fails no larger
    share of operations, the head wins at least nine tenths of all pairs run
    and its median beats the base median by more than the base's quartile
    distance.
    The bound is relative to the base median: the head may be that much
    worse. Where the base's quartile distance alone exceeds the bound and
    the two sides' runs overlap, the bound is ``"unresolved"``.
    """
    b_lo, b_med, b_hi = m["base_quartiles"]
    h_med = m["head_quartiles"][1]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    gain = sign * (b_med - h_med)
    m["relative_change"] = (h_med - b_med) / b_med if b_med else None
    attempted, failed = entry["attempted"], entry["failed"]
    sound = (
        entry["failed_pairs"] == 0
        and entry["correct"]["head"] >= entry["correct"]["base"]
        and failed["head"] * attempted["base"] <= failed["base"] * attempted["head"]
    )
    pairs = entry["pairs"]
    m["gain_holds"] = sound and pairs >= MIN_PAIRS and m["wins"] >= 0.9 * pairs and gain > b_hi - b_lo
    if "bound" in metric:
        allowed = metric["bound"] * abs(b_med)
        overlap = min(m["head"]) <= max(m["base"]) and min(m["base"]) <= max(m["head"])
        m["within_bound"] = "unresolved" if b_hi - b_lo > allowed and overlap else -gain <= allowed


# --- running the two sides ---------------------------------------------------------


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export_side(rev: str, into: str) -> str:
    """A tree with ``src/`` from ``rev`` (or the working tree) and this checkout's benchmark."""
    os.makedirs(into)
    if rev == WORKING_TREE:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(into, "src"), ignore=shutil.ignore_patterns("__pycache__"))
    else:
        archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", into], input=archive, check=True)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), into)
    return into


def run_side(tree: str, workload: str, seed: int, args) -> tuple[dict | None, dict | None, str]:
    argv = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload]
    argv += ["--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        return None, None, done.stderr.strip().splitlines()[-1] if done.stderr.strip() else f"exit {done.returncode}"
    info, result = parse_run(done.stdout)
    return info, result, ""


def machine(info: dict | None) -> dict:
    meta = (info or {}).get("metadata", {})
    keys = ("cpu_model", "nproc", "python", "numpy", "scipy", "blas", "OPENBLAS_NUM_THREADS")
    return {"platform": platform.platform(), **{k: meta.get(k) for k in keys}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    ap.add_argument("--base", default="HEAD", help="parent revision (default HEAD)")
    ap.add_argument("--head", default=WORKING_TREE, help="change revision (default: the working tree)")
    ap.add_argument("--workload", action="append", help="repeatable; default: every workload in BENCHMARK.json")
    ap.add_argument("--seed", type=int, action="append", help="repeatable; default 7")
    ap.add_argument("--pairs", type=int, default=10, help="pairs per workload and seed (default 10)")
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = args.seed or [7]
    args.seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    revisions = {side: rev if rev == WORKING_TREE else _git("rev-parse", rev) for side, rev in (("base", args.base), ("head", args.head))}

    runs, first_info = [], None
    with tempfile.TemporaryDirectory(prefix="fclt-bench-") as tmp:
        trees = {side: export_side(rev, os.path.join(tmp, side)) for side, rev in revisions.items()}
        for workload in workloads:
            for seed in seeds:
                for pair in range(args.pairs):
                    order = ("base", "head") if pair % 2 == 0 else ("head", "base")
                    for side in order:
                        info, result, error = run_side(trees[side], workload, seed, args)
                        first_info = first_info or info
                        runs.append({
                            "workload": workload, "seed": seed, "pair": pair, "side": side,
                            "first": side == order[0], "result": result, "error": error or None,
                            "wall_s_quartiles": info and info["wall_s_quartiles"], "digests": info and info["digests"],
                        })
                        shown = f"correct={result['correct']}" if result else error
                        if result and "wall_s" in result["metrics"]:
                            shown += f" wall_s={result['metrics']['wall_s']['value']:.4g}"
                        sys.stderr.write(f"bench: {workload} seed {seed} pair {pair} {side}: {shown}\n")

    report = {
        "label": args.label,
        "machine": machine(first_info),
        "revisions": revisions,
        "settings": {
            "workloads": workloads,
            "seeds": seeds,
            "pairs": args.pairs,
            "seconds": args.seconds,
            "trace": args.trace,
        },
        "runs": runs,
        "summary": summarize(runs, metrics),
    }
    out = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.stderr.write(f"bench: wrote {out}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
