#!/usr/bin/env python3
"""Self-test of the benchmark at toy sizes. Run from the repository root:

    python3 perfbench/selftest.py

Checks that
* BENCHMARK.json, the layer map (perfbench/layers.json) and the workload
  table agree;
* every workload, untraced and traced, prints every named metric with its
  unit and passes its structural checks;
* span self times add up to the traced wall time on single-threaded
  workloads, and every child span lies inside its parent;
* the traced and untraced paths give the same determinism digest, and exact
  counts repeat across two traced runs with different seeds;
* in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import COUNT_UNITS  # noqa: E402
from tracer import Span, self_times  # noqa: E402

FAILURES: list[str] = []


def check(ok: bool, what: str):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        FAILURES.append(what)


def bench(args: list[str], cwd: str = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def check_spans(path: str, threads: int, name: str):
    with open(path) as fh:
        iterations = json.load(fh)["iterations"]
    for spans_obj in iterations:
        spans = [Span(**s) for s in spans_obj]
        by_id = {s.id: s for s in spans}
        nested = all(
            by_id[s.parent].start <= s.start and s.end <= by_id[s.parent].end for s in spans if s.parent
        )
        check(nested, f"{name}: every child span lies inside its parent")
        if threads == 1:
            selfs = self_times(spans)
            root = next(s for s in spans if s.parent is None)
            total = sum(selfs.values())
            check(abs(total - (root.end - root.start)) <= 1e-6, f"{name}: span self times sum to the traced wall time")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "layers.json")) as fh:
        layer_map = json.load(fh)["map"]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS

    names = [w["name"] for w in spec["workloads"]]
    check(names == list(WORKLOADS), "BENCHMARK.json workloads match the workload table")
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(set(per_layer) == set(layer_map), "per_layer metrics match the layer map")
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    for name in names:
        code, out = bench(["--workload", name, "--seed", "1", "--seconds", "1", "--trace", "0", "--toy"])
        result = json.loads(out[-1]) if code == 0 and out else {}
        got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
        check(got == e2e, f"{name}: untraced run emits every end-to-end metric with its unit")
        check(result.get("correct") is True and result.get("failed") == 0, f"{name}: untraced run is correct")
        untraced_digests = json.loads(out[-2])["perfbench"]["digests"] if code == 0 else None

        counts = []
        for seed in (1, 2):
            code, out = bench(["--workload", name, "--seed", str(seed), "--seconds", "1", "--trace", "1", "--toy"])
            result = json.loads(out[-1]) if code == 0 and out else {}
            got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            check(got == per_layer, f"{name}: traced run emits every per-layer metric with its unit")
            check(result.get("correct") is True, f"{name}: traced run is correct, counts repeat, digests match")
            if not result:
                continue
            info = json.loads(out[-2])["perfbench"]
            if seed == 1:
                check(info["digests"][0] == untraced_digests[0], f"{name}: traced and untraced digests agree")
            check_spans(info["trace_file"], info["metadata"]["threads"], name)
            counts.append({k: v["value"] for k, v in result["metrics"].items() if per_layer[k] in COUNT_UNITS})
        check(len(counts) == 2 and counts[0] == counts[1], f"{name}: exact counts repeat across traced runs")

    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".perfbench"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        code, out = bench(["--workload", names[0], "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
        check(code != 0 and not any(line.startswith('{"correct"') for line in out),
              "without sources the benchmark exits non-zero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
