"""The benchmark and the scripts call fclt_lab by name. perfbench/workloads.py
imports functions and reads module constants when a workload is built, so a
rename breaks it; each workload is built here at toy size (nothing runs), and
the NED script runs at a small size."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_benchmark_workload_builds_at_toy_size(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    from workloads import WORKLOADS

    for name, cls in WORKLOADS.items():
        meta = cls(str(tmp_path), 7, toy=True).meta()
        assert meta["steps"] > 0 and meta["threads"] >= 1, name


def test_ned_scan_script_runs_small():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    script = os.path.join(ROOT, "scripts", "ned_scan_ar1.py")
    argv = [sys.executable, script, "--kmax", "4", "--samples", "64", "--redraws", "4"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "degradation consistent" in done.stdout
