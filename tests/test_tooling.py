"""The benchmark and the scripts call fclt_lab by name. perfbench/workloads.py
imports functions and reads module constants when a workload is built, so a
rename breaks it; each workload is built here at toy size (nothing runs), and
the NED script runs at a small size. No library module may import a name it
never uses, so dead imports cannot pile up unseen."""

import ast
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


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads (``__future__`` imports aside)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:  # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


def test_library_modules_use_every_import():
    src = os.path.join(ROOT, "src", "fclt_lab")
    unused = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py") and name != "__init__.py":  # __init__ imports to re-export
            with open(os.path.join(src, name)) as fh:
                found = _unused_imports(fh.read())
            if found:
                unused[name] = found
    assert not unused
