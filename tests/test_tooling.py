"""The benchmark and the scripts call fclt_lab by name. perfbench/workloads.py
imports functions and reads module constants when a workload is built, so a
rename breaks it; each workload is built here at toy size (nothing runs), and
the NED script runs at a small size. No library module may import a name it
never uses, and no private module-level function or constant may go
unreferenced in ``src/``, so dead imports and leftovers cannot pile up unseen.
In ``conditions.py`` only ``_report`` and ``check_positivity`` build a
``ConditionReport``, so the verdict and note rule is written once.
No library module imports scipy at module level. Importing the package, and a
normal-law GARCH ``check`` plus ``mc``, iid ``simulate`` plus closed-form
``mc`` or GARCH ``ned-scan``, load no scipy module at all; a Student t law
loads ``scipy.special`` and none of ``scipy.stats``, ``scipy.signal``,
``scipy.integrate`` and ``scipy.optimize`` (together over a second of
start-up), and neither does an ARMA or ARMA-GARCH run, whose filter is numpy.
No library module names ``scipy.integrate``, ``quad``, ``scipy.signal`` or
``lfilter``, and only ``innovations.py`` names its double-exponential rule:
every integral against the innovation law goes through
``InnovationDist.expect``. Only ``rng.py`` names ``SeedSequence`` or
``Philox``, and it derives the stream keys itself. Only ``scan.py`` defines
the block layout and the tile byte budget, and ``garch.py`` and ``arma.py``
import them from it (``garch.py`` also its state tile, ``state_tile``); it
alone defines the one in-block recursion, ``linear_scan``, and its block-end
pass, and ``tiles`` takes no unit: it derives one from the path length and
the recursion's lag count, a property of the spec. Neither a GARCH tile nor
the ARMA filter's tile loop allocates a numpy buffer of its own: the tiles
work in scan's per-thread workspace. Only
``parallel.py`` sizes chunks: it alone defines ``CHUNK_BYTES``, and no other
module names a chunk size, reads the budget or binds a name for a chunk. The
chunk budget and the tile budget are the only module-level ``*_BYTES`` names."""

import ast
import json
import os
import re
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


def _module_names(tree: ast.Module) -> list[str]:
    """The functions and constants a module defines at its top level."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return names


def _private_module_names(tree: ast.Module) -> list[str]:
    """The private (``_name``, not dunder) functions and constants a module defines at its top level."""
    return [n for n in _module_names(tree) if n.startswith("_") and not (n.startswith("__") and n.endswith("__"))]


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names a module reads, as a name, an attribute or an import."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def test_every_private_module_name_is_referenced():
    src = os.path.join(ROOT, "src", "fclt_lab")
    defined, referenced = [], set()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                tree = ast.parse(fh.read())
            defined += [(name, private) for private in _private_module_names(tree)]
            referenced |= _referenced_names(tree)
    assert not [f"{module}: {private}" for module, private in defined if private not in referenced]


def test_only_report_and_positivity_build_condition_reports():
    # one report rule: every threshold check goes through _report; positivity keeps its non-strict rule
    with open(os.path.join(ROOT, "src", "fclt_lab", "conditions.py")) as fh:
        tree = ast.parse(fh.read())
    builders = set()
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "ConditionReport":
                    builders.add(fn.name)
    assert builders == {"_report", "check_positivity"}


_STREAM_KEYING = re.compile(r"\b(?:SeedSequence|Philox)\b")


def test_only_rng_keys_streams():
    # one home for the key derivation: rng.py builds Philox generators from keys it derives itself
    src = os.path.join(ROOT, "src", "fclt_lab")
    found = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                source = fh.read()
            if name == "rng.py":
                assert {"SeedSequence", "Philox"} & _referenced_names(ast.parse(source)) == {"Philox"}
                continue
            lines = [i for i, line in enumerate(source.splitlines(), 1) if _STREAM_KEYING.search(line)]
            if lines:
                found[name] = lines
    assert not found


_INTEGRATOR = re.compile(r"\b_(?:integrate|de_piece|de_nodes)\b")


def test_only_innovations_names_the_integrator():
    src = os.path.join(ROOT, "src", "fclt_lab")
    found = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py") and name != "innovations.py":
            with open(os.path.join(src, name)) as fh:
                lines = [i for i, line in enumerate(fh, 1) if _INTEGRATOR.search(line)]
            if lines:
                found[name] = lines
    assert not found


_LAYOUT = {"BLOCK", "tiles", "lagged_blocks", "from_blocks", "linear_scan"}
_SCAN_ONLY = {"add_block_starts", "linear_scan"}
_TILE_BUDGET = re.compile(r"TILE_BYTES|BLOCK_ROWS|\b2\s*\*\*\s*20\b")


def test_only_scan_defines_the_block_layout():
    src = os.path.join(ROOT, "src", "fclt_lab")
    found, imported = {}, {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                source = fh.read()
            tree = ast.parse(source)
            if name == "scan.py":
                assert _LAYOUT | _SCAN_ONLY | {"TILE_BYTES"} <= set(_module_names(tree))
                [tiles] = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "tiles"]
                assert [a.arg for a in tiles.args.args] == ["B", "n", "m"]
                continue
            hits = [n for n in _module_names(tree) if n in _LAYOUT | _SCAN_ONLY or _TILE_BUDGET.search(n)]
            if name in ("garch.py", "arma.py"):  # the two recursions hold no byte budget of their own
                hits += [f"line {i}" for i, line in enumerate(source.splitlines(), 1) if _TILE_BUDGET.search(line)]
                imported[name] = {a.name for node in tree.body if isinstance(node, ast.ImportFrom)
                                  and node.module == "scan" for a in node.names}
            if hits:
                found[name] = hits
    assert not found
    assert imported == {"arma.py": _LAYOUT, "garch.py": _LAYOUT | {"state_tile"}}  # garch's state tile: a slot


_ALLOCATORS = {"empty", "zeros", "ones", "full", "empty_like", "zeros_like", "ones_like", "full_like"}


def _allocations(node) -> list[int]:
    """Lines under ``node`` that call a numpy array allocator by name."""
    return [c.lineno for c in ast.walk(node) if isinstance(c, ast.Call) and isinstance(c.func, ast.Attribute)
            and c.func.attr in _ALLOCATORS and isinstance(c.func.value, ast.Name) and c.func.value.id == "np"]


def test_recursion_tiles_allocate_no_buffer_outside_the_workspace():
    # a tile's buffers come from scan's per-thread workspace (lagged_blocks, state_tile), never a fresh np.empty
    src = os.path.join(ROOT, "src", "fclt_lab")
    bodies = {}
    for name, fn in [("garch.py", "_tile"), ("arma.py", "arma_values_from_innovations")]:
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read())
        [func] = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == fn]
        loops = [node for node in ast.walk(func) if isinstance(node, ast.For)]
        bodies[name] = func if name == "garch.py" else loops[0]  # the ARMA filter's loop over its tiles
    assert isinstance(bodies["arma.py"].iter, ast.Call) and bodies["arma.py"].iter.func.id == "tiles"
    assert {name: _allocations(body) for name, body in bodies.items()} == {"garch.py": [], "arma.py": []}
    assert _allocations(ast.parse("x = np.empty(3)\ny = np.zeros_like(x)")) == [1, 2]


_CHUNK_KNOB = re.compile(r"\bchunk_size\b|\bDEFAULT_CHUNK\b")


def _bound_names(tree: ast.Module) -> list[str]:
    """The variables and parameters a module binds, at any depth."""
    return [
        node.arg if isinstance(node, ast.arg) else node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.arg) or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    ]


def test_only_parallel_sizes_chunks():
    src = os.path.join(ROOT, "src", "fclt_lab")
    found = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                source = fh.read()
            tree = ast.parse(source)
            hits = [f"line {i}" for i, line in enumerate(source.splitlines(), 1) if _CHUNK_KNOB.search(line)]
            if name == "parallel.py":
                assert "CHUNK_BYTES" in _module_names(tree)
            else:
                hits += [n for n in _bound_names(tree) if "chunk" in n.lower()]  # a chunk size or bound
                hits += sorted({"CHUNK_BYTES"} & _referenced_names(tree))  # the budget, read or imported
            if hits:
                found[name] = hits
    assert not found
    with open(os.path.join(src, "parallel.py")) as fh:
        parallel = ast.parse(fh.read())
    [run_chunked] = [node for node in parallel.body if getattr(node, "name", None) == "run_chunked"]
    # perfbench/tracer.py reads a positional threads after row_bytes
    assert [a.arg for a in run_chunked.args.args] == ["total", "task", "row_bytes", "threads"]


def test_only_parallel_and_scan_bind_byte_budgets():
    # a *_BYTES constant elsewhere would be a second memory policy beside the chunks and the tiles
    src = os.path.join(ROOT, "src", "fclt_lab")
    budgets = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                found = [n for n in _module_names(ast.parse(fh.read())) if n.endswith("_BYTES")]
            if found:
                budgets[name] = found
    assert budgets == {"parallel.py": ["CHUNK_BYTES"], "scan.py": ["TILE_BYTES"]}


_QUADRATURE = re.compile(
    r"scipy\.(?:integrate|signal)|from\s+scipy\s+import[^\n]*\b(?:integrate|signal)\b|\bquad\b|\blfilter\b"
)


def test_no_module_names_scipy_integrate():
    src = os.path.join(ROOT, "src", "fclt_lab")
    found = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                lines = [i for i, line in enumerate(fh, 1) if _QUADRATURE.search(line)]
            if lines:
                found[name] = lines
    assert not found


HEAVY_SCIPY = ("scipy.stats", "scipy.signal", "scipy.integrate", "scipy.optimize")


def _scipy_after(code: str, cwd) -> list[str]:
    """The scipy modules a fresh interpreter holds after running ``code``."""
    script = code + "\nimport sys\nprint(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env, cwd=cwd, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1].split()


def _module_level_scipy_imports(source: str) -> list[int]:
    """Lines of a module that import scipy outside any function body."""
    found, todo = [], list(ast.parse(source).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            todo.extend(ast.iter_child_nodes(node))
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            found.append(node.lineno)
    return sorted(found)


def test_no_module_imports_scipy_at_module_level():
    assert _module_level_scipy_imports("import numpy\nif True:\n    from scipy import special\n") == [3]
    assert _module_level_scipy_imports("def f():\n    import scipy.signal\n") == []
    src = os.path.join(ROOT, "src", "fclt_lab")
    found = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                lines = _module_level_scipy_imports(fh.read())
            if lines:
                found[name] = lines
    assert not found


def test_import_loads_neither_scipy_stats_nor_signal(tmp_path):
    assert _scipy_after("import fclt_lab, fclt_lab.cli", tmp_path) == []


def _garch_check_and_clt(tmp_path, innovation: dict) -> list[str]:
    """The scipy modules left by a GARCH ``check`` and a small ``mc`` clt run."""
    spec = {"model": "garch", "lambda": "power", "delta": None, "p": 1, "q": 1, "omega": 0.1,
            "alpha": [0.1], "beta": [0.8], "gamma": [], "innovation": innovation}
    cfg = {"experiment": "clt", "spec": spec, "p": 0.5, "r": 2, "n": 300, "reps": 8, "seed": 1,
           "pilot": {"n": 20_000, "seed": 2}, "target": {"g11": 1.6, "g22": 2.0, "g12": 0.0}}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    code = (
        "from fclt_lab.cli import main\n"
        "assert main(['check', '--spec', 'spec.json', '--r', '2', '--out', 'check.json']) == 0\n"
        "assert main(['mc', '--config', 'cfg.json', '--out', 'mc.json', '--threads', '1']) == 0"
    )
    loaded = _scipy_after(code, tmp_path)
    assert json.loads((tmp_path / "mc.json").read_text())["report"]["used"] == 8
    return loaded


def test_garch_check_and_clt_run_load_neither_scipy_stats_nor_signal(tmp_path):
    assert _garch_check_and_clt(tmp_path, {"kind": "standard_normal"}) == []


def test_student_t_garch_check_and_clt_run_load_scipy_special_only(tmp_path):
    loaded = _garch_check_and_clt(tmp_path, {"kind": "student_t", "dof": 8.0})
    assert "scipy.special" in loaded
    assert not set(HEAVY_SCIPY) & set(loaded)


def test_iid_simulate_and_closed_form_clt_load_no_scipy(tmp_path):
    spec = {"model": "iid", "innovation": {"kind": "standard_normal"}}
    cfg = {"experiment": "clt", "spec": spec, "p": 0.3, "r": 2, "n": 200, "reps": 8, "seed": 1}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    code = (
        "from fclt_lab.cli import main\n"
        "assert main(['simulate', '--spec', 'spec.json', '--n', '50', '--out', 'x.csv']) == 0\n"
        "assert main(['mc', '--config', 'cfg.json', '--out', 'mc.json', '--threads', '1']) == 0"
    )
    assert _scipy_after(code, tmp_path) == []
    assert json.loads((tmp_path / "mc.json").read_text())["report"]["used"] == 8


def test_garch_ned_scan_loads_no_heavy_scipy(tmp_path):
    (tmp_path / "spec.json").write_text(json.dumps(
        {"model": "garch", "p": 1, "q": 1, "omega": 0.1, "alpha": [0.1], "beta": [0.8],
         "innovation": {"kind": "standard_normal"}}
    ))
    code = (
        "from fclt_lab.cli import main\n"
        "assert main(['ned-scan', '--spec', 'spec.json', '--functional', 'abs_pow:2', '--kmax', '3',"
        " '--samples', '32', '--redraws', '4', '--out', 'ned.csv']) == 0"
    )
    assert _scipy_after(code, tmp_path) == []
    assert (tmp_path / "ned.csv").exists()


def test_arma_simulate_clt_and_ned_scan_load_no_heavy_scipy(tmp_path):
    garch = {"model": "garch", "p": 1, "q": 1, "omega": 0.1, "alpha": [0.1], "beta": [0.8],
             "innovation": {"kind": "standard_normal"}}
    ar1 = {"model": "arma", "phi": [-0.5], "theta": [], "innovation": {"kind": "standard_normal"}}
    cfg = {"experiment": "clt", "spec": ar1, "p": 0.95, "r": 1, "n": 300, "reps": 8, "seed": 1}
    (tmp_path / "arma_garch.json").write_text(json.dumps(
        {"model": "arma", "phi": [-0.5], "theta": [0.3], "innovation": garch}
    ))
    (tmp_path / "ar1.json").write_text(json.dumps(ar1))
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    code = (
        "from fclt_lab.cli import main\n"
        "assert main(['simulate', '--spec', 'arma_garch.json', '--n', '50', '--out', 'x.csv']) == 0\n"
        "assert main(['mc', '--config', 'cfg.json', '--out', 'mc.json', '--threads', '1']) == 0\n"
        "assert main(['ned-scan', '--spec', 'ar1.json', '--functional', 'identity', '--kmax', '3',"
        " '--samples', '32', '--redraws', '4', '--out', 'ned.csv']) == 0"
    )
    loaded = _scipy_after(code, tmp_path)
    assert not set(HEAVY_SCIPY) & set(loaded), loaded
    assert len([l for l in (tmp_path / "x.csv").read_text().splitlines() if not l.startswith("#")]) == 51
    assert json.loads((tmp_path / "mc.json").read_text())["report"]["used"] == 8
    assert (tmp_path / "ned.csv").exists()
