"""Mutation fuzzing of the command-line boundary.

Each example takes a valid spec, `mc` config or CSV sample, replaces one
value anywhere in it (or deletes it) and runs the command on the result. The
exit-code contract must hold: the code is 0, 1 or 2, nothing escapes as a
traceback, and exit 1 always comes with a `refused:` line. Replacements come
from a small fixed pool (wrong types, null, negatives, empty containers and
small numbers) and the base inputs are small, so no example allocates more
than a few MiB or starts more than one worker thread.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from fclt_lab.cli import main

GARCH = {
    "model": "garch",
    "lambda": "power",
    "delta": None,
    "p": 1,
    "q": 1,
    "omega": 0.1,
    "alpha": [0.1],
    "beta": [0.8],
    "gamma": [],
    "innovation": {"kind": "standard_normal"},
}
ARMA_GARCH = {"model": "arma", "phi": [-0.3], "theta": [0.2], "innovation": GARCH}
IID_T = {"model": "iid", "innovation": {"kind": "student_t", "dof": 8}}
MA1 = {"model": "arma", "phi": [], "theta": [0.4], "innovation": {"kind": "standard_normal"}}
TRUTH = {"q_true": 0.0, "f_at_q": 0.4, "mu": 0.0, "m_true": 1.0, "a_r": 0.0}

SPECS = [GARCH, ARMA_GARCH, IID_T, MA1]
CONFIGS = [
    {
        "experiment": "clt",
        "spec": GARCH,
        "p": 0.5,
        "r": 2,
        "n": 40,
        "reps": 4,
        "seed": 1,
        "truth": TRUTH,
        "target": {"g11": 1.6, "g12": 0.0, "g22": 2.0, "a_r": 0.0},
        "pilot": {"n": 2000, "seed": 0},
    },
    {"experiment": "bahadur", "spec": ARMA_GARCH, "n_ladder": [20, 40], "reps": 4, "seed": [2, 1], "truth": TRUTH},
    {"experiment": "fclt", "spec": MA1, "t_grid": [0.5], "n": 40, "reps": 4, "target": "replication_mc", "max_lag": 2},
    {"experiment": "representation", "spec": IID_T, "r": 1, "n_ladder": [20, 40], "reps": 4, "se_threshold": 2.0},
]
CSV_LINES = ["x", "1.0", "-2.5", "3.0", "0.25"]

DELETE = object()
POOL = ["x", None, True, -1, -0.5, 0, 0.5, 1, 2, 3, [], {}, [1, "a"], DELETE]


def _paths(obj, prefix=()):
    """Every position in a JSON value: the root, then each key or index below it."""
    yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _mutated(obj, path, value):
    if not path:
        return {} if value is DELETE else value
    obj = copy.deepcopy(obj)
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return obj


def _run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)  # an escaping exception fails the example as the traceback it would print
    return code, err.getvalue()


def _assert_contract(code: int, err: str):
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
    if code == 1:
        assert err.startswith("refused:"), err


@st.composite
def _mutation(draw, bases):
    base = draw(st.sampled_from(bases))
    path = draw(st.sampled_from(list(_paths(base))))
    return _mutated(base, path, draw(st.sampled_from(POOL)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(spec=_mutation(SPECS), command=st.sampled_from(["check", "simulate", "ned-scan"]))
def test_mutated_spec_keeps_exit_contract(spec, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w") as fh:
            json.dump(spec, fh)
        argv = {
            "check": ["check", "--spec", path, "--r", "2"],
            "simulate": ["simulate", "--spec", path, "--n", "16", "--out", os.path.join(tmp, "x.csv")],
            "ned-scan": ["ned-scan", "--spec", path, "--kmax", "2", "--samples", "8", "--redraws", "2", "--threads", "1"],
        }[command]
        _assert_contract(*_run(argv))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(config=_mutation(CONFIGS))
def test_mutated_mc_config_keeps_exit_contract(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "exp.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        _assert_contract(*_run(["mc", "--config", path, "--out", os.path.join(tmp, "rep.json"), "--threads", "1"]))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(line=st.integers(0, len(CSV_LINES) - 1), value=st.sampled_from(POOL))
def test_mutated_csv_keeps_exit_contract(line, value):
    lines = list(CSV_LINES)
    if value is DELETE:
        del lines[line]
    else:
        lines[line] = json.dumps(value)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sample.csv")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        _assert_contract(*_run(["estimate", "--input", path, "--p", "0.5", "--r", "2"]))
