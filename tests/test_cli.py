import json
import math
import os

import numpy as np
import pytest

from fclt_lab import parallel
from fclt_lab.cli import main
from fclt_lab.processes import path_from_csv


@pytest.fixture
def garch_spec_file(tmp_path):
    spec = {
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
    path = tmp_path / "garch.json"
    path.write_text(json.dumps(spec))
    return str(path)


def test_estimate_example(tmp_path, capsys):
    sample = tmp_path / "sample.csv"
    sample.write_text("x\n1.0\n2.0\n3.0\n")
    assert main(["estimate", "--input", str(sample), "--p", "0.5", "--r", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["q_hat"] == 2.0
    assert out["m_hat"] == pytest.approx(2 / 3)
    assert "manifest" in out


def test_check_garch_r1_satisfied(garch_spec_file, capsys):
    assert main(["check", "--spec", garch_spec_file, "--r", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert isinstance(out, list)  # JSON array of condition reports
    by_name = {r["condition_name"]: r for r in out}
    assert by_name["P_s"]["satisfied"] is True
    assert by_name["P_s"]["computed_value"] == pytest.approx(0.9)
    assert by_name["garch_stationarity"]["satisfied"] is True
    assert all("manifest_hash" in r for r in out)


def test_mc_non_causal_exits_1_with_modulus(tmp_path, capsys):
    cfg = {
        "experiment": "clt",
        "spec": {"model": "arma", "phi": [-1.0], "theta": [], "innovation": {"kind": "standard_normal"}},
        "p": 0.5,
        "r": 1,
        "n": 200,
        "reps": 20,
        "seed": 1,
        "truth": {"q_true": 0.0, "f_at_q": 0.4, "mu": 0.0, "m_true": 1.0, "a_r": 0.0},
    }
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["mc", "--config", str(cfg_path), "--threads", "1"]) == 1
    err = capsys.readouterr().err
    assert "causality" in err
    assert "1" in err  # the offending root modulus appears in the report


def test_simulate_estimate_roundtrip(garch_spec_file, tmp_path, capsys):
    out_csv = tmp_path / "path.csv"
    assert main(["simulate", "--spec", garch_spec_file, "--n", "64", "--seed", "3", "--out", str(out_csv)]) == 0
    text = out_csv.read_text()
    assert text.splitlines()[0].startswith("# manifest_hash=")
    assert text.splitlines()[1] == "x"
    with open(out_csv) as fh:
        values = path_from_csv(fh)
    assert values.shape == (64,)
    # manifest sidecar exists and matches the referenced hash
    sidecar = json.loads((tmp_path / "path.csv.manifest.json").read_text())
    assert text.splitlines()[0] == f"# manifest_hash={sidecar['manifest_hash']}"
    assert main(["estimate", "--input", str(out_csv), "--p", "0.9", "--r", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["n"] == 64


def test_ned_scan_csv(tmp_path, capsys):
    spec = {"model": "arma", "phi": [], "theta": [0.3], "innovation": {"kind": "standard_normal"}}
    spec_path = tmp_path / "ma1.json"
    spec_path.write_text(json.dumps(spec))
    out_csv = tmp_path / "scan.csv"
    assert (
        main(
            [
                "ned-scan",
                "--spec",
                str(spec_path),
                "--kmax",
                "3",
                "--samples",
                "128",
                "--redraws",
                "8",
                "--out",
                str(out_csv),
            ]
        )
        == 0
    )
    lines = [l for l in out_csv.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "k,nu_hat,se,nu_hat_jk"
    rows = [l.split(",") for l in lines[1:]]
    assert [int(r[0]) for r in rows] == [1, 2, 3]
    assert all(float(r[1]) == 0.0 for r in rows)  # MA(1): no dependence beyond k=1


def test_mc_clt_report_and_thread_determinism(tmp_path):
    cfg = {
        "experiment": "clt",
        "spec": {"model": "iid", "innovation": {"kind": "standard_normal"}},
        "p": 0.5,
        "r": 2,
        "n": 400,
        "reps": 96,
        "seed": 11,
        "truth": {"q_true": 0.0, "f_at_q": 0.3989422804014327, "mu": 0.0, "m_true": 1.0, "a_r": 0.0},
        "target": {"g11": 1.5707963267948966, "g22": 2.0, "g12": 0.0},
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "rep1.json", tmp_path / "rep2.json"
    assert main(["mc", "--config", str(cfg_path), "--out", str(out1), "--threads", "1"]) == 0
    assert main(["mc", "--config", str(cfg_path), "--out", str(out2), "--threads", "4"]) == 0
    a, b = json.loads(out1.read_text()), json.loads(out2.read_text())
    del a["manifest"], b["manifest"]  # wall time differs
    assert a == b
    assert a["report"]["used"] + a["report"]["quarantined"] == 96


def test_garch_mc_clt_report_is_byte_identical_on_one_and_two_threads(tmp_path, monkeypatch):
    # several chunks, so two threads each run tiles in their own workspace
    monkeypatch.setattr(parallel, "CHUNK_BYTES", 2**18)
    cfg = {
        "experiment": "clt",
        "spec": {"model": "garch", "p": 1, "q": 1, "omega": 0.1, "alpha": [0.1], "beta": [0.8],
                 "innovation": {"kind": "standard_normal"}},
        "p": 0.5, "r": 2, "n": 1500, "reps": 48, "seed": 5,
        "truth": {"q_true": 0.0, "f_at_q": 0.4, "mu": 0.0, "m_true": 1.0, "a_r": 0.0},
        "target": {"g11": 1.6, "g22": 2.0, "g12": 0.0},
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    bodies = []
    for threads in ("1", "2"):
        out = tmp_path / f"rep{threads}.json"
        assert main(["mc", "--config", str(cfg_path), "--out", str(out), "--threads", threads]) == 0
        report = json.loads(out.read_text())
        del report["manifest"]  # wall time differs
        bodies.append(json.dumps(report, sort_keys=True))
    assert bodies[0] == bodies[1]
    assert json.loads(bodies[0])["report"]["used"] == 48


def test_mc_bahadur_writes_csv_table(tmp_path):
    cfg = {
        "experiment": "bahadur",
        "spec": {"model": "iid", "innovation": {"kind": "standard_normal"}},
        "p": 0.5,
        "r": 2,
        "reps": 60,
        "seed": 2,
        "n_ladder": [200, 800],
        "truth": {"q_true": 0.0, "f_at_q": 0.3989422804014327, "mu": 0.0, "m_true": 1.0, "a_r": 0.0},
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "rep.json"
    assert main(["mc", "--config", str(cfg_path), "--out", str(out)]) == 0
    table = (tmp_path / "rep.csv").read_text().splitlines()
    header = [l for l in table if not l.startswith("#")][0]
    assert header == "n,median,p90,std,se"
    report = json.loads(out.read_text())
    assert report["report"]["columns"] == ["n", "median", "p90", "std", "se"]


def test_committed_clt_garch_config_runs_at_toy_size(tmp_path):
    # the C3 pipeline as a config: a pilot truth, a replication-MC target and the clt verdicts
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "scripts", "clt_garch.json")) as fh:
        cfg = json.load(fh)
    assert cfg["target"] == "replication_mc" and cfg["max_lag"] == 50
    cfg["pilot"]["n"], cfg["reps"], cfg["n"] = 20_000, 24, 400
    cfg_path, out = tmp_path / "clt_garch.json", tmp_path / "rep.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["mc", "--config", str(cfg_path), "--out", str(out), "--threads", "1"]) == 0
    report = json.loads(out.read_text())
    assert {"sigma", "mc_se", "gamma", "truncation"} <= report["target_long_run_cov"].keys()
    verdict = report["report"]["verdict"]
    assert all(v in ("pass", "fail", "inconclusive") for row in verdict for v in row) and len(verdict) == 2


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["mc", "--config", str(tmp_path / "nope.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_bad_csv_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("not-a-header\n1.0\n")
    assert main(["estimate", "--input", str(bad), "--p", "0.5", "--r", "2"]) == 2


@pytest.mark.parametrize("command", ["check", "estimate"])
def test_non_utf8_input_exits_2(tmp_path, capsys, command):
    path = tmp_path / "input"
    path.write_bytes(b"x\n1.0\n\xff\n")
    argv = {
        "check": ["check", "--spec", str(path), "--r", "2"],
        "estimate": ["estimate", "--input", str(path), "--p", "0.5", "--r", "2"],
    }
    assert main(argv[command]) == 2
    _assert_one_line_error(capsys, "utf-8")


def test_unknown_flag_exits_2(garch_spec_file):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--spec", garch_spec_file, "--r", "1", "--frobnicate"])
    assert exc.value.code == 2


def _assert_one_line_error(capsys, field):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1 and err.startswith("error:") and field in err


def test_mc_target_missing_entry_exits_2(garch_spec_file, tmp_path, capsys):
    cfg = {
        "spec": json.loads((tmp_path / "garch.json").read_text()),
        "experiment": "clt",
        "n": 50,
        "reps": 4,
        "truth": {"q_true": 0.0, "f_at_q": 0.4, "mu": 0.0, "m_true": 1.0, "a_r": 0.0},
        "target": {"g11": 1.6, "g12": 0.0},
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["mc", "--config", str(cfg_path)]) == 2
    _assert_one_line_error(capsys, "target.g22")


def test_mc_target_non_numeric_entry_exits_2(garch_spec_file, tmp_path, capsys):
    cfg = {
        "spec": json.loads((tmp_path / "garch.json").read_text()),
        "experiment": "clt",
        "n": 50,
        "reps": 4,
        "truth": {"q_true": 0.0, "f_at_q": 0.4, "mu": 0.0, "m_true": 1.0, "a_r": 0.0},
        "target": {"g11": "x", "g12": 0.0, "g22": 2.0},
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["mc", "--config", str(cfg_path)]) == 2
    _assert_one_line_error(capsys, "target.g11")


def test_mc_replication_target_one_step_paths_exits_2(garch_spec_file, tmp_path, capsys):
    cfg = {
        "spec": json.loads((tmp_path / "garch.json").read_text()),
        "experiment": "clt",
        "n": 1,
        "reps": 4,
        "truth": {"q_true": 0.0, "f_at_q": 0.4, "mu": 0.0, "m_true": 1.0, "a_r": 0.0},
        "target": "replication_mc",
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["mc", "--config", str(cfg_path)]) == 2
    _assert_one_line_error(capsys, "n_per_rep")


def test_ned_scan_non_numeric_functional_exits_2(garch_spec_file, capsys):
    argv = ["ned-scan", "--spec", garch_spec_file, "--functional", "abs_pow:x", "--kmax", "2"]
    assert main(argv) == 2
    _assert_one_line_error(capsys, "abs_pow")


@pytest.mark.parametrize("functional", ["abs_pow:nan", "abs_pow:inf", "indicator_leq:inf", "indicator_leq:-inf"])
def test_ned_scan_non_finite_functional_exits_2(garch_spec_file, capsys, functional):
    argv = ["ned-scan", "--spec", garch_spec_file, "--functional", functional, "--kmax", "2"]
    assert main(argv) == 2
    _assert_one_line_error(capsys, "finite")


def _spec_file(tmp_path, garch_spec_file, edit):
    spec = json.loads(open(garch_spec_file).read())
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(edit(spec)))
    return str(path)


def test_spec_without_innovation_exits_2(garch_spec_file, tmp_path, capsys):
    spec = _spec_file(tmp_path, garch_spec_file, lambda s: {k: v for k, v in s.items() if k != "innovation"})
    assert main(["simulate", "--spec", spec, "--n", "8", "--out", str(tmp_path / "x.csv")]) == 2
    _assert_one_line_error(capsys, "spec.innovation")


def test_spec_non_numeric_alpha_exits_2(garch_spec_file, tmp_path, capsys):
    spec = _spec_file(tmp_path, garch_spec_file, lambda s: s | {"alpha": ["x"]})
    assert main(["check", "--spec", spec, "--r", "1"]) == 2
    _assert_one_line_error(capsys, "spec.alpha")


@pytest.mark.parametrize("lam", ["x", 3, [], "log"])
def test_spec_wrong_lambda_exits_2(garch_spec_file, tmp_path, capsys, lam):
    # "log" is a valid transform, but not the one a garch model fixes
    spec = _spec_file(tmp_path, garch_spec_file, lambda s: s | {"lambda": lam})
    assert main(["check", "--spec", spec, "--r", "1"]) == 2
    _assert_one_line_error(capsys, "spec.lambda")


def test_nested_spec_wrong_lambda_exits_2(garch_spec_file, tmp_path, capsys):
    edit = lambda s: {"model": "arma", "phi": [-0.3], "theta": [], "innovation": s | {"lambda": "log"}}  # noqa: E731
    spec = _spec_file(tmp_path, garch_spec_file, edit)
    assert main(["check", "--spec", spec, "--r", "1"]) == 2
    _assert_one_line_error(capsys, "spec.innovation.lambda")


@pytest.mark.parametrize("edit", [lambda s: s | {"lambda": None}, lambda s: {k: v for k, v in s.items() if k != "lambda"}])
def test_spec_absent_or_null_lambda_is_fine(garch_spec_file, tmp_path, capsys, edit):
    spec = _spec_file(tmp_path, garch_spec_file, edit)
    assert main(["check", "--spec", spec, "--r", "1"]) == 0


def test_spec_json_array_exits_2(garch_spec_file, tmp_path, capsys):
    spec = _spec_file(tmp_path, garch_spec_file, lambda s: [s])
    assert main(["ned-scan", "--spec", spec, "--kmax", "2"]) == 2
    _assert_one_line_error(capsys, "spec must be a JSON object")


def test_estimate_csv_row_not_a_number_exits_2(tmp_path, capsys):
    sample = tmp_path / "sample.csv"
    sample.write_text("# comment\nx\n1.0\nfoo\n")
    assert main(["estimate", "--input", str(sample), "--p", "0.5", "--r", "2"]) == 2
    _assert_one_line_error(capsys, "line 4")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_estimate_csv_row_not_finite_exits_2(tmp_path, capsys, value):
    # a NaN would reach the output as "m_hat": NaN, which is not JSON
    sample = tmp_path / "sample.csv"
    sample.write_text(f"x\n1.0\n{value}\n2.0\n")
    assert main(["estimate", "--input", str(sample), "--p", "0.5", "--r", "2"]) == 2
    _assert_one_line_error(capsys, "line 3")


@pytest.mark.parametrize("kmax", ["0", "-3"])
def test_ned_scan_empty_k_grid_exits_2(garch_spec_file, capsys, kmax):
    assert main(["ned-scan", "--spec", garch_spec_file, "--kmax", kmax]) == 2
    _assert_one_line_error(capsys, "kmax")


@pytest.mark.parametrize("threads", ["0", "-3"])
@pytest.mark.parametrize("command", ["ned-scan", "mc"])
def test_threads_below_one_exits_2(garch_spec_file, tmp_path, capsys, command, threads):
    cfg = {
        "experiment": "clt",
        "spec": {"model": "iid", "innovation": {"kind": "standard_normal"}},
        "p": 0.5,
        "r": 2,
        "n": 50,
        "reps": 8,
        "truth": TRUTH,
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    argv = {
        "ned-scan": ["ned-scan", "--spec", garch_spec_file, "--kmax", "1", "--samples", "8", "--redraws", "2"],
        "mc": ["mc", "--config", str(cfg_path)],
    }[command]
    assert main(argv + ["--threads", threads]) == 2
    _assert_one_line_error(capsys, "--threads")


def test_ned_scan_prints_both_fits(tmp_path, capsys):
    spec_path = tmp_path / "ar1.json"
    spec_path.write_text(json.dumps({"model": "arma", "phi": [-0.5], "theta": [], "innovation": {"kind": "standard_normal"}}))
    argv = ["ned-scan", "--spec", str(spec_path), "--kmax", "6", "--samples", "256", "--redraws", "8"]
    assert main(argv + ["--out", str(tmp_path / "scan.csv")]) == 0
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("fit: geometric rate=") and "; polynomial rate=" in line and line.count("r_squared=") == 2


def test_ned_scan_fingerprint_covers_samples(garch_spec_file, tmp_path):
    fingerprints = []
    for samples in ("8", "12"):
        out = tmp_path / f"scan_{samples}.csv"
        argv = ["ned-scan", "--spec", garch_spec_file, "--kmax", "1", "--samples", samples, "--redraws", "2"]
        assert main(argv + ["--out", str(out)]) == 0
        fingerprints.append(json.loads((tmp_path / f"scan_{samples}.csv.manifest.json").read_text())["config_fingerprint"])
    assert fingerprints[0] != fingerprints[1]


TRUTH = {"q_true": 0.0, "f_at_q": 0.4, "mu": 0.0, "m_true": 1.0, "a_r": 0.0}


@pytest.mark.parametrize(
    "edit, field",
    [
        ({"pilot": "x"}, "pilot"),
        ({"pilot": {"n": "big"}}, "pilot.n"),
        ({"experiment": "fclt", "t_grid": 5, "truth": TRUTH}, "t_grid"),
        ({"se_threshold": "x", "truth": TRUTH}, "se_threshold"),
        ({"max_lag": "x", "target": "replication_mc", "truth": TRUTH}, "max_lag"),
        ({"truth": TRUTH | {"q_true": "x"}}, "truth.q_true"),
        ({"truth": "x"}, "truth"),
        ({"experiment": "bahadur", "n_ladder": ["a", 100], "truth": TRUTH}, "n_ladder"),
        ({"experiment": "bahadur", "n_ladder": 100, "truth": TRUTH}, "n_ladder"),
        ({"experiment": "bahadur", "n_ladder": [], "truth": TRUTH}, "n_ladder"),
        ({"seed": "x", "truth": TRUTH}, "seed"),
        ({"experiment": ["clt"], "truth": TRUTH}, "experiment"),
        ({"experiment": "other", "truth": TRUTH}, "experiment"),
        ({"target": "other", "truth": TRUTH}, "target"),
        (lambda cfg: [cfg], None),
    ],
    ids=[
        "pilot",
        "pilot.n",
        "t_grid",
        "se_threshold",
        "max_lag",
        "truth.q_true",
        "truth",
        "n_ladder-entry",
        "n_ladder-not-list",
        "n_ladder-empty",
        "seed",
        "experiment-not-string",
        "experiment-unknown",
        "target-unknown",
        "config-array",
    ],
)
def test_mc_malformed_config_field_exits_2(garch_spec_file, tmp_path, capsys, edit, field):
    cfg = {"spec": json.loads((tmp_path / "garch.json").read_text()), "experiment": "clt", "n": 50, "reps": 4}
    cfg = edit(cfg) if callable(edit) else cfg | edit
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["mc", "--config", str(cfg_path)]) == 2
    _assert_one_line_error(capsys, "config must be" if field is None else f"config.{field} must be")


@pytest.mark.parametrize("threshold", [math.inf, -math.inf, math.nan])
def test_mc_non_finite_se_threshold_exits_2(garch_spec_file, tmp_path, capsys, threshold):
    # an infinite band would pass every entry at any z
    cfg = {"spec": json.loads((tmp_path / "garch.json").read_text()), "n": 50, "reps": 4, "truth": TRUTH}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg | {"se_threshold": threshold}))  # Infinity, -Infinity, NaN
    assert main(["mc", "--config", str(cfg_path)]) == 2
    _assert_one_line_error(capsys, "config.se_threshold must be a finite number")


ARMA = {"model": "arma", "phi": [-0.3], "theta": [], "innovation": {"kind": "standard_normal"}}


@pytest.mark.parametrize(
    "command, edit, field",
    [
        ("mc", {"t_grid": [math.nan, 1.0]}, "config.t_grid"),
        ("mc", {"t_grid": [math.inf]}, "config.t_grid"),
        ("simulate", ARMA | {"theta": [math.inf]}, "spec.theta"),
        ("simulate", {"innovation": {"kind": "student_t", "dof": math.inf}}, "spec.innovation.dof"),
        ("check", ARMA | {"phi": [math.nan]}, "spec.phi"),
        ("check", {"alpha": [math.nan]}, "spec.alpha"),
        ("check", {"omega": math.inf}, "spec.omega"),
        ("check", {"model": "pgarch", "delta": math.inf}, "spec.delta"),
    ],
    ids=["t_grid-nan", "t_grid-inf", "theta-inf", "dof-inf", "phi-nan", "alpha-nan", "omega-inf", "delta-inf"],
)
def test_non_finite_field_exits_2(garch_spec_file, tmp_path, capsys, command, edit, field):
    # JSON's NaN and Infinity are malformed input: not a traceback, a refusal or a CSV of nan
    spec = json.loads(open(garch_spec_file).read())
    path = tmp_path / "edited.json"
    if command == "mc":
        path.write_text(json.dumps({"spec": spec, "experiment": "fclt", "n": 50, "reps": 4, "truth": TRUTH} | edit))
        argv = ["mc", "--config", str(path)]
    else:
        path.write_text(json.dumps((ARMA if edit.get("model") == "arma" else spec) | edit))
        tail = ["--r", "1"] if command == "check" else ["--n", "8", "--out", str(tmp_path / "x.csv")]
        argv = [command, "--spec", str(path)] + tail
    assert main(argv) == 2
    _assert_one_line_error(capsys, f"{field} must be")


@pytest.mark.parametrize("entry", ["q_true", "f_at_q", "a_r"])
def test_mc_replication_target_incomplete_truth_refuses(garch_spec_file, tmp_path, capsys, entry):
    truth = {k: v for k, v in TRUTH.items() if k != entry}
    cfg = {
        "spec": json.loads((tmp_path / "garch.json").read_text()),
        "n": 50,
        "reps": 4,
        "truth": truth,
        "target": "replication_mc",
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["mc", "--config", str(cfg_path), "--threads", "1"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1 and err.startswith("refused:") and entry in err


def test_mc_replication_target_lag_beyond_path_exits_2(garch_spec_file, tmp_path, capsys):
    cfg = {
        "spec": json.loads((tmp_path / "garch.json").read_text()),
        "n": 50,
        "reps": 4,
        "max_lag": 50,
        "truth": TRUTH,
        "target": "replication_mc",
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["mc", "--config", str(cfg_path), "--threads", "1"]) == 2
    _assert_one_line_error(capsys, "max_lag")


def test_mc_replication_target_takes_a_list_seed(garch_spec_file, tmp_path):
    cfg = {
        "spec": json.loads((tmp_path / "garch.json").read_text()),
        "n": 50,
        "reps": 4,
        "seed": [3, 1],
        "max_lag": 2,
        "truth": TRUTH,
        "target": "replication_mc",
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "rep.json"
    assert main(["mc", "--config", str(cfg_path), "--out", str(out), "--threads", "1"]) == 0
    report = json.loads(out.read_text())
    assert report["manifest"]["master_seed"] == [3, 1]
    assert report["target_long_run_cov"]["method"] == "replication_mc"


def test_mc_rademacher_pilot_refuses_without_a_density(tmp_path, capsys):
    # a discrete law has no density at the quantile, so the clt run cannot be scaled
    cfg = {
        "experiment": "clt",
        "spec": {"model": "iid", "innovation": {"kind": "rademacher"}},
        "p": 0.5,
        "r": 2,
        "n": 500,
        "reps": 50,
        "seed": 1,
        "pilot": {"n": 20_000, "seed": 2},
        "target": {"g11": 1.6, "g22": 2.0, "g12": 0.0},
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["mc", "--config", str(cfg_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert len(captured.err.strip().splitlines()) == 1 and captured.err.startswith("refused:")
    assert "f_at_q" in captured.err


def _exponential_bahadur_config(tmp_path, spec):
    cfg = {"experiment": "bahadur", "spec": spec, "p": 0.5, "r": 1, "reps": 16, "seed": 3,
           "n_ladder": [200, 400], "pilot": {"n": 20_000, "seed": 2}}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    return str(cfg_path)


def test_mc_egarch_runs_although_a_transform_goes_negative(tmp_path, capsys):
    # log sigma^2 needs no positivity: A (computed -0.18) is reported, not gating
    spec = {"model": "egarch", "p": 1, "q": 1, "omega": -0.1, "alpha": [0.1], "beta": [0.9], "gamma": [-0.05],
            "innovation": {"kind": "standard_normal"}}
    out = tmp_path / "rep.json"
    assert main(["mc", "--config", _exponential_bahadur_config(tmp_path, spec), "--out", str(out),
                 "--threads", "1"]) == 0
    assert json.loads(out.read_text())["report"]["columns"] == ["n", "median", "p90", "std", "se"]


def test_mc_mgarch_refusal_names_the_exponential_moment_not_positivity(tmp_path, capsys):
    spec = {"model": "mgarch", "p": 1, "q": 1, "omega": 0.1, "alpha": [0.05], "beta": [0.5],
            "innovation": {"kind": "standard_normal"}}
    assert main(["mc", "--config", _exponential_bahadur_config(tmp_path, spec), "--threads", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("refused: conditions fail: L_r computed=0.5 ")
    assert "A computed" not in err


@pytest.mark.parametrize("model", ["garch", "tsgarch"])
def test_check_gamma_of_a_model_without_one_exits_2(garch_spec_file, tmp_path, capsys, model):
    spec = _spec_file(tmp_path, garch_spec_file, lambda s: s | {"model": model, "gamma": [0.3]})
    assert main(["check", "--spec", spec, "--r", "1"]) == 2
    _assert_one_line_error(capsys, f"gamma is not a parameter of {model}")


@pytest.mark.parametrize("field", ["truth", "pilot"])
def test_mc_null_truth_or_pilot_counts_as_absent(tmp_path, field):
    cfg = {"experiment": "clt", "spec": {"model": "iid", "innovation": {"kind": "standard_normal"}},
           "p": 0.3, "r": 2, "n": 100, "reps": 8, "seed": 1}
    truths = []
    for name, given in [("absent", cfg), ("null", cfg | {field: None})]:
        (tmp_path / f"{name}.json").write_text(json.dumps(given))
        out = tmp_path / f"{name}_report.json"
        assert main(["mc", "--config", str(tmp_path / f"{name}.json"), "--out", str(out), "--threads", "1"]) == 0
        truths.append(json.loads(out.read_text())["truth"])
    assert truths[1] == truths[0]
    assert set(truths[1]["provenance"].values()) == {"closed-form"}


def test_check_arma_garch_with_a_discrete_law_notes_it(tmp_path, capsys):
    garch = {"model": "garch", "p": 1, "q": 1, "omega": 0.1, "alpha": [0.1], "beta": [0.8],
             "innovation": {"kind": "rademacher"}}
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"model": "arma", "phi": [0.5], "innovation": garch}))
    assert main(["check", "--spec", str(spec), "--r", "2"]) == 0
    causality, stationarity = json.loads(capsys.readouterr().out)
    assert causality["condition_name"] == "causality" and causality["discrepancy_note"] is None
    assert stationarity["condition_name"] == "garch_stationarity" and stationarity["satisfied"] is True
    assert stationarity["discrepancy_note"].startswith("innovation law is discrete")


def _mc_body(tmp_path, name, cfg, *flags):
    (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
    out = tmp_path / f"{name}_report.json"
    argv = ["mc", "--config", str(tmp_path / f"{name}.json"), "--out", str(out), "--threads", "1", *flags]
    assert main(argv) == 0
    body = json.loads(out.read_text())
    del body["manifest"]  # wall time differs
    return body


def test_mc_flags_override_the_config(tmp_path):
    cfg = {"experiment": "clt", "spec": {"model": "iid", "innovation": {"kind": "standard_normal"}},
           "p": 0.5, "r": 2, "n": 100, "reps": 8, "seed": 1}
    flags = {"p": 0.3, "r": 1, "n": 250, "reps": 12, "seed": 4}
    argv = [arg for key, value in flags.items() for arg in (f"--{key}", str(value))]
    body = _mc_body(tmp_path, "flags", cfg, *argv)
    assert body == _mc_body(tmp_path, "written", cfg | flags)
    assert (body["truth"]["p"], body["truth"]["r"]) == (0.3, 1)
    assert body["report"]["used"] + body["report"]["quarantined"] == 12


def test_mc_target_without_a_r_reports_it_unknown(tmp_path):
    # neither the truth nor the target knows a_r: the target's a_r is null, not a made-up 0
    truth = {"q_true": 0.0, "f_at_q": 0.3989422804014327, "mu": 0.0, "m_true": 1.0}
    cfg = {"experiment": "clt", "spec": {"model": "iid", "innovation": {"kind": "standard_normal"}},
           "p": 0.5, "r": 2, "n": 200, "reps": 20, "seed": 3, "truth": truth,
           "target": {"g11": 1.5707963267948966, "g22": 2.0, "g12": 0.0}}
    body = _mc_body(tmp_path, "no_a_r", cfg)
    assert body["truth"]["a_r"] is None and body["report"]["target"]["a_r"] is None
    body = _mc_body(tmp_path, "truth_a_r", cfg | {"truth": truth | {"a_r": 0.25}})
    assert body["report"]["target"]["a_r"] == 0.25
