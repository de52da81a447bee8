import json

import numpy as np
import pytest

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


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["mc", "--config", str(tmp_path / "nope.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_bad_csv_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("not-a-header\n1.0\n")
    assert main(["estimate", "--input", str(bad), "--p", "0.5", "--r", "2"]) == 2


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


def test_spec_json_array_exits_2(garch_spec_file, tmp_path, capsys):
    spec = _spec_file(tmp_path, garch_spec_file, lambda s: [s])
    assert main(["ned-scan", "--spec", spec, "--kmax", "2"]) == 2
    _assert_one_line_error(capsys, "spec must be a JSON object")


def test_estimate_csv_row_not_a_number_exits_2(tmp_path, capsys):
    sample = tmp_path / "sample.csv"
    sample.write_text("# comment\nx\n1.0\nfoo\n")
    assert main(["estimate", "--input", str(sample), "--p", "0.5", "--r", "2"]) == 2
    _assert_one_line_error(capsys, "line 4")


@pytest.mark.parametrize("kmax", ["0", "-3"])
def test_ned_scan_empty_k_grid_exits_2(garch_spec_file, capsys, kmax):
    assert main(["ned-scan", "--spec", garch_spec_file, "--kmax", kmax]) == 2
    _assert_one_line_error(capsys, "kmax")


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
    ],
    ids=["pilot", "pilot.n", "t_grid", "se_threshold", "max_lag"],
)
def test_mc_malformed_config_field_exits_2(garch_spec_file, tmp_path, capsys, edit, field):
    cfg = {"spec": json.loads((tmp_path / "garch.json").read_text()), "experiment": "clt", "n": 50, "reps": 4} | edit
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["mc", "--config", str(cfg_path)]) == 2
    _assert_one_line_error(capsys, f"config.{field} must be")
