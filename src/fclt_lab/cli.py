"""Command-line interface: simulate / check / estimate / ned-scan / mc.

All configuration comes from JSON files and explicit flags (no environment
variables). Every output file references the hash of a run manifest that
records the command, config fingerprint, master seed, toolkit version and
wall time; JSON outputs embed the manifest, CSV outputs carry the hash in a
leading comment line that the toolkit's readers skip, and the full manifest
is also written as a .manifest.json sidecar.

Exit codes: 0 success; 1 refused preconditions (one ``refused:`` line on
stderr, then the failing condition reports); 2 malformed input or I/O errors
(one ``error:`` line naming the field; argparse also exits 2 on unknown flags).
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__
from .asymptotics import Gamma2, gamma_from_trivariate, trivariate_long_run_cov_mc
from .conditions import check_spec
from .errors import FcltLabError, ParameterError, RefusalError
from .estimators import estimator_vector
from .harness import (
    ExperimentConfig,
    run_bahadur_experiment,
    run_clt_experiment,
    run_fclt_experiment,
    run_representation_experiment,
)
from .ned import DEFAULT_REDRAWS, DEFAULT_SAMPLES, Functional, ned_scan
from .processes import (
    _field,
    _finite,
    _finites,
    _integer,
    _integers,
    _number,
    _object,
    _required,
    _seed,
    _text,
    path_from_csv,
    path_to_csv,
    simulate,
    spec_from_obj,
    spec_to_obj,
)
from .rng import seed_key
from .truth import PILOT_N, TRUTH_ENTRIES, Truth, resolve_truth


def _dump_json(obj) -> str:
    def default(o):
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, (np.floating, np.integer)):
            return o.item()
        raise TypeError(f"not JSON-serializable: {type(o)}")

    return json.dumps(obj, indent=2, sort_keys=True, default=default)


def _make_manifest(args, config_obj, seed, t0: float, *more_outputs: str | None) -> dict:
    fingerprint = hashlib.sha256(
        json.dumps(config_obj, sort_keys=True, default=str).encode()
    ).hexdigest()[:16]
    manifest = {
        "command": args.command,
        "config_fingerprint": fingerprint,
        "master_seed": seed,
        "toolkit_version": __version__,
        "wall_time_s": round(time.time() - t0, 3),
        "outputs": [path for path in (args.out, *more_outputs) if path],
    }
    manifest["manifest_hash"] = hashlib.sha256(
        json.dumps(manifest, sort_keys=True).encode()
    ).hexdigest()[:16]
    return manifest


def _write(path: str, text: str):
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _emit(text: str, out: str | None, manifest: dict):
    """Write a command's output to ``out`` with its .manifest.json sidecar, or to stdout."""
    if out is None:
        sys.stdout.write(text)
    else:
        _write(out, text)
        _write(out + ".manifest.json", _dump_json(manifest) + "\n")


def _json_text(obj: dict, manifest: dict) -> str:
    return _dump_json(obj | {"manifest": manifest}) + "\n"


def _csv_text(header: str, rows, manifest: dict) -> str:
    lines = [f"# manifest_hash={manifest['manifest_hash']}", header]
    lines.extend(",".join(map(repr, row)) for row in rows)
    return "\n".join(lines) + "\n"


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParameterError(f"cannot read {path}: {exc}")


# --- subcommands ---------------------------------------------------------------


def _cmd_simulate(args) -> int:
    t0 = time.time()
    spec = spec_from_obj(_read_json(args.spec))
    path = simulate(spec, args.n, args.burn_in, args.seed)
    manifest = _make_manifest(args, spec_to_obj(spec), args.seed, t0)
    text = io.StringIO()
    path_to_csv(path, text, comments=[f"manifest_hash={manifest['manifest_hash']}"])
    _emit(text.getvalue(), args.out, manifest)
    return 0


def _cmd_check(args) -> int:
    t0 = time.time()
    spec_obj = _read_json(args.spec)
    reports = check_spec(spec_from_obj(spec_obj), args.r)
    manifest = _make_manifest(args, {"spec": spec_obj, "r": args.r}, None, t0)
    # the check output is a JSON array of condition reports; each element
    # references the run manifest hash
    payload = [rep.to_obj() | {"manifest_hash": manifest["manifest_hash"]} for rep in reports]
    _emit(_dump_json(payload) + "\n", args.out, manifest)
    return 0


def _cmd_estimate(args) -> int:
    t0 = time.time()
    with open(args.input) as fh:
        values = path_from_csv(fh)
    pair = estimator_vector(values, args.p, args.r)
    manifest = _make_manifest(args, {"input": args.input, "p": args.p, "r": args.r}, None, t0)
    obj = {"q_hat": pair.q_hat, "m_hat": pair.m_hat, "n": pair.n, "p": pair.p, "r": pair.r}
    _emit(_json_text(obj, manifest), args.out, manifest)
    return 0


def _cmd_ned_scan(args) -> int:
    t0 = time.time()
    spec_obj = _read_json(args.spec)
    spec = spec_from_obj(spec_obj)
    functional = Functional.parse(args.functional)
    scan = ned_scan(
        spec,
        functional,
        range(1, args.kmax + 1),
        redraws=args.redraws,
        samples=args.samples,
        seed=args.seed,
        threads=args.threads,
    )
    manifest = _make_manifest(
        args,
        {
            "spec": spec_obj,
            "functional": args.functional,
            "kmax": args.kmax,
            "samples": args.samples,
            "redraws": args.redraws,
        },
        args.seed,
        t0,
    )
    _emit(_csv_text("k,nu_hat,se,nu_hat_jk", scan.to_rows(), manifest), args.out, manifest)
    if scan.fit is not None:
        fit = scan.fit
        line = f"fit: {fit.model} rate={fit.rate:.4g} r_squared={fit.r_squared:.4g}"
        if fit.other_model is not None:
            line += f"; {fit.other_model} rate={fit.other_rate:.4g} r_squared={fit.other_r_squared:.4g}"
        sys.stderr.write(line + "\n")
    return 0


def _resolve_mc_truth(cfg_obj: dict, spec, p: float, r: int) -> Truth:
    if cfg_obj.get("truth") is not None:
        given = _object(cfg_obj["truth"], "config.truth")
        entries = {key: _field(given, key, "config.truth", _finite) for key in TRUTH_ENTRIES}
        provenance = {key: "config" for key, value in entries.items() if value is not None}
        return Truth(**entries, p=p, r=r, provenance=provenance)
    pilot = {} if cfg_obj.get("pilot") is None else _object(cfg_obj["pilot"], "config.pilot")
    pilot_n = _field(pilot, "n", "config.pilot", _integer, PILOT_N)
    pilot_seed = _field(pilot, "seed", "config.pilot", _seed, 0)
    return resolve_truth(spec, p, r, seed=pilot_seed, pilot_n=pilot_n)


def _cmd_mc(args) -> int:
    t0 = time.time()
    # looked up at call time: the benchmark's tracer patches these module attributes
    runners = {
        "clt": run_clt_experiment,
        "fclt": run_fclt_experiment,
        "bahadur": run_bahadur_experiment,
        "representation": run_representation_experiment,
    }
    cfg_obj = _object(_read_json(args.config), "config")
    # explicit flags override the config file
    for key in ("p", "r", "n", "reps", "seed"):
        value = getattr(args, key)
        if value is not None:
            cfg_obj[key] = value
    spec = spec_from_obj(cfg_obj.get("spec"))
    experiment = _field(cfg_obj, "experiment", "config", _text, "clt")
    if experiment not in runners:
        raise ParameterError(f"config.experiment must be one of {', '.join(runners)}, got {experiment!r}")
    p = float(_field(cfg_obj, "p", "config", _number, 0.5))
    r = _field(cfg_obj, "r", "config", _integer, 2)
    seed = _field(cfg_obj, "seed", "config", _seed, 0)  # as given: a list enters the fingerprint as one
    reps = _field(cfg_obj, "reps", "config", _integer, 100)
    n_ladder = _field(cfg_obj, "n_ladder", "config", _integers)
    n = _field(cfg_obj, "n", "config", _integer, int(n_ladder[-1]) if n_ladder else 1000)
    t_grid = _field(cfg_obj, "t_grid", "config", _finites)
    se_threshold = float(_field(cfg_obj, "se_threshold", "config", _finite, 3.0))
    max_lag = _field(cfg_obj, "max_lag", "config", _integer, 50)
    tgt = cfg_obj.get("target")
    if isinstance(tgt, dict):
        gamma = {key: _required(tgt, key, "config.target", _finite) for key in ("g11", "g22", "g12")}
        target_a_r = _field(tgt, "a_r", "config.target", _finite)
    elif tgt not in (None, "replication_mc"):
        raise ParameterError(f'config.target must be "replication_mc" or a JSON object, got {tgt!r}')
    cfg = ExperimentConfig(
        spec=spec,
        p=p,
        r=r,
        n=n,
        reps=reps,
        seed=seed,
        t_grid=t_grid,
        n_ladder=n_ladder,
        se_threshold=se_threshold,
    )
    truth = _resolve_mc_truth(cfg_obj, spec, p, r)

    target = target_lrc_obj = None
    if tgt == "replication_mc":
        truth.require("q_true", "f_at_q", "a_r")
        lrc = trivariate_long_run_cov_mc(
            spec,
            p,
            r,
            q_true=truth.q_true,
            f_at_q=truth.f_at_q,
            max_lag=max_lag,
            n_per_rep=n,
            n_reps=reps,
            seed=seed_key(seed) + (10_000_000,),
            threads=args.threads,
        )
        target = gamma_from_trivariate(lrc, truth.a_r)
        target_lrc_obj = lrc.to_obj() | target.to_obj()
    elif tgt is not None:
        a_r = truth.a_r if target_a_r is None else target_a_r
        target = Gamma2(**gamma, a_r=None if a_r is None else float(a_r))  # unknown stays null

    report = runners[experiment](replace(cfg, truth=truth, target=target), threads=args.threads)

    csv_out = None
    if experiment in ("bahadur", "representation") and args.out:
        csv_out = os.path.splitext(args.out)[0] + ".csv"
    manifest = _make_manifest(args, cfg_obj, seed, t0, csv_out)
    obj = {"experiment": experiment, "truth": truth.to_obj(), "report": report.to_obj()}
    if target_lrc_obj is not None:
        obj["target_long_run_cov"] = target_lrc_obj
    _emit(_json_text(obj, manifest), args.out, manifest)
    if csv_out is not None:
        _write(csv_out, _csv_text("n,median,p90,std,se", report.rows(), manifest))
    return 0


# --- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fclt-lab",
        description="Simulation, condition checking, estimation, NED scans and "
        "Monte Carlo verification for quantile / centred-moment joint asymptotics.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate a process to a single-column CSV")
    sim.add_argument("--spec", required=True, help="process spec JSON file")
    sim.add_argument("--n", type=int, required=True, help="sample size")
    sim.add_argument("--burn-in", type=int, default=None, help="burn-in steps (default max(1000, 20(p+q)))")
    sim.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    sim.add_argument("--out", required=True, help="output CSV path")
    sim.set_defaults(fn=_cmd_simulate)

    chk = sub.add_parser("check", help="evaluate the admissibility conditions for (spec, r)")
    chk.add_argument("--spec", required=True, help="process spec JSON file")
    chk.add_argument("--r", type=int, required=True, help="moment order")
    chk.add_argument("--out", default=None, help="output JSON path (default stdout)")
    chk.set_defaults(fn=_cmd_check)

    est = sub.add_parser("estimate", help="sample quantile and centred absolute moment of a CSV sample")
    est.add_argument("--input", required=True, help="single-column CSV with header x")
    est.add_argument("--p", type=float, required=True, help="quantile level in (0,1)")
    est.add_argument("--r", type=int, required=True, help="moment order")
    est.add_argument("--out", default=None, help="output JSON path (default stdout)")
    est.set_defaults(fn=_cmd_estimate)

    ned = sub.add_parser("ned-scan", help="estimate NED coefficients nu(k) for k = 1..kmax")
    ned.add_argument("--spec", required=True, help="process spec JSON file")
    ned.add_argument("--functional", default="identity", help="identity | abs_pow:R | indicator_leq:X")
    ned.add_argument("--kmax", type=int, required=True, help="largest window width")
    ned.add_argument(
        "--redraws", type=int, default=DEFAULT_REDRAWS, help=f"inner redraws per sample (default {DEFAULT_REDRAWS})"
    )
    ned.add_argument("--samples", type=int, default=DEFAULT_SAMPLES, help=f"outer samples (default {DEFAULT_SAMPLES})")
    ned.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    ned.add_argument("--out", default=None, help="output CSV path (default stdout)")
    ned.set_defaults(fn=_cmd_ned_scan)

    mc = sub.add_parser("mc", help="run a Monte Carlo experiment from a JSON config")
    mc.add_argument("--config", required=True, help="experiment config JSON")
    mc.add_argument("--out", default=None, help="report JSON path (default stdout)")
    mc.add_argument("--p", type=float, default=None, help="override the config quantile level")
    mc.add_argument("--r", type=int, default=None, help="override the config moment order")
    mc.add_argument("--n", type=int, default=None, help="override the config path length")
    mc.add_argument("--reps", type=int, default=None, help="override the config replication count")
    mc.add_argument("--seed", type=int, default=None, help="override the config master seed")
    mc.set_defaults(fn=_cmd_mc)
    for cmd in (ned, mc):
        cmd.add_argument(
            "--threads",
            type=int,
            default=os.cpu_count() or 1,
            help="worker threads (results are independent of this; default logical cores)",
        )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "threads", 1) < 1:
            raise ParameterError(f"--threads must be >= 1, got {args.threads}")
        return args.fn(args)
    except RefusalError as exc:
        sys.stderr.write(f"refused: {exc.reason}\n")
        for rep in exc.reports:
            sys.stderr.write(_dump_json(rep.to_obj()) + "\n")
        return 1
    except (ParameterError, OSError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except FcltLabError as exc:  # a precondition found violated or unverifiable on the way
        sys.stderr.write(f"refused: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
