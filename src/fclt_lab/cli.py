"""Command-line interface: simulate / check / estimate / ned-scan / mc.

All configuration comes from JSON files and explicit flags (no environment
variables). Every output file references the hash of a run manifest that
records the command, config fingerprint, master seed, toolkit version and
wall time; JSON outputs embed the manifest, CSV outputs carry the hash in a
leading comment line that the toolkit's readers skip, and the full manifest
is also written as a .manifest.json sidecar.

Exit codes: 0 success, 1 refused preconditions (condition report on stderr),
2 I/O or parse errors (argparse also exits 2 on unknown flags).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .asymptotics import gamma_from_trivariate, trivariate_long_run_cov_mc
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
    _integer,
    _number,
    _numbers,
    _object,
    path_from_csv,
    path_to_csv,
    simulate,
    spec_from_obj,
    spec_to_obj,
)
from .truth import Truth, resolve_truth

ENCODER = json.JSONEncoder(indent=2, sort_keys=True)


def _dump_json(obj) -> str:
    def default(o):
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, (np.floating, np.integer)):
            return o.item()
        raise TypeError(f"not JSON-serializable: {type(o)}")

    return json.dumps(obj, indent=2, sort_keys=True, default=default)


def _make_manifest(command: str, config_obj, seed, outputs: list[str], t0: float) -> dict:
    fingerprint = hashlib.sha256(
        json.dumps(config_obj, sort_keys=True, default=str).encode()
    ).hexdigest()[:16]
    manifest = {
        "command": command,
        "config_fingerprint": fingerprint,
        "master_seed": seed,
        "toolkit_version": __version__,
        "wall_time_s": round(time.time() - t0, 3),
        "outputs": outputs,
    }
    manifest["manifest_hash"] = hashlib.sha256(
        json.dumps(manifest, sort_keys=True).encode()
    ).hexdigest()[:16]
    return manifest


def _write_manifest_sidecar(out_path: str, manifest: dict):
    with open(out_path + ".manifest.json", "w") as fh:
        fh.write(_dump_json(manifest) + "\n")


def _emit_json(obj, out_path: str | None, manifest: dict):
    payload = dict(obj)
    payload["manifest"] = manifest
    text = _dump_json(payload) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
        _write_manifest_sidecar(out_path, manifest)
    else:
        sys.stdout.write(text)


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _IOFailure(f"cannot read {path}: {exc}")


class _IOFailure(Exception):
    pass


# --- subcommands ---------------------------------------------------------------


def _cmd_simulate(args) -> int:
    t0 = time.time()
    spec = spec_from_obj(_read_json(args.spec))
    path = simulate(spec, args.n, args.burn_in, args.seed)
    manifest = _make_manifest("simulate", spec_to_obj(spec), args.seed, [args.out], t0)
    with open(args.out, "w", newline="") as fh:
        path_to_csv(path, fh, comments=[f"manifest_hash={manifest['manifest_hash']}"])
    _write_manifest_sidecar(args.out, manifest)
    return 0


def _cmd_check(args) -> int:
    t0 = time.time()
    spec_obj = _read_json(args.spec)
    spec = spec_from_obj(spec_obj)
    reports = check_spec(spec, args.r)
    manifest = _make_manifest("check", {"spec": spec_obj, "r": args.r}, None, [args.out] if args.out else [], t0)
    # the check output is a JSON array of condition reports; each element
    # references the run manifest hash
    payload = []
    for rep in reports:
        obj = rep.to_obj()
        obj["manifest_hash"] = manifest["manifest_hash"]
        payload.append(obj)
    text = _dump_json(payload) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        _write_manifest_sidecar(args.out, manifest)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_estimate(args) -> int:
    t0 = time.time()
    try:
        with open(args.input) as fh:
            values = path_from_csv(fh)
    except OSError as exc:
        raise _IOFailure(f"cannot read {args.input}: {exc}")
    pair = estimator_vector(values, args.p, args.r)
    manifest = _make_manifest(
        "estimate", {"input": args.input, "p": args.p, "r": args.r}, None, [args.out] if args.out else [], t0
    )
    obj = {"q_hat": pair.q_hat, "m_hat": pair.m_hat, "n": pair.n, "p": pair.p, "r": pair.r}
    _emit_json(obj, args.out, manifest)
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
        "ned-scan",
        {
            "spec": spec_obj,
            "functional": args.functional,
            "kmax": args.kmax,
            "samples": args.samples,
            "redraws": args.redraws,
        },
        args.seed,
        [args.out] if args.out else [],
        t0,
    )
    lines = [f"# manifest_hash={manifest['manifest_hash']}", "k,nu_hat,se,nu_hat_jk"]
    for k, nu, se, nu_jk in scan.to_rows():
        lines.append(f"{k},{nu!r},{se!r},{nu_jk!r}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
        _write_manifest_sidecar(args.out, manifest)
    else:
        sys.stdout.write(text)
    if scan.fit is not None:
        sys.stderr.write(
            f"fit: {scan.fit.model} rate={scan.fit.rate:.4g} r_squared={scan.fit.r_squared:.4g}\n"
        )
    return 0


def _resolve_mc_truth(cfg_obj: dict, spec, p: float, r: int) -> Truth:
    if "truth" in cfg_obj:
        t = cfg_obj["truth"]
        provided = {k: "config" for k in ("q_true", "f_at_q", "mu", "m_true", "a_r") if t.get(k) is not None}
        return Truth(
            q_true=t.get("q_true"),
            f_at_q=t.get("f_at_q"),
            mu=t.get("mu"),
            m_true=t.get("m_true"),
            a_r=t.get("a_r"),
            p=p,
            r=r,
            provenance=provided,
        )
    pilot = _object(cfg_obj.get("pilot", {}), "config.pilot")
    pilot_n = _field(pilot, "n", "config.pilot", _integer, 10_000_000)
    return resolve_truth(spec, p, r, seed=pilot.get("seed", 0), pilot_n=pilot_n)


def _cmd_mc(args) -> int:
    t0 = time.time()
    cfg_obj = _read_json(args.config)
    # explicit flags override the config file
    for key in ("p", "r", "n", "reps", "seed"):
        value = getattr(args, key)
        if value is not None:
            cfg_obj[key] = value
    try:
        spec = spec_from_obj(cfg_obj["spec"])
        experiment = cfg_obj.get("experiment", "clt")
        p = float(cfg_obj.get("p", 0.5))
        r = int(cfg_obj.get("r", 2))
        seed = cfg_obj.get("seed", 0)
        reps = int(cfg_obj.get("reps", 100))
        n = int(cfg_obj.get("n", cfg_obj.get("n_ladder", [1000])[-1] if "n_ladder" in cfg_obj else 1000))
    except (KeyError, TypeError, ValueError) as exc:
        raise _IOFailure(f"bad config {args.config}: {exc}")
    t_grid = _field(cfg_obj, "t_grid", "config", _numbers)
    se_threshold = float(_field(cfg_obj, "se_threshold", "config", _number, 3.0))
    max_lag = _field(cfg_obj, "max_lag", "config", _integer, 50)
    truth = _resolve_mc_truth(cfg_obj, spec, p, r)

    target = None
    target_lrc_obj = None
    tgt = cfg_obj.get("target")
    if tgt == "replication_mc":
        lrc = trivariate_long_run_cov_mc(
            spec,
            p,
            r,
            q_true=truth.q_true,
            f_at_q=truth.f_at_q,
            max_lag=max_lag,
            n_per_rep=n,
            n_reps=reps,
            seed=(seed, 10_000_000),
            threads=args.threads,
        )
        target = gamma_from_trivariate(lrc, truth.a_r)
        target_lrc_obj = lrc.to_obj() | target.to_obj()
    elif isinstance(tgt, dict):
        from .asymptotics import Gamma2

        missing = [f"target.{k}" for k in ("g11", "g12", "g22") if k not in tgt]
        if missing:
            raise ParameterError(f"config lacks {', '.join(missing)}")

        def entry(key, default=None):
            raw = tgt.get(key, default)
            try:
                value = float(raw)
            except (TypeError, ValueError):
                value = math.nan
            if not math.isfinite(value):
                raise ParameterError(f"target.{key} must be a finite number, got {raw!r}")
            return value

        target = Gamma2(g11=entry("g11"), g22=entry("g22"), g12=entry("g12"), a_r=entry("a_r", truth.a_r or 0.0))

    cfg = ExperimentConfig(
        spec=spec,
        p=p,
        r=r,
        n=n,
        reps=reps,
        seed=seed,
        truth=truth,
        target=target,
        t_grid=t_grid,
        n_ladder=tuple(cfg_obj["n_ladder"]) if "n_ladder" in cfg_obj else None,
        se_threshold=se_threshold,
    )
    runners = {
        "clt": run_clt_experiment,
        "fclt": run_fclt_experiment,
        "bahadur": run_bahadur_experiment,
        "representation": run_representation_experiment,
    }
    if experiment not in runners:
        raise _IOFailure(f"unknown experiment {experiment!r}")
    report = runners[experiment](cfg, threads=args.threads)

    outputs = [args.out] if args.out else []
    csv_out = None
    if experiment in ("bahadur", "representation") and args.out:
        csv_out = os.path.splitext(args.out)[0] + ".csv"
        outputs.append(csv_out)
    manifest = _make_manifest("mc", cfg_obj, seed, outputs, t0)
    obj = {"experiment": experiment, "truth": truth.to_obj(), "report": report.to_obj()}
    if target_lrc_obj is not None:
        obj["target_long_run_cov"] = target_lrc_obj
    _emit_json(obj, args.out, manifest)
    if csv_out is not None:
        lines = [f"# manifest_hash={manifest['manifest_hash']}", "n,median,p90,std,se"]
        for row in report.rows():
            lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
        with open(csv_out, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
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
    ned.add_argument(
        "--threads",
        type=int,
        default=os.cpu_count() or 1,
        help="worker threads (results are independent of this; default logical cores)",
    )
    ned.set_defaults(fn=_cmd_ned_scan)

    mc = sub.add_parser("mc", help="run a Monte Carlo experiment from a JSON config")
    mc.add_argument("--config", required=True, help="experiment config JSON")
    mc.add_argument("--out", default=None, help="report JSON path (default stdout)")
    mc.add_argument("--p", type=float, default=None, help="override the config quantile level")
    mc.add_argument("--r", type=int, default=None, help="override the config moment order")
    mc.add_argument("--n", type=int, default=None, help="override the config path length")
    mc.add_argument("--reps", type=int, default=None, help="override the config replication count")
    mc.add_argument("--seed", type=int, default=None, help="override the config master seed")
    mc.add_argument(
        "--threads",
        type=int,
        default=os.cpu_count() or 1,
        help="worker threads (results are independent of this; default logical cores)",
    )
    mc.set_defaults(fn=_cmd_mc)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except RefusalError as exc:
        sys.stderr.write(f"refused: {exc.reason}\n")
        for rep in exc.reports:
            sys.stderr.write(_dump_json(rep.to_obj()) + "\n")
        return 1
    except _IOFailure as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except FcltLabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1 if not isinstance(exc, ParameterError) else 2
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
