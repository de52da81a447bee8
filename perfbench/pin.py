#!/usr/bin/env python3
"""Recompute the pinned reference values the benchmark checks against.

Writes ``perfbench/pinned.json`` for the GARCH(1,1) (0.1, 0.1, 0.8) at
p = 0.95, r = 2, each value with its standard error and provenance:

* the truth, from a 10^7-draw pilot plus closed forms;
* the replication-MC long-run target Gamma (max_lag 50, n = 10^4);
* the empirical covariance of the sqrt(n)-scaled pair at n = 10^4, which
  the clt workload reproduces;
* the nu(k) curve of the abs_pow:2 NED scan for k = 1..12.

Every reference uses many more replications than a workload runs. Run from
the repository root (takes a few minutes on two cores):

    python3 perfbench/pin.py
"""

import json
import math
import os
import sys
import time

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import fclt_lab as fl  # noqa: E402
from fclt_lab.asymptotics import gaussian_kde_at, gamma_target_with_se  # noqa: E402
from fclt_lab.estimators import sample_quantile  # noqa: E402
from fclt_lab.ned import Functional  # noqa: E402
from fclt_lab.processes import simulate_batch  # noqa: E402
from fclt_lab.truth import PILOT_PATHS, pilot_truth  # noqa: E402

GARCH = fl.AugGarchSpec(model="garch", omega=0.1, alpha=(0.1,), beta=(0.8,))
P, R = 0.95, 2
PILOT_N, PILOT_SEED = 10_000_000, (424242, 1)
TARGET_REPS, TARGET_SEED, MAX_LAG, N = 2048, (424242, 2), 50, 10_000
CLT_REPS, CLT_SEED = 8192, (424242, 3)
NED_KMAX, NED_SAMPLES, NED_REDRAWS, NED_SEED = 12, 8192, 32, (424242, 4)


def main():
    t0 = time.perf_counter()
    truth = pilot_truth(GARCH, P, R, seed=PILOT_SEED, n=PILOT_N)
    # batch-means SE over the pilot's independent paths (same streams as the pilot)
    per_path = math.ceil(PILOT_N / PILOT_PATHS)
    paths = simulate_batch(GARCH, per_path, None, PILOT_SEED, range(PILOT_PATHS))
    q_paths = np.array([sample_quantile(row, P) for row in paths])
    f_paths = np.array([gaussian_kde_at(row, truth.q_true) for row in paths])
    del paths
    q_se = float(q_paths.std(ddof=1) / math.sqrt(PILOT_PATHS))
    f_se = float(f_paths.std(ddof=1) / math.sqrt(PILOT_PATHS))

    lrc = fl.trivariate_long_run_cov_mc(
        GARCH, P, R, q_true=truth.q_true, f_at_q=truth.f_at_q, max_lag=MAX_LAG,
        n_per_rep=N, n_reps=TARGET_REPS, seed=TARGET_SEED, threads=os.cpu_count() or 1,
    )
    gamma, gamma_se = gamma_target_with_se(lrc, truth.a_r)
    # the finite-n covariance a correct CLT run reproduces: the truncated
    # long-run target above sits a few percent below it at n = 10^4
    clt = fl.run_clt_experiment(
        fl.ExperimentConfig(spec=GARCH, p=P, r=R, n=N, reps=CLT_REPS, seed=CLT_SEED, truth=truth),
        threads=os.cpu_count() or 1,
    )
    cov, cov_se = clt.empirical_cov, clt.cov_se
    ned = fl.ned_scan(
        GARCH, Functional("abs_pow", 2.0), range(1, NED_KMAX + 1), redraws=NED_REDRAWS,
        samples=NED_SAMPLES, seed=NED_SEED, threads=os.cpu_count() or 1,
    )
    pinned = {
        "spec": {"model": "garch", "omega": 0.1, "alpha": [0.1], "beta": [0.8], "p": 1, "q": 1,
                 "innovation": {"kind": "standard_normal"}},
        "p": P,
        "r": R,
        "truth": {
            "q_true": truth.q_true,
            "f_at_q": truth.f_at_q,
            "mu": truth.mu,
            "m_true": truth.m_true,
            "a_r": truth.a_r,
            "se": {"q_true": q_se, "f_at_q": f_se, "mu": 0.0, "m_true": 0.0, "a_r": 0.0},
            "provenance": dict(truth.provenance),
            "se_method": f"batch means over the pilot's {PILOT_PATHS} independent paths",
        },
        "gamma": {
            "g11": gamma.g11,
            "g22": gamma.g22,
            "g12": gamma.g12,
            "a_r": gamma.a_r,
            "se": {"g11": float(gamma_se[0, 0]), "g22": float(gamma_se[1, 1]), "g12": float(gamma_se[0, 1])},
            "tail_bound": lrc.tail_bound,
            "provenance": f"trivariate_long_run_cov_mc(n_per_rep={N}, n_reps={TARGET_REPS}, "
            f"max_lag={MAX_LAG}, seed={TARGET_SEED}) on the pinned truth",
        },
        "clt_reference": {
            "g11": float(cov[0, 0]),
            "g22": float(cov[1, 1]),
            "g12": float(cov[0, 1]),
            "a_r": truth.a_r,
            "se": {"g11": float(cov_se[0, 0]), "g22": float(cov_se[1, 1]), "g12": float(cov_se[0, 1])},
            "used": clt.used,
            "provenance": f"empirical covariance of run_clt_experiment(n={N}, reps={CLT_REPS}, "
            f"seed={CLT_SEED}) on the pinned truth",
        },
        "ned_reference": {
            "functional": "abs_pow:2",
            "k": list(ned.k_values),
            "nu_hat_jk": list(ned.nu_hat_jk),
            "se": list(ned.se),
            "fit": {"model": ned.fit.model, "rate": ned.fit.rate, "r_squared": ned.fit.r_squared},
            "provenance": f"ned_scan(samples={NED_SAMPLES}, redraws={NED_REDRAWS}, seed={NED_SEED})",
        },
        "toolkit_version": fl.__version__,
        "numpy": np.__version__,
        "compute_s": round(time.perf_counter() - t0, 1),
    }
    out = os.path.join(ROOT, "perfbench", "pinned.json")
    with open(out, "w") as fh:
        json.dump(pinned, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(pinned, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
