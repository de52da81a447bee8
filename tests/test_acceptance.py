"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`. The heavyweight shared
inputs (the GARCH pilot truth and the replication-MC target) are session
fixtures so criteria 3 and 9 share work.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

import fclt_lab as fl
from fclt_lab import parallel
from fclt_lab.asymptotics import gamma_target_with_se
from fclt_lab.conditions import check_polynomial_condition, check_spec, table_closed_form_report
from fclt_lab.harness import ExperimentConfig
from fclt_lab.ned import Functional
from fclt_lab.truth import closed_form_truth, pilot_truth

NORMAL = fl.InnovationDist()
IID = fl.IidSpec(NORMAL)
AR1 = fl.ArmaSpec(phi=(-0.5,))
GARCH = fl.AugGarchSpec(model="garch", omega=0.1, alpha=(0.1,), beta=(0.8,))

# criterion 3 leaves the quantile level open; pinned to p = 0.95 to match the
# quantile-focused ARMA criterion
GARCH_P = 0.95

MASTER_SEED = 20_240_817


def _line(name, ok, detail=""):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


@pytest.fixture(scope="session")
def garch_truth():
    return pilot_truth(GARCH, GARCH_P, 2, seed=(MASTER_SEED, 999), n=10_000_000)


@pytest.fixture(scope="session")
def garch_clt_inputs(garch_truth):
    lrc = fl.trivariate_long_run_cov_mc(
        GARCH,
        GARCH_P,
        2,
        q_true=garch_truth.q_true,
        f_at_q=garch_truth.f_at_q,
        max_lag=50,
        n_per_rep=10_000,
        n_reps=2000,
        seed=(MASTER_SEED, 7),
    )
    target, target_se = gamma_target_with_se(lrc, garch_truth.a_r)
    cfg = ExperimentConfig(
        spec=GARCH,
        p=GARCH_P,
        r=2,
        n=10_000,
        reps=2000,
        seed=(MASTER_SEED, 8),
        truth=garch_truth,
        target=target,
    )
    report = fl.run_clt_experiment(cfg, threads=2)
    return lrc, target, target_se, report


def _self_consistency(report, target, target_se, rel=0.10):
    """Entrywise |emp - target| <= max(rel |target|, 3 combined SEs)."""
    emp = report.empirical_cov
    tgt = target.as_matrix()
    se = np.sqrt(report.cov_se**2 + target_se**2)
    tol = np.maximum(rel * np.abs(tgt), 3.0 * se)
    return (np.abs(emp - tgt) <= tol).all(), emp, tgt, tol


def test_criterion_1_iid_clt_reproduction():
    # standard normal, p = 0.5, r = 2, n = 5000, M = 2000:
    # empirical covariance within 3 MC SEs of diag(pi/2, 2), off-diagonal 0
    truth = closed_form_truth(IID, 0.5, 2)
    target = fl.iid_gamma(NORMAL, 0.5, 2)
    assert target.g11 == pytest.approx(math.pi / 2, rel=1e-9)
    assert target.g22 == pytest.approx(2.0, rel=1e-8)
    cfg = ExperimentConfig(
        spec=IID, p=0.5, r=2, n=5000, reps=2000, seed=(MASTER_SEED, 1), truth=truth, target=target
    )
    report = fl.run_clt_experiment(cfg, threads=2)
    ok = all(v == "pass" for row in report.verdict for v in row)
    assert _line(
        "C1 iid CLT",
        ok,
        f"cov={np.round(report.empirical_cov, 4).tolist()} target=diag(pi/2, 2) z={np.round(report.per_entry_z, 2).tolist()}",
    )


def test_criterion_2_fclt_brownian_scaling():
    # same setup, t grid {0.25, 0.5, 0.75, 1.0}: cov(t) ~ t cov(1) within
    # 3 SEs entrywise; disjoint-increment correlations within 3 SEs of 0
    truth = closed_form_truth(IID, 0.5, 2)
    target = fl.iid_gamma(NORMAL, 0.5, 2)
    cfg = ExperimentConfig(
        spec=IID,
        p=0.5,
        r=2,
        n=5000,
        reps=2000,
        seed=(MASTER_SEED, 2),
        truth=truth,
        target=target,
        t_grid=(0.25, 0.5, 0.75, 1.0),
    )
    report = fl.run_fclt_experiment(cfg, threads=2)
    scaling_ok = bool((report.scaling_z <= 3.0 + 1e-9).all())
    incr_ok = bool((np.abs(report.increment_corr_z) <= 3.0).all())
    assert _line(
        "C2 FCLT scaling",
        scaling_ok and incr_ok,
        f"max scaling z={report.scaling_z.max():.2f} max increment z={np.abs(report.increment_corr_z).max():.2f}",
    )


def test_criterion_3_garch_self_consistency(garch_clt_inputs):
    # GARCH(1,1) (0.1, 0.1, 0.8), r = 2: conditions checker passes with
    # E[(0.1 e^2 + 0.8)^2] = 0.83 < 1; replication-MC Gamma (max_lag 50,
    # M = 2000, n = 1e4) vs MC-empirical covariance within 10% or 3 SEs
    cond = check_polynomial_condition(GARCH, 2)
    assert cond.satisfied
    assert cond.computed_value**2 == pytest.approx(0.83, rel=1e-6)
    lrc, target, target_se, report = garch_clt_inputs
    ok, emp, tgt, tol = _self_consistency(report, target, target_se)
    assert _line(
        "C3 GARCH self-consistency",
        ok and report.used + report.quarantined == 2000,
        f"emp={np.round(emp, 4).tolist()} target={np.round(tgt, 4).tolist()}",
    )


def test_criterion_4_ar1_self_consistency():
    # AR(1) phi = -0.5, r = 1, p = 0.95: self-consistency plus Var(U) within
    # 5% of the exact long-run variance 3 Var(X0) = 4
    truth = closed_form_truth(AR1, 0.95, 1)
    lrc = fl.trivariate_long_run_cov_mc(
        AR1,
        0.95,
        1,
        q_true=truth.q_true,
        f_at_q=truth.f_at_q,
        max_lag=50,
        n_per_rep=10_000,
        n_reps=2000,
        seed=(MASTER_SEED, 3),
    )
    var_u_ok = abs(lrc.sigma[0, 0] - 4.0) <= 0.05 * 4.0
    target, target_se = gamma_target_with_se(lrc, truth.a_r)
    cfg = ExperimentConfig(
        spec=AR1, p=0.95, r=1, n=10_000, reps=2000, seed=(MASTER_SEED, 4), truth=truth, target=target
    )
    report = fl.run_clt_experiment(cfg, threads=2)
    ok, emp, tgt, tol = _self_consistency(report, target, target_se)
    assert _line(
        "C4 AR(1) self-consistency",
        ok and var_u_ok,
        f"Var(U)={lrc.sigma[0, 0]:.4f} (exact 4) emp={np.round(emp, 4).tolist()} target={np.round(tgt, 4).tolist()}",
    )


def test_criterion_5_bahadur_decay():
    # iid normal and AR(1), ladder (500, 2000, 8000), M = 500: median
    # |sqrt(n) R_n| non-increasing with <= 10% slack (p90 as well)
    details = []
    oks = []
    for name, spec, p in (("iid", IID, 0.5), ("ar1", AR1, 0.5)):
        truth = closed_form_truth(spec, p, 2)
        cfg = ExperimentConfig(
            spec=spec,
            p=p,
            r=2,
            n=8000,
            reps=500,
            seed=(MASTER_SEED, 5),
            truth=truth,
            n_ladder=(500, 2000, 8000),
        )
        table = fl.run_bahadur_experiment(cfg, threads=2)
        oks.append(table.verdict == "pass")
        details.append(f"{name} medians={[round(m, 4) for m in table.median]}")
    assert _line("C5 Bahadur decay", all(oks), "; ".join(details))


def test_criterion_6_representation_gap(garch_truth):
    # (a) r = 2 iid: gap == -sqrt(n) (mean - mu)^2, exact in rational
    # arithmetic on 100 random paths, and within 1e-12 relative in float64
    rng = fl.processes.stream_generator((MASTER_SEED, 6))
    exact_ok = True
    float_ok = True
    for _ in range(100):
        n = int(rng.integers(16, 200))
        values = rng.standard_normal(n) * float(rng.uniform(0.5, 2.0))
        mu = float(rng.uniform(-0.5, 0.5))
        fr = [Fraction(float(v)) for v in values]
        mean = sum(fr, Fraction(0)) / n
        m_hat = sum((x - mean) ** 2 for x in fr) / n
        m_known = sum((x - Fraction(mu)) ** 2 for x in fr) / n
        # the identity holds bit-exactly in exact (rational) arithmetic
        exact_ok &= m_hat - m_known == -((mean - Fraction(mu)) ** 2)
        # float64 route agrees within the 1e-12 summation budget, which is
        # relative to the moment sums the gap is a difference of
        gap = fl.representation_gap(values, 2, mu, 0.0)
        direct = -math.sqrt(n) * float(mean - Fraction(mu)) ** 2
        scale = math.sqrt(n) * max(1.0, float(m_hat), float(m_known))
        float_ok &= abs(gap - direct) <= 1e-12 * scale
    # (b) std-decay ladders: GARCH(1,1) r = 2 and iid r = 1
    g_cfg = ExperimentConfig(
        spec=GARCH,
        p=GARCH_P,
        r=2,
        n=4000,
        reps=500,
        seed=(MASTER_SEED, 61),
        truth=garch_truth,
        n_ladder=(500, 2000, 8000),
    )
    g_table = fl.run_representation_experiment(g_cfg, threads=2)
    i_cfg = ExperimentConfig(
        spec=IID,
        p=0.5,
        r=1,
        n=4000,
        reps=500,
        seed=(MASTER_SEED, 62),
        truth=closed_form_truth(IID, 0.5, 1),
        n_ladder=(500, 2000, 8000),
    )
    i_table = fl.run_representation_experiment(i_cfg, threads=2)
    ladders_ok = g_table.verdict == "pass" and i_table.verdict == "pass"
    assert _line(
        "C6 representation gap",
        exact_ok and float_ok and ladders_ok,
        f"identity exact={exact_ok} float={float_ok} garch std={[round(s, 4) for s in g_table.std]} "
        f"iid std={[round(s, 4) for s in i_table.std]}",
    )


def test_criterion_7_ned_decay():
    # AR(1) identity scan matches 0.5^(k+1) sqrt(4/3) within 3 MC SEs for
    # k <= 10; GARCH abs_pow(2) scan fits geometric with R^2 > 0.9;
    # MA(1) scan is 0 for k >= 1
    ar_scan = fl.ned_scan(AR1, Functional("identity"), range(1, 11), seed=(MASTER_SEED, 71))
    ar_ok = True
    for k, nu, se in zip(ar_scan.k_values, ar_scan.nu_hat_jk, ar_scan.se):
        exact = 0.5 ** (k + 1) * math.sqrt(4.0 / 3.0)
        ar_ok &= abs(nu - exact) <= 3.0 * se
    g_scan = fl.ned_scan(GARCH, Functional("abs_pow", 2.0), range(1, 13), seed=(MASTER_SEED, 72))
    g_ok = g_scan.fit.model == "geometric" and g_scan.fit.r_squared > 0.9
    ma_scan = fl.ned_scan(fl.ArmaSpec(theta=(0.3,)), Functional("identity"), range(1, 6), seed=(MASTER_SEED, 73))
    ma_ok = all(nu == 0.0 for nu in ma_scan.nu_hat_jk)
    assert _line(
        "C7 NED decay",
        ar_ok and g_ok and ma_ok,
        f"ar1 ok={ar_ok} garch fit R2={g_scan.fit.r_squared:.3f} rate={g_scan.fit.rate:.3f} ma1 zero={ma_ok}",
    )


def test_criterion_8_closed_form_oracle_equivalence():
    # every implemented closed-form row agrees with the quadrature oracle to
    # 1e-6 relative; the GARCH r = 2 row carries a discrepancy note
    cases = [
        (fl.AugGarchSpec(model="garch", omega=0.1, alpha=(0.1,), beta=(0.8,)), 1),
        (fl.AugGarchSpec(model="garch", omega=0.1, alpha=(0.2,), beta=(0.7,)), 2),
        (fl.AugGarchSpec(model="arch", p=1, q=0, omega=0.1, alpha=(0.4,)), 1),
        (fl.AugGarchSpec(model="arch", p=1, q=0, omega=0.1, alpha=(0.3,)), 2),
        (fl.AugGarchSpec(model="agarch", p=1, q=1, omega=0.1, alpha=(0.2,), beta=(0.5,), gamma=(0.4,)), 1),
        (fl.AugGarchSpec(model="apgarch", p=1, q=1, omega=0.1, alpha=(0.2,), beta=(0.5,), gamma=(0.3,), delta=1.0), 1),
        (fl.AugGarchSpec(model="gjr", p=1, q=1, omega=0.1, alpha=(0.15,), beta=(0.6,), gamma=(0.2,)), 1),
        (fl.AugGarchSpec(model="ngarch", p=1, q=1, omega=0.1, alpha=(0.15,), beta=(0.6,), gamma=(0.4,)), 1),
        (fl.AugGarchSpec(model="vgarch", p=1, q=1, omega=0.1, alpha=(0.3,), beta=(0.6,), gamma=(0.2,)), 3),
        (fl.AugGarchSpec(model="garch", p=2, q=1, omega=0.1, alpha=(0.1, 0.05), beta=(0.6,)), 2),
    ]
    ok = True
    worst = 0.0
    for spec, r in cases:
        row = table_closed_form_report(spec, r)
        assert row is not None, (spec.model, r)
        oracle = check_polynomial_condition(spec, r)
        rel = abs(row.computed_value - oracle.computed_value) / abs(oracle.computed_value)
        worst = max(worst, rel)
        ok &= rel <= 1e-6
    note_row = table_closed_form_report(fl.AugGarchSpec(model="garch", omega=0.1, alpha=(0.2,), beta=(0.7,)), 2)
    has_note = note_row.discrepancy_note is not None and "cross term" in note_row.discrepancy_note
    assert _line("C8 closed form vs oracle", ok and has_note, f"worst rel diff={worst:.2e} garch r=2 note={has_note}")


def test_criterion_9_thread_determinism(garch_truth, monkeypatch):
    # byte-identical reports for the same master seed and different --threads;
    # a 512 KiB chunk budget splits the clt run into 8 chunks of 32, the fclt
    # run into 2 of 64 and the target into 4 of 16
    monkeypatch.setattr(parallel, "CHUNK_BYTES", 2**19)
    results = []
    for threads in (1, 3):
        cfg = ExperimentConfig(
            spec=GARCH,
            p=GARCH_P,
            r=2,
            n=2000,
            reps=256,
            seed=(MASTER_SEED, 9),
            truth=garch_truth,
            target=None,
        )
        clt = fl.run_clt_experiment(cfg, threads=threads)
        fcfg = ExperimentConfig(
            spec=AR1,
            p=0.9,
            r=1,
            n=1000,
            reps=128,
            seed=(MASTER_SEED, 91),
            truth=closed_form_truth(AR1, 0.9, 1),
            t_grid=(0.5, 1.0),
        )
        fclt = fl.run_fclt_experiment(fcfg, threads=threads)
        lrc = fl.trivariate_long_run_cov_mc(
            GARCH,
            GARCH_P,
            2,
            q_true=garch_truth.q_true,
            f_at_q=garch_truth.f_at_q,
            max_lag=10,
            n_per_rep=1000,
            n_reps=64,
            seed=(MASTER_SEED, 92),
            threads=threads,
        )
        results.append(
            json.dumps(
                {"clt": clt.to_obj(), "fclt": fclt.to_obj(), "sigma": lrc.sigma.tolist()},
                sort_keys=True,
            )
        )
    ok = results[0] == results[1]
    assert _line("C9 determinism across threads", ok, f"{len(results[0])} bytes compared")
