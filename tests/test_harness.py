import json
import math
from dataclasses import fields

import numpy as np
import pytest

from fclt_lab.arma import ArmaSpec
from fclt_lab import harness, parallel
from fclt_lab.asymptotics import Gamma2, bahadur_remainder, iid_gamma, representation_gap
from fclt_lab.errors import ParameterError, RefusalError
from fclt_lab.garch import AugGarchSpec
from fclt_lab.harness import (
    ExperimentConfig,
    run_bahadur_experiment,
    run_clt_experiment,
    run_fclt_experiment,
    run_representation_experiment,
)
from fclt_lab.innovations import InnovationDist
from fclt_lab.processes import IidSpec, default_burn_in, simulate_batch
from fclt_lab.truth import Truth, closed_form_truth, truth_from_sample

NORMAL = InnovationDist()
IID = IidSpec(NORMAL)


def iid_cfg(**kw):
    base = dict(
        spec=IID,
        p=0.5,
        r=2,
        n=1500,
        reps=300,
        seed=5,
        truth=closed_form_truth(IID, kw.get("p", 0.5), kw.get("r", 2)),
        target=iid_gamma(NORMAL, kw.get("p", 0.5), kw.get("r", 2)),
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_clt_iid_passes_all_entries():
    rep = run_clt_experiment(iid_cfg())
    assert rep.used == 300 and rep.quarantined == 0
    assert all(v == "pass" for row in rep.verdict for v in row), (rep.empirical_cov, rep.per_entry_z)
    assert abs(rep.empirical_mean[0]) < 0.5  # sqrt(n)-scaled centered, should be near 0


def test_clt_fails_the_entries_a_wrong_target_misstates():
    true = iid_gamma(NORMAL, 0.5, 2)
    wrong = Gamma2(g11=2.0 * true.g11, g22=true.g22, g12=true.g12 + 0.5, a_r=true.a_r)
    rep = run_clt_experiment(iid_cfg(target=wrong))
    assert rep.verdict == [["fail", "fail"], ["fail", "pass"]], rep.per_entry_z


def test_clt_and_fclt_reports_serialize_their_fields():
    rep = run_fclt_experiment(iid_cfg(reps=40, n=200, t_grid=(0.5,)))
    obj = json.loads(json.dumps(rep.to_obj()))  # plain JSON values only: no default hook
    assert obj.keys() == {f.name for f in fields(rep)} | {"note"}
    assert obj["clt"] == rep.clt.to_obj() and obj["clt"].keys() == {f.name for f in fields(rep.clt)}
    assert obj["t_grid"] == [0.5, 1.0] and obj["clt"]["target"] == rep.clt.target.to_obj()
    assert obj["cov_by_t"] == rep.cov_by_t.tolist()


def test_quarantine_accounting_and_small_m_inconclusive():
    rep = run_clt_experiment(iid_cfg(reps=2))
    assert rep.used + rep.quarantined == 2
    assert all(v == "inconclusive" for row in rep.verdict for v in row)


def test_refusal_on_non_causal_spec():
    truth = closed_form_truth(IID, 0.5, 2)
    cfg = ExperimentConfig(spec=ArmaSpec(phi=(-1.5,)), p=0.5, r=2, n=100, reps=10, seed=1, truth=truth)
    with pytest.raises(RefusalError) as err:
        run_clt_experiment(cfg)
    assert any(r.condition_name == "causality" for r in err.value.reports)


def test_refusal_when_density_unverifiable():
    # degenerate (constant) sample: the density entry of the truth is absent
    degenerate = truth_from_sample(np.full(50, 1.0), 0.5, 2)
    cfg = ExperimentConfig(spec=IID, p=0.5, r=2, n=100, reps=10, seed=1, truth=degenerate)
    with pytest.raises(RefusalError, match="density"):
        run_clt_experiment(cfg)


def test_refusal_without_truth():
    cfg = ExperimentConfig(spec=IID, p=0.5, r=2, n=100, reps=10, seed=1)
    with pytest.raises(RefusalError):
        run_clt_experiment(cfg)


def test_reports_identical_across_thread_counts(monkeypatch):
    monkeypatch.setattr(parallel, "CHUNK_BYTES", 2**17)  # 128 rows of 4000 bytes: 4 chunks of 32
    cfg = iid_cfg(reps=128, n=500)
    a = run_clt_experiment(cfg, threads=1)
    b = run_clt_experiment(cfg, threads=4)
    assert json.dumps(a.to_obj(), sort_keys=True) == json.dumps(b.to_obj(), sort_keys=True)


def test_reports_identical_across_chunk_sizes(monkeypatch):
    # each replication's statistic is computed from its own row, whatever
    # block the row arrives in: the clt run (rows of 4000 bytes) in 5 chunks
    # and in 2, the ladder (rows of 6400 bytes at its longest rung) in 8 and in 2
    for run, extra in ((run_clt_experiment, {}), (run_bahadur_experiment, {"n_ladder": (200, 800)})):
        reports = []
        for budget in (2**18, 2**20):
            monkeypatch.setattr(parallel, "CHUNK_BYTES", budget)
            reports.append(json.dumps(run(iid_cfg(reps=300, n=500, **extra)).to_obj(), sort_keys=True))
        assert reports[0] == reports[1]


def test_fclt_t1_reproduces_clt_exactly():
    cfg = iid_cfg(reps=200, n=1000, t_grid=(0.5, 1.0))
    frep = run_fclt_experiment(cfg)
    crep = run_clt_experiment(iid_cfg(reps=200, n=1000))
    assert np.array_equal(frep.clt.empirical_cov, crep.empirical_cov)
    assert np.array_equal(frep.clt.empirical_mean, crep.empirical_mean)
    assert np.array_equal(frep.cov_by_t[-1], crep.empirical_cov)


def test_fclt_brownian_scaling_iid():
    cfg = iid_cfg(reps=600, n=2000, t_grid=(0.25, 0.5, 0.75, 1.0))
    rep = run_fclt_experiment(cfg)
    assert rep.t_grid == (0.25, 0.5, 0.75, 1.0)
    # linear-in-t growth within 3 SEs, all entries and grid points
    assert (rep.scaling_z <= 3.0 + 1e-9).all(), rep.scaling_z
    # disjoint increments decorrelated within 3 SEs
    assert (np.abs(rep.increment_corr_z) <= 3.0).all(), rep.increment_corr_z


def test_fclt_peak_memory_is_the_clt_block():
    # every grid point reads a prefix of the one block: no prefix is copied or kept
    import tracemalloc

    peaks = []
    for grid in (None, (0.25, 0.5, 0.75, 1.0)):
        tracemalloc.start()
        try:
            (run_clt_experiment if grid is None else run_fclt_experiment)(iid_cfg(reps=256, n=20_000, t_grid=grid))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0], peaks[1] / peaks[0]


def test_fclt_requires_grid():
    with pytest.raises(ParameterError):
        run_fclt_experiment(iid_cfg())
    with pytest.raises(ParameterError, match="prefix for t=0.05 is empty"):
        run_fclt_experiment(iid_cfg(n=10, t_grid=(0.05, 0.5)))


def test_bahadur_ladder_iid_decreasing():
    cfg = iid_cfg(reps=300, n_ladder=(300, 1200, 4800))
    table = run_bahadur_experiment(cfg)
    assert table.verdict == "pass", table.rows()
    meds = table.median
    assert meds[-1] < meds[0]


def test_single_rung_ladder_inconclusive():
    table = run_bahadur_experiment(iid_cfg(reps=50, n_ladder=(400,)))
    assert table.verdict == "inconclusive"
    assert len(table.rows()) == 1


def test_representation_ladder_iid_r1():
    # needs continuity at mu, satisfied by the normal; std of the gap shrinks
    cfg = iid_cfg(p=0.5, r=1, reps=300, n_ladder=(300, 1200, 4800))
    table = run_representation_experiment(cfg)
    assert table.verdict == "pass", table.rows()


def test_representation_refuses_without_mu_and_a_r():
    partial = Truth(q_true=0.0, f_at_q=0.4, mu=None, m_true=1.0, a_r=None, p=0.5, r=2)
    cfg = ExperimentConfig(spec=IID, p=0.5, r=2, n=100, reps=20, seed=3, truth=partial, n_ladder=(100, 200))
    with pytest.raises(RefusalError, match="mu"):
        run_representation_experiment(cfg)


def test_reports_serialize_to_json():
    rep = run_clt_experiment(iid_cfg(reps=64, n=400))
    text = json.dumps(rep.to_obj(), sort_keys=True)
    assert "empirical_cov" in text
    table = run_bahadur_experiment(iid_cfg(reps=64, n_ladder=(200, 400)))
    assert "rows" in json.dumps(table.to_obj())


def test_config_validation():
    truth = closed_form_truth(IID, 0.5, 2)
    with pytest.raises(ParameterError):
        ExperimentConfig(spec=IID, p=0.5, r=2, n=100, reps=1, seed=1, truth=truth)
    with pytest.raises(ParameterError):
        ExperimentConfig(spec=IID, p=1.5, r=2, n=100, reps=10, seed=1, truth=truth)
    with pytest.raises(ParameterError):
        ExperimentConfig(spec=IID, p=0.5, r=0, n=100, reps=10, seed=1, truth=truth)
    for threshold in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ParameterError, match="se_threshold"):
            ExperimentConfig(spec=IID, p=0.5, r=2, n=100, reps=10, seed=1, truth=truth, se_threshold=threshold)


# --- a ladder is one block per chunk, every rung its prefix ---------------------------

GARCH11 = AugGarchSpec(model="garch", omega=0.1, alpha=(0.1,), beta=(0.8,))
LADDER_SPECS = {
    "iid": IID,
    "garch": GARCH11,
    "arma_garch": ArmaSpec(phi=(0.5,), theta=(0.3,), innovation=GARCH11),
}
# hand-pinned truth: the tables only need it fixed, not exact
LADDER_TRUTH = Truth(q_true=1.3, f_at_q=0.2, mu=0.0, m_true=1.0, a_r=0.0, p=0.9, r=2)


def ladder_cfg(spec, **kw):
    base = dict(spec=spec, p=0.9, r=2, n=1000, reps=40, seed=(8, 2), truth=LADDER_TRUTH, n_ladder=(2000, 500, 1000))
    base.update(kw)
    return ExperimentConfig(**base)


def _counting_simulate_batch(monkeypatch, mutate=None):
    calls = []

    def counting(spec, n, burn_in, seed, reps):
        calls.append((n, reps))
        values = simulate_batch(spec, n, burn_in, seed, reps)
        if mutate is not None:
            mutate(n, reps, values)
        return values

    monkeypatch.setattr(harness, "simulate_batch", counting)
    return calls


def test_ladder_simulates_one_block_per_chunk(monkeypatch):
    calls = _counting_simulate_batch(monkeypatch)
    monkeypatch.setattr(parallel, "CHUNK_BYTES", 128 * 6400)  # 300 rows of 6400 bytes: 3 chunks of 100
    run_bahadur_experiment(iid_cfg(reps=300, n_ladder=(400, 800, 200)))
    assert calls == [(800, range(0, 100)), (800, range(100, 200)), (800, range(200, 300))]


def _rung_by_rung(cfg, stat):
    """The decay table rows with every rung simulated on its own."""
    rows, used = [], []
    for n in cfg.n_ladder:
        vals = stat(simulate_batch(cfg.spec, n, None, cfg.seed, range(cfg.reps)))
        vals = vals[np.isfinite(vals)]
        a = np.abs(vals)
        sd = float(vals.std(ddof=1))
        rows.append((n, float(np.median(a)), float(np.percentile(a, 90.0)), sd, sd / math.sqrt(max(vals.size, 1))))
        used.append(vals.size)
    return rows, tuple(used)


@pytest.mark.parametrize("name", sorted(LADDER_SPECS))
def test_ladder_tables_equal_rung_by_rung_bit_for_bit(name):
    cfg = ladder_cfg(LADDER_SPECS[name])
    t = cfg.truth
    for run, stat in (
        (run_bahadur_experiment, lambda x: math.sqrt(x.shape[-1]) * bahadur_remainder(x, cfg.p, t.q_true, t.f_at_q)),
        (run_representation_experiment, lambda x: representation_gap(x, cfg.r, t.mu, t.a_r)),
    ):
        table = run(cfg)
        rows, used = _rung_by_rung(cfg, stat)
        assert table.n_values == (2000, 500, 1000)
        assert table.rows() == rows and table.used == used and table.quarantined == (0, 0, 0)


def test_ladder_quarantines_a_diverging_replication_on_every_rung(monkeypatch):
    def diverge_late(n, reps, values):
        if 3 in reps and n > 1000:  # the path of replication 3 diverges after step 1000
            values[reps.index(3)] = np.nan

    calls = _counting_simulate_batch(monkeypatch, diverge_late)
    cfg = ladder_cfg(GARCH11)
    for run in (run_bahadur_experiment, run_representation_experiment):
        table = run(cfg)
        assert table.used == (39, 39, 39) and table.quarantined == (1, 1, 1)
    assert [n for n, _ in calls] == [2000, 2000]


def test_ladder_refuses_when_every_replication_is_quarantined(monkeypatch):
    monkeypatch.setattr(harness, "simulate_batch", lambda spec, n, burn_in, seed, reps: np.full((len(reps), n), np.nan))
    for run in (run_bahadur_experiment, run_representation_experiment):
        with pytest.raises(RefusalError, match="quarantined"):
            run(ladder_cfg(GARCH11))


def test_ladder_rejects_empty_rungs():
    for ladder in ((0, 100), (100, -5)):
        with pytest.raises(ParameterError, match="n must be >= 1"):
            run_bahadur_experiment(iid_cfg(reps=10, n_ladder=ladder))


def test_bahadur_ladder_peak_memory_is_one_block():
    import tracemalloc

    cfg = ladder_cfg(GARCH11, reps=64, n_ladder=(1000, 4000, 40_000))
    block = 64 * (GARCH11.pre_window + default_burn_in(GARCH11) + 40_000) * 8
    tracemalloc.start()
    try:
        run_bahadur_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * block + 8 * 2**20, peak / block  # the block plus a tile's temporaries


def test_ladder_peak_memory_follows_the_chunk_budget_not_n(monkeypatch):
    # with a 2 MiB budget the longest rungs 10^4 and 10^5 run as 3 and 25
    # chunks; one chunk of all 64 rows at 10^5 would hold about 51 MB
    import tracemalloc

    monkeypatch.setattr(parallel, "CHUNK_BYTES", 2**21)
    for top in (10_000, 100_000):
        cfg = ladder_cfg(GARCH11, reps=64, n_ladder=(top // 10, top))
        tracemalloc.start()
        try:
            run_bahadur_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * max(parallel.CHUNK_BYTES, 8 * top), (top, peak)


def test_bahadur_ladder_with_a_million_step_rung_runs_in_two_chunks(monkeypatch):
    calls = _counting_simulate_batch(monkeypatch)
    table = run_bahadur_experiment(ladder_cfg(GARCH11, reps=8, n_ladder=(10_000, 1_000_000)))
    assert calls == [(1_000_000, range(0, 4)), (1_000_000, range(4, 8))]  # 8 rows of 8 MB in 32 MiB chunks
    assert table.used == (8, 8) and all(map(math.isfinite, table.median + table.p90 + table.std))
