import math
from dataclasses import replace

import numpy as np
import pytest

from fclt_lab import truth as truth_module
from fclt_lab.arma import ArmaSpec
from fclt_lab.errors import ParameterError
from fclt_lab.garch import AugGarchSpec
from fclt_lab.innovations import InnovationDist
from fclt_lab.processes import IidSpec, simulate, simulate_batch
from fclt_lab.truth import TRUTH_ENTRIES, closed_form_truth, pilot_truth, truth_from_sample

NORMAL = InnovationDist()


def test_iid_normal_truth():
    t = closed_form_truth(IidSpec(NORMAL), 0.5, 1)
    assert t.q_true == pytest.approx(0.0, abs=1e-12)
    assert t.f_at_q == pytest.approx(1 / math.sqrt(2 * math.pi), rel=1e-12)
    assert t.m_true == pytest.approx(math.sqrt(2 / math.pi), rel=1e-8)  # E|Z|
    assert t.a_r == 0.0 and t.mu == pytest.approx(0.0, abs=1e-12)
    assert all(v == "closed-form" for v in t.provenance.values())


def test_ar1_normal_marginal_is_exact():
    # X = sum psi_j eps_j with normal eps: marginal N(0, 4/3)
    t = closed_form_truth(ArmaSpec(phi=(-0.5,)), 0.95, 1)
    sigma = math.sqrt(4.0 / 3.0)
    from scipy.stats import norm

    assert t.q_true == pytest.approx(sigma * norm.ppf(0.95), rel=1e-10)
    assert t.f_at_q == pytest.approx(norm.pdf(norm.ppf(0.95)) / sigma, rel=1e-10)
    assert t.m_true == pytest.approx(sigma * math.sqrt(2 / math.pi), rel=1e-10)


def test_no_closed_form_for_garch():
    spec = AugGarchSpec(model="garch", omega=0.1, alpha=(0.1,), beta=(0.8,))
    assert closed_form_truth(spec, 0.5, 2) is None


def test_truth_from_degenerate_sample_has_no_density():
    t = truth_from_sample(np.full(100, 2.0), 0.5, 2)
    assert t.f_at_q is None
    assert t.q_true == 2.0 and t.m_true == 0.0


def test_truth_from_sample_lets_unexpected_kde_errors_through(monkeypatch):
    # only a degenerate sample (SingularityError) means "no density"; anything else is a fault
    def broken(values, x):
        raise RuntimeError("kde fault")

    monkeypatch.setattr(truth_module, "gaussian_kde_at", broken)
    with pytest.raises(RuntimeError, match="kde fault"):
        truth_from_sample(np.arange(100.0), 0.5, 2)


GARCH11 = AugGarchSpec(model="garch", omega=0.1, alpha=(0.1,), beta=(0.8,))


def test_pilot_truth_simulates_one_block(monkeypatch):
    calls = []
    original = truth_module.simulate_batch

    def counting(spec, n, burn_in, seed, reps):
        calls.append(reps)
        return original(spec, n, burn_in, seed, reps)

    monkeypatch.setattr(truth_module, "simulate_batch", counting)
    pilot_truth(GARCH11, 0.9, 2, seed=4, n=6_400)
    assert calls == [range(64)]


@pytest.mark.parametrize("spec", [GARCH11, ArmaSpec(phi=(-0.5,), theta=(0.3,), innovation=GARCH11)])
def test_pilot_truth_pools_64_paths_bit_for_bit(spec):
    # path i is the single path of stream (seed, i); n is not a multiple of 64
    n, seed = 50_001, 9
    paths = [simulate(spec, math.ceil(n / 64), seed=(seed, i)).values for i in range(64)]
    ref = truth_from_sample(np.concatenate(paths)[:n], 0.9, 2)
    ref = replace(ref, **truth_module._partial_closed_entries(spec, 2))
    got = pilot_truth(spec, 0.9, 2, seed=seed, n=n)
    assert [getattr(got, k) for k in TRUTH_ENTRIES] == [getattr(ref, k) for k in TRUTH_ENTRIES]


def test_pilot_truth_garch_overrides_closed_entries():
    spec = AugGarchSpec(model="garch", omega=0.1, alpha=(0.1,), beta=(0.8,))
    t = pilot_truth(spec, 0.95, 2, seed=5, n=200_000)
    assert t.mu == 0.0 and t.a_r == 0.0
    assert t.m_true == pytest.approx(1.0, abs=1e-12)  # omega/(1-alpha-beta), exact
    assert t.provenance["m_true"] == "closed-form"
    assert t.provenance["q_true"].startswith("pilot-mc")
    assert t.pilot_fingerprint is not None
    # the GARCH(1,1) marginal has heavier tails than normal but a similar scale
    assert 1.2 < t.q_true < 2.6
    assert t.f_at_q > 0


def test_pilot_truth_discrete_driver_leaves_density_unknown(monkeypatch):
    # a Rademacher sample has no density to estimate: no KDE runs, and the
    # symmetric law gives mu = a_r = 0 exactly
    monkeypatch.setattr(truth_module, "gaussian_kde_at", lambda *a, **k: pytest.fail("KDE ran"))
    t = pilot_truth(IidSpec(InnovationDist("rademacher")), 0.5, 2, seed=2, n=20_000)
    assert t.f_at_q is None
    assert t.mu == 0.0 and t.a_r == 0.0
    assert t.provenance["mu"] == t.provenance["a_r"] == "closed-form"
    assert t.provenance["f_at_q"].startswith("pilot-mc")


@pytest.mark.parametrize("n", [0, -1])
def test_pilot_truth_refuses_non_positive_n(n):
    # n = -1 used to slice the pooled draws to all but the last one
    spec = AugGarchSpec(model="garch", omega=0.1, alpha=(0.1,), beta=(0.8,))
    with pytest.raises(ParameterError, match="pilot n"):
        pilot_truth(spec, 0.5, 2, n=n)


def test_pilot_truth_reproducible():
    spec = AugGarchSpec(model="garch", omega=0.1, alpha=(0.1,), beta=(0.8,))
    a = pilot_truth(spec, 0.9, 2, seed=7, n=50_000)
    b = pilot_truth(spec, 0.9, 2, seed=7, n=50_000)
    assert (a.q_true, a.f_at_q, a.m_true) == (b.q_true, b.f_at_q, b.m_true)
    assert a.pilot_fingerprint == b.pilot_fingerprint


def _pilot_with_every_entry_estimated(spec, p, r, seed, n, tag):
    """Every entry estimated from the pooled sample, then the closed forms laid over."""
    pooled = simulate_batch(spec, math.ceil(n / 64), None, seed, range(64)).ravel()[:n]
    est = truth_from_sample(pooled, p, r, provenance_tag=tag)
    closed = truth_module._partial_closed_entries(spec, r)
    return replace(est, **closed, provenance=est.provenance | dict.fromkeys(closed, "closed-form"))


@pytest.mark.parametrize(
    "spec, r",
    [
        (GARCH11, 1),
        (GARCH11, 2),
        (replace(GARCH11, innovation=InnovationDist("student_t", 8)), 2),
        (ArmaSpec(phi=(-0.5,), theta=(0.3,), innovation=GARCH11), 2),
    ],
    ids=["garch_r1", "garch_r2", "student_t_garch_r2", "arma_garch_r2"],
)
def test_pilot_truth_skips_closed_entries_at_unchanged_bits(spec, r):
    got = pilot_truth(spec, 0.9, r, seed=6, n=20_001)
    ref = _pilot_with_every_entry_estimated(spec, 0.9, r, 6, 20_001, got.provenance["q_true"])
    assert [getattr(got, k) for k in TRUTH_ENTRIES] == [getattr(ref, k) for k in TRUTH_ENTRIES]
    assert got.provenance == ref.provenance and list(got.provenance) == list(TRUTH_ENTRIES)


def test_pilot_truth_garch_r2_estimates_no_moment_entry(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a closed-form entry was estimated")

    for name in ("a_r_from_sample", "known_mean_abs_moment", "sample_mean"):
        monkeypatch.setattr(truth_module, name, refuse)
    t = pilot_truth(GARCH11, 0.95, 2, seed=5, n=20_000)
    assert all(t.provenance[k] == "closed-form" for k in ("mu", "m_true", "a_r"))


@pytest.mark.parametrize("p", [0.0, 1.0, -0.5, float("nan")])
def test_closed_form_truth_refuses_p_outside_unit_interval(p):
    for spec in (IidSpec(NORMAL), IidSpec(InnovationDist("student_t", dof=5.0)), ArmaSpec(phi=(-0.5,))):
        with pytest.raises(ParameterError, match="quantile level"):
            closed_form_truth(spec, p, 2)


def test_normal_marginal_truth_equals_scipy_stats_bit_for_bit():
    from scipy.stats import norm

    spec = ArmaSpec(phi=(-0.5,))
    sigma = truth_module._arma_marginal_std(spec)
    for p in (0.01, 0.25, 0.5, 0.9, 0.95, 0.999):
        t = closed_form_truth(spec, p, 2)
        q = float(sigma * norm.ppf(p))
        assert (t.q_true, t.f_at_q) == (q, float(norm.pdf(q / sigma) / sigma))
