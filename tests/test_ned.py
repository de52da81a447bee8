import math

import numpy as np
import pytest

from fclt_lab.arma import ArmaSpec
from fclt_lab.errors import NonCausalError, ParameterError
from fclt_lab.garch import AugGarchSpec, default_burn_in
from fclt_lab.innovations import InnovationDist
from fclt_lab.ned import (
    Functional,
    estimate_ned,
    fit_decay,
    functional_ned_comparison,
    ned_scan,
)
from fclt_lab.processes import IidSpec, innovation_driver, pre_window, values_from_innovations
from fclt_lab.rng import stream_generator

AR1 = ArmaSpec(phi=(-0.5,))
IDENTITY = Functional("identity")


def ar1_exact_nu(k):
    # tail std of sum_{j>k} 0.5^j eps_j = 0.5^(k+1) sqrt(4/3)
    return 0.5 ** (k + 1) * math.sqrt(4.0 / 3.0)


def test_ma1_scan_is_exactly_zero():
    spec = ArmaSpec(theta=(0.3,))
    for k in (1, 2, 4):
        est = estimate_ned(spec, IDENTITY, k, redraws=16, samples=256, seed=3)
        assert est.nu_hat == 0.0 and est.nu_hat_jk == 0.0 and est.se == 0.0


def test_ar1_identity_matches_exact_tail_formula():
    for k in (1, 3, 6):
        est = estimate_ned(AR1, IDENTITY, k, seed=11)
        assert abs(est.nu_hat_jk - ar1_exact_nu(k)) <= 3.0 * est.se, (k, est)


def test_iid_scans_are_zero():
    spec = IidSpec(InnovationDist())
    for fn in (IDENTITY, Functional("abs_pow", 2.0), Functional("indicator_leq", 0.5)):
        est = estimate_ned(spec, fn, 2, redraws=16, samples=512, seed=9)
        assert est.nu_hat_jk <= 3.0 * est.se + 1e-12


def test_scan_monotone_in_k_up_to_3se():
    scan = ned_scan(AR1, IDENTITY, range(1, 7), redraws=32, samples=1024, seed=21)
    for i in range(len(scan.k_values) - 1):
        slack = 3.0 * math.hypot(scan.se[i], scan.se[i + 1])
        assert scan.nu_hat_jk[i + 1] <= scan.nu_hat_jk[i] + slack


def test_fit_decay_geometric_synthetic():
    ks = np.arange(1, 11)
    fit = fit_decay(ks, 0.5**ks)
    assert fit.model == "geometric"
    assert fit.rate == pytest.approx(0.5, rel=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_decay_polynomial_synthetic():
    ks = np.arange(1, 11)
    fit = fit_decay(ks, ks.astype(float) ** -3)
    assert fit.model == "polynomial"
    assert fit.rate == pytest.approx(3.0, rel=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_decay_weights_points_by_their_se():
    # a geometric law whose two noisiest estimates came out high: unweighted,
    # they bend the fit to a polynomial; weighted by (nu/se)^2 they count little
    ks = np.arange(1, 9)
    nu = 0.8**ks * np.exp([0, 0, 0, 0, 0, 0, 0.5, 0.9])
    se = nu * np.array([0.02] * 6 + [0.5, 0.5])
    assert fit_decay(ks, nu).model == "polynomial"
    fit = fit_decay(ks, nu, se)
    assert fit.model == "geometric"
    assert fit.rate == pytest.approx(0.8, abs=0.01)
    assert fit.r_squared > 0.99


def test_fit_decay_degenerate_on_zeros():
    fit = fit_decay(np.arange(1, 8), np.zeros(7))
    assert fit.model == "degenerate"


def test_ar1_scan_fits_geometric_rate_half():
    scan = ned_scan(AR1, IDENTITY, range(1, 9), seed=33)
    assert scan.fit.model == "geometric"
    assert scan.fit.rate == pytest.approx(0.5, abs=0.1)


def test_garch_abs2_scan_decays_geometrically():
    spec = AugGarchSpec(model="garch", omega=0.1, alpha=(0.1,), beta=(0.8,))
    scan = ned_scan(spec, Functional("abs_pow", 2.0), range(1, 9), redraws=32, samples=2048, seed=41)
    assert scan.fit.model == "geometric"
    assert scan.fit.r_squared > 0.9
    assert 0.0 < scan.fit.rate < 1.0


def test_functional_comparison_ar1():
    cmp = functional_ned_comparison(AR1, x_threshold=0.5, r=2, k_values=range(1, 7), redraws=32, samples=1024, seed=13)
    assert cmp.degradation_consistent
    # square-root degradation bound: indicator decays no faster than sqrt(nu(k)) ~ rate in [0.5, 0.85]
    ind = cmp.indicator.fit
    assert ind.model == "geometric"
    assert 0.5 <= ind.rate <= 0.85, ind
    assert cmp.abs_pow.fit.model == "geometric"


def test_estimate_ned_rejects_non_causal():
    with pytest.raises(NonCausalError):
        estimate_ned(ArmaSpec(phi=(-1.2,)), IDENTITY, 2, redraws=8, samples=64, seed=1)


def test_estimate_ned_deterministic_and_thread_stable():
    a = estimate_ned(AR1, IDENTITY, 3, redraws=16, samples=512, seed=50, chunk_size=64, threads=1)
    b = estimate_ned(AR1, IDENTITY, 3, redraws=16, samples=512, seed=50, chunk_size=64, threads=4)
    assert a == b


def test_functional_parsing():
    assert Functional.parse("identity") == IDENTITY
    assert Functional.parse("abs_pow:2") == Functional("abs_pow", 2.0)
    assert Functional.parse("indicator_leq:0.5") == Functional("indicator_leq", 0.5)
    with pytest.raises(ParameterError):
        Functional.parse("huber")


# --- the scan core against a per-k reference --------------------------------

GARCH11 = AugGarchSpec(model="garch", omega=0.1, alpha=(0.1,), beta=(0.8,))
ARMA_GARCH = ArmaSpec(phi=(0.4,), theta=(0.2,), innovation=GARCH11)
CORE_CASES = [
    (AR1, IDENTITY),
    (ARMA_GARCH, Functional("abs_pow", 2.0)),
    (GARCH11, Functional("abs_pow", 2.0)),
    (IidSpec(InnovationDist("student_t", dof=5.0)), Functional("indicator_leq", 0.3)),
]


def reference_scan(spec, functional, k_values, redraws, samples, seed):
    """nu(k) by a plain loop over k, outer samples and redraws, one path at a
    time, from the documented layout.

    The bank holds the Markov states (last m innovations, carried state) at
    the end of ``samples`` burn-in paths from the fixed point, drawn from the
    stream (seed, 2**32 - 1). Sample i draws from the stream (seed, i) a
    burn-in path followed by eps_{-kmax..0}, then the bank indices of its
    redraws. Every X_0 runs from a state over the fixed innovations: the base
    from its own state over all kmax + 1, redraw r from its bank state over
    the last k + 1.
    """
    dist, m = innovation_driver(spec), pre_window(spec)
    lead = m + (0 if isinstance(spec, IidSpec) else default_burn_in(spec))
    kmax = max(k_values)

    def end_state(eps):
        return eps[len(eps) - m :], values_from_innovations(spec, eps, final_state=True)[1]

    def x0(state, fixed):
        lags, carried = state
        return values_from_innovations(spec, np.r_[lags, fixed], state=carried)[-1]

    bank = [end_state(row) for row in dist.sample(stream_generator(seed, 2**32 - 1), (samples, lead))]
    draws = []
    for i in range(samples):
        rng = stream_generator(seed, i)
        path = dist.sample(rng, lead + kmax + 1)
        draws.append((end_state(path[:lead]), path[lead:], rng.integers(samples, size=redraws)))
    rows = []
    for k in k_values:
        x = np.empty((samples, redraws + 1))
        for i, (state, fixed, picks) in enumerate(draws):
            x[i, 0] = x0(state, fixed)
            x[i, 1:] = [x0(bank[j], fixed[kmax - k :]) for j in picks]
        g = functional.apply(x)
        avg = np.array([math.fsum(row) for row in g[:, 1:]]) / redraws
        d = (g[:, 0] - avg) ** 2
        dev = np.ascontiguousarray(g[:, 1:]) - avg[:, None]
        d_jk = d - np.einsum("ij,ij->i", dev, dev) / (redraws - 1) / redraws
        nu2, nu2_jk = float(d.sum()) / samples, float(d_jk.sum()) / samples
        se_nu2 = math.sqrt(max(float((d_jk * d_jk).sum()) / samples - nu2_jk * nu2_jk, 0.0) / samples)
        nu = math.sqrt(max(nu2, 0.0))
        rows.append((k, nu, se_nu2 / (2.0 * nu) if nu > 0 else 0.0, math.sqrt(max(nu2_jk, 0.0))))
    return rows


@pytest.mark.parametrize("spec,functional", CORE_CASES)
def test_scan_matches_per_k_reference_bit_for_bit(spec, functional):
    ks = [3, 0, 5, 3, 1]  # unsorted, with k = 0 and a duplicate
    scan = ned_scan(spec, functional, ks, redraws=4, samples=7, seed=(5, 2))
    assert scan.to_rows() == reference_scan(spec, functional, ks, 4, 7, (5, 2))


def test_estimate_ned_is_a_scan_of_one_k():
    est = estimate_ned(GARCH11, Functional("abs_pow", 2.0), 2, redraws=4, samples=6, seed=8)
    assert [(est.k, est.nu_hat, est.se, est.nu_hat_jk)] == reference_scan(
        GARCH11, Functional("abs_pow", 2.0), [2], 4, 6, 8
    )


def test_scan_independent_of_threads_and_chunk_size():
    fn = Functional("abs_pow", 2.0)
    runs = [
        estimate_ned(ARMA_GARCH, fn, 4, redraws=5, samples=40, seed=3, chunk_size=c, threads=t)
        for c, t in [(None, 1), (1, 1), (7, 1), (7, 2), (16, 2)]
    ]
    assert all(r == runs[0] for r in runs[1:])
    one = ned_scan(ARMA_GARCH, fn, range(6), redraws=5, samples=40, seed=3, threads=1)
    two = ned_scan(ARMA_GARCH, fn, range(6), redraws=5, samples=40, seed=3, threads=2)
    assert one == two


@pytest.mark.parametrize("k_values", [[2], range(1, 9)])
def test_scan_draws_once_per_outer_sample_and_once_for_the_bank(monkeypatch, k_values):
    calls = []
    sample = InnovationDist.sample
    monkeypatch.setattr(InnovationDist, "sample", lambda self, rng, size: calls.append(size) or sample(self, rng, size))
    ned_scan(GARCH11, Functional("abs_pow", 2.0), k_values, redraws=3, samples=5, seed=1)
    assert len(calls) == 5 + 1


def test_scan_se_matches_spread_across_seeds():
    # The bank is shared by a scan's outer samples; their SE must still match
    # the spread of independent scans. The SE is that of nu^2 (the mean of the
    # per-sample terms), so the check is on that scale: the SD of nu_hat_jk^2
    # across 30 seeds against the RMS of the reported SE there, 2 nu_hat se.
    # (The median SE on the nu scale sits about 2x below the SD, at the
    # parent layout too: the terms are heavy-tailed and the SE right-skewed.)
    fn = Functional("abs_pow", 2.0)
    scans = [ned_scan(GARCH11, fn, [1, 4], redraws=8, samples=256, seed=(17, s)) for s in range(30)]
    nu2_jk = np.array([scan.nu_hat_jk for scan in scans]) ** 2
    se_nu2 = 2.0 * np.array([scan.nu_hat for scan in scans]) * np.array([scan.se for scan in scans])
    ratio = nu2_jk.std(axis=0, ddof=1) / np.sqrt(np.mean(se_nu2**2, axis=0))
    assert np.all((ratio >= 0.75) & (ratio <= 1.33)), ratio


def test_empty_k_grid_refused():
    with pytest.raises(ParameterError, match="kmax"):
        ned_scan(AR1, IDENTITY, [], redraws=4, samples=8)


def test_functional_comparison_equals_three_scans():
    args = dict(redraws=6, samples=48, seed=17)
    ks = [2, 1, 5, 4, 3]
    cmp = functional_ned_comparison(AR1, x_threshold=0.5, r=3, k_values=ks, **args)
    # compared through repr (exact for floats), since a degenerate fit's R^2 is a NaN
    assert repr(cmp.identity) == repr(ned_scan(AR1, IDENTITY, ks, **args))
    assert repr(cmp.indicator) == repr(ned_scan(AR1, Functional("indicator_leq", 0.5), ks, **args))
    assert repr(cmp.abs_pow) == repr(ned_scan(AR1, Functional("abs_pow", 3.0), ks, **args))
