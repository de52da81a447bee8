import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fclt_lab import parallel
from fclt_lab.asymptotics import (
    Gamma2,
    TrivariateLRC,
    _component_series,
    _long_run_sum,
    _quartiles,
    _tail_lags,
    bahadur_remainder,
    gamma_from_trivariate,
    gaussian_kde_at,
    iid_gamma,
    representation_gap,
    silverman_bandwidth,
    trivariate_iid_closed_form,
    trivariate_long_run_cov_mc,
)
from fclt_lab.arma import ArmaSpec
from fclt_lab.errors import ParameterError, RefusalError, SingularityError
from fclt_lab.garch import AugGarchSpec
from fclt_lab.innovations import InnovationDist
from fclt_lab.processes import IidSpec, simulate
from fclt_lab.rng import stream_generator

NORMAL = InnovationDist()


# --- iid closed form -----------------------------------------------------------


def test_iid_gamma_normal_median_variance():
    g = iid_gamma(NORMAL, 0.5, 2)
    assert g.g11 == pytest.approx(math.pi / 2, rel=1e-9)
    assert g.g22 == pytest.approx(2.0, rel=1e-8)  # Var(X^2) for standard normal
    assert g.g12 == pytest.approx(0.0, abs=1e-9)  # symmetry
    assert g.a_r == 0.0


def test_iid_gamma_rejects_zero_density():
    with pytest.raises(SingularityError):
        iid_gamma(NORMAL, 0.5, 2, q_true=0.0, f_at_q=0.0)
    with pytest.raises(SingularityError):
        iid_gamma(InnovationDist("rademacher"), 0.5, 2)


def test_iid_trivariate_closed_form_reproduces_iid_gamma():
    for p, r in ((0.5, 2), (0.95, 1), (0.25, 3)):
        lrc = trivariate_iid_closed_form(NORMAL, p, r)
        direct = iid_gamma(NORMAL, p, r)
        mapped = gamma_from_trivariate(lrc, direct.a_r)
        assert mapped.g11 == pytest.approx(direct.g11, rel=1e-12, abs=1e-12)
        assert mapped.g22 == pytest.approx(direct.g22, rel=1e-12, abs=1e-12)
        assert mapped.g12 == pytest.approx(direct.g12, rel=1e-12, abs=1e-12)


# --- congruence mapping -----------------------------------------------------------


def _lrc_from_sigma(sigma, f=1.0):
    return TrivariateLRC(
        sigma=np.asarray(sigma, dtype=float),
        truncation_lag=0,
        method="iid_closed_form",
        f_at_q=f,
        q_true=0.0,
        p=0.5,
        r=2,
    )


def test_gamma_mapping_zero_coefficient():
    sigma = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 0.8]])
    g = gamma_from_trivariate(_lrc_from_sigma(sigma), 0.0)
    assert g.g22 == sigma[1, 1]  # Var(V)
    assert g.g12 == sigma[1, 2]  # Cov(V, W)
    assert g.g11 == sigma[2, 2]  # Var(W)


def test_gamma_mapping_identity_input():
    # A Sigma A^T with Sigma = I and a_r = 1: rows (0,0,1) and (-1,1,0)
    g = gamma_from_trivariate(_lrc_from_sigma(np.eye(3)), 1.0)
    assert (g.g11, g.g22, g.g12) == (1.0, 2.0, 0.0)


def test_gamma_g11_depends_only_on_w_block():
    sigma = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 0.8]])
    base = gamma_from_trivariate(_lrc_from_sigma(sigma), 0.7).g11
    bumped = sigma.copy()
    bumped[0, 0] += 5.0
    bumped[1, 1] += 2.0
    bumped[0, 1] = bumped[1, 0] = 0.9
    assert gamma_from_trivariate(_lrc_from_sigma(bumped), 0.7).g11 == base


@given(
    st.lists(st.floats(min_value=-2, max_value=2), min_size=9, max_size=9),
    st.floats(min_value=-3, max_value=3),
)
@settings(max_examples=60)
def test_congruence_preserves_psd(flat, a_r):
    b = np.array(flat).reshape(3, 3)
    sigma = b @ b.T  # PSD by construction
    g = gamma_from_trivariate(_lrc_from_sigma(sigma + 1e-12 * np.eye(3)), a_r)
    assert g.min_eigenvalue() >= -1e-8 * max(1.0, abs(g.g11), abs(g.g22))


# --- replication MC ------------------------------------------------------------------


def test_mc_iid_matches_closed_form_within_3se():
    lrc = trivariate_long_run_cov_mc(
        IidSpec(NORMAL), 0.5, 2, q_true=0.0, f_at_q=NORMAL.pdf(0.0), max_lag=5, n_per_rep=2000, n_reps=300, seed=12
    )
    exact = trivariate_iid_closed_form(NORMAL, 0.5, 2)
    diff = np.abs(lrc.sigma - exact.sigma)
    assert (diff <= 3.0 * lrc.mc_se + 1e-9).all(), (lrc.sigma, exact.sigma, lrc.mc_se)


def test_mc_lag0_only_matches_closed_form():
    lrc = trivariate_long_run_cov_mc(
        IidSpec(NORMAL), 0.5, 2, q_true=0.0, f_at_q=NORMAL.pdf(0.0), max_lag=0, n_per_rep=2000, n_reps=200, seed=3
    )
    exact = trivariate_iid_closed_form(NORMAL, 0.5, 2)
    assert (np.abs(lrc.sigma - exact.sigma) <= 3.0 * lrc.mc_se + 1e-9).all()


def test_mc_garch_squares_have_positive_long_run_extra():
    # positive autocorrelation of squares: Var(V) exceeds the lag-0 term
    spec = AugGarchSpec(model="garch", omega=0.1, alpha=(0.1,), beta=(0.8,))
    kw = dict(q_true=0.0, f_at_q=0.4, n_per_rep=4000, n_reps=150, seed=5)
    long_run = trivariate_long_run_cov_mc(spec, 0.5, 2, max_lag=50, **kw)
    lag0 = trivariate_long_run_cov_mc(spec, 0.5, 2, max_lag=0, **kw)
    assert long_run.sigma[1, 1] > lag0.sigma[1, 1] + 3.0 * lag0.mc_se[1, 1]


def test_mc_refuses_inadmissible_spec():
    bad = ArmaSpec(phi=(-1.0,))
    with pytest.raises(RefusalError) as err:
        trivariate_long_run_cov_mc(bad, 0.5, 1, q_true=0.0, f_at_q=0.4, n_per_rep=100, n_reps=10, seed=1)
    assert any(rep.condition_name == "causality" for rep in err.value.reports)


def test_mc_refuses_single_step_paths():
    with pytest.raises(ParameterError, match="n_per_rep"):
        trivariate_long_run_cov_mc(IidSpec(NORMAL), 0.5, 2, q_true=0.0, f_at_q=0.4, n_per_rep=1, n_reps=4, seed=1)


def test_mc_near_singular_flagged():
    # iid Rademacher at r = 2: the |X|^2 row is the constant 1, so sigma is singular
    lrc = trivariate_long_run_cov_mc(
        IidSpec(InnovationDist("rademacher")), 0.5, 2, q_true=0.0, f_at_q=0.5, max_lag=5, n_per_rep=500, n_reps=8, seed=4
    )
    assert lrc.note is not None and "singular" in lrc.note


def test_mc_ar1_long_run_variance_of_u():
    # Var(U) = Var(X0) (1 + 2 sum 0.5^i) = 3 Var(X0) = 4 for the AR(1) example
    from fclt_lab.truth import closed_form_truth

    spec = ArmaSpec(phi=(-0.5,))
    truth = closed_form_truth(spec, 0.95, 1)
    lrc = trivariate_long_run_cov_mc(
        spec, 0.95, 1, q_true=truth.q_true, f_at_q=truth.f_at_q, max_lag=40, n_per_rep=5000, n_reps=200, seed=8
    )
    assert lrc.sigma[0, 0] == pytest.approx(4.0, rel=0.08)


def test_mc_reports_truncation_tail_bound():
    # AR(1): true truncated mass sum_{i>L} 2|cov(i)| = (8/3) 0.5^(L+1) / 0.5
    from fclt_lab.truth import closed_form_truth

    spec = ArmaSpec(phi=(-0.5,))
    truth = closed_form_truth(spec, 0.9, 1)
    lrc = trivariate_long_run_cov_mc(
        spec, 0.9, 1, q_true=truth.q_true, f_at_q=truth.f_at_q, max_lag=10, n_per_rep=3000, n_reps=128, seed=3
    )
    exact = (8.0 / 3.0) * 0.5**11 / 0.5
    assert lrc.tail_bound == pytest.approx(exact, rel=0.7)  # order-of-magnitude estimate
    iid = trivariate_long_run_cov_mc(
        IidSpec(NORMAL), 0.5, 2, q_true=0.0, f_at_q=0.4, max_lag=20, n_per_rep=2000, n_reps=100, seed=5
    )
    assert iid.tail_bound == 0.0  # no dependence beyond the noise floor


def test_mc_reproducible_across_threads(monkeypatch):
    spec = AugGarchSpec(model="garch", omega=0.1, alpha=(0.1,), beta=(0.8,))
    monkeypatch.setattr(parallel, "CHUNK_BYTES", 2**18)  # 64 rows of 32 x 500 bytes: 4 chunks of 16
    kw = dict(q_true=0.0, f_at_q=0.4, max_lag=3, n_per_rep=500, n_reps=64, seed=17)
    a = trivariate_long_run_cov_mc(spec, 0.5, 2, threads=1, **kw)
    b = trivariate_long_run_cov_mc(spec, 0.5, 2, threads=4, **kw)
    assert np.array_equal(a.sigma, b.sigma)
    assert np.array_equal(a.mc_se, b.mc_se)


def test_mc_tail_bound_independent_of_chunks_and_threads(monkeypatch):
    spec = AugGarchSpec(model="garch", omega=0.1, alpha=(0.1,), beta=(0.8,))
    kw = dict(q_true=0.0, f_at_q=0.4, max_lag=30, n_per_rep=3000, n_reps=24, seed=19)
    runs = []
    # rows of 32 x 3000 bytes: 2, 5, 5 and 9 chunks
    for budget, threads in ((2**21, 1), (2**19, 1), (2**19, 2), (2**18, 2)):
        monkeypatch.setattr(parallel, "CHUNK_BYTES", budget)
        runs.append(trivariate_long_run_cov_mc(spec, 0.5, 2, threads=threads, **kw))
    assert runs[0].tail_bound is not None and runs[0].tail_bound > 0.0
    for run in runs[1:]:
        assert run.tail_bound == runs[0].tail_bound
        assert np.array_equal(run.rep_sigma, runs[0].rep_sigma)


def test_tail_bound_is_none_when_max_lag_exceeds_half_the_path():
    # AR(1) phi = -0.5 at n = 200, where the true tail is about 0.5^L: near n
    # the last lags average only n - L products per path, and the fit read
    # 0.101 at L = 190 and 0.425 at L = 199
    def bound(phi, max_lag):
        return trivariate_long_run_cov_mc(
            ArmaSpec(phi=(phi,)), 0.5, 1, q_true=0.0, f_at_q=0.4, max_lag=max_lag, n_per_rep=200, n_reps=8
        ).tail_bound

    assert bound(-0.5, 190) is None
    assert bound(-0.5, 199) is None
    assert bound(-0.5, 101) is None
    # at L <= n // 2 the fit stands as it was
    assert bound(-0.5, 100) == 0.0
    assert bound(-0.5, 50) == 0.0
    assert bound(-0.9, 50) == pytest.approx(0.04194824010988931, rel=1e-9)


@pytest.mark.parametrize("max_lag", [200, 201, 2_000_000])
def test_mc_refuses_max_lag_at_or_beyond_path_length(max_lag):
    # refused before any allocation sized by max_lag
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError, match="max_lag"):
            trivariate_long_run_cov_mc(
                ArmaSpec(phi=(-0.5,)), 0.5, 1, q_true=0.0, f_at_q=0.4, max_lag=max_lag, n_per_rep=200, n_reps=8
            )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


_MC_DIGEST_SCRIPT = """
import hashlib
from fclt_lab.asymptotics import trivariate_long_run_cov_mc
from fclt_lab.garch import AugGarchSpec
spec = AugGarchSpec(model="garch", omega=0.1, alpha=(0.1,), beta=(0.8,))
lrc = trivariate_long_run_cov_mc(spec, 0.5, 2, q_true=0.0, f_at_q=0.4, max_lag=5,
                                 n_per_rep=40_000, n_reps=4, seed=31)
h = hashlib.sha256()
for part in (lrc.sigma, lrc.mc_se, lrc.rep_sigma):
    h.update(part.tobytes())
h.update(repr(lrc.tail_bound).encode())
print(h.hexdigest())
"""


def test_mc_bytes_independent_of_blas_threads():
    # 3 x 3 x 40000 per product: large enough for OpenBLAS to split a gemm
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    digests = set()
    for blas in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        out = subprocess.run(
            [sys.executable, "-c", _MC_DIGEST_SCRIPT], env=env | blas, capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        digests.add(out.stdout.strip())
    assert len(digests) == 1 and len(digests.pop()) == 64  # one sha256 hex digest


# --- lag kernel ----------------------------------------------------------------------------


def _reference_long_run(series, max_lag):
    """Plain double loop over lags and component pairs with exact sums."""
    n = series.shape[-1]
    c = [series[a] - math.fsum(series[a]) / n for a in range(3)]
    lags = np.zeros((min(max_lag, n - 1) + 1, 3, 3))
    for i in range(lags.shape[0]):
        for a in range(3):
            for b in range(3):
                lags[i, a, b] = math.fsum(c[a][i:] * c[b][: n - i]) / n
    out = lags[0].copy()
    for i in range(1, lags.shape[0]):
        out += lags[i] + lags[i].T
    return out * (n / (n - 1.0)), lags


@pytest.fixture(scope="module")
def kernel_series():
    # two dependent paths of the three component series, n = 400
    spec = AugGarchSpec(model="garch", omega=0.1, alpha=(0.3,), beta=(0.6,))
    values = np.stack([simulate(spec, 400, seed=(41, rep)).values for rep in range(2)])
    return _component_series(values, 2, -0.3)


@pytest.mark.parametrize("max_lag", [0, 5, 399, 500])
@pytest.mark.parametrize("time_major", [False, True])
def test_lag_kernel_matches_double_loop(kernel_series, max_lag, time_major):
    series = kernel_series
    if time_major:  # (2, 3, n) view of a (n, 2, 3) block: strides (24, 8, 48)
        series = np.moveaxis(np.ascontiguousarray(np.moveaxis(series, -1, 0)), 0, -1)
        assert series.strides[-1] == 48
    lags = _tail_lags(min(max_lag, 399))  # clamped to n - 1
    lag_out = np.zeros((2, lags.size, 3, 3))
    out = _long_run_sum(series, max_lag, lag_out=lag_out)
    assert out.shape == (2, 3, 3)
    for row in range(2):
        ref, ref_lags = _reference_long_run(kernel_series[row], max_lag)
        # the relative error of a sum is bounded against the summed magnitudes
        # of its terms: at L = n - 1 the centred lags cancel to ~0
        scale = 2.0 * np.abs(ref_lags).sum(axis=0).max()
        np.testing.assert_allclose(out[row], ref, rtol=1e-12, atol=1e-12 * scale)
        # the row's covariances at the tail-fit lags, and no other lag
        np.testing.assert_allclose(lag_out[row], ref_lags[lags], rtol=1e-12, atol=1e-12 * np.abs(ref_lags).max())


def test_tail_lags_are_a_fixed_grid():
    assert _tail_lags(0).size == 0
    assert _tail_lags(16).tolist() == list(range(1, 17))
    assert _tail_lags(17).tolist() == [1, 2, 4, 8, 13, 14, 15, 16, 17]
    assert _tail_lags(50).tolist() == [1, 2, 4, 8, 16, 32, 46, 47, 48, 49, 50]
    for L in range(17, 3000, 97):
        lags = _tail_lags(L)
        assert np.all(np.diff(lags) > 0) and lags[-5:].tolist() == list(range(L - 4, L + 1))


@pytest.fixture(scope="module")
def long_series():
    # two GARCH paths of n = 2 * 10^4, component series of a 0.9 quantile
    spec = AugGarchSpec(model="garch", omega=0.1, alpha=(0.1,), beta=(0.8,))
    values = np.stack([simulate(spec, 20_000, seed=(43, rep)).values for rep in range(2)])
    return _component_series(values, 2, 1.3)


def _reference_window_sum(series, L):
    """sum_{|h| <= L} Gamma_hat(h) with exact sums: per lag for small L, and
    (sum_t c_t)(sum_t c_t)^T / n when the window covers every pair."""
    n = series.shape[-1]
    if L < n - 1:
        return _reference_long_run(series, L)[0]
    c = [series[a] - math.fsum(series[a]) / n for a in range(3)]
    total = np.array([math.fsum(c[a]) for a in range(3)])
    return np.outer(total, total) / n * (n / (n - 1.0))


@pytest.mark.parametrize("max_lag", [0, 1, 50, 19_999])
def test_windowed_sums_match_exact_sums_at_n_2e4(long_series, max_lag):
    n = long_series.shape[-1]
    time_major = np.moveaxis(np.ascontiguousarray(np.moveaxis(long_series, -1, 0)), 0, -1)
    lags = _tail_lags(max_lag)
    refs = [_reference_window_sum(long_series[row], max_lag) for row in range(2)]
    for series in (long_series, time_major):
        out = _long_run_sum(series, max_lag, lag_out=np.zeros((2, lags.size, 3, 3)))
        for row, ref in enumerate(refs):
            # |sum_{|s-t|<=L} c_s c_t^T| / n <= (2L + 1) sqrt(mean c_a^2 mean c_b^2)
            rms = np.sqrt(np.var(long_series[row], axis=-1))
            scale = (2 * max_lag + 1) * np.outer(rms, rms)
            assert np.abs(out[row] - ref).max() <= 2e-15 * scale.max()
            if max_lag < n - 1:  # at L = n - 1 the exact sum is ~0
                np.testing.assert_allclose(out[row], ref, rtol=1e-13)


def test_lag_kernel_peak_is_input_plus_one_block():
    series = np.random.default_rng(5).standard_normal((8, 3, 20_000))
    block = series.nbytes
    _long_run_sum(series, 50, lag_out=np.zeros((8, _tail_lags(50).size, 3, 3)))  # warm numpy's caches
    tracemalloc.start()
    try:
        _long_run_sum(series, 50, lag_out=np.zeros((8, _tail_lags(50).size, 3, 3)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= block


# --- remainder terms ---------------------------------------------------------------------


def test_bahadur_exact_cancellation():
    # q_hat = q_true and F_n(q_true) = p: remainder is exactly 0
    values = np.array([1.0, 2.0, 3.0, 4.0])
    assert bahadur_remainder(values, 0.5, 2.0, 0.4) == 0.0


def test_bahadur_single_point_formula():
    values = np.array([1.5])
    p, q, f = 0.4, 1.0, 0.25
    expected = 1.5 - q - (p - 0.0) / f  # F_1(1.0) = 0 since 1.5 > 1.0
    assert bahadur_remainder(values, p, q, f) == pytest.approx(expected)


def test_bahadur_remainder_shrinks_with_n():
    # the corrected-orientation remainder decays; the naive sum with the
    # opposite sign stays O(1), which is how the orientation is pinned down
    from fclt_lab.estimators import empirical_cdf, sample_quantile

    meds, meds_wrong = [], []
    for n in (500, 8000):
        vals_r, vals_w = [], []
        for rep in range(200):
            x = stream_generator(800, rep).standard_normal(n)
            q_hat = sample_quantile(x, 0.5)
            lin = (0.5 - empirical_cdf(x, 0.0)) / NORMAL.pdf(0.0)
            vals_r.append(abs(math.sqrt(n) * (q_hat - lin)))
            vals_w.append(abs(math.sqrt(n) * (q_hat + lin)))
        meds.append(np.median(vals_r))
        meds_wrong.append(np.median(vals_w))
    assert meds[1] < 0.75 * meds[0]  # decays like n^(-1/4)
    assert meds_wrong[1] > 0.75 * meds_wrong[0]  # opposite orientation does not decay


def test_representation_gap_zero_for_symmetric_sample():
    # mean equals mu exactly and r is even: both moment sums coincide
    values = np.array([-2.0, -1.0, 1.0, 2.0])
    assert representation_gap(values, 2, 0.0, 0.0) == 0.0


def test_representation_gap_r2_algebraic_identity():
    # for r = 2 the gap is exactly -sqrt(n) (mean - mu)^2
    rng = stream_generator(5)
    for _ in range(20):
        values = rng.standard_normal(64) * 1.7 + 0.3
        mu = 0.1
        gap = representation_gap(values, 2, mu, 0.0)
        mean = values.mean()
        direct = -math.sqrt(64) * (np.longdouble(mean) - mu) ** 2
        assert gap == pytest.approx(float(direct), rel=1e-9, abs=1e-12)


def test_remainders_translation_consistent():
    rng = stream_generator(6)
    values = rng.standard_normal(128)
    c = 3.7
    r1 = bahadur_remainder(values, 0.3, -0.5, 0.35)
    r2 = bahadur_remainder(values + c, 0.3, -0.5 + c, 0.35)
    assert r2 == pytest.approx(r1, abs=1e-12)
    g1 = representation_gap(values, 2, 0.0, 0.0)
    g2 = representation_gap(values + c, 2, c, 0.0)
    assert g2 == pytest.approx(g1, rel=1e-6, abs=1e-9)


# --- kernel density at a point ------------------------------------------------------


def test_quartiles_match_numpy_percentile_bit_for_bit():
    rng = np.random.default_rng(12)
    for n in [1, 2, 3, *range(4, 200), 999, 1000, 1001, 10**5 + 3, 10**6]:
        for x in (rng.standard_normal(n), rng.integers(-3, 4, n).astype(float)):  # with ties too
            kept = x.copy()
            got = np.array(_quartiles(x))
            assert np.array_equal(got.view(np.int64), np.percentile(x, [75.0, 25.0]).view(np.int64)), n
            assert np.array_equal(x, kept)  # the partitions work on a copy


def test_kde_matches_the_textbook_expression_bit_for_bit():
    v = InnovationDist("student_t", dof=5.0).sample(stream_generator(3), 100_001)
    for x in (-3.0, -0.25, 0.0, 0.7, 12.0):
        for h in (None, 0.05, 1.3):
            bw = silverman_bandwidth(v) if h is None else h
            z = (x - v) / bw
            expected = float(np.exp(-0.5 * z * z).sum() / (v.shape[0] * bw * math.sqrt(2.0 * math.pi)))
            assert gaussian_kde_at(v, x, h) == expected


def test_kde_peak_memory_is_one_sample():
    import tracemalloc

    v = InnovationDist("student_t", dof=5.0).sample(stream_generator(4), 2 * 10**6)  # 15 MiB
    x = float(np.median(v))
    tracemalloc.start()
    try:
        gaussian_kde_at(v, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * v.nbytes, peak / v.nbytes  # one n-sized temporary (the textbook form holds 3)
