import numpy as np
import pytest
from scipy.signal import lfilter

from fclt_lab.arma import ArmaSpec, causal_ma_coefficients
from fclt_lab.conditions import approve
from fclt_lab.errors import NonCausalError, ParameterError
from fclt_lab.garch import AugGarchSpec
from fclt_lab.innovations import InnovationDist
from fclt_lab.processes import simulate, values_from_innovations
from fclt_lab.rng import stream_generator

NORMAL = InnovationDist()


def test_degenerate_ar_returns_innovations():
    spec = ArmaSpec(phi=(0.0,))
    burn = 30
    path = simulate(spec, 100, burn_in=burn, seed=19)
    eps = NORMAL.sample(stream_generator(19), burn + 100)
    assert np.array_equal(path.values, eps[burn:])


def test_ar1_lag_one_autocorrelation():
    # paper convention Phi(z) = 1 + phi z with phi = -0.5: rho(1) = 0.5
    spec = ArmaSpec(phi=(-0.5,))
    x = simulate(spec, 10**6, seed=4).values
    rho = np.corrcoef(x[1:], x[:-1])[0, 1]
    assert rho == pytest.approx(0.5, abs=0.01)


def test_arma_garch_is_stable():
    # admissible ARMA(1,1)-GARCH(1,1): stationarity condition checked first
    inner = AugGarchSpec(model="garch", omega=0.1, alpha=(0.1,), beta=(0.8,))
    spec = ArmaSpec(phi=(-0.5,), theta=(0.3,), innovation=inner)
    ok, reports = approve(spec, 1)
    assert ok, reports
    x = simulate(spec, 10**6, seed=6).values
    assert np.isfinite(x).all()
    assert 0.5 < x.var() < 10.0


def test_ma_coefficients_ar1():
    psi = causal_ma_coefficients(ArmaSpec(phi=(-0.5,)), 12)
    assert np.allclose(psi, 0.5 ** np.arange(13), atol=0, rtol=0)


def test_ma_coefficients_finite_ma():
    psi = causal_ma_coefficients(ArmaSpec(theta=(0.3,)), 6)
    assert psi[0] == 1.0 and psi[1] == 0.3
    assert np.all(psi[2:] == 0.0)


def test_ma_coefficients_match_impulse_response_oracle():
    # independent series-division oracle: the filter's impulse response
    spec = ArmaSpec(phi=(-0.5,), theta=(0.3,))
    K = 20
    psi = causal_ma_coefficients(spec, K)
    impulse = np.zeros(K + 1)
    impulse[0] = 1.0
    oracle = lfilter(np.r_[1.0, spec.theta], np.r_[1.0, spec.phi], impulse)
    assert np.allclose(psi, oracle, atol=1e-12, rtol=0)


def test_non_causal_spec_rejected_with_modulus():
    spec = ArmaSpec(phi=(-1.0,))  # unit root
    with pytest.raises(NonCausalError) as err:
        simulate(spec, 100, seed=1)
    assert err.value.min_root_modulus == pytest.approx(1.0)
    with pytest.raises(NonCausalError):
        causal_ma_coefficients(spec, 5)


def test_common_root_rejected():
    with pytest.raises(ParameterError, match="root"):
        ArmaSpec(phi=(0.3,), theta=(0.3,))


def test_ma_truncation_reconstruction():
    # X_t agrees with the K-truncated MA reconstruction within
    # sum_{j>K} |psi_j| E|eps| in L1 (plus MC slack)
    spec = ArmaSpec(phi=(-0.5,), theta=(0.3,))
    K = 50
    burn = 200
    n = 20_000
    eps = NORMAL.sample(stream_generator(44), burn + n)
    x = values_from_innovations(spec, eps)[burn:]
    psi = causal_ma_coefficients(spec, K)
    recon = lfilter(psi, [1.0], eps)[burn:]
    tail_bound = 0.3 * 2 * 0.5**K / 0.5 * NORMAL.abs_mean()  # |psi_j| <= 1.3 * 0.5^(j-1)
    assert np.abs(x - recon).mean() <= tail_bound + 1e-12


def test_arma_garch_requires_garch_model_innovation():
    egarch = AugGarchSpec(model="egarch", p=1, q=1, omega=0.0, alpha=(0.1,), beta=(0.5,), gamma=(0.0,))
    with pytest.raises(ParameterError):
        ArmaSpec(phi=(-0.5,), innovation=egarch)
