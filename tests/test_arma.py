import numpy as np
import pytest
from scipy.signal import lfilter, lfiltic

from fclt_lab.arma import ArmaSpec, arma_values_from_innovations, causal_ma_coefficients
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


# --- the filter against scipy's IIR filter, the test-only oracle ------------------

FILTER_SPECS = {
    "ar1": ArmaSpec(phi=(-0.5,)),
    "ar2": ArmaSpec(phi=(-0.5, 0.2)),
    "ma1": ArmaSpec(theta=(0.4,)),
    "ma3": ArmaSpec(theta=(0.3, -0.2, 0.1)),
    "arma11": ArmaSpec(phi=(-0.5,), theta=(0.3,)),
    "arma21": ArmaSpec(phi=(-0.5, 0.2), theta=(0.3,)),
    "arma12": ArmaSpec(phi=(-0.5,), theta=(0.3, 0.2)),
    "ar1_near_unit": ArmaSpec(phi=(-0.999,)),
}
# one block of at most BLOCK steps, and many over one tile or several (1 row: 2048 blocks per tile);
# (8193, 11) and (2049, 65) cross a row block (8192 rows of 16 steps, 2048 rows of 64) without and with a scan
FILTER_SHAPES = [
    (500,), (1, 500), (3, 4, 60), (8, 300), (9, 300), (8192, 11), (8193, 11), (2049, 65), (1, 300_000), (3, 100_000)
]
BLOCK = 64  # steps per block of the filter
FILTER_RTOL = 1e-13  # the bound of the scanned blocks, relative to max |y|


def _oracle(spec: ArmaSpec, eps, state):
    """lfilter's values from the (..., q + p) state, which lfiltic turns into
    its delay line, and the final state in the filter's layout."""
    delays, q = max(spec.p, spec.q, 1), spec.q
    b = np.r_[1.0, spec.theta, np.zeros(delays - spec.q)]
    a = np.r_[1.0, spec.phi, np.zeros(delays - spec.p)]
    rows = state.reshape(-1, state.shape[-1])
    zi = np.reshape([lfiltic(b, a, row[q:][::-1], row[:q][::-1]) for row in rows], state.shape[:-1] + (delays,))
    values = lfilter(b, a, eps, axis=-1, zi=zi)[0]
    lags = np.concatenate([state[..., :q], eps], axis=-1)
    past = np.concatenate([state[..., q:], values], axis=-1)
    final = np.concatenate([lags[..., lags.shape[-1] - q :], past[..., past.shape[-1] - spec.p :]], axis=-1)
    return values, final


def _same_bits(x, y):
    return x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))


@pytest.mark.parametrize("shape", FILTER_SHAPES, ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("name", FILTER_SPECS)
def test_filter_matches_lfilter_bit_for_bit(name, shape):
    spec = FILTER_SPECS[name]
    rng = np.random.default_rng(len(shape) * 1000 + shape[-1])
    eps = rng.standard_normal(shape)
    state = rng.standard_normal(shape[:-1] + (spec.q + spec.p,))  # nonzero: the start state matters
    values, final = arma_values_from_innovations(spec, eps, state)
    want_values, want_final = _oracle(spec, eps, state)
    if shape[-1] <= BLOCK and spec.p == 1 and spec.q == 0:  # one AR(1) block runs in lfilter's order
        assert _same_bits(values, want_values)
        assert _same_bits(final, want_final)
    else:  # u = Theta(L) x first, and later blocks run from zero and are corrected
        bound = FILTER_RTOL * np.abs(want_values).max()
        assert values.shape == want_values.shape and np.abs(values - want_values).max() <= bound
        assert final.shape == want_final.shape and np.abs(final - want_final).max() <= bound


def test_seventy_lags_rows_equal_narrower_batches():
    # blocks are max(BLOCK, max(p, q)) steps, and the tiles hold whole blocks: 1100 rows run tiles
    # of one 70-step block, one row a single tile, and a 64-step unit would cut blocks at other steps
    spec = ArmaSpec(phi=(-0.5,), theta=(0.3 / 70,) * 70)
    rng = np.random.default_rng(7)
    eps, state = rng.standard_normal((1100, 150)), rng.standard_normal((1100, 71))
    values, final = arma_values_from_innovations(spec, eps, state)
    parts = [arma_values_from_innovations(spec, eps[rows], state[rows]) for rows in np.split(np.arange(1100), [1, 300])]
    assert _same_bits(values, np.concatenate([v for v, _ in parts]))
    assert _same_bits(final, np.concatenate([f for _, f in parts]))


@pytest.mark.parametrize("rows", [1, 9])
def test_filter_single_steps_carry_both_delays(rows):
    # T = 1 with three lags: the state alone carries the path, step after step
    spec = FILTER_SPECS["arma21"]
    rng = np.random.default_rng(5)
    eps = rng.standard_normal((rows, 40))
    state = rng.standard_normal((rows, 3))
    want_values, want_final = arma_values_from_innovations(spec, eps, state)
    steps = []
    for t in range(eps.shape[1]):
        value, state = arma_values_from_innovations(spec, eps[:, t : t + 1], state)
        steps.append(value)
    assert _same_bits(np.concatenate(steps, axis=1), want_values)
    assert _same_bits(state, want_final)


def test_filter_peak_memory_is_output_plus_a_few_mib():
    # the shape of a 10^7-draw ARMA-GARCH pilot: 64 rows of 156 251 steps
    import tracemalloc

    spec = FILTER_SPECS["arma11"]
    eps = np.random.default_rng(6).standard_normal((64, 156_251))
    state = np.zeros((64, 2))
    tracemalloc.start()
    try:
        values, _ = arma_values_from_innovations(spec, eps, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= values.nbytes + 4 * 2**20, (peak - values.nbytes) / 2**20


# --- the output written over its own innovations -----------------------------------

OVERWRITE_SPECS = {
    "ar1": FILTER_SPECS["ar1"],
    "ma3": FILTER_SPECS["ma3"],
    "arma22": ArmaSpec(phi=(-0.5, 0.2), theta=(0.3, 0.2)),
    "arma11_garch": ArmaSpec(
        phi=(-0.5,), theta=(0.3,), innovation=AugGarchSpec(model="garch", omega=0.1, alpha=(0.1,), beta=(0.8,))
    ),
}
# one tile, in a flat row and in a (3, 4) batch; 128 rows over three tiles of 1024 steps; two row blocks
# whose second tile is one step, shorter than the three carried innovations of MA(3); one row over
# three tiles of 131 072 steps
OVERWRITE_SHAPES = [(300,), (3, 4, 500), (128, 2 * 1024 + 3), (2049, 65), (1, 300_000)]


@pytest.mark.parametrize("shape", OVERWRITE_SHAPES, ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("name", OVERWRITE_SPECS)
@pytest.mark.parametrize("given_state", [False, True], ids=["zero", "state"])
def test_overwrite_input_matches_the_copying_call(name, shape, given_state):
    spec = OVERWRITE_SPECS[name]
    rng = np.random.default_rng(len(name) * 1000 + shape[-1])
    if isinstance(spec.innovation, AugGarchSpec):  # through values_from_innovations, over the GARCH pre-window
        garch = spec.innovation
        m = garch.pre_window
        eps = rng.standard_normal(shape[:-1] + (m + shape[-1],))
        states = garch.state_fixed_point() * rng.uniform(0.5, 1.5, shape[:-1] + (m,))
        state = np.concatenate([states, rng.standard_normal(shape[:-1] + (spec.q + spec.p,))], axis=-1)
        state = state if given_state else None
        want, want_state = values_from_innovations(spec, eps, state=state, final_state=True)
        work = eps.copy()
        got, got_state = values_from_innovations(spec, work, state=state, final_state=True, overwrite_input=True)
        assert np.shares_memory(got, work) and np.array_equal(got, work[..., : shape[-1]])
        assert _same_bits(work[..., shape[-1] :], eps[..., shape[-1] :])  # the last m innovations stay
    else:
        eps = rng.standard_normal(shape)
        size = shape[:-1] + (spec.q + spec.p,)
        state = rng.standard_normal(size) if given_state else np.zeros(size)
        want, want_state = arma_values_from_innovations(spec, eps, state)
        work = eps.copy()
        got, got_state = arma_values_from_innovations(spec, work, state, overwrite_input=True)
        assert np.shares_memory(got, work) and _same_bits(got, work)
    assert _same_bits(got, want) and _same_bits(got_state, want_state)
    # the copying call leaves its innovations alone
    again = eps.copy()
    values_from_innovations(spec, again, state=state)
    assert _same_bits(again, eps)
