import numpy as np
import pytest

from fclt_lab.errors import DivergenceError, ParameterError
from fclt_lab.garch import AugGarchSpec, default_burn_in, garch_values_from_innovations
from fclt_lab.innovations import InnovationDist
from fclt_lab.processes import simulate
from fclt_lab.rng import stream_generator

NORMAL = InnovationDist()


def test_arch_with_zero_alpha_returns_innovations():
    # sigma_t^2 collapses to omega = 1, so X_t = eps_t bit-exactly
    spec = AugGarchSpec(model="arch", p=1, q=0, omega=1.0, alpha=(0.0,))
    burn = 50
    path = simulate(spec, 200, burn_in=burn, seed=13)
    eps = NORMAL.sample(stream_generator(13), spec.pre_window + burn + 200)
    assert np.array_equal(path.values, eps[spec.pre_window + burn :])


def test_garch11_unconditional_variance():
    # closed form omega / (1 - alpha - beta) = 1.0; MC tolerance
    spec = AugGarchSpec(model="garch", omega=0.1, alpha=(0.1,), beta=(0.8,))
    path = simulate(spec, 10**6, seed=2)
    assert path.values.var() == pytest.approx(1.0, abs=0.05)


def test_egarch_degenerate_returns_innovations():
    # omega = alpha = gamma = beta = 0: log sigma^2 = 0, X_t = eps_t
    spec = AugGarchSpec(model="egarch", p=1, q=1, omega=0.0, alpha=(0.0,), beta=(0.0,), gamma=(0.0,))
    burn = 20
    path = simulate(spec, 100, burn_in=burn, seed=5)
    eps = NORMAL.sample(stream_generator(5), spec.pre_window + burn + 100)
    assert np.array_equal(path.values, eps[spec.pre_window + burn :])


def test_model_nesting_identical_paths():
    # GJR with gamma* = 0, plain GARCH, and APGARCH with delta = 1, gamma = 0
    # produce identical paths under a shared seed and matched parameters
    kw = dict(p=1, q=1, omega=0.1, innovation=NORMAL)
    garch = AugGarchSpec(model="garch", alpha=(0.12,), beta=(0.75,), **kw)
    gjr = AugGarchSpec(model="gjr", alpha=(0.12,), beta=(0.75,), gamma=(0.0,), **kw)
    apg = AugGarchSpec(model="apgarch", alpha=(0.12,), beta=(0.75,), gamma=(0.0,), delta=1.0, **kw)
    paths = [simulate(s, 400, burn_in=200, seed=31).values for s in (garch, gjr, apg)]
    assert np.array_equal(paths[0], paths[1])
    assert np.array_equal(paths[0], paths[2])


def test_tgarch_matches_apgarch_half_delta():
    kw = dict(p=1, q=1, omega=0.1, alpha=(0.1,), beta=(0.6,), gamma=(0.3,), innovation=NORMAL)
    tg = AugGarchSpec(model="tgarch", **kw)
    ap = AugGarchSpec(model="apgarch", delta=0.5, **kw)
    a = simulate(tg, 300, burn_in=100, seed=8).values
    b = simulate(ap, 300, burn_in=100, seed=8).values
    assert np.array_equal(a, b)


def test_divergence_error_names_first_step():
    spec = AugGarchSpec(model="garch", omega=0.1, alpha=(2.0,), beta=(1.5,))
    with pytest.raises(DivergenceError) as err:
        simulate(spec, 5000, burn_in=0, seed=1)
    assert err.value.step >= 1


def test_non_strict_batch_marks_divergent_rows_nan():
    from fclt_lab.processes import simulate_batch

    spec = AugGarchSpec(model="garch", omega=0.1, alpha=(2.0,), beta=(1.5,))
    values = simulate_batch(spec, 2000, 0, 1, range(4))  # state overflows near step 570
    assert np.isnan(values).all()  # every replication of an explosive spec diverges
    assert values.shape == (4, 2000)


def test_batch_rows_match_single_runs():
    spec = AugGarchSpec(model="garch", omega=0.1, alpha=(0.1,), beta=(0.8,))
    T = spec.pre_window + 150
    eps = np.stack([NORMAL.sample(stream_generator(40, r), T) for r in range(3)])
    batch = garch_values_from_innovations(spec, eps)
    for r in range(3):
        single = garch_values_from_innovations(spec, eps[r])
        assert np.array_equal(batch[r], single)


def test_parameter_validation():
    with pytest.raises(ParameterError):
        AugGarchSpec(model="garch", omega=0.0, alpha=(0.1,), beta=(0.8,))
    with pytest.raises(ParameterError):
        AugGarchSpec(model="garch", omega=0.1, alpha=(-0.1,), beta=(0.8,))
    with pytest.raises(ParameterError):
        AugGarchSpec(model="agarch", omega=0.1, alpha=(0.1,), beta=(0.8,), gamma=(1.5,))
    with pytest.raises(ParameterError):
        AugGarchSpec(model="apgarch", omega=0.1, alpha=(0.1,), beta=(0.8,), delta=-1.0)
    with pytest.raises(ParameterError):
        AugGarchSpec(model="arch", p=1, q=1, omega=0.1, alpha=(0.1,), beta=(0.5,))
    with pytest.raises(ParameterError):
        AugGarchSpec(model="ewma")


def test_generic_model_runs_the_stated_recursion():
    # generic transforms reproducing GARCH(1,1) match the named model
    named = AugGarchSpec(model="garch", omega=0.2, alpha=(0.15,), beta=(0.7,))
    generic = AugGarchSpec(
        model="generic",
        g_funcs=(lambda e: np.full(np.shape(e), 0.2),),
        c_funcs=(lambda e: 0.15 * (e * e) + 0.7,),
        lam=("power", 1.0),
    )
    T = 1 + 120
    eps = NORMAL.sample(stream_generator(77), T)
    assert np.array_equal(
        garch_values_from_innovations(named, eps),
        garch_values_from_innovations(generic, eps),
    )


def test_default_burn_in_rule():
    assert default_burn_in(AugGarchSpec(model="garch", omega=0.1, alpha=(0.1,), beta=(0.8,))) == 1000
    spec = AugGarchSpec(model="garch", p=40, q=40, omega=0.1, alpha=(0.01,) * 40, beta=(0.01,) * 40)
    assert default_burn_in(spec) == 1600


def test_vgarch_state_independent_of_volatility_feedback():
    # c_j = beta_j constant: with beta = 0 the state is exogenous in eps
    spec = AugGarchSpec(model="vgarch", p=1, q=0, omega=0.1, alpha=(0.2,), gamma=(0.5,))
    path = simulate(spec, 2000, burn_in=10, seed=3)
    assert np.isfinite(path.values).all()
    # Var(X) = E[sigma^2] = omega + alpha E[(eps+gamma)^2] = 0.1 + 0.2*1.25
    assert path.values.var() == pytest.approx(0.35, abs=0.05)
