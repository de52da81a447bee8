import gc
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from fclt_lab import parallel, scan
from fclt_lab.arma import ArmaSpec, arma_values_from_innovations
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


# --- the time-tiled kernel against a plain per-step reference -------------------

BLOCK = 64  # steps per block of the scan


def _reference_values(spec, eps, strict=True, blocks=True):
    """The recursion written out step by step over the whole (..., T) block.

    A scalar state (m = 1) follows the block order of the scan: the output steps
    fall into blocks of BLOCK. Block 0 runs on from the start state. A later
    block runs its local recursion from 0 and the product P of its C, and its
    state is local + P * S, with S the state before the block. With
    ``blocks=False``, or for m > 1, every step runs in sequential order.
    """
    eps = np.asarray(eps, dtype=np.float64)
    m, T = spec.pre_window, eps.shape[-1]
    e = np.moveaxis(eps, -1, 0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        g = [np.broadcast_to(gi(e), e.shape) for gi in spec.g_transforms()]
        c = [np.broadcast_to(cj(e), e.shape) for cj in spec.c_transforms()]
        lam = np.full(e.shape, spec.state_fixed_point())
        scan = blocks and m == 1 and len(c) == 1
        for t in range(m, T):
            acc = np.zeros(e.shape[1:])
            for i, gi in enumerate(g, start=1):
                acc = acc + gi[t - i]
            if scan and t - m >= BLOCK:
                if (t - m) % BLOCK == 0:  # a new block: S, and local and P from their neutral values
                    S, local, P = lam[t - 1], np.zeros(e.shape[1:]), np.ones(e.shape[1:])
                local = acc + c[0][t - 1] * local
                P = c[0][t - 1] * P
                lam[t] = local + P * S
                continue
            for j, cj in enumerate(c, start=1):
                acc = acc + cj[t - j] * lam[t - j]
            lam[t] = acc
        body = lam[m:]
        if spec.is_exponential:
            bad = ~np.isfinite(body)
            sigma = np.exp(0.5 * body)
        else:
            bad = ~np.isfinite(body) | (body <= 0.0)
            d = spec.lam_exponent
            sigma = np.sqrt(body) if d == 1.0 else body.copy() if d == 0.5 else np.power(body, 0.5 / d)
        if strict and bad.any():
            raise DivergenceError(m + int(np.argwhere(bad.reshape(T - m, -1).any(axis=1))[0, 0]))
        values = np.moveaxis(sigma * e[m:], 0, -1)
        values[np.moveaxis(bad, 0, -1).any(axis=-1)] = np.nan
    return values


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


KERNEL_SPECS = {
    "garch": AugGarchSpec(model="garch", omega=0.1, alpha=(0.1,), beta=(0.8,)),
    "garch22": AugGarchSpec(model="garch", p=2, q=2, omega=0.1, alpha=(0.05, 0.04), beta=(0.5, 0.3)),
    "arch3": AugGarchSpec(model="arch", p=3, q=0, omega=0.2, alpha=(0.2, 0.1, 0.1)),
    "egarch": AugGarchSpec(model="egarch", omega=0.05, alpha=(0.1,), beta=(0.9,), gamma=(-0.3,)),
    "mgarch": AugGarchSpec(model="mgarch", omega=0.05, alpha=(0.05,), beta=(0.8,)),
    "pgarch": AugGarchSpec(model="pgarch", omega=0.1, alpha=(0.1,), beta=(0.7,), delta=1.5),
    "tgarch": AugGarchSpec(model="tgarch", omega=0.1, alpha=(0.1,), beta=(0.6,), gamma=(0.3,)),
    "vgarch_q0": AugGarchSpec(model="vgarch", p=1, q=0, omega=0.1, alpha=(0.2,), gamma=(0.5,)),
    "egarch21": AugGarchSpec(  # one c transform under two lags
        model="egarch", p=2, q=1, omega=0.05, alpha=(0.1, 0.05), beta=(0.9,), gamma=(-0.3, 0.1)
    ),
    "garch22_0999": AugGarchSpec(model="garch", p=2, q=2, omega=0.001, alpha=(0.05, 0.049), beta=(0.5, 0.4)),
}

# 128 rows give tiles of 2**20 // (8 * 128) = 1024 steps (about 1 MiB of state)
TILE_128 = 1024


@pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
@pytest.mark.parametrize(
    "batch, steps",
    [
        ((5,), 1), ((128,), TILE_128 - 1), ((128,), TILE_128), ((128,), TILE_128 + 1),
        ((3, 4), 2 * TILE_128 + 3), ((), 300),
        ((7,), BLOCK), ((7,), BLOCK + 1),  # the sequential bits up to one scan block
    ],
)
def test_kernel_matches_reference_bit_for_bit(name, batch, steps):
    spec = KERNEL_SPECS[name]
    eps = np.random.default_rng(len(name) + steps).standard_normal(batch + (spec.pre_window + steps,))
    if spec.pre_window == 1:
        assert _same_bits(garch_values_from_innovations(spec, eps), _reference_values(spec, eps))
    else:  # more than one lag: the scan's block order moves the last bits of the sequential order
        _assert_near(garch_values_from_innovations(spec, eps), _reference_values(spec, eps, blocks=False))


def _with_blowups(spec, rows, steps, hits):
    """Innovations in which row r overflows the state at step t for each (r, t) in hits."""
    eps = np.random.default_rng(3).standard_normal((rows, spec.pre_window + steps))
    for r, t in hits:
        eps[r, t - 1] = 1e300  # c_1(eps_{t-1}) = inf drives state_t to inf
    return eps


@pytest.mark.parametrize("name", ["garch", "garch22", "arch3", "pgarch"])
def test_kernel_non_strict_nan_rows_match_reference(name):
    spec = KERNEL_SPECS[name]
    eps = _with_blowups(spec, 128, 2 * TILE_128 + 7, [(7, 1500), (3, 1800), (100, 40)])
    got = garch_values_from_innovations(spec, eps, strict=False)
    if spec.pre_window == 1:
        assert _same_bits(got, _reference_values(spec, eps, strict=False))
    else:
        _assert_near(got, _reference_values(spec, eps, strict=False, blocks=False))
    assert np.flatnonzero(np.isnan(got).any(axis=1)).tolist() == [3, 7, 100]


@pytest.mark.parametrize("name", ["garch", "garch22", "arch3", "pgarch"])
def test_kernel_strict_raises_at_the_reference_step(name):
    spec = KERNEL_SPECS[name]
    eps = _with_blowups(spec, 128, 2 * TILE_128 + 7, [(7, 1500), (3, 1800)])  # first bad step in tile 2
    with pytest.raises(DivergenceError) as ref:
        _reference_values(spec, eps)
    with pytest.raises(DivergenceError) as got:
        garch_values_from_innovations(spec, eps)
    assert got.value.step == ref.value.step == 1500


def test_kernel_explosive_spec_matches_reference():
    spec = AugGarchSpec(model="garch", omega=0.1, alpha=(2.0,), beta=(1.5,))
    eps = np.random.default_rng(9).standard_normal((6, 1 + 900))
    assert _same_bits(
        garch_values_from_innovations(spec, eps, strict=False), _reference_values(spec, eps, strict=False)
    )
    with pytest.raises(DivergenceError) as ref:
        _reference_values(spec, eps)
    with pytest.raises(DivergenceError) as got:
        garch_values_from_innovations(spec, eps)
    assert got.value.step == ref.value.step


def test_kernel_peak_memory_is_output_plus_a_tile():
    import tracemalloc

    spec = KERNEL_SPECS["garch"]
    eps = np.random.default_rng(0).standard_normal((128, 10**5))
    tracemalloc.start()
    try:
        values = garch_values_from_innovations(spec, eps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * values.nbytes + 4 * 2**20


# scan.tiles runs row blocks of 2^20 // (8 * unit) rows with unit = max(16, min(n, 64)): 3276 rows for
# these 40 steps; 65,536 rows span 21 of them, and row 60,000 lies in a later one
WIDE_ROWS, WIDE_STEPS = 65_536, 40


def test_wide_batch_peak_memory_is_output_plus_a_few_mib():
    import tracemalloc

    spec = KERNEL_SPECS["garch"]
    eps = np.random.default_rng(0).standard_normal((WIDE_ROWS, spec.pre_window + WIDE_STEPS))
    tracemalloc.start()
    try:
        values = garch_values_from_innovations(spec, eps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= values.nbytes + 8 * 2**20, (peak - values.nbytes) / 2**20  # 55.6 MiB in one block


@pytest.mark.parametrize("name", ["garch", "garch22", "pgarch"])
def test_wide_batch_rows_equal_narrower_batches(name):
    spec = KERNEL_SPECS[name]
    m = spec.pre_window
    eps = _with_blowups(spec, WIDE_ROWS, WIDE_STEPS, [(100, 30), (60_000, 12)])
    state = spec.state_fixed_point() * np.random.default_rng(1).uniform(0.5, 1.5, (WIDE_ROWS, m))
    got, got_state = garch_values_from_innovations(spec, eps, strict=False, state=state, final_state=True)
    parts = [
        garch_values_from_innovations(spec, eps[rows], strict=False, state=state[rows], final_state=True)
        for rows in np.array_split(np.arange(WIDE_ROWS), 23)  # 2850 rows each, blocks not aligned
    ]
    assert _same_bits(got, np.concatenate([v for v, _ in parts]))
    assert _same_bits(got_state, np.concatenate([s for _, s in parts]))
    assert np.flatnonzero(np.isnan(got).any(axis=1)).tolist() == [100, 60_000]
    with pytest.raises(DivergenceError) as err:  # the first bad step lies in a later row block
        garch_values_from_innovations(spec, eps)
    assert err.value.step == 12


# --- the block scan of a scalar state against the sequential recursion -----------

# X from the scan agrees with the sequential order to SCAN_RTOL relative, about 450
# times the double epsilon. Measured: at most 1.1e-14 at alpha + beta = 0.999 and
# 1e-15 on the other cases below; a wrong block start would be off by O(1).
SCAN_RTOL = 1e-13


def _assert_near(got, want):
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)  # the same NaN rows
    dev = np.abs(got - want)[~nan]
    assert np.all(dev <= SCAN_RTOL * np.abs(want[~nan])), np.max(dev / np.abs(want[~nan]))


def _accuracy_spec(name):
    if name == "t3":
        with pytest.warns(UserWarning):  # dof <= 4: no fourth moment, as intended here
            law = InnovationDist("student_t", 3.0)
        return AugGarchSpec(model="garch", omega=0.1, alpha=(0.1,), beta=(0.8,), innovation=law)
    return {
        "arch1_zeros": AugGarchSpec(model="arch", p=1, q=0, omega=0.2, alpha=(0.5,)),
        "egarch": KERNEL_SPECS["egarch"],  # G of mixed sign
        "persistence_0999": AugGarchSpec(model="garch", omega=0.001, alpha=(0.1,), beta=(0.899,)),
    }[name]


@pytest.mark.parametrize("name", ["arch1_zeros", "t3", "egarch", "persistence_0999"])
def test_scan_matches_the_sequential_recursion_within_the_bound(name):
    spec = _accuracy_spec(name)
    rng = stream_generator((7, len(name)))
    eps = spec.innovation.sample(rng, (16, 1 + 5000))
    if name == "arch1_zeros":  # C = 0 there, so P is 0 for the rest of the block
        eps[rng.random(eps.shape) < 0.1] = 0.0
    _assert_near(garch_values_from_innovations(spec, eps), _reference_values(spec, eps, blocks=False))


def test_scan_of_one_long_path_matches_the_sequential_recursion():
    spec = _accuracy_spec("persistence_0999")
    eps = NORMAL.sample(stream_generator(31), 1 + 10**6)
    (g,), (c,) = spec.g_transforms(), spec.c_transforms()
    lam, states = spec.state_fixed_point(), []
    gs = np.broadcast_to(g(eps[:-1]), eps[:-1].shape)  # a constant g is a number
    for g_t, c_t in zip(gs.tolist(), c(eps[:-1]).tolist()):  # sequential, in Python floats
        lam = g_t + c_t * lam
        states.append(lam)
    _assert_near(garch_values_from_innovations(spec, eps), np.sqrt(states) * eps[1:])


def test_one_long_path_of_two_lags_matches_the_sequential_recursion():
    # a single path is a block of one: two lags run the block scan as well
    spec = KERNEL_SPECS["garch22_0999"]
    eps = NORMAL.sample(stream_generator(32), 2 + 10**5)
    got, state = garch_values_from_innovations(spec, eps, final_state=True)
    want = _reference_values(spec, eps, blocks=False)
    _assert_near(got, want)
    assert np.all(np.abs(state - (want[-2:] / eps[-2:]) ** 2) <= 1e-12 * state)  # sigma^2 at the last two steps


# 150 rows give tiles of 2**20 // (8 * 64 * 150) = 13 blocks (832 steps), 37 rows 55 blocks
NARROW_ROWS, NARROW_STEPS = 150, 9000


@pytest.mark.parametrize("name", ["garch", "pgarch"])
def test_scan_rows_equal_narrower_batches_over_several_tiles(name):
    spec = KERNEL_SPECS[name]
    eps = _with_blowups(spec, NARROW_ROWS, NARROW_STEPS, [(100, 5000), (20, 7777)])
    state = spec.state_fixed_point() * np.random.default_rng(2).uniform(0.5, 1.5, (NARROW_ROWS, 1))
    got, got_state = garch_values_from_innovations(spec, eps, strict=False, state=state, final_state=True)
    parts = [
        garch_values_from_innovations(spec, eps[rows], strict=False, state=state[rows], final_state=True)
        for rows in np.split(np.arange(NARROW_ROWS), [1, 38, 75, 113])  # 1, 37, 37, 38 and 37 rows
    ]
    assert _same_bits(got, np.concatenate([v for v, _ in parts]))
    assert _same_bits(got_state, np.concatenate([s for _, s in parts]))
    assert np.flatnonzero(np.isnan(got).any(axis=1)).tolist() == [20, 100]
    for rows in (slice(None), slice(75, 113)):  # the first bad step lies in a later tile at either width
        with pytest.raises(DivergenceError) as err:
            garch_values_from_innovations(spec, eps[rows])
        assert err.value.step == 5000


# blocks are max(BLOCK, m) steps, and the tiles hold whole blocks: 1100 rows of 70 lags run tiles
# of one 70-step block, one row a single tile, and a 64-step unit would cut blocks at other steps
def test_seventy_lags_rows_equal_narrower_batches():
    spec = AugGarchSpec(
        model="egarch", p=70, q=1, omega=0.05, alpha=(0.1 / 70,) * 70, beta=(0.8,), gamma=(-0.05,) * 70
    )
    eps = np.random.default_rng(4).standard_normal((1100, spec.pre_window + 150))
    got, got_state = garch_values_from_innovations(spec, eps, final_state=True)
    parts = [garch_values_from_innovations(spec, eps[rows], final_state=True) for rows in np.split(np.arange(1100), [1, 300])]
    assert _same_bits(got, np.concatenate([v for v, _ in parts]))
    assert _same_bits(got_state, np.concatenate([s for _, s in parts]))


# --- the output written over its own innovations -----------------------------------

OVERWRITE_SPECS = {
    "garch": KERNEL_SPECS["garch"],
    "gjr": AugGarchSpec(model="gjr", omega=0.1, alpha=(0.05,), beta=(0.8,), gamma=(0.1,)),
    "egarch22": AugGarchSpec(
        model="egarch", p=2, q=2, omega=0.05, alpha=(0.1, 0.05), beta=(0.5, 0.3), gamma=(-0.2, 0.1)
    ),
    "tgarch_t": AugGarchSpec(
        model="tgarch", omega=0.1, alpha=(0.1,), beta=(0.6,), gamma=(0.3,), innovation=InnovationDist("student_t", 8)
    ),
}


@pytest.mark.parametrize("name", sorted(OVERWRITE_SPECS))
@pytest.mark.parametrize("batch, steps", [((), 300), ((1,), 2 * TILE_128 + 3), ((128,), 2 * TILE_128 + 3), ((3, 4), 500)])
@pytest.mark.parametrize("given_state", [False, True], ids=["fixed_point", "state"])
def test_overwrite_input_matches_the_copying_call(name, batch, steps, given_state):
    spec = OVERWRITE_SPECS[name]
    m = spec.pre_window
    rng = stream_generator((len(name), steps))
    eps = spec.innovation.sample(rng, batch + (m + steps,))
    state = spec.state_fixed_point() * rng.uniform(0.5, 1.5, batch + (m,)) if given_state else None
    want, want_state = garch_values_from_innovations(spec, eps, state=state, final_state=True)
    work = eps.copy()
    got, got_state = garch_values_from_innovations(spec, work, state=state, final_state=True, overwrite_input=True)
    assert _same_bits(got, want) and _same_bits(got_state, want_state)
    assert np.shares_memory(got, work) and np.array_equal(got, work[..., :steps])
    # the copying call leaves its innovations alone
    again = eps.copy()
    garch_values_from_innovations(spec, again, state=state)
    assert _same_bits(again, eps)


def test_overwrite_input_keeps_nan_rows():
    spec = KERNEL_SPECS["garch"]
    eps = _with_blowups(spec, 128, 2 * TILE_128 + 7, [(7, 1500), (100, 40)])
    want = garch_values_from_innovations(spec, eps, strict=False)
    assert _same_bits(garch_values_from_innovations(spec, eps.copy(), strict=False, overwrite_input=True), want)


def test_overwrite_input_peak_memory_is_a_tile():
    import tracemalloc

    spec = KERNEL_SPECS["garch"]
    eps = np.random.default_rng(0).standard_normal((128, 10**5))  # 98 MiB
    tracemalloc.start()
    try:
        garch_values_from_innovations(spec, eps, overwrite_input=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20 + 6 * 2**20, peak / 2**20  # a 1-MiB tile, its copies and temporaries


def _in_a_new_thread(fn):
    """fn() in a fresh thread, whose tile workspace starts empty and goes when it ends."""
    out = []
    thread = threading.Thread(target=lambda: out.append(fn()))
    thread.start()
    thread.join()
    return out[0]


def test_a_repeated_call_reuses_the_thread_workspace():
    spec = KERNEL_SPECS["garch"]

    def peaks():
        found = []
        for _ in range(2):
            eps = np.random.default_rng(0).standard_normal((256, 1001))
            tracemalloc.start()
            try:
                garch_values_from_innovations(spec, eps, overwrite_input=True)
                found.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return found

    first, second = _in_a_new_thread(peaks)
    assert first > 4 * 2**20 and second < 2 * 2**20, (first / 2**20, second / 2**20)


@pytest.mark.parametrize("shape", [(256, 10_001), (WIDE_ROWS // 4, 41)])
def test_workspace_holds_three_tiles_and_goes_with_its_thread(shape):
    # the block copy, the state tile and the responses: each about a tile plus its m lag rows per block
    spec = KERNEL_SPECS["garch"]
    arma = ArmaSpec(phi=(-0.5,), theta=(0.3,))
    eps = np.random.default_rng(1).standard_normal(shape)
    span = min(shape[1] - 1, scan.BLOCK)

    def retained():
        garch_values_from_innovations(spec, eps.copy(), overwrite_input=True)
        arma_values_from_innovations(arma, eps.copy(), np.zeros((shape[0], 2)), overwrite_input=True)
        slots = list(scan._WORKSPACE.slots.values())
        return sum(buf.nbytes for buf in slots), [weakref.ref(buf) for buf in slots]

    held, refs = _in_a_new_thread(retained)
    assert 0 < len(refs) <= 3 and held <= 3 * scan.TILE_BYTES * (spec.pre_window + span) / span, held / 2**20
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_chunk_workers_keep_their_workspace_across_calls():
    # the pool of a thread count outlives the call, so its two workers build
    # one block slot each, however many calls and chunks they serve
    spec, eps = KERNEL_SPECS["garch"], np.random.default_rng(2).standard_normal((8, 300))
    seen = []

    def task(start, stop):
        garch_values_from_innovations(spec, eps.copy(), overwrite_input=True)
        seen.append(scan._WORKSPACE.slots["blocks"])  # held, so no two distinct slots share an id

    for _ in range(4):
        parallel.run_chunked(4, task, parallel.CHUNK_BYTES, threads=2)
    assert len(seen) == 16 and len({id(buf) for buf in seen}) <= 2


# --- gamma and the power-family coefficient -------------------------------------

NAMED_MODELS = {  # the fields that make a valid p = q = 1 spec of each named model, gamma empty
    "apgarch": {"delta": 0.7}, "agarch": {}, "gjr": {}, "garch": {}, "arch": {"q": 0, "beta": ()},
    "tgarch": {}, "tsgarch": {}, "pgarch": {"delta": 1.5}, "vgarch": {}, "ngarch": {}, "mgarch": {}, "egarch": {},
}


def _named(model, **fields):
    return AugGarchSpec(**{"model": model, "omega": 0.1, "alpha": (0.1,), "beta": (0.8,)} | NAMED_MODELS[model] | fields)


# the models whose published volatility equation has a gamma term
READS_GAMMA = {"apgarch", "agarch", "tgarch", "gjr", "vgarch", "ngarch", "egarch"}


@pytest.mark.parametrize("model", sorted(NAMED_MODELS))
def test_gamma_is_accepted_exactly_where_the_transforms_read_it(model):
    # an accepted gamma must move some g_i or c_j on a grid; the others refuse it by name
    grid = np.linspace(-3.0, 3.0, 61)

    def transforms(spec):
        with np.errstate(divide="ignore"):
            return [np.broadcast_to(f(grid), grid.shape) for f in spec.g_transforms() + spec.c_transforms()]

    try:
        with_gamma = _named(model, gamma=(0.3,))
    except ParameterError as exc:
        assert str(exc) == f"gamma is not a parameter of {model}"
        assert model not in READS_GAMMA
        return
    assert model in READS_GAMMA
    assert any(not np.array_equal(a, b) for a, b in zip(transforms(_named(model)), transforms(with_gamma)))


def _pow_even(z, exponent):  # the former exact paths at 1 and 2, for z >= 0
    return z if exponent == 1.0 else z * z if exponent == 2.0 else z**exponent


POWER_FAMILY = {  # model -> (gammas it reads, deltas it takes, the former coefficient c(e; a, b, g, delta))
    "garch": ((0.0,), (None,), lambda e, a, b, g, d: a * (e * e) + b),
    "arch": ((0.0,), (None,), lambda e, a, b, g, d: a * (e * e)),
    "tsgarch": ((0.0,), (None,), lambda e, a, b, g, d: a * np.abs(e) + b),
    "pgarch": ((0.0,), (0.5, 0.7, 1.0, 1.5, 2.0), lambda e, a, b, g, d: a * _pow_even(np.abs(e), d) + b),
    "agarch": ((0.0, 0.3, -0.3, 1.0, -1.0), (None,), lambda e, a, b, g, d: a * _pow_even(np.abs(e) - g * e, 2.0) + b),
    "tgarch": ((0.0, 0.3, -0.3, 1.0, -1.0), (None,), lambda e, a, b, g, d: a * _pow_even(np.abs(e) - g * e, 1.0) + b),
    "apgarch": (
        (0.0, 0.3, -0.3, 1.0, -1.0),
        (0.5, 0.7, 1.0, 1.5, 2.0),
        lambda e, a, b, g, d: a * _pow_even(np.abs(e) - g * e, 2.0 * d) + b,
    ),
}


@pytest.mark.parametrize("model", sorted(POWER_FAMILY))
def test_power_family_coefficient_keeps_the_former_bits(model):
    eps = np.concatenate([[0.0, -0.0, 1e-300, -1e-300, 1e3, -1e3, 1.0, -1.0], np.linspace(-4.0, 4.0, 97)])
    gammas, deltas, former = POWER_FAMILY[model]
    a, b = 0.1, 0.0 if model == "arch" else 0.8
    for g in gammas:
        for d in deltas:
            fields = {"gamma": (g,) if model in ("agarch", "tgarch", "apgarch") else (), "delta": d}
            spec = _named(model, **{k: v for k, v in fields.items() if v is not None})
            [c] = spec.c_transforms()
            assert _same_bits(np.asarray(c(eps), dtype=np.float64), former(eps, a, b, g, d)), (g, d)
