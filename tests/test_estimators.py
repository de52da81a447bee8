import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fclt_lab.asymptotics import bahadur_remainder, representation_gap
from fclt_lab.errors import ParameterError
from fclt_lab.estimators import (
    centred_abs_moment,
    empirical_cdf,
    estimator_vector,
    known_mean_abs_moment,
    partial_sum_process,
    sample_mean,
    sample_quantile,
)
from fclt_lab.garch import AugGarchSpec
from fclt_lab.processes import simulate_batch

samples = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=60,
)


# --- worked examples ---------------------------------------------------------------


def test_quantile_examples():
    assert sample_quantile(np.array([1.0, 2.0, 3.0, 4.0]), 0.5) == 2.0
    assert sample_quantile(np.array([7.0]), 0.3) == 7.0
    assert sample_quantile(np.array([3.0, 1.0, 2.0]), 0.9) == 3.0  # ceil(2.7) = 3


def test_quantile_rejects_bad_p():
    for p in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ParameterError):
            sample_quantile(np.array([1.0, 2.0]), p)


def test_block_quantile_is_a_copy_of_its_order_statistics():
    # the rows' values own their memory: they keep no selection buffer alive, and a
    # later partition of a block partitioned in place cannot rewrite them
    block = np.random.default_rng(3).standard_normal((8, 500))
    for overwrite in (False, True):
        x = block.copy()
        q = sample_quantile(x, 0.9, overwrite_input=overwrite)
        assert q.base is None and q.flags.owndata and not np.shares_memory(q, x)
        kept = q.copy()
        x.partition(10, axis=-1)
        assert np.array_equal(q, kept)
        assert np.array_equal(q, np.sort(block, axis=-1)[:, 449])


def test_moment_examples():
    assert centred_abs_moment(np.array([1.0, 2.0, 3.0]), 2) == pytest.approx(2 / 3)
    assert centred_abs_moment(np.full(9, 3.7), 5) == 0.0
    assert centred_abs_moment(np.array([1.0, 2.0, 3.0, 6.0]), 1) == pytest.approx(1.5)


def test_known_mean_examples():
    assert known_mean_abs_moment(np.array([1.0, 2.0, 3.0]), 2, 2.0) == pytest.approx(2 / 3)
    assert known_mean_abs_moment(np.array([0.0, 0.0]), 1, 1.0) == 1.0
    assert known_mean_abs_moment(np.array([-1.0, 1.0]), 3, 0.0) == 1.0


def test_empirical_cdf_examples():
    x = np.array([1.0, 2.0, 3.0])
    assert empirical_cdf(x, 2.0) == pytest.approx(2 / 3)
    assert empirical_cdf(x, 0.5) == 0.0
    assert empirical_cdf(x, 3.0) == 1.0


def test_estimator_vector_composition():
    pair = estimator_vector(np.array([1.0, 2.0, 3.0]), 0.5, 2)
    assert pair.q_hat == 2.0
    assert pair.m_hat == pytest.approx(2 / 3)
    assert (pair.n, pair.p, pair.r) == (3, 0.5, 2)


def test_partial_sums_prefix_examples():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    pairs = partial_sum_process(x, 0.5, 2, [0.5, 1.0])
    assert pairs[0].q_hat == 1.0 and pairs[0].m_hat == pytest.approx(0.25)
    full = estimator_vector(x, 0.5, 2)
    assert pairs[1] == full


def test_partial_sums_constant_path():
    pairs = partial_sum_process(np.full(10, 2.0), 0.3, 2, [0.5, 1.0])
    assert all(p.m_hat == 0.0 for p in pairs)


def test_partial_sums_grid_validation():
    x = np.arange(10, dtype=float)
    with pytest.raises(ParameterError):
        partial_sum_process(x, 0.5, 2, [0.5, 0.5])
    with pytest.raises(ParameterError):
        partial_sum_process(x, 0.5, 2, [0.05])  # empty prefix
    with pytest.raises(ParameterError):
        partial_sum_process(x, 0.5, 2, [0.5, 1.5])


# --- properties ---------------------------------------------------------------------


@given(samples, st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=60)
def test_permutation_invariance(values, p):
    x = np.asarray(values)
    rng = np.random.default_rng(0)
    perm = rng.permutation(x)
    assert sample_quantile(perm, p) == sample_quantile(x, p)
    assert centred_abs_moment(perm, 2) == pytest.approx(centred_abs_moment(x, 2), rel=1e-12, abs=1e-12)


@given(samples, st.floats(min_value=-1e3, max_value=1e3))
@settings(max_examples=60)
def test_translation_behaviour(values, c):
    x = np.asarray(values)
    assert sample_quantile(x + c, 0.5) == sample_quantile(x, 0.5) + c
    scale = max(1.0, centred_abs_moment(x, 2))
    assert centred_abs_moment(x + c, 2) == pytest.approx(centred_abs_moment(x, 2), rel=1e-9, abs=1e-9 * scale)


@given(samples, st.floats(min_value=0.01, max_value=100.0))
@settings(max_examples=60)
def test_scale_behaviour(values, a):
    x = np.asarray(values)
    r = 2
    assert sample_quantile(a * x, 0.25) == pytest.approx(a * sample_quantile(x, 0.25), rel=1e-12)
    assert centred_abs_moment(a * x, r) == pytest.approx(a**r * centred_abs_moment(x, r), rel=1e-9)


@given(samples, st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=100)
def test_selection_equals_full_sort(values, p):
    # oracle equivalence for small n: selection-based quantile == sorted order statistic
    x = np.asarray(values)
    k = math.ceil(len(x) * p)
    k = min(max(k, 1), len(x))
    assert sample_quantile(x, p) == np.sort(x)[k - 1]


@given(samples, st.floats(min_value=0.01, max_value=0.99), st.integers(min_value=1, max_value=4))
@settings(max_examples=60)
def test_estimate_pair_invariants(values, p, r):
    x = np.asarray(values)
    pair = estimator_vector(x, p, r)
    assert pair.m_hat >= 0.0
    assert x.min() <= pair.q_hat <= x.max()


# --- block contract -----------------------------------------------------------------


def _garch_block():
    spec = AugGarchSpec(model="garch", omega=0.1, alpha=(0.1,), beta=(0.8,))
    block = simulate_batch(spec, 301, 50, 4, range(6)).copy()
    block[3] = np.nan  # a quarantined (diverged) replication
    return block


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("prefix", [False, True], ids=["rows", "prefix_view"])
def test_block_rows_equal_single_calls(r, prefix):
    block = _garch_block()
    if prefix:
        block = block[:, :200]  # strided rows, as the prefix grid uses them
    estimators = {
        "quantile": lambda x: sample_quantile(x, 0.9),
        "mean": sample_mean,
        "known_mean_moment": lambda x: known_mean_abs_moment(x, r, 0.1),
        "centred_moment": lambda x: centred_abs_moment(x, r),
        "cdf": lambda x: empirical_cdf(x, 0.5),
        "bahadur": lambda x: bahadur_remainder(x, 0.9, 1.2, 0.3),
        "representation": lambda x: representation_gap(x, r, 0.0, 0.4),
    }
    for name, fn in estimators.items():
        rows = fn(block)
        assert rows.shape == (block.shape[0],), name
        singles = [fn(row) for row in block]
        assert all(type(v) is float for v in singles), name
        assert np.array_equal(rows, np.array(singles), equal_nan=True), name
        if name != "cdf":  # the quarantined row must stay non-finite
            assert not np.isfinite(rows[3]) and np.isfinite(np.delete(rows, 3)).all(), name


def test_block_estimator_vector_and_prefixes():
    block = _garch_block()
    pairs = partial_sum_process(block, 0.5, 2, [0.5, 1.0])
    for pair, m in zip(pairs, (150, 301)):
        assert pair.n == m
        for i, row in enumerate(block):
            single = estimator_vector(row[:m], 0.5, 2)
            assert np.array_equal([pair.q_hat[i], pair.m_hat[i]], [single.q_hat, single.m_hat], equal_nan=True)


def test_estimators_reject_scalars_and_empty_rows():
    with pytest.raises(ParameterError):
        sample_quantile(np.float64(1.0), 0.5)
    with pytest.raises(ParameterError):
        centred_abs_moment(np.empty((3, 0)), 2)


@pytest.mark.parametrize("fn", [
    lambda x, **kw: sample_quantile(x, 0.9, **kw),
    lambda x, **kw: bahadur_remainder(x, 0.9, 1.2, 0.3, **kw),
], ids=["quantile", "bahadur"])
def test_selection_leaves_its_input_alone_unless_told(fn):
    block = _garch_block()
    before = block.copy()
    default = fn(block)
    assert np.array_equal(block, before, equal_nan=True)
    # in place: the same bits, the prefix permuted within itself, the rest untouched
    prefix = block[:, :200]
    assert np.array_equal(fn(prefix, overwrite_input=True), fn(before[:, :200]), equal_nan=True)
    assert not np.array_equal(block, before, equal_nan=True)
    assert np.array_equal(np.sort(block[:, :200]), np.sort(before[:, :200]), equal_nan=True)
    assert np.array_equal(block[:, 200:], before[:, 200:], equal_nan=True)
    assert np.array_equal(fn(block, overwrite_input=True), default, equal_nan=True)


# --- one p check and one r check for every entry -------------------------------------


def _p_and_r_entries():
    from fclt_lab.asymptotics import a_r_quadrature, iid_gamma
    from fclt_lab.conditions import check_exponential_condition, check_polynomial_condition
    from fclt_lab.harness import ExperimentConfig
    from fclt_lab.innovations import InnovationDist
    from fclt_lab.processes import IidSpec
    from fclt_lab.truth import closed_form_truth

    garch = AugGarchSpec(model="garch", omega=0.1, alpha=(0.1,), beta=(0.8,))
    egarch = AugGarchSpec(model="egarch", omega=0.0, alpha=(0.1,), beta=(0.5,), gamma=(0.0,))
    takes_p = {
        "ExperimentConfig": lambda p: ExperimentConfig(spec=garch, p=p, r=2, n=10, reps=2),
        "closed_form_truth": lambda p: closed_form_truth(IidSpec(), p, 2),
        "iid_gamma": lambda p: iid_gamma(InnovationDist(), p, 2),
        "sample_quantile": lambda p: sample_quantile([1.0, 2.0], p),
    }
    takes_r = {
        "ExperimentConfig": lambda r: ExperimentConfig(spec=garch, p=0.5, r=r, n=10, reps=2),
        "closed_form_truth": lambda r: closed_form_truth(IidSpec(), 0.5, r),
        "iid_gamma": lambda r: iid_gamma(InnovationDist(), 0.5, r),
        "a_r_quadrature": lambda r: a_r_quadrature(InnovationDist("uniform"), r, 0.1),
        "check_polynomial_condition": lambda r: check_polynomial_condition(garch, r),
        "check_exponential_condition": lambda r: check_exponential_condition(egarch, r),
        "centred_abs_moment": lambda r: centred_abs_moment([1.0, 2.0], r),
    }
    return takes_p, takes_r


P_ENTRIES, R_ENTRIES = _p_and_r_entries()


def _message(call, value) -> str:
    with pytest.raises(ParameterError) as exc:
        call(value)
    return str(exc.value)


@pytest.mark.parametrize("p", [0, 1, math.nan])
@pytest.mark.parametrize("entry", sorted(P_ENTRIES))
def test_every_entry_refuses_a_quantile_level_with_one_message(entry, p):
    assert _message(P_ENTRIES[entry], p) == f"quantile level p must lie in (0, 1), got {p}"


@pytest.mark.parametrize("r", [0, 1.5, True])
@pytest.mark.parametrize("entry", sorted(R_ENTRIES))
def test_every_entry_refuses_a_moment_order_with_one_message(entry, r):
    # r = 1.5 has no a_r = r E[X^(r-1) sgn(X)^r], and a bool is no order, as a bool is no seed
    assert _message(R_ENTRIES[entry], r) == f"moment order r must be a positive integer, got {r}"
