import io

import numpy as np
import pytest

from fclt_lab.errors import ParameterError
from fclt_lab.garch import AugGarchSpec
from fclt_lab.arma import ArmaSpec
from fclt_lab.innovations import InnovationDist
from fclt_lab.processes import (
    IidSpec,
    Path,
    path_from_csv,
    path_to_csv,
    pre_window,
    simulate,
    simulate_batch,
    spec_fingerprint,
    spec_from_json,
    spec_to_json,
    values_from_innovations,
)
from fclt_lab.estimators import centred_abs_moment, sample_quantile


def test_rademacher_values_in_support():
    path = simulate(IidSpec(InnovationDist("rademacher")), 4, seed=7)
    assert set(np.unique(path.values)) <= {-1.0, 1.0}


def test_large_sample_mean_small():
    # MC error 1/sqrt(n) ~ 0.001; 5 sigma bound
    path = simulate(IidSpec(InnovationDist()), 10**6, seed=21)
    assert abs(path.values.mean()) < 0.005


def test_identical_seed_identical_path():
    a = simulate(IidSpec(InnovationDist()), 64, seed=9)
    b = simulate(IidSpec(InnovationDist()), 64, seed=9)
    assert np.array_equal(a.values, b.values)
    assert a.spec_fingerprint == b.spec_fingerprint


def test_garch_resimulation_bit_exact():
    spec = AugGarchSpec(model="garch", omega=0.1, alpha=(0.1,), beta=(0.8,))
    a = simulate(spec, 500, burn_in=100, seed=3)
    b = simulate(spec, 500, burn_in=100, seed=3)
    assert np.array_equal(a.values, b.values)
    assert a.burn_in == 100 and a.seed == (3,)


def test_n_must_be_positive():
    with pytest.raises(ParameterError):
        simulate(IidSpec(InnovationDist()), 0, seed=1)


def test_path_values_read_only():
    path = simulate(IidSpec(InnovationDist()), 8, seed=1)
    with pytest.raises(ValueError):
        path.values[0] = 0.0


def test_spec_json_roundtrip_garch():
    spec = AugGarchSpec(model="gjr", p=1, q=1, omega=0.2, alpha=(0.05,), beta=(0.7,), gamma=(0.1,))
    again = spec_from_json(spec_to_json(spec))
    assert again == spec
    assert spec_fingerprint(again) == spec_fingerprint(spec)


def test_spec_json_roundtrip_arma_garch():
    inner = AugGarchSpec(model="garch", omega=0.1, alpha=(0.1,), beta=(0.8,))
    spec = ArmaSpec(phi=(-0.5,), theta=(0.3,), innovation=inner)
    again = spec_from_json(spec_to_json(spec))
    assert again == spec


def test_spec_json_roundtrip_iid_student():
    spec = IidSpec(InnovationDist("student_t", dof=6.0))
    again = spec_from_json(spec_to_json(spec))
    assert again == spec


def test_spec_json_keys_follow_schema():
    import json

    spec = AugGarchSpec(model="garch", omega=0.1, alpha=(0.1,), beta=(0.8,))
    obj = json.loads(spec_to_json(spec))
    assert set(obj) == {"model", "lambda", "delta", "p", "q", "omega", "alpha", "beta", "gamma", "innovation"}
    assert obj["lambda"] == "power"
    assert obj["innovation"] == {"kind": "standard_normal"}


def test_path_csv_roundtrip():
    path = simulate(IidSpec(InnovationDist()), 32, seed=11)
    buf = io.StringIO()
    path_to_csv(path, buf, comments=["manifest_hash=abc"])
    buf.seek(0)
    values = path_from_csv(buf)
    assert np.array_equal(values, path.values)
    buf.seek(0)
    text = buf.read()
    assert text.startswith("# manifest_hash=abc\nx\n")
    assert "\r" not in text  # LF line endings


def test_stationarity_smoke_two_window_agreement():
    # estimator values on the two halves differ by < 5 MC standard errors,
    # with the SEs taken from block spreads within each half
    spec = AugGarchSpec(model="garch", omega=0.1, alpha=(0.1,), beta=(0.8,))
    values = simulate(spec, 100_000, seed=17).values
    half = values.shape[0] // 2
    for estimator in (lambda v: sample_quantile(v, 0.9), lambda v: centred_abs_moment(v, 2)):
        halves = []
        for part in (values[:half], values[half:]):
            blocks = np.array_split(part, 25)
            ests = np.array([estimator(b) for b in blocks])
            halves.append((estimator(part), ests.std(ddof=1) / np.sqrt(len(blocks))))
        (e1, s1), (e2, s2) = halves
        assert abs(e1 - e2) < 5.0 * np.hypot(s1, s2)


@pytest.mark.parametrize(
    "spec",
    [
        AugGarchSpec(model="garch", omega=0.1, alpha=(0.1,), beta=(0.8,)),
        AugGarchSpec(model="egarch", p=1, q=1, omega=0.0, alpha=(0.1,), beta=(0.5,), gamma=(-0.1,)),
        ArmaSpec(phi=(-0.5,), theta=(0.3,), innovation=AugGarchSpec(model="garch", omega=0.1, alpha=(0.1,), beta=(0.8,))),
    ],
    ids=["garch", "egarch", "arma_garch"],
)
def test_simulate_batch_rows_are_contiguous_single_paths(spec):
    block = simulate_batch(spec, 300, 50, 11, range(2, 6))
    assert block.shape == (4, 300) and block.strides[-1] == block.itemsize
    for row, rep in zip(block, range(2, 6)):
        assert np.array_equal(row, simulate(spec, 300, burn_in=50, seed=(11, rep)).values)


def test_simulate_streams_are_pinned():
    # values recorded from the per-spec simulators that preceded the shared
    # draw-and-recurse core; a change to the streams or the recursion shows here
    garch = AugGarchSpec(model="garch", omega=0.1, alpha=(0.1,), beta=(0.8,))
    expected = {
        "garch": (garch, ["-0.9470614730286256", "0.13889910609161835", "0.810254171862886", "1.1502941431489142"]),
        "arma_garch": (
            ArmaSpec(phi=(-0.5,), theta=(0.3,), innovation=garch),
            ["-0.4630604500750994", "-0.37674956085451905", "0.6635491232631119", "1.725144956339336"],
        ),
        "iid": (
            IidSpec(InnovationDist("student_t", dof=6.0)),
            ["-0.11554311504352348", "0.7825811867173248", "-0.2905608869211067", "-1.8360150903988943"],
        ),
    }
    for name, (spec, values) in expected.items():
        path = simulate(spec, 4, burn_in=20, seed=(7, 3))
        assert [repr(float(v)) for v in path.values] == values, name
        assert path.seed == (7, 3) and path.burn_in == (0 if name == "iid" else 20)


def test_simulate_checks_n_and_burn_in():
    garch = AugGarchSpec(model="garch", omega=0.1, alpha=(0.1,), beta=(0.8,))
    for call in (lambda: simulate(garch, 0), lambda: simulate(garch, 10, burn_in=-1),
                 lambda: simulate_batch(garch, 0, None, 1, range(2)),
                 lambda: simulate_batch(garch, 10, -1, 1, range(2))):
        with pytest.raises(ParameterError):
            call()


GARCH22 = AugGarchSpec(model="garch", p=2, q=2, omega=0.1, alpha=(0.05, 0.04), beta=(0.5, 0.3))
RESUMABLE = {
    "garch22": GARCH22,
    "egarch": AugGarchSpec(model="egarch", omega=0.05, alpha=(0.1,), beta=(0.9,), gamma=(-0.3,)),
    "arma_garch": ArmaSpec(phi=(-0.5, 0.2), theta=(0.3,), innovation=GARCH22),
    "ma3": ArmaSpec(theta=(0.3, -0.2, 0.1)),
}


@pytest.mark.parametrize("name", sorted(RESUMABLE))
@pytest.mark.parametrize("split", [1, 700, 1023, 1024, 1500])  # 128 rows give 1024-step GARCH tiles
def test_resumed_recursion_matches_uninterrupted_bit_for_bit(name, split):
    spec = RESUMABLE[name]
    m = pre_window(spec)
    eps = np.random.default_rng(split).standard_normal((128, m + 2100))
    values, state = values_from_innovations(spec, eps, final_state=True)
    head, carried = values_from_innovations(spec, eps[:, : m + split], final_state=True)
    tail, end = values_from_innovations(spec, eps[:, split:], state=carried, final_state=True)
    assert np.array_equal(np.concatenate([head, tail], axis=-1), values)
    assert np.array_equal(end, state)
    if name != "ma3":  # a pure MA without a state takes scipy's FIR shortcut (arma docstring)
        assert np.array_equal(values_from_innovations(spec, eps), values)
