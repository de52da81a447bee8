import math

import numpy as np
import pytest

from fclt_lab.arma import ArmaSpec
from fclt_lab.errors import ParameterError
from fclt_lab.garch import AugGarchSpec
from fclt_lab.innovations import InnovationDist
from fclt_lab.processes import IidSpec
from fclt_lab.truth import closed_form_truth, pilot_truth, truth_from_sample

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
