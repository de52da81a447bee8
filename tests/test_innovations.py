import math

import numpy as np
import pytest

from fclt_lab.asymptotics import iid_gamma
from fclt_lab.errors import ParameterError, QuadratureError, RefusalError
from fclt_lab.innovations import InnovationDist
from fclt_lab.rng import stream_generator

ALL_DISTS = [
    InnovationDist("standard_normal"),
    InnovationDist("student_t", dof=5.0),
    InnovationDist("rademacher"),
    InnovationDist("uniform"),
]


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.kind)
def test_mean_zero_variance_one(dist):
    assert dist.expect(lambda x: x) == pytest.approx(0.0, abs=1e-12)
    assert dist.expect(np.square) == pytest.approx(1.0, abs=1e-12)


def test_student_t_requires_dof_above_two():
    with pytest.raises(ParameterError):
        InnovationDist("student_t", dof=2.0)
    with pytest.raises(ParameterError):
        InnovationDist("student_t", dof=1.5)
    with pytest.raises(ParameterError):
        InnovationDist("student_t")


def test_student_t_low_dof_flagged():
    with pytest.warns(UserWarning, match="moment"):
        InnovationDist("student_t", dof=3.0)


def test_unknown_kind_rejected():
    with pytest.raises(ParameterError):
        InnovationDist("cauchy")


def test_abs_mean_closed_forms():
    assert InnovationDist("standard_normal").abs_mean() == pytest.approx(math.sqrt(2 / math.pi), rel=1e-10)
    assert InnovationDist("rademacher").abs_mean() == 1.0
    assert InnovationDist("uniform").abs_mean() == pytest.approx(math.sqrt(3) / 2, rel=1e-9)


def test_even_moments_match_quadrature():
    for dist in ALL_DISTS:
        m4 = dist.even_moment(2)
        if m4 is None:
            continue
        assert m4 == pytest.approx(dist.expect(lambda x: x**4), rel=1e-8)


def test_student_even_moment_infinite_when_dof_too_small():
    with pytest.warns(UserWarning):
        dist = InnovationDist("student_t", dof=3.5)
    assert dist.even_moment(2) is None  # E[eps^4] infinite for dof <= 4


def test_normal_fourth_moment():
    assert InnovationDist("standard_normal").even_moment(2) == 3.0


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.kind)
def test_sampling_moments(dist):
    rng = stream_generator(123)
    x = dist.sample(rng, 200_000)
    assert abs(x.mean()) < 0.02
    assert abs(x.var() - 1.0) < 0.05


def test_rademacher_support():
    rng = stream_generator(5)
    x = InnovationDist("rademacher").sample(rng, 50)
    assert set(np.unique(x)) <= {-1.0, 1.0}


def test_quadrature_error_on_divergent_integrand():
    dist = InnovationDist("standard_normal")
    with pytest.raises(QuadratureError), np.errstate(over="ignore"):
        dist.expect(lambda x: np.exp(x * x))  # E[exp(X^2)] diverges


def test_ppf_cdf_roundtrip():
    for dist in ALL_DISTS:
        if dist.is_discrete:
            continue
        for u in (0.1, 0.5, 0.95):
            assert dist.cdf(dist.ppf(u)) == pytest.approx(u, abs=1e-9)


def test_student_sixth_moment_and_cancelling_halves():
    dist = InnovationDist("student_t", dof=15.0)
    assert dist.expect(lambda x: x**6) == pytest.approx(dist.even_moment(3), rel=1e-8)
    # odd integrand: the halves cancel to 0, judged against their size
    assert dist.expect(lambda x: x * np.abs(x) ** 3) == pytest.approx(0.0, abs=1e-12)
    gamma = iid_gamma(dist, 0.5, 3)
    m3 = dist.expect(lambda x: np.abs(x) ** 3)
    assert gamma.g22 == pytest.approx(dist.even_moment(3) - m3 * m3, rel=1e-8)


@pytest.mark.parametrize("dof", [5.0, 6.0])
def test_student_infinite_moment_is_refused_by_name(dof):
    dist = InnovationDist("student_t", dof=dof)
    with pytest.raises(RefusalError, match=rf"E\|eps\|\^6 is infinite under student_t\(dof={dof:g}\)"):
        dist.expect(lambda x: x**6)
    with pytest.raises(RefusalError, match=r"E\|eps\|\^6 is infinite"):
        iid_gamma(dist, 0.5, 3)


def test_far_tail_of_a_finite_moment_weighs_zero():
    # exp(X^2 / 4) overflows where the normal density has underflowed to 0
    with np.errstate(over="ignore"):
        assert InnovationDist().expect(lambda x: np.exp(x * x / 4)) == pytest.approx(math.sqrt(2.0), rel=1e-8)
