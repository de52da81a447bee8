import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from fclt_lab.asymptotics import iid_gamma
from fclt_lab.errors import NumericsError, ParameterError, QuadratureError, RefusalError
from fclt_lab.innovations import InnovationDist, _de_piece
from fclt_lab.processes import IidSpec
from fclt_lab.rng import stream_generator
from fclt_lab.truth import closed_form_truth

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
    # odd integrand: the mirrored halves cancel exactly, and pass judged against their size
    assert dist.expect(lambda x: x * np.abs(x) ** 3) == 0.0
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


def test_ppf_refuses_a_quantile_out_of_double_range():
    with pytest.warns(UserWarning):
        t3 = InnovationDist("student_t", dof=3.0)
    assert math.isfinite(t3.ppf(1e-200))
    for u in (1e-260, np.array([0.5, 1e-300])):
        with pytest.raises(NumericsError):
            t3.ppf(u)
    with pytest.raises(NumericsError):
        closed_form_truth(IidSpec(t3), 1e-260, 2)


def _quadpack_expect(dist, h, upper):
    """E[h(X) 1(X <= upper)] by QUADPACK, as ``expect`` computed it before the
    double-exponential rule: split at 0, pdf weighting, Rademacher atoms enumerated."""
    if dist.is_discrete:
        return 0.5 * sum(float(h(x)) for x in (-1.0, 1.0) if x <= upper)
    lo, hi = dist.support()
    cut = min(upper, hi)
    if cut <= lo:
        return 0.0
    total = 0.0
    pieces = [(lo, min(0.0, cut))] + ([(0.0, cut)] if cut > 0.0 else [])
    for a, b in pieces:
        if b <= a:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            out = integrate.quad(
                lambda x: float(h(x)) * float(dist.pdf(x)), a, b, epsabs=1e-13, epsrel=1e-10, limit=200, full_output=1
            )
        assert len(out) == 3  # QUADPACK reported success
        total += out[0]
    return total


PARTIAL_LAWS = ALL_DISTS + [InnovationDist("student_t", dof=8.0)]


@pytest.mark.parametrize("dist", PARTIAL_LAWS, ids=lambda d: f"{d.kind}{d.dof or ''}")
@pytest.mark.parametrize("r", [1, 2, 3])
def test_expect_below_q_agrees_with_quadpack(dist, r):
    lo, hi = dist.support()
    # at, below and above the support, at 0, and inside
    qs = [lo, hi, lo - 1.0, hi + 1.0, -50.0, 50.0, 0.0, -1.0, 1.0, -0.3, 0.7, 1e-9]
    integrands = (
        lambda x: x,
        lambda x: np.abs(x) ** r,
        lambda x: x * np.abs(x) ** r,
        lambda x: (0.1 * x * x + 0.8) ** 2,  # a GARCH c_1(eps)^s at s = 2
        lambda x: (0.1 + 0.05 * np.log(np.square(x))) ** 2,  # an mgarch g_1(eps)^2: log^2 singular at 0
    )
    for i, h in enumerate(integrands):
        for q in qs:
            got, ref = dist.expect(h, hi=q), _quadpack_expect(dist, h, q)
            assert abs(got - ref) <= max(1e-10 * abs(ref), 1e-13), (i, q, got, ref)


@pytest.mark.parametrize("dist", [InnovationDist("rademacher")], ids=lambda d: d.kind)
@pytest.mark.parametrize("r", [1, 2, 3])
def test_expect_below_q_equals_the_former_partial_expect_bit_for_bit(dist, r):
    # a discrete law never reaches the quadrature rule: its atoms are enumerated
    # as before, so its partial expectations keep their bits
    lo, hi = dist.support()
    qs = [lo, hi, lo - 1.0, hi + 1.0, -50.0, 50.0, 0.0, -0.3, 0.7, 1e-9]
    for h in (lambda x: x, lambda x: np.abs(x) ** r):
        for q in qs:
            assert float(dist.expect(h, hi=q)).hex() == float(_quadpack_expect(dist, h, q)).hex(), q


def test_expect_refuses_an_infinite_moment_and_a_non_integrable_end():
    with pytest.warns(UserWarning):
        t3 = InnovationDist("student_t", dof=3.0)
    with pytest.raises(RefusalError, match=r"E\|eps\|\^3 is infinite under student_t\(dof=3\)"):
        t3.expect(lambda x: np.abs(x) ** 3)
    with pytest.raises(QuadratureError):
        InnovationDist().expect(lambda x: 1.0 / np.abs(x), lo=0.0, hi=1.0)


def test_end_terms_bound_the_error_of_a_piece():
    # exp-sinh maps 1/(x sqrt(1 + (2 log x / pi)^2)), which is like 1/(x |log x|)
    # and diverges at both ends of (0, inf), to the constant pi/2 in t: every
    # level sums to about the window's 5 pi, and the end terms at t = +-5 give
    # the error its size
    val, err = _de_piece(lambda x: 1.0 / (x * np.sqrt(1.0 + (2.0 * np.log(x) / math.pi) ** 2)), 0.0, math.inf)
    assert val == pytest.approx(5.0 * math.pi, rel=1e-3)
    assert err == pytest.approx(math.pi)


def test_expect_integrates_over_the_support_within_lo_hi():
    normal, uniform, rademacher = InnovationDist(), InnovationDist("uniform"), InnovationDist("rademacher")
    assert normal.expect(lambda x: 1.0, lo=-1.0, hi=1.0) == pytest.approx(normal.cdf(1.0) - normal.cdf(-1.0), rel=1e-12)
    assert normal.expect(lambda x: 1.0, lo=1.0) == pytest.approx(normal.cdf(-1.0), rel=1e-12)
    assert uniform.expect(lambda x: 1.0, lo=-10.0, hi=0.5) == pytest.approx((0.5 + math.sqrt(3.0)) / (2 * math.sqrt(3.0)))
    assert normal.expect(lambda x: 1.0, lo=1.0, hi=1.0) == 0.0  # an empty range
    assert rademacher.expect(lambda x: x, lo=0.0) == 0.5  # only the atom at +1
    assert rademacher.expect(lambda x: x, lo=-0.5, hi=0.5) == 0.0


def test_far_tail_of_a_finite_moment_weighs_zero():
    # exp(X^2 / 4) overflows where the normal density has underflowed to 0
    with np.errstate(over="ignore"):
        assert InnovationDist().expect(lambda x: np.exp(x * x / 4)) == pytest.approx(math.sqrt(2.0), rel=1e-8)


# --- the normal law in numpy, the Student t from scipy.special ---------------------

X_GRID = np.concatenate([np.linspace(-40.0, 40.0, 801), [-1e6, -1e-300, -0.0, 0.0, 1e-300, 1e6]])
U_GRID = np.concatenate([np.linspace(1e-6, 1.0 - 1e-6, 999), [1e-300, 1e-12, 0.5, 1.0 - 1e-12]])
SUBNORMAL_U = np.array([5e-324, 1e-322, 1e-320, 3e-317, 1e-315, 1e-310, 2.2e-308])


def _same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _ulps(got, ref):
    return np.abs(got - ref) / np.spacing(np.abs(ref))


def test_normal_pdf_equals_scipy_stats_bit_for_bit():
    from scipy import stats

    normal = InnovationDist()
    assert _same_bits(normal.pdf(X_GRID), stats.norm.pdf(X_GRID))
    for x in X_GRID[::37]:  # the scalar calls quadrature makes
        assert _same_bits(normal.pdf(float(x)), stats.norm.pdf(float(x)))


def test_normal_cdf_is_within_1e_12_relative_of_ndtr():
    from scipy import special

    normal = InnovationDist()
    x = np.concatenate([X_GRID, np.linspace(-38.5, 38.5, 7701)])
    ref = special.ndtr(x)
    ok = ref >= np.finfo(float).tiny  # where ndtr is a normal float
    assert np.all(np.abs(normal.cdf(x) - ref)[ok] <= 1e-12 * ref[ok])
    for xi, ri in zip(x[ok][::97], ref[ok][::97]):
        got = normal.cdf(float(xi))
        assert isinstance(got, float) and np.ndim(got) == 0
        assert abs(got - ri) <= 1e-12 * ri


def test_normal_ppf_is_within_8_ulp_of_ndtri():
    from scipy import special

    normal = InnovationDist()
    support_grid = np.linspace(1e-6, 1.0 - 1e-6, 4001)  # the positivity check's grid
    for u in (U_GRID, SUBNORMAL_U, support_grid, np.array([1e-300])):
        assert _ulps(normal.ppf(u), special.ndtri(u)).max() <= 8.0, u
    for ui in U_GRID[::37]:
        got = normal.ppf(float(ui))
        assert isinstance(got, float) and np.ndim(got) == 0
        assert _ulps(got, special.ndtri(ui)) <= 8.0


def test_normal_ppf_edges_and_mirror():
    normal = InnovationDist()
    assert normal.ppf(0.0) == -math.inf and normal.ppf(1.0) == math.inf
    assert normal.ppf(0.5) == 0.0
    assert np.isnan(normal.ppf(np.array([-1e-300, -0.5, 1.0 + 1e-15, 2.0, -math.inf, math.inf, math.nan]))).all()
    u = np.concatenate([U_GRID, SUBNORMAL_U, stream_generator(11).random(10_000)])
    exact = 1.0 - (1.0 - u) == u  # 1 - u is exact
    assert exact.sum() > 5_000
    assert np.array_equal(normal.ppf(1.0 - u[exact]), -normal.ppf(u[exact]))


@pytest.mark.parametrize("dof", [2.5, 3.0, 5.0, 8.0, 15.0, 30.0])
def test_student_t_cdf_ppf_pdf_equal_scipy_stats_bit_for_bit(dof):
    from scipy import stats

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # dof <= 4 is flagged
        dist = InnovationDist("student_t", dof=dof)
    s = math.sqrt((dof - 2.0) / dof)
    assert _same_bits(dist.cdf(X_GRID), stats.t.cdf(X_GRID / s, dof))
    ref_ppf = stats.t.ppf(U_GRID, dof) * s
    finite = np.isfinite(ref_ppf)  # stdtrit gives +inf at u = 1e-300 for dof <= 8
    assert _same_bits(dist.ppf(U_GRID[finite]), ref_ppf[finite])
    if not finite.all():
        with pytest.raises(NumericsError):
            dist.ppf(U_GRID)
    assert _same_bits(dist.pdf(X_GRID), stats.t.pdf(X_GRID / s, dof) / s)
    for x, u in zip(X_GRID[::37], U_GRID[::37]):
        assert _same_bits(dist.cdf(float(x)), stats.t.cdf(float(x) / s, dof))
        assert _same_bits(dist.ppf(float(u)), stats.t.ppf(float(u), dof) * s)
        assert _same_bits(dist.pdf(float(x)), stats.t.pdf(float(x) / s, dof) / s)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.kind)
def test_draws_through_out_equal_the_returned_draws(dist):
    # straight into a row of a larger block as well; the normal law draws there in place
    for stream in [(3,), (3, 1), (11, 7, 2)]:
        rows = np.zeros((3, 257))
        for i, row in enumerate(rows):
            assert dist.sample(stream_generator(*stream, i), 257, out=row) is row
        whole = np.full((2, 3, 5), np.nan)
        dist.sample(stream_generator(*stream), (3, 5), out=whole[1])
        for i in range(3):
            assert np.array_equal(rows[i], dist.sample(stream_generator(*stream, i), 257))
        assert np.array_equal(whole[1], dist.sample(stream_generator(*stream), (3, 5)))
        assert np.isnan(whole[0]).all()
