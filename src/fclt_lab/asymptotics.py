"""Theoretical targets: long-run covariances, the 2x2 limit matrix, and the
remainder terms of the two asymptotic representations.

The trivariate long-run covariance collects, for the component series
(X_t, |X_t|^r, ind(X_t <= q)), the lag-0 covariance plus twice the summed
autocovariances, with the indicator row and column scaled by -1/f(q). The
2x2 limit matrix of the joint (quantile, centred-moment) asymptotics is the
congruence Gamma = A Sigma A^T with A = [[0, 0, 1], [-a_r, 1, 0]] and
a_r = r E[X^(r-1) sgn(X)^r].

Remainders: the quantile linearization residual
R_n = q_n(p) - q - (p - F_n(q)) / f(q) is o_P(1/sqrt(n)); the moment
representation residual
sqrt(n) (m_hat - known-mean moment + (mean - mu) a_r) is o_P(1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conditions import approve, refusal
from .errors import ParameterError, SingularityError
from .estimators import (
    _check_p,
    _check_r,
    empirical_cdf,
    known_mean_abs_moment,
    sample_mean,
    sample_quantile,
)
from .innovations import InnovationDist
from .parallel import run_chunked
from .processes import ProcessSpec, simulate_batch

__all__ = [
    "Gamma2",
    "TrivariateLRC",
    "a_r_quadrature",
    "a_r_from_sample",
    "iid_gamma",
    "gamma_from_trivariate",
    "gamma_target_with_se",
    "trivariate_iid_closed_form",
    "trivariate_long_run_cov_mc",
    "bahadur_remainder",
    "representation_gap",
    "silverman_bandwidth",
    "gaussian_kde_at",
]

_NEAR_SINGULAR_RATIO = 1e-10


@dataclass(frozen=True)
class Gamma2:
    """2x2 asymptotic covariance of the (quantile, centred moment) pair."""

    g11: float
    g22: float
    g12: float
    a_r: float | None  # None in a given target whose a_r is unknown

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.g11, self.g12], [self.g12, self.g22]])

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.as_matrix()).min())

    def to_obj(self) -> dict:
        return {"gamma": self.as_matrix().tolist(), "a_r": self.a_r}


@dataclass(frozen=True)
class TrivariateLRC:
    """3x3 long-run covariance of the component series (value, power, indicator)."""

    sigma: np.ndarray  # 3x3, indicator row/col already scaled by -1/f
    truncation_lag: int
    method: str  # iid_closed_form | replication_mc
    f_at_q: float
    q_true: float
    p: float
    r: int
    mc_se: np.ndarray | None = None
    rep_sigma: np.ndarray | None = None  # per-replication estimates (replication_mc)
    tail_bound: float | None = None  # estimated mass of the truncated lags
    note: str | None = None

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=np.float64)
        if sigma.shape != (3, 3):
            raise ParameterError(f"sigma must be 3x3, got {sigma.shape}")
        if not np.allclose(sigma, sigma.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.abs(sigma).max()))):
            raise ParameterError("sigma must be symmetric")
        if not self.f_at_q > 0:
            raise SingularityError(f"f_at_q must be > 0, got {self.f_at_q}")
        object.__setattr__(self, "sigma", sigma)

    def to_obj(self) -> dict:
        return {
            "sigma": self.sigma.tolist(),
            "truncation": self.truncation_lag,
            "method": self.method,
            "f_at_q": self.f_at_q,
            "q_true": self.q_true,
            "p": self.p,
            "r": self.r,
            "mc_se": None if self.mc_se is None else np.asarray(self.mc_se).tolist(),
            "tail_bound": self.tail_bound,
            "note": self.note,
        }


# --- coefficient a_r -----------------------------------------------------------


def _a_r_transform(r: int, mu: float = 0.0):
    def h(x):
        d = np.asarray(x, dtype=float) - mu
        return r * d ** (r - 1) * np.sign(d) ** r

    return h


def a_r_quadrature(dist: InnovationDist, r: int, mu: float = 0.0) -> float:
    """a_r = r E[(X-mu)^(r-1) sgn(X-mu)^r] for an innovation-law marginal."""
    _check_r(r)
    if dist.is_symmetric and mu == 0.0:
        return 0.0  # odd integrand under a symmetric law
    return dist.expect(_a_r_transform(r, mu))


def a_r_from_sample(values, r: int, mu: float = 0.0) -> float:
    h = _a_r_transform(r, mu)
    return float(np.mean(h(np.asarray(values, dtype=float))))


# --- iid closed form -----------------------------------------------------------


def iid_gamma(dist: InnovationDist, p: float, r: int, q_true: float | None = None, f_at_q: float | None = None) -> Gamma2:
    """Limit covariance for an iid sample from ``dist``, by quadrature.

    The congruence of the iid trivariate closed form: g11 = p(1-p)/f^2;
    g22 = a^2 Var(X) + Var(|X|^r) - 2a Cov(X, |X|^r);
    g12 = (a Cov(ind, X) - Cov(ind, |X|^r)) / f with ind = 1(X <= q).
    """
    _check_p(p)
    _check_r(r)
    return gamma_from_trivariate(trivariate_iid_closed_form(dist, p, r, q_true, f_at_q), a_r_quadrature(dist, r))


def trivariate_iid_closed_form(
    dist: InnovationDist, p: float, r: int, q_true: float | None = None, f_at_q: float | None = None
) -> TrivariateLRC:
    """Exact trivariate covariance for an iid marginal (all lag terms vanish)."""
    if dist.is_discrete:
        raise SingularityError("iid closed form needs a continuous law with positive density")
    q = float(dist.ppf(p)) if q_true is None else float(q_true)
    f = float(dist.pdf(q)) if f_at_q is None else float(f_at_q)
    if not f > 0:
        raise SingularityError(f"density at the quantile must be > 0, got {f}")
    mu = dist.expect(lambda x: x)
    var_x = dist.expect(np.square) - mu * mu
    m_r = dist.expect(lambda x: np.abs(x) ** r)
    var_abs = dist.expect(lambda x: np.abs(x) ** (2 * r)) - m_r * m_r
    cov_x_absr = dist.expect(lambda x: x * np.abs(x) ** r) - mu * m_r
    cov_ind_x = dist.expect(lambda x: x, hi=q) - p * mu
    cov_ind_absr = dist.expect(lambda x: np.abs(x) ** r, hi=q) - p * m_r
    sigma = np.array(
        [
            [var_x, cov_x_absr, -cov_ind_x / f],
            [cov_x_absr, var_abs, -cov_ind_absr / f],
            [-cov_ind_x / f, -cov_ind_absr / f, p * (1.0 - p) / (f * f)],
        ]
    )
    return TrivariateLRC(
        sigma=sigma,
        truncation_lag=0,
        method="iid_closed_form",
        f_at_q=f,
        q_true=q,
        p=float(p),
        r=int(r),
        note=_singularity_note(sigma),
    )


# --- congruence to the 2x2 limit -------------------------------------------------


def _congruence(sigma: np.ndarray, a_r: float) -> np.ndarray:
    A = np.array([[0.0, 0.0, 1.0], [-a_r, 1.0, 0.0]])
    return A @ sigma @ A.T


def gamma_from_trivariate(lrc: TrivariateLRC, a_r: float) -> Gamma2:
    """Map the trivariate long-run covariance to the 2x2 limit matrix."""
    g = _congruence(lrc.sigma, a_r)
    return Gamma2(g11=float(g[0, 0]), g22=float(g[1, 1]), g12=float(g[0, 1]), a_r=float(a_r))


def gamma_target_with_se(lrc: TrivariateLRC, a_r: float) -> tuple[Gamma2, np.ndarray]:
    """Gamma target plus per-entry MC standard errors (replication-MC input)."""
    gamma = gamma_from_trivariate(lrc, a_r)
    if lrc.rep_sigma is None:
        raise ParameterError("per-replication estimates are only available from replication MC")
    mapped = _congruence(np.asarray(lrc.rep_sigma), a_r)
    se = mapped.std(axis=0, ddof=1) / math.sqrt(mapped.shape[0])
    return gamma, se


# --- replication-MC trivariate long-run covariance --------------------------------


def _component_series(values: np.ndarray, r: int, q: float) -> np.ndarray:
    """(X, |X|^r, ind(X <= q)) written into one C-order block (..., 3, n)."""
    out = np.empty(values.shape[:-1] + (3, values.shape[-1]))
    out[..., 0, :] = values
    absr = out[..., 1, :]
    np.abs(values, out=absr)
    if r != 1:
        absr **= r
    np.less_equal(values, q, out=out[..., 2, :], casting="unsafe")
    return out


_TILE = 2048  # time steps per tile of the windowed sums; it fixes their summation order


def _tail_lags(max_lag: int) -> np.ndarray:
    """The lags at which ``_long_run_sum`` records covariances for the tail fit.

    Every lag 1..L for L <= 16; otherwise the powers of two below L - 4 and
    the last five lags L - 4..L, which set the noise floor. The grid depends
    on L alone, never on the data, the chunking or the threads.
    """
    if max_lag <= 16:
        return np.arange(1, max_lag + 1)
    return np.concatenate([2 ** np.arange((max_lag - 5).bit_length()), np.arange(max_lag - 4, max_lag + 1)])


def _long_run_sum(series: np.ndarray, max_lag: int, lag_out: np.ndarray) -> np.ndarray:
    """Truncated long-run covariance sum_{|h| <= L} Gamma_hat(h) of series (..., 3, n).

    With c the centred series and W_t = sum_{|s - t| <= L} c_s (s clamped to
    0..n-1), the sum is (1/n) sum_t W_t c_t^T: one (3 x n)(n x 3) product per
    row, so the cost is O(n) whatever L. Time runs in tiles of ``_TILE``
    steps. A tile [a, b) centres its window [a - L, b + L) into one C-order
    buffer, takes the covariances at the tail-fit lags from it, and turns it
    into a cumulative sum in place; W on the tile is a difference of two of
    its entries. The product takes the uncentred tile, and the mean is
    removed afterwards as (sum_t W_t) mean^T. Working memory is about
    2 * _TILE + 2L steps per row, and the tile fixes the summation order, so
    each row's bits depend neither on the batch nor on the chunking. The
    uniform n/(n-1) factor removes the lag-0 bias from mean estimation
    (exact for independent data) without breaking positive
    semi-definiteness. ``lag_out`` (..., len(_tail_lags(L)), 3, 3) accumulates
    each row's lagged covariance matrices at the lags of ``_tail_lags(L)``
    (for tail-decay fitting); no other lag is computed.
    """
    n = series.shape[-1]
    L = min(max_lag, n - 1)
    lags = _tail_lags(L)
    rows = series.shape[:-1]
    mean = series.mean(axis=-1, keepdims=True)
    window = np.empty(rows + (min(n, _TILE + 2 * L) + 1,))
    w = np.empty(rows + (min(n, _TILE),))
    acc = np.zeros(rows[:-1] + (3, 3))
    lag_acc = np.zeros(rows[:-1] + (lags.size, 3, 3))
    w_sum = np.zeros(rows)
    for a in range(0, n, _TILE):
        b = min(a + _TILE, n)
        lo, hi = max(a - L, 0), min(b + L, n)
        cum = window[..., : hi - lo + 1]
        c = cum[..., 1:]
        np.subtract(series[..., lo:hi], mean, out=c)
        for j, h in enumerate(lags):
            e = min(b, n - h) - lo  # pairs (t, t + h) with t in [a, b) and t + h < n
            if e > a - lo:
                lag_acc[..., j, :, :] += np.matmul(c[..., a - lo + h : e + h], np.swapaxes(c[..., a - lo : e], -1, -2))
        cum[..., 0] = 0.0
        np.cumsum(c, axis=-1, out=c)
        # W_t = cum[min(t + L + 1, n) - lo] - cum[max(t - L, 0) - lo] for t in [a, b)
        wt = w[..., : b - a]
        k = max(min(b, n - L) - a, 0)
        wt[..., :k] = cum[..., a + L + 1 - lo : a + L + 1 - lo + k]
        wt[..., k:] = cum[..., -1:]  # windows cut at the end, where hi = n
        k = min(max(L - a, 0), b - a)
        wt[..., k:] -= cum[..., a + k - L - lo : b - L - lo]  # windows cut at 0 subtract cum[0] = 0
        acc += np.matmul(wt, np.swapaxes(series[..., a:b], -1, -2))
        w_sum += wt.sum(axis=-1)
    lag_out += lag_acc / n
    acc -= w_sum[..., :, None] * np.swapaxes(mean, -1, -2)
    acc /= n - 1.0
    return 0.5 * (acc + np.swapaxes(acc, -1, -2))


def _geometric_tail_bound(lags: np.ndarray, lag_norms: np.ndarray, n: int) -> float | None:
    """Extrapolate sum_{i > L} |cov(i)| from a geometric fit of the lag decay.

    ``lag_norms`` are the norms of the mean lagged covariances at ``lags``,
    the grid ``_tail_lags(L)``, over paths of length ``n``. Only lags whose
    magnitude clears the MC noise floor (taken from the last five lags) inform
    the fit; when the covariances die out before the cutoff the truncated mass
    is reported as 0. There is no bound (None) for L < 5, or for L > n // 2,
    where each of the last lags averages fewer than n / 2 products per path
    and the noise floor is itself noise.
    """
    L = int(lags[-1]) if lags.size else 0
    if L < 5 or L > n // 2:
        return None
    noise_floor = float(np.median(lag_norms[-5:]))
    keep = lag_norms > max(3.0 * noise_floor, 1e-300)
    if keep.sum() < 4:
        return 0.0  # decayed below MC noise well before the cutoff
    slope, intercept = np.polyfit(lags[keep].astype(float), np.log(lag_norms[keep]), 1)
    rho = math.exp(slope)
    if not 0.0 < rho < 1.0:
        return None  # no geometric decay visible
    at_cutoff = math.exp(intercept + slope * L)
    return 2.0 * at_cutoff * rho / (1.0 - rho)  # both sides of the symmetrized sum


def _scale_indicator_row(sigma: np.ndarray, f_at_q: float) -> np.ndarray:
    d = np.array([1.0, 1.0, -1.0 / f_at_q])
    return sigma * np.einsum("a,b->ab", d, d)


def _singularity_note(sigma: np.ndarray) -> str | None:
    eig = np.linalg.eigvalsh(0.5 * (sigma + sigma.T))
    if eig.min() < _NEAR_SINGULAR_RATIO * max(eig.max(), 1e-300):
        return "near-singular long-run covariance"
    return None


def trivariate_long_run_cov_mc(
    spec: ProcessSpec,
    p: float,
    r: int,
    q_true: float,
    f_at_q: float,
    max_lag: int = 50,
    n_per_rep: int = 10_000,
    n_reps: int = 400,
    seed=0,
    threads: int = 1,
) -> TrivariateLRC:
    """Replication-MC estimate of the trivariate long-run covariance.

    Simulates ``n_reps`` independent paths (stream (seed, rep)), forms the
    truncated lagged-covariance sums of the three component series per path,
    and averages; per-entry MC standard errors come from the spread across
    replications. Refuses inadmissible specs, citing the failed reports, and
    a ``max_lag`` that is not below ``n_per_rep``.
    """
    if max_lag < 0:
        raise ParameterError("max_lag must be >= 0")
    if n_reps < 2:
        raise ParameterError("n_reps must be >= 2")
    if n_per_rep < 2:
        raise ParameterError("n_per_rep must be >= 2")
    if max_lag >= n_per_rep:
        raise ParameterError(f"max_lag must be below n_per_rep = {n_per_rep}, got {max_lag}")
    if not f_at_q > 0:
        raise SingularityError(f"f_at_q must be > 0, got {f_at_q}")
    ok, reports = approve(spec, r)
    if not ok:
        raise refusal(spec, reports)

    rep_sigma = np.empty((n_reps, 3, 3))
    lags = _tail_lags(max_lag)
    lag_acc = np.zeros((n_reps, lags.size, 3, 3))  # per replication, summed in replication order below

    def task(start, stop):
        series = _component_series(simulate_batch(spec, n_per_rep, None, seed, range(start, stop)), r, q_true)
        rep_sigma[start:stop] = _long_run_sum(series, max_lag, lag_out=lag_acc[start:stop])

    run_chunked(n_reps, task, 32 * n_per_rep, threads=threads)  # a row and its (3, n) series
    tail_bound = _geometric_tail_bound(lags, np.linalg.norm(lag_acc.sum(axis=0) / n_reps, axis=(1, 2)), n_per_rep)

    rep_scaled = _scale_indicator_row(rep_sigma, f_at_q)
    sigma = rep_scaled.mean(axis=0)  # exactly symmetric, as every replication's sum is
    mc_se = rep_scaled.std(axis=0, ddof=1) / math.sqrt(n_reps)
    return TrivariateLRC(
        sigma=sigma,
        truncation_lag=max_lag,
        method="replication_mc",
        f_at_q=float(f_at_q),
        q_true=float(q_true),
        p=float(p),
        r=int(r),
        mc_se=mc_se,
        rep_sigma=rep_scaled,
        tail_bound=tail_bound,
        note=_singularity_note(sigma),
    )


# --- kernel density estimate (pilot truth) ------------------------------------------


def _quartiles(x: np.ndarray) -> tuple[float, float]:
    """``np.percentile(x, [75, 25])`` of a 1-D sample, bit for bit, from two
    single-kth partitions of one copy (numpy partitions at up to six kth values
    at once, which costs several times as much).

    At numpy's virtual index v = (n - 1) q, with neighbours i = floor(v) and
    i + 1 (both n - 1, and weight v + 1, at the top), each quartile is numpy's
    ``_lerp`` of that pair of order statistics. The upper pair comes from a
    partition of the copy; the lower pair from a partition of the head it
    leaves, which holds the smallest values.
    """
    n = x.shape[0]
    c = np.array(x, dtype=np.float64)
    out = []
    for q in (0.75, 0.25):
        v = (n - 1) * q
        if v >= n - 1:
            i = j = n - 1
            t = v + 1.0
        else:
            i = math.floor(v)
            j, t = i + 1, v - i
        c.partition(j)
        a, b = (c[:j].max() if i < j else c[j]), c[j]
        d = b - a
        out.append(float(b - d * (1.0 - t) if t >= 0.5 else a + d * t))
        c = c[: j + 1]  # the j + 1 smallest values
    return out[0], out[1]


def silverman_bandwidth(values: np.ndarray) -> float:
    x = np.asarray(values, dtype=float)
    n = x.shape[0]
    std = float(np.std(x, ddof=1)) if n > 1 else 0.0
    q75, q25 = _quartiles(x)
    iqr = float(q75 - q25)
    spread = min(std, iqr / 1.34) if iqr > 0 else std
    return 0.9 * spread * n ** (-0.2)


def gaussian_kde_at(values: np.ndarray, x: float, bandwidth: float | None = None) -> float:
    v = np.asarray(values, dtype=float)
    h = silverman_bandwidth(v) if bandwidth is None else float(bandwidth)
    if not h > 0:
        raise SingularityError("degenerate density estimate: zero kernel bandwidth")
    z = np.subtract(x, v)  # the one n-sized temporary; every step below writes into it
    z /= h
    z *= z
    z *= -0.5
    np.exp(z, out=z)
    return float(z.sum() / (v.shape[0] * h * math.sqrt(2.0 * math.pi)))


# --- remainder terms ---------------------------------------------------------------


def bahadur_remainder(path_or_values, p: float, q_true: float, f_at_q: float, overwrite_input: bool = False):
    """Residual of the quantile linearization q_n(p) ~ q + (p - F_n(q)) / f(q).

    R_n = q_n(p) - q - (p - F_n(q)) / f(q), which is o_P(1/sqrt(n)) under the
    theory; the subtraction orientation is the one the limit argument uses
    (the indicator average plus the remainder reconstructs q_n(p) - q).
    Reduces over the last axis: a float per 1-d sample, one value per row
    of a block. ``overwrite_input`` lets the quantile partition the block in
    place (``sample_quantile``); F_n does not depend on the order.
    """
    if not f_at_q > 0:
        raise SingularityError(f"f_at_q must be > 0, got {f_at_q}")
    q_hat = sample_quantile(path_or_values, p, overwrite_input=overwrite_input)
    return q_hat - q_true - (p - empirical_cdf(path_or_values, q_true)) / f_at_q


def representation_gap(path_or_values, r: int, mu_true: float, a_r_true: float):
    """sqrt(n) residual of the known-mean representation of the moment
    estimator, reduced over the last axis like ``bahadur_remainder``."""
    values = np.asarray(getattr(path_or_values, "values", path_or_values), dtype=np.float64)
    mean = sample_mean(values)
    m_hat = known_mean_abs_moment(values, r, mean)
    m_known = known_mean_abs_moment(values, r, mu_true)
    return math.sqrt(values.shape[-1]) * (m_hat - m_known + (mean - mu_true) * a_r_true)
