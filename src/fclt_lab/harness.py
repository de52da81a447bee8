"""Monte Carlo experiments confronting empirical estimator distributions with
their theoretical targets.

Each experiment simulates M independent replications (stream (seed, rep))
and reads one statistic on prefixes of each replication's path: the clt pair
on the whole path, the fclt pairs on the prefixes floor(n t), a ladder's
remainder on every rung. All of them run one path, ``_replications``: each
(replications x time) chunk is one simulated block at the longest prefix,
every prefix is a view of it, and a replication with any non-finite entry is
quarantined. The chunks are sized from the byte budget
``parallel.CHUNK_BYTES`` over the row length, so memory per chunk is about
``max(CHUNK_BYTES, one row)`` for every experiment, and their boundaries do
not depend on the worker count, so reports are byte-identical for any
--threads value. The empirical covariances are compared against a target
with per-entry Monte Carlo standard errors.

A clt or fclt report serializes its own fields by one rule: arrays and
tuples become lists and a nested report or target gives its own ``to_obj``;
the fclt report adds only its note. A decay table's JSON shape (columns and
rows) differs from its fields, so it keeps its own.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields

import numpy as np

from .asymptotics import Gamma2, bahadur_remainder, representation_gap
from .conditions import approve, refusal
from .errors import ParameterError, RefusalError
from .estimators import _check_p, _check_r, centred_abs_moment, checked_t_grid, prefix_lengths, sample_quantile
from .parallel import run_chunked
from .processes import ProcessSpec, simulate_batch, spec_fingerprint
from .truth import Truth

__all__ = [
    "ExperimentConfig",
    "CltReport",
    "FcltReport",
    "DecayTable",
    "run_clt_experiment",
    "run_fclt_experiment",
    "run_bahadur_experiment",
    "run_representation_experiment",
]

_MIN_REPS_FOR_VERDICT = 10
_DECAY_SLACK = 0.10


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs of one Monte Carlo experiment."""

    spec: ProcessSpec
    p: float
    r: int
    n: int
    reps: int
    seed: int | tuple = 0
    truth: Truth | None = None
    target: Gamma2 | None = None
    t_grid: tuple[float, ...] | None = None
    n_ladder: tuple[int, ...] | None = None
    se_threshold: float = 3.0  # pass/fail band in MC standard errors

    def __post_init__(self):
        if self.reps < 2:
            raise ParameterError("reps must be >= 2")
        _check_p(self.p)
        _check_r(self.r)
        if self.n < 1:
            raise ParameterError("n must be >= 1")
        if not (math.isfinite(self.se_threshold) and self.se_threshold > 0):
            raise ParameterError(f"se_threshold must be a finite number > 0, got {self.se_threshold}")


def _fields_obj(report) -> dict:
    """A report's fields as JSON values: arrays and tuples become lists, and a
    nested report or target gives its own ``to_obj``."""
    obj = {}
    for field in fields(report):
        value = getattr(report, field.name)
        if isinstance(value, np.ndarray):
            value = value.tolist()
        elif isinstance(value, tuple):
            value = list(value)
        elif hasattr(value, "to_obj"):
            value = value.to_obj()
        obj[field.name] = value
    return obj


@dataclass(frozen=True)
class CltReport:
    empirical_mean: np.ndarray  # 2-vector of sqrt(n)-scaled centered estimators
    empirical_cov: np.ndarray  # 2x2
    cov_se: np.ndarray  # 2x2 per-entry MC standard errors
    target: Gamma2 | None
    per_entry_z: np.ndarray | None  # 2x2 deviations / SE
    verdict: list[list[str]]  # pass | fail | inconclusive | no-target
    marginal_skewness: np.ndarray
    marginal_excess_kurtosis: np.ndarray
    skewness_z: np.ndarray
    kurtosis_z: np.ndarray
    used: int
    quarantined: int
    config_fingerprint: str
    pilot_fingerprint: str | None = None

    def to_obj(self) -> dict:
        return _fields_obj(self)


@dataclass(frozen=True)
class FcltReport:
    t_grid: tuple[float, ...]
    prefix_fractions: tuple[float, ...]  # realized floor(n t)/n used for scaling
    cov_by_t: np.ndarray  # (len(t_grid), 2, 2)
    scaling_z: np.ndarray  # (len(t_grid), 2, 2): (cov(t) - tau cov(1)) / SE
    increment_corr: np.ndarray  # (n_pairs, 2, 2) correlations of disjoint increments
    increment_corr_z: np.ndarray
    increment_windows: list[list[float]]
    clt: CltReport  # the t = 1 slice
    used: int
    quarantined: int
    config_fingerprint: str
    # grid-based checks cover finite-dimensional consequences of the
    # process-level limit only; full weak convergence is out of numerical reach

    def to_obj(self) -> dict:
        return _fields_obj(self) | {"note": "finite-dimensional checks of the process-level limit"}


@dataclass(frozen=True)
class DecayTable:
    statistic: str  # which remainder the table tracks
    n_values: tuple[int, ...]
    median: tuple[float, ...]
    p90: tuple[float, ...]
    std: tuple[float, ...]
    se: tuple[float, ...]
    verdict: str  # pass | fail | inconclusive
    used: tuple[int, ...]
    quarantined: tuple[int, ...]
    config_fingerprint: str
    pilot_fingerprint: str | None = None

    def rows(self) -> list[tuple]:
        return list(zip(self.n_values, self.median, self.p90, self.std, self.se))

    def to_obj(self) -> dict:
        return {
            "statistic": self.statistic,
            "columns": ["n", "median", "p90", "std", "se"],
            "rows": [list(r) for r in self.rows()],
            "verdict": self.verdict,
            "used": list(self.used),
            "quarantined": list(self.quarantined),
            "config_fingerprint": self.config_fingerprint,
            "pilot_fingerprint": self.pilot_fingerprint,
        }


# --- shared helpers -------------------------------------------------------------


def _refuse_if_inadmissible(cfg: ExperimentConfig, require=("q_true", "m_true"), need_density: bool = True):
    ok, reports = approve(cfg.spec, cfg.r)
    if not ok:
        raise refusal(cfg.spec, reports)
    if cfg.truth is None:
        raise RefusalError("experiment refused: no truth values supplied")
    cfg.truth.require(*require)
    if need_density and (cfg.truth.f_at_q is None or not cfg.truth.f_at_q > 0):
        raise RefusalError(
            "experiment refused: positive density at the quantile is unverifiable (f_at_q absent or <= 0)"
        )


def _cov_and_se(y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample covariance of rows of y (M, d) with delta-method entry SEs."""
    m = y.shape[0]
    mean = y.mean(axis=0)
    z = y - mean
    cov = (z.T @ z) / (m - 1)
    # Var(cov_ab) ~ (E[(ya zb)^2] - cov_ab^2) / M on centered data
    second = np.einsum("ma,mb->ab", z * z, z * z) / m
    var = np.maximum(second - cov * cov, 0.0) / m
    return mean, cov, np.sqrt(var)


def _moments_z(y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    m = y.shape[0]
    z = y - y.mean(axis=0)
    s = z.std(axis=0, ddof=0)
    skew = (z**3).mean(axis=0) / s**3
    kurt = (z**4).mean(axis=0) / s**4 - 3.0
    return skew, kurt, skew / math.sqrt(6.0 / m), kurt / math.sqrt(24.0 / m)


def _entry_verdicts(cov, se, target: Gamma2 | None, threshold: float, used: int):
    if target is None:
        return None, [["no-target", "no-target"], ["no-target", "no-target"]]
    tgt = target.as_matrix()
    z = np.where(se > 0, np.abs(cov - tgt) / np.where(se > 0, se, 1.0), np.inf)
    scale = np.sqrt(np.outer(np.abs(np.diag(tgt)), np.abs(np.diag(tgt))))
    verdict = []
    for a in range(2):
        row = []
        for b in range(2):
            if used < _MIN_REPS_FOR_VERDICT or se[a, b] > max(scale[a, b], 1e-300):
                row.append("inconclusive")
            elif z[a, b] <= threshold:
                row.append("pass")
            else:
                row.append("fail")
        verdict.append(row)
    return z, verdict


def _config_fingerprint(cfg: ExperimentConfig) -> str:
    desc = (  # every run takes the default burn-in; "burn=None" keeps the fingerprints of earlier runs
        f"{spec_fingerprint(cfg.spec)}|p={cfg.p}|r={cfg.r}|n={cfg.n}|reps={cfg.reps}|"
        f"seed={cfg.seed}|t_grid={cfg.t_grid}|ladder={cfg.n_ladder}|burn=None"
    )
    return hashlib.sha256(desc.encode()).hexdigest()[:16]


def _replications(cfg: ExperimentConfig, lengths, stat, threads: int) -> tuple[np.ndarray, int, int]:
    """The finite rows of stat's prefix table over the M replications, with the used and quarantined counts.

    Each chunk simulates one block at the longest length, and stat gets its
    prefixes ``values[:, :k]`` for k in the ascending ``lengths`` and returns
    the chunk's (rows, columns) table. stat owns the block: it may permute a
    prefix in place, which keeps every longer prefix's set of values. A row
    with any non-finite entry is quarantined (a diverging path is a NaN row);
    fewer than two used rows refuse.
    """
    parts = {}  # keyed by chunk start

    def task(start, stop):
        values = simulate_batch(cfg.spec, lengths[-1], None, cfg.seed, range(start, stop))
        parts[start] = stat([values[:, :k] for k in lengths])

    run_chunked(cfg.reps, task, 8 * lengths[-1], threads=threads)
    table = np.concatenate([parts[start] for start in sorted(parts)])
    finite = np.isfinite(table).all(axis=1)
    used = int(finite.sum())
    if used < 2:
        raise RefusalError("all replications quarantined (non-finite estimates)")
    return table[finite], used, cfg.reps - used


def _pairs(cfg: ExperimentConfig, grid: tuple[float, ...], threads: int):
    """The scaled centred pairs sqrt(n) t (theta_k - theta) on the prefixes k = floor(n t) of each
    replication, as (used, len(grid), 2), with the realized fractions k / n and the counts."""
    lengths = prefix_lengths(cfg.n, grid)
    fractions = tuple(k / cfg.n for k in lengths)
    truth, root_n = cfg.truth, math.sqrt(cfg.n)

    def stat(prefixes):
        moments = [centred_abs_moment(x, cfg.r) for x in prefixes]  # order-dependent sums: on the untouched block
        cols = []
        for frac, x, m_hat in zip(fractions, prefixes, moments):
            q_hat = sample_quantile(x, cfg.p, overwrite_input=True)  # shortest first; see _replications
            cols += [root_n * frac * (q_hat - truth.q_true), root_n * frac * (m_hat - truth.m_true)]
        return np.stack(cols, axis=-1)

    y, used, quarantined = _replications(cfg, lengths, stat, threads)
    return y.reshape(used, len(grid), 2), fractions, used, quarantined


# --- experiments ------------------------------------------------------------------


def run_clt_experiment(cfg: ExperimentConfig, threads: int = 1) -> CltReport:
    """Empirical covariance of the sqrt(n)-scaled centered pair vs its target."""
    _refuse_if_inadmissible(cfg)
    y, _, used, quarantined = _pairs(cfg, (1.0,), threads)
    return _clt_from_samples(cfg, y[:, -1], used, quarantined)


def run_fclt_experiment(cfg: ExperimentConfig, threads: int = 1) -> FcltReport:
    """Partial-sum covariances over a t-grid: linear-in-t growth and
    decorrelation of increments over disjoint windows."""
    if not cfg.t_grid:
        raise ParameterError("fclt experiment needs a t_grid")
    _refuse_if_inadmissible(cfg)
    grid = checked_t_grid(cfg.t_grid)  # before the fractions: a NaN or infinite t has no floor
    if grid[-1] != 1.0:
        grid = grid + (1.0,)
    y, fractions, used, quarantined = _pairs(cfg, grid, threads)

    # per-t covariance and the linear-growth z statistic
    cov_by_t = np.stack([_cov_and_se(y[:, i])[1] for i in range(len(grid))])
    centered = y - y.mean(axis=0, keepdims=True)
    scaling_z = np.zeros_like(cov_by_t)
    last = centered[:, -1]
    for i, frac in enumerate(fractions):
        u = np.einsum("ma,mb->mab", centered[:, i], centered[:, i]) - frac * np.einsum(
            "ma,mb->mab", last, last
        )
        diff = cov_by_t[i] - frac * cov_by_t[-1]
        se = u.std(axis=0, ddof=1) / math.sqrt(used)
        scaling_z[i] = np.where(se > 0, np.abs(diff) / np.where(se > 0, se, 1.0), 0.0)

    # increments over consecutive windows (t_{w-1}, t_w], starting at t_0 = 0
    inc = np.diff(np.concatenate([np.zeros((used, 1, 2)), y], axis=1), axis=1)
    windows = [[0.0 if w == 0 else grid[w - 1], grid[w]] for w in range(len(grid))]
    pair_idx = [(a, b) for a in range(len(grid)) for b in range(a + 1, len(grid))]
    corr = np.empty((len(pair_idx), 2, 2))
    for k, (a, b) in enumerate(pair_idx):
        za = inc[:, a] - inc[:, a].mean(axis=0)
        zb = inc[:, b] - inc[:, b].mean(axis=0)
        num = np.einsum("ma,mb->ab", za, zb) / used
        den = np.sqrt(np.outer((za * za).mean(axis=0), (zb * zb).mean(axis=0)))
        corr[k] = num / np.where(den > 0, den, 1.0)
    corr_z = corr * math.sqrt(used)

    clt = _clt_from_samples(cfg, y[:, -1, :], used, quarantined)
    return FcltReport(
        t_grid=grid,
        prefix_fractions=fractions,
        cov_by_t=cov_by_t,
        scaling_z=scaling_z,
        increment_corr=corr,
        increment_corr_z=corr_z,
        increment_windows=windows,
        clt=clt,
        used=used,
        quarantined=quarantined,
        config_fingerprint=_config_fingerprint(cfg),
    )


def _clt_from_samples(cfg: ExperimentConfig, y: np.ndarray, used: int, quarantined: int) -> CltReport:
    """The CLT report of finite scaled estimator pairs y (used, 2)."""
    mean, cov, se = _cov_and_se(y)
    skew, kurt, skew_z, kurt_z = _moments_z(y)
    z, verdict = _entry_verdicts(cov, se, cfg.target, cfg.se_threshold, used)
    return CltReport(
        empirical_mean=mean,
        empirical_cov=cov,
        cov_se=se,
        target=cfg.target,
        per_entry_z=z,
        verdict=verdict,
        marginal_skewness=skew,
        marginal_excess_kurtosis=kurt,
        skewness_z=skew_z,
        kurtosis_z=kurt_z,
        used=used,
        quarantined=quarantined,
        config_fingerprint=_config_fingerprint(cfg),
        pilot_fingerprint=cfg.truth.pilot_fingerprint if cfg.truth else None,
    )


def _decay_verdict(series_list: list[tuple[float, ...]], n_count: int) -> str:
    if n_count < 2:
        return "inconclusive"
    for series in series_list:
        for a, b in zip(series, series[1:]):
            if b > a * (1.0 + _DECAY_SLACK):
                return "fail"
    return "pass"


def _run_ladder(cfg: ExperimentConfig, statistic: str, stat, decay_on: str, threads: int) -> DecayTable:
    """The decay table of stat along the n ladder, from one block per chunk.

    Replication rep is the stream (seed, rep) on every rung, so a rung's paths
    are the prefixes of the longest rung's, and stat reads every rung as a
    prefix of one block, in ascending n whatever the ladder's order (see
    ``_replications``). A replication whose path diverges is a NaN row and is
    quarantined on every rung.
    """
    if not cfg.n_ladder:
        raise ParameterError("ladder experiment needs n_ladder")
    ladder = tuple(int(n) for n in cfg.n_ladder)
    if min(ladder) < 1:
        raise ParameterError("n must be >= 1")
    lengths = sorted(ladder)
    table, used, quarantined = _replications(
        cfg, lengths, lambda prefixes: np.stack([stat(x) for x in prefixes], axis=-1), threads
    )
    columns = dict(zip(lengths, table.T.copy()))  # contiguous columns: the sums run as on a rung of its own
    med, p90, std, se = [], [], [], []
    for n in ladder:
        vals = columns[n]
        a = np.abs(vals)
        med.append(float(np.median(a)))
        p90.append(float(np.percentile(a, 90.0)))
        std.append(float(vals.std(ddof=1)))
        se.append(std[-1] / math.sqrt(used))
    series = {"median+p90": [tuple(med), tuple(p90)], "std": [tuple(std)]}[decay_on]
    return DecayTable(
        statistic=statistic,
        n_values=ladder,
        median=tuple(med),
        p90=tuple(p90),
        std=tuple(std),
        se=tuple(se),
        verdict=_decay_verdict(series, len(ladder)),
        used=(used,) * len(ladder),
        quarantined=(quarantined,) * len(ladder),
        config_fingerprint=_config_fingerprint(cfg),
        pilot_fingerprint=cfg.truth.pilot_fingerprint if cfg.truth else None,
    )


def run_bahadur_experiment(cfg: ExperimentConfig, threads: int = 1) -> DecayTable:
    """Median and 90th percentile of |sqrt(n) R_n| along the n ladder.

    Pass iff both statistics are non-increasing up to 10 percent slack.
    """
    _refuse_if_inadmissible(cfg, require=("q_true",))
    truth = cfg.truth

    def stat(values):  # partitions the harness's block in place; see _replications
        remainder = bahadur_remainder(values, cfg.p, truth.q_true, truth.f_at_q, overwrite_input=True)
        return math.sqrt(values.shape[-1]) * remainder

    return _run_ladder(cfg, "sqrt(n) * bahadur remainder", stat, "median+p90", threads)


def run_representation_experiment(cfg: ExperimentConfig, threads: int = 1) -> DecayTable:
    """Spread of the moment-representation residual along the n ladder.

    The residual is o_P(1), not o_P(1/sqrt(n)): the verdict tracks the
    standard deviation decreasing (10 percent slack).
    """
    _refuse_if_inadmissible(cfg, require=("mu", "a_r"), need_density=False)
    truth = cfg.truth

    def stat(values):  # order-dependent sums: reads the prefix untouched
        return representation_gap(values, cfg.r, truth.mu, truth.a_r)

    return _run_ladder(cfg, "moment representation gap", stat, "std", threads)
