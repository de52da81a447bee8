"""Numerical near-epoch-dependence diagnostics.

nu(k) measures how well X_0 (or a functional of it) is approximated by its
conditional expectation given the innovations inside a window of width k.
For a causal spec the conditional expectation given the two-sided window
equals the one given eps_{-k..0}, so it is approximated by coupling: hold
eps_{-k..0} fixed, redraw the innovations further in the past R times, and
average the functional over the redraws. The squared estimate averages
(functional - redraw average)^2 over N outer samples; the redraw average
inflates it by Var_inner / R, and a corrected value with that term removed
is reported alongside the raw one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .parallel import run_chunked
from .processes import ProcessSpec, innovation_driver, pre_window, values_from_innovations
from .arma import ArmaSpec
from .rng import stream_generator

__all__ = [
    "Functional",
    "NedEstimate",
    "NedScan",
    "DecayFit",
    "estimate_ned",
    "ned_scan",
    "fit_decay",
    "functional_ned_comparison",
]

DEFAULT_REDRAWS = 64
DEFAULT_SAMPLES = 4096
DEFAULT_PRE_WINDOW = 200


@dataclass(frozen=True)
class Functional:
    """Transform applied to X_0 before measuring the approximation error."""

    kind: str  # identity | abs_pow | indicator_leq
    arg: float | None = None

    def __post_init__(self):
        if self.kind not in ("identity", "abs_pow", "indicator_leq"):
            raise ParameterError(f"unknown functional {self.kind!r}")
        if self.kind == "identity" and self.arg is not None:
            raise ParameterError("identity takes no argument")
        if self.kind == "abs_pow" and (self.arg is None or self.arg <= 0):
            raise ParameterError("abs_pow requires a positive exponent")
        if self.kind == "indicator_leq" and self.arg is None:
            raise ParameterError("indicator_leq requires a threshold")

    def apply(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "identity":
            return x
        if self.kind == "abs_pow":
            return np.abs(x) ** self.arg
        return (x <= self.arg).astype(np.float64)

    def label(self) -> str:
        if self.kind == "identity":
            return "identity"
        return f"{self.kind}:{self.arg:g}"

    @classmethod
    def parse(cls, text: str) -> "Functional":
        if text == "identity":
            return cls("identity")
        if ":" in text:
            kind, arg = text.split(":", 1)
            try:
                value = float(arg)
            except ValueError:
                raise ParameterError(f"functional {kind} needs a numeric argument, got {arg!r}") from None
            return cls(kind, value)
        raise ParameterError(f"cannot parse functional {text!r} (use identity, abs_pow:R, indicator_leq:X)")


@dataclass(frozen=True)
class NedEstimate:
    k: int
    nu_hat: float
    se: float
    nu_hat_jk: float
    redraws: int
    samples: int


@dataclass(frozen=True)
class DecayFit:
    model: str  # geometric | polynomial | degenerate
    rate: float  # geometric rate in (0,1), or polynomial size tau (nu ~ k^-tau)
    r_squared: float


@dataclass(frozen=True)
class NedScan:
    k_values: tuple[int, ...]
    nu_hat: tuple[float, ...]
    se: tuple[float, ...]
    nu_hat_jk: tuple[float, ...]
    functional: str
    redraws: int
    samples: int
    fit: DecayFit | None = None

    def to_rows(self) -> list[tuple]:
        return list(zip(self.k_values, self.nu_hat, self.se, self.nu_hat_jk))


def _require_causal(spec: ProcessSpec):
    if isinstance(spec, ArmaSpec):
        spec.require_causal()


def estimate_ned(
    spec: ProcessSpec,
    functional: Functional,
    k: int,
    redraws: int = DEFAULT_REDRAWS,
    samples: int = DEFAULT_SAMPLES,
    seed=0,
    pre_window_len: int = DEFAULT_PRE_WINDOW,
    chunk_size: int = 256,
    threads: int = 1,
) -> NedEstimate:
    """Coupling estimate of nu(k) for the given functional of the process.

    Outer sample i uses the stream (seed, i): a base innovation window
    eps_{-M..0} with M = k + pre_window_len, then R redraws of the entries
    before -k. Consistent (R, N -> infinity) and upward-biased by
    Var_inner/R; the corrected value removes that bias.
    """
    if k < 0:
        raise ParameterError("k must be >= 0")
    if redraws < 2 or samples < 2:
        raise ParameterError("need redraws >= 2 and samples >= 2")
    _require_causal(spec)
    dist = innovation_driver(spec)
    m_extra = pre_window(spec)  # GARCH recursion consumes a pre-window of its own
    window = k + pre_window_len + m_extra + 1  # innovations at times -(window-1)..0
    n_fixed = k + 1  # eps_{-k..0} held fixed
    n_redrawn = window - n_fixed

    d_all = np.empty(samples)
    d_jk_all = np.empty(samples)

    def task(start, stop):
        count = stop - start
        eps = np.empty((count, redraws + 1, window))
        for row in range(count):
            rng = stream_generator(seed, start + row)
            base = dist.sample(rng, window)
            eps[row, 0] = base
            eps[row, 1:, n_redrawn:] = base[n_redrawn:]
            eps[row, 1:, :n_redrawn] = dist.sample(rng, (redraws, n_redrawn))
        x0 = np.ascontiguousarray(values_from_innovations(spec, eps)[..., -1])
        g = functional.apply(x0)
        g_base = g[:, 0]
        g_redraw = np.ascontiguousarray(g[:, 1:])
        # exact summation for the redraw average so identical redraws cancel
        # exactly: finite-dependence processes then give nu_hat = 0, not noise
        avg = np.array([math.fsum(row) for row in g_redraw]) / redraws
        d = (g_base - avg) ** 2
        dev = g_redraw - avg[:, None]
        inner_var = np.einsum("ij,ij->i", dev, dev) / (redraws - 1)
        d_all[start:stop] = d
        d_jk_all[start:stop] = d - inner_var / redraws

    run_chunked(samples, task, chunk_size=chunk_size, threads=threads)

    n = samples
    nu2_raw = float(d_all.sum()) / n
    nu2_jk = float(d_jk_all.sum()) / n
    var_d_jk = max(float((d_jk_all * d_jk_all).sum()) / n - nu2_jk * nu2_jk, 0.0)
    se_nu2 = math.sqrt(var_d_jk / n)
    nu_hat = math.sqrt(max(nu2_raw, 0.0))
    nu_hat_jk = math.sqrt(max(nu2_jk, 0.0))
    se = se_nu2 / (2.0 * nu_hat) if nu_hat > 0 else 0.0
    return NedEstimate(k=k, nu_hat=nu_hat, se=se, nu_hat_jk=nu_hat_jk, redraws=redraws, samples=samples)


def ned_scan(
    spec: ProcessSpec,
    functional: Functional,
    k_values,
    redraws: int = DEFAULT_REDRAWS,
    samples: int = DEFAULT_SAMPLES,
    seed=0,
    pre_window_len: int = DEFAULT_PRE_WINDOW,
    threads: int = 1,
) -> NedScan:
    """nu(k) estimates over a grid of window widths, with a decay fit."""
    ks = [int(k) for k in k_values]
    if any(k < 0 for k in ks):
        raise ParameterError("k values must be >= 0")
    ests = [
        estimate_ned(
            spec,
            functional,
            k,
            redraws=redraws,
            samples=samples,
            seed=seed,
            pre_window_len=pre_window_len,
            threads=threads,
        )
        for k in ks
    ]
    nu_jk = tuple(e.nu_hat_jk for e in ests)
    return NedScan(
        k_values=tuple(ks),
        nu_hat=tuple(e.nu_hat for e in ests),
        se=tuple(e.se for e in ests),
        nu_hat_jk=nu_jk,
        functional=functional.label(),
        redraws=redraws,
        samples=samples,
        fit=fit_decay(ks, nu_jk),
    )


def fit_decay(k_values, nu_hat) -> DecayFit:
    """Least-squares decay fit: log nu vs k (geometric) and vs log k (polynomial).

    Returns whichever model explains more variance; all-zero scans come back
    degenerate (finite-dependence process).
    """
    ks = np.asarray(k_values, dtype=float)
    nus = np.asarray(nu_hat, dtype=float)
    keep = (nus > 0) & (ks > 0)
    if keep.sum() < 4:
        return DecayFit(model="degenerate", rate=0.0, r_squared=float("nan"))
    ks, log_nu = ks[keep], np.log(nus[keep])

    def ls_fit(x):
        slope, intercept = np.polyfit(x, log_nu, 1)
        resid = log_nu - (slope * x + intercept)
        ss_tot = float(np.sum((log_nu - log_nu.mean()) ** 2))
        r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
        return slope, r2

    slope_g, r2_g = ls_fit(ks)
    slope_p, r2_p = ls_fit(np.log(ks))
    if r2_g >= r2_p:
        return DecayFit(model="geometric", rate=float(np.exp(slope_g)), r_squared=r2_g)
    return DecayFit(model="polynomial", rate=float(-slope_p), r_squared=r2_p)


@dataclass(frozen=True)
class FunctionalComparison:
    identity: NedScan
    indicator: NedScan
    abs_pow: NedScan
    degradation_consistent: bool  # functional rates not better than the identity rate


def functional_ned_comparison(
    spec: ProcessSpec,
    x_threshold: float,
    r: int,
    k_values,
    redraws: int = DEFAULT_REDRAWS,
    samples: int = DEFAULT_SAMPLES,
    seed=0,
    rate_tolerance: float = 0.1,
) -> FunctionalComparison:
    """Side-by-side scans for identity, indicator and |x|^r functionals.

    Checks the square-root degradation qualitatively: fitted geometric rates
    of the functional scans should be no better (no smaller) than the
    identity rate, up to MC tolerance.
    """
    scans = {
        "identity": ned_scan(spec, Functional("identity"), k_values, redraws, samples, seed),
        "indicator": ned_scan(spec, Functional("indicator_leq", x_threshold), k_values, redraws, samples, seed),
        "abs_pow": ned_scan(spec, Functional("abs_pow", float(r)), k_values, redraws, samples, seed),
    }
    base = scans["identity"].fit
    consistent = True
    if base is not None and base.model == "geometric":
        for name in ("indicator", "abs_pow"):
            fit = scans[name].fit
            if fit is not None and fit.model == "geometric" and fit.rate < base.rate - rate_tolerance:
                consistent = False
    return FunctionalComparison(
        identity=scans["identity"],
        indicator=scans["indicator"],
        abs_pow=scans["abs_pow"],
        degradation_consistent=consistent,
    )
