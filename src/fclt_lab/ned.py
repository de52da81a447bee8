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

A redrawn past reaches X_0 only through the Markov state at time -k-1 (the m
GARCH volatility states with their m innovations, and the ARMA filter state),
a stationary draw independent of eps_{-k..0} (Wu's physical dependence
coupling). So a scan draws a bank of N = samples states, the ends of
``default_burn_in(spec)``-step paths from the fixed point (as ``simulate``
does), in blocks of about 8 MiB from the stream (seed, _BANK_STREAM). Outer
sample i draws from the stream (seed, i) such a path followed by
eps_{-kmax..0}, then the bank indices of its R redraws. Its X_0 runs from its
own end state over eps_{-kmax..0}, redraw r at each k from its bank state over
eps_{-k..0}, k + 1 steps; the one arithmetic makes a finite-dependence
process give redraws equal to the base bit for bit. Estimates depend on the
largest k and on N, not on chunks or threads; the corrected value estimates
nu^2 (1 + 1/N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .parallel import run_chunked
from .garch import default_burn_in
from .processes import IidSpec, ProcessSpec, innovation_driver, pre_window, values_from_innovations
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
DEFAULT_PRE_WINDOW = 200  # unused here; perfbench/workloads.py reads it for ned_garch's nominal step count
_BLOCK_BYTES = 2**23  # default size of one sample chunk's draws and coupled rows, and of a bank block
_BANK_STREAM = 2**32 - 1  # the bank's stream (seed, _BANK_STREAM); outer sample indices stay below it


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


def _end_states(spec, m, eps):
    """Markov states at the end of the paths ``eps`` (..., T) run from the
    fixed point: their last m innovations, then the carried state."""
    state = values_from_innovations(spec, eps, final_state=True)[1]
    return np.concatenate([eps[..., eps.shape[-1] - m :], state], axis=-1)


def _last_values(spec, m, start, suffix):
    """X_0 of the paths that run from the Markov states ``start`` over the
    innovations ``suffix`` (broadcast against them)."""
    eps = np.concatenate([start[..., :m], np.broadcast_to(suffix, start.shape[:-1] + suffix.shape[-1:])], axis=-1)
    return np.ascontiguousarray(values_from_innovations(spec, eps, state=start[..., m:])[..., -1])


def _scans(spec, functionals, k_values, redraws, samples, seed, chunk_size=None, threads=1):
    """One NedScan per functional over ``k_values``, all from one bank and one
    draw per outer sample (the layout of the module docstring)."""
    ks = [int(k) for k in k_values]
    if not ks:
        raise ParameterError("the k grid is empty: kmax must be >= 1")
    if min(ks) < 0:
        raise ParameterError("k values must be >= 0")
    if redraws < 2 or samples < 2:
        raise ParameterError("need redraws >= 2 and samples >= 2")
    _require_causal(spec)
    dist = innovation_driver(spec)
    m = pre_window(spec)  # GARCH recursion consumes a pre-window of its own
    lead = m + (0 if isinstance(spec, IidSpec) else default_burn_in(spec))  # innovations before eps_{-kmax}
    grid = sorted(set(ks))
    kmax = grid[-1]
    rng = stream_generator(seed, _BANK_STREAM)
    block = max(1, _BLOCK_BYTES // (16 * max(lead, 1)))  # bank rows per draw: their innovations and values
    draws = (dist.sample(rng, (min(block, samples - lo), lead)) for lo in range(0, samples, block))
    bank = np.concatenate([_end_states(spec, m, eps) for eps in draws])
    if chunk_size is None:
        chunk_size = max(1, _BLOCK_BYTES // (8 * (lead + kmax + 1 + redraws * (bank.shape[1] + m + kmax + 1))))
    d_all = np.empty((len(functionals), len(grid), 2, samples))  # raw and corrected terms

    def task(start, stop):
        rngs = [stream_generator(seed, i) for i in range(start, stop)]
        base = np.array([dist.sample(rng, lead + kmax + 1) for rng in rngs])  # each stream: its path, then its picks
        picks = np.array([rng.integers(samples, size=redraws) for rng in rngs])
        fixed = base[:, lead:]  # eps_{-kmax..0}
        x0 = _last_values(spec, m, _end_states(spec, m, base[:, :lead]), fixed)
        g_base = [functional.apply(x0) for functional in functionals]
        starts = bank[picks]  # (rows, R, m + S)
        for j, k in enumerate(grid):
            x0_redraw = _last_values(spec, m, starts, fixed[:, None, kmax - k :])
            for f, functional in enumerate(functionals):
                g_redraw = functional.apply(x0_redraw)
                # exact summation for the redraw average so identical redraws cancel
                # exactly: finite-dependence processes then give nu_hat = 0, not noise
                avg = np.array([math.fsum(r) for r in g_redraw]) / redraws
                d = (g_base[f] - avg) ** 2
                dev = g_redraw - avg[:, None]
                inner_var = np.einsum("ij,ij->i", dev, dev) / (redraws - 1)
                d_all[f, j, 0, start:stop] = d
                d_all[f, j, 1, start:stop] = d - inner_var / redraws

    run_chunked(samples, task, chunk_size=chunk_size, threads=threads)
    scans = []
    for functional, d_f in zip(functionals, d_all):
        by_k = dict(zip(grid, map(_estimate, d_f)))
        nu, se, nu_jk = zip(*(by_k[k] for k in ks))
        scans.append(NedScan(tuple(ks), nu, se, nu_jk, functional.label(), redraws, samples, fit_decay(ks, nu_jk, se)))
    return scans


def _estimate(d: np.ndarray) -> tuple[float, float, float]:
    """(nu_hat, se, nu_hat_jk) from the raw and corrected terms (2, N) of N outer samples."""
    d_raw, d_jk = d
    n = d_raw.size
    nu2_raw = float(d_raw.sum()) / n
    nu2_jk = float(d_jk.sum()) / n
    var_d_jk = max(float((d_jk * d_jk).sum()) / n - nu2_jk * nu2_jk, 0.0)
    se_nu2 = math.sqrt(var_d_jk / n)
    nu_hat = math.sqrt(max(nu2_raw, 0.0))
    nu_hat_jk = math.sqrt(max(nu2_jk, 0.0))
    se = se_nu2 / (2.0 * nu_hat) if nu_hat > 0 else 0.0
    return nu_hat, se, nu_hat_jk


def estimate_ned(
    spec: ProcessSpec,
    functional: Functional,
    k: int,
    redraws: int = DEFAULT_REDRAWS,
    samples: int = DEFAULT_SAMPLES,
    seed=0,
    chunk_size: int | None = None,
    threads: int = 1,
) -> NedEstimate:
    """Coupling estimate of nu(k) for the given functional of the process.

    This is a scan of the single width k (module docstring). Consistent
    (R, N -> infinity) and upward-biased by Var_inner/R; the corrected value
    removes that bias. ``chunk_size`` outer samples share one block of draws
    and coupled rows (default: a block of about 8 MiB); the result does not
    depend on it or on ``threads``.
    """
    scan = _scans(spec, [functional], [k], redraws, samples, seed, chunk_size, threads)[0]
    [(k, nu_hat, se, nu_hat_jk)] = scan.to_rows()
    return NedEstimate(k=k, nu_hat=nu_hat, se=se, nu_hat_jk=nu_hat_jk, redraws=redraws, samples=samples)


def ned_scan(
    spec: ProcessSpec,
    functional: Functional,
    k_values,
    redraws: int = DEFAULT_REDRAWS,
    samples: int = DEFAULT_SAMPLES,
    seed=0,
    threads: int = 1,
) -> NedScan:
    """nu(k) estimates over a grid of window widths, with a decay fit.

    One bank and one draw per outer sample serve every k (module docstring),
    so an estimate depends on max(k_values) as well as on its own k. The grid
    may be unsorted and repeat a k; an empty grid raises ParameterError.
    """
    return _scans(spec, [functional], k_values, redraws, samples, seed, threads=threads)[0]


def fit_decay(k_values, nu_hat, se=None) -> DecayFit:
    """Least-squares decay fit: log nu vs k (geometric) and vs log k (polynomial).

    Given the standard errors ``se`` of ``nu_hat``, each point weighs
    (nu/se)^2 on log nu (the delta method); otherwise all weigh alike.
    Returns the model with the smaller weighted residual, and its weighted
    R^2; all-zero scans come back degenerate (finite-dependence process).
    """
    ks = np.asarray(k_values, dtype=float)
    nus = np.asarray(nu_hat, dtype=float)
    keep = (nus > 0) & (ks > 0)
    if se is not None:
        keep &= np.asarray(se, dtype=float) > 0
    if keep.sum() < 4:
        return DecayFit(model="degenerate", rate=0.0, r_squared=float("nan"))
    ks, log_nu = ks[keep], np.log(nus[keep])
    sqrt_w = np.ones_like(ks) if se is None else nus[keep] / np.asarray(se, dtype=float)[keep]
    w = sqrt_w**2

    def ls_fit(x):
        slope, intercept = np.polyfit(x, log_nu, 1, w=sqrt_w)
        resid = log_nu - (slope * x + intercept)
        ss_tot = float(np.sum(w * (log_nu - np.sum(w * log_nu) / np.sum(w)) ** 2))
        r2 = 1.0 - float(np.sum(w * resid**2)) / ss_tot if ss_tot > 0 else 1.0
        return slope, r2  # one ss_tot for both models: the larger R^2 has the smaller residual

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

    All three come from one coupled block per outer sample and equal three
    ``ned_scan`` calls with these arguments. Checks the square-root degradation
    qualitatively: fitted geometric rates of the functional scans should be no
    better (no smaller) than the identity rate, up to MC tolerance.
    """
    names = ("identity", "indicator", "abs_pow")
    functionals = [Functional("identity"), Functional("indicator_leq", x_threshold), Functional("abs_pow", float(r))]
    scans = dict(zip(names, _scans(spec, functionals, k_values, redraws, samples, seed)))
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
