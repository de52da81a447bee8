"""True quantile, density, mean and moment values for model-based runs.

Closed forms are used where the marginal law is known exactly (iid laws;
ARMA with iid normal innovations, whose marginal is normal; the variance of a
stationary GARCH). Everything else comes from a high-accuracy Monte Carlo
pilot whose provenance (seed, size, fingerprint) is recorded entry by entry.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .arma import ArmaSpec, causal_ma_coefficients
from .asymptotics import a_r_from_sample, a_r_quadrature, gaussian_kde_at
from .errors import ParameterError, RefusalError, SingularityError
from .garch import AugGarchSpec
from .innovations import InnovationDist
from .parallel import run_chunked
from .processes import IidSpec, ProcessSpec, innovation_driver, simulate_batch, spec_fingerprint
from .estimators import known_mean_abs_moment, sample_mean, sample_quantile

__all__ = ["Truth", "TRUTH_ENTRIES", "closed_form_truth", "pilot_truth", "truth_from_sample", "resolve_truth"]

PILOT_N = 10_000_000
PILOT_PATHS = 64  # the pilot pools this many independent stationary paths
TRUTH_ENTRIES = ("q_true", "f_at_q", "mu", "m_true", "a_r")


@dataclass(frozen=True)
class Truth:
    """True values the experiments center and scale by, with provenance tags."""

    q_true: float | None
    f_at_q: float | None
    mu: float | None
    m_true: float | None
    a_r: float | None
    p: float
    r: int
    provenance: dict[str, str] = field(default_factory=dict)
    pilot_fingerprint: str | None = None

    def require(self, *names: str):
        """Refuse the run unless every named entry is known."""
        missing = [k for k in names if getattr(self, k) is None]
        if missing:
            raise RefusalError(f"truth entries missing: {', '.join(missing)}")

    def to_obj(self) -> dict:
        return asdict(self)


def _normal_marginal_truth(sigma_x: float, p: float, r: int) -> Truth:
    std = InnovationDist()
    q = float(sigma_x * std.ppf(p))
    f = float(std.pdf(q / sigma_x) / sigma_x)
    # E|Z|^r = 2^(r/2) Gamma((r+1)/2) / sqrt(pi)
    abs_moment = 2.0 ** (r / 2.0) * math.gamma((r + 1) / 2.0) / math.sqrt(math.pi)
    tags = dict.fromkeys(TRUTH_ENTRIES, "closed-form")
    return Truth(
        q_true=q,
        f_at_q=f,
        mu=0.0,
        m_true=float(sigma_x**r * abs_moment),
        a_r=0.0,  # symmetric marginal
        p=p,
        r=r,
        provenance=tags,
    )


def _arma_marginal_std(spec: ArmaSpec) -> float:
    psi = causal_ma_coefficients(spec, 4000)
    tail = abs(psi[-1])
    total = float(np.dot(psi, psi))
    if tail * tail > 1e-14 * total:
        raise ParameterError("MA coefficients did not decay enough for a closed-form marginal")
    return math.sqrt(total)


def closed_form_truth(spec: ProcessSpec, p: float, r: int) -> Truth | None:
    """Exact truth when the marginal admits one, else None."""
    if not 0.0 < p < 1.0:  # p = 0 or 1 has an infinite quantile and no density there
        raise ParameterError(f"quantile level p must lie in (0, 1), got {p}")
    if isinstance(spec, IidSpec):
        dist = spec.innovation
        if dist.is_discrete:
            return None  # no density: quantile-side truth undefined
        q = float(dist.ppf(p))
        f = float(dist.pdf(q))
        mu = dist.expect(lambda x: x)
        m_true = dist.expect(lambda x: np.abs(x - mu) ** r)
        tags = dict.fromkeys(TRUTH_ENTRIES, "closed-form")
        return Truth(q, f, mu, m_true, a_r_quadrature(dist, r, mu), p, r, provenance=tags)
    if isinstance(spec, ArmaSpec) and isinstance(spec.innovation, InnovationDist):
        if spec.innovation.kind == "standard_normal":
            return _normal_marginal_truth(_arma_marginal_std(spec), p, r)
    return None


def _partial_closed_entries(spec: ProcessSpec, r: int) -> dict[str, float]:
    """Entries known exactly even when the full marginal is not."""
    out: dict[str, float] = {}
    if innovation_driver(spec).is_symmetric:  # a symmetric driver gives a symmetric marginal
        out["mu"] = 0.0
        out["a_r"] = 0.0
    if isinstance(spec, AugGarchSpec) and spec.model == "garch" and r == 2:
        persistence = sum(spec.alpha) + sum(spec.beta)
        if persistence < 1.0:
            out["m_true"] = spec.omega / (1.0 - persistence)  # E[X^2], mu = 0
    return out


def truth_from_sample(
    values: np.ndarray,
    p: float,
    r: int,
    provenance_tag: str = "sample",
    closed: dict | None = None,
    density: bool = True,
) -> Truth:
    """Estimate every truth entry from one large stationary sample.

    Entries given in ``closed`` are exact: they are taken as given, tagged
    ``closed-form`` and not estimated. The moment and a_r estimates centre at
    the sample mean even where ``mu`` is closed. ``density=False`` leaves
    ``f_at_q`` as None without a kernel estimate, for samples whose law need
    not have a density.
    """
    closed = closed or {}
    x = np.asarray(values, dtype=np.float64).ravel()
    q = sample_quantile(x, p)
    f = None
    if density:
        try:
            f = gaussian_kde_at(x, q)
        except SingularityError:  # a degenerate sample has no density estimate
            pass
    est = {"q_true": q, "f_at_q": f}
    if not {"mu", "m_true", "a_r"} <= closed.keys():
        est["mu"] = mu = sample_mean(x)
        if "m_true" not in closed:
            est["m_true"] = known_mean_abs_moment(x, r, mu)  # the centred moment, mean not recomputed
        if "a_r" not in closed:
            est["a_r"] = a_r_from_sample(x, r, mu)
    entries = est | closed
    tags = {k: "closed-form" if k in closed else provenance_tag for k in TRUTH_ENTRIES}
    return Truth(*(entries[k] for k in TRUTH_ENTRIES), p, r, provenance=tags)


def pilot_truth(spec: ProcessSpec, p: float, r: int, seed=0, n: int = PILOT_N) -> Truth:
    """High-accuracy MC pilot: pools independent stationary paths to n draws.

    The ``PILOT_PATHS`` = 64 paths of ceil(n / 64) values each, path i from the
    stream ``(seed, i)``, fill one block, simulated in chunks of paths of
    about ``parallel.CHUNK_BYTES`` (one chunk up to n of about 4 x 10^6); the
    first n values of the row-major block are pooled. Memory peaks in the
    simulation, which holds the block and a chunk's innovations, which the
    GARCH output overwrites, at most 2 x 8n bytes (for ARMA-GARCH also the
    chunk's ARMA filter output, at most 3 x 8n); the statistics hold the
    pooled sample and one n-sized temporary. Entries with exact closed forms
    (mean / a_r under symmetry, the GARCH variance) are taken instead of
    estimated, with provenance recorded. When the driving noise is discrete,
    ``f_at_q`` is left as None, so a run that needs the density refuses.
    """
    if n < 1:
        raise ParameterError(f"pilot n must be >= 1, got {n}")
    per_path = max(1, math.ceil(n / PILOT_PATHS))
    values = np.empty((PILOT_PATHS, per_path))

    def task(start, stop):
        values[start:stop] = simulate_batch(spec, per_path, None, seed, range(start, stop))

    run_chunked(PILOT_PATHS, task, 8 * per_path)
    pooled = values.ravel()[:n]
    fp = hashlib.sha256(
        json.dumps(
            {"spec": spec_fingerprint(spec), "seed": str(seed), "n": n, "paths": PILOT_PATHS},
            sort_keys=True,
        ).encode()
    ).hexdigest()[:16]
    tag = f"pilot-mc(n={n}, seed={seed}, fingerprint={fp})"
    closed = _partial_closed_entries(spec, r)
    # discrete driving noise (Rademacher) gives no verifiable density: no KDE
    est = truth_from_sample(pooled, p, r, tag, closed, density=not innovation_driver(spec).is_discrete)
    return replace(est, pilot_fingerprint=fp)


def resolve_truth(spec: ProcessSpec, p: float, r: int, seed=0, pilot_n: int = PILOT_N) -> Truth:
    """Closed-form truth when available, MC pilot otherwise."""
    exact = closed_form_truth(spec, p, r)
    if exact is not None:
        return exact
    return pilot_truth(spec, p, r, seed=seed, n=pilot_n)
