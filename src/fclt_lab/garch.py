"""Augmented GARCH(p,q) simulation.

The volatility recursion is driven by transforms of lagged innovations,

    state_t = sum_{i=1..P} g_i(eps_{t-i}) + sum_{j=1..Q} c_j(eps_{t-j}) * state_{t-j},

where ``state_t`` is sigma_t^2 raised to a model-specific power (polynomial
group) or log sigma_t^2 (exponential group), and the observed value is
X_t = sigma_t * eps_t. Each named model fixes the transforms g_i, c_j and the
state power; ``generic`` accepts user-supplied callables. Seven models form
the power family of Ding, Granger & Engle (1993), one coefficient
c_j(eps) = alpha_j |z|^(2d) + beta_j with d the state power and
z = |eps| - gamma_j eps (z = eps where gamma_j = 0): apgarch (d = delta),
agarch, garch and arch (d = 1), tgarch and tsgarch (d = 1/2), and pgarch
(d = delta / 2). Only the models in ``GAMMA_MODELS`` take gamma.

The recursion is seeded at the deterministic fixed point of the mean
recursion, state0 = <g> / (1 - <c>) with <g> = sum_i E[g_i(eps)] and
<c> = sum_j E[c_j(eps)], and a burn-in (default max(1000, 20(p+q))) is
discarded; geometric forgetting makes the initialization bias negligible
relative to Monte Carlo error.

The recursion runs as ``scan.linear_scan`` on the tiles of ``scan``, one path
for every spec: memory is the output plus a few tiles, and the output may
overwrite the innovations. Against the sequential order
((G_t + C_1 state_{t-1}) + C_2 state_{t-2}) + ... this moves the last bits: X
agrees with it to 1e-13 relative (the tests' bound; measured at most 7.6e-15,
at persistence 0.999). A call of at most 64 output steps keeps the sequential
bits, and one resumed from ``final_state`` agrees with the uninterrupted call
to that bound.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, ParameterError
from .innovations import InnovationDist
from .scan import BLOCK, from_blocks, lagged_blocks, linear_scan, tiles

__all__ = [
    "AugGarchSpec",
    "GAMMA_MODELS",
    "POLYNOMIAL_MODELS",
    "EXPONENTIAL_MODELS",
    "default_burn_in",
    "garch_values_from_innovations",
]

# polynomial group: state = (sigma^2)^delta_lam; exponential group: state = log sigma^2
POLYNOMIAL_MODELS = frozenset(
    {"apgarch", "agarch", "gjr", "garch", "arch", "tgarch", "tsgarch", "pgarch", "vgarch", "ngarch"}
)
EXPONENTIAL_MODELS = frozenset({"mgarch", "egarch"})
MODELS = POLYNOMIAL_MODELS | EXPONENTIAL_MODELS | {"generic"}

# the models whose transforms read gamma; it lies in [-1, 1] for all but gjr,
# whose starred parametrization is not bounded this way
GAMMA_MODELS = frozenset({"apgarch", "agarch", "tgarch", "gjr", "vgarch", "ngarch", "egarch"})


def _abs_pow(z, k: float):
    """|z|**k, exact at k = 1 and 2; at k = 2 a signed z is squared directly."""
    if k == 2.0:
        return z * z
    return np.abs(z) if k == 1.0 else np.abs(z) ** k


@dataclass(frozen=True)
class AugGarchSpec:
    """Parametrized augmented GARCH(p,q) specification.

    ``alpha``/``beta``/``gamma`` follow the conventional volatility equation of
    the named model: p alpha (and gamma) terms on lagged values, q beta terms
    on lagged volatilities; a model outside ``GAMMA_MODELS`` refuses a
    gamma. For ``gjr`` the alpha/gamma arrays hold the starred
    coefficients of its usual parametrization. ``delta`` is the power of the
    apgarch / pgarch families. ``generic`` bypasses the named table: supply
    ``g_funcs``, ``c_funcs`` (vectorized callables of the innovation) and
    ``lam`` = ("power", exponent) or ("log",).
    """

    model: str = "garch"
    p: int = 1
    q: int = 1
    omega: float = 0.0
    alpha: tuple[float, ...] = ()
    beta: tuple[float, ...] = ()
    gamma: tuple[float, ...] = ()
    delta: float | None = None
    innovation: InnovationDist = field(default_factory=InnovationDist)
    g_funcs: tuple = ()
    c_funcs: tuple = ()
    lam: tuple = ()

    def __post_init__(self):
        if self.model not in MODELS:
            raise ParameterError(f"unknown model {self.model!r}; expected one of {sorted(MODELS)}")
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))
        object.__setattr__(self, "gamma", tuple(float(g) for g in self.gamma))
        if not np.isfinite([self.omega, *self.alpha, *self.beta, *self.gamma, self.delta or 0.0]).all():
            raise ParameterError("omega, alpha, beta, gamma and delta must be finite")
        if self.model == "generic":
            if not self.g_funcs and not self.c_funcs:
                raise ParameterError("generic model requires g_funcs and/or c_funcs")
            if not self.lam or self.lam[0] not in ("power", "log"):
                raise ParameterError('generic model requires lam=("power", exponent) or ("log",)')
            if self.lam[0] == "power" and not (len(self.lam) > 1 and self.lam[1] > 0):
                raise ParameterError("power lam requires a positive exponent")
            return
        if self.g_funcs or self.c_funcs or self.lam:
            raise ParameterError("g_funcs/c_funcs/lam are only for the generic model")
        if self.p < 1:
            raise ParameterError("p must be >= 1")
        if self.q < 0:
            raise ParameterError("q must be >= 0")
        # positivity of omega matters for the polynomial group only; the
        # exponential group works on the log scale where any real omega is fine
        if self.model in POLYNOMIAL_MODELS and not self.omega > 0:
            raise ParameterError(f"omega must be > 0, got {self.omega}")
        if len(self.alpha) != self.p:
            raise ParameterError(f"alpha must have length p={self.p}, got {len(self.alpha)}")
        if len(self.beta) != self.q:
            raise ParameterError(f"beta must have length q={self.q}, got {len(self.beta)}")
        if self.gamma and self.model not in GAMMA_MODELS:
            raise ParameterError(f"gamma is not a parameter of {self.model}")
        if self.gamma and len(self.gamma) != self.p:
            raise ParameterError(f"gamma must be empty or length p={self.p}, got {len(self.gamma)}")
        if self.model == "arch" and self.q != 0:
            raise ParameterError("arch has q=0")
        if any(a < 0 for a in self.alpha):
            raise ParameterError("alpha coefficients must be >= 0")
        if any(b < 0 for b in self.beta):
            raise ParameterError("beta coefficients must be >= 0")
        if self.model != "gjr" and any(abs(g) > 1 for g in self.gamma):
            raise ParameterError("gamma coefficients must lie in [-1, 1]")
        if self.model in ("apgarch", "pgarch"):
            if self.delta is None or not self.delta > 0:
                raise ParameterError(f"{self.model} requires delta > 0")
        elif self.delta is not None:
            raise ParameterError(f"delta is not a parameter of {self.model}")

    # --- group structure ----------------------------------------------------

    @property
    def is_exponential(self) -> bool:
        if self.model == "generic":
            return self.lam[0] == "log"
        return self.model in EXPONENTIAL_MODELS

    @property
    def lam_exponent(self) -> float:
        """Power d such that state = (sigma^2)^d (polynomial group only)."""
        if self.is_exponential:
            raise ParameterError("exponential-group state is log sigma^2, not a power")
        if self.model == "generic":
            return float(self.lam[1])
        if self.model == "apgarch":
            return float(self.delta)
        if self.model == "pgarch":
            return float(self.delta) / 2.0  # sigma^delta = (sigma^2)^(delta/2)
        if self.model in ("tgarch", "tsgarch"):
            return 0.5
        return 1.0

    def lag_coefficients(self) -> tuple[tuple[float, ...], ...]:
        """alpha, beta and gamma, each zero-padded to max(p, q) lags."""
        return tuple(c + (0.0,) * (self.pre_window - len(c)) for c in (self.alpha, self.beta, self.gamma))

    def g_transforms(self) -> tuple:
        """Per-lag transforms g_i of the innovation (vectorized callables; a constant g_i returns a number)."""
        if self.model == "generic":
            return tuple(self.g_funcs)
        w = self.omega / self.p
        gam = self.lag_coefficients()[2]
        if self.model == "vgarch":
            return tuple(
                (lambda e, a=a, g=g: w + a * np.square(e + g))
                for a, g in zip(self.alpha, gam)
            )
        if self.model == "mgarch":
            return tuple(
                (lambda e, a=a: w + a * np.log(np.square(e))) for a in self.alpha
            )
        if self.model == "egarch":
            mu_abs = _abs_mean(self.innovation)
            return tuple(
                (lambda e, a=a, g=g: w + a * (np.abs(e) - mu_abs) + g * e)
                for a, g in zip(self.alpha, gam)
            )
        # whole polynomial apgarch/gjr/garch/... family: g_i = omega / p
        return tuple((lambda e: w) for _ in range(self.p))

    def c_transforms(self) -> tuple:
        """Per-lag transforms c_j multiplying the lagged state."""
        if self.model == "generic":
            return tuple(self.c_funcs)
        if self.model in ("vgarch", "mgarch", "egarch"):
            return tuple((lambda e, b=b: b) for b in self.beta)
        al, be, ga = self.lag_coefficients()
        if self.model == "gjr":
            return tuple(
                (lambda e, a=a, b=b, g=g: b + a * (e * e) + g * np.square(np.minimum(e, 0.0)))
                for a, b, g in zip(al, be, ga)
            )
        if self.model == "ngarch":
            return tuple(
                (lambda e, a=a, b=b, g=g: a * np.square(e + g) + b)
                for a, b, g in zip(al, be, ga)
            )
        # the power family (module docstring): c_j = alpha_j |z|^(2d) + beta_j
        k = 2.0 * self.lam_exponent
        return tuple(
            (lambda e, a=a, b=b, g=g: a * _abs_pow(e if g == 0.0 else np.abs(e) - g * e, k) + b)
            for a, b, g in zip(al, be, ga)
        )

    @property
    def pre_window(self) -> int:
        """Lags of the recursion: the number of g_i or c_j transforms, whichever is larger."""
        if self.model == "generic":
            return max(len(self.g_funcs), len(self.c_funcs), 1)
        return max(self.p, self.q)

    def state_fixed_point(self) -> float:
        return _state_fixed_point(self)


@functools.lru_cache(maxsize=256)
def _abs_mean(dist: InnovationDist) -> float:
    return dist.abs_mean()  # a quadrature for most laws: once per law, not per transform built


@functools.lru_cache(maxsize=256)
def _state_fixed_point(spec: AugGarchSpec) -> float:
    dist = spec.innovation
    mean_g = sum(dist.expect(g) for g in spec.g_transforms())
    mean_c = sum(dist.expect(c) for c in spec.c_transforms())
    if mean_c < 1.0:
        return float(mean_g / (1.0 - mean_c))
    return float(mean_g)  # explosive mean recursion: no fixed point, start at <g>


def default_burn_in(spec) -> int:
    p = getattr(spec, "p", 0) or 0
    q = getattr(spec, "q", 0) or 0
    return max(1000, 20 * (p + q))


def garch_values_from_innovations(
    spec: AugGarchSpec, eps: np.ndarray, strict=True, state=None, final_state=False, overwrite_input=False
):
    """Run the volatility recursion over given innovations, vectorized over
    leading axes.

    ``eps`` has shape (..., T); the first m = ``spec.pre_window`` entries seed
    the lag window (the states there are held at the fixed point, or given as
    ``state`` (..., m)) and the returned values X_t = sigma_t eps_t have shape
    (..., T - m), row-major. ``final_state`` also returns the states at the
    last m times, from which a split path resumes (see the module
    docstring). Memory is the output plus a few time tiles. With
    ``overwrite_input`` the output is the view ``eps[..., :T - m]``: each
    tile writes only innovations it has already copied, so a caller that
    owns ``eps`` holds one block. A non-finite or
    non-positive state raises DivergenceError naming the first offending step;
    with ``strict=False`` the affected batch rows come back as NaN so a caller
    can quarantine them individually.
    """
    eps = np.asarray(eps, dtype=np.float64)
    g_list = spec.g_transforms()
    c_list = spec.c_transforms()
    m = spec.pre_window
    T = eps.shape[-1]
    if T <= m:
        raise ParameterError(f"need more than pre_window={m} innovations, got {T}")

    rows = eps.reshape(-1, T)
    B, n = rows.shape[0], T - m
    values = rows[:, :n] if overwrite_input else np.empty((B, n))
    states = np.full((B, m), spec.state_fixed_point()) if state is None else np.reshape(state, (B, m))
    carry, first_bad = states.T.copy(), np.full(B, n)  # first_bad: each row's first bad step, n for none
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for block, steps in tiles(B, n, m):
            s0, w = steps.start, steps.stop - steps.start
            if strict and s0 > 0 and (first_bad[block] < n).any():
                continue  # a later tile of these rows cannot hold an earlier first bad step
            carry[:, block], bad = _tile(
                spec, g_list, c_list, rows[block, s0 : s0 + m + w], values[block, steps], carry[:, block], s0 > 0
            )
            if bad.any():
                at = s0 + np.argmax(bad.transpose(1, 0, 2).reshape(-1, bad.shape[2]), axis=0)  # in time order
                first_bad[block] = np.minimum(first_bad[block], np.where(bad.any(axis=(0, 1)), at, n))
    diverged = first_bad < n
    if strict and diverged.any():
        raise DivergenceError(m + int(first_bad.min()), "non-finite or non-positive volatility state")
    values[diverged] = np.nan
    values = values.reshape(eps.shape[:-1] + (n,))
    return (values, carry.T.reshape(eps.shape[:-1] + (m,))) if final_state else values


def _tile(spec, g_list, c_list, eps, out, carry, resume):
    """One tile: the (B, w) values ``out`` from the (B, m + w) innovations ``eps``
    and the (m, B) states ``carry`` before them, by ``linear_scan`` on blocks of
    ``span`` steps (the last may be shorter); block 0 runs on from ``carry``
    unless ``resume``. Returns the states at the last m steps and the
    (span, K, B) mask of bad states."""
    m = carry.shape[0]
    B, w = out.shape
    span = min(w, max(BLOCK, m))
    K, r = -(-w // span), (w - 1) % span + 1  # r: steps in the last block
    e = lagged_blocks(eps[:, :m], eps[:, m:], span)  # e[m + i, kB:(k + 1)B] = eps[:, m + k * span + i]
    lam = np.empty(e.shape)  # the m states before each block, then its steps
    lam[:m, :B] = carry
    body = lam[m:]
    body[...] = sum(g(e[m - i : m - i + span]) for i, g in enumerate(g_list, start=1))  # in lag order
    linear_scan(lam, [np.broadcast_to(c(e), e.shape) for c in c_list], m, B, resume)
    final = lam[r : r + m].reshape(m, K, B)[:, -1].copy()  # the states at the last m steps
    bad = ~np.isfinite(body) if spec.is_exponential else ~np.isfinite(body) | (body <= 0.0)
    bad = bad.reshape(span, K, B)
    bad[r:, -1] = False  # the padding of a short last block
    x = e[m:]  # X_t = sigma_t eps_t from the tile's copy of the innovations
    x *= np.exp(0.5 * body) if spec.is_exponential else body ** (0.5 / spec.lam_exponent)  # ** is sqrt at 0.5
    from_blocks(x.reshape(span, K, B), out)
    return final, bad
