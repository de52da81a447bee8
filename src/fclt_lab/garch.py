"""Augmented GARCH(p,q) simulation.

The volatility recursion is driven by transforms of lagged innovations,

    state_t = sum_{i=1..P} g_i(eps_{t-i}) + sum_{j=1..Q} c_j(eps_{t-j}) * state_{t-j},

where ``state_t`` is sigma_t^2 raised to a model-specific power (polynomial
group) or log sigma_t^2 (exponential group), and the observed value is
X_t = sigma_t * eps_t. Each named model fixes the transforms g_i, c_j and the
state power; ``generic`` accepts user-supplied callables.

The recursion is seeded at the deterministic fixed point of the mean
recursion, state0 = <g> / (1 - <c>) with <g> = sum_i E[g_i(eps)] and
<c> = sum_j E[c_j(eps)], and a burn-in (default max(1000, 20(p+q))) is
discarded; geometric forgetting makes the initialization bias negligible
relative to Monte Carlo error.

The recursion runs over time tiles of about 1 MiB of state (the width is set by
the batch width alone). Each evaluates the transforms on a time-major copy of its
innovations and pre-window, updates the state rows in place in the order
((G_t + C_1 state_{t-1}) + C_2 state_{t-2}) + ... and carries its last pre-window
states on: the bits do not depend on the tiling; memory is output + O(batch x tile).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, ParameterError
from .innovations import InnovationDist

__all__ = [
    "AugGarchSpec",
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

# models whose gamma parameters obey the -1 <= gamma <= 1 restriction
# (gjr uses the starred parametrization, which is not bounded this way)
_GAMMA_BOUNDED = frozenset({"apgarch", "agarch", "tgarch", "tsgarch", "vgarch", "ngarch", "egarch"})


def _pow_even(z, exponent: float):
    """z**exponent with exact fast paths for exponents 1 and 2 (z >= 0)."""
    if exponent == 1.0:
        return z
    if exponent == 2.0:
        return z * z
    return z**exponent


@dataclass(frozen=True)
class AugGarchSpec:
    """Parametrized augmented GARCH(p,q) specification.

    ``alpha``/``beta``/``gamma`` follow the conventional volatility equation of
    the named model: p alpha (and gamma) terms on lagged values, q beta terms
    on lagged volatilities. For ``gjr`` the alpha/gamma arrays hold the starred
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
        if self.gamma and len(self.gamma) != self.p:
            raise ParameterError(f"gamma must be empty or length p={self.p}, got {len(self.gamma)}")
        if self.model == "arch" and self.q != 0:
            raise ParameterError("arch has q=0")
        if any(a < 0 for a in self.alpha):
            raise ParameterError("alpha coefficients must be >= 0")
        if any(b < 0 for b in self.beta):
            raise ParameterError("beta coefficients must be >= 0")
        if self.model in _GAMMA_BOUNDED and any(abs(g) > 1 for g in self.gamma):
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

    def _padded(self, arr: tuple[float, ...], length: int) -> tuple[float, ...]:
        return tuple(arr) + (0.0,) * (length - len(arr))

    def g_transforms(self) -> tuple:
        """Per-lag transforms g_i of the innovation (vectorized callables)."""
        if self.model == "generic":
            return tuple(self.g_funcs)
        w = self.omega / self.p
        if self.model == "vgarch":
            gam = self._padded(self.gamma, self.p)
            return tuple(
                (lambda e, a=a, g=g: w + a * np.square(e + g))
                for a, g in zip(self.alpha, gam)
            )
        if self.model == "mgarch":
            return tuple(
                (lambda e, a=a: w + a * np.log(np.square(e))) for a in self.alpha
            )
        if self.model == "egarch":
            mu_abs = self.innovation.abs_mean()
            gam = self._padded(self.gamma, self.p)
            return tuple(
                (lambda e, a=a, g=g: w + a * (np.abs(e) - mu_abs) + g * e)
                for a, g in zip(self.alpha, gam)
            )
        # whole polynomial apgarch/gjr/garch/... family: g_i = omega / p
        return tuple((lambda e: np.full(np.shape(e), w)) for _ in range(self.p))

    def c_transforms(self) -> tuple:
        """Per-lag transforms c_j multiplying the lagged state."""
        if self.model == "generic":
            return tuple(self.c_funcs)
        if self.model in ("vgarch", "mgarch", "egarch"):
            return tuple((lambda e, b=b: np.full(np.shape(e), b)) for b in self.beta)
        if self.model == "arch":
            return tuple((lambda e, a=a: a * (e * e)) for a in self.alpha)
        k = max(self.p, self.q)
        al = self._padded(self.alpha, k)
        be = self._padded(self.beta, k)
        ga = self._padded(self.gamma, k)
        if self.model == "garch":
            return tuple(
                (lambda e, a=a, b=b: a * (e * e) + b) for a, b in zip(al, be)
            )
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
        if self.model in ("tsgarch",):
            return tuple(
                (lambda e, a=a, b=b: a * np.abs(e) + b) for a, b in zip(al, be)
            )
        if self.model == "pgarch":
            d = float(self.delta)
            return tuple(
                (lambda e, a=a, b=b: a * _pow_even(np.abs(e), d) + b)
                for a, b in zip(al, be)
            )
        # apgarch family (apgarch / agarch / tgarch): c = alpha (|e| - gamma e)^(2 delta) + beta
        two_delta = 2.0 * (self.delta if self.model == "apgarch" else (0.5 if self.model == "tgarch" else 1.0))
        return tuple(
            (lambda e, a=a, b=b, g=g: a * _pow_even(np.abs(e) - g * e, two_delta) + b)
            for a, b, g in zip(al, be, ga)
        )

    @property
    def pre_window(self) -> int:
        return max(len(self.g_transforms()), len(self.c_transforms()), 1)

    def state_fixed_point(self) -> float:
        return _state_fixed_point(self)


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


def garch_values_from_innovations(spec: AugGarchSpec, eps: np.ndarray, strict=True, state=None, final_state=False):
    """Run the volatility recursion over given innovations, vectorized over
    leading axes.

    ``eps`` has shape (..., T); the first m = ``spec.pre_window`` entries seed
    the lag window (the states there are held at the fixed point, or given as
    ``state`` (..., m)) and the returned values X_t = sigma_t eps_t have shape
    (..., T - m), row-major. ``final_state`` also returns the states at the
    last m times, from which a split path resumes bit for bit. Memory is the
    output plus one time tile of state (module docstring). A non-finite or
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
    B = rows.shape[0]
    values = np.empty((B, T - m))
    width = min(T - m, max(16, 2**20 // (8 * max(B, 1))))
    lam = np.empty((m + width, B))  # m carried states, then a tile
    lam[:m] = spec.state_fixed_point() if state is None else np.reshape(state, (B, m)).T
    lam_rows, tmp, diverged = list(lam), np.empty(B), np.zeros(B, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start in range(m, T, width):
            w = min(width, T - start)
            e = np.ascontiguousarray(rows[:, start - m : start + w].T)  # times start-m .. start+w-1
            body = lam[m : m + w]
            body[...] = sum(g(e[m - i : m - i + w]) for i, g in enumerate(g_list, start=1))  # from 0, in lag order
            C = [(j, list(np.broadcast_to(c(e), e.shape))) for j, c in enumerate(c_list, start=1)]
            for t in range(m, m + w):
                acc = lam_rows[t]
                for j, Cj in C:  # out= positional: the keyword form costs more per step
                    np.add(acc, np.multiply(Cj[t - j], lam_rows[t - j], tmp), acc)
            out = values[:, start - m : start - m + w].T  # time-major view of the row-major output
            if spec.is_exponential:
                bad = ~np.isfinite(body)
                np.exp(0.5 * body, out=out)
            else:
                bad = ~np.isfinite(body) | (body <= 0.0)
                out[...] = body ** (0.5 / spec.lam_exponent)  # ndarray ** is sqrt at 0.5, a copy at 1
            if bad.any():
                if strict:
                    t_first = start + int(np.argmax(bad.any(axis=1)))
                    raise DivergenceError(t_first, "non-finite or non-positive volatility state")
                diverged |= bad.any(axis=0)
            lam[:m] = lam[w : w + m]
        values[diverged] = np.nan
        values *= rows[:, m:]
    values = values.reshape(eps.shape[:-1] + (T - m,))
    return (values, lam[:m].T.reshape(eps.shape[:-1] + (m,))) if final_state else values
