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
the batch width alone; a batch of more than 2048 rows runs in row blocks of 2048).
Memory is output + O(batch x tile), and the output may overwrite the innovations.

A scalar state (m = 1, with a c transform) follows the affine recursion
state_t = G_t + C_t state_{t-1} and runs as a block scan (Blelloch 1990; Martin &
Cundy 2018). The output steps of a call fall into blocks of 64, counted from its
first output step; a tile holds whole blocks, laid out block-major, so that one
step of all its blocks is one contiguous vector. Block 0 runs in sequential order
from the given state. Every later block runs its local recursion from 0 beside P,
the running product of its C; the block starts then follow in sequence over the
block ends, S_next = local_end + P_end S, and the states are local + P S. Nothing
is divided, so C = 0 or an underflowing P needs no special case. Against the
sequential order this moves the last bits: X agrees with it to 1e-13 relative
(the tests' bound; measured at most 1.1e-14, at alpha + beta = 0.999). The bits do
not depend on the batch width, the row blocks, the tiles or a caller's chunks, and
a call of at most 64 output steps keeps the sequential bits. A call resumed from
``final_state`` starts its blocks at the split, so it agrees with the
uninterrupted call to that bound, not bit for bit.

Any other spec (m > 1) runs the step loop over time-major tiles, in the order
((G_t + C_1 state_{t-1}) + C_2 state_{t-2}) + ...; its bits do not depend on the
tiling, and a split path resumes bit for bit.
"""

from __future__ import annotations

import functools
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

# a scalar recursion (m = 1) runs as a block scan over blocks of this many steps;
# a batch wider than 2^20 // (8 * BLOCK) rows runs in row blocks of that many,
# so that a one-block tile stays near 1 MiB of state
BLOCK = 64
_MAX_BLOCK_ROWS = 2**20 // (8 * BLOCK)


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
        """Per-lag transforms g_i of the innovation (vectorized callables; a constant g_i returns a number)."""
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
            mu_abs = _abs_mean(self.innovation)
            gam = self._padded(self.gamma, self.p)
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
    last m times, from which a split path resumes (bit for bit when m > 1;
    see the module docstring). Memory is the output plus one time tile of
    state. With ``overwrite_input`` the output is the view
    ``eps[..., :T - m]``: each tile writes only innovations it has already
    copied, so a caller that owns ``eps`` holds one block. A non-finite or
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
    values = rows[:, : T - m] if overwrite_input else np.empty((B, T - m))
    states = np.full((B, m), spec.state_fixed_point()) if state is None else np.reshape(state, (B, m))
    final, diverged, first_bad = np.empty((B, m)), np.zeros(B, dtype=bool), None
    for r0 in range(0, B, _MAX_BLOCK_ROWS):  # rows are independent: the bits do not depend on the blocks
        block = slice(r0, r0 + _MAX_BLOCK_ROWS)
        try:
            final[block], diverged[block] = _recursion_rows(
                spec, g_list, c_list, rows[block], values[block], states[block], strict
            )
        except DivergenceError as err:  # report the first offending step over all blocks
            if first_bad is None or err.step < first_bad.step:
                first_bad = err
    if first_bad is not None:
        raise first_bad
    values[diverged] = np.nan
    values = values.reshape(eps.shape[:-1] + (T - m,))
    return (values, final.reshape(eps.shape[:-1] + (m,))) if final_state else values


def _recursion_rows(spec, g_list, c_list, rows, values, states, strict):
    """The tiled recursion over (B, T) innovation rows into the (B, T - m) ``values``,
    from the (B, m) pre-window ``states``; returns the (B, m) final states and the
    rows that diverged (with ``strict``, DivergenceError at the first bad step)."""
    m = states.shape[1]
    B, T = rows.shape
    n = T - m
    scan = m == 1 and len(c_list) == 1
    unit = BLOCK if scan else 16  # a tile is a whole number of these, about 1 MiB of state
    width = min(n, unit * max(1, 2**20 // (8 * unit * B)))
    carry, diverged = states.T.copy(), np.zeros(B, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for s0 in range(0, n, width):
            w = min(width, n - s0)
            span = min(w, BLOCK) if scan else w
            carry, bad = _tile(
                spec, g_list, c_list, rows[:, s0 : s0 + m + w], values[:, s0 : s0 + w], carry, span, scan and s0 > 0
            )
            if bad.any():
                if strict:
                    t_first = m + s0 + int(np.argmax(bad.any(axis=2).T))  # block-major to time order
                    raise DivergenceError(t_first, "non-finite or non-positive volatility state")
                diverged |= bad.any(axis=(0, 1))
    return carry.T, diverged


def _tile(spec, g_list, c_list, eps, out, carry, span, resume):
    """One tile: the (B, w) values ``out`` from the (B, m + w) innovations ``eps``
    and the (m, B) states ``carry`` before them. The tile runs as K blocks of
    ``span`` steps (the last may be shorter), laid out block-major, so that one
    step of every block is one contiguous (K * B) row. Block 0 runs on from
    ``carry`` unless ``resume``; every other block runs from 0 and is scanned
    (``_add_block_starts``). Returns the states at the last m steps and the
    (span, K, B) mask of bad states."""
    m = carry.shape[0]
    B, w = out.shape
    K, r = -(-w // span), (w - 1) % span + 1  # r: steps in the last block
    e = np.empty((m + span, K, B))  # e[m + i, k] = eps[:, m + k * span + i]
    e[:m, 0] = eps[:, :m].T
    to_blocks(eps[:, m:], e[m:])
    e[:m, 1:] = e[span : span + m, :-1]  # the m times before a block close the block before it
    e = e.reshape(m + span, K * B)
    lam = np.empty((m + span, K * B))  # the m states before each block, then its steps
    lam[:m] = 0.0
    if not resume:
        lam[:m, :B] = carry
    body = lam[m:]
    body[...] = sum(g(e[m - i : m - i + span]) for i, g in enumerate(g_list, start=1))  # from 0, in lag order
    C = [(j, list(np.broadcast_to(c(e), e.shape))) for j, c in enumerate(c_list, start=1)]
    scanned = resume or K > 1  # some block runs from 0, which only a scan's tile has
    if scanned:  # P: the product of C over each such block so far
        C1 = [row[0 if resume else B :] for row in C[0][1]]
        P = np.empty((span, len(C1[0])))
        P_rows = list(P)
        P_rows[0][...] = C1[0]
    lam_rows, tmp = list(lam), np.empty(K * B)
    for t in range(m, m + span):
        acc = lam_rows[t]
        for j, Cj in C:  # out= positional: the keyword form costs more per step
            np.add(acc, np.multiply(Cj[t - j], lam_rows[t - j], tmp), acc)
        if scanned and t > 1:
            np.multiply(C1[t - 1], P_rows[t - 2], P_rows[t - 1])
    if scanned:
        del C, C1, P_rows  # C and P are tile-sized: freed before the sigma pass, which sets the peak
        _add_block_starts(body.reshape(span, K, B), P.reshape(span, -1, B), carry[0] if resume else None)
        del P
    final = lam[r : r + m].reshape(m, K, B)[:, -1].copy()  # the states at the last m steps
    bad = ~np.isfinite(body) if spec.is_exponential else ~np.isfinite(body) | (body <= 0.0)
    bad = bad.reshape(span, K, B)
    bad[r:, -1] = False  # the padding of a short last block
    x = e[m:]  # X_t = sigma_t eps_t from the tile's copy of the innovations
    x *= np.exp(0.5 * body) if spec.is_exponential else body ** (0.5 / spec.lam_exponent)  # ** is sqrt at 0.5
    from_blocks(x.reshape(span, K, B), out)
    return final, bad


def to_blocks(rows, blocks):
    """blocks[i, k] = rows[:, k * span + i] for (B, w) rows and (span, K, B) blocks, 0 past step w."""
    span, K, B = blocks.shape
    full, r = divmod(rows.shape[1], span)
    blocks[:, :full] = rows[:, : full * span].reshape(B, full, span).transpose(2, 1, 0)
    if full < K:
        blocks[:r, full] = rows[:, full * span :].T
        blocks[r:, full] = 0.0


def from_blocks(blocks, rows):
    """The inverse of ``to_blocks``: rows[:, k * span + i] = blocks[i, k] up to step w."""
    span, K, B = blocks.shape
    full, r = divmod(rows.shape[1], span)
    rows[:, : full * span].reshape(B, full, span).transpose(2, 1, 0)[...] = blocks[:, :full]
    if full < K:
        rows[:, full * span :].T[...] = blocks[:r, full]


def _add_block_starts(local, P, start):
    """Turn the blocks of ``local`` (span, K, B) that ran from 0 into states.

    ``P`` (span, K', B) holds the running products of C over the last K' blocks.
    Each such block's state is local + P * S, where S is the state before the
    block: ``start`` for block 0 when K' = K, otherwise the last state of the
    block before. Only the K' block ends pass through a loop.
    """
    k0 = local.shape[1] - P.shape[1]
    S = np.empty(P.shape[1:])
    S[0] = local[-1, 0] if start is None else start
    ends, P_ends, S_rows, tmp = list(local[-1, k0:]), list(P[-1]), list(S), np.empty(S.shape[1])
    for k in range(1, len(S_rows)):  # S_k = local_end + P_end * S_{k-1}: the state closing block k - 1
        np.add(ends[k - 1], np.multiply(P_ends[k - 1], S_rows[k - 1], tmp), S_rows[k])
    P *= S
    local[:, k0:] += P
