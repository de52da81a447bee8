"""ARMA(p,q) simulation with iid or GARCH innovations.

The lag polynomials follow the convention

    Phi(z) = 1 + phi_1 z + ... + phi_p z^p,
    Theta(z) = 1 + theta_1 z + ... + theta_q z^q,

so the recursion is X_t = -sum_i phi_i X_{t-i} + eps_t + sum_j theta_j eps_{t-j}.
Causality requires Phi(z) != 0 for all |z| <= 1; simulation is the causal
linear filter applied to the innovation series.

The MA part u = Theta(L) x runs first, on the whole tile at once; the AR part
y_t = u_t + sum_i (-phi_i) y_{t-i} then runs as ``scan.linear_scan``, the
block scan of the volatility recursion, with constant coefficients, whose
block responses the scan computes once per call; a tile works in the
thread's ``scan`` workspace. The carried state is the last q innovations and
the last p values. Across tiles a row also carries its last max(p, q)
innovations, so the values can be written over the innovations: a caller
that owns them holds one block.
A call of at most 64 steps of an AR(1) keeps the bits of SciPy's IIR filter
routine (the tests' oracle); any other call agrees with it to 1e-13 of the
largest value (measured at most 4.4e-15, at phi = -0.999), whatever the
batch width or tiling, and a split path resumes to that bound. No scipy is
loaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonCausalError, NumericsError, ParameterError
from .garch import AugGarchSpec
from .innovations import InnovationDist
from .scan import BLOCK, from_blocks, lagged_blocks, linear_scan, tiles

__all__ = ["ArmaSpec", "causal_ma_coefficients", "arma_values_from_innovations"]

_COMMON_ROOT_TOL = 1e-8
CAUSALITY_MARGIN = 1e-10


def _poly_roots(coeffs: tuple[float, ...]) -> np.ndarray:
    """Roots of 1 + c_1 z + ... + c_k z^k (trailing zero coefficients dropped)."""
    c = list(coeffs)
    while c and c[-1] == 0.0:
        c.pop()
    if not c:
        return np.empty(0, dtype=complex)
    try:
        return np.roots(list(reversed([1.0] + c)))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defective companion matrix
        raise NumericsError(f"root finding failed: {exc}") from exc


@dataclass(frozen=True)
class ArmaSpec:
    """ARMA(p,q) specification; innovation is an iid law or a GARCH spec."""

    phi: tuple[float, ...] = ()
    theta: tuple[float, ...] = ()
    innovation: InnovationDist | AugGarchSpec = field(default_factory=InnovationDist)

    def __post_init__(self):
        object.__setattr__(self, "phi", tuple(float(x) for x in self.phi))
        object.__setattr__(self, "theta", tuple(float(x) for x in self.theta))
        if not all(map(math.isfinite, self.phi + self.theta)):
            raise ParameterError("phi and theta must be finite")
        if isinstance(self.innovation, AugGarchSpec):
            if self.innovation.model != "garch":
                raise ParameterError("ARMA innovations must be iid or a garch-model AugGarchSpec")
        elif not isinstance(self.innovation, InnovationDist):
            raise ParameterError("innovation must be InnovationDist or AugGarchSpec")
        r_phi = _poly_roots(self.phi)
        r_theta = _poly_roots(self.theta)
        if r_phi.size and r_theta.size:
            dist = np.abs(r_phi[:, None] - r_theta[None, :]).min()
            if dist <= _COMMON_ROOT_TOL:
                raise ParameterError(
                    f"Phi and Theta share a root (min root distance {dist:.3g} <= {_COMMON_ROOT_TOL})"
                )

    @property
    def p(self) -> int:
        return len(self.phi)

    @property
    def q(self) -> int:
        return len(self.theta)

    def phi_roots(self) -> np.ndarray:
        return _poly_roots(self.phi)

    def min_phi_root_modulus(self) -> float:
        roots = self.phi_roots()
        if roots.size == 0:
            return math.inf
        return float(np.abs(roots).min())

    @property
    def is_causal(self) -> bool:
        return self.min_phi_root_modulus() > 1.0 + CAUSALITY_MARGIN

    def require_causal(self):
        if not self.is_causal:
            raise NonCausalError(self.min_phi_root_modulus())

    @property
    def iid_driver(self) -> InnovationDist:
        """The underlying iid law (the GARCH driver when innovations are GARCH)."""
        if isinstance(self.innovation, AugGarchSpec):
            return self.innovation.innovation
        return self.innovation


def causal_ma_coefficients(spec: ArmaSpec, K: int) -> np.ndarray:
    """Coefficients psi_0..psi_K of the MA(infinity) expansion Theta/Phi.

    Long division of the lag polynomials: psi_0 = 1 and
    psi_k = theta_k - sum_{i=1..min(k,p)} phi_i psi_{k-i}; for a causal spec
    |psi_K| decays geometrically.
    """
    if K < 1:
        raise ParameterError("K must be >= 1")
    spec.require_causal()
    psi = np.zeros(K + 1)
    psi[0] = 1.0
    for k in range(1, K + 1):
        acc = spec.theta[k - 1] if k <= spec.q else 0.0
        for i in range(1, min(k, spec.p) + 1):
            acc -= spec.phi[i - 1] * psi[k - i]
        psi[k] = acc
    return psi


def arma_values_from_innovations(spec: ArmaSpec, eps: np.ndarray, state: np.ndarray, overwrite_input=False):
    """Causal ARMA filter along the last axis of ``eps`` from the state
    (..., q + p): the last q innovations, then the last p values, in time
    order. Returns (values, final state in that layout), from which a split
    path resumes to the scan's bound (module docstring). With
    ``overwrite_input`` the values are written over ``eps``, which the caller
    must own: each row's last max(p, q) innovations are carried across tiles,
    read before a tile's output overwrites them."""
    p, q = spec.p, spec.q
    x = np.asarray(eps, dtype=np.float64)
    T, L = x.shape[-1], max(p, q)
    rows = x.reshape(math.prod(x.shape[:-1]), T)
    B = rows.shape[0]
    state = np.asarray(state, dtype=np.float64).reshape(B, q + p)
    lead = np.zeros((B, L))  # each row's innovations before the next tile, as lag rows
    lead[:, L - q :] = state[:, :q]
    values = rows if overwrite_input else np.empty(rows.shape)
    carry = state[:, q:].T.copy()  # the (p, B) values before a tile
    for block, steps in tiles(B, T, L):
        b, s0, w = block.stop - block.start, steps.start, steps.stop - steps.start
        span = min(w, max(BLOCK, L))
        K, r = -(-w // span), (w - 1) % span + 1  # r: steps in the last block
        buf = lagged_blocks(lead[block], rows[block, steps], span)
        last = rows[block, max(s0, steps.stop - L) : steps.stop]  # read before the copy-out below overwrites it
        lead[block] = np.concatenate([lead[block, min(w, L) :], last], axis=1)
        if q:  # u_t = x_t + sum_j theta_j x_{t-j}: the sum is taken before any x_t is overwritten
            buf[L:] += sum(theta_j * buf[L - j : L - j + span] for j, theta_j in enumerate(spec.theta, start=1))
        lam = buf[L - p :]  # the AR part runs on u, from the p values before each block
        lam[:p, :b] = carry[:, block]
        linear_scan(lam, [-phi_j for phi_j in spec.phi], p, b, s0 > 0)
        carry[:, block] = lam[r : r + p].reshape(p, K, b)[:, -1]
        from_blocks(buf[L:].reshape(span, K, b), values[block, steps])
    final = np.concatenate([lead[:, L - q :], carry.T], axis=1)
    return values.reshape(x.shape), final.reshape(x.shape[:-1] + (q + p,))
