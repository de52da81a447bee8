"""ARMA(p,q) simulation with iid or GARCH innovations.

The lag polynomials follow the convention

    Phi(z) = 1 + phi_1 z + ... + phi_p z^p,
    Theta(z) = 1 + theta_1 z + ... + theta_q z^q,

so the recursion is X_t = -sum_i phi_i X_{t-i} + eps_t + sum_j theta_j eps_{t-j}.
Causality requires Phi(z) != 0 for all |z| <= 1; simulation is the causal
linear filter applied to the innovation series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonCausalError, NumericsError, ParameterError
from .garch import AugGarchSpec
from .innovations import InnovationDist

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


def arma_values_from_innovations(spec: ArmaSpec, eps: np.ndarray, state: np.ndarray):
    """Causal ARMA filter along the last axis from the filter state ``state``
    (..., max(p, q, 1)), returning (values, final state) as ``lfilter`` does.
    A pure MA also runs the recursive form (denominator 1 + 0z), not scipy's
    per-row FIR loop. ``scipy.signal`` is imported here, on the first filter
    call, so runs without an ARMA filter never load it."""
    from scipy.signal import lfilter

    b = np.r_[1.0, spec.theta]
    a = np.r_[1.0, spec.phi] if spec.p else np.r_[1.0, 0.0]
    return lfilter(b, a, np.asarray(eps, dtype=np.float64), axis=-1, zi=state)
