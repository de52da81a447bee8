"""ARMA(p,q) simulation with iid or GARCH innovations.

The lag polynomials follow the convention

    Phi(z) = 1 + phi_1 z + ... + phi_p z^p,
    Theta(z) = 1 + theta_1 z + ... + theta_q z^q,

so the recursion is X_t = -sum_i phi_i X_{t-i} + eps_t + sum_j theta_j eps_{t-j}.
Causality requires Phi(z) != 0 for all |z| <= 1; simulation is the causal
linear filter applied to the innovation series.

The filter is the transposed direct form with a delay line z of length
N - 1 = max(p, q, 1), in the order of operations of SciPy's IIR filter routine:
y_t = z_0 + x_t, then z_n = (z_{n+1} + x_t b_{n+1}) - y_t a_{n+1} for each
inner delay and z_{N-2} = x_t b_{N-1} - y_t a_{N-1} for the last, with b the
coefficients of Theta and a those of Phi, padded with zeros. Where only one
coefficient of the last delay is zero, its term is dropped, which can change
only the sign of a zero state. It runs as the block scan of ``scan``, with
T = M and resp = H, the zero-input responses to the unit delay lines. A call
of at most 64 steps keeps the routine's bits; a longer one, or one resumed at
a split, agrees to 1e-13 of the largest value (measured at most 3.8e-15, at
phi = -0.999), whatever the batch width or tiling. No scipy is loaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonCausalError, NumericsError, ParameterError
from .garch import AugGarchSpec
from .innovations import InnovationDist
from .scan import BLOCK, add_block_starts, from_blocks, tiles, to_blocks

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
    """Causal ARMA filter along the last axis of ``eps`` from the delay line
    ``state`` (..., max(p, q, 1)); returns (values, final delay line), from
    which a split path resumes to the scan's bound (module docstring)."""
    b = spec.theta + (0.0,) * (max(spec.p, 1) - spec.q)  # b_1..b_{N-1}
    a = spec.phi + (0.0,) * (len(b) - spec.p)  # a_1..a_{N-1}
    x = np.asarray(eps, dtype=np.float64)
    T, d = x.shape[-1], len(b)
    rows = x.reshape(math.prod(x.shape[:-1]), T)
    z = np.array(np.reshape(state, (rows.shape[0], d)), dtype=np.float64)
    values, span, resp = np.empty(rows.shape), max(1, min(T, BLOCK)), None
    if T > span:  # blocks from a zero line: H, M and M_r, the responses to the unit lines under zero input
        H, r = np.empty((d, span)), (T - 1) % span + 1
        M = _filter_tile(b, a, np.zeros((d, span)), H, np.eye(d), span, False, None).T
        resp = H, M, _filter_tile(b, a, np.zeros((d, r)), np.empty((d, r)), np.eye(d), span, False, None).T
    for block, steps in tiles(rows.shape[0], T, max(16, span)):
        z[block] = _filter_tile(b, a, rows[block, steps], values[block, steps], z[block], span, steps.start > 0, resp)
    return values.reshape(x.shape), z.reshape(x.shape[:-1] + (d,))


def _filter_tile(b, a, rows, out, line, span, resume, resp):
    """The (B, w) values ``out`` from the innovations ``rows`` and the (B, N - 1)
    delay line ``line`` before them, in K blocks of ``span`` steps laid out by
    ``to_blocks``; returns the line after them. Block 0 runs on from ``line``
    unless ``resume``; every other block runs from a zero line and is scanned
    (``add_block_starts``) with T = M (M_r for a last block of r < span steps)
    and resp = H."""
    d, (B, w) = len(b), rows.shape
    K, r = -(-w // span), (w - 1) % span + 1  # r: steps in the last block
    ar_last, ma_last = b[-1] == 0.0 != a[-1], a[-1] == 0.0 != b[-1]
    xb_coef = b[:-1] if ar_last else b  # an AR last delay drops its zero MA term
    buf = np.empty((1 + len(xb_coef), span, K * B))  # x_t, which each step overwrites with y_t, and x_t b_n
    to_blocks(rows, buf[0].reshape(span, K, B))
    for bn, xb in zip(xb_coef, buf[1:]):
        np.multiply(buf[0], bn, xb)
    z = np.zeros((d, K * B))
    if not resume:
        z[:, :B] = line.T
    coef = [np.full(K * B, an) for an in a]  # two-array ufuncs cost less per call than array-scalar ones
    neg_a_last, tmp = np.full(K * B, -a[-1]), np.empty(K * B)
    (xs, *xbs), zs = (list(rows_t) for rows_t in buf), list(z)
    for t, y in enumerate(xs):  # out= positional: the keyword form costs more per step
        np.add(zs[0], y, y)
        for n in range(d - 1):
            np.add(zs[n + 1], xbs[n][t], zs[n])
            np.subtract(zs[n], np.multiply(y, coef[n], tmp), zs[n])
        if ar_last:
            np.multiply(y, neg_a_last, zs[-1])
        elif ma_last:
            zs[-1][...] = xbs[-1][t]
        else:
            np.subtract(xbs[-1][t], np.multiply(y, coef[-1], tmp), zs[-1])
        if t == r - 1:
            last = z[:, -B:].copy()  # the line after the last block
    if resume or K > 1:
        (H, M, M_r), k0 = resp, 0 if resume else 1  # k0: the first block that ran from a zero line
        S = np.empty((d, K - k0 + 1, B))  # the line before each such block, then the line after the last
        S[:, 0] = line.T if resume else z[:, :B]
        M_last = M if r == span else M_r  # T as arrays: two-array ufuncs cost less than array-scalar ones
        Ms = [[[np.full(B, v)] * (K - k0 - 1) + [np.full(B, u)] for v, u in zip(*rows)] for rows in zip(M, M_last)]
        ends = [list(e) + [e_last] for e, e_last in zip(z.reshape(d, K, B)[:, k0:-1], last)]
        add_block_starts(buf[0, :, k0 * B :], ends, Ms, [Hj[:, None] for Hj in H], S)
        last = S[:, -1]
    from_blocks(buf[0].reshape(span, K, B), out)
    return last.T
