"""ARMA(p,q) simulation with iid or GARCH innovations.

The lag polynomials follow the convention

    Phi(z) = 1 + phi_1 z + ... + phi_p z^p,
    Theta(z) = 1 + theta_1 z + ... + theta_q z^q,

so the recursion is X_t = -sum_i phi_i X_{t-i} + eps_t + sum_j theta_j eps_{t-j}.
Causality requires Phi(z) != 0 for all |z| <= 1; simulation is the causal
linear filter applied to the innovation series.

The filter is the transposed direct form with a delay line z of length
N - 1 = max(p, q, 1), run in the order of operations of SciPy's IIR filter
routine, so its values and final states have that routine's bits:
y_t = z_0 + x_t, then z_n = (z_{n+1} + x_t b_{n+1}) - y_t a_{n+1} for each
inner delay and z_{N-2} = x_t b_{N-1} - y_t a_{N-1} for the last, with b the
coefficients of Theta and a those of Phi, padded with zeros. A batch of at
most 8 rows runs it row by row on Python floats; a wider batch runs it
time-major, one ufunc per term per step, over time tiles of about 1 MiB per
buffer. Both paths give the same bits. Where only one coefficient of the last
delay is zero, both drop its term (z_{N-2} = y_t (-a_{N-1}) for an AR last
delay, x_t b_{N-1} for an MA one); that can change only the sign of a zero
state, which shows in a value only if an innovation is zero as well. The
filter is numpy and Python only: no scipy module is loaded.
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
_ROW_LOOP_ROWS = 8  # a batch of at most this many rows runs the filter on Python floats
_ROW_CHUNK = 2**16  # steps per Python-float chunk of a row
_TILE_BYTES = 2**20  # size of one buffer of a time tile
_MAX_BLOCK_ROWS = _TILE_BYTES // (8 * 16)  # wider batches run in row blocks, so a 16-step tile stays 1 MiB


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
    ``state`` (..., max(p, q, 1)); returns (values, final delay line).

    The recursion and its order of operations are those of the module
    docstring, so a path split anywhere resumes bit for bit from the delay
    line. A batch of at most ``_ROW_LOOP_ROWS`` rows runs on Python floats,
    row by row; a wider one runs time-major over tiles (``_filter_tiles``).
    Both give the same bits, so the switch never shows in an output.
    """
    b = spec.theta + (0.0,) * (max(spec.p, 1) - spec.q)  # b_1..b_{N-1}
    a = spec.phi + (0.0,) * (len(b) - spec.p)  # a_1..a_{N-1}
    x = np.asarray(eps, dtype=np.float64)
    T = x.shape[-1]
    rows = x.reshape(math.prod(x.shape[:-1]), T)
    z = np.array(np.reshape(state, (rows.shape[0], len(b))), dtype=np.float64)
    values = np.empty(rows.shape)
    if rows.shape[0] <= _ROW_LOOP_ROWS:
        for row, out, zr in zip(rows, values, z):
            _filter_row(b, a, row, out, zr)
    else:
        for r0 in range(0, rows.shape[0], _MAX_BLOCK_ROWS):  # rows are independent: blocks do not change bits
            block = slice(r0, r0 + _MAX_BLOCK_ROWS)
            _filter_tiles(b, a, rows[block], values[block], z[block])
    return values.reshape(x.shape), z.reshape(x.shape[:-1] + (len(b),))


def _filter_row(b, a, x, out, state):
    """The filter over one row ``x`` into ``out`` on Python floats, in chunks
    of ``_ROW_CHUNK`` steps; ``state`` is updated in place."""
    z = state.tolist()
    mids = [(n, bn, an) for n, (bn, an) in enumerate(zip(b[:-1], a[:-1]))]
    b_last, a_last, neg_a_last = b[-1], a[-1], -a[-1]
    ar_last, ma_last = b_last == 0.0 != a_last, a_last == 0.0 != b_last
    for start in range(0, x.shape[0], _ROW_CHUNK):
        ys = []
        put = ys.append
        for xt in x[start : start + _ROW_CHUNK].tolist():
            yt = z[0] + xt
            for n, bn, an in mids:
                z[n] = (z[n + 1] + xt * bn) - yt * an
            z[-1] = yt * neg_a_last if ar_last else xt * b_last if ma_last else xt * b_last - yt * a_last
            put(yt)
        out[start : start + _ROW_CHUNK] = ys
    state[:] = z


def _filter_tiles(b, a, rows, values, state):
    """The filter over (B, T) ``rows`` into ``values``, time-major over tiles of
    about 1 MiB per buffer; ``state`` (B, N - 1) is updated in place.

    A tile holds the innovations, which each step overwrites with y_t, and
    x_t b_{n+1} for every delay n; the delay line stays in N - 1 rows of its
    own, which every step updates in place.
    """
    B, T = rows.shape
    width = max(16, _TILE_BYTES // (8 * B))
    tile = np.empty((len(b) + 1, min(width, T), B))
    xs, *xbs = (list(buf) for buf in tile)
    coef = [np.full(B, an) for an in a]  # two-array ufuncs cost less per call than array-scalar ones
    neg_a_last = np.full(B, -a[-1])
    tmp = np.empty(B)
    z = list(state.T.copy())
    add, subtract, multiply = np.add, np.subtract, np.multiply
    mids = range(len(b) - 1)
    z_last, xb_last, a_last = z[-1], xbs[-1], coef[-1]
    ar_last, ma_last = b[-1] == 0.0 != a[-1], a[-1] == 0.0 != b[-1]
    for start in range(0, T, width):
        w = min(width, T - start)
        x = tile[0, :w]
        x[...] = rows[:, start : start + w].T
        for bn, xb in zip(b[:-1] if ar_last else b, tile[1:, :w]):
            multiply(x, bn, xb)
        for t, y in enumerate(xs[:w]):  # out= positional: the keyword form costs more per step
            add(z[0], y, y)
            for n in mids:
                add(z[n + 1], xbs[n][t], z[n])
                subtract(z[n], multiply(y, coef[n], tmp), z[n])
            if ar_last:
                multiply(y, neg_a_last, z_last)
            elif ma_last:
                z_last[...] = xb_last[t]
            else:
                subtract(xb_last[t], multiply(y, a_last, tmp), z_last)
        values[:, start : start + w] = x.T
    state[...] = np.stack(z, axis=-1)
