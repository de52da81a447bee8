"""Innovation distributions: iid noise normalized to mean 0 and variance 1.

Four laws are supported:

* ``standard_normal`` -- N(0, 1),
* ``student_t`` -- Student t with ``dof`` > 2, rescaled by
  sqrt((dof - 2)/dof) so the variance is exactly 1,
* ``rademacher`` -- +/-1 with probability 1/2 each,
* ``uniform`` -- U(-sqrt(3), sqrt(3)).

Expectations of nonlinear transforms are evaluated by adaptive quadrature
(continuous laws, split at the origin so kinks and log singularities are
handled) or exact enumeration (discrete laws).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy import stats as sps

from .errors import ParameterError, QuadratureError, RefusalError

__all__ = ["InnovationDist", "KINDS"]

KINDS = ("standard_normal", "student_t", "rademacher", "uniform")

_SQRT3 = math.sqrt(3.0)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
QUAD_REL_TOL = 1e-8


@dataclass(frozen=True)
class InnovationDist:
    """Law of the iid driving noise, mean 0 and unit variance by construction."""

    kind: str = "standard_normal"
    dof: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"unknown innovation kind {self.kind!r}; expected one of {KINDS}")
        if self.kind == "student_t":
            if self.dof is None:
                raise ParameterError("student_t innovations require dof")
            if not self.dof > 2:
                raise ParameterError(f"student_t dof must be > 2 for unit variance, got {self.dof}")
            if self.dof <= 4:
                warnings.warn(
                    f"student_t dof={self.dof} <= 4: fourth moment infinite, second-order "
                    "moment conditions of the limit theory are violated",
                    UserWarning,
                    stacklevel=2,
                )
        elif self.dof is not None:
            raise ParameterError(f"dof is only meaningful for student_t, got kind={self.kind!r}")

    # --- basic structure -------------------------------------------------

    @property
    def is_discrete(self) -> bool:
        return self.kind == "rademacher"

    @property
    def is_symmetric(self) -> bool:
        return True  # all supported laws are symmetric about 0

    @property
    def _t_scale(self) -> float:
        return math.sqrt((self.dof - 2.0) / self.dof)

    def support(self) -> tuple[float, float]:
        if self.kind == "uniform":
            return (-_SQRT3, _SQRT3)
        if self.kind == "rademacher":
            return (-1.0, 1.0)
        return (-math.inf, math.inf)

    # --- sampling ---------------------------------------------------------

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        if self.kind == "standard_normal":
            return rng.standard_normal(size)
        if self.kind == "student_t":
            return rng.standard_t(self.dof, size) * self._t_scale
        if self.kind == "rademacher":
            return rng.integers(0, 2, size).astype(np.float64) * 2.0 - 1.0
        return rng.uniform(-_SQRT3, _SQRT3, size)

    # --- density / distribution -------------------------------------------

    def pdf(self, x):
        if self.kind == "standard_normal":
            return np.exp(-0.5 * np.square(x)) / math.sqrt(2.0 * math.pi)
        if self.kind == "student_t":
            s = self._t_scale
            return sps.t.pdf(np.asarray(x) / s, self.dof) / s
        if self.kind == "uniform":
            x = np.asarray(x, dtype=float)
            return np.where(np.abs(x) <= _SQRT3, 1.0 / (2.0 * _SQRT3), 0.0)
        raise ParameterError("rademacher innovations have no density")

    def cdf(self, x):
        if self.kind == "standard_normal":
            return sps.norm.cdf(x)
        if self.kind == "student_t":
            return sps.t.cdf(np.asarray(x) / self._t_scale, self.dof)
        if self.kind == "uniform":
            return np.clip((np.asarray(x, dtype=float) + _SQRT3) / (2.0 * _SQRT3), 0.0, 1.0)
        x = np.asarray(x, dtype=float)
        return np.where(x < -1.0, 0.0, np.where(x < 1.0, 0.5, 1.0))

    def ppf(self, u):
        if self.kind == "standard_normal":
            return sps.norm.ppf(u)
        if self.kind == "student_t":
            return sps.t.ppf(u, self.dof) * self._t_scale
        if self.kind == "uniform":
            return -_SQRT3 + 2.0 * _SQRT3 * np.asarray(u, dtype=float)
        raise ParameterError("rademacher innovations have no continuous quantile function")

    # --- moments ----------------------------------------------------------

    def abs_mean(self) -> float:
        """E|eps|; closed form for the normal, quadrature/enumeration otherwise."""
        if self.kind == "standard_normal":
            return _SQRT_2_OVER_PI
        return self.expect(np.abs)

    def even_moment(self, k: int) -> float | None:
        """Closed-form E[eps^(2k)], or None when no finite closed form applies."""
        if k < 0:
            raise ParameterError("k must be non-negative")
        if k == 0:
            return 1.0
        if self.kind == "standard_normal":
            out = 1.0
            for i in range(1, 2 * k, 2):
                out *= i
            return float(out)
        if self.kind == "rademacher":
            return 1.0
        if self.kind == "uniform":
            return 3.0**k / (2 * k + 1)
        # scaled student t: E[eps^(2k)] = prod_{i<=k} (2i-1) nu / (nu - 2i), finite iff nu > 2k
        nu = self.dof
        if nu <= 2 * k:
            return None
        out = 1.0
        for i in range(1, k + 1):
            out *= (2 * i - 1) * (nu - 2.0) / (nu - 2.0 * i)
        return float(out)

    def expect(self, fn, rel_tol: float = QUAD_REL_TOL) -> float:
        """E[fn(eps)] by adaptive quadrature (continuous) or enumeration (discrete).

        The integration domain is split at 0 so that absolute-value kinks and
        log singularities at the origin are resolved. Where the density
        underflows to 0 the integrand is 0, so a far tail never weighs
        fn = inf by 0, and the error is judged against the size of the two
        halves, so an odd integrand whose halves cancel passes. Raises
        QuadratureError when the requested relative tolerance is not met,
        and RefusalError naming the moment when that is because fn grows like
        |eps|^k with k >= dof under a Student t law.
        """
        if self.kind == "rademacher":
            return 0.5 * (float(fn(-1.0)) + float(fn(1.0)))
        try:
            return _integrate(fn, self.pdf, self.support(), rel_tol)
        except QuadratureError:
            if self.kind == "student_t":
                k = _tail_power(fn)
                if k >= self.dof - 1e-3:  # k read off |t|^r can miss r by rounding
                    raise RefusalError(f"E|eps|^{k:.3g} is infinite under student_t(dof={self.dof:g})") from None
            raise


def _integrate(fn, pdf, support: tuple[float, float], rel_tol: float) -> float:
    def weighed(x):
        density = float(pdf(x))
        return float(fn(x)) * density if density > 0.0 else 0.0

    lo, hi = support
    halves = [_quad_piece(weighed, a, b) for a, b in ((lo, 0.0), (0.0, hi))]
    total = sum(val for val, _ in halves)
    err = sum(abserr for _, abserr in halves)
    scale = sum(abs(val) for val, _ in halves)
    if not math.isfinite(total):
        raise QuadratureError(math.inf, "integral is non-finite")
    # relative criterion, with an absolute floor so zero-valued integrals pass
    if err > max(rel_tol * scale, 1e-10):
        raise QuadratureError(err / max(scale, 1e-300))
    return total


def _tail_power(fn, x: float = 1e4) -> float:
    """Growth exponent k of |fn(t)| ~ |t|^k in the tails, read off at |t| = x and 2x."""
    with np.errstate(all="ignore"):
        ks = [float(np.log2(np.abs(fn(2.0 * t)) / np.abs(fn(t)))) for t in (-x, x)]
    return max((k for k in ks if not math.isnan(k)), default=0.0)


def _quad_piece(f, a, b) -> tuple[float, float]:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        out = integrate.quad(f, a, b, epsabs=1e-13, epsrel=1e-10, limit=200, full_output=1)
    val, abserr = out[0], out[1]
    if len(out) > 3:  # ier != 0: quad appended an explanation message
        raise QuadratureError(abs(abserr) / max(abs(val), 1e-12), str(out[3]).splitlines()[0])
    return float(val), float(abserr)
