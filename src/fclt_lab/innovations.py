"""Innovation distributions: iid noise normalized to mean 0 and variance 1.

Four laws are supported:

* ``standard_normal`` -- N(0, 1),
* ``student_t`` -- Student t with ``dof`` > 2, rescaled by
  sqrt((dof - 2)/dof) so the variance is exactly 1,
* ``rademacher`` -- +/-1 with probability 1/2 each,
* ``uniform`` -- U(-sqrt(3), sqrt(3)).

Every integral against the innovation law in the package -- the moment
conditions, the iid covariance of (X, |X|^r, 1{X <= q}), the fixed point of
the volatility recursion -- goes through ``InnovationDist.expect``, the one
integrator: a double-exponential rule in numpy (tanh-sinh on finite pieces,
exp-sinh on half-lines; Takahasi & Mori 1974, Bailey, Jeyabalan & Li 2005)
over the support intersected with [lo, hi], split at the origin so kinks and
log singularities sit at an end of a piece, with one accuracy policy
(``QUAD_REL_TOL``); a discrete law enumerates its atoms.

The normal cdf and quantile are computed in numpy from ``math.erf`` and
``math.erfc`` (the quantile by two Halley steps from a series or rational
start, within a few ulp of the exact value), so a normal, uniform or
Rademacher law needs no scipy. The Student t cdf, quantile and density come
from ``scipy.special``, imported on their first call, with the bits of
``scipy.stats``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, ParameterError, QuadratureError, RefusalError

__all__ = ["InnovationDist", "KINDS"]

KINDS = ("standard_normal", "student_t", "rademacher", "uniform")

_SQRT3 = math.sqrt(3.0)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_SQRT1_2 = math.sqrt(0.5)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_erf = np.vectorize(math.erf, otypes=[float])
_erfc = np.vectorize(math.erfc, otypes=[float])
# below this level the normal quantile's residual is taken in the log domain, where
# Phi(x) = phi(x) / |x| * sum_k (-1)^k (2k - 1)!! / x^(2k); at |x| >= 37 eight terms
# leave less than 1e-20
_NORMAL_DEEP_TAIL = 1e-300
_MILLS_TERMS = [(-1) ** k * math.prod(range(1, 2 * k, 2)) for k in range(1, 9)]
QUAD_REL_TOL = 1e-8
# the double-exponential rule: trapezoid sums in t over [-5, 5] with steps 1, 1/2,
# ..., 2^-8, stopping once two levels agree to 1e-10 relative or 1e-13 absolute;
# level 0 takes t = 0, +-1, ..., +-5 and level k adds the odd multiples of 2^-k
_DE_T = 5.0
_DE_STEPS = [np.arange(1.0, _DE_T + 0.5)] + [np.arange(0.5**k, _DE_T, 0.5 ** (k - 1)) for k in range(1, 9)]
_DE_EPSREL, _DE_EPSABS = 1e-10, 1e-13


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
            if not math.isfinite(self.dof):
                raise ParameterError(f"student_t dof must be finite, got {self.dof}")
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

    def sample(self, rng: np.random.Generator, size, out=None) -> np.ndarray:
        """``size`` draws from ``rng``; with ``out`` (C-contiguous, of shape
        ``size``) they are written there and ``out`` is returned, the same bits.
        The normal law draws straight into ``out``; the others draw, then copy."""
        if self.kind == "standard_normal":
            return rng.standard_normal(size, out=out)
        if self.kind == "student_t":
            draws = rng.standard_t(self.dof, size) * self._t_scale
        elif self.kind == "rademacher":
            draws = rng.integers(0, 2, size).astype(np.float64) * 2.0 - 1.0
        else:
            draws = rng.uniform(-_SQRT3, _SQRT3, size)
        if out is None:
            return draws
        out[...] = draws
        return out

    # --- density / distribution -------------------------------------------

    def pdf(self, x):
        if self.kind == "standard_normal":
            return np.exp(-0.5 * np.square(x)) / math.sqrt(2.0 * math.pi)
        if self.kind == "student_t":
            s = self._t_scale
            return _t_pdf(np.asarray(x) / s, self.dof) / s
        if self.kind == "uniform":
            x = np.asarray(x, dtype=float)
            return np.where(np.abs(x) <= _SQRT3, 1.0 / (2.0 * _SQRT3), 0.0)
        raise ParameterError("rademacher innovations have no density")

    def cdf(self, x):
        if self.kind == "standard_normal":
            return (0.5 * _erfc(np.asarray(x, dtype=float) * -_SQRT1_2))[()]
        if self.kind == "student_t":
            from scipy import special

            return special.stdtr(self.dof, np.asarray(x) / self._t_scale)
        if self.kind == "uniform":
            return np.clip((np.asarray(x, dtype=float) + _SQRT3) / (2.0 * _SQRT3), 0.0, 1.0)
        x = np.asarray(x, dtype=float)
        return np.where(x < -1.0, 0.0, np.where(x < 1.0, 0.5, 1.0))

    def ppf(self, u):
        """Quantile function; raises NumericsError where a u in (0, 1) has no
        finite quantile in double precision (``stdtrit`` returns +inf for
        u below about 1e-250 at dof 3)."""
        if self.kind == "standard_normal":
            q = _normal_ppf(u)
        elif self.kind == "student_t":
            from scipy import special

            q = special.stdtrit(self.dof, u) * self._t_scale
        elif self.kind == "uniform":
            q = -_SQRT3 + 2.0 * _SQRT3 * np.asarray(u, dtype=float)
        else:
            raise ParameterError("rademacher innovations have no continuous quantile function")
        u = np.asarray(u)
        if np.any((0.0 < u) & (u < 1.0) & ~np.isfinite(q)):
            raise NumericsError(f"{self.kind} quantile is out of double range at some u in (0, 1)")
        return q

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

    def expect(self, fn, lo: float = -math.inf, hi: float = math.inf) -> float:
        """E[fn(eps) 1(lo <= eps <= hi)]: the package's one integrator.

        ``fn`` is vectorised: it is called on arrays of nodes. Continuous laws
        are integrated by the double-exponential rule over the support
        intersected with [lo, hi], split at 0 when 0 lies inside so that
        absolute-value kinks and log singularities at the origin sit at the end
        of a piece; a discrete law enumerates its atoms in [lo, hi]. Where the
        density underflows to 0 the integrand is 0, so a far tail never
        weighs fn = inf by 0, and the error is judged against the size of the
        pieces, so an odd integrand whose halves cancel passes (under a
        symmetric law they cancel exactly). Raises QuadratureError when the
        integral is not finite or ``QUAD_REL_TOL`` is not met, and
        RefusalError naming the moment when that is because fn grows like
        |eps|^k with k >= dof under a Student t law.
        """
        if self.kind == "rademacher":
            return 0.5 * sum(float(fn(x)) for x in (-1.0, 1.0) if lo <= x <= hi)
        a, b = self.support()
        a, b = max(a, lo), min(b, hi)
        if not a < b:
            return 0.0
        try:
            return _integrate(fn, self.pdf, a, b)
        except QuadratureError:
            if self.kind == "student_t":
                k = _tail_power(fn)
                if k >= self.dof - 1e-3:  # k read off |t|^r can miss r by rounding
                    raise RefusalError(f"E|eps|^{k:.3g} is infinite under student_t(dof={self.dof:g})") from None
            raise


def _t_pdf(x, dof):
    """Unit-scale Student t density in the log form ``scipy.stats.t.pdf`` uses,
    so the bits match it."""
    from scipy import special

    return np.exp(
        np.log(special.poch(0.5 * dof, 0.5))
        - 0.5 * (np.log(dof) + np.log(np.pi))
        - (dof + 1) / 2 * np.log1p(x * x / dof)
    )


def _normal_ppf(u):
    """Standard normal quantile: NaN outside [0, 1], -inf at 0 and +inf at 1.

    The lower half is solved and mirrored, so ppf(1 - u) = -ppf(u) wherever
    1 - u is exact (every u >= 1/2).
    """
    u = np.asarray(u, dtype=float)
    p = np.minimum(u, 1.0 - u)
    x = np.where(p == 0.0, -math.inf, math.nan)
    inner = p > 0.0
    x[inner] = _normal_lower_quantile(p[inner])
    return np.where(u > 0.5, -x, x)[()]


def _normal_lower_quantile(p: np.ndarray) -> np.ndarray:
    """x <= 0 with Phi(x) = p for 0 < p <= 1/2.

    Starts from the quantile's odd Taylor series about 1/2 where p >= 1/4 and
    from the rational tail formula 26.2.23 of Abramowitz & Stegun (error below
    4.5e-4) elsewhere, then takes two Halley steps on Phi(x) - p, whose
    residual comes from ``erf`` at the centre (p - 1/2 is exact there) and
    from the lower-tail ``erfc`` in the tail. Below ``_NORMAL_DEEP_TAIL``,
    where erfc leaves the normal range, the steps are Newton steps on
    log Phi(x) - log p with Phi from its asymptotic series. The result is
    within a few ulp of the exact quantile of u, subnormal u included.
    """
    x = np.empty_like(p)
    mid, deep = p >= 0.25, p < _NORMAL_DEEP_TAIL
    tail = ~mid & ~deep
    s = _SQRT_2PI * (p[mid] - 0.5)
    s2 = s * s
    x[mid] = s * (1.0 + s2 * (1.0 / 6.0 + s2 * (7.0 / 120.0 + s2 * (127.0 / 5040.0))))
    t = np.sqrt(-2.0 * np.log(p[~mid]))
    x[~mid] = (2.515517 + t * (0.802853 + t * 0.010328)) / (1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308))) - t
    shallow = ~deep
    for _ in range(2):
        e = np.empty(np.count_nonzero(shallow))
        e[mid[shallow]] = 0.5 * _erf(x[mid] * _SQRT1_2) - (p[mid] - 0.5)
        e[tail[shallow]] = 0.5 * _erfc(x[tail] * -_SQRT1_2) - p[tail]
        xs = x[shallow]
        step = e * _SQRT_2PI * np.exp(0.5 * xs * xs)  # (Phi(x) - p) / phi(x)
        x[shallow] = xs - step / (1.0 + 0.5 * xs * step)
        xd = x[deep]
        w = 1.0 / (xd * xd)
        series = sum(c * w**k for k, c in enumerate(_MILLS_TERMS, start=1))  # |x| Phi(x) / phi(x) - 1
        log_ratio = -0.5 * xd * xd - np.log(-xd * _SQRT_2PI) + np.log1p(series) - np.log(p[deep])
        x[deep] = xd + log_ratio * (1.0 + series) / xd
    return x


def _integrate(fn, pdf, a: float, b: float) -> float:
    def weighed(x):
        with np.errstate(all="ignore"):
            density = pdf(x)
            return np.where(density > 0.0, fn(x) * density, 0.0)

    pieces = ((a, 0.0), (0.0, b)) if a < 0.0 < b else ((a, b),)
    halves = [_de_piece(weighed, lo, hi) for lo, hi in pieces]
    total = sum(val for val, _ in halves)
    err = sum(abserr for _, abserr in halves)
    scale = sum(abs(val) for val, _ in halves)
    if not math.isfinite(total):
        raise QuadratureError(math.inf, "integral is non-finite")
    # relative criterion, with an absolute floor so zero-valued integrals pass
    if err > max(QUAD_REL_TOL * scale, 1e-10):
        raise QuadratureError(err / max(scale, 1e-300))
    return total


def _tail_power(fn, x: float = 1e4) -> float:
    """Growth exponent k of |fn(t)| ~ |t|^k in the tails, read off at |t| = x and 2x."""
    with np.errstate(all="ignore"):
        ks = [float(np.log2(np.abs(fn(2.0 * t)) / np.abs(fn(t)))) for t in (-x, x)]
    return max((k for k in ks if not math.isnan(k)), default=0.0)


def _de_nodes(a: float, b: float, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x(t) and weights dx/dt of the map of the real line onto (a, b).

    tanh-sinh on a finite piece, x = (a + b)/2 + (b - a)/2 tanh(pi/2 sinh t),
    computed as a distance from the near end so that nodes crowd an end
    without rounding onto it; exp-sinh, x = a + exp(pi/2 sinh t), on [a, inf),
    and its mirror b - exp(pi/2 sinh t) on (-inf, b].
    """
    s = 0.5 * math.pi * np.sinh(t)
    c = 0.5 * math.pi * np.cosh(t)
    if math.isfinite(a) and math.isfinite(b):
        e = np.exp(-2.0 * np.abs(s))
        d = (b - a) * e / (1.0 + e)
        return np.where(t <= 0.0, a + d, b - d), 2.0 * (b - a) * c * e / np.square(1.0 + e)
    u = np.exp(s)
    return (a + u if math.isfinite(a) else b - u), u * c


def _de_piece(f, a: float, b: float) -> tuple[float, float]:
    """(integral of f over (a, b), error estimate) by the double-exponential rule.

    Level k is the trapezoid sum with step 2^-k in t; it evaluates f once, on
    an array of its new nodes. The error is the change between the last two
    levels, or the end terms at t = +-_DE_T if larger: those bound what
    truncating t leaves out, and stay large when f is not integrable at an
    end. The nodes at -t and +t are summed separately, so a mirrored piece
    gives the exact negative.
    """
    total = est = 0.0
    ends = diff = math.inf
    for level, u in enumerate(_DE_STEPS):
        x, w = _de_nodes(a, b, np.concatenate([-u, u, [0.0]] if level == 0 else [-u, u]))
        fw = f(x) * w
        n = u.size
        total += np.sum(fw[2 * n :]) + (np.sum(fw[:n]) + np.sum(fw[n : 2 * n]))
        if not math.isfinite(total):
            return float(total), math.inf
        if level == 0:
            ends = abs(fw[n - 1]) + abs(fw[2 * n - 1])  # t = -5 and +5
        prev, est = est, float(total) * 0.5**level
        diff = abs(est - prev) if level else math.inf
        if level >= 3 and diff <= max(_DE_EPSABS, _DE_EPSREL * abs(est)):
            break
    return est, float(max(diff, ends))
