"""Checkers for the moment and causality conditions of the limit theory.

For a polynomial-group augmented GARCH spec and moment order r the governing
condition is the norm bound

    sum_j || c_j(eps) ||_s < 1,    s = max(1, r / d),

with d the power of the volatility state, together with positivity (A) of
the g_i, c_j transforms. For the exponential group the bound is
sum_j |c_j| < 1 (the c_j are the constant beta_j) plus finiteness of
E[exp(4 r sum_i g_i(eps)^2)]; its state is log sigma^2, which needs no
positivity, so there A is reported but does not gate a run. ARMA causality
requires every root of the autoregressive polynomial to lie strictly outside
the unit circle.

Every threshold check builds its report through one rule, ``_report``: a
value satisfies its condition only beyond the threshold by ``MARGIN``, a value
within ``MARGIN`` of it is a "boundary: not satisfied", and a check may force
"not satisfied" with a note of its own. Positivity (A) alone keeps its own
rule: it is non-strict, a minimum of at least -1e-12 satisfies it.

The quadrature oracle (``InnovationDist.expect``, a double-exponential rule
through which every integral here goes) is authoritative; closed-form table
rows are convenience paths cross-checked against it. Exponential-moment
finiteness is only semi-decidable numerically: it is classified by growth
probes at the origin and in the tails plus truncated quadrature, and comes
back inconclusive when a piece of the quadrature misses its accuracy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .arma import ArmaSpec
from .errors import ParameterError, QuadratureError, RefusalError, WrongGroupError
from .estimators import _check_r
from .garch import AugGarchSpec, EXPONENTIAL_MODELS
from .innovations import InnovationDist
from .processes import IidSpec, ProcessSpec

__all__ = [
    "ConditionReport",
    "MARGIN",
    "moment_functional",
    "check_causality",
    "check_positivity",
    "check_polynomial_condition",
    "check_exponential_condition",
    "check_garch_stationarity",
    "table_closed_form_report",
    "check_spec",
    "approve",
    "refusal",
]

MARGIN = 1e-10  # strict inequalities enforced with this margin


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one condition check.

    ``direction`` records which side of the threshold satisfies the condition:
    "below" for the < 1 family, "above" for root moduli > 1 and positivity.
    ``order`` carries the norm index s (or the moment order) where relevant.
    """

    condition_name: str
    satisfied: bool
    computed_value: float
    threshold: float
    method: str  # closed_form | quadrature | monte_carlo
    direction: str = "below"
    order: float | None = None
    discrepancy_note: str | None = None

    def to_obj(self) -> dict:
        return asdict(self)


def _report(name, value, threshold, method, direction="below", order=None, note=None, notes=(), fail=False):
    """The one report rule of a threshold check: satisfied iff ``value`` lies
    beyond ``threshold`` by MARGIN on the ``direction`` side and ``fail`` is
    not set. The notes join with "; " in order: the given ``note``, then
    "boundary: not satisfied" within MARGIN of the threshold, then ``notes``."""
    ok = value < threshold - MARGIN if direction == "below" else value > threshold + MARGIN
    boundary = "boundary: not satisfied" if threshold - MARGIN <= value <= threshold + MARGIN else None
    note = "; ".join(part for part in (note, boundary, *notes) if part is not None) or None
    return ConditionReport(name, ok and not fail, float(value), float(threshold), method, direction, order, note)


# --- generic moment oracle ----------------------------------------------------


def moment_functional(dist: InnovationDist, f, s: float) -> float:
    """E[|f(eps)|^s] by quadrature (continuous) or enumeration (discrete); f is vectorised."""
    if s < 1:
        raise ParameterError(f"norm order s must be >= 1, got {s}")
    return dist.expect(lambda x: np.abs(f(x)) ** s)


def _norm_sum(dist: InnovationDist, transforms, s: float) -> float:
    """sum_j ||f_j(eps)||_s over the given transforms of the innovation."""
    return float(sum(moment_functional(dist, f, s) ** (1.0 / s) for f in transforms))


# --- causality ------------------------------------------------------------------


def check_causality(spec: ArmaSpec) -> ConditionReport:
    """Minimum modulus of the AR polynomial roots; satisfied iff > 1."""
    modulus = spec.min_phi_root_modulus()
    return _report("causality", modulus, 1.0, "closed_form", direction="above")


# --- positivity (A) -------------------------------------------------------------


def _support_grid(dist: InnovationDist) -> np.ndarray:
    if dist.is_discrete:
        return np.array([-1.0, 1.0])
    u = np.linspace(1e-6, 1.0 - 1e-6, 4001)
    grid = dist.ppf(u)
    lo, hi = dist.support()
    extremes = [x for x in (lo, hi) if math.isfinite(x)]
    near_zero = np.array([-1e-6, -1e-12, 1e-12, 1e-6])
    return np.unique(np.concatenate([grid, near_zero, np.asarray(extremes)]))


def check_positivity(spec: AugGarchSpec) -> ConditionReport:
    """Positivity of every g_i and c_j over the innovation support.

    Named polynomial models satisfy positivity by their parameter
    restrictions; the grid evaluation is still reported as the computed value.
    Non-strict: a zero minimum satisfies the condition. For the exponential
    group the report is informational: its log state needs no positivity.
    """
    grid = _support_grid(spec.innovation)
    vmin = math.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        for fn in spec.g_transforms() + spec.c_transforms():
            vals = np.asarray(fn(grid), dtype=float)
            vals = vals[np.isfinite(vals)]
            if vals.size:
                vmin = min(vmin, float(vals.min()))
    method = "closed_form" if spec.model not in ("generic", *EXPONENTIAL_MODELS) else "monte_carlo"
    satisfied = vmin >= -1e-12
    return ConditionReport(
        condition_name="A",
        satisfied=satisfied,
        computed_value=vmin,
        threshold=0.0,
        method=method,
        direction="above",
        discrepancy_note="informational: the log state needs no positivity" if spec.is_exponential else None,
    )


# --- polynomial group ------------------------------------------------------------


def check_polynomial_condition(spec: AugGarchSpec, r: int) -> ConditionReport:
    """Norm-sum check at s = max(1, r/d) for the polynomial group."""
    if spec.is_exponential:
        raise WrongGroupError("spec belongs to the exponential group; use check_exponential_condition")
    _check_r(r)
    s = max(1.0, float(r) / spec.lam_exponent)
    positivity = check_positivity(spec)
    g_sum = _norm_sum(spec.innovation, spec.g_transforms(), s)  # must be finite; quadrature raises otherwise
    c_sum = _norm_sum(spec.innovation, spec.c_transforms(), s)
    notes = []
    if not positivity.satisfied:
        notes.append(f"positivity (A) fails: min transform value {positivity.computed_value:.3g} < 0")
    if not math.isfinite(g_sum):
        notes.append("g-norm sum not finite")
    return _report("P_s", c_sum, 1.0, "quadrature", order=s, notes=notes, fail=bool(notes))


# --- exponential group -------------------------------------------------------------


def _exp_moment_class(spec: AugGarchSpec, r: int) -> tuple[str, float]:
    """Classify E[exp(4 r sum_i g_i(eps)^2)] as finite / divergent / inconclusive.

    Discrete laws are enumerated exactly. A continuous law is first probed at
    the origin with rho = 4 r sum g_i^2 + log pdf + log|eps|, the log of |eps|
    times the integrand, at |eps| = 1e-2, 1e-4, 1e-6, 1e-8. The integral
    diverges at 0 if rho rises toward 0, or if it bends upward steadily in
    log|eps|: growth quadratic in log|eps| overtakes the log|eps| of the
    measure at some smaller |eps|, below 1e-8 for a small alpha. This is
    mgarch, whose g_i carry log eps^2, under any law with a positive density
    at 0. Compact supports then integrate over the support; unbounded
    supports combine truncated quadrature (the origin shell |eps| < 1e-8, of
    negligible probability mass, is excluded because log transforms are
    singular there) with a growth probe of 4 r sum g_i^2 + log pdf at
    increasing |eps|. Every piece goes through
    ``InnovationDist.expect``: a piece that misses its accuracy is
    inconclusive, and an infinite integral or error estimate is divergent.
    """
    dist = spec.innovation
    g_list = spec.g_transforms()

    def integrand_exponent(x):
        return 4.0 * r * sum(np.square(g(x)) for g in g_list)

    if dist.is_discrete:
        return "finite", dist.expect(lambda x: np.exp(integrand_exponent(x)))

    def growth(x):  # the larger of 4 r sum g_i^2 + log pdf at x and -x
        with np.errstate(divide="ignore", over="ignore"):
            return np.maximum(
                integrand_exponent(x) + np.log(dist.pdf(x)), integrand_exponent(-x) + np.log(dist.pdf(-x))
            )

    origin = np.array([1e-2, 1e-4, 1e-6, 1e-8])
    rho = growth(origin) + np.log(origin)
    bend = np.diff(rho, 2)  # equal steps in log|eps|: a steady bend is quadratic growth
    if rho[-1] > rho[-2] or (bend[0] > 1e-9 and bend[-1] > 0.5 * bend[0]):
        return "divergent", math.inf

    lo, hi = dist.support()
    if math.isfinite(lo) and math.isfinite(hi):
        tail_ok = True
    else:
        tau = growth(np.array([8.0, 16.0, 32.0, 64.0]))
        decreasing = bool(np.all(np.diff(tau) < 0.0))
        if decreasing and tau[-1] < -30.0:
            tail_ok = True
        elif tau[-1] > tau[-2]:
            return "divergent", math.inf
        else:
            return "inconclusive", math.nan

    floor = 1e-8
    cut = 64.0 if not math.isfinite(hi) else hi
    lo_cut = -64.0 if not math.isfinite(lo) else lo
    pieces = [(lo_cut, -floor), (floor, cut)]
    if not math.isfinite(hi):  # add the analytic-decay tails by quadrature
        pieces += [(cut, math.inf), (-math.inf, lo_cut)]
    try:
        total = sum(dist.expect(lambda x: np.exp(np.minimum(integrand_exponent(x), 700.0)), a, b) for a, b in pieces)
    except QuadratureError as exc:
        return ("divergent", math.inf) if math.isinf(exc.achieved_rel_tol) else ("inconclusive", math.nan)
    except RefusalError:  # the Student t tail-power probe assumes polynomial growth
        return "inconclusive", math.nan
    return ("finite" if tail_ok else "inconclusive"), total


def check_exponential_condition(spec: AugGarchSpec, r: int) -> ConditionReport:
    """(sum_j |c_j| < 1) plus finiteness of the exponential g-moment."""
    if not spec.is_exponential:
        raise WrongGroupError("spec belongs to the polynomial group; use check_polynomial_condition")
    _check_r(r)
    if spec.model == "generic":
        grid = _support_grid(spec.innovation)
        c_sum = float(sum(np.max(np.abs(np.asarray(c(grid), dtype=float))) for c in spec.c_transforms()))
        method = "monte_carlo"
    else:
        c_sum = float(sum(abs(b) for b in spec.beta))  # c_j = beta_j exactly
        method = "closed_form"
    verdict, value = _exp_moment_class(spec, r)
    note = f"exponential g-moment {verdict}"
    if verdict == "finite":
        note += f" (truncated quadrature value {value:.6g})"
    return _report("L_r", c_sum, 1.0, method, order=float(r), notes=[note], fail=verdict != "finite")


# --- GARCH strict-stationarity shortcut ----------------------------------------------


def check_garch_stationarity(spec: AugGarchSpec, note: str | None = None) -> ConditionReport:
    """Sufficient strict-stationarity condition sum alpha + sum beta < 1
    (unit-variance innovations); ``note`` comes first among the report's notes."""
    if spec.model != "garch":
        raise WrongGroupError("stationarity shortcut applies to the garch model only")
    value = float(sum(spec.alpha) + sum(spec.beta))
    return _report("garch_stationarity", value, 1.0, "closed_form", note=note)


# --- closed-form table rows -------------------------------------------------------


def table_closed_form_report(spec: AugGarchSpec, r: int) -> ConditionReport | None:
    """Closed-form specialization of the norm-sum for selected model/r pairs.

    Returns None when no elementary closed form is implemented. Values use
    the same norm-sum convention as the quadrature oracle so the two paths are
    directly comparable. The GARCH r=2 entry follows the expansion
    E[(a e^2 + b)^2] = a^2 E[e^4] + 2ab + b^2 and carries a note about the
    commonly printed variant with a single ab cross term.
    """
    if spec.model == "generic":
        return None
    dist = spec.innovation
    if spec.is_exponential:
        value = float(sum(abs(b) for b in spec.beta))
        return _report("table3_row", value, 1.0, "closed_form", order=float(r))

    al, be, ga = spec.lag_coefficients()

    if spec.model == "vgarch":
        value = float(sum(spec.beta))
        return _report("table2_row", value, 1.0, "closed_form", order=max(1.0, float(r)))

    if spec.model == "arch":
        m2r = dist.even_moment(r)
        if m2r is None:
            return None
        value = float(sum(spec.alpha)) * m2r ** (1.0 / r)
        return _report("table2_row", value, 1.0, "closed_form", order=float(r))

    if spec.model == "garch":
        if r == 1:
            value = float(sum(al) + sum(be))
            return _report("table2_row", value, 1.0, "closed_form", order=1.0)
        if r == 2:
            m4 = dist.even_moment(2)
            if m4 is None:
                return None
            value = float(sum(math.sqrt(a * a * m4 + 2.0 * a * b + b * b) for a, b in zip(al, be)))
            note = (
                "expansion value E[(a e^2+b)^2] = a^2 E[e^4] + 2ab + b^2; printed table row "
                "uses a^2 E[e^4] + ab + b^2 (single cross term)"
            )
            return _report("table2_row", value, 1.0, "closed_form", order=2.0, note=note)
        return None

    if r != 1:
        return None

    # ngarch under any unit-variance law, agarch and apgarch at delta = 1 under a symmetric one
    symmetric_power = spec.model == "agarch" or (spec.model == "apgarch" and spec.delta == 1.0)
    if spec.model == "ngarch" or (symmetric_power and dist.is_symmetric):
        value = float(sum(a * (1.0 + g * g) + b for a, b, g in zip(al, be, ga)))
        return _report("table2_row", value, 1.0, "closed_form", order=1.0)

    if spec.model == "gjr":
        if not dist.is_symmetric:
            return None
        # E[max(0,-e)^2] = 1/2 for symmetric unit-variance innovations
        value = float(sum(a + 0.5 * g + b for a, b, g in zip(al, be, ga)))
        return _report("table2_row", value, 1.0, "closed_form", order=1.0)

    return None


# --- aggregation -------------------------------------------------------------------


def check_spec(spec: ProcessSpec, r: int) -> list[ConditionReport]:
    """All condition reports relevant for (spec, r)."""
    if isinstance(spec, IidSpec):
        return []
    if isinstance(spec, ArmaSpec):
        reports = [check_causality(spec)]
        if isinstance(spec.innovation, AugGarchSpec):
            note = None
            if spec.innovation.innovation.is_discrete:
                note = (
                    "innovation law is discrete: absolute regularity of the "
                    "GARCH innovations needs a positive density near 0"
                )
            reports.append(check_garch_stationarity(spec.innovation, note))
        return reports
    if isinstance(spec, AugGarchSpec):
        reports = [check_positivity(spec)]
        if spec.is_exponential:
            reports.append(check_exponential_condition(spec, r))
        else:
            reports.append(check_polynomial_condition(spec, r))
        if spec.model == "garch":
            reports.append(check_garch_stationarity(spec))
        row = table_closed_form_report(spec, r)
        if row is not None:
            reports.append(row)
        return reports
    raise ParameterError(f"unknown spec type {type(spec).__name__}")


_GATING = {"causality", "P_s", "L_r", "A", "garch_stationarity"}


def _gates(spec: ProcessSpec, rep: ConditionReport) -> bool:
    """Whether ``rep`` gates a run of ``spec``: positivity (A) only in the polynomial group."""
    if rep.condition_name == "A" and spec.is_exponential:
        return False
    return rep.condition_name in _GATING


def approve(spec: ProcessSpec, r: int) -> tuple[bool, list[ConditionReport]]:
    """Whether the limit theory's checkable preconditions hold for (spec, r).

    ``check_spec`` is a pure function of (spec, r) (quadrature and fixed
    grids, no randomness), so the verdict is computed once per pair; every
    call gets a fresh list of the (frozen) reports.
    """
    ok, reports = _approval(spec, r)
    return ok, list(reports)


@functools.lru_cache(maxsize=256)
def _approval(spec: ProcessSpec, r: int) -> tuple[bool, tuple[ConditionReport, ...]]:
    reports = tuple(check_spec(spec, r))
    return all(rep.satisfied for rep in reports if _gates(spec, rep)), reports


def refusal(spec: ProcessSpec, reports: list[ConditionReport]) -> RefusalError:
    """The refusal of a run of ``spec`` whose ``approve`` failed, citing every unsatisfied report that gates it."""
    failed = [rep for rep in reports if not rep.satisfied and _gates(spec, rep)]
    return RefusalError(
        "conditions fail: "
        + "; ".join(
            f"{rep.condition_name} computed={rep.computed_value:.6g} threshold={rep.threshold:g}" for rep in failed
        ),
        reports=failed,
    )
