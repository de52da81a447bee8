import math

import numpy as np
import pytest

from fclt_lab.arma import ArmaSpec
from fclt_lab.conditions import (
    approve,
    check_causality,
    check_exponential_condition,
    check_garch_stationarity,
    check_polynomial_condition,
    check_positivity,
    check_spec,
    moment_functional,
    table_closed_form_report,
)
from fclt_lab.errors import WrongGroupError
from fclt_lab.garch import AugGarchSpec
from fclt_lab.innovations import InnovationDist

NORMAL = InnovationDist()


def garch(alpha, beta, omega=0.1, dist=NORMAL):
    return AugGarchSpec(model="garch", p=len(alpha), q=len(beta), omega=omega, alpha=alpha, beta=beta, innovation=dist)


# --- causality ------------------------------------------------------------------


def test_causality_linear_root():
    rep = check_causality(ArmaSpec(phi=(-0.5,)))
    assert rep.satisfied and rep.computed_value == pytest.approx(2.0)


def test_causality_unit_root_boundary():
    rep = check_causality(ArmaSpec(phi=(-1.0,)))
    assert not rep.satisfied
    assert rep.computed_value == pytest.approx(1.0)
    assert "boundary" in rep.discrepancy_note


def test_causality_quadratic_vs_formula_oracle():
    # Phi(z) = 1 - 1.2 z + 0.35 z^2; quadratic-formula roots {2, 10/7}
    disc = math.sqrt(1.2**2 - 4 * 0.35)
    roots = sorted([(1.2 - disc) / (2 * 0.35), (1.2 + disc) / (2 * 0.35)])
    assert roots == pytest.approx([10 / 7, 2.0])
    rep = check_causality(ArmaSpec(phi=(-1.2, 0.35)))
    assert rep.satisfied
    assert rep.computed_value == pytest.approx(min(roots), rel=1e-9)


# --- moment functional -----------------------------------------------------------


def test_moment_functional_normal_fourth_moment():
    assert moment_functional(NORMAL, lambda x: x * x, 2) == pytest.approx(3.0, rel=1e-8)


def test_moment_functional_half_normal_mean():
    assert moment_functional(NORMAL, lambda x: x, 1) == pytest.approx(math.sqrt(2 / math.pi), rel=1e-8)


def test_moment_functional_garch_transform():
    # E[(0.2 x^2 + 0.7)^2] = 0.04*3 + 2*0.2*0.7 + 0.49 = 0.89
    val = moment_functional(NORMAL, lambda x: 0.2 * x * x + 0.7, 2)
    assert val == pytest.approx(0.89, rel=1e-8)


# --- polynomial group -------------------------------------------------------------


def test_garch_r1_condition_is_alpha_plus_beta():
    rep = check_polynomial_condition(garch((0.1,), (0.8,)), 1)
    assert rep.satisfied
    assert rep.computed_value == pytest.approx(0.9, rel=1e-9)
    assert rep.order == 1.0


def test_arch_boundary_not_satisfied():
    spec = AugGarchSpec(model="arch", p=1, q=0, omega=0.1, alpha=(1.0,))
    rep = check_polynomial_condition(spec, 1)
    assert not rep.satisfied
    assert rep.computed_value == pytest.approx(1.0, abs=1e-9)
    assert "boundary" in rep.discrepancy_note


def test_garch_r2_quadrature_value():
    rep = check_polynomial_condition(garch((0.2,), (0.7,)), 2)
    assert rep.satisfied
    assert rep.computed_value**2 == pytest.approx(0.89, rel=1e-7)  # E[(0.2 e^2 + 0.7)^2]
    assert rep.order == 2.0


def test_polynomial_checker_rejects_exponential_group():
    spec = AugGarchSpec(model="egarch", p=1, q=1, omega=0.0, alpha=(0.1,), beta=(0.5,), gamma=(0.0,))
    with pytest.raises(WrongGroupError):
        check_polynomial_condition(spec, 1)


def test_monotonicity_of_norm_sums_in_s():
    # L_s norms are non-decreasing in s, so the satisfied set is downward closed
    spec = garch((0.2,), (0.7,))
    values = [check_polynomial_condition(spec, r).computed_value for r in (1, 2, 3, 4)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    sats = [check_polynomial_condition(spec, r).satisfied for r in (1, 2, 3, 4)]
    for earlier, later in zip(sats, sats[1:]):
        assert earlier or not later  # once failed, stays failed


def test_nesting_apgarch_delta1_equals_garch():
    g = garch((0.2,), (0.7,))
    ap = AugGarchSpec(
        model="apgarch", p=1, q=1, omega=0.1, alpha=(0.2,), beta=(0.7,), gamma=(0.0,), delta=1.0
    )
    for r in (1, 2):
        a = check_polynomial_condition(g, r).computed_value
        b = check_polynomial_condition(ap, r).computed_value
        assert abs(a - b) < 1e-10


def test_tgarch_uses_doubled_norm_index():
    spec = AugGarchSpec(model="tgarch", p=1, q=1, omega=0.1, alpha=(0.2,), beta=(0.5,), gamma=(0.3,))
    rep = check_polynomial_condition(spec, 1)
    assert rep.order == 2.0  # s = max(1, r/delta) with delta = 1/2


# --- exponential group --------------------------------------------------------------


def test_egarch_constant_c_check():
    spec = AugGarchSpec(model="egarch", p=1, q=1, omega=0.0, alpha=(0.1,), beta=(0.5,), gamma=(0.0,))
    rep = check_exponential_condition(spec, 1)
    assert rep.satisfied
    assert rep.computed_value == pytest.approx(0.5)


def test_mgarch_boundary_beta():
    spec = AugGarchSpec(model="mgarch", p=1, q=1, omega=0.1, alpha=(0.05,), beta=(1.0,))
    rep = check_exponential_condition(spec, 1)
    assert not rep.satisfied
    assert "boundary" in rep.discrepancy_note


def test_notes_run_boundary_first_then_the_forced_failures():
    # c = 1 sits on the threshold and g = eps goes negative: both notes, in that order
    spec = AugGarchSpec(
        model="generic", g_funcs=(lambda e: e,), c_funcs=(lambda e: np.ones(np.shape(e)),), lam=("power", 1.0)
    )
    rep = check_polynomial_condition(spec, 1)
    boundary, positivity = rep.discrepancy_note.split("; ")
    assert not rep.satisfied and boundary == "boundary: not satisfied"
    assert positivity.startswith("positivity (A) fails: min transform value -")
    rep = check_exponential_condition(AugGarchSpec(model="mgarch", p=1, q=1, omega=0.1, alpha=(0.0,), beta=(1.0,)), 1)
    assert rep.discrepancy_note.startswith("boundary: not satisfied; exponential g-moment finite (")


@pytest.mark.parametrize(
    "omega, alpha, dist, r",
    [
        (0.1, 0.05, NORMAL, 1),
        (0.1, 0.05, NORMAL, 2),
        (-0.5, 0.15, InnovationDist("student_t", dof=15.0), 3),
        (0.1, 0.01, NORMAL, 2),
        (0.5, 0.01, InnovationDist("uniform"), 1),
    ],
    ids=["small_alpha", "normal", "student_t", "tiny_alpha", "uniform"],
)
def test_mgarch_exponential_moment_diverges_at_the_origin(omega, alpha, dist, r):
    # exp(4 r g^2), g = omega + alpha log(eps^2), grows like exp(c log^2|eps|)
    # at 0, which no density there can carry; the excluded shell |eps| < 1e-8
    # keeps the truncated integral finite, so only the origin probe sees it.
    # At alpha = 0.01 rho starts to rise only near |eps| = 1e-70 (tiny_alpha)
    # and 1e-146 (uniform); its steady bend between 1e-2 and 1e-8 shows the
    # divergence. Under the Student t law the verdict must not be a refusal.
    spec = AugGarchSpec(model="mgarch", p=1, q=1, omega=omega, alpha=(alpha,), beta=(0.5,), innovation=dist)
    rep = check_exponential_condition(spec, r)
    assert not rep.satisfied
    assert rep.discrepancy_note == "exponential g-moment divergent"


def test_mgarch_small_alpha_exponential_moment_finite():
    # Rademacher puts no mass near the origin: log eps^2 = 0, so g = omega and
    # the moment is exp(4 omega^2) exactly, enumerated without quadrature
    spec = AugGarchSpec(
        model="mgarch", p=1, q=1, omega=0.1, alpha=(0.05,), beta=(0.5,), innovation=InnovationDist("rademacher")
    )
    rep = check_exponential_condition(spec, 1)
    assert rep.satisfied
    assert "finite" in rep.discrepancy_note
    value = float(rep.discrepancy_note.split("value ")[1].rstrip(")"))
    assert value == pytest.approx(math.exp(0.04), rel=1e-5)


def test_mgarch_without_alpha_exponential_moment_finite():
    # g = omega is constant: E exp(4 r omega^2) less the excluded shell's mass
    spec = AugGarchSpec(model="mgarch", p=1, q=1, omega=0.1, alpha=(0.0,), beta=(0.5,))
    rep = check_exponential_condition(spec, 2)
    assert rep.satisfied
    value = float(rep.discrepancy_note.split("value ")[1].rstrip(")"))
    assert value == pytest.approx(math.exp(0.08), rel=1e-5)


def test_exponential_moment_without_accuracy_is_inconclusive():
    # exp(4 g^2) = |eps - 0.5|^-1.5 is not integrable at 0.5, inside a
    # quadrature piece where neither growth probe looks: the rule misses its
    # accuracy and the verdict says so
    spec = AugGarchSpec(
        model="generic",
        g_funcs=(lambda e: np.sqrt(0.375 * np.abs(np.log(np.abs(e - 0.5)))),),
        c_funcs=(lambda e: np.full(np.shape(e), 0.5),),
        lam=("log",),
    )
    rep = check_exponential_condition(spec, 1)
    assert not rep.satisfied
    assert rep.discrepancy_note == "exponential g-moment inconclusive"


def test_mgarch_student_tail_divergent():
    # polynomial tails cannot carry exp((log e^2)^2): divergent verdict
    with pytest.warns(UserWarning):
        dist = InnovationDist("student_t", dof=4.0)
    spec = AugGarchSpec(model="mgarch", p=1, q=1, omega=0.1, alpha=(0.5,), beta=(0.5,), innovation=dist)
    rep = check_exponential_condition(spec, 1)
    assert not rep.satisfied
    assert "divergent" in rep.discrepancy_note


def test_egarch_student_tail_divergent():
    # g is linear in |eps|: exp(c eps^2) outgrows a polynomial tail, bounded at the origin
    spec = AugGarchSpec(
        model="egarch", p=1, q=1, omega=0.0, alpha=(0.1,), beta=(0.5,), gamma=(0.0,),
        innovation=InnovationDist("student_t", dof=8.0),
    )
    rep = check_exponential_condition(spec, 1)
    assert not rep.satisfied
    assert rep.discrepancy_note == "exponential g-moment divergent"


def test_exponential_checker_rejects_polynomial_group():
    with pytest.raises(WrongGroupError):
        check_exponential_condition(garch((0.1,), (0.8,)), 1)


# --- stationarity shortcut -----------------------------------------------------------


def test_garch_stationarity_examples():
    assert check_garch_stationarity(garch((0.1,), (0.8,))).satisfied
    rep = check_garch_stationarity(garch((0.3,), (0.7,)))
    assert not rep.satisfied and rep.computed_value == pytest.approx(1.0)
    rep2 = check_garch_stationarity(garch((0.1, 0.1), (0.5,)))
    assert rep2.satisfied and rep2.computed_value == pytest.approx(0.7)


# --- closed-form rows vs the quadrature oracle ----------------------------------------


CLOSED_FORM_SPECS = [
    (garch((0.1,), (0.8,)), 1),
    (garch((0.2,), (0.7,)), 2),
    (garch((0.1, 0.05), (0.6,)), 2),
    (AugGarchSpec(model="arch", p=1, q=0, omega=0.1, alpha=(0.4,)), 1),
    (AugGarchSpec(model="arch", p=1, q=0, omega=0.1, alpha=(0.3,)), 2),
    (AugGarchSpec(model="agarch", p=1, q=1, omega=0.1, alpha=(0.2,), beta=(0.5,), gamma=(0.4,)), 1),
    (AugGarchSpec(model="apgarch", p=1, q=1, omega=0.1, alpha=(0.2,), beta=(0.5,), gamma=(0.3,), delta=1.0), 1),
    (AugGarchSpec(model="gjr", p=1, q=1, omega=0.1, alpha=(0.15,), beta=(0.6,), gamma=(0.2,)), 1),
    (AugGarchSpec(model="ngarch", p=1, q=1, omega=0.1, alpha=(0.15,), beta=(0.6,), gamma=(0.4,)), 1),
    (AugGarchSpec(model="vgarch", p=1, q=1, omega=0.1, alpha=(0.3,), beta=(0.6,), gamma=(0.2,)), 2),
]


@pytest.mark.parametrize("spec,r", CLOSED_FORM_SPECS, ids=lambda a: getattr(a, "model", a))
def test_closed_form_rows_agree_with_oracle(spec, r):
    row = table_closed_form_report(spec, r)
    assert row is not None
    oracle = check_polynomial_condition(spec, r)
    assert row.computed_value == pytest.approx(oracle.computed_value, rel=1e-6)


def test_garch_r2_row_carries_discrepancy_note():
    row = table_closed_form_report(garch((0.2,), (0.7,)), 2)
    assert row.discrepancy_note is not None
    assert "cross term" in row.discrepancy_note


def test_exponential_row_matches_c_sum():
    spec = AugGarchSpec(model="egarch", p=1, q=1, omega=0.0, alpha=(0.1,), beta=(0.5,), gamma=(0.0,))
    row = table_closed_form_report(spec, 1)
    assert row.condition_name == "table3_row"
    assert row.computed_value == pytest.approx(check_exponential_condition(spec, 1).computed_value)


# --- positivity and aggregation -------------------------------------------------------


def test_positivity_holds_for_named_polynomial_models():
    assert check_positivity(garch((0.1,), (0.8,))).satisfied
    spec = AugGarchSpec(model="apgarch", p=1, q=1, omega=0.1, alpha=(0.2,), beta=(0.5,), gamma=(0.9,), delta=0.7)
    assert check_positivity(spec).satisfied


def test_positivity_fails_for_negative_generic_transform():
    spec = AugGarchSpec(
        model="generic",
        g_funcs=(lambda e: e,),  # can be negative
        c_funcs=(lambda e: np.full(np.shape(e), 0.5),),
        lam=("power", 1.0),
    )
    rep = check_positivity(spec)
    assert not rep.satisfied and rep.computed_value < 0


def test_check_spec_lists_reports_and_gating():
    reports = check_spec(garch((0.1,), (0.8,)), 2)
    names = [r.condition_name for r in reports]
    assert names == ["A", "P_s", "garch_stationarity", "table2_row"]
    reports = check_spec(ArmaSpec(phi=(-0.5,)), 1)
    assert [r.condition_name for r in reports] == ["causality"]


def test_positivity_gates_the_polynomial_group_only():
    egarch = AugGarchSpec(model="egarch", p=1, q=1, omega=-0.1, alpha=(0.1,), beta=(0.9,), gamma=(-0.05,))
    ok, reports = approve(egarch, 1)
    assert ok
    positivity = reports[0]
    assert positivity.condition_name == "A" and not positivity.satisfied  # g goes negative: -0.180
    assert positivity.discrepancy_note == "informational: the log state needs no positivity"
    generic = AugGarchSpec(
        model="generic", g_funcs=(lambda e: e,), c_funcs=(lambda e: np.full(np.shape(e), 0.5),), lam=("power", 1.0)
    )
    ok, reports = approve(generic, 1)
    assert not ok and not reports[0].satisfied and reports[0].discrepancy_note is None


def test_approve_is_computed_once_per_spec_and_r(monkeypatch):
    spec = garch((0.0731,), (0.8123,))  # a spec no other test approves
    calls = []
    expect = InnovationDist.expect

    def counting(self, *args, **kwargs):
        calls.append(1)
        return expect(self, *args, **kwargs)

    monkeypatch.setattr(InnovationDist, "expect", counting)
    first = approve(spec, 2)
    assert calls and first[0]
    calls.clear()
    second = approve(spec, 2)
    assert not calls
    assert second == first and second[1] is not first[1]  # equal reports in a fresh list
    approve(spec, 4)  # another r is checked afresh
    assert calls


def test_discrete_law_keeps_the_boundary_note_of_arma_garch_stationarity():
    garch = dict(model="garch", omega=0.1, alpha=(0.2,), beta=(0.8,))
    notes = {}
    for kind in ("standard_normal", "rademacher"):
        spec = ArmaSpec(phi=(0.5,), innovation=AugGarchSpec(**garch, innovation=InnovationDist(kind)))
        [stat] = [rep for rep in check_spec(spec, 2) if rep.condition_name == "garch_stationarity"]
        assert not stat.satisfied
        notes[kind] = stat.discrepancy_note
    assert notes["standard_normal"] == "boundary: not satisfied"
    discrete, boundary = notes["rademacher"].split("; ")
    assert discrete.startswith("innovation law is discrete") and boundary == "boundary: not satisfied"
