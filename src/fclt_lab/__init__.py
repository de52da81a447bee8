"""Joint asymptotics of the sample quantile and the r-th absolute centred
sample moment: simulation, condition checking, long-run covariance targets,
NED diagnostics and Monte Carlo verification."""

__version__ = "0.1.0"

from .arma import ArmaSpec, causal_ma_coefficients
from .asymptotics import (
    Gamma2,
    TrivariateLRC,
    bahadur_remainder,
    gamma_from_trivariate,
    iid_gamma,
    representation_gap,
    trivariate_iid_closed_form,
    trivariate_long_run_cov_mc,
)
from .conditions import (
    ConditionReport,
    approve,
    check_causality,
    check_exponential_condition,
    check_garch_stationarity,
    check_polynomial_condition,
    check_spec,
    moment_functional,
)
from .estimators import (
    EstimatePair,
    centred_abs_moment,
    empirical_cdf,
    estimator_vector,
    known_mean_abs_moment,
    partial_sum_process,
    sample_quantile,
)
from .garch import AugGarchSpec
from .harness import (
    ExperimentConfig,
    run_bahadur_experiment,
    run_clt_experiment,
    run_fclt_experiment,
    run_representation_experiment,
)
from .innovations import InnovationDist
from .ned import Functional, estimate_ned, fit_decay, functional_ned_comparison, ned_scan
from .processes import (
    IidSpec,
    Path,
    simulate,
    spec_from_json,
    spec_to_json,
)
from .truth import Truth, closed_form_truth, pilot_truth, resolve_truth
