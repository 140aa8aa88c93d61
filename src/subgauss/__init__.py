"""Numerical subgaussian concentration checks for conjugate posteriors.

The library verifies, at float64 precision, that Beta (and projected
Dirichlet) posteriors concentrate with variance proxy O(1/(alpha+beta)),
simulates the posterior-mean martingale behind that bound, and runs an
adaptive curator/analyst query game demonstrating that the posterior-mean
curator answers adaptively chosen queries at the static sample complexity.
"""

__version__ = "0.1.0"  # set before the submodules import it

import time as _time

_import_started = _time.perf_counter()

from .concentration import (
    BetaBoundCheck,
    MomentCriterionReport,
    VarianceProxyEstimate,
    beta_moment_pair_bounds,
    beta_proxy_bound,
    beta_proxy_estimate,
    beta_tight_proxy_bound,
    check_beta_bound,
    empirical_log_mgf,
    raw_moment_criterion,
    tail_bound,
    termwise_mgf_comparison,
    variance_proxy_sup,
)
from .conjugate_models import (
    ConjugateModelReport,
    ExactModeError,
    evaluate_model,
    mc_moments,
    model_q_draws,
)
from .distributions import (
    BetaParams,
    DirichletParams,
    GammaParams,
    SeedSpec,
    beta_log_mgf,
    beta_mean_var,
    beta_raw_moments,
    chi_raw_moment,
    draw,
    sample,
    sample_chi,
)
from .game import (
    DegenerateQueryError,
    FailureRateEstimate,
    GameConfig,
    GameTranscript,
    QuerySpec,
    estimate_failure_rate,
    project_to_beta,
    required_n,
    run_game,
    run_games,
    sample_instance,
    wilson_interval,
)
from .martingale import (
    AzumaTotals,
    PathSimulationReport,
    StabilityReport,
    StepIncrement,
    azuma_total,
    simulate_paths,
    stability_diagnostics,
    step_increment,
    step_variance_proxy,
    two_point_variance_proxy,
)

# seconds this package's import block took; `subgauss.cli` adds its own to
# the run manifest's "import_s"
_IMPORT_S = _time.perf_counter() - _import_started
