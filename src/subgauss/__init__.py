"""Numerical subgaussian concentration checks for conjugate posteriors.

The library verifies, at float64 precision, that Beta (and projected
Dirichlet) posteriors concentrate with variance proxy O(1/(alpha+beta)),
simulates the posterior-mean martingale behind that bound, and runs an
adaptive curator/analyst query game demonstrating that the posterior-mean
curator answers adaptively chosen queries at the static sample complexity.
"""

__version__ = "0.1.0"  # set before the submodules import it

from .concentration import (
    AffineScalingCheck,
    BetaBoundCheck,
    MomentCriterionReport,
    TailBoundResult,
    VarianceProxyEstimate,
    affine_scaling_check,
    beta_moment_pair_bounds,
    beta_proxy_bound,
    beta_proxy_estimate,
    beta_tight_proxy_bound,
    centered_moment_criterion,
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
    PolynomialInP,
    binomial_query_poly,
    evaluate_model,
    geometric_query_poly,
    mc_moments,
    model_q_draws,
    multinomial_query_moments,
    poisson_query_moments,
    poly_raw_moments_under_beta,
)
from .distributions import (
    BetaParams,
    DirichletParams,
    GammaParams,
    MomentSequence,
    SeedSpec,
    beta_centered_moments,
    beta_expect,
    beta_log_mgf,
    beta_mean_var,
    beta_mgf,
    beta_moment_sequence,
    beta_raw_moment,
    beta_raw_moments,
    chi_raw_moment,
    dirichlet_log_density,
    draw,
    log_gamma,
    sample,
    sample_chi,
)
from .game import (
    CuratorState,
    DegenerateQueryError,
    FailureRateEstimate,
    GameConfig,
    GameTranscript,
    QuerySpec,
    answer_query,
    decompose_into_counting,
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
