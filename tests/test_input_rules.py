"""The integer floors of the library's entry points, each checked by one owner,
and the finite totals of the Beta and Dirichlet parameters.

Every site below calls `distributions._check_at_least`. One below its floor, a
float and a bool are refused with a message that names the parameter (and
the floor, where the value is an integer), and the floor itself is accepted.
"""

import re

import numpy as np
import pytest

from subgauss import checks, concentration, conjugate_models, distributions, game, martingale
from subgauss.distributions import BetaParams, DirichletParams, GammaParams, SeedSpec

PRIOR = DirichletParams((1.0, 1.0, 1.0))


def config(**overrides) -> game.GameConfig:
    return game.GameConfig(**{"k": 3, "prior": PRIOR, "n": 10, "q": 5, "epsilon": 0.5,
                              "delta": 0.1, **overrides})


# (id, call of the value, parameter name, floor)
SITES = [
    ("SeedSpec-stream_id", lambda v: SeedSpec(0, v), "stream_id", 0),
    ("beta_raw_moments-j_max", lambda v: distributions.beta_raw_moments(BetaParams(1, 2), v), "j_max", 0),
    ("chi_raw_moment-k_dim", lambda v: distributions.chi_raw_moment(v, 2), "k_dim", 1),
    ("chi_raw_moment-j", lambda v: distributions.chi_raw_moment(3, v), "j", 0),
    ("draw-count", lambda v: distributions.draw(BetaParams(1, 2), np.random.default_rng(0), v),
     "count", 0),
    ("sample-count", lambda v: distributions.sample(DirichletParams((1, 2)), SeedSpec(0), v), "count", 0),
    ("sample_chi-k_dim", lambda v: distributions.sample_chi(v, SeedSpec(0), 3), "k_dim", 1),
    ("sample_chi-count", lambda v: distributions.sample_chi(3, SeedSpec(0), v), "count", 0),
    ("termwise_mgf_comparison-k_max",
     lambda v: concentration.termwise_mgf_comparison(BetaParams(1, 2), 0.1, v), "k_max", 2),
    ("conjectured_scale-beta_binomial-m",
     lambda v: conjugate_models.conjectured_scale("beta_binomial", BetaParams(1, 2), v), "m", 1),
    ("conjectured_scale-multinomial-m",
     lambda v: conjugate_models.conjectured_scale("multinomial", PRIOR, v), "m", 1),
    ("model_q_draws-draws",
     lambda v: conjugate_models.model_q_draws("geometric", BetaParams(2, 1), {0}, draws=v,
                                              seed=SeedSpec(0)), "draws", 0),
    ("evaluate_model-monte_carlo-draws",
     lambda v: conjugate_models.evaluate_model("geometric", BetaParams(2, 1), {0}, method="monte_carlo",
                                               draws=v, seed=SeedSpec(0)),
     "draws", concentration._MIN_MONTE_CARLO_DRAWS),
    ("GameConfig-n", lambda v: config(n=v), "n", 0),
    ("GameConfig-q", lambda v: config(q=v), "q", 1),
    ("sample_instance-n", lambda v: game.sample_instance(PRIOR, v, SeedSpec(0)), "n", 0),
    ("run_games-trials", lambda v: game.run_games(config(), v, SeedSpec(0)), "trials", 0),
    ("required_n-q", lambda v: game.required_n(0.1, 0.05, v, 3.0), "q", 1),
    ("wilson_interval-trials", lambda v: game.wilson_interval(0, v), "trials", 1),
    ("estimate_failure_rate-trials", lambda v: game.estimate_failure_rate(config(), v, SeedSpec(0)),
     "trials", 100),
    ("azuma_total-horizon", lambda v: martingale.azuma_total(BetaParams(1, 2), v), "horizon", 1),
    ("simulate_paths-horizon", lambda v: martingale.simulate_paths(BetaParams(1, 2), v, 10, SeedSpec(0)),
     "horizon", 0),
    ("simulate_paths-trials", lambda v: martingale.simulate_paths(BetaParams(1, 2), 10, v, SeedSpec(0)),
     "trials", 2),
    ("stability_diagnostics-n", lambda v: martingale.stability_diagnostics(PRIOR, v, {0}), "n", 1),
    ("checks-trials", lambda v: checks._count(v, 5), "trials", 1),
]

floor_sites = pytest.mark.parametrize(
    "call, name, floor", [pytest.param(call, name, floor, id=site) for site, call, name, floor in SITES]
)


@floor_sites
def test_below_the_floor_is_refused(call, name, floor):
    with pytest.raises(ValueError, match=rf"^{name} must be an integer of at least {floor}, got {floor - 1}$"):
        call(floor - 1)


@floor_sites
@pytest.mark.parametrize("value", [2.5, 3.0, True])
def test_a_non_integer_is_refused(call, name, floor, value):
    # refused, not truncated: 2.5 once drew sqrt(2 Gamma(1.25)) and gave four Beta moments;
    # `sample_instance` once blamed draw's "count" for it, and `estimate_failure_rate`
    # refused it as "need at least 100 trials"
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value!r}$"):
        call(value)


@floor_sites
def test_the_floor_is_accepted(call, name, floor):
    call(floor)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: BetaParams(1e308, 1e308), "alpha + beta must be finite, got alpha=1e+308, beta=1e+308"),
        (lambda: DirichletParams((1e308, 1e308)),
         "the alphas' total must be finite, got alphas=(1e+308, 1e+308)"),
        (lambda: DirichletParams((1e308, 1e308, 1.0)),
         "the alphas' total must be finite, got alphas=(1e+308, 1e+308, 1.0)"),
    ],
    ids=["beta", "dirichlet", "dirichlet-3"],
)
def test_a_total_past_the_float_range_is_refused(build, message):
    # once accepted: beta_mean_var gave (0.0, 0.0) and beta_raw_moments [1, 0, 0, 0];
    # beta_proxy_estimate refused "Var = 0.0", project_to_beta blamed "alpha ... got inf", and
    # sample, run_game and run_games overflowed with a RuntimeWarning
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_the_largest_finite_totals_are_accepted():
    assert BetaParams(8e307, 8e307).total == 1.6e308
    assert DirichletParams((8e307, 8e307, 1.0)).total == 1.6e308
    # a Gamma's alpha and beta are never added, so it keeps only the per-field rule
    assert GammaParams(1e308, 1e308).alpha == 1e308
