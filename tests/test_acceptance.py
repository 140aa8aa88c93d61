"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every criterion but AC10 calls the `subgauss.checks` functions that the CLI
subcommands also run, so their tolerances live in `subgauss.checks`; AC10
pins its own here. The Monte Carlo pieces use fixed seeds so the suite is
deterministic.
"""

import time

import numpy as np
import pytest

from closed_form import (
    binomial_query_poly,
    geometric_query_poly,
    multinomial_query_moments,
    poisson_query_moments,
    poly_raw_moments_under_beta,
)
from subgauss import checks
from subgauss.conjugate_models import _prior_rule, _query_values, mc_moments, model_q_draws
from subgauss.distributions import (
    BetaParams,
    DirichletParams,
    GammaParams,
    SeedSpec,
    beta_raw_moments,
)
from subgauss.game import GameConfig, required_n


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{criterion}] {status}{suffix}")


def failing(result: checks.CheckResult) -> str:
    return ", ".join(map(str, result.failures[:5]))


@pytest.fixture(scope="module")
def beta_sweep():
    """tau^2 grid sweep shared by criteria 1 and 2 (the expensive part)."""
    start = time.perf_counter()
    result = checks.verify_beta()
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def martingale_run():
    """Martingale check shared by criteria 6 and 11."""
    start = time.perf_counter()
    result = checks.martingale(SeedSpec(606))
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def lemmas():
    """Moment-inequality sweeps shared by criteria 3, 4 and 5."""
    return checks.lemma_checks()


def test_ac01_beta_bound_sweep(beta_sweep):
    """81 grid points: Var - 1e-6 <= tau2_est <= 1/(4(a+b)+2) * (1+1e-6), < 60 s."""
    result, elapsed = beta_sweep
    ok = result.passed and elapsed < 60.0
    report("AC1", ok, failing(result) or f"{result.summary['points']} points in {elapsed:.1f}s")
    assert ok


def test_ac02_beta_tight_bound_sweep(beta_sweep):
    """Same grid: tau2_est <= 1/(4(a+b+1)) * (1+1e-3), the bound of Marchal & Arbel."""
    result, _ = beta_sweep
    report("AC2", result.passed, f"max ratio {result.summary['max_tight_ratio']:.6f}")
    assert result.passed


def test_ac03_moment_pair_bounds(lemmas):
    """Consecutive-moment-ratio inequality and termwise MGF comparison on the
    grid: zero violations (every j, no slack; 40 terms, 1e-12 relative)."""
    pair = sum(row["pair_bound_violations"] for row in lemmas.rows)
    termwise = sum(row["termwise_violations"] for row in lemmas.rows)
    ok = pair == 0 and termwise == 0
    report("AC3", ok, f"{pair} pair, {termwise} termwise violations")
    assert ok


def test_ac04_raw_moment_criterion_grid(lemmas):
    """Raw-moment criterion at sigma^2 = 1/(2(a+b+1)) passes for every j."""
    ok = all(row["pair_bound_violations"] == 0 for row in lemmas.rows)
    report("AC4", ok)
    assert ok


def test_ac05_termwise_counterexample(lemmas):
    """(1,2) at sigma^2=1/16: lambda^4 coefficients 1/360 > 1363/497664, 1e-12 rel."""
    summary = lemmas.summary
    ok = summary["halved_exponent_flips"]
    lhs, rhs = summary["halved_exponent_power4_lhs"], summary["halved_exponent_power4_rhs"]
    report("AC5", ok, f"lhs={lhs:.12e} rhs={rhs:.12e}")
    assert ok


def test_ac06_azuma_machinery(martingale_run):
    """Telescoped totals within [tight lower, closed bound]; step proxies bounded;
    simulated posterior-mean paths within their Azuma tails; < 30 s."""
    result, elapsed = martingale_run
    ok = result.passed and elapsed < 30.0
    report("AC6", ok, failing(result) or f"{elapsed:.1f}s")
    assert ok


def test_ac07_dirichlet_projection_ks():
    """20 random (Dirichlet, subset) pairs, k <= 8: KS below the 1e-3 critical value."""
    result = checks.verify_dirichlet(SeedSpec(707))
    worst = max(row["ks_stat"] for row in result.rows)
    critical = result.summary["critical"]
    report("AC7", result.passed, f"worst KS {worst:.5f} < critical {critical:.5f}")
    assert result.passed


def test_ac08_game_guarantee():
    """k=10 uniform prior, eps=0.1, delta=0.05, q=1000, n=required_n: `checks.game`
    passes (Wilson upper bound of the failure rate over 2000 games <= delta)
    for both adaptive analysts; < 5 min."""
    start = time.perf_counter()
    prior = DirichletParams((1.0,) * 10)
    n = required_n(0.1, 0.05, 1000, prior.total)
    ok = n == 520
    details = [f"n={n}"]
    for analyst in ("adaptive_correlator", "variance_maximizer"):
        config = GameConfig(
            k=10,
            prior=prior,
            n=n,
            q=1000,
            epsilon=0.1,
            delta=0.05,
            analyst=analyst,
            curator="posterior_mean",
        )
        result = checks.game(config, SeedSpec(808), 2000)
        ok &= result.passed
        rate, high = result.summary["failure_rate"], result.summary["wilson_high"]
        details.append(f"{analyst}: rate={rate:.4f} high={high:.4f}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 300.0
    report("AC8", ok, "; ".join(details) + f"; {elapsed:.0f}s")
    assert ok


def test_ac09_chi_checks():
    """k=1..20: moment recurrence below 1e-12, E[X]^2 > k-1, unit-sigma criterion,
    and empirical upper tails below exp(-eps^2/2) + 4 SE at 1e6 samples."""
    result = checks.verify_chi(SeedSpec(909))
    report("AC9", result.passed, failing(result))
    assert result.passed


def test_ac10_conjugate_model_consistency():
    """Exact-mode instances: Monte Carlo moments within 3 SE at 1e6 draws;
    the Gauss rule's moments within 1e-11 relative of the exact rational ones
    for j <= 16 (j <= 8 for multinomial, that function's cap); model-reduction
    identities to 1e-10."""
    draws = 10**6
    j_max = 6
    ok = True
    failures = []

    instances = [
        ("beta_binomial", BetaParams(1.0, 1.0), {1}, 2),
        ("beta_binomial", BetaParams(1.0, 2.0), {0, 1}, 5),
        ("beta_binomial", BetaParams(0.5, 0.5), {3}, 3),
        ("beta_binomial", BetaParams(2.0, 5.0), {2, 3, 5}, 5),
        ("geometric", BetaParams(2.0, 1.0), {0}, None),
        ("geometric", BetaParams(1.0, 1.0), {0, 1, 2, 5}, None),
        ("multinomial", DirichletParams((1.0, 1.0, 1.0)), {(1, 1, 1), (3, 0, 0)}, 3),
        ("multinomial", DirichletParams((2.0, 3.0)), {(1, 1)}, 2),
        ("multinomial", DirichletParams((1.0, 2.0, 3.0)), {(0, 1, 0)}, 1),
        ("poisson_gamma", GammaParams(1.0, 1.0), {0}, None),
        ("poisson_gamma", GammaParams(2.0, 5.0), {0, 1, 5}, None),
        ("poisson_gamma", GammaParams(0.5, 2.0), {3}, None),
    ]
    for idx, (model, prior, subset, m) in enumerate(instances):
        j_exact = 8 if model == "multinomial" else 16
        if model == "beta_binomial":
            exact = poly_raw_moments_under_beta(binomial_query_poly(m, subset), prior, j_exact)
        elif model == "geometric":
            exact = poly_raw_moments_under_beta(geometric_query_poly(subset), prior, j_exact)
        elif model == "multinomial":
            exact = multinomial_query_moments(m, subset, prior, j_exact)
        else:
            exact = poisson_query_moments(subset, prior, j_exact)
        points, weights = _prior_rule(prior)
        q_rule = _query_values(model, subset, m, points)
        rule = np.array([weights @ q_rule**j for j in range(j_exact + 1)])
        if not np.allclose(rule, exact, rtol=1e-11, atol=0.0):
            ok = False
            failures.append(f"{model}#{idx} rule moments")
        q = model_q_draws(model, prior, subset, m=m, draws=draws, seed=SeedSpec(1010, idx))
        mc, ses = mc_moments(q, j_max)
        for j in range(1, j_max + 1):
            if abs(exact[j] - mc[j]) > 3.0 * ses[j]:
                ok = False
                failures.append(f"{model}#{idx} j={j}")

    # reduction identities
    beta_direct = beta_raw_moments(BetaParams(1.0, 2.0), j_max)
    via_binomial = poly_raw_moments_under_beta(
        binomial_query_poly(1, {1}), BetaParams(1.0, 2.0), j_max
    )
    via_geometric = poly_raw_moments_under_beta(
        geometric_query_poly({0}), BetaParams(1.0, 2.0), j_max
    )
    red1 = float(np.abs(via_binomial - beta_direct).max())
    red2 = float(np.abs(via_geometric - beta_direct).max())
    via_multinomial = multinomial_query_moments(
        2, [(0, 2), (1, 1)], DirichletParams((1.5, 2.5)), j_max
    )
    via_poly = poly_raw_moments_under_beta(
        binomial_query_poly(2, {0, 1}), BetaParams(1.5, 2.5), j_max
    )
    red3 = float(np.abs(via_multinomial - via_poly).max())
    reductions_ok = max(red1, red2, red3) <= 1e-10
    ok &= reductions_ok

    detail = f"max reduction defect {max(red1, red2, red3):.2e}"
    if failures:
        detail += "; misses: " + ",".join(failures)
    report("AC10", ok, detail)
    assert ok


def test_ac11_stability_exhaustive(martingale_run):
    """Posterior-mean stability bounds on every cell: n <= 12, k <= 4, uniform
    priors at 1.0 and 0.5, every proper nonempty counting query, each cell
    exact over the subset count that the answer depends on."""
    result, _ = martingale_run
    cells = result.summary["stability_cells"]
    misses = [row for row in result.failures if row["check"] == "stability"]
    ok = cells == 528 and not misses
    report("AC11", ok, ", ".join(map(str, misses[:5])) or f"{cells} (prior, n, query) cells")
    assert ok


def test_ac12_conjectures():
    """30 conjugate-model instances: exact ratios to the conjectured scales are
    finite and positive, and Monte Carlo tau^2 at 2e4 draws agrees with exact."""
    result = checks.conjectures(SeedSpec(0), 20_000)
    ok = result.passed and result.summary["instances"] == 30
    report("AC12", ok, failing(result) or str(result.summary["max_ratio_per_model"]))
    assert ok
