"""The paper's acceptance criteria, each implemented once.

Every `subgauss` subcommand writes what one of these functions returns, and
the acceptance tests assert on it. A check takes at most a master seed and a
count (the CLI's `--seed` and `--trials`; a count of None means the default,
and one below 1 raises ValueError) and returns a `CheckResult`; `game` also
takes the game's configuration. The library reports quantities and bounds,
such as both sides of a moment inequality; the criteria's tolerances and
pass/fail rules are pinned here and nowhere else. The one rule outside this
module is `concentration.check_beta_bound`'s `passed` (tau2_est <= bound
(1 + 1e-6)), which AC1 reads, kept because the benchmark (`perfbench/`) reads
it directly.

The package import loads no submodule, this one included: only the CLI and
the tests run the criteria.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import concentration as conc
from . import conjugate_models as models
from . import martingale as mart
from .distributions import (
    BetaParams, DirichletParams, GammaParams, SeedSpec, _check_at_least, beta_mean_var,
    beta_raw_moments, chi_raw_moment, sample, sample_chi,
)
from .game import GameConfig, _random_proper_subset, project_to_beta, run_games, wilson_interval

__all__ = [
    "GRID", "CheckResult", "verify_beta", "verify_dirichlet", "verify_chi",
    "lemma_checks", "martingale", "game", "conjectures",
]

# alpha and beta values of the (alpha, beta) grid the Beta criteria sweep
GRID = (0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0)


@dataclass(frozen=True)
class CheckResult:
    """What a check reports: the summary and data rows, and what failed.

    `failures` holds the failing data rows, or a row naming the failed
    quantity (with a "check" column) where the criterion is not per row.
    `counts` holds work counts (or None) for the run manifest only, so the
    payload digests do not depend on them.
    """

    summary: dict
    rows: list[dict]
    passed: bool
    failures: list[dict]
    counts: dict | None


def _failed_rows(rows: list[dict]) -> list[dict]:
    return [row for row in rows if not row["passed"]]


def _result(
    summary: dict, rows: list[dict], failures: list[dict], counts: dict | None = None
) -> CheckResult:
    passed = not failures
    return CheckResult({**summary, "all_passed": passed}, rows, passed, failures, counts)


def _evaluation_counts(evaluations: list[int]) -> dict:
    """The log-MGF evaluations of a check's tau^2 estimates: total and per-estimate maximum."""
    return {"log_mgf_evaluations": sum(evaluations), "log_mgf_evaluations_max": max(evaluations)}


def _count(trials: int | None, default: int) -> int:
    """A check's count: `default` where `trials` is None; a non-integer or one below 1 raises."""
    if trials is None:
        return default
    return _check_at_least("trials", trials, 1)


def _ks_statistic(draws: np.ndarray, a: float, b: float) -> float:
    """Two-sided one-sample KS statistic of `draws` against Beta(a, b).

    The same arithmetic as SciPy's one-sample `kstest` against the Beta CDF:
    the largest gap either way between the empirical CDF and the Beta CDF at
    the sorted draws. scipy's `betainc` is imported here, so that only
    `verify_dirichlet` loads scipy.
    """
    from scipy.special import betainc

    cdf = betainc(a, b, np.sort(draws))
    n = cdf.size
    d_plus = (np.arange(1.0, n + 1) / n - cdf).max()
    d_minus = (cdf - np.arange(0.0, n) / n).max()
    return float(max(d_plus, d_minus))


def _violations(lhs: np.ndarray, rhs: np.ndarray) -> int:
    """How many indices violate an inequality: lhs > rhs, with no slack."""
    return int((lhs > rhs).sum())


def _expect(failures: list[dict], ok: bool, check: str, **cells) -> bool:
    """Record a failure row naming `check` and its quantities unless `ok`."""
    if not ok:
        failures.append({"check": check, **cells})
    return ok


def verify_beta() -> CheckResult:
    """AC1/AC2 on GRID x GRID: Var - 1e-6 <= tau2_est, `check_beta_bound`
    passes (tau2_est <= 1/(4(a+b)+2) (1 + 1e-6)), and tau2_est <= 1/(4(a+b+1))
    (1 + 1e-3)."""
    rows, evaluations = [], []
    for a in GRID:
        for b in GRID:
            p = BetaParams(a, b)
            check = conc.check_beta_bound(p)
            evaluations.append(check.evaluations)
            _, var = beta_mean_var(p)
            tight = conc.beta_tight_proxy_bound(p)
            ratio = check.tau2_est / tight
            rows.append(
                {
                    "alpha": a,
                    "beta": b,
                    "variance": var,
                    "tau2_est": check.tau2_est,
                    "bound": check.bound,
                    "tight_bound": tight,
                    "ratio": ratio,
                    "passed": var - 1e-6 <= check.tau2_est and check.passed
                    and ratio <= 1.0 + 1e-3,
                }
            )
    worst = max(rows, key=lambda row: row["ratio"])
    summary = {
        "points": len(rows),
        "max_tight_ratio": worst["ratio"],
        "argmax_point": [worst["alpha"], worst["beta"]],
    }
    return _result(summary, rows, _failed_rows(rows), _evaluation_counts(evaluations))


def verify_dirichlet(seed: SeedSpec, trials: int | None = None) -> CheckResult:
    """AC7: a Dirichlet counting query is Beta(sum_S alpha, sum_rest alpha).

    `trials` random (Dirichlet, subset) pairs (default 20, k <= 8), drawn from
    substream 999; pair i samples 1e5 draws from `seed.derived(i + 1)`, and
    their KS statistic must lie below the 1e-3 critical value.
    """
    pairs = _count(trials, 20)
    n_draws = 10**5
    rng = seed.generator(999)
    from scipy.special import kolmogi

    critical = float(kolmogi(1e-3)) / math.sqrt(n_draws)
    rows = []
    for i in range(pairs):
        k = int(rng.integers(2, 9))
        alphas = tuple(np.round(rng.uniform(0.2, 8.0, size=k), 3))
        subset = tuple(int(j) for j in _random_proper_subset(rng, k))
        d = DirichletParams(alphas)
        projected = project_to_beta(d, subset)
        draws = sample(d, seed.derived(i + 1), n_draws)[:, list(subset)].sum(axis=1)
        ks = _ks_statistic(draws, projected.alpha, projected.beta)
        rows.append(
            {
                "k": k,
                "alphas": ";".join(str(a) for a in alphas),
                "subset": ";".join(str(s) for s in subset),
                "projected_alpha": projected.alpha,
                "projected_beta": projected.beta,
                "ks_stat": ks,
                "critical": critical,
                "passed": ks < critical,
            }
        )
    summary = {"pairs": pairs, "draws": n_draws, "critical": critical}
    return _result(summary, rows, _failed_rows(rows))


def verify_chi(seed: SeedSpec, trials: int | None = None) -> CheckResult:
    """AC9 for Chi(k), k = 1..20: moment recurrence m_{j+2} = (k+j) m_j to a
    relative error below 1e-12, E[X]^2 - (k-1) > 0, the unit-sigma raw-moment
    criterion with no violation (j <= 100), and upper-tail frequencies of
    `trials` draws (default 1e6, from `seed.derived(k)`) at most
    exp(-eps^2/2) + 4 SE."""
    draws = _count(trials, 10**6)
    rows = []
    for k in range(1, 21):
        moments = [chi_raw_moment(k, j) for j in range(103)]
        rec_err = max(
            abs(moments[j + 2] - (k + j) * moments[j]) / moments[j + 2]
            for j in range(101)
        )
        margin = moments[1] ** 2 - (k - 1)
        criterion_ok = _violations(*conc.raw_moment_criterion(moments, 1.0)) == 0
        samples = sample_chi(k, seed.derived(k), draws)
        tail_ok = True
        tail_cells = {}
        for eps, freq, bound, se in conc.tail_frequencies(samples - moments[1], 1.0,
                                                          (0.5, 1.0, 2.0), sides=1):
            tail_ok &= freq <= bound + 4 * se
            tail_cells[f"tail_freq_{eps}"] = freq
            tail_cells[f"tail_bound_{eps}"] = bound
        rows.append(
            {
                "k": k,
                "recurrence_rel_err": rec_err,
                "mean_sq_minus_km1": margin,
                "criterion_passed": criterion_ok,
                "empirical_mean": float(samples.mean()),
                **tail_cells,
                "passed": rec_err < 1e-12 and margin > 0 and criterion_ok and tail_ok,
            }
        )
    return _result({"dims": 20, "draws": draws}, rows, _failed_rows(rows))


def lemma_checks() -> CheckResult:
    """AC3-AC5 on GRID x GRID.

    Per point: one pass of the raw-moment criterion E[X^(j+2)]/E[X^j] <=
    mu^2 + (j+1) sigma^2 at sigma^2 = 1/(2(a+b+1)), j <= 198, and no termwise
    MGF-coefficient violation at that sigma^2 (40 terms, 1e-12 relative). A
    violation of the criterion is lhs > rhs, with no slack; AC3 counts them
    and AC4 passes with none. Every j past 198 holds: there rhs >= 1 > lhs,
    since 2(a+b+1)(1 - mu^2) <= 199 on the grid. Then the counterexample: for
    Beta(1, 2) at the halved exponent sigma^2 = 1/16 the lambda^4 coefficients
    are 1/360 > 1363/497664, each to 1e-12 relative.
    """
    rows = []
    for a in GRID:
        for b in GRID:
            p = BetaParams(a, b)
            sigma2 = 1.0 / (2.0 * (p.total + 1.0))
            pair_viol = _violations(*conc.raw_moment_criterion(beta_raw_moments(p, 200), sigma2))
            lhs, rhs = conc.termwise_mgf_comparison(p, sigma2, 40)
            term_viol = _violations(lhs, rhs * (1 + 1e-12))
            rows.append(
                {
                    "alpha": a,
                    "beta": b,
                    "pair_bound_violations": pair_viol,
                    "termwise_violations": term_viol,
                    "passed": pair_viol == 0 and term_viol == 0,
                }
            )
    failures = _failed_rows(rows)
    lhs, rhs = conc.termwise_mgf_comparison(BetaParams(1.0, 2.0), 1.0 / 16.0, 6)
    w_lhs, w_rhs = float(lhs[4]), float(rhs[4])
    lhs_exact, rhs_exact = 1.0 / 360.0, 1363.0 / 497664.0
    flip_ok = (
        abs(w_lhs - lhs_exact) <= 1e-12 * lhs_exact
        and abs(w_rhs - rhs_exact) <= 1e-12 * rhs_exact
        and w_lhs > w_rhs
    )
    _expect(failures, flip_ok, "halved_exponent_power4", lhs=w_lhs, rhs=w_rhs)
    summary = {
        "grid_points": len(rows),
        "halved_exponent_power4_lhs": w_lhs,
        "halved_exponent_power4_rhs": w_rhs,
        "halved_exponent_flips": flip_ok,
    }
    return _result(summary, rows, failures)


def _stability_sweep(failures: list[dict]) -> dict:
    """AC11 cells: `stability_diagnostics` for k in {2, 3, 4}, uniform
    Dirichlet priors at 1.0 and 0.5, n = 1..12 and every nonempty proper
    subset, 528 cells in all. A cell fails when its add-one change exceeds
    its bound + 1e-12, its replace-one change its bound + 1e-12, its
    linearity defect 1e-12, or its slope 1.
    """
    cells, add_ratio, replace_ratio, defect = 0, 0.0, 0.0, 0.0
    for k in (2, 3, 4):
        for level in (1.0, 0.5):
            prior = DirichletParams((level,) * k)
            for n in range(1, 13):
                for mask in range(1, 2**k - 1):
                    subset = [i for i in range(k) if mask >> i & 1]
                    cell = mart.stability_diagnostics(prior, n, subset)
                    add = cell.max_add_one_change
                    replace = cell.max_replace_one_change
                    add_ratio = max(add_ratio, add / cell.add_one_bound)
                    replace_ratio = max(replace_ratio, replace / cell.replace_one_bound)
                    defect = max(defect, cell.max_linearity_defect)
                    ok = (add <= cell.add_one_bound + 1e-12
                          and replace <= cell.replace_one_bound + 1e-12
                          and cell.max_linearity_defect <= 1e-12 and cell.lipschitz_slope <= 1.0)
                    _expect(
                        failures, ok, "stability", k=k, alpha=level, n=n,
                        subset=";".join(map(str, subset)), add_one=add, replace_one=replace,
                        linearity_defect=cell.max_linearity_defect,
                    )
                    cells += 1
    return {
        "stability_cells": cells,
        "stability_max_add_one_ratio": add_ratio,
        "stability_max_replace_one_ratio": replace_ratio,
        "stability_max_linearity_defect": defect,
    }


def martingale(seed: SeedSpec, trials: int | None = None) -> CheckResult:
    """AC6 and the posterior-mean path simulation, then AC11.

    - Telescoped Azuma totals of Beta(s/2, s/2), s in {1, 2, 10}, lie within
      [1/(4s + 2 + 1/(3s)) - 1e-9, 1/(4s+2) + 1e-12].
    - Step proxies of 1000 log-uniform Beta(a, b), a, b in [1e-2, 1e3] (from
      substream 7), are at most 1/(4(a+b+1)^2) + 1e-15.
    - `trials` paths (default 2000) of horizon 1e4 from Beta(1, 1), drawn from
      `seed.derived(1)`: mean total increment within 4 SE of 0, tail
      frequencies at most their Azuma bound + 4 SE, and the mean absolute
      deviation non-increasing over checkpoints up to 0.01.
    - AC11 (`_stability_sweep`): on every cell one added sample moves the
      posterior-mean answer by at most 1/(A+n+1), one replaced sample by at
      most 1/(A+n), both to 1e-12, and the answer is linear in the empirical
      mean to 1e-12 with slope n/(A+n) <= 1.
    """
    count = _count(trials, 2000)
    failures = []
    azuma_cells = {}
    for s in (1.0, 2.0, 10.0):
        totals = mart.azuma_total(BetaParams(s / 2, s / 2), 10**6)
        grand = totals.partial_sum + totals.tail_remainder
        lower = 1.0 / (4.0 * s + 2.0 + 1.0 / (3.0 * s))
        bound = totals.theorem_bound
        ok = lower - 1e-9 <= grand <= bound + 1e-12
        _expect(failures, ok, "azuma_total", s=s, total=grand, lower=lower, bound=bound)
        azuma_cells[f"azuma_total_s{s:g}"] = grand
        azuma_cells[f"azuma_bound_s{s:g}"] = bound

    rng = seed.generator(7)
    step_ok = True
    for _ in range(1000):
        a, b = np.exp(rng.uniform(np.log(1e-2), np.log(1e3), size=2))
        p = BetaParams(float(a), float(b))
        proxy, bound = mart.step_variance_proxy(p), 0.25 / (p.total + 1.0) ** 2
        step_ok &= _expect(
            failures, proxy <= bound + 1e-15, "step_variance_proxy",
            alpha=p.alpha, beta=p.beta, proxy=proxy, bound=bound,
        )

    report = mart.simulate_paths(BetaParams(1.0, 1.0), 10**4, count, seed.derived(1))
    mean, se = report.mean_total_increment, report.se_total_increment
    _expect(failures, abs(mean) <= 4 * se, "mean_total_increment", mean=mean, se=se)
    for eps, freq, bound, tail_se in report.tail_rows:
        ok = freq <= bound + 4 * tail_se
        _expect(failures, ok, "tail_frequency", eps=eps, freq=freq, bound=bound, se=tail_se)
    checkpoints = report.checkpoint_mean_abs_dev
    for (_, previous), (step, dev) in zip(checkpoints, checkpoints[1:]):
        ok = dev <= previous + 0.01
        _expect(failures, ok, "checkpoint_mean_abs_dev", step=step, dev=dev, previous=previous)
    stability_cells = _stability_sweep(failures)

    rows = [
        {
            "trial": t,
            "true_p": float(report.true_p[t]),
            "final_mean": float(report.final_mean[t]),
            "deviation": float(report.deviation[t]),
        }
        for t in range(count)
    ]
    summary = {
        **azuma_cells,
        "step_proxy_bound_ok": step_ok,
        "mean_total_increment": mean,
        "se_total_increment": se,
        "tail_rows": report.tail_rows,
        "checkpoint_mean_abs_dev": checkpoints,
        **stability_cells,
    }
    return _result(summary, rows, failures)


def game(config: GameConfig, seed: SeedSpec, trials: int | None = None) -> CheckResult:
    """AC8 for one configuration: `trials` games (default 300), trial t played
    from `seed.derived(t)` (`run_games`). A game is lost when its largest
    round error exceeds epsilon, and the check passes when the Wilson 95%
    upper bound of the failure rate is at most delta."""
    count = _count(trials, 300)
    rows = [
        {"trial": t, "max_error": float(error), "win": bool(error <= config.epsilon)}
        for t, error in enumerate(run_games(config, count, seed))
    ]
    lost = sum(not row["win"] for row in rows)
    low, high = wilson_interval(lost, count)
    failures = []
    _expect(failures, high <= config.delta, "wilson_high <= delta", wilson_high=high,
            delta=config.delta)
    summary = {
        "config": asdict(config),
        "trials": count,
        "failures": lost,
        "failure_rate": lost / count,
        "wilson_low": low,
        "wilson_high": high,
        "delta": config.delta,
    }
    return _result(summary, rows, failures)


def _stratified_subsets(rng, outcome_range: int) -> list[set[int]]:
    """Extremal, balanced, and uniformly random subset sizes bracket the sweep."""
    sizes = sorted({1, outcome_range // 2, outcome_range - 1})
    subsets = [
        set(int(v) for v in rng.choice(outcome_range, size=s, replace=False))
        for s in sizes
        if 0 < s < outcome_range
    ]
    return subsets + [set(int(i) for i in _random_proper_subset(rng, outcome_range))]


def _conjecture_instances(seed: SeedSpec) -> list[tuple]:
    """The 30 (model, prior, subset, m) instances of `conjectures`, their subsets
    drawn from ``seed``'s substream 777."""
    rng = seed.generator(777)
    instances = []
    for prior in (BetaParams(1.0, 2.0), BetaParams(2.0, 2.0), BetaParams(0.5, 1.5)):
        for subset in _stratified_subsets(rng, 6):  # binomial m=5: outcomes 0..5
            instances.append(("beta_binomial", prior, subset, 5))
    for prior in (BetaParams(2.0, 1.0), BetaParams(1.0, 1.0)):
        for subset in _stratified_subsets(rng, 6):
            instances.append(("geometric", prior, subset, None))
    instances += [
        ("multinomial", DirichletParams((1.0, 1.0, 1.0)), {(1, 1, 0), (0, 1, 1)}, 2),
        ("multinomial", DirichletParams((2.0, 1.0, 0.5)), {(2, 0, 0)}, 2),
    ]
    for prior in (GammaParams(2.0, 5.0), GammaParams(1.0, 1.0)):
        for subset in _stratified_subsets(rng, 6):
            instances.append(("poisson_gamma", prior, subset, None))
    return instances


def conjectures(seed: SeedSpec, draws: int | None = None) -> CheckResult:
    """Conjectured tau^2 scales on 30 conjugate-model instances, their subsets
    drawn from substream 777. Instance i fails when its exact ratio to the
    conjectured scale is not finite and positive, or when its Monte Carlo
    tau^2 (`draws` draws, default 2e5, from `seed.derived(i + 1)`)
    differs from the exact one by more than max(tau2 / 2, 10 / sqrt(draws))."""
    count = _count(draws, 200_000)
    instances = _conjecture_instances(seed)
    rows, failures, evaluations = [], [], []
    max_ratio: dict[str, float] = {}
    for i, (model, prior, subset, m) in enumerate(instances):
        exact = models.evaluate_model(model, prior, subset, m=m)
        mc = models.evaluate_model(
            model, prior, subset, m=m, method="monte_carlo",
            draws=count, seed=seed.derived(i + 1),
        )
        instance = {"model": model, "params": json.dumps(exact.params), "subset": exact.subset_desc}
        finite = math.isfinite(exact.ratio) and exact.ratio > 0
        _expect(failures, finite, "exact_ratio_finite", **instance, ratio=exact.ratio)
        tolerance = max(0.5 * exact.tau2_est, 10.0 / math.sqrt(count))
        agree = abs(mc.tau2_est - exact.tau2_est) <= tolerance
        _expect(failures, agree, "mc_agrees_with_exact", **instance,
                exact_tau2=exact.tau2_est, mc_tau2=mc.tau2_est, tolerance=tolerance)
        max_ratio[model] = max(max_ratio.get(model, 0.0), exact.ratio)
        evaluations += [exact.estimate.evaluations, mc.estimate.evaluations]
        rows += [
            {**instance, "tau2_est": rep.tau2_est, "scale": rep.scale, "ratio": rep.ratio,
             "method": rep.method}
            for rep in (exact, mc)
        ]
    summary = {"instances": len(instances), "mc_draws": count, "max_ratio_per_model": max_ratio}
    return _result(summary, rows, failures, _evaluation_counts(evaluations))
