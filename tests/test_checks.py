"""Tests for `subgauss.checks` beyond the acceptance criteria: counts, the KS
statistic, the game's gate and the failure rows."""

import dataclasses
import functools
import hashlib
import json

import numpy as np
import pytest
from scipy import stats

from subgauss import checks
from subgauss.checks import _ks_statistic
from subgauss.cli import cli_dispatch
from subgauss.concentration import check_beta_bound
from subgauss.distributions import BetaParams, DirichletParams, SeedSpec, sample
from subgauss.game import GameConfig, project_to_beta

# AC8's configuration
GAME = GameConfig(k=10, prior=DirichletParams((1.0,) * 10), n=520, q=1000, epsilon=0.1,
                  delta=0.05, analyst="adaptive_correlator")


@pytest.mark.parametrize("trials", [0, -1, True, 2.5])
@pytest.mark.parametrize(
    "check",
    [checks.verify_dirichlet, checks.verify_chi, checks.martingale, checks.conjectures,
     pytest.param(functools.partial(checks.game, GAME), id="game")],
)
def test_count_below_one_is_refused(check, trials):
    # neither the default nor an empty run: either would pass vacuously; nor is a
    # bool or a fraction a count
    if type(trials) is int:
        message = rf"trials must be an integer of at least 1, got {trials}$"
    else:
        message = rf"trials must be an integer, got {trials}$"
    with pytest.raises(ValueError, match=message):
        check(SeedSpec(0), trials)


def test_game_gates_on_the_wilson_upper_bound(monkeypatch):
    # 118 losses of 2000 (5.9%): wilson_low <= delta, so a lower-bound gate would pass
    losses = lambda config, trials, seed: np.where(np.arange(trials) < 118, 1.0, 0.0)
    monkeypatch.setattr(checks, "run_games", losses)
    result = checks.game(GAME, SeedSpec(0), 2000)
    summary = result.summary
    assert summary["failures"] == 118
    assert summary["wilson_low"] <= 0.05 < summary["wilson_high"]
    assert not result.passed and summary["all_passed"] is False
    row = {"check": "wilson_high <= delta", "wilson_high": summary["wilson_high"], "delta": 0.05}
    assert result.failures == [row]


def test_conjectures_failure_names_its_check_and_instance(monkeypatch, tmp_path, capsys):
    evaluate = checks.models.evaluate_model

    def skewed(model, prior, subset, **kwargs):
        report = evaluate(model, prior, subset, **kwargs)
        if kwargs.get("method") == "monte_carlo" and prior == DirichletParams((2.0, 1.0, 0.5)):
            return dataclasses.replace(report, tau2_est=3.0 * report.tau2_est)
        return report

    monkeypatch.setattr(checks.models, "evaluate_model", skewed)
    assert cli_dispatch(["conjectures", "--trials", "20000", "--out", str(tmp_path / "r")]) == 1
    failed = [line for line in capsys.readouterr().err.splitlines() if ": failed: " in line]
    prefix = ('conjectures: failed: mc_agrees_with_exact: model=multinomial '
              'params={"alphas": [2.0, 1.0, 0.5], "m": 2} subset=(2, 0, 0) exact_tau2=')
    assert len(failed) == 1 and failed[0].startswith(prefix)
    assert " tolerance=" in failed[0]


def test_lemma_checks_fail_where_the_criterion_fails(monkeypatch):
    # the criterion's right side scaled down fails AC3 and AC4 on the laws it now violates
    criterion = checks.conc.raw_moment_criterion

    def tightened(moments, sigma2):
        lhs, rhs = criterion(moments, sigma2)
        return lhs, 0.9 * rhs

    monkeypatch.setattr(checks.conc, "raw_moment_criterion", tightened)
    result = checks.lemma_checks()
    assert not result.passed and result.summary["all_passed"] is False
    assert result.failures and len(result.failures) <= len(checks.GRID) ** 2
    for row in result.failures:
        assert row["alpha"] in checks.GRID and row["beta"] in checks.GRID
        assert row["pair_bound_violations"] > 0
        assert row["termwise_violations"] == 0


# (alpha, beta, draws): shapes below and above 1, sizes from one draw up
BETA_SETS = [(0.1, 0.1, 1), (0.5, 2.0, 2), (1.0, 1.0, 7), (2.0, 5.0, 100), (0.3, 8.0, 1000),
             (25.0, 50.0, 5000), (8.0, 0.2, 20000), (1.0, 3.0, 10**5), (0.2, 0.7, 31),
             (50.0, 0.5, 499), (3.0, 3.0, 3001), (10.0, 1.0, 64)]
# draw counts of the projected-Dirichlet sets, the first at verify-dirichlet's
DIRICHLET_SIZES = [10**5, 50, 2000, 10**4, 333, 1, 777, 40000, 12, 6000]


@pytest.mark.parametrize("i", range(len(BETA_SETS)))
def test_ks_statistic_equals_scipy_kstest_on_beta_draws(i):
    a, b, n = BETA_SETS[i]
    draws = sample(BetaParams(a, b), SeedSpec(61, i), n)
    assert _ks_statistic(draws, a, b) == stats.kstest(draws, stats.beta(a, b).cdf).statistic


@pytest.mark.parametrize("i", range(len(DIRICHLET_SIZES)))
def test_ks_statistic_equals_scipy_kstest_on_projected_dirichlet_draws(i):
    # drawn as verify_dirichlet draws its pairs
    rng = np.random.default_rng([62, i])
    k = int(rng.integers(2, 9))
    prior = DirichletParams(tuple(np.round(rng.uniform(0.2, 8.0, size=k), 3)))
    subset = list(range(1 + i % (k - 1)))
    projected = project_to_beta(prior, subset)
    draws = sample(prior, SeedSpec(63, i), DIRICHLET_SIZES[i])[:, subset].sum(axis=1)
    a, b = projected.alpha, projected.beta
    assert _ks_statistic(draws, a, b) == stats.kstest(draws, stats.beta(a, b).cdf).statistic


# (summary, data) digests of each default run, conjectures at its default 200 000 draws
DEFAULT_DIGESTS = {
    "verify-beta": ("eb58bc92", "8e874607"),  # since the log-MGF array forms are numpy passes
    "verify-dirichlet": ("f3447508", "4def1343"),  # since the alphas add left to right
    "verify-chi": ("c04685b7", "38691e33"),
    "lemma-checks": ("e993d5e9", "185bd98a"),  # since criterion_passed left its rows
    "martingale": ("968ee110", "84967c36"),  # since azuma_total's difference is formed from h
    "game": ("b0ee1262", "54071471"),
    # since the weighted log-MGF's Taylor table sums running powers and its far reads take
    # pre-shifted exponents, whole-grid on the 1-D Gauss rules (was 20572291/2a67d304)
    "conjectures": ("a0dec83b", "deef28b0"),
}


@pytest.mark.parametrize("command", list(DEFAULT_DIGESTS))
def test_default_digests(command, tmp_path, capsys):
    out = tmp_path / "r"
    assert cli_dispatch([command, "--out", str(out)]) == 0
    digests = tuple(
        hashlib.sha256((out / f"{command}-{kind}").read_bytes()).hexdigest()[:8]
        for kind in ("summary.json", "data.csv")
    )
    assert digests == DEFAULT_DIGESTS[command]
    if command == "verify-beta":  # its log-MGF evaluations go into the manifest only
        evaluations = [check_beta_bound(BetaParams(a, b)).evaluations
                       for a in checks.GRID for b in checks.GRID]
        counts = json.loads((out / "manifest.json").read_text())["counts"]
        assert counts == {"log_mgf_evaluations": sum(evaluations),
                          "log_mgf_evaluations_max": max(evaluations)}
