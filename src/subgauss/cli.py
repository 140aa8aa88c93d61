"""Command-line driver: runs the verification suites and emits reports.

Subcommands: verify-beta, verify-dirichlet, verify-chi, lemma-checks,
martingale, game, conjectures. Every run is deterministic given
(config, --seed). Exit codes: 0 all checks passed, 1 at least one check
failed, 2 usage or configuration error. Progress goes to stderr; data goes
only to the output files.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np
from scipy import special, stats

from . import concentration as conc
from . import conjugate_models as models
from . import game as game_mod
from . import martingale as mart
from .distributions import (
    BetaParams,
    DirichletParams,
    GammaParams,
    MomentSequence,
    SeedSpec,
    beta_mean_var,
    beta_moment_sequence,
    chi_raw_moment,
    sample,
    sample_chi,
)
from .reporting import emit_report


class ConfigError(ValueError):
    """Bad usage or configuration input; maps to exit code 2."""

GRID = (0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0)

_DEFAULT_GAME = {
    "k": 10,
    "prior": {"alphas": [1.0] * 10},
    "n": None,  # filled from required_n
    "q": 1000,
    "epsilon": 0.1,
    "delta": 0.05,
    "analyst": "adaptive_correlator",
    "curator": "posterior_mean",
    "trials": 300,
    "seed": 0,
}


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# Subcommand implementations: each returns (summary, rows, ok)
# ---------------------------------------------------------------------------


def _cmd_verify_beta(args) -> tuple[dict, list, bool]:
    rows, ok = [], True
    max_tight_ratio, argmax_point = 0.0, None
    for a in GRID:
        for b in GRID:
            p = BetaParams(a, b)
            est = conc.beta_proxy_estimate(p)
            _, var = beta_mean_var(p)
            bound = conc.beta_proxy_bound(p)
            tight = conc.beta_tight_proxy_bound(p)
            ratio = est.value / tight
            point_ok = (
                var - 1e-6 <= est.value <= bound * (1.0 + 1e-6)
                and ratio <= 1.0 + 1e-3
            )
            ok &= point_ok
            if ratio > max_tight_ratio:
                max_tight_ratio, argmax_point = ratio, (a, b)
            rows.append(
                {
                    "alpha": a,
                    "beta": b,
                    "variance": var,
                    "tau2_est": est.value,
                    "bound": bound,
                    "tight_bound": tight,
                    "ratio": ratio,
                    "passed": point_ok,
                }
            )
        _log(f"verify-beta: finished alpha={a}")
    summary = {
        "points": len(rows),
        "all_passed": ok,
        "max_tight_ratio": max_tight_ratio,
        "argmax_point": list(argmax_point),
    }
    return summary, rows, ok


def _cmd_verify_dirichlet(args) -> tuple[dict, list, bool]:
    pairs = args.trials or 20
    n_draws = 10**5
    rng_seed = SeedSpec(args.seed)
    rng = rng_seed.generator(999)
    critical = float(special.kolmogi(1e-3)) / math.sqrt(n_draws)
    rows, ok = [], True
    for i in range(pairs):
        k = int(rng.integers(2, 9))
        alphas = tuple(np.round(rng.uniform(0.2, 8.0, size=k), 3))
        while True:
            mask = rng.random(k) < 0.5
            if mask.any() and not mask.all():
                break
        subset = tuple(int(j) for j in np.nonzero(mask)[0])
        d = DirichletParams(alphas)
        projected = game_mod.project_to_beta(d, subset)
        draws = sample(d, rng_seed.derived(i + 1), n_draws)[:, list(subset)].sum(axis=1)
        ks = float(
            stats.kstest(draws, stats.beta(projected.alpha, projected.beta).cdf).statistic
        )
        point_ok = ks < critical
        ok &= point_ok
        rows.append(
            {
                "k": k,
                "alphas": ";".join(str(a) for a in alphas),
                "subset": ";".join(str(s) for s in subset),
                "projected_alpha": projected.alpha,
                "projected_beta": projected.beta,
                "ks_stat": ks,
                "critical": critical,
                "passed": point_ok,
            }
        )
    summary = {"pairs": pairs, "draws": n_draws, "critical": critical, "all_passed": ok}
    return summary, rows, ok


def _cmd_verify_chi(args) -> tuple[dict, list, bool]:
    draws = args.trials or 10**6
    eps_grid = (0.5, 1.0, 2.0)
    rows, ok = [], True
    for k in range(1, 21):
        moments = [chi_raw_moment(k, j) for j in range(103)]
        rec_err = max(
            abs(moments[j + 2] - (k + j) * moments[j]) / moments[j + 2]
            for j in range(101)
        )
        mean_sq = moments[1] ** 2
        margin = mean_sq - (k - 1)
        criterion = conc.raw_moment_criterion(MomentSequence(tuple(moments)), 1.0)
        samples = sample_chi(k, SeedSpec(args.seed, k), draws)
        mean = samples.mean()
        tail_ok = True
        tail_cells = {}
        for eps in eps_grid:
            freq = float((samples - moments[1] >= eps).mean())
            bound = math.exp(-eps * eps / 2.0)
            se = math.sqrt(max(freq * (1 - freq), 1.0 / draws) / draws)
            tail_ok &= freq <= bound + 4 * se
            tail_cells[f"tail_freq_{eps}"] = freq
            tail_cells[f"tail_bound_{eps}"] = bound
        point_ok = rec_err < 1e-12 and margin > 0 and criterion.passed and tail_ok
        ok &= point_ok
        rows.append(
            {
                "k": k,
                "recurrence_rel_err": rec_err,
                "mean_sq_minus_km1": margin,
                "criterion_passed": criterion.passed,
                "empirical_mean": float(mean),
                **tail_cells,
                "passed": point_ok,
            }
        )
    summary = {"dims": 20, "draws": draws, "all_passed": ok}
    return summary, rows, ok


def _cmd_lemma_checks(args) -> tuple[dict, list, bool]:
    rows, ok = [], True
    for a in GRID:
        for b in GRID:
            p = BetaParams(a, b)
            pair_rows = conc.beta_moment_pair_bounds(p, 100, strict=False)
            pair_viol = sum(1 for _, lhs, rhs in pair_rows if lhs > rhs + 1e-12)
            crit = conc.raw_moment_criterion(
                beta_moment_sequence(p, 200), 1.0 / (2.0 * (p.total + 1.0))
            )
            termwise = conc.termwise_mgf_comparison(p, 1.0 / (2.0 * (p.total + 1.0)), 40)
            term_viol = sum(1 for _, lhs, rhs in termwise if lhs > rhs * (1 + 1e-12))
            point_ok = pair_viol == 0 and crit.passed and term_viol == 0
            ok &= point_ok
            rows.append(
                {
                    "alpha": a,
                    "beta": b,
                    "pair_bound_violations": pair_viol,
                    "criterion_passed": crit.passed,
                    "termwise_violations": term_viol,
                    "passed": point_ok,
                }
            )
    # Counterexample at the halved exponent: power 4 must flip direction.
    witness = conc.termwise_mgf_comparison(BetaParams(1.0, 2.0), 1.0 / 16.0, 6)
    _, w_lhs, w_rhs = witness[4]
    flip_ok = (
        abs(w_lhs - 1.0 / 360.0) <= 1e-12 / 360.0
        and abs(w_rhs - 1363.0 / 497664.0) <= 1e-12
        and w_lhs > w_rhs
    )
    ok &= flip_ok
    summary = {
        "grid_points": len(rows),
        "halved_exponent_power4_lhs": w_lhs,
        "halved_exponent_power4_rhs": w_rhs,
        "halved_exponent_flips": flip_ok,
        "all_passed": ok,
    }
    return summary, rows, ok


def _cmd_martingale(args) -> tuple[dict, list, bool]:
    trials = args.trials or 2000
    horizon = 10**4
    ok = True
    azuma_cells = {}
    for s in (1.0, 2.0, 10.0):
        totals = mart.azuma_total(BetaParams(s / 2, s / 2), 10**6)
        grand = totals.partial_sum + totals.tail_remainder
        lower = 1.0 / (4.0 * s + 2.0 + 1.0 / (3.0 * s))
        s_ok = grand <= totals.theorem_bound + 1e-12 and grand >= lower - 1e-9
        ok &= s_ok
        azuma_cells[f"azuma_total_s{s:g}"] = grand
        azuma_cells[f"azuma_bound_s{s:g}"] = totals.theorem_bound

    rng = SeedSpec(args.seed).generator(7)
    step_ok = True
    for _ in range(1000):
        a, b = np.exp(rng.uniform(np.log(1e-2), np.log(1e3), size=2))
        p = BetaParams(float(a), float(b))
        step_ok &= mart.step_variance_proxy(p) <= 0.25 / (p.total + 1.0) ** 2 + 1e-15
    ok &= step_ok

    prior = BetaParams(1.0, 1.0)
    report = mart.simulate_paths(prior, horizon, trials, SeedSpec(args.seed, 1))
    inc_ok = abs(report.mean_total_increment) <= 4 * report.se_total_increment
    tails_ok = all(freq <= bound + 4 * se for _, freq, bound, se in report.tail_rows)
    devs = [d for _, d in report.checkpoint_mean_abs_dev]
    dev_ok = all(devs[i + 1] <= devs[i] + 0.01 for i in range(len(devs) - 1))
    ok &= inc_ok and tails_ok and dev_ok

    rows = [
        {
            "trial": t,
            "true_p": float(report.true_p[t]),
            "final_mean": float(report.final_mean[t]),
            "deviation": float(report.deviation[t]),
        }
        for t in range(trials)
    ]
    summary = {
        **azuma_cells,
        "step_proxy_bound_ok": step_ok,
        "mean_total_increment": report.mean_total_increment,
        "se_total_increment": report.se_total_increment,
        "tail_rows": [list(r) for r in report.tail_rows],
        "checkpoint_mean_abs_dev": [list(c) for c in report.checkpoint_mean_abs_dev],
        "all_passed": ok,
    }
    return summary, rows, ok


def _load_game_config(args) -> tuple[game_mod.GameConfig, int, SeedSpec]:
    raw = dict(_DEFAULT_GAME)
    if args.config is not None:
        try:
            raw.update(json.loads(Path(args.config).read_text(encoding="utf-8")))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
    try:
        trials = args.trials or int(raw.get("trials", 300))
        if trials < 1:
            raise ValueError(f"trials must be a positive integer, got {trials}")
        seed = SeedSpec(args.seed if args.seed is not None else int(raw.get("seed", 0)))
        prior = DirichletParams(tuple(raw["prior"]["alphas"]))
        n = raw.get("n")
        if n is None:
            n = game_mod.required_n(raw["epsilon"], raw["delta"], raw["q"], prior.total)
        config = game_mod.GameConfig(
            k=raw["k"],
            prior=prior,
            n=int(n),
            q=int(raw["q"]),
            epsilon=float(raw["epsilon"]),
            delta=float(raw["delta"]),
            analyst=raw.get("analyst", "adaptive_correlator"),
            curator=raw.get("curator", "posterior_mean"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid game configuration: {exc}") from exc
    return config, trials, seed


def _cmd_game(args) -> tuple[dict, list, bool]:
    config, trials, seed = _load_game_config(args)
    _log(f"game: n={config.n}, q={config.q}, analyst={config.analyst}, trials={trials}")
    rows = [
        {"trial": t, "max_error": float(error), "win": bool(error <= config.epsilon)}
        for t, error in enumerate(game_mod.run_games(config, trials, seed))
    ]
    failures = sum(not row["win"] for row in rows)
    low, high = game_mod.wilson_interval(failures, trials)
    ok = low <= config.delta
    summary = {
        "config": config.to_json(),
        "trials": trials,
        "failures": failures,
        "failure_rate": failures / trials,
        "wilson_low": low,
        "wilson_high": high,
        "delta": config.delta,
        "all_passed": ok,
    }
    return summary, rows, ok


def _stratified_subsets(rng, outcome_range: int) -> list[set[int]]:
    """Extremal, balanced, and uniformly random subset sizes bracket the sweep."""
    sizes = sorted({1, outcome_range // 2, outcome_range - 1})
    subsets = [
        set(int(v) for v in rng.choice(outcome_range, size=s, replace=False))
        for s in sizes
        if 0 < s < outcome_range
    ]
    while True:
        mask = rng.random(outcome_range) < 0.5
        if 0 < mask.sum() < outcome_range:
            subsets.append(set(int(i) for i in np.nonzero(mask)[0]))
            return subsets


def _cmd_conjectures(args) -> tuple[dict, list, bool]:
    draws = args.trials or 200_000
    seed = SeedSpec(args.seed)
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
    rows, ok = [], True
    max_ratio: dict[str, float] = {}
    for i, (model, prior, subset, m) in enumerate(instances):
        exact = models.evaluate_model(model, prior, subset, m=m)
        mc = models.evaluate_model(
            model, prior, subset, m=m, method="monte_carlo",
            draws=draws, seed=seed.derived(i + 1), j_max=6,
        )
        finite = math.isfinite(exact.ratio) and exact.ratio > 0
        agree = abs(mc.tau2_est - exact.tau2_est) <= max(
            0.5 * exact.tau2_est, 10.0 / math.sqrt(draws)
        )
        ok &= finite and agree
        max_ratio[model] = max(max_ratio.get(model, 0.0), exact.ratio)
        for rep in (exact, mc):
            rows.append(
                {
                    "model": rep.model,
                    "params": json.dumps(rep.params).replace(",", ";"),
                    "subset": rep.subset_desc.replace(",", ";"),
                    "tau2_est": rep.tau2_est,
                    "scale": rep.scale,
                    "ratio": rep.ratio,
                    "method": rep.method,
                }
            )
        _log(f"conjectures: {model} ratio={exact.ratio:.4f} (mc {mc.ratio:.4f})")
    summary = {
        "instances": len(instances),
        "mc_draws": draws,
        "max_ratio_per_model": max_ratio,
        "all_passed": ok,
    }
    return summary, rows, ok


_COMMANDS = {
    "verify-beta": (_cmd_verify_beta, False),
    "verify-dirichlet": (_cmd_verify_dirichlet, False),
    "verify-chi": (_cmd_verify_chi, False),
    "lemma-checks": (_cmd_lemma_checks, False),
    "martingale": (_cmd_martingale, False),
    "game": (_cmd_game, True),
    "conjectures": (_cmd_conjectures, True),
}


def _trial_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _master_seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"must lie in [0, 2^64), got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subgauss",
        description="Numerical concentration checks and query-game experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    help_text = {
        "verify-beta": "variance-proxy grid sweep against the Beta bounds",
        "verify-dirichlet": "KS tests of Dirichlet counting-query projections",
        "verify-chi": "Chi moment recurrences, criterion, and tail frequencies",
        "lemma-checks": "moment-inequality sweeps and the termwise counterexample",
        "martingale": "posterior-mean step/telescoping checks and path simulation",
        "game": "curator/analyst game failure-rate experiment",
        "conjectures": "conjugate-model tau^2 sweeps against conjectured scales",
    }
    for name in _COMMANDS:
        sp = sub.add_parser(name, help=help_text[name])
        sp.add_argument("--seed", type=_master_seed, default=0, help="master seed (u64)")
        sp.add_argument("--out", default="reports", help="output directory")
        sp.add_argument(
            "--trials", type=_trial_count, default=None, help="trial/draw override (>= 1)"
        )
        sp.add_argument(
            "--format", choices=("json", "csv", "both"), default="both", dest="fmt"
        )
        if _COMMANDS[name][1]:
            sp.add_argument("--config", default=None, help="JSON config path")
    return parser


def cli_dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        return int(exc.code or 0)
    handler, _ = _COMMANDS[args.command]
    try:
        summary, rows, ok = handler(args)
    except ConfigError as exc:
        _log(f"error: {exc}")
        return 2
    try:
        emit_report(
            args.command,
            summary,
            rows,
            args.out,
            args.fmt,
            config={"argv": argv},
            master_seed=args.seed,
        )
    except OSError as exc:
        _log(f"error: could not write reports: {exc}")
        return 1
    _log(f"{args.command}: {'all checks passed' if ok else 'CHECKS FAILED'}")
    return 0 if ok else 1


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
