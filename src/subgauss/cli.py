"""Command-line driver: parses arguments, runs one check and writes its report.

Subcommands: verify-beta, verify-dirichlet, verify-chi, lemma-checks,
martingale, game, conjectures. The first five run the criteria in
`subgauss.checks`, the same functions the acceptance tests call; `game` and
`conjectures` are defined here. Every run is deterministic given (config,
--seed); `game` takes its seed from --seed, else the config's "seed", else 0,
and every other subcommand that draws random numbers from --seed, else 0.
`verify-beta` and `lemma-checks` draw none and take neither --seed nor
--trials; `conjectures` reads --trials as its Monte Carlo draw count, at least
100. Exit codes: 0 all checks passed, 1 at least one check failed (its
first failing rows are logged), 2 usage or configuration error. Progress goes
to stderr; data goes only to the output files.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import checks
from . import conjugate_models as models
from . import game as game_mod
from .checks import CheckResult
from .distributions import BetaParams, DirichletParams, GammaParams, SeedSpec
from .reporting import emit_report


class ConfigError(ValueError):
    """Bad usage or configuration input; maps to exit code 2."""


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


def _integer(raw: dict, key: str) -> int:
    """The config's integer ``key``; 2.5, "3" or true are refused, not truncated."""
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not float(value).is_integer():
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _load_game_config(args) -> tuple[game_mod.GameConfig, int, SeedSpec]:
    raw = dict(_DEFAULT_GAME)
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config {args.config!r} must hold a JSON object, not {loaded!r}")
        raw.update(loaded)
    try:
        trials = args.trials or _integer(raw, "trials")
        if trials < 1:
            raise ValueError(f"trials must be a positive integer, got {trials}")
        seed = SeedSpec(args.seed if args.seed is not None else _integer(raw, "seed"))
        prior = DirichletParams(tuple(raw["prior"]["alphas"]))
        q = _integer(raw, "q")
        if raw["n"] is None:
            n = game_mod.required_n(raw["epsilon"], raw["delta"], q, prior.total)
        else:
            n = _integer(raw, "n")
        config = game_mod.GameConfig(
            k=_integer(raw, "k"),
            prior=prior,
            n=n,
            q=q,
            epsilon=float(raw["epsilon"]),
            delta=float(raw["delta"]),
            analyst=raw.get("analyst", "adaptive_correlator"),
            curator=raw.get("curator", "posterior_mean"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid game configuration: {exc}") from exc
    return config, trials, seed


def _cmd_game(args) -> CheckResult:
    config, trials, seed = _load_game_config(args)
    args.seed = seed.master_seed  # the manifest records the seed actually used
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
    failed = [{"check": "wilson_low <= delta", "wilson_low": low, "delta": config.delta}]
    return CheckResult(summary, rows, ok, [] if ok else failed)


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


def _cmd_conjectures(args) -> CheckResult:
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
    rows, failures = [], []
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
        if not (finite and agree):
            failures.append(
                {"model": model, "params": json.dumps(exact.params),
                 "subset": exact.subset_desc, "exact_tau2": exact.tau2_est,
                 "mc_tau2": mc.tau2_est}
            )
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
        "all_passed": not failures,
    }
    return CheckResult(summary, rows, not failures, failures)


# Subcommands whose check draws random numbers: only these take --seed and --trials.
_SEEDED = ("verify-dirichlet", "verify-chi", "martingale", "game", "conjectures")

_COMMANDS = {
    "verify-beta": lambda args: checks.verify_beta(),
    "verify-dirichlet": lambda args: checks.verify_dirichlet(SeedSpec(args.seed), args.trials),
    "verify-chi": lambda args: checks.verify_chi(SeedSpec(args.seed), args.trials),
    "lemma-checks": lambda args: checks.lemma_checks(),
    "martingale": lambda args: checks.martingale(SeedSpec(args.seed), args.trials),
    "game": _cmd_game,
    "conjectures": _cmd_conjectures,
}


def _describe(row: dict) -> str:
    cells = " ".join(f"{k}={v}" for k, v in row.items() if k not in ("check", "passed"))
    return f"{row['check']}: {cells}" if "check" in row else cells


def _count_at_least(floor: int):
    """An argparse type: an integer of at least ``floor``."""

    def count(text: str) -> int:
        value = int(text)
        if value < floor:
            raise argparse.ArgumentTypeError(f"must be at least {floor}, got {value}")
        return value

    return count


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
        if name in _SEEDED:
            # only `game` reads a config, which is a second seed source
            seed_default = None if name == "game" else 0
            sp.add_argument(
                "--seed", type=_master_seed, default=seed_default, help="master seed (u64)"
            )
            floor = 100 if name == "conjectures" else 1  # the Monte Carlo log-MGF's floor
            sp.add_argument(
                "--trials", type=_count_at_least(floor), default=None,
                help=f"trial/draw override (>= {floor})",
            )
        sp.add_argument("--out", default="reports", help="output directory")
        sp.add_argument(
            "--format", choices=("json", "csv", "both"), default="both", dest="fmt"
        )
        if name == "game":
            sp.add_argument("--config", default=None, help="JSON config path")
    return parser


def cli_dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        return int(exc.code or 0)
    try:
        result = _COMMANDS[args.command](args)
    except ConfigError as exc:
        _log(f"error: {exc}")
        return 2
    try:
        emit_report(
            args.command,
            result.summary,
            result.rows,
            args.out,
            args.fmt,
            config={"argv": argv},
            master_seed=getattr(args, "seed", None),  # None: the check draws nothing
        )
    except OSError as exc:
        _log(f"error: could not write reports: {exc}")
        return 1
    for row in result.failures[:5]:
        _log(f"{args.command}: failed: {_describe(row)}")
    if len(result.failures) > 5:
        _log(f"{args.command}: ... and {len(result.failures) - 5} more failures")
    _log(f"{args.command}: {'all checks passed' if result.passed else 'CHECKS FAILED'}")
    return 0 if result.passed else 1


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
