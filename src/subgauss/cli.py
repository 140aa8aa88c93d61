"""Command-line driver: parses arguments, runs one check and writes its report.

Subcommands: verify-beta, verify-dirichlet, verify-chi, lemma-checks,
martingale, game, conjectures. Each runs one criterion of `subgauss.checks`,
the same functions the acceptance tests call; `game` first loads its JSON
configuration over `_DEFAULT_GAME` and refuses any key but its own, "trials"
and the prior's "alphas". Every run is deterministic given (config,
--seed); `game` takes its seed from --seed, else the config's "seed", else 0,
and every other subcommand that draws random numbers from --seed, else 0.
`game` plays --trials games, else the config's "trials", else the default of
`checks.game`. `verify-beta` and `lemma-checks` draw none and take neither
--seed nor --trials; `conjectures` reads --trials as its Monte Carlo draw
count, at least 100. Exit codes: 0 all checks passed, 1 at least one check
failed (its first failing rows are logged), 2 usage or configuration error.
Progress goes to stderr; data goes only to the output files. The run manifest
also records the seconds spent importing (`import_s`) and running the check
(`run_s`).
"""
from __future__ import annotations

import time

_import_started = time.perf_counter()

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from . import checks
from . import game as game_mod
from .distributions import DirichletParams, SeedSpec, _check_integer
from .reporting import emit_report

# seconds this module's import block took; under `python -m subgauss.cli` it loads NumPy and SciPy
_IMPORT_S = time.perf_counter() - _import_started


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
    "seed": 0,
}


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _load_game_config(args) -> tuple[game_mod.GameConfig, int | None, SeedSpec]:
    raw = dict(_DEFAULT_GAME)
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config {args.config!r} must hold a JSON object, not {loaded!r}")
        unknown = sorted(set(loaded) - set(_DEFAULT_GAME) - {"trials"})
        if isinstance(loaded.get("prior"), dict):
            unknown += [f"prior.{key}" for key in sorted(set(loaded["prior"]) - {"alphas"})]
        if unknown:
            raise ConfigError(f"config {args.config!r} has unknown keys: {', '.join(unknown)}")
        raw.update(loaded)
    try:
        trials = args.trials
        if trials is None and "trials" in raw:  # checked as `checks.game` checks it
            trials = checks._count(raw["trials"], None)
        seed = SeedSpec(_check_integer("seed", raw["seed"]) if args.seed is None else args.seed)
        prior = DirichletParams(tuple(raw["prior"]["alphas"]))
        settings = {key: raw[key] for key in _DEFAULT_GAME if key not in ("prior", "seed")}
        if settings["n"] is None:  # GameConfig and required_n check the types
            settings["n"] = game_mod.required_n(raw["epsilon"], raw["delta"], raw["q"], prior.total)
        config = game_mod.GameConfig(prior=prior, **settings)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid game configuration: {exc}") from exc
    return config, trials, seed


def _cmd_game(args) -> checks.CheckResult:
    config, trials, seed = _load_game_config(args)
    args.seed = seed.master_seed  # the manifest records the seed actually used
    _log(f"game: n={config.n}, q={config.q}, analyst={config.analyst}")
    return checks.game(config, seed, trials)


class _Command(NamedTuple):
    help: str
    run: Callable[[argparse.Namespace], checks.CheckResult]
    seeded: bool = True  # the check draws random numbers: only these take --seed and --trials


_COMMANDS = {
    "verify-beta": _Command("variance-proxy grid sweep against the Beta bounds",
                            lambda args: checks.verify_beta(), seeded=False),
    "verify-dirichlet": _Command("KS tests of Dirichlet counting-query projections",
                                 lambda args: checks.verify_dirichlet(SeedSpec(args.seed), args.trials)),
    "verify-chi": _Command("Chi moment recurrences, criterion, and tail frequencies",
                           lambda args: checks.verify_chi(SeedSpec(args.seed), args.trials)),
    "lemma-checks": _Command("moment-inequality sweeps and the termwise counterexample",
                             lambda args: checks.lemma_checks(), seeded=False),
    "martingale": _Command("posterior-mean step/telescoping checks and path simulation",
                           lambda args: checks.martingale(SeedSpec(args.seed), args.trials)),
    "game": _Command("curator/analyst game failure-rate experiment", _cmd_game),
    "conjectures": _Command("conjugate-model tau^2 sweeps against conjectured scales",
                            lambda args: checks.conjectures(SeedSpec(args.seed), args.trials)),
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
    for name, command in _COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        if command.seeded:
            # only `game` reads a config, which is a second seed source
            seed_default = None if name == "game" else 0
            sp.add_argument("--seed", type=_master_seed, default=seed_default, help="master seed (u64)")
            floor = 100 if name == "conjectures" else 1  # the Monte Carlo log-MGF's floor
            sp.add_argument(
                "--trials", type=_count_at_least(floor), default=None,
                help=f"trial/draw override (>= {floor})",
            )
        sp.add_argument("--out", default="reports", help="output directory")
        sp.add_argument("--format", choices=("json", "csv", "both"), default="both", dest="fmt")
        if name == "game":
            sp.add_argument("--config", default=None, help="JSON config path")
    return parser


def cli_dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        result = _COMMANDS[args.command].run(args)
    except ConfigError as exc:
        _log(f"error: {exc}")
        return 2
    timings = {"import_s": _IMPORT_S, "run_s": time.perf_counter() - started}
    try:
        emit_report(
            args.command,
            result.summary,
            result.rows,
            args.out,
            args.fmt,
            config={"argv": argv},
            master_seed=getattr(args, "seed", None),  # None: the check draws nothing
            timings=timings,
            counts=result.counts,
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
