"""Command-line driver: parses arguments, runs one check and writes its report.

Subcommands: verify-beta, verify-dirichlet, verify-chi, lemma-checks,
martingale, game, conjectures. Each runs one criterion of `subgauss.checks`,
the same functions the acceptance tests call, and every run is deterministic
given its arguments, which the manifest records as "argv". Every subcommand
that draws random numbers takes --seed (default 0) and --trials (default:
its check's own count); `verify-beta` and `lemma-checks` draw none and take
neither, and `conjectures` reads --trials as its Monte Carlo draw count. The
library checks both as they are parsed, and its refusal is the usage error:
--seed by `SeedSpec` (an integer in [0, 2^64)), --trials by
`distributions._check_at_least` (an integer of at least 1, or
`concentration._MIN_MONTE_CARLO_DRAWS` = 100 for `conjectures` and
`martingale._MIN_PATHS` = 2 for `martingale`). `game` takes one flag per
`game.GameConfig` setting: --alphas (the Dirichlet prior, whose length is
k; default ten 1.0s), --n (default `game.required_n` at the other
settings), --q (1000), --epsilon (0.1), --delta (0.05), --analyst
(adaptive_correlator) and --curator (posterior_mean). `DirichletParams`,
`GameConfig` and `required_n` check them, and their refusal is a usage
error too. Exit codes: 0 all checks passed, 1 at least one check failed (its
first failing rows are logged), 2 usage or configuration error. Progress
goes to stderr; data goes only to the output files. The run manifest also
records the seconds spent importing (`import_s`) and running the check
(`run_s`). OpenBLAS runs one thread unless OPENBLAS_NUM_THREADS is set.
"""
from __future__ import annotations

import os
import time

_import_started = time.perf_counter()

# One OpenBLAS thread, set before numpy loads: the first `eigvalsh` of a fresh
# process could stall about 0.5 s with two, and no sum here needs BLAS
# (weighted sums are `einsum` reductions). A value already set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import functools
import sys
from typing import Callable, NamedTuple

from . import checks
from . import game as game_mod
from .concentration import _MIN_MONTE_CARLO_DRAWS
from .distributions import DirichletParams, SeedSpec, _check_at_least
from .martingale import _MIN_PATHS
from .reporting import emit_report

# seconds this module's import block took: NumPy, and no SciPy (verify-dirichlet loads it to run)
_IMPORT_S = time.perf_counter() - _import_started


class ConfigError(ValueError):
    """Bad usage or configuration input; maps to exit code 2."""


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _cmd_game(args) -> checks.CheckResult:
    try:  # DirichletParams, GameConfig and required_n own the game's rules
        prior = DirichletParams(tuple(args.alphas))
        n = game_mod.required_n(args.epsilon, args.delta, args.q, prior.total) if args.n is None else args.n
        config = game_mod.GameConfig(k=prior.k, prior=prior, n=n, q=args.q, epsilon=args.epsilon,
                                     delta=args.delta, analyst=args.analyst, curator=args.curator)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid game configuration: {exc}") from exc
    _log(f"game: n={config.n}, q={config.q}, analyst={config.analyst}")
    return checks.game(config, SeedSpec(args.seed), args.trials)


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


def _checked(check: Callable[[int], object]) -> Callable[[str], int]:
    """An argparse type: an integer that ``check`` accepts. ``check``'s ValueError
    becomes the usage error (exit 2), with its message."""

    def integer(text: str) -> int:
        value = int(text)  # a non-integer is argparse's own "invalid integer value"
        try:
            check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subgauss",
        description="Numerical concentration checks and query-game experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        if command.seeded:
            sp.add_argument("--seed", type=_checked(SeedSpec), default=0, help="master seed (u64)")
            floors = {"conjectures": _MIN_MONTE_CARLO_DRAWS, "martingale": _MIN_PATHS}
            floor = floors.get(name, 1)
            sp.add_argument(
                "--trials", type=_checked(functools.partial(_check_at_least, "trials", floor=floor)),
                default=None, help=f"trial/draw override (>= {floor})",
            )
        sp.add_argument("--out", default="reports", help="output directory")
        sp.add_argument("--format", choices=("json", "csv", "both"), default="both", dest="fmt")
        if name == "game":  # checked as `_cmd_game` builds the config
            sp.add_argument("--alphas", type=float, nargs="+", default=[1.0] * 10,
                            help="Dirichlet prior; its length is k (default: ten 1.0s)")
            sp.add_argument("--n", type=int, default=None, help="sample size (default: game.required_n)")
            sp.add_argument("--q", type=int, default=1000, help="queries per game")
            sp.add_argument("--epsilon", type=float, default=0.1, help="largest error a game may win with")
            sp.add_argument("--delta", type=float, default=0.05, help="failure-rate bound the check tests")
            sp.add_argument("--analyst", default="adaptive_correlator",
                            help=", ".join(game_mod.ANALYST_KINDS))
            sp.add_argument("--curator", default="posterior_mean", help=", ".join(game_mod.CURATOR_KINDS))
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
