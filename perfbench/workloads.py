"""The three workloads: one timed pass each, and the oracle check of a pass.

A pass is the workload's fixed work on one set of generated inputs, ending
with the report the CLI would write. ``run_*`` is the timed part and calls
only public ``subgauss`` functions through their modules (so the tracer's
rebinding reaches them); it calls ``tick`` after each unit of work and after
the report, so the clock can calibrate between them. ``check_*`` runs
afterwards, untimed, and returns (units attempted, units failed, failures).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from subgauss import concentration, conjugate_models, distributions, game, martingale, reporting
from subgauss.distributions import BetaParams, DirichletParams, GammaParams, SeedSpec

import inputs as gen
import oracles


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int, int], object]  # (seed, pass index) -> inputs
    run: Callable[[object, int, Path, Callable[[], None]], list]  # (inputs, seed, report dir, tick) -> results
    check: Callable[[object, list, int], tuple[int, int, list]]


def _emit(name: str, rows: list[dict], seed: int, out_dir: Path) -> None:
    summary = {"units": len(rows), "seed": seed}
    reporting.emit_report(name, summary, rows, out_dir, "both", config={"workload": name}, master_seed=seed)


# ---------------------------------------------------------------------------
# beta_exact: check_beta_bound over seeded (alpha, beta) pairs
# ---------------------------------------------------------------------------


def run_beta(pairs, seed: int, out_dir: Path, tick) -> list:
    results, rows = [], []
    for _, a, b in pairs:
        try:
            check = concentration.check_beta_bound(BetaParams(a, b))
            results.append(check.tau2_est)
            rows.append({"alpha": a, "beta": b, "tau2_est": check.tau2_est, "bound": check.bound,
                         "passed": check.passed})
        except Exception as exc:  # a failed unit; the oracle names it
            results.append(exc)
            rows.append({"alpha": a, "beta": b, "tau2_est": None, "bound": None, "passed": False})
        tick()
    _emit("beta_exact", rows, seed, out_dir)
    tick()
    return results


def check_beta(pairs, results: list, seed: int) -> tuple[int, int, list]:
    failures, failed = [], 0
    for (stratum, a, b), result in zip(pairs, results):
        found = oracles.check_beta(stratum, a, b, result, f"seed={seed}")
        failed += bool(found)
        failures += found
    return len(pairs), failed, failures


# ---------------------------------------------------------------------------
# query_game: estimate_failure_rate over analyst x curator x q
# ---------------------------------------------------------------------------

_GAME_PRIOR = DirichletParams((1.0,) * gen.GAME_K)


def _game_config(case: gen.GameCase) -> game.GameConfig:
    return game.GameConfig(gen.GAME_K, _GAME_PRIOR, case.n, case.q, gen.GAME_EPSILON, gen.GAME_DELTA,
                           case.analyst, case.curator)


def run_game(cases, seed: int, out_dir: Path, tick) -> list:
    results, rows = [], []
    for case in cases:
        try:
            est = game.estimate_failure_rate(_game_config(case), gen.GAME_TRIALS, SeedSpec(seed, case.stream_id))
            results.append((est.failures, est.trials, est.rate, est.wilson_low, est.wilson_high))
            rows.append({"analyst": case.analyst, "curator": case.curator, "q": case.q, "n": case.n,
                         "failures": est.failures, "trials": est.trials, "wilson_low": est.wilson_low,
                         "wilson_high": est.wilson_high})
        except Exception as exc:  # a failed configuration; the oracle names it
            results.append(exc)
        tick()
    _emit("query_game", rows, seed, out_dir)
    tick()
    return results


def replay(case: gen.GameCase, seed: int, trial: int) -> oracles.Replay:
    """Re-play one trial with every round recorded, plus its instance counts."""
    spec = SeedSpec(seed, case.stream_id).derived(trial)
    transcript = game.run_game(_game_config(case), spec, record_rounds=True)
    true_p, counts = game.sample_instance(_GAME_PRIOR, case.n, spec)
    rounds = []
    for r in transcript.rounds:
        if r.query.subset is not None:
            w = np.zeros(gen.GAME_K)
            w[sorted(r.query.subset)] = 1.0
        else:
            w = np.asarray(r.query.weights, dtype=float)
        rounds.append((tuple(w), r.answer, r.truth))
    return oracles.Replay(trial, tuple(true_p.tolist()), tuple(int(c) for c in counts), tuple(rounds),
                          transcript.max_error, transcript.win)


def recount(case: gen.GameCase, seed: int) -> int:
    """Lost games over the configuration's trials, one ``run_game`` call per trial."""
    spec = SeedSpec(seed, case.stream_id)
    config = _game_config(case)
    return sum(not game.run_game(config, spec.derived(t), record_rounds=False).win for t in range(gen.GAME_TRIALS))


def check_game(cases, results: list, seed: int) -> tuple[int, int, list]:
    failures, failed = [], 0
    for case, result in zip(cases, results):
        if isinstance(result, BaseException):
            replays, lost = [], None
        else:
            replays, lost = [replay(case, seed, t) for t in case.replay_trials], recount(case, seed)
        library_n = game.required_n(gen.GAME_EPSILON, gen.GAME_DELTA, case.q, float(gen.GAME_K))
        found = oracles.check_game(case, _GAME_PRIOR.alphas, gen.GAME_EPSILON, gen.GAME_DELTA, gen.GAME_TRIALS,
                                   result, replays, library_n, lost)
        if found:
            failed += gen.GAME_TRIALS
            failures += [replace(f, instance=f"{f.instance} seed={seed}") for f in found]
    return gen.GAME_TRIALS * len(cases), failed, failures


# ---------------------------------------------------------------------------
# monte_carlo: conjugate models (exact and Monte Carlo), Chi, martingale paths
# ---------------------------------------------------------------------------

INSTANCES = gen.conjugate_instances()


def _prior(inst: gen.ConjugateInstance):
    if inst.prior_kind == "beta":
        return BetaParams(*inst.prior)
    if inst.prior_kind == "gamma":
        return GammaParams(*inst.prior)
    return DirichletParams(inst.prior)


def make_mc_inputs(seed: int, pass_index: int) -> gen.MonteCarloPass:
    return gen.monte_carlo_pass(seed, pass_index, len(INSTANCES))


def _evaluate(inst, **kwargs):
    try:
        rep = conjugate_models.evaluate_model(inst.model, _prior(inst), set(inst.subset), m=inst.m, **kwargs)
    except Exception as exc:  # a failed unit; the oracle names it
        return exc, None
    return (rep.tau2_est, rep.estimate.argmax_lambda, rep.estimate.grid_spec), {
        "model": rep.model, "subset": rep.subset_desc.replace(",", ";"), "tau2_est": rep.tau2_est,
        "scale": rep.scale, "ratio": rep.ratio, "method": rep.method}


def run_mc(p: gen.MonteCarloPass, seed: int, out_dir: Path, tick) -> list:
    results, rows = [], []
    for idx in p.instance_order:
        inst = INSTANCES[idx]
        exact, row = _evaluate(inst)
        rows += [row] if row else []
        mc, row = _evaluate(inst, method="monte_carlo", draws=gen.MC_DRAWS, seed=SeedSpec(p.mc_seeds[idx]),
                            j_max=gen.MC_J_MAX)
        rows += [row] if row else []
        results.append(("conjugate", idx, exact, mc))
        tick()
    for k, s in zip(gen.CHI_DIMS, p.chi_seeds):
        try:
            results.append(("chi", k, distributions.sample_chi(k, SeedSpec(s), gen.CHI_DRAWS)))
        except Exception as exc:
            results.append(("chi", k, exc))
        tick()
    try:
        paths = martingale.simulate_paths(BetaParams(*gen.PATH_PRIOR), gen.PATH_HORIZON, gen.PATH_TRIALS,
                                          SeedSpec(p.path_seed))
    except Exception as exc:
        paths = exc
    results.append(("paths", 0, paths))
    tick()
    for total in gen.AZUMA_TOTALS:
        try:
            results.append(("azuma", total, martingale.azuma_total(BetaParams(total / 2, total / 2),
                                                                    gen.AZUMA_HORIZON)))
        except Exception as exc:
            results.append(("azuma", total, exc))
        tick()
    _emit("monte_carlo", rows, seed, out_dir)
    tick()
    return results


def _raised(where: str, what: str, exc: BaseException) -> list:
    return [oracles.Failure("monte_carlo", where, what, f"raised {type(exc).__name__}: {exc}", "no exception")]


def check_mc(p: gen.MonteCarloPass, results: list, seed: int) -> tuple[int, int, list]:
    ref = oracles.load_reference()
    attempted, failed, failures = 0, 0, []

    def record(found: list) -> None:
        nonlocal attempted, failed
        attempted += 1
        failed += bool(found)
        failures.extend(found)

    for kind, key, *rest in results:
        if kind == "conjugate":
            inst = INSTANCES[key]
            exact, mc = rest
            if isinstance(exact, BaseException):
                record(_raised(f"exact {inst.label}", "evaluate_model", exact))
            else:
                record(oracles.check_conjugate_exact(inst.label, *exact, ref))
            if isinstance(mc, BaseException):
                record(_raised(f"monte_carlo {inst.label}", "evaluate_model", mc))
            else:
                record(oracles.check_conjugate_mc(inst.label, mc[0], gen.MC_DRAWS, p.mc_seeds[key], ref))
        elif kind == "chi":
            seed_k = p.chi_seeds[gen.CHI_DIMS.index(key)]
            out = rest[0]
            record(_raised(f"sample_chi k={key} seed={seed_k}", "sample_chi", out) if isinstance(out, BaseException)
                   else oracles.check_chi(key, gen.CHI_DRAWS, seed_k, out))
        elif kind == "paths":
            out = rest[0]
            a, b = gen.PATH_PRIOR
            record(_raised(f"simulate_paths seed={p.path_seed}", "simulate_paths", out)
                   if isinstance(out, BaseException)
                   else oracles.check_paths(a + b, a / (a + b), gen.PATH_TRIALS, p.path_seed, out))
        else:
            out = rest[0]
            record(_raised(f"azuma_total s={key}", "azuma_total", out) if isinstance(out, BaseException)
                   else oracles.check_azuma(key, gen.AZUMA_HORIZON, out))
    return attempted, failed, failures


WORKLOADS = {
    "beta_exact": Workload("beta_exact", gen.beta_pairs, run_beta, check_beta),
    "query_game": Workload("query_game", gen.game_cases, run_game, check_game),
    "monte_carlo": Workload("monte_carlo", make_mc_inputs, run_mc, check_mc),
}
