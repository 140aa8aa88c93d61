"""Tests of the benchmark itself: seeded inputs, oracle rejection, and a smoke run.

Run from the repository root:  python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import inputs as gen  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


# -- input generation -------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_repeat_for_equal_seeds_and_differ_otherwise(name):
    make = workloads.WORKLOADS[name].make_inputs
    assert make(5, 0) == make(5, 0)
    assert make(5, 0) != make(6, 0)
    assert make(5, 0) != make(5, 1)


def test_beta_pairs_cover_the_strata():
    pairs = gen.beta_pairs(3, 0)
    strata = [s for s, _, _ in pairs]
    assert strata.count("loguniform") == gen.LOGUNIFORM_SIDE**2
    assert all(a == b for s, a, b in pairs if s == "symmetric")
    assert all(gen.GRID_LO <= min(a, b) and max(a, b) <= gen.GRID_HI for s, a, b in pairs if s != "large")
    assert all(1e3 < a + b <= 1e5 for s, a, b in pairs if s == "large")


def test_known_failure_count_depends_on_neither_seed_nor_clock():
    symmetric = lambda seed, i: [p for p in gen.beta_pairs(seed, i) if p[0] == "symmetric"]
    assert symmetric(1, 0) == symmetric(2, 0) == symmetric(1, 3)
    assert run.pass_count("query_game", 0.01) == 1
    assert run.pass_count("beta_exact", 24.0) == round(24.0 / run.PASS_SECONDS["beta_exact"])


def test_closed_form_required_n_matches_the_library():
    from subgauss import game

    for q in (1, 10, 100, 500, 1000, 10**4):
        assert gen.required_n(0.1, 0.05, q, 10.0) == game.required_n(0.1, 0.05, q, 10.0)


def test_instance_set_is_the_cli_default_and_in_the_reference():
    instances = gen.conjugate_instances()
    assert len(instances) == 30
    assert set(oracles.load_reference()) == {inst.label for inst in instances}


# -- oracles reject perturbed results ----------------------------------------


def test_beta_oracle_rejects_perturbations():
    a = b = 5.0
    s = a + b
    var = a * b / (s * s * (s + 1))
    assert oracles.check_beta("symmetric", a, b, var, "t") == []
    [fail] = oracles.check_beta("symmetric", a, b, var * (1 + 1e-9), "t")
    assert fail.quantity == "tau2_est/Var - 1" and "Beta(5.0, 5.0)" in fail.instance
    assert fail.known == oracles.SYMMETRIC_EXCESS
    [fail] = oracles.check_beta("symmetric", a, b, var * (1 + 1e-5), "t")
    assert fail.known is None  # larger than the documented cancellation
    assert oracles.check_beta("loguniform", 2.0, 7.0, 1.0 / (4 * 9.0 + 2) * 1.01, "t")
    assert oracles.check_beta("loguniform", 2.0, 7.0, 0.0, "t")
    [raised] = oracles.check_beta("large", 600.0, 600.0, OverflowError("cap"), "t")
    assert raised.known == oracles.LARGE_TOTAL_OVERFLOW
    [raised] = oracles.check_beta("loguniform", 1.0, 2.0, OverflowError("cap"), "t")
    assert raised.known is None


def _game_case(curator: str) -> gen.GameCase:
    n = gen.required_n(gen.GAME_EPSILON, gen.GAME_DELTA, 10, float(gen.GAME_K))
    return gen.GameCase("adaptive_correlator", curator, 10, n, 4000, (0, 3))


@pytest.mark.parametrize("curator", gen.GAME_CURATORS)
def test_game_oracle_accepts_the_library_and_rejects_a_flipped_answer(curator):
    case = _game_case(curator)
    replays = [workloads.replay(case, 1, t) for t in case.replay_trials]
    estimate = (0, 100, 0.0, 0.0, oracles.wilson(0, 100)[1])
    args = (case, workloads._GAME_PRIOR.alphas, gen.GAME_EPSILON, gen.GAME_DELTA, 100)
    assert oracles.check_game(*args, estimate, replays, case.n, 0) == []

    rep = replays[0]
    weights, answer, truth = rep.rounds[4]
    flipped = rep.rounds[:4] + ((weights, 1.0 - answer, truth),) + rep.rounds[5:]
    bad = oracles.Replay(rep.trial, rep.true_p, rep.counts, flipped, rep.max_error, rep.win)
    failures = oracles.check_game(*args, estimate, [bad], case.n, 0)
    assert failures
    if curator != "sample_split":  # a flipped fold mean is still a fold mean; max_error catches it
        assert any(f.quantity == "answer" and "round=4" in f.instance for f in failures)


def test_game_oracle_rejects_a_broken_guarantee_and_inconsistent_counts():
    case = _game_case("posterior_mean")
    args = (case, workloads._GAME_PRIOR.alphas, gen.GAME_EPSILON, gen.GAME_DELTA, 100)
    low, high = oracles.wilson(20, 100)
    assert any(f.quantity == "wilson_low" for f in oracles.check_game(*args, (20, 100, 0.2, low, high), [], case.n, 20))
    assert oracles.check_game(*args, (3, 100, 0.2, low, high), [], case.n, 3)
    assert oracles.check_game(*args, (0, 100, 0.0, 0.0, oracles.wilson(0, 100)[1]), [], case.n + 1, 0)


def test_game_oracle_rejects_a_consistent_but_wrong_failure_count():
    from subgauss import game
    from subgauss.distributions import SeedSpec

    case = _game_case("empirical_mean")
    est = game.estimate_failure_rate(workloads._game_config(case), gen.GAME_TRIALS, SeedSpec(1, case.stream_id))
    lost = workloads.recount(case, 1)
    args = (case, workloads._GAME_PRIOR.alphas, gen.GAME_EPSILON, gen.GAME_DELTA, gen.GAME_TRIALS)
    right = (est.failures, est.trials, est.rate, est.wilson_low, est.wilson_high)
    assert oracles.check_game(*args, right, [], case.n, lost) == []
    for wrong in (est.failures + 1, 0 if est.failures else 1):
        estimate = (wrong, gen.GAME_TRIALS, wrong / gen.GAME_TRIALS, *oracles.wilson(wrong, gen.GAME_TRIALS))
        [fail] = oracles.check_game(*args, estimate, [], case.n, lost)
        assert fail.quantity == "failures" and fail.known is None


SPEC = "signed log grid |lambda| in [0.001, 2.408], 200 points/sign, golden refine tol 1e-08"


def _label(fragment: str) -> str:
    return next(i.label for i in gen.conjugate_instances() if fragment in i.label)


def test_exact_conjugate_oracle_tags_only_an_understatement_at_the_cap():
    ref = oracles.load_reference()
    label = _label("S=[0, 2, 3, 4, 5]")
    want = ref[label]["tau2"]
    assert oracles.check_conjugate_exact(label, want * (1 + 1e-8), 0.087, SPEC, ref) == []
    [fail] = oracles.check_conjugate_exact(label, want * (1 + 1e-5), 0.087, SPEC, ref)
    assert fail.known is None
    [capped] = oracles.check_conjugate_exact(label, want * 0.9, 2.408, SPEC, ref)
    assert capped.known == oracles.SERIES_CAP
    [over] = oracles.check_conjugate_exact(label, want * 1.1, 2.408, SPEC, ref)
    assert over.known is None  # a capped scan cannot overstate the supremum
    [low_end] = oracles.check_conjugate_exact(label, want * 0.9, -0.001, SPEC, ref)
    assert low_end.known is None  # lambda_min is not the series cap


def test_monte_carlo_conjugate_oracle_rejects_perturbations():
    ref = oracles.load_reference()
    draws = gen.MC_DRAWS
    label = _label("S=[0, 2, 3, 4, 5]")
    capped = ref[label]["tau2_capped"]
    assert oracles.check_conjugate_mc(label, capped * 1.2, draws, 1, ref) == []
    assert oracles.check_conjugate_mc(label, capped * 1.6, draws, 1, ref)
    assert oracles.check_conjugate_mc(label, capped * 0.9, draws, 1, ref)  # below Var - 6 SE
    assert oracles.check_conjugate_mc(label, capped, 2 * draws, 1, ref)  # reference built for other draws
    small = min(ref, key=lambda k: ref[k]["tau2"])
    assert ref[small]["tau2"] < 10.0 / math.sqrt(draws)  # the CLI's rule alone would accept 0
    assert oracles.check_conjugate_mc(small, ref[small]["tau2_capped"], draws, 1, ref) == []
    assert oracles.check_conjugate_mc(small, 0.0, draws, 1, ref)


def test_chi_paths_and_azuma_oracles_reject_perturbations():
    from subgauss import martingale
    from subgauss.distributions import BetaParams, SeedSpec, sample_chi

    samples = sample_chi(3, SeedSpec(1), 20_000)
    assert oracles.check_chi(3, 20_000, 1, samples) == []
    assert oracles.check_chi(3, 20_000, 1, samples + 0.05)

    report = martingale.simulate_paths(BetaParams(1.0, 1.0), 200, 500, SeedSpec(2))
    assert oracles.check_paths(2.0, 0.5, 500, 2, report) == []
    rows = tuple((e, f + 0.01, b, s) for e, f, b, s in report.tail_rows)
    bent = type(report)(**{**report.__dict__, "tail_rows": rows})
    assert oracles.check_paths(2.0, 0.5, 500, 2, bent)

    totals = martingale.azuma_total(BetaParams(1.0, 1.0), 1000)
    assert oracles.check_azuma(2.0, 1000, totals) == []
    off = type(totals)(totals.partial_sum * (1 + 1e-9), totals.tail_remainder, totals.theorem_bound)
    assert oracles.check_azuma(2.0, 1000, off)


def test_cap_detection_reads_the_grid_spec():
    assert oracles.argmax_on_cap(-2.408, SPEC)
    assert not oracles.argmax_on_cap(0.5, SPEC)
    assert not oracles.argmax_on_cap(0.001, SPEC)
    assert math.isclose(oracles.chi_mean(1), math.sqrt(2 / math.pi))


# -- smoke run ---------------------------------------------------------------


@pytest.fixture
def tiny(monkeypatch):
    for name, value in {
        "LOGUNIFORM_SIDE": 1, "SYMMETRIC_PAIRS": 1, "LARGE_PAIRS": 1,
        "GAME_QS": (10,), "REPLAYS_PER_CONFIG": 1,
        "CHI_DIMS": (1, 2), "CHI_DRAWS": 1000,
        "PATH_HORIZON": 100, "PATH_TRIALS": 100, "AZUMA_HORIZON": 1000,
    }.items():
        monkeypatch.setattr(gen, name, value)
    instances = gen.conjugate_instances()
    monkeypatch.setattr(workloads, "INSTANCES", [instances[0], instances[20], instances[-1]])
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_run_emits_every_metric(tiny, capsys, name, trace):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
