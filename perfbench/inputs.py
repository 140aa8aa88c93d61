"""Seeded input generation for the three benchmark workloads.

Everything here is plain data (floats, tuples, sets); the workloads turn it
into library parameter objects at call time. Equal (seed, pass index) pairs
give equal inputs, and every pass of a run gets fresh inputs, so no pass
reads a cache that an earlier pass filled.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("beta_exact", "query_game", "monte_carlo")

# beta_exact: the paper's 0.1-50 grid, stratified so each pass covers it evenly.
GRID_LO, GRID_HI = 0.1, 50.0
LOGUNIFORM_SIDE = 6  # 6 x 6 jittered cells in (log alpha, log beta)
SYMMETRIC_PAIRS = 8
LARGE_PAIRS = 4
LARGE_TOTAL_LO, LARGE_TOTAL_HI = 1e3, 1e5

# query_game: the CLI's default game (k = 10, uniform prior, eps 0.1, delta 0.05).
GAME_K = 10
GAME_EPSILON = 0.1
GAME_DELTA = 0.05
GAME_QS = (10, 100, 500)
GAME_TRIALS = 100
GAME_ANALYSTS = ("static_random", "variance_maximizer", "adaptive_correlator")
GAME_CURATORS = ("posterior_mean", "empirical_mean", "sample_split")
REPLAYS_PER_CONFIG = 2
_STREAM_STRIDE = 1000  # trial streams of one config never reach the next config's

# monte_carlo
MC_DRAWS = 20_000
MC_J_MAX = 6
CHI_DIMS = tuple(range(1, 21))
CHI_DRAWS = 50_000
PATH_PRIOR = (1.0, 1.0)
PATH_HORIZON = 10_000
PATH_TRIALS = 2_000
AZUMA_TOTALS = (1.0, 2.0, 10.0)
AZUMA_HORIZON = 10**6
# The instance set is the CLI's default `conjectures` set (master seed 0,
# substream 777). It is pinned so that the quadrature reference file covers
# it; the workload seed drives every Monte Carlo stream instead.
INSTANCE_SEED = 0
INSTANCE_SUBSTREAM = 777


def _rng(seed: int, workload: str, pass_index: int) -> np.random.Generator:
    key = (int(seed), WORKLOADS.index(workload), int(pass_index))
    return np.random.default_rng(np.random.SeedSequence(key))


def _jittered_log(rng: np.random.Generator, cells: int, lo: float, hi: float) -> np.ndarray:
    """One log-uniform point in each of ``cells`` equal log-width strata."""
    edges = np.linspace(math.log(lo), math.log(hi), cells + 1)
    return np.exp(edges[:-1] + rng.random(cells) * np.diff(edges))


def beta_pairs(seed: int, pass_index: int) -> list[tuple[str, float, float]]:
    """(stratum, alpha, beta) triples for one pass of ``beta_exact``.

    The log-uniform and large strata are drawn from (seed, pass index); the
    symmetric stratum is the same log-spaced grid in every pass.
    """
    rng = _rng(seed, "beta_exact", pass_index)
    side = LOGUNIFORM_SIDE
    width = (math.log(GRID_HI) - math.log(GRID_LO)) / side
    pairs = []
    for i in range(side):
        for j in range(side):
            u, v = rng.random(2)
            a = math.exp(math.log(GRID_LO) + (i + u) * width)
            b = math.exp(math.log(GRID_LO) + (j + v) * width)
            pairs.append(("loguniform", a, b))
    # Fixed, not seeded: whether est exceeds Var on Beta(s, s) flips at random
    # with s near 2.2, so seeded values would make the count of known
    # failures depend on the seed.
    for s in np.geomspace(GRID_LO, GRID_HI, SYMMETRIC_PAIRS):
        pairs.append(("symmetric", float(s), float(s)))
    totals = _jittered_log(rng, LARGE_PAIRS, LARGE_TOTAL_LO, LARGE_TOTAL_HI)
    for total, frac in zip(totals, rng.uniform(0.1, 0.9, LARGE_PAIRS)):
        a = float(total * frac)
        pairs.append(("large", a, float(total) - a))
    return pairs


def required_n(epsilon: float, delta: float, q: int, prior_mass: float) -> int:
    """Smallest n with 2 exp(-eps^2 (2(A+n)+1)) <= delta/q, in closed form.

    Written independently of ``game.required_n`` so the oracle can check it.
    """
    need = math.log(2.0 * q / delta) / (epsilon * epsilon)
    return max(0, math.ceil((need - 1.0) / 2.0 - prior_mass - 1e-9))


@dataclass(frozen=True)
class GameCase:
    analyst: str
    curator: str
    q: int
    n: int
    stream_id: int  # trials use stream_id + t, t = 0..GAME_TRIALS-1
    replay_trials: tuple[int, ...]


def game_cases(seed: int, pass_index: int) -> list[GameCase]:
    """Analyst x curator x q configurations for one pass of ``query_game``.

    n is the static sample size for (eps, delta, q); ``sample_split`` needs a
    sample per query, so it runs only where n >= q.
    """
    rng = _rng(seed, "query_game", pass_index)
    cases = []
    for q in GAME_QS:
        n = required_n(GAME_EPSILON, GAME_DELTA, q, float(GAME_K))
        for analyst in GAME_ANALYSTS:
            for curator in GAME_CURATORS:
                if curator == "sample_split" and n < q:
                    continue
                stream = (pass_index * 64 + len(cases) + 1) * _STREAM_STRIDE
                replays = rng.choice(GAME_TRIALS, REPLAYS_PER_CONFIG, replace=False)
                cases.append(
                    GameCase(analyst, curator, q, n, stream, tuple(sorted(int(t) for t in replays)))
                )
    return cases


@dataclass(frozen=True)
class ConjugateInstance:
    model: str
    prior_kind: str  # "beta" | "dirichlet" | "gamma"
    prior: tuple[float, ...]
    subset: tuple
    m: int | None

    @property
    def label(self) -> str:
        return f"{self.model} {self.prior_kind}{self.prior} S={list(self.subset)} m={self.m}"


def _stratified_subsets(rng: np.random.Generator, outcome_range: int) -> list[tuple[int, ...]]:
    """Extremal, balanced and uniformly random subset sizes (the CLI's scheme)."""
    sizes = sorted({1, outcome_range // 2, outcome_range - 1})
    subsets = [
        tuple(sorted(int(v) for v in rng.choice(outcome_range, size=s, replace=False)))
        for s in sizes
        if 0 < s < outcome_range
    ]
    while True:
        mask = rng.random(outcome_range) < 0.5
        if 0 < mask.sum() < outcome_range:
            subsets.append(tuple(int(i) for i in np.nonzero(mask)[0]))
            return subsets


def conjugate_instances() -> list[ConjugateInstance]:
    """The 30 instances of the default `conjectures` sweep."""
    ss = np.random.SeedSequence(INSTANCE_SEED, spawn_key=(0, INSTANCE_SUBSTREAM))
    rng = np.random.default_rng(ss)
    out = []
    for prior in ((1.0, 2.0), (2.0, 2.0), (0.5, 1.5)):
        for subset in _stratified_subsets(rng, 6):  # binomial m=5: outcomes 0..5
            out.append(ConjugateInstance("beta_binomial", "beta", prior, subset, 5))
    for prior in ((2.0, 1.0), (1.0, 1.0)):
        for subset in _stratified_subsets(rng, 6):
            out.append(ConjugateInstance("geometric", "beta", prior, subset, None))
    out.append(ConjugateInstance("multinomial", "dirichlet", (1.0, 1.0, 1.0), ((0, 1, 1), (1, 1, 0)), 2))
    out.append(ConjugateInstance("multinomial", "dirichlet", (2.0, 1.0, 0.5), ((2, 0, 0),), 2))
    for prior in ((2.0, 5.0), (1.0, 1.0)):
        for subset in _stratified_subsets(rng, 6):
            out.append(ConjugateInstance("poisson_gamma", "gamma", prior, subset, None))
    return out


@dataclass(frozen=True)
class MonteCarloPass:
    instance_order: tuple[int, ...]
    mc_seeds: tuple[int, ...]  # master seed per instance, by instance index
    chi_seeds: tuple[int, ...]
    path_seed: int


def monte_carlo_pass(seed: int, pass_index: int, n_instances: int) -> MonteCarloPass:
    rng = _rng(seed, "monte_carlo", pass_index)
    draw = lambda size: tuple(int(v) for v in rng.integers(0, 2**63, size))
    return MonteCarloPass(
        instance_order=tuple(int(i) for i in rng.permutation(n_instances)),
        mc_seeds=draw(n_instances),
        chi_seeds=draw(len(CHI_DIMS)),
        path_seed=draw(1)[0],
    )
