"""Posterior-mean martingale of a Beta prior under Bernoulli sampling.

After k observations the posterior mean moves by a two-valued, conditionally
mean-zero step whose variance proxy is K(mean)/(alpha'+beta'+1)^2 with
K(p) <= 1/4. Azuma's inequality then telescopes the per-step proxies into the
bound 1/(4(alpha+beta)+2) for the whole trajectory. This module computes the
exact step law, the telescoped totals, path simulations, and posterior-mean
stability diagnostics for the Dirichlet/categorical analogue.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .distributions import BetaParams, DirichletParams, SeedSpec, draw

__all__ = [
    "StepIncrement",
    "AzumaTotals",
    "PathSimulationReport",
    "StabilityReport",
    "two_point_variance_proxy",
    "step_increment",
    "step_variance_proxy",
    "azuma_total",
    "simulate_paths",
    "stability_diagnostics",
    "compositions",
]


@dataclass(frozen=True)
class StepIncrement:
    """Conditional law of the next posterior-mean move: two values, mean zero."""

    up_value: float
    up_prob: float
    down_value: float
    down_prob: float


@dataclass(frozen=True)
class AzumaTotals:
    partial_sum: float
    tail_remainder: float
    theorem_bound: float


@dataclass(frozen=True)
class PathSimulationReport:
    trials: int
    horizon: int
    prior: BetaParams
    mean_total_increment: float
    se_total_increment: float
    tail_rows: tuple[tuple[float, float, float, float], ...]  # (eps, freq, bound, se)
    checkpoint_mean_abs_dev: tuple[tuple[int, float], ...]
    true_p: np.ndarray
    final_mean: np.ndarray
    deviation: np.ndarray


@dataclass(frozen=True)
class StabilityReport:
    """Observed posterior-mean stability constants for one (prior, n, query)."""

    prior_mass: float
    n: int
    mode: str  # "exhaustive" | "random_probe"
    max_add_one_change: float
    add_one_bound: float
    max_replace_one_change: float
    replace_one_bound: float
    lipschitz_slope: float
    max_linearity_defect: float
    add_one_ok: bool
    replace_one_ok: bool
    lipschitz_ok: bool


def two_point_variance_proxy(p: float) -> float:
    """Exact variance proxy K(p) of a centered two-valued variable.

    K(p) = (2p-1)/(2(ln p - ln(1-p))), with K = 0 at the endpoints and the
    removable value 1/4 at p = 1/2. Near 1/2 the closed form is 0/0, so a
    series is used on |p - 1/2| < 1e-6. K(p) <= 1/4 everywhere.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if p in (0.0, 1.0):
        return 0.0
    t = p - 0.5
    if abs(t) < 1e-6:
        return 0.25 * (1.0 - (4.0 / 3.0) * t * t)
    return (2.0 * p - 1.0) / (2.0 * (math.log(p) - math.log1p(-p)))


def step_increment(p: BetaParams) -> StepIncrement:
    """Law of the posterior-mean change on the next Bernoulli observation.

    With current posterior Beta(a', b'): a success (probability a'/(a'+b'))
    moves the mean up by b'/((a'+b')(a'+b'+1)); a failure moves it down by
    a'/((a'+b')(a'+b'+1)).
    """
    s = p.total
    scale = 1.0 / (s * (s + 1.0))
    return StepIncrement(
        up_value=p.beta * scale,
        up_prob=p.alpha / s,
        down_value=-p.alpha * scale,
        down_prob=p.beta / s,
    )


def step_variance_proxy(p: BetaParams) -> float:
    """Variance proxy of the next step: K(mean)/(alpha'+beta'+1)^2 <= 1/(4(...)^2)."""
    s = p.total
    return two_point_variance_proxy(p.alpha / s) / ((s + 1.0) ** 2)


def azuma_total(prior: BetaParams, horizon: int = 10**6) -> AzumaTotals:
    """Telescoped step-proxy total against the closed-form trajectory bound.

    partial_sum = sum_{k=1..horizon} 1/(4(alpha+beta+k)^2), accumulated from
    the smallest terms up for accuracy; tail_remainder = 1/(4(s+horizon+1/2))
    dominates the remaining tail by telescoping, and the grand total never
    exceeds theorem_bound = 1/(4(alpha+beta)+2).
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    s = prior.total
    k = np.arange(horizon, 0, -1, dtype=float)
    partial = float(np.sum(0.25 / (s + k) ** 2))
    remainder = 0.25 / (s + horizon + 0.5)
    bound = 1.0 / (4.0 * s + 2.0)
    if partial + remainder > bound + 1e-12:
        raise ArithmeticError(
            f"telescoped total {partial + remainder!r} exceeds bound {bound!r}"
        )
    return AzumaTotals(partial_sum=partial, tail_remainder=remainder, theorem_bound=bound)


def simulate_paths(
    prior: BetaParams,
    horizon: int,
    trials: int,
    seed: SeedSpec,
    *,
    eps_grid: tuple[float, ...] = (0.1, 0.2, 0.3),
    checkpoints: tuple[int, ...] | None = None,
) -> PathSimulationReport:
    """Monte Carlo posterior-mean trajectories from true parameters drawn off the prior.

    Per trial: draw true_p from the prior, feed Bernoulli(true_p) samples
    through conjugate updates, and track the posterior mean. Only cumulative
    success counts matter for the mean, so blocks between checkpoints are
    drawn binomially; the checkpointed path is distributed exactly as the
    step-by-step one.
    """
    if horizon < 0 or trials < 1:
        raise ValueError("horizon must be >= 0 and trials >= 1")
    rng = seed.generator()
    true_p = draw(prior, rng, trials)
    s0 = prior.total
    x0 = prior.alpha / s0

    if checkpoints is None:
        checkpoints = tuple(sorted({max(1, horizon // 4), max(1, horizon // 2), horizon}))
    if horizon == 0:
        checkpoints = (0,)

    successes = np.zeros(trials)
    seen = 0
    checkpoint_dev = []
    for h in checkpoints:
        block = h - seen
        if block > 0:
            successes = successes + rng.binomial(block, true_p)
            seen = h
        post_mean = (prior.alpha + successes) / (s0 + seen)
        checkpoint_dev.append((h, float(np.abs(post_mean - true_p).mean())))

    final_mean = (prior.alpha + successes) / (s0 + seen)
    total_increment = final_mean - x0
    mean_inc = float(total_increment.mean())
    se_inc = float(total_increment.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0

    sigma2 = 1.0 / (4.0 * s0 + 2.0)
    tail_rows = []
    for eps in eps_grid:
        freq = float((np.abs(total_increment) >= eps).mean())
        bound = min(1.0, 2.0 * math.exp(-eps * eps / (2.0 * sigma2)))
        se = math.sqrt(max(freq * (1.0 - freq), 1.0 / trials) / trials)
        tail_rows.append((float(eps), freq, bound, se))

    return PathSimulationReport(
        trials=trials,
        horizon=horizon,
        prior=prior,
        mean_total_increment=mean_inc,
        se_total_increment=se_inc,
        tail_rows=tuple(tail_rows),
        checkpoint_mean_abs_dev=tuple(checkpoint_dev),
        true_p=true_p,
        final_mean=final_mean,
        deviation=np.abs(final_mean - true_p),
    )


def compositions(n: int, k: int):
    """All count vectors of length k with nonnegative entries summing to n."""
    if k == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in compositions(n - first, k - 1):
            yield (first,) + rest


def _subset_answer(alpha_s: float, total: float, counts_s: np.ndarray, n: int) -> np.ndarray:
    return (alpha_s + counts_s) / (total + n)


def stability_diagnostics(
    prior: DirichletParams,
    n: int,
    subset: frozenset[int] | set[int],
    *,
    exhaustive_n_limit: int = 12,
    probes: int = 2000,
    seed: SeedSpec | None = None,
) -> StabilityReport:
    """Measure how much one sample can move the posterior-mean answer.

    For the counting query over ``subset`` and answer
    a = (sum_S (alpha_i + c_i)) / (A + n), verifies three stability
    properties: adding a sample changes a by at most 1/(A+n+1), replacing a
    sample changes a by at most 1/(A+n), and a is an exactly linear function
    of the empirical mean with slope n/(A+n) <= 1.

    Datasets are enumerated exhaustively (all count vectors, which suffices by
    exchangeability) when n and k are small; otherwise random datasets are
    probed.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    subset = frozenset(subset)
    if not subset or not subset < set(range(prior.k)):
        raise ValueError("subset must be a nonempty proper subset of the categories")
    a_total = prior.total
    alphas = np.asarray(prior.alphas)
    in_s = np.zeros(prior.k, dtype=bool)
    in_s[list(subset)] = True
    alpha_s = float(alphas[in_s].sum())

    exhaustive = n <= exhaustive_n_limit and prior.k <= 4
    if exhaustive:
        counts = np.array(list(compositions(n, prior.k)), dtype=float)
        mode = "exhaustive"
    else:
        rng = (seed or SeedSpec(0)).generator()
        probs = rng.dirichlet(np.ones(prior.k), size=probes)
        counts = np.array([rng.multinomial(n, q) for q in probs], dtype=float)
        mode = "random_probe"

    counts_s = counts[:, in_s].sum(axis=1)
    answers = _subset_answer(alpha_s, a_total, counts_s, n)

    # Adding one sample of category i: the subset count rises by [i in S].
    max_add = 0.0
    for i in range(prior.k):
        shifted = _subset_answer(alpha_s, a_total, counts_s + float(in_s[i]), n + 1)
        max_add = max(max_add, float(np.abs(shifted - answers).max()))

    # Replacing a sample of category i by category j (only where c_i > 0).
    max_replace = 0.0
    for i in range(prior.k):
        has_i = counts[:, i] > 0
        if not has_i.any():
            continue
        for j in range(prior.k):
            if i == j:
                continue
            delta = float(in_s[j]) - float(in_s[i])
            replaced = _subset_answer(alpha_s, a_total, counts_s[has_i] + delta, n)
            max_replace = max(
                max_replace, float(np.abs(replaced - answers[has_i]).max())
            )

    # Linearity in the empirical mean: a = (A*mu0 + n*e_hat)/(A+n) exactly.
    mu0 = alpha_s / a_total
    e_hat = counts_s / n
    linear = (a_total * mu0 + n * e_hat) / (a_total + n)
    max_defect = float(np.abs(answers - linear).max())
    slope = n / (a_total + n)

    add_bound = 1.0 / (a_total + n + 1.0)
    replace_bound = 1.0 / (a_total + n)
    return StabilityReport(
        prior_mass=a_total,
        n=n,
        mode=mode,
        max_add_one_change=max_add,
        add_one_bound=add_bound,
        max_replace_one_change=max_replace,
        replace_one_bound=replace_bound,
        lipschitz_slope=slope,
        max_linearity_defect=max_defect,
        add_one_ok=max_add <= add_bound + 1e-12,
        replace_one_ok=max_replace <= replace_bound + 1e-12,
        lipschitz_ok=max_defect <= 1e-12 and slope <= 1.0,
    )
