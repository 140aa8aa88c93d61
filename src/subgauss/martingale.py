"""Posterior-mean martingale of a Beta prior under Bernoulli sampling.

After k observations the posterior mean moves by a two-valued, conditionally
mean-zero step whose variance proxy is K(mean)/(alpha'+beta'+1)^2 with
K(p) <= 1/4. Azuma's inequality then telescopes the per-step proxies into the
bound 1/(4(alpha+beta)+2) for the whole trajectory. This module computes the
step proxies, the telescoped totals, path simulations, and, for the
Dirichlet/categorical analogue, how far one sample moves the posterior-mean
answer to a counting query. That answer is the mean of the projected Beta
posterior, which reads the data only through the subset count c_S.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .concentration import beta_proxy_bound, tail_frequencies
from .distributions import (
    BetaParams, DirichletParams, SeedSpec, _check_at_least, _trigamma_difference, draw,
)
from .game import project_to_beta

__all__ = [
    "AzumaTotals",
    "PathSimulationReport",
    "StabilityReport",
    "two_point_variance_proxy",
    "step_variance_proxy",
    "azuma_total",
    "simulate_paths",
    "stability_diagnostics",
]

# the deviations at which `simulate_paths` reports tail frequencies
_TAIL_EPS = (0.1, 0.2, 0.3)
# fewest paths of `simulate_paths`, the fewest with a standard error: martingale --trials
_MIN_PATHS = 2


@dataclass(frozen=True)
class AzumaTotals:
    partial_sum: float
    tail_remainder: float
    theorem_bound: float


@dataclass(frozen=True)
class PathSimulationReport:
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

    max_add_one_change: float
    add_one_bound: float
    max_replace_one_change: float
    replace_one_bound: float
    lipschitz_slope: float
    max_linearity_defect: float


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


def step_variance_proxy(p: BetaParams) -> float:
    """Variance proxy of the next step: K(mean)/(alpha'+beta'+1)^2 <= 1/(4(...)^2)."""
    s = p.total
    return two_point_variance_proxy(p.alpha / s) / ((s + 1.0) ** 2)


def azuma_total(prior: BetaParams, horizon: int = 10**6) -> AzumaTotals:
    """Telescoped step-proxy total against the closed-form trajectory bound.

    partial_sum = sum_{k=1..horizon} 1/(4(s+k)^2), s = alpha+beta, is the
    trigamma difference (psi'(s+1) - psi'(s+horizon+1))/4, formed from the
    horizon by `_trigamma_difference` to ~1e-15 relative, also where horizon
    << s. tail_remainder = 1/(4(s+horizon+1/2)) dominates the
    remaining tail by telescoping, and the grand total never exceeds
    theorem_bound = 1/(4(alpha+beta)+2); `checks.martingale` checks it. ``horizon`` is an integer >= 1.
    """
    horizon = _check_at_least("horizon", horizon, 1)
    s = prior.total
    partial = 0.25 * _trigamma_difference(s + 1.0, float(horizon))
    remainder = 0.25 / (s + horizon + 0.5)
    return AzumaTotals(partial_sum=partial, tail_remainder=remainder,
                       theorem_bound=beta_proxy_bound(prior))


def simulate_paths(
    prior: BetaParams, horizon: int, trials: int, seed: SeedSpec
) -> PathSimulationReport:
    """Monte Carlo posterior-mean trajectories from true parameters drawn off the prior.

    Per trial: draw true_p from the prior, feed Bernoulli(true_p) samples
    through conjugate updates, and track the posterior mean. Only cumulative
    success counts matter for the mean, so the blocks between the nonzero
    checkpoints horizon // 4, horizon // 2 and horizon are drawn binomially;
    the checkpointed path is distributed exactly as the step-by-step one.
    Tail frequencies are reported at each eps in _TAIL_EPS. ``horizon`` is an
    integer >= 0 and ``trials`` one >= 2 (_MIN_PATHS): the standard error of
    the mean total increment needs two paths.
    """
    horizon = _check_at_least("horizon", horizon, 0)
    trials = _check_at_least("trials", trials, _MIN_PATHS)
    rng = seed.generator()
    true_p = draw(prior, rng, trials)
    s0 = prior.total
    x0 = prior.alpha / s0

    checkpoints = sorted({horizon // 4, horizon // 2, horizon} - {0}) or [0]

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
    se_inc = float(total_increment.std(ddof=1) / math.sqrt(trials))

    tail_rows = tail_frequencies(np.abs(total_increment), beta_proxy_bound(prior), _TAIL_EPS,
                                 sides=2)
    return PathSimulationReport(
        mean_total_increment=mean_inc,
        se_total_increment=se_inc,
        tail_rows=tail_rows,
        checkpoint_mean_abs_dev=tuple(checkpoint_dev),
        true_p=true_p,
        final_mean=final_mean,
        deviation=np.abs(final_mean - true_p),
    )


def _subset_answer(alpha_s: float, total: float, counts_s: np.ndarray, n: int) -> np.ndarray:
    return (alpha_s + counts_s) / (total + n)


def stability_diagnostics(
    prior: DirichletParams,
    n: int,
    subset: frozenset[int] | set[int],
) -> StabilityReport:
    """Measure how much one sample can move the posterior-mean answer.

    The counting query over ``subset`` projects the posterior after n samples
    to Beta(alpha_S + c_S, A - alpha_S + n - c_S), whose mean is the answer
    a = (alpha_S + c_S)/(A + n): the subset count c_S is sufficient, so the
    sweep runs over c_S = 0..n. An added sample raises c_S by 0 or 1 at n + 1
    (bound 1/(A+n+1)); a replaced one lowers c_S >= 1 or raises c_S <= n - 1
    by 1 (bound 1/(A+n)). a is linear in the empirical mean c_S/n with slope
    n/(A+n) <= 1; the report gives the largest defect from that line.
    ``n`` is an integer >= 1.
    """
    n = _check_at_least("n", n, 1)
    a_total = prior.total
    alpha_s = project_to_beta(prior, subset).alpha
    c_s = np.arange(n + 1, dtype=float)
    answers = _subset_answer(alpha_s, a_total, c_s, n)

    max_add = max(
        float(np.abs(_subset_answer(alpha_s, a_total, c_s + step, n + 1) - answers).max())
        for step in (0.0, 1.0)
    )
    # a replacement moves c_S to a neighbour in 0..n, exactly (small integers)
    max_replace = float(np.abs(np.diff(answers)).max())

    mu0 = alpha_s / a_total
    linear = (a_total * mu0 + n * (c_s / n)) / (a_total + n)
    return StabilityReport(
        max_add_one_change=max_add,
        add_one_bound=1.0 / (a_total + n + 1.0),
        max_replace_one_change=max_replace,
        replace_one_bound=1.0 / (a_total + n),
        lipschitz_slope=n / (a_total + n),
        max_linearity_defect=float(np.abs(answers - linear).max()),
    )
