"""Query concentration under further conjugate models.

Counting queries about binomial, geometric, multinomial, and Poisson data
project the parameter prior (Beta, Dirichlet, or Gamma) onto [0,1]-valued
functionals Q: polynomials in p for the discrete-parameter models and
exponential-polynomial functionals of the rate for Poisson. The variance
proxies of these projections appear (numerically) to scale like m/(alpha+beta),
1/alpha, m/sum(alpha), and 1/beta respectively; this module estimates tau^2
by one `weighted_proxy_sup` scan of Q at weighted points of the prior (a Gauss
rule, or equally weighted prior draws) and reports ratios against those scales.
Nothing here proves anything: the scales are implemented literally, with
constants reported, and results are regression evidence only.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .concentration import (
    _MIN_MONTE_CARLO_DRAWS,
    VarianceProxyEstimate,
    _monte_carlo_window,
    empirical_log_mgf,  # noqa: F401  rebound by perfbench/tracing.py
    variance_proxy_sup,  # noqa: F401  rebound by perfbench/tracing.py
    weighted_log_mgf,
    weighted_proxy_sup,
)
from .distributions import (
    BetaParams,
    DirichletParams,
    GammaParams,
    SeedSpec,
    _check_at_least,
    _check_integer,
    _left_sum,
    draw,
)

__all__ = [
    "ExactModeError",
    "ConjugateModelReport",
    "model_q_draws",
    "mc_moments",
    "conjectured_scale",
    "evaluate_model",
]

# The prior family each model's query is projected from.
_PRIOR_FAMILY = {
    "beta_binomial": BetaParams,
    "geometric": BetaParams,
    "multinomial": DirichletParams,
    "poisson_gamma": GammaParams,
}

# Gauss rule size: nodes per coordinate (64 missed a default `conjectures`
# instance by 2.2e-6 relative), and in all, so Dir(k=3) gets 128^2, k=4 32^3.
# `_query_values` evaluates Q on at most _MAX_RULE_NODES points at a time.
_RULE_NODES = 128
_MAX_RULE_NODES = 2**15
# Exact mode refuses a tau^2 whose ratio at the argmax moves by more than
# this on a rule with twice the nodes per coordinate (2^(k-1) times the
# points in all for a Dirichlet prior).
_RULE_AGREEMENT = 1e-8
# A query whose values spread by at most this is constant: by Hoeffding's
# lemma its tau^2 is at most spread^2 / 4 <= 2.5e-25, reported as 0.
_CONSTANT_SPREAD = 1e-12


class ExactModeError(ValueError):
    """Exact mode refused the instance; Monte Carlo mode still answers it.

    Raised when a Dirichlet prior has k > 4, and when the Gauss rule does not
    resolve e^(lam Q) at the argmax (`_check_rule_resolves`).
    """


@dataclass(frozen=True)
class ConjugateModelReport:
    model: str
    params: dict
    subset_desc: str
    tau2_est: float
    scale: float
    ratio: float
    method: str  # "exact" | "monte_carlo"
    estimate: VarianceProxyEstimate


# ---------------------------------------------------------------------------
# Query functionals
# ---------------------------------------------------------------------------


def _outcome_counts(subset: Iterable[int]) -> list[int]:
    counts = sorted(set(_check_integer("outcome", c) for c in subset))
    if not counts or counts[0] < 0:
        raise ValueError("subset must be a nonempty set of nonnegative integers")
    return counts


def _check_count_vectors(subset, m: int, k: int) -> list[tuple[int, ...]]:
    vectors = sorted(set(tuple(_check_integer("count", v) for v in x) for x in subset))
    if not vectors:
        raise ValueError("subset must be a nonempty set of count vectors")
    for x in vectors:
        if len(x) != k or any(v < 0 for v in x) or sum(x) != m:
            raise ValueError(
                f"count vector {x!r} is not a length-{k} composition of {m}"
            )
    return vectors


# ---------------------------------------------------------------------------
# Q at weighted points: a Gauss rule of the prior, or prior draws
# ---------------------------------------------------------------------------


def _query_values(model: str, subset, m: int | None, points: np.ndarray) -> np.ndarray:
    """Q at parameter points, by `_query_block` calls on at most _MAX_RULE_NODES points each."""
    starts = range(0, max(len(points), 1), _MAX_RULE_NODES)  # no points: one validating call
    return np.concatenate([_query_block(model, subset, m, points[i : i + _MAX_RULE_NODES])
                           for i in starts])


def _query_block(model: str, subset, m: int | None, points: np.ndarray) -> np.ndarray:
    """Q at parameter points: p for Beta, rows of p for Dirichlet, rates for Gamma.

    Q sums its nonnegative terms, each formed in log space, so no size cap
    applies; Q expanded into powers of p would lose ~2^degree * eps near p = 1.
    The logs are taken once per point by numpy (log p and log1p(-p), log p_i,
    or the log rate), and each term is one 1-D exp of its log coefficient
    (`math.lgamma`) plus each count times its log. A count of 0 contributes
    0 even where its log is -inf: Q is the pmf at a zero probability too, which a
    Dirichlet draw has where a Gamma variate underflows. ``sum`` adds the
    terms left to right, which is numpy's ``.sum(axis=1)`` of them for up to
    7 terms, exactly; past that numpy pairs them 8 ways, and the two sums may
    differ by a few ulps. An empty subset is refused with ValueError.
    """
    if model in ("beta_binomial", "geometric"):
        counts = _outcome_counts(subset)
        with np.errstate(divide="ignore"):
            log_p, log_q = np.log(points), np.log1p(-points)
        if model == "geometric":  # p (1-p)^c
            return sum(np.exp(log_p + _times(c, log_q)) for c in counts)
        if counts[-1] > m:
            raise ValueError("subset entries must lie in 0..m")
        return sum(
            np.exp(_log_multinomial(m, (c, m - c)) + _times(c, log_p) + _times(m - c, log_q))
            for c in counts
        )
    if model == "multinomial":
        vectors = _check_count_vectors(subset, m, points.shape[1])
        with np.errstate(divide="ignore"):
            logs = np.log(points).T
        return sum(
            np.exp(sum(_times(x_i, log_i) for x_i, log_i in zip(x, logs)) + _log_multinomial(m, x))
            for x in vectors
        )
    if model == "poisson_gamma":
        counts = _outcome_counts(subset)
        with np.errstate(divide="ignore"):
            log_rate = np.log(points)
        return sum(np.exp(_times(c, log_rate) - points - math.lgamma(c + 1.0)) for c in counts)
    raise ValueError(f"unknown model {model!r}")


def _times(count: int, log: np.ndarray) -> np.ndarray | float:
    """count * log, and 0 at count 0 even where log is -inf (a zero probability or rate)."""
    return count * log if count else 0.0


def _log_multinomial(m: int, counts) -> float:
    """ln of the multinomial coefficient m! / prod(c_i!), by `math.lgamma`, the factorials
    subtracted left to right."""
    out = math.lgamma(m + 1.0)
    for c in counts:
        out -= math.lgamma(c + 1.0)
    return out


def _gauss_rule(diag: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule of a probability law from its Jacobi matrix (orthonormal recurrence).

    Nodes are the eigenvalues (Golub-Welsch), by numpy's `eigvalsh` of the
    dense matrix (a few ms at 256 nodes; the rules are cached, and numpy's
    linalg is loaded with numpy); weights are 1 / sum_k p_k(x)^2
    over the orthonormal polynomials, which, unlike squared eigenvector
    components, keeps tail weights accurate. No normalising constant is
    formed, so none overflows; a node whose sum overflows gets weight 0.
    """
    nodes = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    prev, cur, total = np.zeros_like(nodes), np.ones_like(nodes), np.ones_like(nodes)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(len(off)):
            back = off[k - 1] * prev if k else 0.0
            prev, cur = cur, ((nodes - diag[k]) * cur - back) / off[k]
            total += cur * cur
    return nodes, np.where(np.isfinite(total), 1.0 / total, 0.0)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for array in arrays:
        array.setflags(write=False)
    return arrays


# The 1-D rules are cached (a few KB each): `conjectures` scans each prior
# several times, and every exact-mode estimate also builds the doubled rule.
@lru_cache(maxsize=64)
def _beta_rule(alpha: float, beta: float, nodes: int) -> tuple:
    """Gauss rule of Beta(alpha, beta): (p, 1 - p, weights), read-only, from the Jacobi
    recurrence in t = 2p - 1, weight (1-t)^a (1+t)^b with a = beta - 1, b = alpha - 1."""
    a, b = beta - 1.0, alpha - 1.0
    k = np.arange(1, nodes, dtype=float)
    s = 2.0 * k + a + b  # >= alpha + beta > 0
    diag = np.concatenate([[(b - a) / (a + b + 2.0)], (b - a) * (b + a) / (s * (s + 2.0))])
    # (k + a + b) / (s - 1) is 1 at k = 1, where both vanish when a + b = -1
    ratio = np.concatenate([[1.0], (k[1:] + a + b) / (s[1:] - 1.0)])
    off = 2.0 / s * np.sqrt(k * (k + a) * (k + b) / (s + 1.0) * ratio)
    t, weights = _gauss_rule(diag, off)
    return _read_only(0.5 * (1.0 + t), 0.5 * (1.0 - t), weights)


@lru_cache(maxsize=64)
def _gamma_rule(alpha: float, nodes: int) -> tuple:
    """Generalized Gauss-Laguerre rule (x, weights), read-only: weight x^(alpha-1) e^-x."""
    k = np.arange(nodes, dtype=float)
    off = np.sqrt(k[1:] * (k[1:] + alpha - 1.0))
    return _read_only(*_gauss_rule(2.0 * k + alpha, off))


def _prior_rule(
    prior: BetaParams | DirichletParams | GammaParams, refine: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule (points, weights) of the prior, weights summing to 1.

    Points are p for Beta, rates for Gamma (generalized Gauss-Laguerre in
    beta * rate) and (N, k) probability rows for a Dirichlet, built from
    independent stick-breaking coordinates u_i ~ Beta(alpha_i, sum_{j>i}
    alpha_j) with p_i = u_i prod_{j<i} (1 - u_j). ``refine`` multiplies the
    nodes per coordinate.
    """
    if isinstance(prior, BetaParams):
        points, _, weights = _beta_rule(prior.alpha, prior.beta, refine * _RULE_NODES)
    elif isinstance(prior, GammaParams):
        x, weights = _gamma_rule(prior.alpha, refine * _RULE_NODES)
        points = x / prior.beta
    elif prior.k > 4:
        raise ExactModeError(f"exact mode needs k <= 4, got k={prior.k}; use Monte Carlo")
    else:
        dims = prior.k - 1
        nodes = refine * min(_RULE_NODES, int(_MAX_RULE_NODES ** (1.0 / dims) + 1e-9))
        # columns p_1 .. p_i, then the stick left over
        points, weights = np.ones((1, 1)), np.ones(1)
        for i in range(dims):
            u, rest, w = _beta_rule(prior.alphas[i], _left_sum(prior.alphas[i + 1 :]), nodes)
            stick = points[:, -1:]
            head = np.repeat(points[:, :-1], nodes, axis=0)
            points = np.column_stack([head, (stick * u).ravel(), (stick * rest).ravel()])
            weights = np.outer(weights, w).ravel()
    return points, weights / weights.sum()


def model_q_draws(
    model: str,
    prior: BetaParams | DirichletParams | GammaParams,
    subset,
    *,
    m: int | None = None,
    draws: int,
    seed: SeedSpec,
) -> np.ndarray:
    """Monte Carlo draws of the query functional Q under the parameter prior.

    ``draws`` is an integer >= 0; a float or a bool is refused with ValueError.
    """
    m = _check_model(model, prior, m)
    draws = _check_at_least("draws", draws, 0)
    return _query_values(model, subset, m, draw(prior, seed.generator(), draws))


def _check_model(model: str, prior, m) -> int | None:
    """``m`` once the model, the prior's family and m (an int >= 1 for the
    binomial and multinomial queries, None for the others) are checked."""
    family = _PRIOR_FAMILY.get(model)
    if family is None:
        raise ValueError(f"unknown model {model!r}")
    if not isinstance(prior, family):
        raise ValueError(
            f"model {model!r} needs a {family.__name__} prior, got {type(prior).__name__}"
        )
    if model in ("geometric", "poisson_gamma"):
        if m is not None:
            raise ValueError(f"model {model!r} takes no trial count m, got {m!r}")
        return None
    return _check_at_least("m", m, 1)


def mc_moments(q_draws: np.ndarray, j_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Empirical raw moments of Q, j = 0..j_max, and their standard errors: two 1-D arrays.

    The moments are the means of Q^j (1 at j = 0) and the errors the
    standard deviations of Q^j over sqrt(draws) (0 at j = 0).
    """
    q = np.asarray(q_draws, dtype=float)
    n = q.size
    values = [1.0]
    errors = [0.0]
    power = np.ones_like(q)
    for _ in range(j_max):
        power = power * q
        values.append(float(power.mean()))
        errors.append(float(power.std(ddof=1) / math.sqrt(n)))
    return np.array(values), np.array(errors)


def conjectured_scale(
    model: str, prior: BetaParams | DirichletParams | GammaParams, m: int | None
) -> float:
    """The conjectured variance-proxy scale, implemented literally (constants reported
    separately), of a model, prior and m that `_check_model` accepts."""
    m = _check_model(model, prior, m)
    if model == "geometric":
        return 1.0 / prior.alpha
    if model == "poisson_gamma":
        return 1.0 / prior.beta
    return m / prior.total


def _check_rule_resolves(model, prior, subset, m, estimate: VarianceProxyEstimate) -> None:
    """Raise ExactModeError unless a rule with twice the nodes per coordinate
    agrees with the estimate's ratio at its argmax to _RULE_AGREEMENT."""
    points, weights = _prior_rule(prior, refine=2)
    log_mgf = weighted_log_mgf(_query_values(model, subset, m, points), weights)[0]
    lam = estimate.argmax_lambda
    moved = abs(2.0 * log_mgf(lam) / (lam * lam) / estimate.value - 1.0)
    if moved > _RULE_AGREEMENT:
        raise ExactModeError(
            f"the Gauss rule does not resolve e^(lambda Q) at lambda = {lam:.6g}: "
            f"the ratio moves {moved:.3g} relative with twice the nodes; use Monte Carlo"
        )


def evaluate_model(
    model: str,
    prior: BetaParams | DirichletParams | GammaParams,
    subset,
    *,
    m: int | None = None,
    method: str = "exact",
    j_max: int = 16,
    draws: int = 10**6,
    seed: SeedSpec | None = None,
) -> ConjugateModelReport:
    """Estimate tau^2 of a projected conjugate-model query and compare to its scale.

    Both modes evaluate Q at weighted points and make one `weighted_proxy_sup`
    scan of 2 ln E[e^(lam (Q - E Q))] / lam^2 to min(cap, 2 max|Q - E Q| / Var Q).
    Exact mode (the default) takes the prior's Gauss rule (`_prior_rule`;
    Dirichlet priors need k <= 4) and no cap; it raises ExactModeError when a
    rule with twice the nodes per coordinate moves the ratio at the argmax by
    more than 1e-8 relative. Monte Carlo mode takes ``draws`` prior draws, an
    integer >= 100 (`_MIN_MONTE_CARLO_DRAWS`; in exact mode any integer), from
    ``seed``, weights 1/draws and the cap ln(1e6/sqrt(draws)). A Q
    spreading by at most 1e-12 reports tau^2 = 0 unscanned (Hoeffding bounds
    it by 2.5e-25). The prior must be of the model's family and the subset
    a nonempty set of integer outcomes (count vectors for the multinomial).
    ``m`` is an integer >= 1 for the binomial and multinomial models and None
    for the others. ``j_max`` is unused; `perfbench/workloads.py` still passes it.
    """
    m = _check_model(model, prior, m)
    draws = _check_integer("draws", draws)
    if method == "monte_carlo":
        draws = _check_at_least("draws", draws, _MIN_MONTE_CARLO_DRAWS)
    scale = conjectured_scale(model, prior, m)

    if method == "exact":
        points, weights = _prior_rule(prior)
        q, cap = _query_values(model, subset, m, points), math.inf
    elif method == "monte_carlo":
        q = model_q_draws(model, prior, subset, m=m, draws=draws, seed=seed or SeedSpec(0))
        weights, cap = np.full(draws, 1.0 / draws), _monte_carlo_window(draws)
    else:
        raise ValueError(f"unknown method {method!r}")
    if q.max() - q.min() <= _CONSTANT_SPREAD:
        estimate = VarianceProxyEstimate(0.0, 0.0, "constant query: no lambda scan", 0)
    else:
        estimate = weighted_proxy_sup(q, weights, cap)
        if method == "exact":
            _check_rule_resolves(model, prior, subset, m, estimate)

    subset_desc = ",".join(str(s) for s in sorted(subset))
    return ConjugateModelReport(
        model=model,
        params=asdict(prior) | ({"m": m} if m is not None else {}),
        subset_desc=subset_desc,
        tau2_est=estimate.value,
        scale=scale,
        ratio=estimate.value / scale,
        method=method,
        estimate=estimate,
    )
