"""Two-player curator/analyst query game under a shared Dirichlet prior.

A true categorical parameter is drawn from the prior, the curator receives n
samples, and the analyst then asks q counting queries (the total probability
of a subset of the categories), choosing each query after seeing every
previous answer. The curator wins a round when its answer
is within epsilon of the population value; it wins the game when every round
is. Analysts see the prior, n, q, and all previous answers, never the data
or the true parameter.

Games are played on two paths. ``run_games`` is the batch path: it plays
many independent trials in lockstep, one round of every trial per step as a
few (trials, k) array operations, and returns each trial's largest error;
``estimate_failure_rate`` and the ``game`` CLI subcommand use it.
``run_game`` is the transcript path: it plays one trial through the analyst
and curator objects and can record every round. Both give bit-identical
``max_error`` for the same (config, seed), and the tests hold them to that.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

from .distributions import BetaParams, DirichletParams, SeedSpec, draw

__all__ = [
    "DegenerateQueryError",
    "QuerySpec",
    "GameConfig",
    "RoundRecord",
    "GameTranscript",
    "FailureRateEstimate",
    "ANALYST_KINDS",
    "CURATOR_KINDS",
    "sample_instance",
    "project_to_beta",
    "make_analyst",
    "make_curator",
    "run_game",
    "run_games",
    "required_n",
    "estimate_failure_rate",
    "wilson_interval",
]

ANALYST_KINDS = ("static_random", "variance_maximizer", "adaptive_correlator")
CURATOR_KINDS = ("posterior_mean", "empirical_mean", "sample_split")


class DegenerateQueryError(ValueError):
    """Raised for empty or full counting queries, whose answer is always 0 or 1."""


@dataclass(frozen=True)
class QuerySpec:
    """A counting query: the total probability of a subset of the categories."""

    subset: frozenset[int]
    indices: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        subset = frozenset(int(i) for i in self.subset)
        if any(i < 0 for i in subset):
            raise ValueError("category indices must be nonnegative")
        object.__setattr__(self, "subset", subset)
        object.__setattr__(self, "indices", tuple(sorted(subset)))

    @classmethod
    def counting(cls, subset: Sequence[int] | frozenset[int]) -> "QuerySpec":
        return cls(subset=frozenset(subset))

    def as_weights(self, k: int) -> np.ndarray:
        """The query's 0/1 indicator vector over k categories."""
        if self.indices and self.indices[-1] >= k:
            raise ValueError("subset contains an out-of-range category")
        w = np.zeros(k)
        w[list(self.indices)] = 1.0
        return w


@dataclass(frozen=True)
class GameConfig:
    k: int
    prior: DirichletParams
    n: int
    q: int
    epsilon: float
    delta: float
    analyst: str = "static_random"
    curator: str = "posterior_mean"

    def __post_init__(self) -> None:
        if self.prior.k != self.k:
            raise ValueError("prior dimension must equal k")
        if self.n < 0 or self.q < 1:
            raise ValueError("need n >= 0 and q >= 1")
        if not (0.0 < self.epsilon < 1.0 or self.epsilon == 1.0):
            raise ValueError("epsilon must lie in (0, 1]")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.analyst not in ANALYST_KINDS:
            raise ValueError(f"unknown analyst {self.analyst!r}")
        if self.curator not in CURATOR_KINDS:
            raise ValueError(f"unknown curator {self.curator!r}")

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "prior": self.prior.to_json(),
            "n": self.n,
            "q": self.q,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "analyst": self.analyst,
            "curator": self.curator,
        }


@dataclass(frozen=True)
class RoundRecord:
    query: QuerySpec
    answer: float
    truth: float
    error: float


@dataclass(frozen=True)
class GameTranscript:
    true_p: np.ndarray
    rounds: tuple[RoundRecord, ...]
    max_error: float
    win: bool
    n_rounds: int


@dataclass(frozen=True)
class FailureRateEstimate:
    rate: float
    wilson_low: float
    wilson_high: float
    failures: int
    trials: int


# ---------------------------------------------------------------------------
# Instance sampling and projection
# ---------------------------------------------------------------------------


def _sample_instance(
    rng: np.random.Generator, prior: DirichletParams, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (true_p, counts, sample sequence) for one game instance."""
    true_p = draw(prior, rng, 1)[0]
    samples = draw(true_p, rng, n) if n > 0 else np.empty(0, dtype=int)
    counts = np.bincount(samples, minlength=prior.k).astype(int)
    return true_p, counts, samples


def sample_instance(
    prior: DirichletParams, n: int, seed: SeedSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Draw true_p from the prior and n categorical samples, returned as counts."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    true_p, counts, _ = _sample_instance(seed.generator(), prior, n)
    return true_p, counts


def project_to_beta(d: DirichletParams, subset: Sequence[int] | frozenset[int]) -> BetaParams:
    """Law of sum_{i in S} p_i under Dir(d): Beta(sum_S alpha_i, sum_rest alpha_i).

    The projected variance proxy is therefore at most 1/(4A+2) with
    A = sum_i alpha_i, uniformly over counting queries. Empty and full
    subsets are rejected: their dot product is identically 0 or 1.
    """
    subset = frozenset(int(i) for i in subset)
    if not subset or not subset < set(range(d.k)):
        raise DegenerateQueryError(
            "projection needs a nonempty proper subset of the categories"
        )
    inside = sum(d.alphas[i] for i in subset)
    return BetaParams(inside, d.total - inside)


# ---------------------------------------------------------------------------
# Analysts
# ---------------------------------------------------------------------------


class Analyst(Protocol):
    def next_query(self) -> QuerySpec: ...
    def observe(self, query: QuerySpec, answer: float) -> None: ...


class StaticRandomAnalyst:
    """All q queries drawn upfront: uniformly random nonempty proper subsets."""

    def __init__(self, k: int, q: int, rng: np.random.Generator):
        self._queries = []
        for _ in range(q):
            while True:
                mask = rng.random(k) < 0.5
                if mask.any() and not mask.all():
                    break
            self._queries.append(QuerySpec.counting(np.nonzero(mask)[0]))
        self._cursor = 0

    def next_query(self) -> QuerySpec:
        query = self._queries[self._cursor]
        self._cursor += 1
        return query

    def observe(self, query: QuerySpec, answer: float) -> None:
        pass


def _balanced_subset(prior: DirichletParams, n: int) -> list[int]:
    """The ``VarianceMaximizerAnalyst`` subset, in the order it was packed."""
    alphas = np.asarray(prior.alphas)
    weights = alphas * (1.0 + n / prior.total)
    target = weights.sum() / 2.0
    order = sorted(range(prior.k), key=lambda i: (-weights[i], i))
    chosen, mass = [], 0.0
    for i in order:
        if mass + weights[i] <= target * (1.0 + 1e-12):
            chosen.append(i)
            mass += weights[i]
    if not chosen:  # one category dominates; take everything else
        chosen = order[1:]
    return chosen


class VarianceMaximizerAnalyst:
    """Greedy subset balancing expected posterior mass toward half the total.

    Weights alpha_i + n*alpha_i/A (prior-expected posterior parameters) are
    packed greedily toward (A+n)/2, largest weight first with ties broken by
    lowest index; a balanced split maximizes the projected Beta variance.
    The data is never seen, so the query is the same every round.
    """

    def __init__(self, k: int, prior: DirichletParams, n: int):
        self._query = QuerySpec.counting(_balanced_subset(prior, n))

    def next_query(self) -> QuerySpec:
        return self._query

    def observe(self, query: QuerySpec, answer: float) -> None:
        pass


class AdaptiveCorrelatorAnalyst:
    """Probe singletons, then chase the categories deviating most from the prior.

    Rounds 0..k-1 probe the singletons {0}, ..., {k-1}, recording per-category
    deviation scores answer - prior_mean. Afterwards each round queries the
    top half of categories by score (ties to the lowest index); every answer
    redistributes its residual against the scored expectation back onto the
    queried categories, so the scores keep tracking the posterior.
    """

    def __init__(self, k: int, prior: DirichletParams, n: int):
        self._k = k
        self._prior_mean = [a / prior.total for a in prior.alphas]
        self._scores = [0.0] * k
        self._round = 0

    def next_query(self) -> QuerySpec:
        if self._round < self._k:
            return QuerySpec.counting((self._round,))
        half = max(1, self._k // 2)
        order = sorted(range(self._k), key=lambda i: (-self._scores[i], i))
        return QuerySpec.counting(order[:half])

    def observe(self, query: QuerySpec, answer: float) -> None:
        idx = query.indices
        if self._round < self._k and len(idx) == 1:
            i = idx[0]
            self._scores[i] = answer - self._prior_mean[i]
        else:
            expected = sum(self._prior_mean[i] + self._scores[i] for i in idx)
            share = (answer - expected) / len(idx)
            for i in idx:
                self._scores[i] += share
        self._round += 1


def make_analyst(kind: str, config: GameConfig, rng: np.random.Generator) -> Analyst:
    if kind == "static_random":
        return StaticRandomAnalyst(config.k, config.q, rng)
    if kind == "variance_maximizer":
        return VarianceMaximizerAnalyst(config.k, config.prior, config.n)
    if kind == "adaptive_correlator":
        return AdaptiveCorrelatorAnalyst(config.k, config.prior, config.n)
    raise ValueError(f"unknown analyst {kind!r}")


# ---------------------------------------------------------------------------
# Curators
# ---------------------------------------------------------------------------


class FixedMeanCurator:
    """Answers every query by its value on one fixed mean vector."""

    def __init__(self, mean: np.ndarray):
        self._mean = mean.tolist()

    def answer(self, query: QuerySpec) -> float:
        mean = self._mean
        return sum(mean[i] for i in query.indices)


def _mean_curator(kind: str, prior: DirichletParams, counts) -> FixedMeanCurator:
    """The posterior-mean or empirical-mean curator of the given counts."""
    counts = np.asarray(counts, dtype=float)
    if kind == "posterior_mean":
        post = np.asarray(prior.alphas) + counts
        return FixedMeanCurator(post / post.sum())
    n = int(np.sum(counts))
    if n == 0:
        raise ValueError("the empirical-mean curator cannot answer with no data")
    return FixedMeanCurator(counts / n)


class SampleSplitCurator:
    """Fresh data fold per query: q equal folds, the last absorbing the remainder."""

    def __init__(self, k: int, samples: np.ndarray, q: int):
        n = len(samples)
        size = n // q
        self._folds = [samples[j * size : (j + 1) * size] for j in range(q - 1)]
        self._folds.append(samples[(q - 1) * size :])
        self._k = k
        self._cursor = 0

    def answer(self, query: QuerySpec) -> float:
        if self._cursor >= len(self._folds):
            raise ValueError("sample-split folds exhausted")
        fold = self._folds[self._cursor]
        self._cursor += 1
        if len(fold) == 0:
            raise ValueError("sample-split fold is empty (need n >= q)")
        w = query.as_weights(self._k)
        return float(w[fold].mean())


def make_curator(config: GameConfig, counts: np.ndarray, samples: np.ndarray):
    if config.curator in ("posterior_mean", "empirical_mean"):
        return _mean_curator(config.curator, config.prior, counts)
    if config.curator == "sample_split":
        return SampleSplitCurator(config.k, samples, config.q)
    raise ValueError(f"unknown curator {config.curator!r}")


# ---------------------------------------------------------------------------
# Game driver
# ---------------------------------------------------------------------------


def run_game(config: GameConfig, seed: SeedSpec, *, record_rounds: bool = True) -> GameTranscript:
    """Play q rounds and record answers against the population truth.

    The truth for a query is its value on the drawn true parameter, not on
    the sample. Deterministic given (config, seed).
    """
    _check_enough_data(config)
    rng = seed.generator()
    true_p, counts, samples = _sample_instance(rng, config.prior, config.n)
    curator = make_curator(config, counts, samples)
    analyst = make_analyst(config.analyst, config, rng)

    true_list = true_p.tolist()
    rounds: list[RoundRecord] = []
    max_error = 0.0
    for _ in range(config.q):
        query = analyst.next_query()
        answer = curator.answer(query)
        truth = sum(true_list[i] for i in query.indices)
        error = abs(answer - truth)
        if error > max_error:
            max_error = error
        analyst.observe(query, answer)
        if record_rounds:
            rounds.append(RoundRecord(query=query, answer=answer, truth=truth, error=error))

    return GameTranscript(
        true_p=true_p,
        rounds=tuple(rounds),
        max_error=max_error,
        win=max_error <= config.epsilon,
        n_rounds=config.q,
    )


# Trials played together by ``run_games``: bounds the (trials, n) samples and
# (trials, q, k) static masks held at once, whatever the trial count.
_TRIAL_BLOCK = 1024


def _check_enough_data(config: GameConfig) -> None:
    """Raise the curator's own error for data it could never answer from."""
    if config.curator == "empirical_mean" and config.n == 0:
        raise ValueError("the empirical-mean curator cannot answer with no data")
    if config.curator == "sample_split" and config.n < config.q:
        raise ValueError("sample-split fold is empty (need n >= q)")


def _random_masks(rng: np.random.Generator, k: int, q: int) -> np.ndarray:
    """The static-random analyst's q subsets as a (q, k) mask, drawn in row blocks.

    ``rng.random((rows, k))`` yields the same numbers as ``rows`` calls of
    ``rng.random(k)``, so keeping the accepted rows in order reproduces
    ``StaticRandomAnalyst``. Rows drawn past the q-th accepted one are
    discarded; nothing draws from the generator after the analyst.
    """
    accept = 1.0 - 2.0 ** (1 - k)
    blocks, found = [], 0
    while found < q:
        rows = rng.random((int((q - found) / accept) + 8, k)) < 0.5
        size = rows.sum(axis=1)
        rows = rows[(size > 0) & (size < k)]
        blocks.append(rows)
        found += len(rows)
    return np.concatenate(blocks)[:q]


def _masked_sums(mask: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Row sums of ``values`` over ``mask``, added left to right.

    A sequential cumsum matches Python's ``sum`` over sorted indices bit for
    bit; a pairwise ``.sum`` would not.
    """
    return np.cumsum(np.where(mask, values, 0.0), axis=1)[:, -1]


def _play_block(config: GameConfig, seeds: Sequence[SeedSpec]) -> np.ndarray:
    """Largest round error of one game per seed, all played round by round together."""
    k, q, n = config.k, config.q, config.n
    static = config.analyst == "static_random"
    adaptive = config.analyst == "adaptive_correlator"
    split = config.curator == "sample_split"
    true_p, counts, samples, masks = [], [], [], []
    for spec in seeds:
        rng = spec.generator()
        p, c, x = _sample_instance(rng, config.prior, n)
        true_p.append(p)
        counts.append(c)
        if split:
            samples.append(x)
        if static:
            masks.append(_random_masks(rng, k, q))
    true_p = np.array(true_p)
    trials = len(seeds)

    if config.curator == "posterior_mean":
        post = np.asarray(config.prior.alphas) + np.array(counts, dtype=float)
        answers = post / post.sum(axis=1, keepdims=True)
    elif config.curator == "empirical_mean":
        answers = np.array(counts, dtype=float) / n
    else:
        samples = np.array(samples)
        size = n // q
    if static:
        masks = np.array(masks)
    elif adaptive:
        prior_mean = np.asarray(config.prior.alphas) / config.prior.total
        scores = np.zeros((trials, k))
        half = max(1, k // 2)
        rows = np.arange(trials)[:, None]
    else:
        fixed = np.zeros(k, dtype=bool)
        fixed[_balanced_subset(config.prior, n)] = True
        fixed = np.broadcast_to(fixed, (trials, k))

    max_error = np.zeros(trials)
    for r in range(q):
        if static:
            mask = masks[:, r]
        elif not adaptive:
            mask = fixed
        elif r < k:  # probe the singleton {r}
            mask = np.broadcast_to(np.arange(k) == r, (trials, k))
        else:  # the top half by score, ties to the lowest index
            mask = np.zeros((trials, k), dtype=bool)
            mask[rows, np.argsort(-scores, axis=1, kind="stable")[:, :half]] = True
        if split:
            fold = samples[:, r * size : (r + 1) * size if r < q - 1 else n]
            answer = np.take_along_axis(mask, fold, axis=1).mean(axis=1)
        else:
            answer = _masked_sums(mask, answers)
        error = np.abs(answer - _masked_sums(mask, true_p))
        np.maximum(max_error, error, out=max_error)
        if adaptive and r < k:
            scores[:, r] = answer - prior_mean[r]
        elif adaptive:
            share = (answer - _masked_sums(mask, prior_mean + scores)) / half
            scores = np.where(mask, scores + share[:, None], scores)
    return max_error


def run_games(config: GameConfig, trials: int, seed: SeedSpec) -> np.ndarray:
    """Largest round error of each of ``trials`` games, played in lockstep.

    RNG contract: trial t uses ``seed.derived(t).generator()`` alone. Its
    instance (true parameter, then the n samples) is drawn first, then the
    analyst's draws (the static-random masks, drawn in blocks whose rows past
    the q-th accepted one are never used). Entry t therefore equals
    ``run_game(config, seed.derived(t)).max_error`` exactly. Raises
    ``ValueError`` before drawing anything when the curator cannot answer
    from n samples (empirical mean with n = 0, sample split with n < q).
    """
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    _check_enough_data(config)
    max_error = np.empty(trials)
    for start in range(0, trials, _TRIAL_BLOCK):
        stop = min(start + _TRIAL_BLOCK, trials)
        max_error[start:stop] = _play_block(config, [seed.derived(t) for t in range(start, stop)])
    return max_error


def required_n(epsilon: float, delta: float, q: int, prior_mass: float) -> int:
    """Smallest n with 2*exp(-eps^2 (2(A+n)+1)) <= delta/q (A = prior mass).

    The left side is the per-query subgaussian tail at variance proxy
    1/(4(A+n)+2); a union bound over q queries then gives total failure
    probability delta. Found by monotone search, avoiding closed-form
    off-by-one.
    """
    if epsilon <= 0 or delta <= 0 or delta >= 1 or q < 1 or prior_mass <= 0:
        raise ValueError("need epsilon > 0, 0 < delta < 1, q >= 1, prior_mass > 0")
    threshold = delta / q

    def ok(n: int) -> bool:
        exponent = -epsilon * epsilon * (2.0 * (prior_mass + n) + 1.0)
        return 2.0 * math.exp(exponent) <= threshold

    if ok(0):
        return 0
    hi = 1
    while not ok(hi):
        hi *= 2
        if hi > 2**40:
            raise OverflowError("required n exceeds 2^40; check epsilon and delta")
    lo = hi // 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """95% (by default) Wilson score interval for a binomial proportion."""
    if trials < 1 or not 0 <= successes <= trials:
        raise ValueError("need 0 <= successes <= trials with trials >= 1")
    p_hat = successes / trials
    z2 = z * z
    center = (p_hat + z2 / (2 * trials)) / (1 + z2 / trials)
    half = (
        z
        * math.sqrt(p_hat * (1 - p_hat) / trials + z2 / (4 * trials * trials))
        / (1 + z2 / trials)
    )
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return (low, high)


def estimate_failure_rate(
    config: GameConfig, trials: int, seed: SeedSpec
) -> FailureRateEstimate:
    """Fraction of lost games over independent derived seed streams, with Wilson 95% CI.

    The games are ``run_games(config, trials, seed)``: trial t draws its
    instance and then its analyst's queries from ``seed.derived(t)`` alone
    (over-drawn static-random mask rows are never used), and loses when its
    largest error exceeds epsilon, exactly as ``run_game(config,
    seed.derived(t))`` would.
    """
    if trials < 100:
        raise ValueError("need at least 100 trials for a meaningful rate estimate")
    failures = int(np.count_nonzero(run_games(config, trials, seed) > config.epsilon))
    low, high = wilson_interval(failures, trials)
    return FailureRateEstimate(
        rate=failures / trials,
        wilson_low=low,
        wilson_high=high,
        failures=failures,
        trials=trials,
    )
