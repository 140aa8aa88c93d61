"""Two-player curator/analyst query game under a shared Dirichlet prior.

A true categorical parameter is drawn from the prior, the curator receives n
samples, and the analyst then asks q counting queries (the total probability
of a subset of the categories), choosing each query after seeing every
previous answer. The curator wins a round when its answer
is within epsilon of the population value; it wins the game when every round
is. Analysts see the prior, n, q, and all previous answers, never the data
or the true parameter.

Games are played on two paths. ``run_game`` is the transcript path and the
tests' reference: one plain loop over one trial's rounds, with the analyst
and the curator as branches on the configuration, that can record each round.
``run_games`` is the batch path used by ``estimate_failure_rate`` and the
``game`` CLI subcommand: it plays a block of trials together and returns
each trial's largest error. Both give bit-identical ``max_error`` for the
same (config, seed).

The batch path draws a block's instances at once. The block's generators
come from one vectorised pass (``distributions._block_generators``): numpy's
``SeedSequence`` hash runs on arrays for the block's stream ids, so trial t
gets the stream of ``seed.derived(t).generator()`` without a
``SeedSequence`` of its own; numpy's ``SeedSequence`` stays the reference
the tests compare it with. Each trial's generator makes only its raw draws
(Gamma variates, uniforms, static-random query rows). Under a symmetric
prior the k Gamma variates are one scalar-shape ``standard_gamma(alpha,
size=k)`` call, the same stream as the array-shape call at a fraction of
its cost. The normalisation and categorical inversion run as whole-array
operations that repeat ``draw``'s arithmetic: a sample's category is the
number of the first k - 1 cumsum edges at or below its uniform, kept one
byte wide up to k = 256, and since the edges never decrease, each
category's count is the difference of two consecutive edges' tallies of
such uniforms, read off the same comparisons. The block is then played in
one of three shapes:

- static-random and variance-maximizer analysts: the queries never depend
  on the answers, so every round's answer and truth are read at once from
  each trial's subset codes, one integer per query with bit i for category
  i (one code for the variance maximizer). A trial's table of subset sums
  over its first few categories is built by doubling, each entry the
  previous sum plus one category; the later categories are added in turn.
  That is the order of the transcript path's left-to-right ``_left_sum``
  over sorted indices, and sample-split answers are integer hit counts per
  fold (a sample's hit is its category's bit of the fold's code) over the
  fold's length, so each is the same float;
- the adaptive correlator with sample split: the k probes at once, then one
  array step per round for all trials;
- the adaptive correlator with a mean curator: the same, except that the
  loop ends once every trial has cycled, that is, once each trial's score
  vector has equalled its value after one of the last few rounds. The
  curator's answers do not depend on the round, so from the probes on, the
  next query, answer, truth and scores are a function of the scores alone;
  a repeated state starts a cycle of rounds whose errors are all counted
  already, and the largest error is final. A cycled trial plays on with the
  block, and its later rounds leave its largest error as it is. Equal
  scores compare ``==``, which counts 0.0 and -0.0 alike; they sort alike
  and add alike to the positive prior means, so the rounds after them are
  the same. Over 140 measured configurations (k from 2 to 20, n from 0 to
  1000, 1024 trials each) every trial cycled within 21 rounds past the
  probes, so a game's cost stops growing with q once it has.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .distributions import (
    BetaParams,
    DirichletParams,
    SeedSpec,
    _block_generators,
    _check_at_least,
    _check_integer,
    _check_positive_finite,
    _check_real,
    _left_sum,
    draw,
)

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
        subset = frozenset(_check_integer("category index", i) for i in self.subset)
        if any(i < 0 for i in subset):
            raise ValueError("category indices must be nonnegative")
        object.__setattr__(self, "subset", subset)
        object.__setattr__(self, "indices", tuple(sorted(subset)))


@dataclass(frozen=True)
class GameConfig:
    """One game's settings. Building one raises ValueError for a non-integer k,
    n or q, a non-real epsilon or delta, a prior not of dimension k, n < 0,
    q < 1, epsilon outside (0, 1], delta outside (0, 1), an unknown analyst or
    curator, and a curator that n samples leave nothing to answer from: the
    empirical mean at n = 0, and sample split (a sample per round) at n < q."""

    k: int
    prior: DirichletParams
    n: int
    q: int
    epsilon: float
    delta: float
    analyst: str = "static_random"
    curator: str = "posterior_mean"

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", _check_integer("k", self.k))
        object.__setattr__(self, "n", _check_at_least("n", self.n, 0))
        object.__setattr__(self, "q", _check_at_least("q", self.q, 1))
        for name in ("epsilon", "delta"):
            object.__setattr__(self, name, _check_real(name, getattr(self, name)))
        if self.prior.k != self.k:
            raise ValueError("prior dimension must equal k")
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in (0, 1]")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.analyst not in ANALYST_KINDS:
            raise ValueError(f"unknown analyst {self.analyst!r}")
        if self.curator not in CURATOR_KINDS:
            raise ValueError(f"unknown curator {self.curator!r}")
        if self.curator == "empirical_mean" and self.n == 0:
            raise ValueError("the empirical-mean curator cannot answer with no data")
        if self.curator == "sample_split" and self.n < self.q:
            raise ValueError("sample-split fold is empty (need n >= q)")


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
    samples = draw(true_p, rng, n)
    counts = np.bincount(samples, minlength=prior.k).astype(int)
    return true_p, counts, samples


def sample_instance(
    prior: DirichletParams, n: int, seed: SeedSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Draw true_p from the prior and n (an integer >= 0) categorical samples, returned as counts."""
    n = _check_at_least("n", n, 0)
    true_p, counts, _ = _sample_instance(seed.generator(), prior, n)
    return true_p, counts


def project_to_beta(d: DirichletParams, subset: Sequence[int] | frozenset[int]) -> BetaParams:
    """Law of sum_{i in S} p_i under Dir(d): Beta(sum_S alpha_i, sum_rest alpha_i).

    The projected variance proxy is therefore at most 1/(4A+2) with
    A = sum_i alpha_i, uniformly over counting queries. Empty and full
    subsets are rejected: their dot product is identically 0 or 1.
    """
    subset = frozenset(_check_integer("category index", i) for i in subset)
    if not subset or not subset < set(range(d.k)):
        raise DegenerateQueryError(
            "projection needs a nonempty proper subset of the categories"
        )
    return BetaParams(
        _left_sum(d.alphas[i] for i in sorted(subset)),
        _left_sum(a for i, a in enumerate(d.alphas) if i not in subset),
    )


# ---------------------------------------------------------------------------
# The transcript game
# ---------------------------------------------------------------------------


def _random_proper_subset(rng: np.random.Generator, k: int) -> np.ndarray:
    """Sorted indices of a uniformly random nonempty proper subset of range(k).

    Each index is kept where one ``rng.random(k)`` draw is below 1/2; the
    draw is repeated until the subset is neither empty nor full.
    """
    while True:
        mask = rng.random(k) < 0.5
        if mask.any() and not mask.all():
            return np.nonzero(mask)[0]


def _balanced_subset(prior: DirichletParams, n: int) -> list[int]:
    """The variance maximizer's query, in the order it was packed.

    Weights alpha_i + n*alpha_i/A (prior-expected posterior parameters) are
    packed greedily toward (A+n)/2, largest weight first with ties broken by
    lowest index; a balanced split maximizes the projected Beta variance.
    The data is never seen, so the query is the same every round.
    """
    alphas = np.asarray(prior.alphas)
    weights = alphas * (1.0 + n / prior.total)
    target = weights.sum() / 2.0
    order = sorted(range(prior.k), key=lambda i: (-weights[i], i))
    chosen, mass = [], 0.0
    for i in order:
        if mass + weights[i] <= target * (1.0 + 1e-12):
            chosen.append(i)
            mass += weights[i]
    return chosen


def run_game(config: GameConfig, seed: SeedSpec, *, record_rounds: bool = True) -> GameTranscript:
    """Play q rounds one at a time and record answers against the population truth.

    The analyst picks each query:

    - static random: q uniformly random nonempty proper subsets, drawn
      after the instance from the same generator;
    - variance maximizer: the ``_balanced_subset`` query every round;
    - adaptive correlator: the singletons {0}, ..., {k-1} first, each
      answer setting that category's score to answer - prior mean; then the
      top half of the categories by score (ties to the lowest index), each
      answer's residual against the scored expectation spread evenly back
      onto the queried categories, so the scores keep tracking the posterior.

    The posterior- and empirical-mean curators answer with the query's sum
    over their mean vector. The sample-split curator answers round r with
    the share of fold r's samples inside the query, for q equal folds of the
    sample sequence, the last also taking the remainder. The truth is the
    query's value on the drawn true parameter, not on the sample.

    Deterministic given (config, seed). ``run_games`` is held ``==`` to this
    loop, so it keeps its own arithmetic: left-to-right sums over sorted indices and
    a numpy mean of each fold's hits.
    """
    k, n, q = config.k, config.n, config.q
    rng = seed.generator()
    true_p, counts, samples = _sample_instance(rng, config.prior, n)

    if config.curator == "posterior_mean":
        post = np.asarray(config.prior.alphas) + counts
        mean = (post / post.sum()).tolist()
    elif config.curator == "empirical_mean":
        mean = (counts / n).tolist()
    else:  # sample split: one fold of the sample sequence per round
        mean, size = None, n // q

    adaptive = config.analyst == "adaptive_correlator"
    if config.analyst == "static_random":
        queries = [QuerySpec(frozenset(_random_proper_subset(rng, k))) for _ in range(q)]
    elif config.analyst == "variance_maximizer":
        queries = [QuerySpec(frozenset(_balanced_subset(config.prior, n)))] * q
    else:
        prior_mean = [a / config.prior.total for a in config.prior.alphas]
        scores = [0.0] * k
        half = max(1, k // 2)

    true_list = true_p.tolist()
    rounds: list[RoundRecord] = []
    max_error = 0.0
    for r in range(q):
        if not adaptive:
            query = queries[r]
        elif r < k:
            query = QuerySpec(frozenset((r,)))
        else:
            order = sorted(range(k), key=lambda i: (-scores[i], i))
            query = QuerySpec(frozenset(order[:half]))
        idx = query.indices

        if mean is not None:
            answer = _left_sum(mean[i] for i in idx)
        else:
            fold = samples[r * size : (r + 1) * size if r < q - 1 else n]
            weights = np.zeros(k)
            weights[list(idx)] = 1.0
            answer = float(weights[fold].mean())
        truth = _left_sum(true_list[i] for i in idx)
        error = abs(answer - truth)
        if error > max_error:
            max_error = error

        if adaptive and r < k:
            scores[r] = answer - prior_mean[r]
        elif adaptive:
            share = (answer - _left_sum(prior_mean[i] + scores[i] for i in idx)) / half
            for i in idx:
                scores[i] += share
        if record_rounds:
            rounds.append(RoundRecord(query=query, answer=answer, truth=truth, error=error))

    return GameTranscript(
        true_p=true_p,
        rounds=tuple(rounds),
        max_error=max_error,
        win=max_error <= config.epsilon,
    )


# Trials played together by ``run_games``. Per trial, one block holds the n
# uniforms (float64), the n categorical samples and one row of inversion
# comparisons (a byte each up to 256 categories), the static-random
# analyst's q subset codes, and for the non-adaptive analysts a table of up
# to 1024 subset sums and a few float rows of q answers, truths and errors;
# everything else is k values per trial. No (trials, n, k) array and no
# (trials, q, k) array is formed.
_TRIAL_BLOCK = 1024

# Earlier post-probe states each adaptive-correlator trial is compared with
# for the cycle exit (``_play_adaptive``).
_CYCLE_LOOKBACK = 4


def _code_powers(k: int) -> np.ndarray:
    """2^i for i < k, in the smallest dtype that holds a subset code of k categories.

    Codes of up to 64 categories are unsigned integers; past that they are
    Python ints in an object array, which no fixed width holds.
    """
    return np.array([1 << i for i in range(k)], dtype=np.min_scalar_type((1 << k) - 1))


def _random_codes(rng: np.random.Generator, powers: np.ndarray, out: np.ndarray) -> None:
    """Fill ``out`` with the static-random analyst's len(out) subsets as subset codes.

    The rows are drawn in blocks: ``rng.random((rows, k))`` yields the same
    numbers as ``rows`` calls of ``rng.random(k)``, and each row's kept
    categories (uniform below 1/2) become one code through an integer
    product with ``powers``. Keeping the codes that are neither empty (0)
    nor full (2^k - 1), in order, reproduces ``run_game``'s
    ``_random_proper_subset`` draws. Rows drawn past the len(out)-th
    accepted one are discarded; nothing draws from the generator after the
    analyst.
    """
    k, q = len(powers), len(out)
    full, accept = (1 << k) - 1, 1.0 - 2.0 ** (1 - k)
    found = 0
    while found < q:
        codes = (rng.random((int((q - found) / accept) + 8, k)) < 0.5) @ powers
        codes = codes[(codes != 0) & (codes != full)][: q - found]
        out[found : found + len(codes)] = codes
        found += len(codes)


def _subset_sums(codes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Sums of each trial's (trials, k) ``values`` over its subset codes, added left to right.

    ``codes`` is (trials, m), or (1, m) for codes every trial shares. Each
    trial gets a table of its sums over every subset of the first L
    categories, L = min(k, bit_length(m), 10), so the table is about as long
    as the trial's codes: T[c + 2^h] = T[c] + v_h for c < 2^h. A code reads
    its entry at ``code & (2^L - 1)``, and the categories from L on are added
    in turn. Every sum is thus formed from 0.0 over the code's categories in
    increasing order, the order of Python's ``sum`` over sorted indices, so
    it is bit-identical to the transcript path's.
    """
    trials, k = values.shape
    width = min(k, codes.shape[-1].bit_length(), 10)
    table = np.empty((trials, 1 << width))
    table[:, 0] = 0.0
    for h in range(width):
        np.add(table[:, : 1 << h], values[:, h, None], out=table[:, 1 << h : 2 << h])
    # the flat table's indices in one pass; the "unsafe" cast admits the
    # object (Python-int) codes past 64 categories, and every index fits
    cells = np.add(codes & ((1 << width) - 1), (np.arange(trials) << width)[:, None],
                   dtype=np.intp, casting="unsafe")
    total = table.take(cells)
    for h in range(width, k):
        np.add(total, values[:, h, None], out=total, where=codes >> h & 1 == 1)
    return total


def _masked_sums(mask: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Sums of ``values`` over ``mask`` along the last (category) axis, added left to right.

    ``np.add.accumulate`` adds the k columns in turn, the order of
    ``_left_sum`` over sorted indices, so each sum is bit-identical to the
    transcript path's; a pairwise ``.sum`` would not be. Starting from the
    first column instead of from 0.0 could change only the sign of a sum
    whose every term is -0.0, and an adaptive round always masks out some
    category, whose term is +0.0. ``mask`` and ``values`` broadcast against
    each other.
    """
    return np.add.accumulate(np.where(mask, values, 0.0), axis=-1)[..., -1]


def _fold_of(n: int, q: int) -> np.ndarray:
    """The sample-split fold (round) of each of the n sample positions."""
    return np.minimum(np.arange(n) // (n // q), q - 1)


def _fold_means(hits: np.ndarray, q: int) -> np.ndarray:
    """Sample-split answers of all q rounds from (trials, n) hits.

    ``hits`` says whether each sample lies in the query of its fold's round.
    Each answer is the fold's integer hit count over the fold's length,
    which is the mean ``run_game`` takes.
    """
    n = hits.shape[1]
    starts = np.arange(q) * (n // q)
    inside = np.add.reduceat(hits, starts, axis=1, dtype=np.intp)
    return inside / np.diff(starts, append=n)


def _draw_block(config: GameConfig, seed: SeedSpec, start: int, stop: int):
    """(true_p, counts, samples, static-random codes or None) of trials start..stop-1.

    Trial t's generator, from ``_block_generators``, has the stream of
    ``seed.derived(t).generator()`` and makes only its raw draws, in
    ``run_game``'s stream order: k standard Gamma variates, n uniforms, then
    the static-random query rows, kept as the (trials, q) subset codes of
    ``_random_codes`` as each trial draws them. When every prior alpha is
    equal the Gamma variates are drawn as ``standard_gamma(alpha, size=k)``,
    which yields the array-shape call's numbers without its per-call
    broadcast. The Dirichlet normalisation and the categorical inversion
    then run once for the block, with the operations ``draw`` applies to one
    trial. The inversion is k - 1 comparisons of the uniforms with one cumsum
    edge each, into one reused bool buffer: each adds to the samples, which
    are ``np.min_scalar_type(k - 1)`` wide, and its row tallies give the
    counts (module docstring). A true parameter that is not finite raises
    ValueError, as ``draw`` refuses it in ``run_game``.
    """
    k, q, n = config.k, config.q, config.n
    trials = stop - start
    alphas = config.prior.alphas
    shape = alphas[0] if len(set(alphas)) == 1 else np.asarray(alphas)
    gammas = np.empty((trials, k))
    uniforms = np.empty((trials, n))
    if config.analyst == "static_random":
        powers = _code_powers(k)
        codes = np.empty((trials, q), dtype=powers.dtype)
    else:
        codes = None
    for t, rng in enumerate(_block_generators(seed, start, stop)):
        gammas[t] = rng.standard_gamma(shape, size=k)
        rng.random(out=uniforms[t])
        if codes is not None:
            _random_codes(rng, powers, codes[t])
    with np.errstate(invalid="ignore"):  # 0/0 where all Gamma variates underflow, refused below
        true_p = gammas / gammas.sum(axis=1, keepdims=True)
    bad = np.flatnonzero(~np.isfinite(true_p).all(axis=1))
    if bad.size:
        raise ValueError(f"trial {start + bad[0]}'s true parameter is not finite: Gamma variates "
                         f"{gammas[bad[0]]}")
    # A uniform's category is the number of cumsum edges <= it (searchsorted,
    # side "right") capped at k - 1, that is, the count over the first k - 1
    # edges, taken one column at a time. The edges never decrease, so
    # at_least[:, j] = #(category >= j) = #(edge j - 1 <= u) for 0 < j < k.
    edges = np.cumsum(true_p, axis=1)
    samples = np.zeros((trials, n), dtype=np.min_scalar_type(k - 1))
    hit = np.empty((trials, n), dtype=bool)
    at_least = np.zeros((trials, k + 1), dtype=np.intp)
    at_least[:, 0] = n
    for j in range(k - 1):
        np.less_equal(edges[:, j, None], uniforms, out=hit)
        samples += hit
        at_least[:, j + 1] = np.count_nonzero(hit, axis=1)
    counts = at_least[:, :-1] - at_least[:, 1:]
    return true_p, counts, samples, codes


def _play_fixed(config: GameConfig, true_p, means, samples, codes) -> np.ndarray:
    """Largest round errors when the queries ignore the answers: every round at once.

    ``codes`` holds subset codes, (trials, q) for the static-random analyst
    and (1, 1) for the variance maximizer's one query; ``means`` is None for
    sample split, whose answers are per-fold hit counts: a sample is a hit
    when its category's bit is set in its fold's code.
    """
    truth = _subset_sums(codes, true_p)
    if means is not None:
        answer = _subset_sums(codes, means)
    else:
        q = config.q
        rounds = np.broadcast_to(codes, (len(codes), q))[:, _fold_of(config.n, q)]
        answer = _fold_means(rounds >> samples.astype(codes.dtype) & 1, q)
    return np.abs(answer - truth).max(axis=1)


def _play_adaptive(config: GameConfig, true_p, means, samples) -> np.ndarray:
    """Largest round errors against the adaptive correlator.

    The k singleton probes are whole-array operations. The later rounds run
    one step at a time, since each query depends on the answers so far; each
    round's sums (answer, truth, scored expectation) are one ``_masked_sums``
    pass. With a mean curator (``means`` given) a trial has cycled once its
    scores equal their value after one of the last ``_CYCLE_LOOKBACK``
    rounds: its rounds from then on repeat rounds already counted, so its
    largest error no longer changes, and the loop ends once every trial has
    cycled.
    """
    k, q, n = config.k, config.q, config.n
    prior_mean = np.asarray(config.prior.alphas) / config.prior.total
    probes = min(q, k)
    if means is None:
        answer = _fold_means(samples == _fold_of(n, q), q)[:, :probes]
    else:
        answer = means[:, :probes]
    max_error = np.abs(answer - true_p[:, :probes]).max(axis=1)
    scores = np.zeros((len(true_p), k))
    scores[:, :probes] = answer - prior_mean[:probes]

    half, size = max(1, k // 2), n // q
    rows = np.arange(len(true_p))[:, None]
    summed = [true_p] if means is None else [means, true_p]  # each round, with prior_mean + scores
    cycled = np.zeros(len(true_p), dtype=bool)
    recent = [scores]  # post-probe states, newest first
    for r in range(k, q):
        mask = np.zeros((len(true_p), k), dtype=bool)
        top = np.argsort(-scores, axis=1, kind="stable")[:, :half]  # ties to the lowest index
        mask[rows, top] = True
        sums = _masked_sums(mask, np.stack([*summed, prior_mean + scores]))
        if means is None:
            fold = samples[:, r * size : (r + 1) * size if r < q - 1 else n]
            answer = np.take_along_axis(mask, fold, axis=1).mean(axis=1)
        else:
            answer = sums[0]
        truth, expected = sums[-2:]
        np.maximum(max_error, np.abs(answer - truth), out=max_error)
        scores = np.where(mask, scores + ((answer - expected) / half)[:, None], scores)
        if means is None:  # sample-split answers depend on the round: no exit
            continue
        for past in recent:
            cycled |= (scores == past).all(axis=1)
        if cycled.all():
            break
        recent = [scores, *recent[: _CYCLE_LOOKBACK - 1]]
    return max_error


def _play_block(config: GameConfig, seed: SeedSpec, start: int, stop: int) -> np.ndarray:
    """Largest round error of trials start..stop-1, the games played together."""
    true_p, counts, samples, codes = _draw_block(config, seed, start, stop)
    if config.curator == "posterior_mean":
        post = np.asarray(config.prior.alphas) + counts
        means = post / post.sum(axis=1, keepdims=True)
    elif config.curator == "empirical_mean":
        means = counts / config.n
    else:
        means = None
    if config.analyst == "adaptive_correlator":
        return _play_adaptive(config, true_p, means, samples)
    if codes is None:  # the variance maximizer asks one query every round
        code = sum(1 << i for i in _balanced_subset(config.prior, config.n))
        codes = np.full((1, 1), code, dtype=_code_powers(config.k).dtype)
    return _play_fixed(config, true_p, means, samples, codes)


def run_games(config: GameConfig, trials: int, seed: SeedSpec) -> np.ndarray:
    """Largest round error of each of ``trials`` (an integer >= 0) games, played together in blocks.

    RNG contract: trial t draws from the stream of
    ``seed.derived(t).generator()`` alone. Its instance (true parameter, then
    the n samples) is drawn first, then the analyst's draws (the
    static-random query rows, drawn in blocks whose rows past the q-th
    accepted one are never used). Entry t therefore equals
    ``run_game(config, seed.derived(t)).max_error`` exactly. The generators themselves are
    derived for a whole block at once by ``distributions._block_generators``,
    which hashes the block's numpy ``SeedSequence`` pools on arrays, with
    numpy's own ``SeedSequence`` as its reference. Raises ``ValueError``, as
    ``run_game`` does, when a trial's true parameter is not finite (all its
    Gamma variates underflowed to 0).

    A block of up to ``_TRIAL_BLOCK`` trials is played in one of three
    shapes: non-adaptive queries as subset codes whose answers and truths
    come from per-trial tables of subset sums, and the adaptive correlator's
    probes and round loop, which ends early once every trial's scores have
    cycled. The module docstring says why each gives ``run_game``'s errors.
    """
    trials = _check_at_least("trials", trials, 0)
    max_error = np.empty(trials)
    for start in range(0, trials, _TRIAL_BLOCK):
        stop = min(start + _TRIAL_BLOCK, trials)
        max_error[start:stop] = _play_block(config, seed, start, stop)
    return max_error


def required_n(epsilon: float, delta: float, q: int, prior_mass: float) -> int:
    """Smallest n with 2*exp(-eps^2 (2(A+n)+1)) <= delta/q (A = prior mass).

    The left side is the per-query subgaussian tail at variance proxy
    1/(4(A+n)+2); a union bound over q queries then gives total failure
    probability delta. n = ceil((ln(2q/delta)/eps^2 - 1)/2 - A), clamped at
    0, then stepped past rounding to the smallest n the float test accepts.
    It takes epsilon > 0, 0 < delta < 1, an integer q >= 1 and a finite
    prior_mass > 0; a NaN is refused by name.
    OverflowError past n = 2^40; ValueError for a delta/q below the normal
    floats, where the test's exp underflows and can accept too small an n.
    """
    epsilon, delta = _check_real("epsilon", epsilon), _check_real("delta", delta)
    prior_mass, q = _check_positive_finite("prior_mass", prior_mass), _check_at_least("q", q, 1)
    if not epsilon > 0:  # NaN fails every comparison
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    threshold = delta / q
    if threshold < sys.float_info.min:
        raise ValueError(f"delta/q = {delta!r}/{q} underflows the normal floats")

    def ok(n: int) -> bool:
        exponent = -epsilon * epsilon * (2.0 * (prior_mass + n) + 1.0)
        return 2.0 * math.exp(exponent) <= threshold

    estimate = (-math.log(threshold / 2.0) / epsilon / epsilon - 1.0) / 2.0 - prior_mass
    if not estimate <= 2**40:
        raise OverflowError("required n exceeds 2^40; check epsilon and delta")
    n = max(0, math.ceil(estimate))
    while not ok(n):
        n += 1
    while n > 0 and ok(n - 1):
        n -= 1
    return n


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion: ``successes`` of ``trials``,
    integers with trials >= 1 and 0 <= successes <= trials."""
    successes, trials = _check_integer("successes", successes), _check_at_least("trials", trials, 1)
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must lie in [0, trials] = [0, {trials}], got {successes}")
    z = 1.959963984540054  # the standard normal 0.975 quantile
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
    (over-drawn static-random query rows are never used), and loses when its
    largest error exceeds epsilon, exactly as ``run_game(config,
    seed.derived(t))`` would. ``trials`` is an integer >= 100, enough for a
    meaningful rate.
    """
    trials = _check_at_least("trials", trials, 100)
    failures = int(np.count_nonzero(run_games(config, trials, seed) > config.epsilon))
    low, high = wilson_interval(failures, trials)
    return FailureRateEstimate(
        rate=failures / trials,
        wilson_low=low,
        wilson_high=high,
        failures=failures,
        trials=trials,
    )
