"""Tests for the curator/analyst game: answering, projection, strategies, rates."""

import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subgauss import game
from subgauss.distributions import BetaParams, DirichletParams, SeedSpec, beta_mean_var
from subgauss.game import (
    ANALYST_KINDS,
    CURATOR_KINDS,
    DegenerateQueryError,
    GameConfig,
    QuerySpec,
    estimate_failure_rate,
    project_to_beta,
    required_n,
    run_game,
    run_games,
    sample_instance,
    wilson_interval,
)

from closed_form import required_n_search


def make_config(**overrides):
    base = dict(
        k=3,
        prior=DirichletParams((1.0, 1.0, 1.0)),
        n=10,
        q=5,
        epsilon=0.5,
        delta=0.1,
        analyst="static_random",
        curator="posterior_mean",
    )
    base.update(overrides)
    return GameConfig(**base)


ALL_PAIRS = [(a, c) for a in ANALYST_KINDS for c in CURATOR_KINDS]

# A non-uniform prior on 10 categories; smaller games take its first k.
SKEWED = (0.5, 1.0, 2.0, 1.0, 3.0, 0.7, 1.5, 0.2, 2.5, 1.1)


class TestGameConfig:
    @pytest.mark.parametrize(
        "overrides,message",
        [
            ({"prior": DirichletParams((1.0, 1.0))}, "prior dimension must equal k"),
            ({"n": -1}, "n must be an integer of at least 0, got -1"),
            ({"q": 0}, "q must be an integer of at least 1, got 0"),
            ({"epsilon": 0.0}, r"epsilon must lie in \(0, 1\]"),
            ({"epsilon": 1.5}, r"epsilon must lie in \(0, 1\]"),
            ({"epsilon": math.nan}, r"epsilon must lie in \(0, 1\]"),
            ({"delta": 0.0}, r"delta must lie in \(0, 1\)"),
            ({"delta": 1.0}, r"delta must lie in \(0, 1\)"),
            ({"delta": math.nan}, r"delta must lie in \(0, 1\)"),
            ({"analyst": "oracle"}, "unknown analyst 'oracle'"),
            ({"curator": "oracle"}, "unknown curator 'oracle'"),
            # refused when built, not truncated or left to fail inside a game
            ({"n": 2.5}, r"n must be an integer, got 2\.5"),
            ({"n": np.float64(10.0)}, r"n must be an integer, got (np\.float64\()?10\.0"),
            ({"q": True}, r"q must be an integer, got True"),
            ({"q": "5"}, r"q must be an integer, got '5'"),
            ({"k": 3.0}, r"k must be an integer, got 3\.0"),
            ({"epsilon": True}, r"epsilon must be a real number, got True"),
            ({"delta": "0.05"}, r"delta must be a real number, got '0\.05'"),
        ],
    )
    def test_refuses(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            make_config(**overrides)

    def test_numpy_integers_pass(self):
        config = make_config(k=np.int64(3), n=np.uint16(10), q=np.int32(5))
        assert config == make_config()
        assert all(type(v) is int for v in (config.k, config.n, config.q))


class TestQuerySpec:
    def test_counting_as_weights(self):
        # a counting query is its subset of categories; indices list it sorted
        q = QuerySpec(frozenset(np.array([2, 0])))
        assert q.subset == frozenset({0, 2}) and q.indices == (0, 2)
        assert all(type(i) is int for i in q.indices)
        with pytest.raises(ValueError):
            QuerySpec(frozenset({-1, 2}))
        # refused, not truncated: {1.5, True} once became the query {1}
        for subset in ({1.5}, {True}, {1.5, True}):
            with pytest.raises(ValueError, match="category index must be an integer"):
                QuerySpec(frozenset(subset))


class TestSampleInstance:
    def test_zero_samples(self):
        true_p, counts = sample_instance(DirichletParams((1.0, 1.0)), 0, SeedSpec(1))
        assert counts.tolist() == [0, 0]
        assert true_p.sum() == pytest.approx(1.0)

    def test_determinism(self):
        d = DirichletParams((2.0, 1.0, 1.0))
        a = sample_instance(d, 50, SeedSpec(4))
        b = sample_instance(d, 50, SeedSpec(4))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_empirical_frequencies(self):
        d = DirichletParams((1.0,) * 10)
        true_p, counts = sample_instance(d, 10**5, SeedSpec(5))
        freqs = counts / 10**5
        se = np.sqrt(true_p * (1 - true_p) / 10**5)
        assert np.all(np.abs(freqs - true_p) <= 4.0 * se + 1e-12)


def fixed_game(monkeypatch, prior, counts, *, analyst="static_random", curator="posterior_mean", q=30):
    """The ``run_game`` transcript of a game on a given instance.

    ``game._sample_instance`` is patched to return ``counts``, their samples
    in category order and the prior mean as the true parameter; the analyst
    still draws from the seed's generator.
    """
    counts = np.asarray(counts)
    instance = (np.asarray(prior.alphas) / prior.total, counts, np.repeat(np.arange(prior.k), counts))
    monkeypatch.setattr(game, "_sample_instance", lambda rng, prior, n: instance)
    config = make_config(
        k=prior.k, prior=prior, n=int(counts.sum()), q=q, analyst=analyst, curator=curator
    )
    return run_game(config, SeedSpec(0))


def curator_answers(monkeypatch, prior, counts, **kwargs):
    """Each subset a static-random game on the instance asked, with the curator's answer."""
    return {r.query.subset: r.answer for r in fixed_game(monkeypatch, prior, counts, **kwargs).rounds}


class TestAnswerQuery:
    def test_prior_mean(self, monkeypatch):
        answers = curator_answers(monkeypatch, DirichletParams((1.0, 1.0, 1.0)), (0, 0, 0))
        assert answers[frozenset({0})] == pytest.approx(1.0 / 3.0)

    def test_posterior_mean_after_updates(self, monkeypatch):
        answers = curator_answers(monkeypatch, DirichletParams((1.0, 1.0, 1.0)), (7, 2, 1))
        assert answers[frozenset({0, 1})] == pytest.approx(11.0 / 13.0)

    def test_empirical_needs_data(self, monkeypatch):
        with pytest.raises(ValueError, match="cannot answer with no data"):
            curator_answers(monkeypatch, DirichletParams((1.0, 1.0)), (0, 0), curator="empirical_mean")

    def test_posterior_mean_equals_projected_beta_mean(self, monkeypatch):
        rng = np.random.default_rng(31)
        for _ in range(50):
            k = int(rng.integers(2, 7))
            alphas = tuple(np.round(rng.uniform(0.2, 6.0, size=k), 3))
            counts = tuple(int(c) for c in rng.integers(0, 9, size=k))
            posterior = DirichletParams(tuple(a + c for a, c in zip(alphas, counts)))
            answers = curator_answers(monkeypatch, DirichletParams(alphas), counts, q=5)
            for subset, answer in answers.items():
                mean, _ = beta_mean_var(project_to_beta(posterior, subset))
                assert answer == pytest.approx(mean, rel=1e-12)

    def test_order_invariance(self, monkeypatch):
        # n one-sample Dirichlet updates of the posterior mean, in sample order and
        # permuted, land on the answer the curator computes from the counts alone
        rng = np.random.default_rng(8)
        samples = rng.integers(0, 3, size=40)
        d, subset = DirichletParams((1.0, 2.0, 0.5)), [1, 2]

        def sequential_answer(order):
            total = d.total
            mean = np.asarray(d.alphas) / total
            for x in order:
                mean = total * mean
                mean[x] += 1.0
                total += 1.0
                mean = mean / total
            return float(mean[subset].sum())

        answers = curator_answers(monkeypatch, d, np.bincount(samples, minlength=3))
        want = answers[frozenset(subset)]
        for order in (samples, rng.permutation(samples)):
            assert sequential_answer(order) == pytest.approx(want, rel=1e-12, abs=0.0)


class TestProjectToBeta:
    def test_uniform_three_categories(self):
        assert project_to_beta(DirichletParams((1.0, 1.0, 1.0)), {0}) == BetaParams(1, 2)

    def test_weighted(self):
        assert project_to_beta(DirichletParams((2.0, 3.0, 5.0)), {0, 2}) == BetaParams(7, 3)

    def test_symmetric_two_categories(self):
        p = project_to_beta(DirichletParams((1.7, 1.7)), {0})
        assert p.alpha == p.beta == 1.7

    def test_degenerate_subsets(self):
        d = DirichletParams((1.0, 1.0, 1.0))
        with pytest.raises(DegenerateQueryError):
            project_to_beta(d, set())
        with pytest.raises(DegenerateQueryError):
            project_to_beta(d, {0, 1, 2})

    def test_vanishing_complement(self):
        # the complement is summed over its own alphas: 1e20 + 1 - 1e20 would be 0
        d = DirichletParams((1e20, 1.0))
        assert project_to_beta(d, {0}) == BetaParams(1e20, 1.0)
        assert project_to_beta(d, {1}) == BetaParams(1.0, 1e20)

    def test_indices_must_be_integers(self):
        # refused, not truncated: [1.7] once projected category 1 to Beta(2, 4)
        d = DirichletParams((1.0, 2.0, 3.0))
        for subset in ([1.7], [True], [0, 1.0]):
            with pytest.raises(ValueError, match="category index must be an integer"):
                project_to_beta(d, subset)
        assert project_to_beta(d, np.array([1])) == BetaParams(2, 4)


def queries(config, seed=SeedSpec(0)):
    return [r.query.indices for r in run_game(config, seed).rounds]


class TestAnalysts:
    def test_variance_maximizer_symmetric_tie_break(self):
        config = make_config(k=10, prior=DirichletParams((1.0,) * 10), n=100, analyst="variance_maximizer")
        assert queries(config) == [(0, 1, 2, 3, 4)] * 5
        config = make_config(k=5, prior=DirichletParams((1.0,) * 5), n=0, analyst="variance_maximizer")
        assert queries(config) == [(0, 1)] * 5

    def test_variance_maximizer_dominant_category(self):
        config = make_config(prior=DirichletParams((100.0, 1.0, 1.0)), n=0, analyst="variance_maximizer")
        for indices in queries(config):
            assert 0 < len(indices) < 3

    @settings(max_examples=60, deadline=None)
    @given(
        log_alphas=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=12),
        dominance=st.floats(0.0, 6.0),
        n=st.integers(0, 1000),
    )
    @example(log_alphas=[3.0, 0.0, 0.0], dominance=0.0, n=0)
    def test_variance_maximizer_query_is_nonempty_and_proper(self, log_alphas, dominance, n):
        # at most one weight exceeds half the total, and then every other one fits under it
        alphas = [10.0 ** (x + (dominance if i == 0 else 0.0)) for i, x in enumerate(log_alphas)]
        chosen = game._balanced_subset(DirichletParams(tuple(alphas)), n)
        assert 0 < len(chosen) < len(alphas)
        assert len(set(chosen)) == len(chosen)

    def test_static_random_reproducible_and_proper(self):
        config = make_config(k=6, prior=DirichletParams((1.0,) * 6), q=30)
        asked = queries(config, SeedSpec(6))
        assert asked == queries(config, SeedSpec(6))
        assert all(0 < len(indices) < 6 for indices in asked)
        # the subsets are drawn after the instance, from the same generator
        rng = SeedSpec(6).generator()
        game._sample_instance(rng, config.prior, config.n)
        assert asked == [tuple(game._random_proper_subset(rng, 6).tolist()) for _ in range(30)]

    def test_correlator_probes_singletons_first(self):
        k = 4
        config = make_config(k=k, prior=DirichletParams((1.0,) * k), q=5, analyst="adaptive_correlator")
        asked = queries(config)
        assert asked[:k] == [(i,) for i in range(k)]
        assert len(asked[k]) == k // 2

    def test_correlator_chases_deviations(self, monkeypatch):
        prior = DirichletParams((1.0,) * 4)
        transcript = fixed_game(monkeypatch, prior, (0, 11, 4, 1), analyst="adaptive_correlator", q=5)
        assert [r.answer for r in transcript.rounds[:4]] == pytest.approx([0.05, 0.6, 0.25, 0.10])
        # categories 1 and 2 deviate most above the prior mean 0.25
        assert transcript.rounds[4].query.indices == (1, 2)


class TestRunGame:
    def test_epsilon_one_always_wins(self):
        transcript = run_game(make_config(epsilon=1.0, q=1), SeedSpec(0))
        assert transcript.win and transcript.max_error <= 1.0

    def test_determinism(self):
        t1 = run_game(make_config(analyst="adaptive_correlator"), SeedSpec(3))
        t2 = run_game(make_config(analyst="adaptive_correlator"), SeedSpec(3))
        assert np.array_equal(t1.true_p, t2.true_p)
        assert t1.max_error == t2.max_error
        assert [r.answer for r in t1.rounds] == [r.answer for r in t2.rounds]

    def test_round_records(self):
        transcript = run_game(make_config(q=4), SeedSpec(1))
        assert len(transcript.rounds) == 4
        for record in transcript.rounds:
            assert record.error == pytest.approx(abs(record.answer - record.truth))
        assert transcript.max_error == max(r.error for r in transcript.rounds)
        assert transcript.win == (transcript.max_error <= 0.5)

    def test_no_data_prior_answer_win_probability(self):
        # with n=0 and a uniform prior on 2 categories the answer is 1/2, so a
        # game with eps=0.49 is won iff |p1 - 1/2| <= 0.49: probability 0.98
        config = GameConfig(
            k=2,
            prior=DirichletParams((1.0, 1.0)),
            n=0,
            q=1,
            epsilon=0.49,
            delta=0.5,
            analyst="static_random",
            curator="posterior_mean",
        )
        wins = sum(
            run_game(config, SeedSpec(100, t), record_rounds=False).win
            for t in range(2000)
        )
        se = math.sqrt(0.98 * 0.02 / 2000)
        assert abs(wins / 2000 - 0.98) <= 4.0 * se

    def test_sample_split_plays(self):
        config = make_config(curator="sample_split", n=50, q=5)
        transcript = run_game(config, SeedSpec(2))
        assert len(transcript.rounds) == 5

    def test_sample_split_needs_enough_data(self):
        with pytest.raises(ValueError, match=r"need n >= q"):
            make_config(curator="sample_split", n=2, q=5)

    def test_record_rounds_off(self):
        transcript = run_game(make_config(), SeedSpec(5), record_rounds=False)
        assert transcript.rounds == ()
        assert transcript.max_error == run_game(make_config(), SeedSpec(5)).max_error

    @pytest.mark.parametrize("analyst,curator", ALL_PAIRS)
    def test_rounds_recomputed_from_the_instance(self, analyst, curator):
        # every round's answer and truth, recomputed from the instance alone
        for k, n, q, master in [(2, 9, 9, 1), (5, 43, 12, 2), (10, 120, 30, 3), (7, 60, 4, 4)]:
            prior = DirichletParams(SKEWED[:k])
            config = make_config(k=k, prior=prior, n=n, q=q, analyst=analyst, curator=curator)
            seed = SeedSpec(master, 17)
            true_p, counts, samples = game._sample_instance(seed.generator(), prior, n)
            posterior = DirichletParams(tuple(a + c for a, c in zip(prior.alphas, counts)))
            transcript = run_game(config, seed)
            assert len(transcript.rounds) == q
            for r, record in enumerate(transcript.rounds):
                subset = list(record.query.indices)
                if curator == "posterior_mean":
                    want, _ = beta_mean_var(project_to_beta(posterior, subset))
                elif curator == "empirical_mean":
                    want = counts[subset].sum() / n
                else:
                    size = n // q
                    fold = samples[r * size : (r + 1) * size] if r < q - 1 else samples[r * size :]
                    want = np.isin(fold, subset).sum() / len(fold)
                assert record.answer == pytest.approx(want, rel=1e-12, abs=1e-15)
                assert record.truth == pytest.approx(true_p[subset].sum(), rel=1e-12, abs=1e-15)
                assert record.error == abs(record.answer - record.truth)
            assert transcript.max_error == max(r.error for r in transcript.rounds)


def loop_max_errors(config, trials, seed):
    return [run_game(config, seed.derived(t), record_rounds=False).max_error for t in range(trials)]


class TestRunGames:
    @pytest.mark.parametrize("analyst,curator", ALL_PAIRS)
    def test_equals_run_game_loop(self, analyst, curator):
        # k >= 8, where numpy's pairwise row sums stop being sequential
        config = GameConfig(
            k=10,
            prior=DirichletParams(SKEWED),
            n=37,
            q=16,
            epsilon=0.1,
            delta=0.05,
            analyst=analyst,
            curator=curator,
        )
        seed = SeedSpec(21, 7)
        assert run_games(config, 30, seed).tolist() == loop_max_errors(config, 30, seed)

    @pytest.mark.parametrize("curator", CURATOR_KINDS)
    def test_static_random_two_categories(self, curator):
        # half of the k=2 mask rows are rejected, so the block draws must keep
        # the accepted rows in stream order
        config = make_config(k=2, prior=DirichletParams((1.0, 2.0)), n=40, q=25, curator=curator)
        assert run_games(config, 20, SeedSpec(3)).tolist() == loop_max_errors(config, 20, SeedSpec(3))

    @pytest.mark.parametrize("k,q", [(7, 3), (7, 20), (5, 4), (2, 9), (3, 9)])
    @pytest.mark.parametrize("curator", CURATOR_KINDS)
    def test_adaptive_correlator_short_and_odd(self, k, q, curator):
        config = make_config(
            k=k, prior=DirichletParams((1.0,) * k), n=45, q=q,
            analyst="adaptive_correlator", curator=curator,
        )
        assert run_games(config, 20, SeedSpec(4)).tolist() == loop_max_errors(config, 20, SeedSpec(4))

    @pytest.mark.parametrize("analyst", ANALYST_KINDS)
    def test_posterior_mean_without_data(self, analyst):
        config = make_config(n=0, q=6, analyst=analyst)
        assert run_games(config, 20, SeedSpec(5)).tolist() == loop_max_errors(config, 20, SeedSpec(5))

    def test_refuses_a_true_parameter_that_is_not_finite(self):
        # all three Gamma variates of this trial underflow to 0, so its Dirichlet draw is 0/0:
        # run_game once scored it a win and run_games a NaN error; both now refuse it through
        # `distributions._normalized`, with one message (run_game once divided with a warning and
        # refused the categorical draw that followed)
        config = make_config(prior=DirichletParams((0.005,) * 3), n=20, q=5)
        seed = SeedSpec(1, 74394)
        message = re.escape("DirichletParams(alphas=(0.005, 0.005, 0.005)) drew 1 of 1 samples as 0/0")
        with pytest.raises(ValueError, match=message):
            run_game(config, seed)
        with pytest.raises(ValueError, match=message):
            run_games(config, 1, seed)

    @pytest.mark.parametrize("n", [8, 29])
    @pytest.mark.parametrize("analyst", ANALYST_KINDS)
    def test_sample_split_fold_sizes(self, n, analyst):
        # n == q gives one sample per fold; n = 29 leaves a remainder for the last fold
        config = make_config(n=n, q=8, analyst=analyst, curator="sample_split")
        assert run_games(config, 20, SeedSpec(6)).tolist() == loop_max_errors(config, 20, SeedSpec(6))

    @pytest.mark.parametrize("analyst,curator", ALL_PAIRS)
    def test_block_straddles_two_word_stream_ids(self, monkeypatch, analyst, curator):
        # streams 2**32 - 3 .. 2**32 + 2: the spawn key grows from one word to
        # two at the first block's last trial, and the second block is all two-word
        monkeypatch.setattr("subgauss.game._TRIAL_BLOCK", 4)
        config = make_config(k=5, prior=DirichletParams(SKEWED[:5]), n=20, q=6,
                             analyst=analyst, curator=curator)
        for master in (0, 2**64 - 1):
            seed = SeedSpec(master, 2**32 - 3)
            assert run_games(config, 6, seed).tolist() == loop_max_errors(config, 6, seed)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("analyst,curator", ALL_PAIRS)
    def test_symmetric_prior_gamma_shapes(self, analyst, curator, alpha):
        # a symmetric prior's Gamma variates are one scalar-shape draw; alpha
        # picks each of standard_gamma's algorithms (shape < 1, = 1, > 1).
        # test_equals_run_game_loop covers the asymmetric SKEWED prior's array-shape draw
        config = make_config(k=10, prior=DirichletParams((alpha,) * 10), n=25, q=12,
                             analyst=analyst, curator=curator)
        seed = SeedSpec(22, 3)
        assert run_games(config, 20, seed).tolist() == loop_max_errors(config, 20, seed)

    def test_no_seed_sequence_per_trial(self, monkeypatch):
        # the mechanism of the batch path's speed: its generators are derived
        # without numpy's SeedSequence, which run_game builds once per call
        made = []

        class Counted(np.random.SeedSequence):
            def __init__(self, *args, **kwargs):
                made.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", Counted)
        config = GameConfig(
            k=10, prior=DirichletParams((1.0,) * 10), n=required_n(0.1, 0.05, 1000, 10.0),
            q=1000, epsilon=0.1, delta=0.05, analyst="adaptive_correlator",
            curator="posterior_mean",
        )
        run_games(config, 2000, SeedSpec(0))
        assert made == []
        for t in range(3):
            run_game(config, SeedSpec(0, t), record_rounds=False)
        assert len(made) == 3

    def test_trial_blocks_join_seamlessly(self, monkeypatch):
        config = make_config(q=4, analyst="adaptive_correlator")
        whole = run_games(config, 25, SeedSpec(8))
        monkeypatch.setattr("subgauss.game._TRIAL_BLOCK", 7)
        assert run_games(config, 25, SeedSpec(8)).tolist() == whole.tolist()

    def test_sample_split_needs_n_at_least_q(self):
        # refused when the config is built, so no game path is reached and nothing is drawn
        with pytest.raises(ValueError, match=r"need n >= q"):
            make_config(curator="sample_split", n=4, q=5)
        make_config(curator="sample_split", n=5, q=5)

    def test_empirical_mean_needs_data(self):
        with pytest.raises(ValueError, match="cannot answer with no data"):
            make_config(curator="empirical_mean", n=0)
        make_config(curator="empirical_mean", n=1)

    @pytest.mark.parametrize("k", [2, 3, 10])
    @pytest.mark.parametrize("q", [200, 1000])
    @pytest.mark.parametrize(
        "curator,n", [("posterior_mean", 0), ("posterior_mean", 37), ("empirical_mean", 37)]
    )
    def test_adaptive_correlator_long_games(self, curator, n, q, k):
        # long enough for every trial's scores to cycle, so the cycle exit acts
        config = make_config(
            k=k, prior=DirichletParams(SKEWED[:k]), n=n, q=q,
            analyst="adaptive_correlator", curator=curator,
        )
        seed = SeedSpec(12, 100 * k + n)
        assert run_games(config, 12, seed).tolist() == loop_max_errors(config, 12, seed)

    @pytest.mark.parametrize("curator", CURATOR_KINDS)
    @pytest.mark.parametrize("analyst", ["static_random", "variance_maximizer"])
    def test_non_adaptive_long_games_in_small_blocks(self, monkeypatch, analyst, curator):
        # n = 523 leaves a 23-sample remainder in the last sample-split fold
        monkeypatch.setattr("subgauss.game._TRIAL_BLOCK", 7)
        config = make_config(
            k=10, prior=DirichletParams(SKEWED), n=523, q=500,
            analyst=analyst, curator=curator,
        )
        seed = SeedSpec(13)
        assert run_games(config, 16, seed).tolist() == loop_max_errors(config, 16, seed)

    @pytest.mark.parametrize("k,q,n", [(13, 40, 60), (64, 20, 30), (70, 30, 45), (3, 200, 210)])
    @pytest.mark.parametrize("curator", CURATOR_KINDS)
    @pytest.mark.parametrize("analyst", ["static_random", "variance_maximizer"])
    def test_non_adaptive_past_the_sum_table(self, analyst, curator, k, q, n):
        # k = 13 adds categories past the table of subset sums; k = 64 fills an
        # unsigned 64-bit code and k = 70 takes Python-int codes; at k = 3 a
        # quarter of the static-random rows are rejected and some trials refill
        config = make_config(
            k=k, prior=DirichletParams(tuple(0.5 + i % 4 for i in range(k))), n=n, q=q,
            analyst=analyst, curator=curator,
        )
        seed = SeedSpec(16, k)
        assert run_games(config, 30, seed).tolist() == loop_max_errors(config, 30, seed)

    @pytest.mark.parametrize("curator", CURATOR_KINDS)
    @pytest.mark.parametrize("analyst", ["static_random", "variance_maximizer"])
    def test_non_adaptive_forms_no_category_masks(self, monkeypatch, analyst, curator):
        # their rounds are read from subset codes: no (trials, q, k) mask is summed
        def refuse(mask, values):
            raise AssertionError("summed a category mask")

        monkeypatch.setattr(game, "_masked_sums", refuse)
        config = make_config(k=10, prior=DirichletParams(SKEWED), n=120, q=100,
                             analyst=analyst, curator=curator)
        run_games(config, 20, SeedSpec(17))

    @settings(max_examples=15, deadline=None)
    @given(
        k=st.integers(2, 6),
        n=st.integers(0, 60),
        q=st.integers(1, 30),
        master=st.integers(0, 2**64 - 1),
    )
    def test_property_all_pairs(self, k, n, q, master):
        prior = DirichletParams(tuple(0.5 + i for i in range(k)))
        seed = SeedSpec(master)
        for analyst, curator in ALL_PAIRS:
            if (curator == "empirical_mean" and n == 0) or (curator == "sample_split" and n < q):
                continue
            config = make_config(k=k, prior=prior, n=n, q=q, analyst=analyst, curator=curator)
            assert run_games(config, 4, seed).tolist() == loop_max_errors(config, 4, seed)


class TestSubsetSums:
    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(2, 24),
        m=st.integers(1, 2000),
        trials=st.integers(1, 3),
        shared=st.booleans(),
        master=st.integers(0, 2**32 - 1),
    )
    def test_equals_a_plain_sum(self, k, m, trials, shared, master):
        # k past 10 adds categories beyond the table; values hold zeros and negatives
        rng = np.random.default_rng(master)
        values = rng.standard_normal((trials, k)) * 10.0 ** rng.integers(-3, 4, (trials, k))
        values[rng.random((trials, k)) < 0.25] = 0.0
        codes = rng.integers(0, 2**k, (1 if shared else trials, m)).astype(game._code_powers(k).dtype)
        sums = game._subset_sums(codes, values)
        assert sums.shape == (trials, m)
        for t in range(trials):
            v = values[t].tolist()
            row = codes[0 if shared else t].tolist()
            want = [game._left_sum(v[i] for i in range(k) if code >> i & 1) for code in row]
            assert sums[t].tolist() == want

    def test_transcript_sum_adds_left_to_right(self):
        # Python 3.12's compensated sum gives 1.0 here; the table and the transcript path do not
        codes = np.array([[2**10 - 1]], dtype=game._code_powers(10).dtype)
        table_sum = game._subset_sums(codes, np.full((1, 10), 0.1))[0, 0]
        assert game._left_sum([0.1] * 10) == table_sum == 0.9999999999999999


class TestMaskedSums:
    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(1, 24), trials=st.integers(1, 5), master=st.integers(0, 2**32 - 1))
    def test_equals_a_left_to_right_sum(self, k, trials, master):
        # the adaptive rounds' (answer, truth, scored expectation) stack; the
        # scored expectations prior_mean + scores can be negative
        rng = np.random.default_rng(master)
        values = rng.standard_normal((3, trials, k)) * 10.0 ** rng.integers(-3, 4, (3, trials, k))
        values[rng.random((3, trials, k)) < 0.2] = 0.0
        mask = rng.random((trials, k)) < rng.random()
        sums = game._masked_sums(mask, values)
        assert sums.shape == (3, trials)
        for s in range(3):
            for t in range(trials):
                total = 0.0
                for j in range(k):
                    if mask[t, j]:
                        total += float(values[s, t, j])
                assert sums[s, t] == total


class TestDrawBlock:
    @pytest.mark.parametrize("k,n", [(2, 0), (2, 40), (3, 1), (10, 520), (17, 33), (70, 90)])
    def test_counts_are_the_samples_bincount(self, k, n):
        config = make_config(k=k, prior=DirichletParams(tuple(0.3 + i % 5 for i in range(k))), n=n)
        _, counts, samples, _ = game._draw_block(config, SeedSpec(23, k), 0, 40)
        assert samples.shape == (40, n)
        want = [np.bincount(row, minlength=k).tolist() for row in samples]
        assert counts.tolist() == want

    @pytest.mark.parametrize("k", [2, 10, 256, 257])
    def test_samples_are_as_wide_as_the_largest_category(self, k):
        config = make_config(k=k, prior=DirichletParams((1.0,) * k), n=30)
        _, counts, samples, _ = game._draw_block(config, SeedSpec(24), 0, 8)
        assert samples.dtype == np.min_scalar_type(k - 1)
        assert samples.dtype.itemsize == (1 if k <= 256 else 2)
        assert (counts.sum(axis=1) == 30).all()

    @pytest.mark.parametrize("k", [256, 257])
    @pytest.mark.parametrize("curator", ["sample_split", "posterior_mean"])
    @pytest.mark.parametrize("analyst", ANALYST_KINDS)
    def test_equals_run_game_past_one_byte(self, analyst, curator, k):
        # k = 256 fills a uint8 category and k = 257 takes uint16; codes are Python ints
        config = make_config(k=k, prior=DirichletParams(tuple(0.5 + i % 4 for i in range(k))),
                             n=50, q=12, analyst=analyst, curator=curator)
        seed = SeedSpec(25, k)
        assert run_games(config, 20, seed).tolist() == loop_max_errors(config, 20, seed)

    @pytest.mark.parametrize("analyst", ANALYST_KINDS)
    def test_no_wide_temporaries(self, analyst):
        # apart from its float64 uniforms, a block's (trials, n) arrays are a
        # byte per entry: the traced peak stays within 1.5 times the uniforms
        trials, n = 256, 500
        config = make_config(k=10, prior=DirichletParams((1.0,) * 10), n=n, q=5, analyst=analyst)
        game._draw_block(config, SeedSpec(1), 0, trials)
        tracemalloc.start()
        try:
            game._draw_block(config, SeedSpec(1), 0, trials)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * trials * n


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: sample_instance(DirichletParams((1.0, 1.0)), -1, SeedSpec(0)),
                 "n must be an integer of at least 0, got -1", id="sample_instance-n"),
    pytest.param(lambda: run_games(make_config(), -1, SeedSpec(0)),
                 "trials must be an integer of at least 0, got -1", id="run_games-trials"),
    # a NaN once passed the range check and was refused as "required n exceeds 2^40", and
    # an infinite prior mass reached math.ceil
    pytest.param(lambda: required_n(math.nan, 0.05, 10, 1.0),
                 "epsilon must be positive, got nan", id="required_n-epsilon-nan"),
    pytest.param(lambda: required_n(0.0, 0.05, 10, 1.0),
                 "epsilon must be positive, got 0.0", id="required_n-epsilon-zero"),
    pytest.param(lambda: required_n(0.1, math.nan, 10, 1.0),
                 r"delta must lie in \(0, 1\), got nan", id="required_n-delta-nan"),
    pytest.param(lambda: required_n(0.1, 1.5, 10, 1.0),
                 r"delta must lie in \(0, 1\), got 1.5", id="required_n-delta-above-one"),
    pytest.param(lambda: required_n(0.1, 0.05, 10, math.nan),
                 "prior_mass must be positive and finite, got nan", id="required_n-prior_mass-nan"),
    pytest.param(lambda: required_n(0.1, 0.05, 10, math.inf),
                 "prior_mass must be positive and finite, got inf", id="required_n-prior_mass-inf"),
    pytest.param(lambda: required_n(0.1, 0.05, 10, 0.0),
                 "prior_mass must be positive and finite, got 0.0", id="required_n-prior_mass-zero"),
])
def test_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def _total_variation(config, seed, trials):
    """TV(p, m) = sum |p_i - m_i| / 2 of each trial's instance, for a mean curator."""
    true_p, counts, _, _ = game._draw_block(config, seed, 0, trials)
    if config.curator == "posterior_mean":
        post = np.asarray(config.prior.alphas) + counts
        means = post / post.sum(axis=1, keepdims=True)
    else:
        means = counts / config.n
    return 0.5 * np.abs(true_p - means).sum(axis=1)


class TestTotalVariationCeiling:
    # every counting query's error |sum_S (m_i - p_i)| is at most TV(p, m),
    # the error of the subset where m_i > p_i
    @pytest.mark.parametrize("curator", ["posterior_mean", "empirical_mean"])
    @pytest.mark.parametrize("analyst", ["static_random", "variance_maximizer"])
    def test_no_error_above_the_ceiling(self, analyst, curator):
        config = make_config(k=10, prior=DirichletParams(SKEWED), n=37, q=60,
                             analyst=analyst, curator=curator)
        seed = SeedSpec(18)
        ceiling = _total_variation(config, seed, 50)
        assert (run_games(config, 50, seed) <= ceiling + 1e-15).all()

    @pytest.mark.parametrize("curator", ["posterior_mean", "empirical_mean"])
    def test_static_random_reaches_the_ceiling(self, curator):
        # k = 3 has 6 proper subsets: 200 random queries ask all of them
        config = make_config(k=3, prior=DirichletParams((0.5, 1.0, 2.0)), n=25, q=200,
                             curator=curator)
        seed = SeedSpec(19)
        ceiling = _total_variation(config, seed, 50)
        np.testing.assert_allclose(run_games(config, 50, seed), ceiling, rtol=0, atol=1e-15)


# Posterior-mean instances (prior alphas, counts, true p) on which the
# adaptive correlator's query changes after the first round past the probes:
# its scores tie up to rounding, so rounding residuals reorder them. The true p
# makes that late query's error the game's largest.
LATE_QUERIES = [
    (
        (0.5, 2.0, 0.5, 1.0, 2.0, 2.0, 1.0, 0.5, 1.0, 1.5),
        (0, 0, 0, 0, 1, 0, 0, 1, 0, 0),
        (0.16, 0.01, 0.21, 0.0, 0.2, 0.02, 0.21, 0.08, 0.01, 0.1),
    ),
    (
        (0.5, 1.5, 3.0, 1.5, 3.0, 0.5, 0.5, 2.0),
        (2, 1, 0, 1, 4, 1, 0, 0),
        (0.0, 0.27, 0.05, 0.16, 0.04, 0.04, 0.09, 0.34),
    ),
    ((3.0, 0.5, 1.0, 0.5, 0.5), (2, 7, 1, 2, 2), (0.21, 0.01, 0.52, 0.25, 0.01)),
]


class TestCycleExit:
    @pytest.mark.parametrize("alphas,counts,true_p", LATE_QUERIES)
    def test_counts_the_error_of_a_late_query(self, monkeypatch, alphas, counts, true_p):
        # both paths play the given instance; the batch path must still reach
        # the round of the late query before the trial's scores cycle
        k, true_p, counts = len(alphas), np.array(true_p), np.array(counts)
        config = make_config(
            k=k, prior=DirichletParams(alphas), n=int(counts.sum()), q=40,
            analyst="adaptive_correlator",
        )

        def instance(rng, prior, n):
            return true_p, counts, np.empty(0, dtype=int)

        def block(config, seed, start, stop):
            rows = (stop - start, 1)
            return np.tile(true_p, rows), np.tile(counts, rows), np.empty((stop - start, 0), dtype=int), None

        monkeypatch.setattr(game, "_sample_instance", instance)
        monkeypatch.setattr(game, "_draw_block", block)
        errors = [r.error for r in run_game(config, SeedSpec(0)).rounds]
        assert errors.index(max(errors)) > k  # the largest error is a late query's
        assert run_games(config, 3, SeedSpec(0)).tolist() == [max(errors)] * 3

    def test_ends_the_round_loop(self, monkeypatch):
        # every trial cycles long before round 1000: the loop ends early
        calls = []
        masked_sums = game._masked_sums

        def counted(mask, values):
            calls.append(len(mask))
            return masked_sums(mask, values)

        monkeypatch.setattr(game, "_masked_sums", counted)
        config = make_config(
            k=10, prior=DirichletParams(SKEWED), n=37, q=1000, analyst="adaptive_correlator",
        )
        run_games(config, 12, SeedSpec(14))
        assert 0 < len(calls) < 100  # one sums pass per round, of the 990 past the probes

    def test_trials_that_cycle_at_different_rounds(self, monkeypatch):
        # the CLI default prior: most trials cycle after one post-probe round,
        # a few play on, and every trial's largest error is still run_game's
        calls = []
        masked_sums = game._masked_sums

        def counted(mask, values):
            calls.append(len(mask))
            return masked_sums(mask, values)

        monkeypatch.setattr(game, "_masked_sums", counted)
        config = make_config(
            k=10, prior=DirichletParams((1.0,) * 10), n=520, q=60, analyst="adaptive_correlator",
        )
        seed = SeedSpec(0)
        assert run_games(config, 200, seed).tolist() == loop_max_errors(config, 200, seed)
        assert 1 < len(calls) < 50


class TestRequiredN:
    def test_reference_point(self):
        assert required_n(0.1, 0.05, 1000, 10.0) == 520

    def test_matches_brute_force(self):
        def predicate(n, eps, delta, q, a):
            return 2.0 * math.exp(-eps * eps * (2.0 * (a + n) + 1.0)) <= delta / q

        for eps, delta, q, a in [(0.1, 0.05, 1000, 10.0), (0.2, 0.01, 50, 3.0), (0.5, 0.2, 5, 1.0)]:
            n = required_n(eps, delta, q, a)
            assert predicate(n, eps, delta, q, a)
            assert n == 0 or not predicate(n - 1, eps, delta, q, a)

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(1e-3, 1.0),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.integers(1, 10**9),
        st.floats(1e-3, 1e7),
        st.integers(0, 10**6),
    )
    def test_matches_the_search(self, eps, delta, q, a, n0):
        # the closed form, stepped to the inequality, is the search's smallest n. At
        # a delta on n0's boundary rounding decides, and the steps up and down run.
        boundary = 2.0 * q * math.exp(-eps * eps * (2.0 * (a + n0) + 1.0))
        for d in (delta, boundary):
            if not 0.0 < d < 1.0:
                continue
            if d / q >= sys.float_info.min:
                assert required_n(eps, d, q, a) == required_n_search(eps, d, q, a)
            else:
                with pytest.raises(ValueError, match="underflows the normal floats"):
                    required_n(eps, d, q, a)

    def test_doubling_q_adds_log2_over_two_eps_sq(self):
        n1 = required_n(0.1, 0.05, 1000, 10.0)
        n2 = required_n(0.1, 0.05, 2000, 10.0)
        assert n2 - n1 in (34, 35, 36)  # ln 2 / (2 eps^2) ~ 34.66

    def test_loose_epsilon_needs_no_data(self):
        assert required_n(1.0, 0.05, 10, 5.0) == 0

    def test_validation(self):
        # the range refusals are rows of test_refusals.
        # delta/q = 2^-1073: the float test accepts n = 370, where the exact tail
        # 2 e^-744.2 = 1.26e-323 exceeds it; the search returns that n
        assert required_n_search(1.0, 1e-323, 1, 1.6) == 370
        with pytest.raises(ValueError, match="underflows the normal floats"):
            required_n(1.0, 1e-323, 1, 1.6)
        for args in [(1e-7, 0.05, 10, 1.0), (1e-200, 0.05, 10, 1.0)]:
            with pytest.raises(OverflowError, match="exceeds 2\\^40"):
                required_n(*args)


class TestWilsonInterval:
    def test_zero_failures_at_100_trials(self):
        low, high = wilson_interval(0, 100)
        assert low == 0.0
        assert high == pytest.approx(3.8415 / 103.8415, abs=1e-4)
        assert high < 0.04

    def test_contains_point_estimate(self):
        for s, n in [(3, 50), (40, 200), (199, 200)]:
            low, high = wilson_interval(s, n)
            assert low <= s / n <= high

    def test_validation(self):
        with pytest.raises(ValueError, match=r"^trials must be an integer of at least 1, got 0$"):
            wilson_interval(5, 0)
        for successes in (7, -1):
            with pytest.raises(ValueError, match=rf"^successes must lie in \[0, trials\] = \[0, 5\], got {successes}$"):
                wilson_interval(successes, 5)
        for successes in (2.5, 3.0, True):  # refused, not truncated
            with pytest.raises(ValueError, match=rf"^successes must be an integer, got {successes!r}$"):
                wilson_interval(successes, 5)


class TestFailureRate:
    def test_epsilon_one_never_fails(self):
        config = make_config(epsilon=1.0, q=3)
        est = estimate_failure_rate(config, 100, SeedSpec(0))
        assert est.rate == 0.0 and est.wilson_high < 0.04

    def test_determinism(self):
        config = make_config(q=2, epsilon=0.2)
        a = estimate_failure_rate(config, 100, SeedSpec(9))
        b = estimate_failure_rate(config, 100, SeedSpec(9))
        assert a == b

    def test_minimum_trials(self):
        with pytest.raises(ValueError):
            estimate_failure_rate(make_config(), 50, SeedSpec(0))

    def test_failure_rate_non_increasing_in_n(self):
        # sweep n/4, n/2, n, 2n: rates must not increase (within Wilson CIs)
        prior = DirichletParams((1.0,) * 6)
        n_star = required_n(0.1, 0.05, 200, prior.total)
        rates = []
        for i, n in enumerate((n_star // 4, n_star // 2, n_star, 2 * n_star)):
            config = GameConfig(
                k=6,
                prior=prior,
                n=n,
                q=200,
                epsilon=0.1,
                delta=0.05,
                analyst="static_random",
                curator="posterior_mean",
            )
            rates.append(estimate_failure_rate(config, 150, SeedSpec(40, 1000 * i)))
        for before, after in zip(rates, rates[1:]):
            assert after.wilson_low <= before.wilson_high + 1e-12

    def test_guarantee_at_required_n_all_analysts(self):
        prior = DirichletParams((1.0,) * 6)
        n = required_n(0.15, 0.05, 100, prior.total)
        for analyst in ("static_random", "variance_maximizer", "adaptive_correlator"):
            config = GameConfig(
                k=6,
                prior=prior,
                n=n,
                q=100,
                epsilon=0.15,
                delta=0.05,
                analyst=analyst,
                curator="posterior_mean",
            )
            est = estimate_failure_rate(config, 200, SeedSpec(41))
            assert est.wilson_high <= 0.05, analyst
