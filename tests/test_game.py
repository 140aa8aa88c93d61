"""Tests for the curator/analyst game: answering, projection, strategies, rates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subgauss import (
    BetaParams,
    CuratorState,
    DegenerateQueryError,
    DirichletParams,
    GameConfig,
    QuerySpec,
    SeedSpec,
    answer_query,
    beta_mean_var,
    decompose_into_counting,
    estimate_failure_rate,
    project_to_beta,
    required_n,
    run_game,
    run_games,
    sample_instance,
    wilson_interval,
)
from subgauss.game import (
    ANALYST_KINDS,
    CURATOR_KINDS,
    AdaptiveCorrelatorAnalyst,
    StaticRandomAnalyst,
    VarianceMaximizerAnalyst,
)


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


class TestQuerySpec:
    def test_exactly_one_form(self):
        with pytest.raises(ValueError):
            QuerySpec()
        with pytest.raises(ValueError):
            QuerySpec(weights=(0.5,), subset=frozenset({0}))

    def test_weight_range(self):
        with pytest.raises(ValueError):
            QuerySpec.from_weights((0.5, 1.2))

    def test_counting_as_weights(self):
        q = QuerySpec.counting({0, 2})
        np.testing.assert_array_equal(q.as_weights(4), [1.0, 0.0, 1.0, 0.0])
        assert q.is_counting and q.indices == (0, 2)

    def test_out_of_range_subset(self):
        with pytest.raises(ValueError):
            QuerySpec.counting({5}).as_weights(3)


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


class TestAnswerQuery:
    def test_prior_mean(self):
        state = CuratorState(DirichletParams((1.0, 1.0, 1.0)), (0, 0, 0), 0)
        assert answer_query(state, QuerySpec.counting({0})) == pytest.approx(1.0 / 3.0)

    def test_posterior_mean_after_updates(self):
        state = CuratorState(DirichletParams((1.0, 1.0, 1.0)), (7, 2, 1), 10)
        answer = answer_query(state, QuerySpec.counting({0, 1}))
        assert answer == pytest.approx(11.0 / 13.0)

    def test_constant_weights_answer_exactly(self):
        state = CuratorState(DirichletParams((2.0, 3.0, 5.0)), (4, 0, 6), 10)
        for w in (0.0, 0.25, 1.0):
            q = QuerySpec.from_weights((w, w, w))
            assert answer_query(state, q) == pytest.approx(w, abs=1e-15)
            assert answer_query(state, q, kind="empirical_mean") == pytest.approx(
                w, abs=1e-15
            )

    def test_empirical_needs_data(self):
        state = CuratorState(DirichletParams((1.0, 1.0)), (0, 0), 0)
        with pytest.raises(ValueError):
            answer_query(state, QuerySpec.counting({0}), kind="empirical_mean")

    def test_posterior_mean_equals_projected_beta_mean(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            k = int(rng.integers(2, 7))
            alphas = tuple(np.round(rng.uniform(0.2, 6.0, size=k), 3))
            counts = tuple(int(c) for c in rng.integers(0, 9, size=k))
            state = CuratorState(DirichletParams(alphas), counts, sum(counts))
            size = int(rng.integers(1, k))
            subset = frozenset(int(i) for i in rng.choice(k, size=size, replace=False))
            answer = answer_query(state, QuerySpec(subset=subset))
            projected = project_to_beta(state.posterior(), subset)
            mean, _ = beta_mean_var(projected)
            assert answer == pytest.approx(mean, rel=1e-12)

    def test_order_invariance(self):
        # conjugate updates depend on counts only, never on sample order
        rng = np.random.default_rng(8)
        samples = rng.integers(0, 3, size=40)
        shuffled = rng.permutation(samples)
        c1 = np.bincount(samples, minlength=3)
        c2 = np.bincount(shuffled, minlength=3)
        d = DirichletParams((1.0, 2.0, 0.5))
        s1 = CuratorState(d, tuple(c1), 40)
        s2 = CuratorState(d, tuple(c2), 40)
        q = QuerySpec.counting({1, 2})
        assert answer_query(s1, q) == answer_query(s2, q)


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


class TestConvexityReduction:
    def test_weights_query_equals_level_set_combination(self):
        # any [0,1]-weights query is a convex combination of counting queries,
        # and linear answering matches it exactly
        rng = np.random.default_rng(12)
        state = CuratorState(DirichletParams((1.0, 2.0, 3.0, 0.5)), (3, 1, 0, 6), 10)
        for _ in range(25):
            w = np.round(rng.random(4), 3)
            if w.max() == 0:
                continue
            direct = answer_query(state, QuerySpec.from_weights(w))
            parts = decompose_into_counting(w)
            recombined = sum(
                coeff * answer_query(state, QuerySpec.counting(idx))
                for coeff, idx in parts
            )
            assert direct == pytest.approx(recombined, abs=1e-12)


class TestAnalysts:
    def test_variance_maximizer_symmetric_tie_break(self):
        a = VarianceMaximizerAnalyst(10, DirichletParams((1.0,) * 10), 100)
        assert a.next_query().indices == (0, 1, 2, 3, 4)
        a = VarianceMaximizerAnalyst(5, DirichletParams((1.0,) * 5), 0)
        assert a.next_query().indices == (0, 1)

    def test_variance_maximizer_dominant_category(self):
        a = VarianceMaximizerAnalyst(3, DirichletParams((100.0, 1.0, 1.0)), 0)
        q = a.next_query()
        assert 0 < len(q.indices) < 3

    def test_static_random_reproducible_and_proper(self):
        rng1 = SeedSpec(6).generator()
        rng2 = SeedSpec(6).generator()
        a1 = StaticRandomAnalyst(6, 30, rng1)
        a2 = StaticRandomAnalyst(6, 30, rng2)
        for _ in range(30):
            q1, q2 = a1.next_query(), a2.next_query()
            assert q1.indices == q2.indices
            assert 0 < len(q1.indices) < 6

    def test_correlator_probes_singletons_first(self):
        k = 4
        analyst = AdaptiveCorrelatorAnalyst(k, DirichletParams((1.0,) * k), 10)
        for i in range(k):
            q = analyst.next_query()
            assert q.indices == (i,)
            analyst.observe(q, 0.3)
        composite = analyst.next_query()
        assert len(composite.indices) == k // 2

    def test_correlator_chases_deviations(self):
        k = 4
        analyst = AdaptiveCorrelatorAnalyst(k, DirichletParams((1.0,) * k), 10)
        answers = {0: 0.05, 1: 0.6, 2: 0.25, 3: 0.10}
        for i in range(k):
            q = analyst.next_query()
            analyst.observe(q, answers[i])
        # categories 1 and 2 deviate most above the prior mean 0.25
        assert analyst.next_query().indices == (1, 2)


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
        assert transcript.n_rounds == 4 and len(transcript.rounds) == 4
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
        assert transcript.n_rounds == 5

    def test_sample_split_needs_enough_data(self):
        config = make_config(curator="sample_split", n=2, q=5)
        with pytest.raises(ValueError):
            run_game(config, SeedSpec(2))

    def test_record_rounds_off(self):
        transcript = run_game(make_config(), SeedSpec(5), record_rounds=False)
        assert transcript.rounds == () and transcript.n_rounds == 5


def loop_max_errors(config, trials, seed):
    return [run_game(config, seed.derived(t), record_rounds=False).max_error for t in range(trials)]


ALL_PAIRS = [(a, c) for a in ANALYST_KINDS for c in CURATOR_KINDS]


def _no_draws(*args, **kwargs):
    raise AssertionError("drew an instance before rejecting the configuration")


class TestRunGames:
    @pytest.mark.parametrize("analyst,curator", ALL_PAIRS)
    def test_equals_run_game_loop(self, analyst, curator):
        # k >= 8, where numpy's pairwise row sums stop being sequential
        config = GameConfig(
            k=10,
            prior=DirichletParams((0.5, 1.0, 2.0, 1.0, 3.0, 0.7, 1.5, 0.2, 2.5, 1.1)),
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

    @pytest.mark.parametrize("n", [8, 29])
    @pytest.mark.parametrize("analyst", ANALYST_KINDS)
    def test_sample_split_fold_sizes(self, n, analyst):
        # n == q gives one sample per fold; n = 29 leaves a remainder for the last fold
        config = make_config(n=n, q=8, analyst=analyst, curator="sample_split")
        assert run_games(config, 20, SeedSpec(6)).tolist() == loop_max_errors(config, 20, SeedSpec(6))

    def test_trial_blocks_join_seamlessly(self, monkeypatch):
        config = make_config(q=4, analyst="adaptive_correlator")
        whole = run_games(config, 25, SeedSpec(8))
        monkeypatch.setattr("subgauss.game._TRIAL_BLOCK", 7)
        assert run_games(config, 25, SeedSpec(8)).tolist() == whole.tolist()

    def test_sample_split_needs_n_at_least_q(self, monkeypatch):
        monkeypatch.setattr("subgauss.game._sample_instance", _no_draws)
        config = make_config(curator="sample_split", n=4, q=5)
        with pytest.raises(ValueError, match=r"need n >= q"):
            run_games(config, 10, SeedSpec(2))
        with pytest.raises(ValueError, match=r"need n >= q"):
            run_game(config, SeedSpec(2))

    def test_empirical_mean_needs_data(self, monkeypatch):
        monkeypatch.setattr("subgauss.game._sample_instance", _no_draws)
        config = make_config(curator="empirical_mean", n=0)
        with pytest.raises(ValueError, match="cannot answer with no data"):
            run_games(config, 10, SeedSpec(2))
        with pytest.raises(ValueError, match="cannot answer with no data"):
            run_game(config, SeedSpec(2))

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

    def test_doubling_q_adds_log2_over_two_eps_sq(self):
        n1 = required_n(0.1, 0.05, 1000, 10.0)
        n2 = required_n(0.1, 0.05, 2000, 10.0)
        assert n2 - n1 in (34, 35, 36)  # ln 2 / (2 eps^2) ~ 34.66

    def test_loose_epsilon_needs_no_data(self):
        assert required_n(1.0, 0.05, 10, 5.0) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            required_n(0.0, 0.05, 10, 1.0)
        with pytest.raises(ValueError):
            required_n(0.1, 1.5, 10, 1.0)


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
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(7, 5)


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
            assert est.wilson_low <= 0.05, analyst
