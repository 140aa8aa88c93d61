"""Tests for parameter types, special functions, moments, MGFs, and sampling."""

import json
import math
import re
from dataclasses import FrozenInstanceError, asdict

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from closed_form import beta_expect
from subgauss.checks import GRID
from subgauss.concentration import raw_moment_criterion
from subgauss.distributions import (
    BetaParams,
    DirichletParams,
    GammaParams,
    SeedSpec,
    _block_generators,
    _log_rising,
    beta_centered_log_mgf,
    beta_log_mgf,
    beta_mean_var,
    beta_raw_moments,
    chi_raw_moment,
    draw,
    sample,
    sample_chi,
)
from subgauss.game import GameConfig, project_to_beta


class TestParams:
    def test_beta_validation(self):
        # a bool or a numeric string is refused, not converted
        for bad in [(0.0, 1.0), (1.0, -2.0), (math.nan, 1.0), (1.0, math.inf), (True, 3.0),
                    (1.0, "3")]:
            with pytest.raises(ValueError):
                BetaParams(*bad)

    def test_dirichlet_validation(self):
        with pytest.raises(ValueError):
            DirichletParams((1.0,))
        with pytest.raises(ValueError):
            DirichletParams((1.0, 0.0))
        with pytest.raises(ValueError, match="every alpha must be a real number, got True"):
            DirichletParams((True, 1.0))
        with pytest.raises(ValueError, match="every alpha must be a real number, got '2'"):
            DirichletParams((1.0, "2"))

    def test_dirichlet_total_adds_left_to_right(self):
        # Python 3.12's compensated sum gives 1.0000000000000002 here
        assert DirichletParams((1.0, 1e-16, 1e-16)).total == (1.0 + 1e-16) + 1e-16 == 1.0
        assert DirichletParams((1e-16, 1e-16, 1.0)).total == (1e-16 + 1e-16) + 1.0

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            GammaParams(1.0, 0.0)
        with pytest.raises(ValueError, match="alpha must be a real number, got True"):
            GammaParams(True, 1.0)

    def test_beta_and_gamma_share_a_base_but_stay_apart(self):
        beta, gamma = BetaParams(1, 2), GammaParams(1, 2)
        # `_check_model` tells the families apart by isinstance
        assert not isinstance(beta, GammaParams) and not isinstance(gamma, BetaParams)
        assert beta != gamma and beta == BetaParams(1.0, 2.0) and gamma == GammaParams(1.0, 2.0)
        assert repr(beta) == "BetaParams(alpha=1.0, beta=2.0)"
        assert repr(gamma) == "GammaParams(alpha=1.0, beta=2.0)"
        assert hash(beta) == hash(BetaParams(1.0, 2.0)) and hash(gamma) == hash(GammaParams(1.0, 2.0))
        assert len({beta, gamma, BetaParams(1.0, 2.0)}) == 2
        # the conjectures "params" column writes the keys in this order
        assert list(asdict(beta)) == list(asdict(gamma)) == ["alpha", "beta"]
        for params in (beta, gamma):
            with pytest.raises(FrozenInstanceError):
                params.alpha = 3.0
            with pytest.raises(ValueError, match="beta must be positive and finite, got 0.0"):
                type(params)(1.0, 0.0)

    def test_numpy_reals_pass(self):
        p = BetaParams(np.float64(2.0), np.int64(3))
        assert p == BetaParams(2.0, 3.0) and type(p.alpha) is float and type(p.beta) is float
        assert DirichletParams(np.array([1.0, 2.0])) == DirichletParams((1.0, 2.0))

    def test_json_shapes(self):
        # the shapes the conjectures rows ("params") and the game summary ("config") carry
        assert json.dumps(asdict(BetaParams(1.5, 2.5))) == '{"alpha": 1.5, "beta": 2.5}'
        assert json.dumps(asdict(DirichletParams((1.0, 2.0, 3.0)))) == '{"alphas": [1.0, 2.0, 3.0]}'
        assert json.dumps(asdict(GammaParams(2.0, 5.0))) == '{"alpha": 2.0, "beta": 5.0}'
        config = GameConfig(2, DirichletParams((1.0, 3.0)), 40, 25, 0.3, 0.1)
        assert json.dumps(asdict(config)) == (
            '{"k": 2, "prior": {"alphas": [1.0, 3.0]}, "n": 40, "q": 25, "epsilon": 0.3, '
            '"delta": 0.1, "analyst": "static_random", "curator": "posterior_mean"}'
        )

    def test_moment_sequence_requires_unit_head(self):
        # a raw-moment array starts with E[X^0] = 1; the criterion refuses any other head
        for head in (0.5, 1.1):
            with pytest.raises(ValueError):
                raw_moment_criterion(np.array([head, 0.5, 0.3]), 1.0)
        lhs, rhs = raw_moment_criterion(np.array([1.0, 0.5, 0.3]), 1.0)
        assert lhs.tolist() == [0.3] and rhs.tolist() == [1.25]
        seq = beta_raw_moments(BetaParams(1, 1), 2)
        assert seq.shape == (3,) and seq[0] == 1.0 and seq[1] == pytest.approx(0.5)


class TestBetaRawMoments:
    def test_first_moment_against_quadrature(self):
        # density of Beta(1,2) is 2(1-x); oracle by direct quadrature
        oracle, _ = integrate.quad(lambda x: x * 2.0 * (1.0 - x), 0.0, 1.0)
        assert beta_raw_moments(BetaParams(1, 2), 1)[1] == pytest.approx(oracle, rel=1e-12)
        assert beta_raw_moments(BetaParams(1, 2), 1)[1] == pytest.approx(1.0 / 3.0)

    def test_fourth_moment_beta_1_2(self):
        oracle, _ = integrate.quad(lambda x: x**4 * 2.0 * (1.0 - x), 0.0, 1.0)
        value = beta_raw_moments(BetaParams(1, 2), 4)[4]
        assert value == pytest.approx(1.0 / 15.0, rel=1e-14)
        assert value == pytest.approx(oracle, rel=1e-10)

    def test_zeroth_moment_is_one(self):
        assert beta_raw_moments(BetaParams(0.3, 7.0), 0).tolist() == [1.0]

    def test_recurrence_across_grid(self):
        for a in GRID:
            for b in GRID:
                p = BetaParams(a, b)
                m = beta_raw_moments(p, 200)
                j = np.arange(200)
                expected = m[:-1] * (a + j) / (a + b + j)
                np.testing.assert_allclose(m[1:], expected, rtol=1e-15)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            beta_raw_moments(BetaParams(1, 1), -1)


class TestBetaMeanVar:
    def test_uniform(self):
        mean, var = beta_mean_var(BetaParams(1, 1))
        assert mean == pytest.approx(0.5)
        assert var == pytest.approx(1.0 / 12.0)

    def test_beta_1_2_against_quadrature(self):
        mean, var = beta_mean_var(BetaParams(1, 2))
        q_mean = beta_expect(lambda x: x, BetaParams(1, 2))
        q_var = beta_expect(lambda x: (x - q_mean) ** 2, BetaParams(1, 2))
        assert mean == pytest.approx(q_mean, rel=1e-10)
        assert var == pytest.approx(q_var, rel=1e-9)
        assert var == pytest.approx(1.0 / 18.0)

    def test_symmetric_mean_is_half(self):
        for a in (0.17, 1.0, 42.0):
            mean, _ = beta_mean_var(BetaParams(a, a))
            assert mean == 0.5


class TestBetaMgf:
    def test_at_zero(self):
        assert beta_log_mgf(BetaParams(3.2, 0.4), 0.0) == 0.0

    def test_uniform_at_one(self):
        mgf = math.exp(beta_log_mgf(BetaParams(1, 1), 1.0))
        assert mgf == pytest.approx(math.e - 1.0, rel=1e-13)

    def test_monte_carlo_oracle(self):
        p = BetaParams(2, 3)
        draws = sample(p, SeedSpec(20240311), 10**7)
        values = np.exp(2.0 * draws)
        mc, se = values.mean(), values.std(ddof=1) / math.sqrt(values.size)
        assert abs(math.exp(beta_log_mgf(p, 2.0)) - mc) <= 3.0 * se

    @pytest.mark.parametrize("a,b", [(0.1, 0.1), (0.1, 50.0), (1.0, 2.0), (50.0, 50.0), (2.5, 0.3)])
    @pytest.mark.parametrize("lam", [-100.0, -7.0, 0.5, 100.0])
    def test_series_matches_quadrature(self, a, b, lam):
        p = BetaParams(a, b)
        oracle = beta_expect(lambda x: math.exp(lam * x), p)
        assert math.exp(beta_log_mgf(p, lam)) == pytest.approx(oracle, rel=1e-9)

    def test_jensen_lower_bound(self):
        for a in GRID:
            for b in GRID:
                p = BetaParams(a, b)
                mean, _ = beta_mean_var(p)
                for lam in (-50.0, -1.0, 0.05, 3.0, 80.0):
                    assert beta_log_mgf(p, lam) - lam * mean >= -1e-12

    def test_log_mgf_finite_far_beyond_float_overflow(self):
        value = beta_log_mgf(BetaParams(2, 3), 5000.0)
        assert math.isfinite(value) and 0 < value < 5000.0

    def test_lambda_cap(self):
        # past 2^18 terms of the raw series the log-MGF refuses rather than grow its arrays
        with pytest.raises(OverflowError, match="terms"):
            beta_log_mgf(BetaParams(1.0, 1e10), 1e11)

    @pytest.mark.parametrize("a,b,lam", [(2.0, 3.0, 2e5), (1e5, 1e5, -4e5)])
    def test_wide_series_matches_every_term(self, a, b, lam):
        # at such |lam| the raw series is summed over a window around its peak only
        s, top, mag = a + b, (a if lam > 0 else b), abs(lam)  # X or 1 - X at |lam|
        k = np.arange(3 * int(mag), dtype=float)
        log_moments = np.concatenate(([0.0], np.cumsum(np.log((top + k[:-1]) / (s + k[:-1])))))
        want = min(lam, 0.0) + special.logsumexp(k * math.log(mag) + log_moments - special.gammaln(k + 1.0))
        assert beta_log_mgf(BetaParams(a, b), lam) == pytest.approx(want, rel=1e-13)

    def test_non_finite_lambda_rejected(self):
        with pytest.raises(ValueError):
            beta_log_mgf(BetaParams(1, 1), math.nan)

    def test_log_rising_against_mpmath(self):
        # below x = 20 it is math.lgamma(x + k) - math.lgamma(x), within 8 eps of the larger
        # log-gamma plus 1 (measured 5 eps, near lgamma's zeros at x = 1 and 2; scipy's gammaln 1.6)
        rng = np.random.default_rng(3)
        for x in np.exp(rng.uniform(math.log(1e-3), math.log(40.0), 100)).tolist():
            for k in (0, 1, 2, 7, 30, 1000, 10**5):
                with mpmath.workdps(40):
                    want = float(mpmath.loggamma(x + k) - mpmath.loggamma(x))
                scale = max(abs(math.lgamma(x + k)), abs(math.lgamma(x))) + 1.0
                assert abs(_log_rising(x, k) - want) <= 8 * np.finfo(float).eps * scale, (x, k)


class TestSampling:
    def test_determinism(self):
        spec = SeedSpec(42, 3)
        a = sample(BetaParams(2, 5), spec, 1000)
        b = sample(BetaParams(2, 5), spec, 1000)
        assert np.array_equal(a, b)
        c = sample(BetaParams(2, 5), SeedSpec(42, 4), 1000)
        assert not np.array_equal(a, c)

    def test_uniform_mean(self):
        draws = sample(BetaParams(1, 1), SeedSpec(1), 10**6)
        se = 1.0 / math.sqrt(12.0 * 10**6)
        assert abs(draws.mean() - 0.5) <= 4.0 * se

    def test_dirichlet_coordinate_means(self):
        d = DirichletParams((1.0, 1.0, 1.0))
        draws = sample(d, SeedSpec(2), 10**6)
        np.testing.assert_allclose(draws.sum(axis=1), 1.0, atol=1e-12)
        var = (1 / 3) * (2 / 3) / 4.0  # Dirichlet marginal variance
        se = math.sqrt(var / 10**6)
        assert np.abs(draws.mean(axis=0) - 1.0 / 3.0).max() <= 4.0 * se

    def test_gamma_mean(self):
        g = GammaParams(2.0, 5.0)
        draws = sample(g, SeedSpec(3), 10**6)
        se = math.sqrt(2.0 / 25.0 / 10**6)
        assert abs(draws.mean() - 0.4) <= 4.0 * se

    def test_categorical_counts(self):
        probs = (0.2, 0.3, 0.5)
        draws = sample(probs, SeedSpec(4), 10**5)
        freqs = np.bincount(draws, minlength=3) / 10**5
        for f, p in zip(freqs, probs):
            assert abs(f - p) <= 4.0 * math.sqrt(p * (1 - p) / 10**5)

    def test_projection_matches_beta_distribution(self):
        # sum of Dirichlet coordinates over a subset follows the projected Beta
        rng = np.random.default_rng(99)
        critical = float(special.kolmogi(1e-3)) / math.sqrt(10**5)
        for trial in range(3):
            k = int(rng.integers(3, 7))
            alphas = tuple(np.round(rng.uniform(0.3, 5.0, size=k), 2))
            subset = tuple(range(1 + trial % (k - 1)))
            d = DirichletParams(alphas)
            projected = project_to_beta(d, subset)
            draws = sample(d, SeedSpec(50, trial), 10**5)[:, list(subset)].sum(axis=1)
            ks = stats.kstest(draws, stats.beta(projected.alpha, projected.beta).cdf)
            assert ks.statistic < critical

    @pytest.mark.parametrize("alpha, beta", [(2.0, 5.0), (0.01, 0.02), (300.0, 1e-3)])
    def test_beta_is_the_first_gamma_over_the_row_sum(self, alpha, beta):
        # the two columns added directly, == numpy's row sum of the same Gamma draws
        g = SeedSpec(8).generator().standard_gamma(np.array([alpha, beta]), size=(20_000, 2))
        drawn = sample(BetaParams(alpha, beta), SeedSpec(8), 20_000)
        assert np.array_equal(drawn, g[:, 0] / g.sum(axis=1))

    def test_count_validation(self):
        with pytest.raises(ValueError):
            sample(BetaParams(1, 1), SeedSpec(0), -1)


class TestChiMoments:
    def test_second_moment_is_dimension(self):
        assert chi_raw_moment(3, 2) == pytest.approx(3.0, rel=1e-14)

    def test_zeroth(self):
        for k in (1, 7, 20):
            assert chi_raw_moment(k, 0) == 1.0

    def test_mean_of_absolute_normal(self):
        exact = chi_raw_moment(1, 1)
        assert exact == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-14)
        draws = np.abs(SeedSpec(11).generator().standard_normal(10**6))
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(exact - draws.mean()) <= 4.0 * se

    def test_recurrence(self):
        for k in range(1, 21):
            for j in range(0, 101, 7):
                lhs = chi_raw_moment(k, j + 2)
                rhs = (k + j) * chi_raw_moment(k, j)
                assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_sampler_matches_mean(self):
        draws = sample_chi(4, SeedSpec(12), 2 * 10**5)
        exact = chi_raw_moment(4, 1)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - exact) <= 4.0 * se


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: chi_raw_moment(0, 2), "k_dim must be an integer of at least 1, got 0",
                     id="chi_raw_moment-k_dim"),
        pytest.param(lambda: chi_raw_moment(3, -1), "j must be an integer of at least 0, got -1",
                     id="chi_raw_moment-j"),
        # once a bare "math range error" from math.exp
        pytest.param(lambda: chi_raw_moment(1, 400), r"k_dim=1, j=400 passes the float range",
                     id="chi_raw_moment-float_range"),
        pytest.param(lambda: sample_chi(0, SeedSpec(0), 3), "k_dim must be an integer of at least 1, got 0",
                     id="sample_chi-k_dim"),
        # once numpy's "negative dimensions are not allowed"
        pytest.param(lambda: sample_chi(3, SeedSpec(0), -1), "count must be an integer of at least 0, got -1",
                     id="sample_chi-count"),
        pytest.param(lambda: draw([[0.5, 0.5]], np.random.default_rng(0), 3), "must be a 1-d sequence",
                     id="draw-2d"),
        pytest.param(lambda: draw([0.5, 0.6], np.random.default_rng(0), 3), "nonnegative and sum to 1",
                     id="draw-sum"),
        pytest.param(lambda: draw([math.nan, 0.5], np.random.default_rng(0), 4), "must be finite",
                     id="draw-nan"),
        pytest.param(lambda: beta_centered_log_mgf(BetaParams(2, 5))(math.inf), "lambda must be finite",
                     id="beta_centered_log_mgf-inf"),
        pytest.param(lambda: beta_centered_log_mgf(BetaParams(2, 5))(math.nan), "lambda must be finite",
                     id="beta_centered_log_mgf-nan"),
        pytest.param(lambda: beta_log_mgf(BetaParams(2, 5), math.inf), "lambda must be finite",
                     id="beta_log_mgf-inf"),
        pytest.param(lambda: beta_log_mgf(BetaParams(2, 5), math.nan), "lambda must be finite",
                     id="beta_log_mgf-nan"),
    ],
)
def test_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestQuadratureOracle:
    def test_handles_integrable_singularities(self):
        # both shapes below 1: density blows up at both endpoints
        p = BetaParams(0.3, 0.6)
        assert beta_expect(lambda x: 1.0, p) == pytest.approx(1.0, rel=1e-10)
        mean, _ = beta_mean_var(p)
        assert beta_expect(lambda x: x, p) == pytest.approx(mean, rel=1e-10)

    def test_centered_moments_match_formula(self):
        p = BetaParams(3.0, 3.0)
        _, var = beta_mean_var(p)
        moments = [beta_expect(lambda x, n=n: (x - 0.5) ** n, p) for n in (2, 4)]
        assert moments[0] == pytest.approx(var, rel=1e-9)
        # E[(X-1/2)^4] for Beta(3,3): direct quadrature with the known density
        norm = math.gamma(6) / math.gamma(3) ** 2
        oracle, _ = integrate.quad(
            lambda x: (x - 0.5) ** 4 * norm * (x * (1 - x)) ** 2, 0, 1
        )
        assert moments[1] == pytest.approx(oracle, rel=1e-9)


class TestSeedSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SeedSpec(-1)
        with pytest.raises(ValueError):
            SeedSpec(2**64)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((1.5,), "master_seed must be an integer, got 1.5"),
            ((True,), "master_seed must be an integer, got True"),
            ((np.float64(2.0),), "master_seed must be an integer"),
            (("3",), "master_seed must be an integer"),
            ((0, 1.0), "stream_id must be an integer, got 1.0"),
            ((0, False), "stream_id must be an integer, got False"),
            ((0, -1), "stream_id must be an integer of at least 0, got -1"),
        ],
    )
    def test_refuses_bad_seeds(self, args, message):
        # refused when built, not truncated (1.5 -> 1) or left to fail in generator()
        with pytest.raises(ValueError, match=re.escape(message)):
            SeedSpec(*args)

    def test_numpy_integers_pass(self):
        spec = SeedSpec(np.int64(7), np.uint8(1))
        assert spec == SeedSpec(7, 1)
        assert type(spec.master_seed) is int and type(spec.stream_id) is int

    def test_substreams_differ(self):
        spec = SeedSpec(7)
        a = spec.generator(0).random(10)
        b = spec.generator(1).random(10)
        assert not np.array_equal(a, b)

    def test_derived(self):
        assert SeedSpec(7, 1).derived(3) == SeedSpec(7, 4)
        with pytest.raises(ValueError, match="stream_id must be an integer of at least 0, got -1"):
            SeedSpec(7, 1).derived(-2)


def assert_block_matches_numpy(seed, start, stop):
    """``_block_generators`` yields numpy's ``seed.derived(t).generator()`` for each t."""
    made = list(_block_generators(seed, start, stop))
    assert len(made) == stop - start
    for t, rng in zip(range(start, stop), made):
        reference = seed.derived(t).generator()
        assert rng.bit_generator.state == reference.bit_generator.state, t
        assert rng.standard_gamma(0.5, size=3).tolist() == reference.standard_gamma(0.5, size=3).tolist()
        assert rng.random(4).tolist() == reference.random(4).tolist()


class TestBlockGenerators:
    @pytest.mark.parametrize("master", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    @pytest.mark.parametrize(
        "stream, start, stop",
        [
            (0, 0, 5),  # stream 0 is one word, 0
            (7, 3, 9),  # a range that does not start at trial 0
            (2**32 - 3, 0, 6),  # spawn keys grow from one word to two
            (2**33 - 2, 0, 5),  # the low word carries into the high one
            (2**64 - 2, 0, 4),  # ... and from two to three
            (2**70, 0, 3),
        ],
    )
    def test_matches_numpy_seed_sequence(self, master, stream, start, stop):
        assert_block_matches_numpy(SeedSpec(master, stream), start, stop)

    @settings(max_examples=40, deadline=None)
    @given(
        master=st.integers(0, 2**64 - 1),
        stream=st.one_of(st.integers(0, 2**33), st.integers(2**64 - 4, 2**64 + 4)),
        start=st.integers(0, 5),
        count=st.integers(0, 6),
    )
    def test_matches_numpy_seed_sequence_anywhere(self, master, stream, start, count):
        assert_block_matches_numpy(SeedSpec(master, stream), start, start + count)
