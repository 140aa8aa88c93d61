"""Tests for conjugate-model query functionals, exact moments, and tau^2 sweeps."""

import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from scipy import stats
from scipy.linalg import eigh_tridiagonal
from scipy.special import gammaln

from closed_form import (
    PolynomialInP,
    SizeCapError,
    binomial_query_poly,
    broadcast_query_block,
    geometric_query_poly,
    multinomial_query_moments,
    poisson_query_moments,
    poly_raw_moments_under_beta,
)
from subgauss import conjugate_models
from subgauss.checks import _conjecture_instances
from subgauss.concentration import beta_proxy_bound, beta_proxy_estimate, weighted_proxy_sup
from subgauss.conjugate_models import (
    ExactModeError,
    _beta_rule,
    _gamma_rule,
    _gauss_rule,
    _log_multinomial,
    _prior_rule,
    _query_block,
    _query_values,
    evaluate_model,
    mc_moments,
    model_q_draws,
)
from subgauss.distributions import (
    BetaParams,
    DirichletParams,
    GammaParams,
    SeedSpec,
    beta_raw_moments,
    draw,
)


class TestBinomialPoly:
    def test_single_trial_success(self):
        assert binomial_query_poly(1, {1}).coefficients == (0.0, 1.0)

    def test_full_outcome_set_is_constant_one(self):
        poly = binomial_query_poly(4, set(range(5)))
        np.testing.assert_allclose(poly(np.linspace(0, 1, 11)), 1.0, atol=1e-12)

    def test_two_trials_one_success(self):
        assert binomial_query_poly(2, {1}).coefficients == (0.0, 2.0, -2.0)

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(2)
        m, subset = 7, {0, 3, 6}
        poly = binomial_query_poly(m, subset)
        for p in rng.random(20):
            direct = sum(
                math.comb(m, c) * p**c * (1 - p) ** (m - c) for c in subset
            )
            assert poly(p) == pytest.approx(direct, rel=1e-12)

    def test_unit_range_check(self):
        values = binomial_query_poly(5, {2, 3})(np.linspace(0.0, 1.0, 2001))
        assert (values >= -1e-9).all() and (values <= 1.0 + 1e-9).all()

    def test_size_cap(self):
        with pytest.raises(SizeCapError):
            binomial_query_poly(31, {0})

    def test_subset_validation(self):
        with pytest.raises(ValueError):
            binomial_query_poly(3, {4})


class TestGeometricPoly:
    def test_zero_failures(self):
        assert geometric_query_poly({0}).coefficients == (0.0, 1.0)

    def test_zero_or_one_failure(self):
        assert geometric_query_poly({0, 1}).coefficients == (0.0, 2.0, -1.0)

    def test_prefix_approaches_one(self):
        poly = geometric_query_poly(set(range(21)))
        for p in (0.3, 0.7, 0.95):
            assert poly(p) == pytest.approx(1.0 - (1.0 - p) ** 21, rel=1e-10)

    def test_size_cap(self):
        with pytest.raises(SizeCapError):
            geometric_query_poly({61})

    def test_coefficients_exact_up_to_the_cap(self):
        # coefficient of p^(1+i) over outcomes 0..55 is (-1)^i C(56, i+1) <= 2^53
        poly = geometric_query_poly(set(range(56)))
        want = [0] + [(-1) ** i * math.comb(56, i + 1) for i in range(56)]
        assert [int(c) for c in poly.coefficients] == want
        with pytest.raises(SizeCapError):  # C(57, 28) > 2^53
            geometric_query_poly({56})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            geometric_query_poly(set())


class TestPolyMomentsUnderBeta:
    def test_identity_polynomial_reduces_to_beta_moments(self):
        moments = poly_raw_moments_under_beta(PolynomialInP((0.0, 1.0)), BetaParams(1, 2), 6)
        np.testing.assert_allclose(
            moments, beta_raw_moments(BetaParams(1, 2), 6), rtol=1e-14
        )
        assert moments[1] == pytest.approx(1.0 / 3.0)

    def test_constant_one(self):
        moments = poly_raw_moments_under_beta(PolynomialInP((1.0,)), BetaParams(2, 7), 5)
        assert moments.tolist() == [1.0] * 6

    def test_binomial_one_success_under_uniform(self):
        poly = binomial_query_poly(2, {1})  # 2p - 2p^2
        moments = poly_raw_moments_under_beta(poly, BetaParams(1, 1), 4)
        assert moments[1] == pytest.approx(1.0 / 3.0, rel=1e-14)
        draws = model_q_draws(
            "beta_binomial", BetaParams(1, 1), {1}, m=2, draws=10**6, seed=SeedSpec(3)
        )
        mc, ses = mc_moments(draws, 4)
        for j in range(1, 5):
            assert abs(moments[j] - mc[j]) <= 3.0 * ses[j]

    def test_work_cap(self):
        with pytest.raises(SizeCapError):
            poly_raw_moments_under_beta(PolynomialInP((0.0,) * 40 + (1.0,)), BetaParams(1, 1), 11)


class TestMultinomialMoments:
    def test_full_set_constant(self):
        subset = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
        moments = multinomial_query_moments(2, subset, DirichletParams((1.0, 1.0, 1.0)), 4)
        np.testing.assert_allclose(moments, 1.0, rtol=1e-12)

    def test_two_categories_reduce_to_binomial(self):
        prior2 = DirichletParams((1.5, 2.5))
        beta_prior = BetaParams(1.5, 2.5)
        m = 3
        subset_counts = {1, 3}
        subset_vectors = [(c, m - c) for c in subset_counts]
        via_multinomial = multinomial_query_moments(m, subset_vectors, prior2, 6)
        via_poly = poly_raw_moments_under_beta(
            binomial_query_poly(m, subset_counts), beta_prior, 6
        )
        np.testing.assert_allclose(
            via_multinomial, via_poly, rtol=1e-10
        )

    def test_single_category_marginal_is_beta(self):
        prior = DirichletParams((2.0, 1.0, 0.5))
        moments = multinomial_query_moments(1, [(1, 0, 0)], prior, 6)
        marginal = beta_raw_moments(BetaParams(2.0, 1.5), 6)
        np.testing.assert_allclose(moments, marginal, rtol=1e-12)

    def test_exact_caps(self):
        prior = DirichletParams((1.0,) * 5)
        with pytest.raises(SizeCapError):
            multinomial_query_moments(1, [(1, 0, 0, 0, 0)], prior, 2)

    def test_count_vector_validation(self):
        with pytest.raises(ValueError):
            multinomial_query_moments(2, [(1, 0)], DirichletParams((1.0, 1.0, 1.0)), 2)


class TestPoissonMoments:
    def test_first_moment_is_gamma_mgf_at_minus_one(self):
        for a, b in [(2.0, 5.0), (1.0, 1.0), (0.5, 2.0)]:
            moments = poisson_query_moments({0}, GammaParams(a, b), 1)
            assert moments[1] == pytest.approx((b / (b + 1.0)) ** a, rel=1e-12)

    def test_second_moment_exponential_prior(self):
        moments = poisson_query_moments({0}, GammaParams(1.0, 1.0), 2)
        assert moments[2] == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_matches_quadrature(self):
        from scipy import integrate

        a, b, subset = 2.0, 5.0, {0, 1}
        moments = poisson_query_moments(subset, GammaParams(a, b), 3)

        def q(lam):
            return sum(lam**c * math.exp(-lam) / math.factorial(c) for c in subset)

        for j in (1, 2, 3):
            oracle, _ = integrate.quad(
                lambda lam: q(lam) ** j * b**a * lam ** (a - 1) * math.exp(-b * lam) / math.gamma(a),
                0.0,
                60.0,
            )
            assert moments[j] == pytest.approx(oracle, rel=1e-9)

    def test_monte_carlo_agreement(self):
        prior = GammaParams(2.0, 5.0)
        exact = poisson_query_moments({0, 1}, prior, 4)
        draws = model_q_draws("poisson_gamma", prior, {0, 1}, draws=4 * 10**5, seed=SeedSpec(7))
        mc, ses = mc_moments(draws, 4)
        for j in range(1, 5):
            assert abs(exact[j] - mc[j]) <= 3.0 * ses[j]

    def test_caps(self):
        with pytest.raises(SizeCapError):
            poisson_query_moments({61}, GammaParams(1, 1), 2)
        with pytest.raises(SizeCapError):
            poisson_query_moments({0}, GammaParams(1, 1), 21)


def _mp_ratio(q, density, lam):
    """2 ln E[e^(lam (Q - E Q))] / lam^2 under a [0,1] density, by mpmath.quad."""
    with mpmath.workdps(30):
        mean = mpmath.quad(lambda p: q(p) * density(p), [0, 1])
        mgf = mpmath.quad(lambda p: mpmath.exp(lam * (q(p) - mean)) * density(p), [0, 1])
        return float(2 * mpmath.log(mgf) / mpmath.mpf(lam) ** 2)


class TestEvaluateModel:
    def test_single_trial_binomial_reduces_to_beta(self):
        prior = BetaParams(1.0, 2.0)
        report = evaluate_model("beta_binomial", prior, {1}, m=1)
        assert report.tau2_est <= beta_proxy_bound(prior) * (1 + 1e-6)
        assert report.scale == pytest.approx(1.0 / 3.0)
        assert report.ratio == pytest.approx(report.tau2_est * 3.0, rel=1e-12)

    def test_geometric_first_outcome_matches_binomial_reduction(self):
        prior = BetaParams(2.0, 1.0)
        geo = evaluate_model("geometric", prior, {0})
        binom = evaluate_model("beta_binomial", prior, {1}, m=1)
        assert geo.tau2_est == pytest.approx(binom.tau2_est, rel=1e-9)

    def test_complement_symmetry(self):
        # Q and 1-Q have the same variance proxy
        prior = BetaParams(1.0, 2.0)
        left = evaluate_model("beta_binomial", prior, {0, 1}, m=3)
        right = evaluate_model("beta_binomial", prior, {2, 3}, m=3)
        assert left.tau2_est == pytest.approx(right.tau2_est, rel=1e-6)

    def test_poisson_report_finite(self):
        report = evaluate_model("poisson_gamma", GammaParams(2.0, 5.0), {0, 1})
        assert math.isfinite(report.ratio) and report.ratio > 0
        assert report.scale == pytest.approx(0.2)

    def test_multinomial_report(self):
        report = evaluate_model(
            "multinomial", DirichletParams((1.0, 1.0, 1.0)), {(1, 1, 0)}, m=2
        )
        assert report.scale == pytest.approx(2.0 / 3.0)
        assert 0 < report.tau2_est < report.scale

    def test_monte_carlo_method(self):
        prior = BetaParams(1.0, 2.0)
        exact = evaluate_model("beta_binomial", prior, {1}, m=1)
        mc = evaluate_model(
            "beta_binomial", prior, {1}, m=1,
            method="monte_carlo", draws=2 * 10**5, seed=SeedSpec(11),
        )
        assert mc.method == "monte_carlo"
        assert abs(mc.tau2_est - exact.tau2_est) <= 0.3 * exact.tau2_est

    @pytest.mark.parametrize("model, prior, outcome", [
        ("geometric", BetaParams(50.0, 1.0), 15),
        ("geometric", BetaParams(20.0, 2.0), 35),
        ("poisson_gamma", GammaParams(0.5, 2.0), 28),
    ])
    def test_narrow_monte_carlo_queries_read_their_variance(self, model, prior, outcome):
        # Q spreads by 3e-12 to 7e-12 over these draws, so lambda * spread << 1 across the
        # whole window and tau^2 is the draws' variance (to 2e-11, by 50-digit mpmath); while
        # the Taylor table kept the centering's residual e_1 they read 13.5, 35.3 and 35.4 times it
        seed, draws = SeedSpec(3), 20_000
        report = evaluate_model(model, prior, {outcome}, method="monte_carlo", draws=draws, seed=seed)
        q = model_q_draws(model, prior, {outcome}, draws=draws, seed=seed)
        mean = math.fsum(q) / draws
        variance = math.fsum((q - mean) ** 2) / draws
        assert abs(report.tau2_est / variance - 1.0) <= 1e-9

    def test_large_argmax_instances_match_quadrature(self):
        # both suprema lie near |lambda| = 12
        half = mpmath.mpf(1) / 2
        cases = [
            (
                evaluate_model("beta_binomial", BetaParams(0.5, 1.5), {5}, m=5),
                0.06899738474259982,
                lambda p: p**5,
                lambda p: p ** (-half) * (1 - p) ** half / mpmath.beta(half, 3 * half),
            ),
            (
                evaluate_model("geometric", BetaParams(2.0, 1.0), {0, 1, 2, 3, 5}),
                0.05787424105896481,
                lambda p: sum(p * (1 - p) ** c for c in (0, 1, 2, 3, 5)),
                lambda p: 2 * p,
            ),
        ]
        for report, want, q, density in cases:
            assert report.tau2_est == pytest.approx(want, rel=1e-8)
            lam = report.estimate.argmax_lambda
            assert _mp_ratio(q, density, lam) == pytest.approx(report.tau2_est, rel=1e-10)

    @pytest.mark.parametrize("alphas", [(1.0, 2.0, 0.5), (0.5, 1.5, 2.0, 3.0)])
    def test_projection_reduces_to_beta(self, alphas):
        # Q = p1 + p2 under Dir(alphas) is Beta(a1 + a2, rest)
        k = len(alphas)
        subset = {tuple(int(i == c) for i in range(k)) for c in (0, 1)}
        report = evaluate_model("multinomial", DirichletParams(alphas), subset, m=1)
        beta = BetaParams(alphas[0] + alphas[1], sum(alphas[2:]))
        assert report.tau2_est == pytest.approx(beta_proxy_estimate(beta).value, rel=1e-8)

    @pytest.mark.parametrize("s", [0.5, 1.0, 3.0])
    def test_symmetric_reductions_are_strictly_subgaussian(self, s):
        var = 1.0 / (4.0 * (2.0 * s + 1.0))  # Var of Beta(s, s), its tau^2
        for report in (
            evaluate_model("beta_binomial", BetaParams(s, s), {1}, m=1),
            evaluate_model("geometric", BetaParams(s, s), {0}),
            evaluate_model("multinomial", DirichletParams((s, s)), {(1, 0)}, m=1),
        ):
            assert var * (1 - 1e-6) <= report.tau2_est <= var * (1 + 1e-12)

    @pytest.mark.parametrize("method", ["exact", "monte_carlo"])
    def test_constant_query_has_zero_proxy(self, method):
        every_composition = {(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)}
        for model, prior, subset, m in [
            ("beta_binomial", BetaParams(1, 1), {0, 1, 2}, 2),  # Q == 1 exactly
            ("multinomial", DirichletParams((1.0, 2.0, 0.5)), every_composition, 2),  # 1 +- ulp
        ]:
            report = evaluate_model(model, prior, subset, m=m, method=method, draws=1000)
            assert report.tau2_est == 0.0
            assert report.estimate.evaluations == 0

    def test_rule_moments_exact_for_large_outcomes(self):
        # Q is summed from positive terms: the expanded polynomials lose ~2^degree eps
        cases = [
            ("geometric", BetaParams(2.0, 1.0), {40}, None, geometric_query_poly({40})),
            ("beta_binomial", BetaParams(1.0, 1.0), {15}, 30, binomial_query_poly(30, {15})),
            ("beta_binomial", BetaParams(0.5, 2.0), {0, 29, 30}, 30, binomial_query_poly(30, {0, 29, 30})),
        ]
        for model, prior, subset, m, poly in cases:
            exact = poly_raw_moments_under_beta(poly, prior, 6)  # degree * 6 <= 255: rule-exact
            points, weights = _prior_rule(prior)
            q = _query_values(model, subset, m, points)
            rule = [weights @ q**j for j in range(7)]
            np.testing.assert_allclose(rule, exact, rtol=1e-11, atol=0)

    def test_monte_carlo_has_no_size_cap(self):
        # under Beta(1, 1) every binomial count has probability 1/(m+1), and
        # E[p (1-p)^80] = 1/(81 * 82)
        for model, subset, m, mean in [
            ("beta_binomial", {0, 50}, 100, 2.0 / 101.0),
            ("geometric", {80}, None, 1.0 / (81.0 * 82.0)),
        ]:
            q = model_q_draws(model, BetaParams(1.0, 1.0), subset, m=m, draws=10**5, seed=SeedSpec(4))
            assert ((q >= 0) & (q <= 1)).all()
            assert abs(q.mean() - mean) <= 4.0 * q.std() / math.sqrt(q.size)

    def test_rule_survives_extreme_priors(self):
        # no normalising constant overflows: Beta(1, 2000) and Gamma shape 200
        cases = [
            ("beta_binomial", BetaParams(1.0, 2000.0), {1}, 1, beta_raw_moments(BetaParams(1.0, 2000.0), 4)),
            ("poisson_gamma", GammaParams(200.0, 100.0), {2}, None,
             poisson_query_moments({2}, GammaParams(200.0, 100.0), 4)),
        ]
        for model, prior, subset, m, exact in cases:
            points, weights = _prior_rule(prior)
            q = _query_values(model, subset, m, points)
            rule = [weights @ q**j for j in range(5)]
            np.testing.assert_allclose(rule, exact, rtol=1e-10, atol=0)
            # the moments are right, but the argmax sits in the prior's far tail,
            # where a 256-node rule moves the ratio by 37% and 0.13%: refused
            with pytest.raises(ExactModeError, match="does not resolve"):
                evaluate_model(model, prior, subset, m=m)

    def test_unresolved_rule_is_refused_or_right(self):
        # Q = p under Beta(1, 500): the 128-node rule put tau^2 7.6% low
        prior = BetaParams(1.0, 500.0)
        try:
            report = evaluate_model("beta_binomial", prior, {1}, m=1)
        except ExactModeError:
            return
        assert report.tau2_est == pytest.approx(beta_proxy_estimate(prior).value, rel=1e-8)

    def test_query_blocks_stay_bounded(self, monkeypatch):
        # the refinement check's k = 4 rule has 64^3 points, and Monte Carlo mode
        # draws all its points at once: Q is evaluated in blocks no larger than
        # the base rule's cap
        from subgauss import conjugate_models

        rows, query = [], conjugate_models._query_block

        def counted(model, subset, m, points):
            rows.append(len(points))
            return query(model, subset, m, points)

        monkeypatch.setattr(conjugate_models, "_query_block", counted)
        subset = {(1, 1, 0, 0), (0, 0, 2, 0)}
        evaluate_model("multinomial", DirichletParams((2.0, 1.0, 3.0, 2.0)), subset, m=2)
        assert sum(rows) == 32**3 + 64**3
        assert max(rows) <= conjugate_models._MAX_RULE_NODES

        rows.clear()
        model_q_draws("geometric", BetaParams(2.0, 1.0), {0, 3}, draws=100_000, seed=SeedSpec(2))
        assert sum(rows) == 100_000
        assert max(rows) <= conjugate_models._MAX_RULE_NODES

    @pytest.mark.parametrize(
        "model, prior, subset, m",
        [
            ("beta_binomial", BetaParams(0.5, 1.5), {5}, 5),
            ("geometric", BetaParams(2.0, 1.0), {0, 1, 2, 3, 5}, None),
            ("multinomial", DirichletParams((2.0, 1.0, 0.5)), {(2, 0, 0)}, 2),
            ("poisson_gamma", GammaParams(2.0, 5.0), {0, 1, 2, 4}, None),
        ],
    )
    def test_monte_carlo_is_the_weighted_scan_of_its_draws(self, model, prior, subset, m):
        # both modes make one weighted_proxy_sup call: Monte Carlo weights its draws
        # 1/N and caps lambda at ln(1e6 / sqrt(N))
        draws, seed = 20_000, SeedSpec(3)
        report = evaluate_model(model, prior, subset, m=m, method="monte_carlo", draws=draws, seed=seed)
        q = model_q_draws(model, prior, subset, m=m, draws=draws, seed=seed)
        window = math.log(1e6 / math.sqrt(draws))
        assert report.estimate == weighted_proxy_sup(q, np.full(draws, 1.0 / draws), window)

    @pytest.mark.parametrize(
        "model, prior, subset, m, tau2",
        [
            ("beta_binomial", BetaParams(0.5, 1.5), {5}, 5, 0.05998378826245062),
            ("geometric", BetaParams(2.0, 1.0), {0, 1, 2, 3, 5}, None, 0.046181840017718245),
            ("multinomial", DirichletParams((2.0, 1.0, 0.5)), {(2, 0, 0)}, 2, 0.07158881758502755),
            ("poisson_gamma", GammaParams(2.0, 5.0), {0, 1, 2, 4}, None, 0.0007325726938262688),
        ],
    )
    def test_monte_carlo_values_pinned(self, model, prior, subset, m, tau2):
        # seeded Monte Carlo results stay put when the log-MGF code changes
        report = evaluate_model(
            model, prior, subset, m=m, method="monte_carlo",
            draws=200_000, seed=SeedSpec(1),
        )
        assert report.tau2_est == pytest.approx(tau2, rel=1e-12)

    def test_multinomial_q_at_a_zero_coordinate_is_the_pmf(self):
        subset = {(0, 1, 1), (1, 1, 0), (2, 0, 0)}
        points = np.array([[0.0, 0.25, 0.75], [0.3, 0.0, 0.7], [0.2, 0.3, 0.5]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            q = _query_values("multinomial", subset, 2, points)
        pmf = [sum(stats.multinomial.pmf(x, 2, p) for x in subset) for p in points]
        np.testing.assert_allclose(q, pmf, rtol=1e-14, atol=0)

    def test_monte_carlo_survives_underflowed_dirichlet_draws(self):
        # 131 of these 2e5 Dirichlet(0.01, 1, 1) draws have p_1 == 0 exactly
        prior, subset = DirichletParams((0.01, 1.0, 1.0)), {(0, 1, 1)}
        exact = evaluate_model("multinomial", prior, subset, m=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            mc = evaluate_model("multinomial", prior, subset, m=2, method="monte_carlo",
                                draws=200_000, seed=SeedSpec(1))
        assert math.isfinite(mc.tau2_est)
        # the `conjectures` agreement rule
        assert abs(mc.tau2_est - exact.tau2_est) <= max(0.5 * exact.tau2_est, 10.0 / math.sqrt(200_000))

    @pytest.mark.parametrize(
        "model, prior, subset, m, message",
        [
            ("poisson_gamma", BetaParams(1, 1), {0}, None, "GammaParams prior"),
            ("multinomial", BetaParams(1, 1), {(1, 0)}, 1, "DirichletParams prior"),
            ("beta_binomial", GammaParams(1, 1), {0}, 1, "BetaParams prior"),
            ("geometric", DirichletParams((1.0, 1.0)), {0}, None, "BetaParams prior"),
        ],
    )
    @pytest.mark.parametrize("method", ["exact", "monte_carlo"])
    def test_prior_family_is_checked(self, model, prior, subset, m, message, method):
        with pytest.raises(ValueError, match=message):
            evaluate_model(model, prior, subset, m=m, method=method, draws=1000)

    @pytest.mark.parametrize("draws", [0, 99])
    def test_too_few_draws_are_refused(self, draws):
        with pytest.raises(ValueError, match=f"draws must be an integer of at least 100, got {draws}$"):
            evaluate_model("geometric", BetaParams(2, 1), {0}, method="monte_carlo", draws=draws)

    @pytest.mark.parametrize(
        "model, prior, m",
        [
            ("beta_binomial", BetaParams(1, 1), 2),
            ("geometric", BetaParams(1, 1), None),
            ("multinomial", DirichletParams((1.0, 1.0, 1.0)), 2),
            ("poisson_gamma", GammaParams(1, 1), None),
        ],
    )
    @pytest.mark.parametrize("method", ["exact", "monte_carlo"])
    def test_empty_subset_is_refused(self, model, prior, m, method):
        with pytest.raises(ValueError, match="subset must be a nonempty"):
            evaluate_model(model, prior, set(), m=m, method=method, draws=1000)

    def test_validation(self):
        with pytest.raises(ValueError):
            evaluate_model("beta_binomial", BetaParams(1, 1), {1})  # missing m
        with pytest.raises(ValueError):
            evaluate_model("nonsense", BetaParams(1, 1), {1}, m=1)
        with pytest.raises(ExactModeError):  # the product rule stops at k = 4
            evaluate_model("multinomial", DirichletParams((1.0,) * 5), {(1, 0, 0, 0, 0)}, m=1)
        # counts are integers, not truncated: 2.5 trials once gave tau^2 0.0236
        for model, prior, subset, m, message in [
            ("beta_binomial", BetaParams(1, 1), {1}, 2.5, "m must be an integer, got 2.5"),
            ("beta_binomial", BetaParams(1, 1), {1}, True, "m must be an integer, got True"),
            ("multinomial", DirichletParams((1.0, 1.0)), {(1, 0)}, 1.0, "m must be an integer"),
            ("geometric", BetaParams(1, 1), {1.5}, None, "outcome must be an integer, got 1.5"),
            ("poisson_gamma", GammaParams(1, 1), {True}, None, "outcome must be an integer"),
            ("multinomial", DirichletParams((1.0, 1.0)), {(0.5, 0.5)}, 1, "count must be an integer"),
            ("geometric", BetaParams(1, 1), {1}, 7, "takes no trial count m, got 7"),
            ("poisson_gamma", GammaParams(1, 1), {1}, 1, "takes no trial count m"),
        ]:
            for method in ("exact", "monte_carlo"):
                with pytest.raises(ValueError, match=message):
                    evaluate_model(model, prior, subset, m=m, method=method, draws=1000)
            with pytest.raises(ValueError, match=message):
                model_q_draws(model, prior, subset, m=m, draws=100, seed=SeedSpec(0))


DEFAULT_INSTANCES = _conjecture_instances(SeedSpec(0))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: evaluate_model("beta_binomial", BetaParams(1, 1), {6}, m=5),
                 "subset entries must lie in 0..m", id="evaluate_model-outcome"),
    pytest.param(lambda: evaluate_model("geometric", BetaParams(2, 1), {0}, method="quadrature"),
                 "unknown method 'quadrature'", id="evaluate_model-method"),
    pytest.param(lambda: conjugate_models.conjectured_scale("negative_binomial", BetaParams(2, 1), None),
                 "unknown model 'negative_binomial'", id="conjectured_scale-model"),
    # conjectured_scale checks the model, prior and m as evaluate_model does: these once
    # raised AttributeError or TypeError, or returned 0.0, 1.25 and a scale for a Beta prior
    pytest.param(lambda: conjugate_models.conjectured_scale("beta_binomial", GammaParams(2, 1), 5),
                 "needs a BetaParams prior, got GammaParams", id="conjectured_scale-prior"),
    pytest.param(lambda: conjugate_models.conjectured_scale("beta_binomial", BetaParams(2, 1), None),
                 "m must be an integer, got None", id="conjectured_scale-m-none"),
    pytest.param(lambda: conjugate_models.conjectured_scale("beta_binomial", BetaParams(2, 1), 0),
                 "m must be an integer of at least 1, got 0", id="conjectured_scale-m-zero"),
    pytest.param(lambda: conjugate_models.conjectured_scale("beta_binomial", BetaParams(1, 1), 2.5),
                 "m must be an integer, got 2.5", id="conjectured_scale-m-float"),
    pytest.param(lambda: conjugate_models.conjectured_scale("multinomial", BetaParams(2, 1), 5),
                 "needs a DirichletParams prior, got BetaParams", id="conjectured_scale-multinomial"),
    pytest.param(lambda: conjugate_models.conjectured_scale("geometric", BetaParams(2, 1), 3),
                 "takes no trial count m, got 3", id="conjectured_scale-geometric-m"),
])
def test_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestQueryBlockMatchesBroadcastForm:
    """Q from one log per point equals Q from the logs broadcast over the whole (points, terms)
    array; both take numpy's log and log1p and `math.lgamma`."""

    @pytest.mark.parametrize("index", range(len(DEFAULT_INSTANCES)))
    def test_default_instances(self, index):
        # the `conjectures` draws (at 20 000), Gauss rule and doubled rule of each instance
        model, prior, subset, m = DEFAULT_INSTANCES[index]
        draws = draw(prior, SeedSpec(0).derived(index + 1).generator(), 20_000)
        for points in (draws, _prior_rule(prior)[0], _prior_rule(prior, refine=2)[0]):
            new = _query_block(model, subset, m, points)
            assert np.array_equal(new, broadcast_query_block(model, subset, m, points))

    @pytest.mark.parametrize("model, subset, m, points", [
        ("beta_binomial", {0, 2, 5}, 5, [0.0, 1.0, 0.5]),
        ("beta_binomial", {1, 4}, 5, [0.0, 1.0, 0.5]),
        ("geometric", {0, 3}, None, [0.0, 1.0, 0.5]),
        ("poisson_gamma", {0, 1, 4}, None, [0.0, 2.5]),
        ("multinomial", {(2, 0, 0), (0, 1, 1), (1, 1, 0)}, 2,
         [[0.0, 0.25, 0.75], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.2, 0.3, 0.5]]),
    ])
    def test_endpoints(self, model, subset, m, points):
        # p in {0, 1} and rate 0: a zero count's -inf log contributes 0, with no warning
        points = np.array(points)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            new = _query_block(model, subset, m, points)
        assert np.array_equal(new, broadcast_query_block(model, subset, m, points))

    @pytest.mark.parametrize("model, prior, subset, m", [
        ("geometric", BetaParams(2.0, 1.0), set(range(12)), None),
        ("geometric", BetaParams(0.5, 3.0), set(range(0, 40, 2)), None),
        ("poisson_gamma", GammaParams(2.0, 0.2), set(range(20)), None),
        ("beta_binomial", BetaParams(1.0, 1.0), set(range(21)), 20),
    ])
    def test_many_outcomes_within_the_summation_bound(self, model, prior, subset, m):
        # from 8 terms numpy's .sum pairs them 8 ways; the terms are the same, and a
        # sum of n nonnegative terms in any order is within (n - 1) eps / 2 relative
        # of their exact sum, so the two sums differ by at most (n - 1) eps
        points = draw(prior, np.random.default_rng(5), 20_000)
        new = _query_block(model, subset, m, points)
        old = broadcast_query_block(model, subset, m, points)
        bound = (len(subset) - 1) * np.finfo(float).eps
        assert (np.abs(new - old) <= bound * old).all()
        assert (new != old).any()  # the bound, not equality, is what is checked here

    def test_logs_take_one_value_per_point(self, monkeypatch):
        # numpy's log and log1p each run once on the block of points (a row of
        # coordinates per Dirichlet point), never on the (points, terms) array
        shapes = []

        def recorded(fn):
            def call(x):
                shapes.append(np.shape(x))
                return fn(x)
            return call

        class RecordingNumpy:
            log, log1p = staticmethod(recorded(np.log)), staticmethod(recorded(np.log1p))

            def __getattr__(self, name):
                return getattr(np, name)

        monkeypatch.setattr(conjugate_models, "np", RecordingNumpy())
        for model, prior, subset, m in DEFAULT_INSTANCES:
            points = draw(prior, np.random.default_rng(1), 1000)
            shapes.clear()
            _query_values(model, subset, m, points)
            logs = 2 if model in ("beta_binomial", "geometric") else 1
            assert shapes == [points.shape] * logs, model


EPS = np.finfo(float).eps


class TestGaussRules:
    # Nodes: an eigen-solve is accurate to a few eps of the matrix norm, 1 for the Beta rules
    # (measured at most 2 eps in p). Weights: 1 / sum p_k(x)^2 at a node off by delta is off by
    # delta times the log-slope of that sum, up to ~n^2 near the ends (measured at most
    # 4.2 n^2 eps, Beta(1, 1) at 128 nodes; scipy's tridiagonal solver gave the same).

    @pytest.mark.parametrize("nodes", [32, 64, 128, 256])
    def test_beta_half_half_is_gauss_chebyshev(self, nodes):
        # a zero Jacobi diagonal, where numpy's dense and scipy's tridiagonal solvers round apart
        p, q, weights = _beta_rule(0.5, 0.5, nodes)
        cos = np.cos((2 * np.arange(1, nodes + 1) - 1) * np.pi / (2 * nodes))
        assert np.abs(p - np.sort((1 + cos) / 2)).max() <= 4 * EPS
        assert np.abs(q - np.sort((1 - cos) / 2)[::-1]).max() <= 4 * EPS
        assert np.abs(weights * nodes - 1.0).max() <= 8 * nodes**2 * EPS

    @pytest.mark.parametrize("nodes", [32, 64, 128, 256])
    def test_beta_one_one_is_gauss_legendre(self, nodes):
        p, q, weights = _beta_rule(1.0, 1.0, nodes)
        x, w = np.polynomial.legendre.leggauss(nodes)
        assert np.abs(p - (1 + x) / 2).max() <= 4 * EPS
        assert np.abs(q - (1 - x) / 2).max() <= 4 * EPS
        assert np.abs(weights / (w / 2) - 1.0).max() <= 8 * nodes**2 * EPS

    def test_nodes_match_scipys_tridiagonal_solver(self, monkeypatch):
        # Jacobi matrices of Beta(a, b) and Gamma(a) rules, a, b in 0.005..1000
        matrices = []
        monkeypatch.setattr(conjugate_models, "_gauss_rule",
                            lambda diag, off: matrices.append((diag, off)) or _gauss_rule(diag, off))
        shapes = (0.005, 0.1, 0.5, 1.0, 7.0, 1000.0)
        for nodes in (32, 256):
            for a in shapes:
                _gamma_rule.__wrapped__(a, nodes)
                for b in shapes:
                    _beta_rule.__wrapped__(a, b, nodes)
        assert len(matrices) == 2 * 42
        for diag, off in matrices:
            want = eigh_tridiagonal(diag, off, eigvals_only=True)
            # measured at most 6.5 eps: Beta(1/2, 1/2) at 256 nodes, the zero-diagonal case
            assert np.abs(_gauss_rule(diag, off)[0] - want).max() <= 8 * EPS * np.abs(want).max()


class TestLogsAgainstTheirOracles:
    @pytest.mark.parametrize("index", range(len(DEFAULT_INSTANCES)))
    def test_numpy_logs_within_one_ulp(self, index):
        # at the points a default `conjectures` run evaluates Q at (its rules, and the first
        # 2 000 of its 20 000 draws), each log is within 1 ulp of the correctly rounded one;
        # scipy's xlog1py(1, -p), which the Beta models took before, was up to 2 ulps off there
        model, prior, subset, m = DEFAULT_INSTANCES[index]
        draws = draw(prior, SeedSpec(0).derived(index + 1).generator(), 20_000)[:2000]
        points = np.concatenate([x.ravel() for x in (draws, *_prior_rule(prior)[:1],
                                                     *_prior_rule(prior, refine=2)[:1])])
        points = np.unique(points[points > 0.0])  # a Dirichlet rule repeats its coordinates
        logs = [(np.log(points), points, lambda x: mpmath.log(x))]
        if isinstance(prior, BetaParams):
            below = points[points < 1.0]
            logs.append((np.log1p(-below), below, lambda x: mpmath.log(1 - mpmath.mpf(x))))
        for log, xs, exact in logs:
            with mpmath.workdps(40):
                want = np.array([float(exact(x)) for x in xs.tolist()])
            assert (np.abs(log - want) <= np.spacing(np.abs(want))).all()

    def test_coefficients_against_exact_integers(self):
        # ln m! / prod c_i! by math.lgamma, against the log of the exact integer, to 4 ulps of
        # ln m! per factorial (math.lgamma is within 3 ulps on 1..200); gammaln as a second oracle
        cases = [(m, (c, m - c)) for m in range(61) for c in range(m + 1)]
        cases += [(m, (a, b, m - a - b)) for m in (2, 5, 12, 40) for a in range(m + 1)
                  for b in range(m - a + 1)]
        for m, counts in cases:
            exact = math.factorial(m)
            for c in counts:
                exact //= math.factorial(c)
            with mpmath.workdps(40):
                want = float(mpmath.log(exact))
            tol = 4 * (len(counts) + 1) * math.ulp(math.lgamma(m + 1.0))
            got = _log_multinomial(m, counts)
            assert abs(got - want) <= tol, (m, counts)
            scipy_value = gammaln(m + 1.0) - sum(gammaln(c + 1.0) for c in counts)
            assert abs(got - scipy_value) <= 2 * tol, (m, counts)


class TestDrawCount:
    @pytest.mark.parametrize("draws", [1000.0, True, "1000", None])
    def test_draws_must_be_an_integer(self, draws):
        message = re.escape(f"draws must be an integer, got {draws!r}")
        for method in ("exact", "monte_carlo"):
            with pytest.raises(ValueError, match=message):
                evaluate_model("geometric", BetaParams(2, 1), {0}, method=method, draws=draws)
        with pytest.raises(ValueError, match=message):
            model_q_draws("geometric", BetaParams(2, 1), {0}, draws=draws, seed=SeedSpec(0))

    def test_numpy_integers_pass(self):
        report = evaluate_model("geometric", BetaParams(2, 1), {0}, method="monte_carlo",
                                draws=np.int64(1000), seed=SeedSpec(0))
        assert report == evaluate_model("geometric", BetaParams(2, 1), {0}, method="monte_carlo",
                                        draws=1000, seed=SeedSpec(0))
