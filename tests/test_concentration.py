"""Tests for variance-proxy estimation and the subgaussianity criteria."""

import gc
import hashlib
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
import weakref
from pathlib import Path
from typing import NamedTuple

import mpmath
import numpy as np
import pytest
from closed_form import counting, golden_max, loop_scan, scan_magnitudes
from hypothesis import example, given, settings
from hypothesis import strategies as st

import subgauss
from subgauss import concentration, conjugate_models
from subgauss.checks import GRID, _conjecture_instances
from subgauss.concentration import (
    _brent_max,
    _cell_bound,
    _certified_scan,
    _monte_carlo_window,
    _scan,
    beta_proxy_bound,
    beta_proxy_estimate,
    beta_tight_proxy_bound,
    check_beta_bound,
    empirical_log_mgf,
    raw_moment_criterion,
    tail_bound,
    tail_frequencies,
    termwise_mgf_comparison,
    variance_proxy_sup,
    weighted_log_mgf,
    weighted_proxy_sup,
)
from subgauss.conjugate_models import _beta_rule, _prior_rule, evaluate_model, model_q_draws
from subgauss.distributions import (
    BetaParams,
    SeedSpec,
    beta_centered_log_mgf,
    beta_log_mgf,
    beta_mean_var,
    beta_raw_moments,
    chi_raw_moment,
    sample,
)
from subgauss.martingale import two_point_variance_proxy


class TestVarianceProxySup:
    def test_gaussian_is_exact(self):
        # for a Gaussian the ratio equals the variance at every lambda
        mu, s = 0.3, 0.7

        def log_mgf(lam):
            return lam * mu + 0.5 * lam * lam * s

        est = variance_proxy_sup(log_mgf, mu, 50.0)
        assert est.value == pytest.approx(s, rel=1e-6)

    def test_uniform_attained_near_zero(self):
        est = beta_proxy_estimate(BetaParams(1, 1))
        assert est.value == pytest.approx(1.0 / 12.0, abs=1e-4)
        assert abs(est.argmax_lambda) < 0.1

    def test_beta_1_2_bracketed(self):
        est = beta_proxy_estimate(BetaParams(1, 2))
        assert 1.0 / 18.0 * (1 - 1e-9) <= est.value <= 1.0 / 16.0 + 1e-4

    def test_nonfinite_log_mgf_raises(self):
        with pytest.raises(OverflowError):
            variance_proxy_sup(lambda lam: math.inf, 0.0, 10.0)

    @pytest.mark.parametrize("call, message", [
        # NaN once raised OverflowError "log-MGF is not finite at lambda=nan"
        (lambda: variance_proxy_sup(lambda lam: 0.0, 0.0, math.nan),
         "lambda_cap must be positive and finite, got nan"),
        # inf once built a grid of NaN and inf magnitudes, with two RuntimeWarnings
        (lambda: variance_proxy_sup(lambda lam: 0.5 * lam * lam, 0.0, math.inf),
         "lambda_cap must be positive and finite, got inf"),
        (lambda: variance_proxy_sup(lambda lam: 0.0, 0.0, 0.0), "lambda_cap must be positive and finite, got 0.0"),
        (lambda: weighted_proxy_sup([0.0, 1.0], [0.5, 0.5], math.nan), "cap must be positive, got nan"),
        (lambda: weighted_proxy_sup([0.0, 1.0], [0.5, 0.5], 0.0), "cap must be positive, got 0.0"),
        (lambda: weighted_proxy_sup([0.0, 1.0], [0.5, 0.5], -1.0), "cap must be positive, got -1.0"),
        # the grid's lambda^2 would be subnormal: the two-point ratio reads 1/4 (1 + 1.1e-7) at a
        # cap of 1e-155, and divides by 0 at 1e-160
        (lambda: variance_proxy_sup(lambda lam: 0.0, 0.0, 1e-160),
         "a lambda cap of 1e-160 is too small: lambda^2 underflows"),
        (lambda: weighted_proxy_sup([0.0, 1.0], [0.5, 0.5], 1e-155),
         "a lambda cap of 1e-155 is too small: lambda^2 underflows"),
    ])
    def test_cap_validation(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    def test_caps_below_the_unit_floor_are_scanned(self):
        # a cap at or below 1e-3 was once refused; the grid now starts at 1e-3 of it. The
        # Gaussian's ratio is its variance at every lambda, and the symmetric two-point law's
        # is 1/4 (1 - lambda^2 / 12 + ...), within 1e-9 of 1/4 at |lambda| <= 1e-4
        est = variance_proxy_sup(lambda lam: 0.3 * lam + 0.35 * lam * lam, 0.3, 1e-5)
        assert est.value == pytest.approx(0.7, rel=1e-6)
        assert est.grid_spec.startswith("signed log grid |lambda| in [1e-08, 1e-05], ")
        est = weighted_proxy_sup([0.0, 1.0], [0.5, 0.5], 1e-4)
        assert 0.25 * (1 - 1e-9) <= est.value <= 0.25 * (1 + 2e-15)
        assert est.grid_spec.startswith("signed log grid |lambda| in [1e-07, 0.0001], ")

    @pytest.mark.parametrize("log_mgf, mean, cap", [
        (lambda lam: 0.3 * lam + 0.35 * lam * lam, 0.3, 50.0),
        (lambda lam: beta_log_mgf(BetaParams(1, 2), lam), 1.0 / 3.0, 20.0),
    ], ids=["gaussian", "beta"])
    def test_plain_callable_reads_like_the_walk(self, log_mgf, mean, cap):
        assert_reads_like_the_walk(log_mgf, mean, cap)

    def test_estimate_reports_grid(self):
        est = beta_proxy_estimate(BetaParams(2, 2))
        assert "log grid" in est.grid_spec

    def test_evaluations_count_the_log_mgf_calls(self):
        calls = []

        def log_mgf(lam):  # Beta(1, 2), whose supremum is inside the grid
            calls.append(lam)
            return beta_log_mgf(BetaParams(1, 2), lam)

        est = variance_proxy_sup(log_mgf, 1.0 / 3.0, 20.0)
        assert est.evaluations == len(calls)
        assert est.evaluations > 2 * 200  # the grid, then the bracket and its refinement

    def test_refinement_reads_at_most_half_as_many_points_as_golden_section(self):
        refined = golden = 0
        for a in GRID:
            for b in GRID:
                p = BetaParams(a, b)
                mean, var = beta_mean_var(p)
                reach, cap = (1.0 - mean, mean), 2 * max(1.0 - mean, mean) / var
                kernel = counting(beta_centered_log_mgf(p))
                _certified_scan(kernel, reach, var)
                on_grid = set(scan_grid(cap, reach).tolist())
                refined += sum(lam not in on_grid for lam in kernel.calls)  # Brent's reads
                golden += refine_reference(beta_centered_log_mgf(p), 0.0, cap, reach).golden_calls
        assert 2 * refined <= golden  # 894 against 3311 when written


class TestBetaBoundChecks:
    def test_uniform(self):
        check = check_beta_bound(BetaParams(1, 1))
        assert check.bound == pytest.approx(0.1)
        assert check.tau2_est == pytest.approx(1.0 / 12.0, abs=1e-4)
        assert check.passed

    def test_beta_1_2(self):
        check = check_beta_bound(BetaParams(1, 2))
        assert check.bound == pytest.approx(1.0 / 14.0)
        assert check.passed

    def test_beta_50_50(self):
        check = check_beta_bound(BetaParams(50, 50))
        assert check.bound == pytest.approx(1.0 / 402.0)
        assert check.tau2_est == pytest.approx(2500.0 / (10000.0 * 101.0), rel=1e-4)
        assert check.passed

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 5.0])
    def test_symmetric_is_strictly_subgaussian(self, a):
        p = BetaParams(a, a)
        bound = beta_tight_proxy_bound(p)
        _, var = beta_mean_var(p)
        # at alpha=beta the tight bound equals the variance and is attained
        assert bound == pytest.approx(var, rel=1e-12)
        assert beta_proxy_estimate(p).value / bound == pytest.approx(1.0, abs=1e-3)

    def test_asymmetric_tight_ratio(self):
        p = BetaParams(1, 9)
        assert beta_proxy_estimate(p).value / beta_tight_proxy_bound(p) <= 1.0 + 1e-3


def mpmath_ratio(a, b, lam):
    """2 (ln 1F1(a; a+b; lam) - lam a/(a+b)) / lam^2 at 50 digits: the exact Beta ratio."""
    with mpmath.workdps(50):
        a, b, lam = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(lam)
        m = mpmath.hyp1f1(a, a + b, lam, maxterms=10**6, maxprec=20000)
        return float(2 * (mpmath.log(m) - lam * a / (a + b)) / lam**2)


def quadrature_ratio(a, b, lam, widths=40):
    """2 K(lam) / lam^2 of Beta(a, b) at 30 digits, K(lam) = ln E e^(lam (X - mu)) by quadrature
    of x^(a-1) (1-x)^(b-1) e^(lam x) over ``widths`` widths either side of its mode."""
    with mpmath.workdps(30):
        a, b, lam = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(lam)

        def log_density(x):
            return (a - 1) * mpmath.log(x) + (b - 1) * mpmath.log1p(-x) + lam * x

        # the tilted mode solves (a-1)/x - (b-1)/(1-x) + lam = 0, times x (1-x) a quadratic
        mode = next(x for x in mpmath.polyroots([lam, a + b - 2 - lam, 1 - a]) if 0 < x < 1)
        width = 1 / mpmath.sqrt((a - 1) / mode**2 + (b - 1) / (1 - mode) ** 2)
        peak = log_density(mode)
        mass = mpmath.quad(lambda x: mpmath.exp(log_density(x) - peak),
                           [max(mode - widths * width, 0), mode, min(mode + widths * width, 1)])
        k = peak + mpmath.log(mass) - mpmath.log(mpmath.beta(a, b)) - lam * a / (a + b)
        return float(2 * k / lam**2)


class TestBetaProxyProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        log_a=st.floats(math.log(1e-2), math.log(1e5)),
        log_b=st.floats(math.log(1e-2), math.log(1e5)),
        symmetric=st.booleans(),
    )
    @example(log_a=math.log(5e5), log_b=math.log(5e5), symmetric=True)
    @example(log_a=math.log(1e5), log_b=math.log(9e5), symmetric=False)
    @example(log_a=math.log(9.9e5), log_b=math.log(1e4), symmetric=False)
    @example(log_a=math.log(0.01), log_b=math.log(1e5), symmetric=False)
    @example(log_a=math.log(0.5), log_b=math.log(3000.0), symmetric=False)
    @example(log_a=math.log(2e4), log_b=math.log(2e4), symmetric=True)
    @example(log_a=math.log(50.0), log_b=math.log(50.0), symmetric=True)
    def test_estimate_is_the_supremum(self, log_a, log_b, symmetric):
        a = math.exp(log_a)
        b = a if symmetric else math.exp(log_b)
        p = BetaParams(a, b)
        est = beta_proxy_estimate(p)
        _, var = beta_mean_var(p)
        assert var * (1 - 1e-6) <= est.value <= (1 + 1e-12) / (4 * (a + b + 1))
        if a == b:  # strictly subgaussian: the supremum is Var, at lambda -> 0
            assert est.value <= var * (1 + 1e-12)
        if abs(est.argmax_lambda) <= 1e4:
            want = mpmath_ratio(a, b, est.argmax_lambda)
            assert est.value == pytest.approx(want, rel=1e-10)

    def test_default_arguments_cover_large_totals(self):
        assert check_beta_bound(BetaParams(2e4, 2e4)).passed
        for p in (BetaParams(0.5, 3000), BetaParams(0.01, 1e5), BetaParams(5e5, 5e5)):
            start = time.perf_counter()
            est = beta_proxy_estimate(p)
            assert math.isfinite(est.value) and time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("a, b", [(1.0, 1e14), (1.0, 1e10), (5e11, 5e11), (1e300, 1e300)])
    def test_far_totals_raise_in_bounded_time(self, a, b):
        # the raw series needs O(sqrt(lambda)) terms; past 2^18 it raises
        # rather than building arrays that grow with alpha + beta. At 1e300 its
        # peak is not a finite float, and int(nan) once escaped as a ValueError
        start = time.perf_counter()
        with pytest.raises(OverflowError, match="needs more than 262144 terms"):
            beta_proxy_estimate(BetaParams(a, b))
        assert time.perf_counter() - start < 1.0

    @settings(max_examples=30, deadline=None)
    @given(
        log_a=st.floats(math.log(1e-300), math.log(1e-2)),
        log_b=st.floats(math.log(1e-300), math.log(1e-2)),
    )
    @example(log_a=math.log(1e-300), log_b=math.log(1e-300))
    @example(log_a=math.log(1e-300), log_b=math.log(2e-300))
    def test_tiny_shapes_stay_between_var_and_the_tight_bound(self, log_a, log_b):
        # (alpha + beta)^2 underflows below 1e-154; Var and the series avoid forming it
        p = BetaParams(math.exp(log_a), math.exp(log_b))
        _, var = beta_mean_var(p)
        est = beta_proxy_estimate(p)
        assert var * (1 - 1e-6) <= est.value <= beta_tight_proxy_bound(p) * (1 + 1e-12)

    def test_large_total_answers_where_no_raw_series_value_is_needed(self):
        # Beta(5e6, 5e7)'s raw series fails from lambda of about 2.3e8 out, at walked points
        # that the reach line rules out (the argmax is 1.36e8); Beta(1, 3e7) needs such a value
        est = beta_proxy_estimate(BetaParams(5e6, 5e7))
        assert est.value == pytest.approx(quadrature_ratio(5e6, 5e7, est.argmax_lambda), rel=1e-12)
        with pytest.raises(OverflowError, match="terms"):
            beta_proxy_estimate(BetaParams(1.0, 3e7))

    def test_underflowed_variance_is_refused(self):
        # Var(Beta(1e150, 1)) = 1e-300 is representable; that of Beta(1e300, 1) is not
        assert beta_mean_var(BetaParams(1e150, 1.0))[1] == pytest.approx(1e-300, rel=1e-15)
        with pytest.raises(ValueError, match="no lambda cap"):
            beta_proxy_estimate(BetaParams(1e300, 1.0))


class TestRawMomentCriterion:
    def test_uniform_with_provable_sigma2(self):
        seq = beta_raw_moments(BetaParams(1, 1), 10)
        lhs, rhs = raw_moment_criterion(seq, 1.0 / 6.0)
        assert lhs.shape == rhs.shape == (9,)
        assert not (lhs > rhs).any()
        # j=0 instance: 1/3 <= 1/4 + 1/6
        assert seq[2] / seq[0] == pytest.approx(1.0 / 3.0)

    def test_uniform_j0(self):
        lhs, rhs = raw_moment_criterion(beta_raw_moments(BetaParams(1, 1), 2), 1.0 / 6.0)
        assert lhs[0] == pytest.approx(1.0 / 3.0)
        assert rhs[0] == pytest.approx(0.25 + 1.0 / 6.0)

    def test_beta_1_2_j1(self):
        # sigma^2 = 1/(2(alpha + beta + 1)) = 1/8
        lhs, rhs = raw_moment_criterion(beta_raw_moments(BetaParams(1, 2), 3), 1.0 / 8.0)
        assert lhs[1] == pytest.approx(0.3)
        assert rhs[1] == pytest.approx(1.0 / 9.0 + 0.25)

    def test_sides_are_the_closed_form_ratio(self):
        # lhs_j = (alpha+j)(alpha+j+1)/((s+j)(s+j+1)), rhs_j = mu^2 + (j+1) sigma^2
        p = BetaParams(0.3, 4.0)
        a, s = p.alpha, p.total
        lhs, rhs = raw_moment_criterion(beta_raw_moments(p, 60), 0.02)
        j = np.arange(59.0)
        assert lhs == pytest.approx((a + j) * (a + j + 1) / ((s + j) * (s + j + 1)), rel=1e-13)
        assert rhs == pytest.approx((a / s) ** 2 + (j + 1) * 0.02, rel=1e-15)

    def test_zero_violations_on_grid(self):
        for a in GRID:
            for b in GRID:
                p = BetaParams(a, b)
                lhs, rhs = raw_moment_criterion(beta_raw_moments(p, 200), 1 / (2 * (p.total + 1)))
                assert not (lhs > rhs).any()

    def test_two_hundred_moments_cover_every_j_on_the_grid(self):
        # rhs >= 1 > lhs once j + 1 >= 2(s+1)(1 - mu^2), so lemma_checks' j <= 198 covers all j
        for a in GRID:
            for b in GRID:
                s = a + b
                assert 2 * (s + 1) * (1 - (a / s) ** 2) <= 199

    def test_large_j_dominated_by_linear_growth(self):
        p = BetaParams(2, 3)
        lhs, rhs = raw_moment_criterion(beta_raw_moments(p, 502), 1 / (2 * (p.total + 1)))
        assert lhs.size == 501 and lhs[-1] < 1.0 < rhs[-1]

    def test_huge_sigma2_trivially_passes(self):
        lhs, rhs = raw_moment_criterion(beta_raw_moments(BetaParams(0.2, 7.0), 50), 1.5)
        assert not (lhs > rhs).any()

    def test_sigma2_below_variance_fails_at_j0(self):
        p = BetaParams(2, 2)
        _, var = beta_mean_var(p)
        lhs, rhs = raw_moment_criterion(beta_raw_moments(p, 10), 0.5 * var)
        assert np.flatnonzero(lhs > rhs)[0] == 0

    def test_chi_moments_with_unit_sigma2(self):
        for k in (1, 3, 20):
            values = tuple(chi_raw_moment(k, j) for j in range(203))
            lhs, rhs = raw_moment_criterion(values, 1.0)
            assert not (lhs > rhs).any()

    def test_positivity_precondition(self):
        for moments, sigma2 in [
            ([1.0, 0.5, -0.1], 1.0),  # a non-positive moment
            ([1.0, 0.5, 0.3], 0.0),  # sigma2 <= 0
            ([], 1.0),  # empty
            ([[1.0, 0.5], [0.5, 0.3]], 1.0),  # not 1-D
        ]:
            with pytest.raises(ValueError):
                raw_moment_criterion(np.array(moments), sigma2)

    @pytest.mark.parametrize(
        "moments, sigma2",
        [
            ([1.0, 0.5, math.nan, 0.2], 1.0),  # a NaN moment would compare false and pass
            ([1.0, 0.5, math.inf, 0.2], 1.0),
            ([1.0], 1.0),  # fewer than three moments check no j
            ([1.0, 0.5], 1.0),
            ([1.0, 0.5, 0.3], math.nan),
            ([1.0, 0.5, 0.3], math.inf),
        ],
    )
    def test_inputs_it_cannot_judge_are_refused(self, moments, sigma2):
        with pytest.raises(ValueError):
            raw_moment_criterion(moments, sigma2)


class TestTermwiseComparison:
    def test_power_zero(self):
        lhs, rhs = termwise_mgf_comparison(BetaParams(3, 4), 0.05, 4)
        assert lhs.shape == rhs.shape == (5,)
        assert (lhs[0], rhs[0]) == (1.0, 1.0)

    def test_halved_exponent_counterexample(self):
        # at (1,2) with sigma2 = 1/16 the lambda^4 coefficients flip order
        lhs, rhs = termwise_mgf_comparison(BetaParams(1, 2), 1.0 / 16.0, 8)
        assert lhs[4] == pytest.approx(1.0 / 360.0, rel=1e-12)
        assert rhs[4] == pytest.approx(1363.0 / 497664.0, rel=1e-12)
        assert lhs[4] > rhs[4]

    def test_provable_exponent_dominates_termwise(self):
        lhs, rhs = termwise_mgf_comparison(BetaParams(1, 2), 1.0 / 8.0, 40)
        assert (lhs <= rhs * (1 + 1e-12)).all()

    def test_k_max_validation(self):
        with pytest.raises(ValueError):
            termwise_mgf_comparison(BetaParams(1, 1), 0.1, 1)
        # 170! is the largest factorial below the float range; 171 once raised a bare
        # OverflowError "int too large to convert to float"
        lhs, rhs = termwise_mgf_comparison(BetaParams(1, 1), 0.1, 170)
        assert lhs.size == rhs.size == 171 and np.isfinite(lhs).all() and np.isfinite(rhs).all()
        with pytest.raises(ValueError, match=r"^k_max must be at most 170, got 171: 171! is past the float range$"):
            termwise_mgf_comparison(BetaParams(1, 1), 0.1, 171)

    @pytest.mark.parametrize("sigma2", [math.nan, math.inf, 0.0, -0.1])
    def test_sigma2_must_be_positive_and_finite(self, sigma2):
        with pytest.raises(ValueError, match="sigma2 must be positive and finite"):
            termwise_mgf_comparison(BetaParams(1, 2), sigma2, 6)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: tail_bound(True, 1.0), id="tail_bound"),
        pytest.param(lambda: raw_moment_criterion([1.0, 0.5, 0.3], True), id="raw_moment_criterion"),
        pytest.param(lambda: termwise_mgf_comparison(BetaParams(1, 2), True, 4),
                     id="termwise_mgf_comparison"),
    ],
)
def test_sigma2_is_refused_unless_real(call):
    # True once passed as sigma2 = 1.0
    with pytest.raises(ValueError, match="sigma2 must be a real number, got True"):
        call()


class TestTailBound:
    def test_values(self):
        assert tail_bound(0.1, 0.3) == pytest.approx(math.exp(-0.45), rel=1e-14)
        assert tail_bound(1.0 / 400.0, 0.1) == pytest.approx(math.exp(-2.0), rel=1e-14)

    def test_epsilon_zero_gives_one(self):
        assert tail_bound(0.2, 0.0) == 1.0

    @pytest.mark.parametrize("sigma2, epsilon", [(math.nan, 0.1), (math.inf, 0.1), (0.0, 0.1),
                                                 (0.1, math.nan), (0.1, -0.1)])
    def test_refuses_what_bounds_nothing(self, sigma2, epsilon):
        # tail_bound(nan, eps) would be NaN, and tail_bound(inf, eps) a vacuous 1
        with pytest.raises(ValueError):
            tail_bound(sigma2, epsilon)

    @pytest.mark.parametrize("epsilon", [True, "0.2"])
    def test_epsilon_is_refused_unless_real(self, epsilon):
        # True was read as 1.0, and "0.2" raised a bare TypeError from >=
        with pytest.raises(ValueError, match=f"epsilon must be a real number, got {epsilon!r}"):
            tail_bound(0.1, epsilon)

    def test_monotonicities(self):
        eps = np.linspace(0.05, 1.0, 30)
        bounds = [tail_bound(0.05, e) for e in eps]
        assert all(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:]))
        sig = np.linspace(0.01, 1.0, 30)
        bounds = [tail_bound(s, 0.4) for s in sig]
        assert all(b1 <= b2 for b1, b2 in zip(bounds, bounds[1:]))

    def test_empirical_tail_beta_2_3(self):
        p = BetaParams(2, 3)
        sigma2 = beta_proxy_bound(p)
        draws = sample(p, SeedSpec(77), 10**7)
        mean, _ = beta_mean_var(p)
        for eps in (0.1, 0.2, 0.3):
            freq = float((draws - mean >= eps).mean())
            se = math.sqrt(max(freq * (1 - freq), 1e-7) / draws.size)
            assert freq <= tail_bound(sigma2, eps) + 4.0 * se


class TestTailFrequencies:
    def test_rows(self):
        deviations = np.array([0.05, 0.15, 0.25, 0.35])
        rows = tail_frequencies(deviations, 0.01, (0.1, 0.3), sides=2)
        se = math.sqrt((1.0 / 4) / 4)  # floored at one event in 4: 0.75 * 0.25 < 1/4
        assert rows == ((0.1, 0.75, 1.0, se),  # 2 exp(-1/2) > 1
                        (0.3, 0.25, 2.0 * tail_bound(0.01, 0.3), se))

    @pytest.mark.parametrize("sides", [0, 3, True, 2.0])
    def test_sides_are_one_or_two(self, sides):
        # sides=3 once tripled the bound
        with pytest.raises(ValueError, match="sides must be"):
            tail_frequencies(np.array([0.1, 0.2]), 0.01, (0.1,), sides=sides)

    def test_a_list_reads_as_its_array(self):
        # a list once raised AttributeError: 'list' object has no attribute 'size'
        deviations = [0.05, 0.15, 0.25, 0.35]
        assert (tail_frequencies(deviations, 0.01, (0.1, 0.3), sides=1)
                == tail_frequencies(np.array(deviations), 0.01, (0.1, 0.3), sides=1))

    def test_no_deviations_are_refused(self):
        # the mean of an empty array once escaped as a RuntimeWarning
        with pytest.raises(ValueError, match="at least one deviation"):
            tail_frequencies(np.array([]), 0.01, (0.1,), sides=1)

    @pytest.mark.parametrize("deviations, message", [
        # a NaN once counted as below every eps: [nan, 0.1] reported 0.5 at eps = 0.1
        (np.array([math.nan, 0.1]), "deviations must be finite"),
        (np.array([math.inf, 0.1]), "deviations must be finite"),
        # a 2-D array was once pooled
        (np.array([[0.05, 0.15], [0.25, 0.35]]), r"deviations must be 1-D, got shape \(2, 2\)"),
        (0.1, r"deviations must be 1-D, got shape \(\)"),
    ])
    def test_deviations_that_are_not_finite_and_1d_are_refused(self, deviations, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            tail_frequencies(deviations, 0.01, (0.1,), sides=1)


class TestAffineScaling:
    # tau^2(aX + b) = a^2 tau^2(X): the scan of a weighted law (here a Beta
    # prior's Gauss rule) is equivariant, and so is the Beta series under X -> 1 - X
    def test_translation_invariance(self):
        points, weights = _prior_rule(BetaParams(2, 5))
        base = weighted_proxy_sup(points, weights)
        moved = weighted_proxy_sup(points + 0.37, weights)
        assert moved.value == pytest.approx(base.value, rel=1e-6)

    def test_doubling_quadruples(self):
        points, weights = _prior_rule(BetaParams(1, 1))
        base = weighted_proxy_sup(points, weights)
        doubled = weighted_proxy_sup(2.0 * points, weights)
        assert doubled.value == pytest.approx(4.0 * base.value, rel=1e-4)

    def test_zero_scale_rejected(self):
        # 0 * X is constant: Var = 0 leaves the scan no cap
        points, weights = _prior_rule(BetaParams(1, 1))
        with pytest.raises(ValueError, match="no lambda cap"):
            weighted_proxy_sup(0.0 * points, weights)

    def test_overflowing_variance_rejected(self):
        # Var of {0, 1e300} is 2.5e599; its overflow once escaped as a RuntimeWarning
        with pytest.raises(ValueError, match="Var = inf leaves no lambda cap"):
            weighted_proxy_sup([0.0, 1e300], [0.5, 0.5])

    def test_reflection_matches_swapped_params(self):
        for a in GRID:
            for b in GRID:
                left = beta_proxy_estimate(BetaParams(a, b)).value
                right = beta_proxy_estimate(BetaParams(b, a)).value
                assert left == pytest.approx(right, rel=1e-12)


class TestProxyNormProperties:
    def test_triangle_inequality_for_independent_sum(self):
        # log-MGFs add for independent variables
        x, y = BetaParams(1, 1), BetaParams(2, 3)
        mx, _ = beta_mean_var(x)
        my, _ = beta_mean_var(y)

        def log_mgf_sum(lam):
            return beta_log_mgf(x, lam) + beta_log_mgf(y, lam)

        tau_sum = math.sqrt(variance_proxy_sup(log_mgf_sum, mx + my, 100.0).value)
        tau_parts = math.sqrt(beta_proxy_estimate(x).value) + math.sqrt(
            beta_proxy_estimate(y).value
        )
        assert tau_sum <= tau_parts * (1 + 1e-6)

    def test_variance_lower_bound_on_grid_sample(self):
        for a, b in [(0.1, 0.1), (0.5, 5.0), (2.0, 2.0), (50.0, 0.25)]:
            p = BetaParams(a, b)
            _, var = beta_mean_var(p)
            est = beta_proxy_estimate(p)
            assert est.value >= var - 1e-6
            assert est.value <= beta_proxy_bound(p) * (1 + 1e-6)


class TestEmpiricalLogMgf:
    def test_matches_exact_on_beta_samples(self):
        p = BetaParams(2, 2)
        draws = sample(p, SeedSpec(5), 10**6)
        log_mgf, cap = empirical_log_mgf(draws)
        assert cap == pytest.approx(math.log(1e6 / 1e3))
        for lam in (-cap, -1.0, 0.5, cap):
            assert log_mgf(lam) == pytest.approx(beta_log_mgf(p, lam), abs=5e-3)

    def test_needs_enough_samples(self):
        with pytest.raises(ValueError):
            empirical_log_mgf(np.ones(10))


@st.composite
def weighted_laws(draw):
    """2-40 points in [0, 1], two of them at least 1e-3 apart, with weights spread over e^6."""
    n = draw(st.integers(2, 40))
    low = draw(st.floats(0.0, 0.999))
    gap = draw(st.floats(1e-3, 1.0 - low))
    rest = draw(st.lists(st.floats(0.0, 1.0), min_size=n - 2, max_size=n - 2))
    log_w = draw(st.lists(st.floats(-6.0, 0.0), min_size=n, max_size=n))
    w = np.exp(log_w)
    return np.array([low, low + gap, *rest]), w / w.sum()


def mpmath_log_mgf(v, w, mean, lam):
    """ln sum_i w_i e^(lam (v_i - mean)) / sum_i w_i in 50-digit mpmath, centered at ``mean``."""
    with mpmath.workdps(50):
        lam_mp, mean_mp = mpmath.mpf(lam), mpmath.mpf(mean)
        terms = [mpmath.mpf(wi) * mpmath.exp(lam_mp * (mpmath.mpf(vi) - mean_mp))
                 for vi, wi in zip(v, w)]
        return float(mpmath.log(mpmath.fsum(terms) / mpmath.fsum(map(mpmath.mpf, w))))


class TestWeightedLogMgf:
    def test_bernoulli_law_and_certified_cap(self):
        p = 0.2
        log_mgf, mean, reach, var = weighted_log_mgf(np.array([0.0, 1.0]), np.array([1 - p, p]))
        assert mean == pytest.approx(p, rel=1e-15)
        assert reach == pytest.approx((1 - p, p), rel=1e-15)
        assert var == pytest.approx(p * (1 - p), rel=1e-14)
        cap = 2 * (1 - p) / (p * (1 - p))
        assert f"{cap:g}]" in _certified_scan(log_mgf, reach, var).grid_spec
        for lam in (-40.0, -1.5, 1e-3, 0.7, 40.0):  # both branches
            want = math.log1p(p * math.expm1(lam)) - lam * p
            assert log_mgf(lam) == pytest.approx(want, rel=1e-12)
        # past the cap the ratio is below Var, its limit at 0
        for lam in (-cap * 1.01, cap * 1.01):
            assert 2 * log_mgf(lam) / lam**2 < p * (1 - p)

    def test_independent_of_blas_threads(self):
        # a threaded BLAS dot product rounds differently with the thread count
        code = (
            "import numpy as np\n"
            "from subgauss.concentration import weighted_log_mgf\n"
            "rng = np.random.default_rng(3)\n"
            "v, w = rng.random(20000), rng.random(20000)\n"
            "log_mgf, mean, reach, var = weighted_log_mgf(v, w / w.sum())\n"
            "print(repr((mean, reach, var, log_mgf(0.3), log_mgf(-7.0))))\n"
        )
        src = str(Path(subgauss.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
            run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                 text=True, check=True)
            outputs.append(run.stdout)
        assert outputs[0] == outputs[1]

    def test_constant_law_is_refused(self):
        with pytest.raises(ValueError):  # Var = 0: no cap; evaluate_model reports 0
            weighted_log_mgf(np.full(4, 0.5), np.full(4, 0.25))

    @pytest.mark.parametrize("weights", [
        [0.2, 0.2, 0.2],  # once tau^2 = 480.4 from weighted_proxy_sup
        [0.6, 0.6, -0.2],  # once a RuntimeWarning from log1p
        [0.5, 0.5, math.nan],  # once dropped with the zero weights
        [0.5, 0.5, math.inf],
    ])
    def test_weights_that_are_not_a_law_are_refused(self, weights):
        for call in (weighted_log_mgf, weighted_proxy_sup):
            with pytest.raises(ValueError, match="weights must be finite, nonnegative and sum to 1"):
                call(np.array([0.0, 1.0, 2.0]), np.array(weights))

    def test_weights_that_are_not_1d_are_refused(self):
        # once refused as "values must be finite, 1-D and of the weights' shape (1, 2)"
        for call in (weighted_log_mgf, weighted_proxy_sup):
            with pytest.raises(ValueError, match=r"^weights must be 1-D, got shape \(1, 2\)$"):
                call(np.array([0.0, 1.0]), np.array([[0.5, 0.5]]))

    @pytest.mark.parametrize("values, shape", [
        ([0.0, 1.0, math.inf], "(3,)"),  # once a RuntimeWarning from subtract
        ([0.0, 1.0, math.nan], "(3,)"),  # once "Var = nan leaves no lambda cap"
        ([0.0, 1.0, 2.0, 3.0], "(4,)"),  # once numpy's einsum "operands could not be broadcast"
        ([[0.0, 1.0, 2.0]], "(1, 3)"),
    ])
    def test_values_that_do_not_fit_the_weights_are_refused(self, values, shape):
        message = f"values must be finite, 1-D and of the weights' shape (3,), got {shape}"
        for call in (weighted_log_mgf, weighted_proxy_sup):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call(np.array(values), np.full(3, 1.0 / 3.0))

    def test_monte_carlo_weights_are_a_law(self):
        # 1/N summed over the CLI's default 200 000 draws is off 1 by rounding alone
        n = 200_000
        assert weighted_log_mgf(np.linspace(0.0, 1.0, n), np.full(n, 1.0 / n))[1] == pytest.approx(0.5)

    def test_zero_weights_leave_the_support(self):
        log_mgf, mean, reach, var = weighted_log_mgf(np.array([0.0, 0.3, 1.0, -5.0]),
                                                     np.array([0.5, 0.5, 0.0, 0.0]))
        support = weighted_log_mgf(np.array([0.0, 0.3]), np.array([0.5, 0.5]))
        assert (mean, reach, var) == support[1:]
        for lam in (-50.0, -2.0, 0.5, 3.0, 50.0):  # both branches
            assert log_mgf(lam) == support[0](lam)

    @settings(max_examples=30, deadline=None)
    @given(law=weighted_laws(), scale=st.floats(0.1, 1.0), negative=st.booleans())
    def test_series_of_a_wide_law(self, law, scale, negative):
        # the Taylor table sums running powers x^k, and x^21 is finite while max|x| <= 4.6e14:
        # a law of that width keeps the series branch to the mpmath bound above
        v, w = law
        v = v / (v.max() - v.min()) * 4.5e14
        log_mgf, mean, _, _ = weighted_log_mgf(v, w)
        lam = (-scale if negative else scale) / (v.max() - v.min())
        assert log_mgf(lam) == pytest.approx(mpmath_log_mgf(v, w, mean, lam), rel=1e-12)

    def test_series_past_the_accepted_width_raises(self):
        # wider than 4.6e14, x^21 overflows: the series branch (|lam| <= 1e-15 here) raises,
        # and the far branch still answers
        log_mgf = weighted_log_mgf(np.array([0.0, 1e15]), np.array([0.5, 0.5]))[0]
        with pytest.raises(OverflowError, match="x\\^21 overflows"):
            log_mgf(5e-16)
        assert log_mgf(2e-15) == pytest.approx(math.log(math.cosh(1.0)), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(law=weighted_laws(), scale=st.floats(0.1, 10.0), negative=st.booleans())
    def test_matches_mpmath_on_both_sides_of_the_series_switch(self, law, scale, negative):
        # the near-zero series serves |lam| (max v - min v) <= 1, the shifted sum the rest
        v, w = law
        log_mgf, mean, _, _ = weighted_log_mgf(v, w)
        lam = (-scale if negative else scale) / (v.max() - v.min())
        assert log_mgf(lam) == pytest.approx(mpmath_log_mgf(v, w, mean, lam), rel=1e-12)


def continuity_gap(log_mgf, switch):
    """Relative jump of log_mgf across |lam| = switch on each sign, the near side extrapolated."""
    step, gaps = 1e-12 * switch, []
    for edge in (switch, -switch):
        inner, outer = edge * (1 - 1e-12), edge * (1 + 1e-12)
        predicted = 2 * log_mgf(inner) - log_mgf(inner - math.copysign(2 * step, edge))
        gaps.append(abs(log_mgf(outer) / predicted - 1))
    return max(gaps)


class TestSeriesSwitchContinuity:
    @pytest.mark.parametrize("a, b", [(1, 1), (2, 5), (5, 2), (0.3, 40), (1e3, 10), (2e5, 3e5)])
    def test_beta(self, a, b):
        assert continuity_gap(beta_centered_log_mgf(BetaParams(a, b)), 1.0) <= 1e-13

    @pytest.mark.parametrize("n", [2, 3, 8, 32])
    def test_weighted(self, n):
        rng = np.random.default_rng(n)
        v = np.concatenate([[0.0, 1.0], rng.random(n - 2)]) * rng.uniform(1e-3, 1.0)
        w = rng.random(n) ** 3
        log_mgf = weighted_log_mgf(v, w / w.sum())[0]
        assert continuity_gap(log_mgf, 1.0 / (v.max() - v.min())) <= 1e-13


def scan_grid(cap, reach=(1.0, 1.0)):
    """The scan's signed grid to ``cap``, 200 points per sign, for a law of ``reach`` (by
    default one in [0, 1], whose grid starts at 1e-3 for a cap of at least 1)."""
    magnitudes = scan_magnitudes(cap, reach)
    return np.concatenate([-magnitudes[::-1], magnitudes])


def around(*edges):
    """Each edge, its float neighbours and their mirror images."""
    points = [q for e in edges for q in (math.nextafter(e, 0.0), e, math.nextafter(e, math.inf))]
    return np.array(points + [-q for q in points])


def handovers(log_mgf, lams):
    """Adjacent floats either side of each switch between a value and NaN in the array form."""
    nan = np.isnan(log_mgf.grid(lams))
    points = []
    for i in np.flatnonzero((nan[:-1] != nan[1:]) & (lams[:-1] * lams[1:] > 0)):
        a, b = float(lams[i]), float(lams[i + 1])
        while math.nextafter(a, b) != b:
            mid = 0.5 * (a + b)
            if mid in (a, b):
                break
            if np.isnan(log_mgf.grid(np.array([mid])))[0] == nan[i]:
                a = mid
            else:
                b = mid
        points += [a, b]
    return np.array(points)


def assert_array_form_is_scalar_form(log_mgf, lams):
    """The array form's value at each lam is == the scalar form's, or NaN; returns the NaN points."""
    values = log_mgf.grid(lams)
    for lam, value in zip(lams.tolist(), values.tolist()):
        if not math.isnan(value):
            assert value == log_mgf(lam), lam
    return lams[np.isnan(values)]


def assert_reads_like_the_walk(log_mgf, mean, cap):
    """`variance_proxy_sup` gives `loop_scan`'s estimate of the centered kernel, from as many
    reads: its array form declines no point, so the scan reads every walked point."""
    estimate = variance_proxy_sup(log_mgf, mean, cap)
    walk = loop_scan(lambda lam: log_mgf(lam) - lam * mean, cap, (math.inf, math.inf))
    fields = [(e.value, e.argmax_lambda, e.grid_spec, e.evaluations) for e in (estimate, walk)]
    assert fields[0] == fields[1]


def scalar_only(log_mgf):
    """``log_mgf`` without its array form, so `loop_scan` reads every walked point by the scalar form."""
    return lambda lam: log_mgf(lam)


def assert_same_estimate(estimate, reference):
    """``estimate`` has ``reference``'s value, argmax and grid, from no more log-MGF reads."""
    fields = [(e.value, e.argmax_lambda, e.grid_spec) for e in (estimate, reference)]
    assert fields[0] == fields[1]
    assert estimate.evaluations <= reference.evaluations


class TestArrayForm:
    """The scan reads a bounded-law kernel's array form; its values and the estimates are ==."""

    @settings(max_examples=40, deadline=None)
    @given(
        log_a=st.floats(math.log(1e-3), math.log(1e6)),
        log_b=st.floats(math.log(1e-3), math.log(1e6)),
    )
    @example(log_a=math.log(1e-3), log_b=math.log(1e6))
    @example(log_a=math.log(1e6), log_b=math.log(1e-3))
    @example(log_a=math.log(1e6), log_b=math.log(1e6))
    @example(log_a=math.log(2.0), log_b=math.log(5.0))
    @example(log_a=math.log(5.0), log_b=math.log(2.0))
    def test_beta(self, log_a, log_b):
        p = BetaParams(math.exp(log_a), math.exp(log_b))
        log_mgf = beta_centered_log_mgf(p)
        mean, var = beta_mean_var(p)
        reach = (1.0 - mean, mean)
        grid = scan_grid(2 * max(reach) / var)
        lams = np.concatenate([grid, around(1.0), handovers(log_mgf, grid)])
        # NaN only past the Taylor branch, where the raw series may take over
        assert (np.abs(assert_array_form_is_scalar_form(log_mgf, lams)) > 1.0).all()
        walk = loop_scan(scalar_only(log_mgf), 2 * max(reach) / var, reach)
        assert_same_estimate(beta_proxy_estimate(p), walk)

    @pytest.mark.parametrize("a, b", [(5e6, 5e7), (3e7, 3e7)])
    def test_beta_largest_totals(self, a, b):
        # two of the largest laws the scan answers: central rows whose top term is past
        # e^700, and, at mu = 1/2, the table's -1e300 entries for the odd moments
        p = BetaParams(a, b)
        log_mgf = beta_centered_log_mgf(p)
        mean, var = beta_mean_var(p)
        grid = scan_grid(2 * max(1.0 - mean, mean) / var)
        lams = np.concatenate([grid, around(1.0), handovers(log_mgf, grid)])
        assert (np.abs(assert_array_form_is_scalar_form(log_mgf, lams)) > 1.0).all()

    @settings(max_examples=60, deadline=None)
    @given(law=weighted_laws())
    def test_weighted(self, law):
        v, w = law
        log_mgf, _, reach, var = weighted_log_mgf(v, w)
        width = sum(reach)
        lams = np.concatenate([scan_grid(2 * max(reach) / var), around(1.0 / width)])
        # the array form leaves the far branch NaN
        assert (np.abs(assert_array_form_is_scalar_form(log_mgf, lams)) * width > 1.0).all()
        walk = loop_scan(scalar_only(log_mgf), 2 * max(reach) / var, reach)
        assert_same_estimate(weighted_proxy_sup(v, w), walk)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_empirical(self, seed):
        p = BetaParams(*np.random.default_rng(seed).uniform(0.5, 20.0, 2))
        draws = sample(p, SeedSpec(seed), 5000)
        log_mgf, cap = empirical_log_mgf(draws)
        assert_array_form_is_scalar_form(log_mgf, scan_grid(cap))
        assert_reads_like_the_walk(log_mgf, float(draws.mean()), cap)


class RefineReference(NamedTuple):
    grid_best: float
    bracket: tuple[float, float]
    golden_value: float
    golden_calls: int


def refine_reference(log_mgf, mean, cap, reach):
    """The best grid point of `loop_scan`, which reads the centered scalar kernel at every
    walked point, and `golden_max` on that point's bracket.

    `loop_scan` walks ``log_mgf`` minus lam ``mean`` to ``cap``, whose grid is
    `scan_grid`, with the scan's ``reach``; the ratio is the scan's,
    2 (log_mgf(lam) - lam mean) / lam^2. The best grid point (the lowest lambda
    among ties) and its same-sign neighbours bracket the golden-section
    search, to the absolute tolerance 1e-8 it used.
    """
    reads = {}

    def centered(lam):
        reads[lam] = log_mgf(lam) - lam * mean
        return reads[lam]

    loop_scan(centered, cap, reach)
    points = scan_grid(cap, reach).tolist()
    values = [2.0 * reads[lam] / (lam * lam) if lam in reads else -math.inf for lam in points]
    best, n = values.index(max(values)), len(points) // 2
    side = range(0, n) if best < n else range(n, 2 * n)
    lo, hi = points[max(best - 1, side[0])], points[min(best + 1, side[-1])]
    calls = [0]

    def ratio(lam):
        calls[0] += 1
        return 2.0 * (log_mgf(lam) - lam * mean) / (lam * lam)

    golden_value = golden_max(ratio, lo, hi, 1e-8)[1]
    return RefineReference(values[best], (lo, hi), golden_value, calls[0])


def assert_refines_like_golden_section(estimate, log_mgf, mean, cap, reach, rel=1e-13):
    """The estimate is at least the best grid value, within ``rel`` of that point
    refined by `golden_max`, and its argmax lies in the same bracket."""
    ref = refine_reference(log_mgf, mean, cap, reach)
    assert estimate.value >= ref.grid_best
    assert estimate.value == pytest.approx(max(ref.grid_best, ref.golden_value), rel=rel, abs=0.0)
    assert ref.bracket[0] <= estimate.argmax_lambda <= ref.bracket[1]


def rounding_spread(log_mgf, mean, lam):
    """Relative range of the scan's ratio over 41 points within 2e-8 |lam| of lam.

    Near an argmax the exact ratio varies far less than that, so the range
    is the kernel's rounding there.
    """
    points = (lam * (1.0 + np.arange(-20, 21) * 1e-9)).tolist()
    values = [2.0 * (log_mgf(x) - x * mean) / (x * x) for x in points]
    return (max(values) - min(values)) / max(values)


class TestBrentRefinement:
    """Brent's method from the grid bracket agrees with the golden-section search it replaced."""

    @settings(max_examples=30, deadline=None)
    @given(
        log_a=st.floats(math.log(1e-3), math.log(1e6)),
        log_b=st.floats(math.log(1e-3), math.log(1e6)),
    )
    @example(log_a=math.log(1e-3), log_b=math.log(1e6))
    @example(log_a=math.log(1e6), log_b=math.log(1e6))
    @example(log_a=math.log(50.0), log_b=math.log(50.0))  # argmax at the grid's inner end
    def test_beta(self, log_a, log_b):
        p = BetaParams(math.exp(log_a), math.exp(log_b))
        mean, var = beta_mean_var(p)
        reach = (1.0 - mean, mean)
        assert_refines_like_golden_section(
            beta_proxy_estimate(p), beta_centered_log_mgf(p), 0.0, 2 * max(reach) / var, reach,
        )

    @settings(max_examples=30, deadline=None)
    @given(law=weighted_laws())
    def test_weighted(self, law):
        v, w = law
        log_mgf, _, reach, var = weighted_log_mgf(v, w)
        assert_refines_like_golden_section(
            weighted_proxy_sup(v, w), log_mgf, 0.0, 2 * max(reach) / var, reach,
        )

    @settings(max_examples=20, deadline=None)
    @given(
        a=st.floats(0.5, 20.0), b=st.floats(0.5, 20.0), n=st.integers(100, 5000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_empirical(self, a, b, n, seed):
        # The far-branch sum over n points, and lam * mean added then taken away again, leave
        # ratio rounding of up to 2.5e-12 relative; each search keeps its best rounded read,
        # so the two may differ by the rounding's whole range. Of 3000 such laws, 5 differed by
        # more than 1e-13; the largest difference was 0.31 of this tolerance.
        draws = sample(BetaParams(a, b), SeedSpec(seed), n)
        log_mgf, cap = empirical_log_mgf(draws)
        mean = float(draws.mean())
        estimate = variance_proxy_sup(log_mgf, mean, cap)
        rel = max(1e-13, 2 * rounding_spread(log_mgf, mean, estimate.argmax_lambda))
        assert_refines_like_golden_section(
            estimate, log_mgf, mean, cap, (math.inf, math.inf), rel,
        )

    @settings(max_examples=20, deadline=None)
    @given(
        a=st.floats(0.5, 20.0), b=st.floats(0.5, 20.0), n=st.integers(100, 5000),
        seed=st.integers(0, 2**32 - 1),
    )
    # argmax -0.034: the uncentered Monte Carlo kernel put this law 1.7e-13 from golden_max
    @example(a=17.6, b=18.5, n=4597, seed=25)
    def test_monte_carlo(self, a, b, n, seed):
        # Monte Carlo mode on Q = p scans the centered kernel of its draws. On the series
        # branch (|lambda| * range <= 1) that kernel rounds to below 4e-16 relative, so the
        # two searches agree to 1e-13. Past it, the sum over n points rounds by up to about
        # 3e-13 in the ratio, and each search keeps its best rounded read: there they may
        # differ by the rounding's range (of 1000 laws, 1 differed by more than 1e-13).
        prior = BetaParams(a, b)
        estimate = evaluate_model("beta_binomial", prior, {1}, m=1, method="monte_carlo",
                                  draws=n, seed=SeedSpec(seed)).estimate
        q = model_q_draws("beta_binomial", prior, {1}, m=1, draws=n, seed=SeedSpec(seed))
        log_mgf, _, reach, var = weighted_log_mgf(q, np.full(n, 1.0 / n))
        window = _monte_carlo_window(n)
        rel = 1e-13
        if abs(estimate.argmax_lambda) * sum(reach) > 1.0:
            rel = max(rel, 2 * rounding_spread(log_mgf, 0.0, estimate.argmax_lambda))
        assert_refines_like_golden_section(
            estimate, log_mgf, 0.0, min(window, 2 * max(reach) / var), reach, rel,
        )


def assert_scans_like_the_walk(log_mgf, cap, reach):
    """`_scan` of the kernel gives `loop_scan`'s estimate from no more reads, reads by the
    scalar form no grid point that `loop_scan` does not walk, and every walked grid point it
    skipped has a ratio below the best grid ratio.

    Returns the estimate, and the far points (those the array form leaves NaN)
    read by `_scan` and walked by `loop_scan`.
    """
    bounded, walk = counting(log_mgf), counting(scalar_only(log_mgf))
    estimate = _scan(bounded, cap, reach)
    assert_same_estimate(estimate, loop_scan(walk, cap, reach))
    lams = scan_grid(cap, reach)
    on_grid = set(lams.tolist())
    walked = {lam: 2.0 * log_mgf(lam) / (lam * lam) for lam in walk.calls if lam in on_grid}
    assert on_grid.intersection(bounded.calls) <= walked.keys()  # no point past a stop is read
    far = set(lams[np.isnan(log_mgf.grid(lams))].tolist()).intersection(walked)
    best = max(walked.values())
    assert all(walked[lam] < best for lam in far.difference(bounded.calls))
    # evaluations: the walked points the array form gave, and every scalar call
    assert estimate.evaluations == len(walked) - len(far) + len(bounded.calls)
    return estimate, len(far.intersection(bounded.calls)), len(far)


def with_reading(log_mgf, lams, index, reading):
    """``log_mgf`` whose array form reads ``reading`` at ``lams[index]``. A NaN reading
    runs from there outward on its side, and the scalar form gives inf wherever it does,
    so the kernel's finite set is still an interval around 0."""
    lam_at = float(lams[index])

    def outward(lam):
        return lam * lam_at > 0 and abs(lam) >= abs(lam_at)

    def grid(lams):
        out = log_mgf.grid(lams)
        if math.isnan(reading):
            out[(lams * lam_at > 0) & (np.abs(lams) >= abs(lam_at))] = math.nan
        else:
            out[index] = reading
        return out

    def kernel(lam):
        return math.inf if math.isnan(reading) and outward(lam) else log_mgf(lam)

    kernel.grid = grid
    return kernel


class TestTwoPointLaws:
    """The law 1 - mu on 0, mu on R has tau^2 = R^2 K(mu), K the two-point constant of
    Kearns and Saul (closed form in `martingale`), at every width R."""

    @pytest.mark.parametrize("width", [1e-3, 1.0, 1e2, 1e4, 1e6])
    @pytest.mark.parametrize("mu", [0.3, 0.1, 0.01])
    def test_closed_form(self, mu, width):
        # 26 % low at mu = 0.1, R = 1e4, and refused at mu = 0.3, R = 1e4, while the grid
        # started at 1e-3 for every law
        value = weighted_proxy_sup([0.0, width], [1.0 - mu, mu]).value
        assert abs(value / (width**2 * two_point_variance_proxy(mu)) - 1.0) <= 2e-15

    @pytest.mark.parametrize("width", [1e-3, 1.0, 1e2, 1e3, 1e4, 1e6])
    def test_symmetric_law_at_its_limit(self, width):
        # at mu = 1/2 the supremum R^2 / 4 is the lambda -> 0 limit; the grid's first point,
        # 1e-3 / max(1, R / 2), reads R^2 / 4 (1 - 1.7e-7) at most (3.9 % low at R = 1e3 once)
        quarter = width**2 / 4
        value = weighted_proxy_sup([0.0, width], [0.5, 0.5]).value
        assert (1 - 2e-7) * quarter <= value <= (1 + 2e-15) * quarter


class TestWalkMatchesLoopForm:
    """The scan reads its ratios from one array and gives the estimate of one ratio call per point."""

    @pytest.mark.parametrize("model, prior, subset, m", [
        ("geometric", BetaParams(2.0, 1.0), {0, 1, 2, 3, 5}, None),
        ("beta_binomial", BetaParams(0.5, 1.5), {5}, 5),
    ])
    def test_monte_carlo(self, model, prior, subset, m):
        draws = 20_000
        q = model_q_draws(model, prior, subset, m=m, draws=draws, seed=SeedSpec(3))
        log_mgf, _, reach, var = weighted_log_mgf(q, np.full(draws, 1.0 / draws))
        cap = min(_monte_carlo_window(draws), 2 * max(reach) / var)
        _, read, walked = assert_scans_like_the_walk(log_mgf, cap, reach)
        assert 0 < read < walked

    @staticmethod
    def monte_carlo_law():
        """`test_monte_carlo`'s geometric law, whose far points are read lazily."""
        draws = 20_000
        q = model_q_draws("geometric", BetaParams(2.0, 1.0), {0, 1, 2, 3, 5}, draws=draws,
                          seed=SeedSpec(3))
        return q, np.full(draws, 1.0 / draws), _monte_carlo_window(draws)

    @staticmethod
    def beta_rule_law():
        """Beta(50, 50)'s 128-node Gauss rule, whose whole grid is read at once."""
        p, _, weights = _beta_rule(50.0, 50.0, 128)
        return p, weights, math.inf

    @pytest.mark.parametrize("scale", [10.0, 1e3, 1e5])
    @pytest.mark.parametrize("law", ["monte_carlo_law", "beta_rule_law"])
    def test_scaled_law(self, law, scale):
        # tau^2(c X) = c^2 tau^2(X): c X to cap / c scans like the walk, on a grid whose floor
        # is 1e-3 / max(reach) once the law is wider than 1, and to the same tau^2
        values, weights, window = getattr(self, law)()

        def scan(c):
            log_mgf, _, reach, var = weighted_log_mgf(c * values, weights)
            estimate, read, walked = assert_scans_like_the_walk(
                log_mgf, min(window / c, 2 * max(reach) / var), reach)
            assert (0 < read < walked) if window < math.inf else walked == 0
            return estimate.value

        assert abs(scan(scale) / scale**2 / scan(1.0) - 1.0) <= 1e-10

    @settings(max_examples=40, deadline=None)
    @given(
        log_a=st.floats(math.log(1e-3), math.log(1e6)),
        log_b=st.floats(math.log(1e-3), math.log(1e6)),
    )
    def test_beta(self, log_a, log_b):
        p = BetaParams(math.exp(log_a), math.exp(log_b))
        mean, var = beta_mean_var(p)
        reach, log_mgf = (1.0 - mean, mean), beta_centered_log_mgf(p)
        assert_scans_like_the_walk(log_mgf, 2 * max(reach) / var, reach)

    @pytest.mark.parametrize("index", [200, 205, 150, 395, 20, 399, 0])
    @pytest.mark.parametrize("reading", [math.inf, -math.inf, math.nan])
    def test_nonfinite_value_raises_at_the_same_lambda(self, index, reading):
        # inf or -inf read from the array form at one point, or NaN readings whose scalar
        # value is inf from one point outward; 395 and 20 are the last points the walk
        # reaches on each side, where no bound calls for a read
        p = BetaParams(2.0, 5.0)
        mean, var = beta_mean_var(p)
        reach = (1.0 - mean, mean)
        cap = 2 * max(reach) / var
        lams = scan_grid(cap)
        kernel = with_reading(beta_centered_log_mgf(p), lams, index, reading)
        outcomes = []
        for scan in (_scan, loop_scan, lambda *args: beta_proxy_estimate(p)):
            try:
                est = scan(kernel, cap, reach)
                outcomes.append((est.value, est.argmax_lambda, est.grid_spec))
            except OverflowError as exc:
                outcomes.append(str(exc))
        if math.isnan(reading):
            # the scan reads a skipped point only where the estimate needs its value, so it
            # raises at one of the injected points, or keeps the uninjected kernel's estimate
            walk = loop_scan(beta_centered_log_mgf(p), cap, reach)
            injected = lams[(lams * lams[index] > 0) & (np.abs(lams) >= abs(lams[index]))]
            if index in (0, 20, 395, 399):
                assert outcomes[0] == (walk.value, walk.argmax_lambda, walk.grid_spec)
            else:
                assert outcomes[0] in {f"log-MGF is not finite at lambda={lam!r}" for lam in injected.tolist()}
            return
        assert outcomes[0] == outcomes[1]
        # the walk stops before the outermost points, so an injection there is never read
        if index in (0, 399):
            assert outcomes[0] == outcomes[2]
        else:
            assert outcomes[0] == f"log-MGF is not finite at lambda={float(lams[index])!r}"


class TestBoundedScan:
    """The scan skips the far points that a convexity bound rules out, and keeps the walk's estimate."""

    def test_grid_laws(self):
        for a in GRID:
            for b in GRID:
                p = BetaParams(a, b)
                mean, var = beta_mean_var(p)
                reach = (1.0 - mean, mean)
                assert_scans_like_the_walk(beta_centered_log_mgf(p), 2 * max(reach) / var, reach)

    @pytest.mark.parametrize("method", ["exact", "monte_carlo"])
    def test_conjectures(self, monkeypatch, method):
        # the 30 instances of `conjectures` at its default seed, with 20 000 Monte Carlo draws
        reads = [0, 0]
        whole = {}  # law size: whether the array form fills its far branch

        def law(values, weights):
            kernel = weighted_log_mgf(values, weights)
            log_mgf, _, reach, var = kernel
            full_grid = log_mgf.grid(scan_grid(2 * max(reach) / var))
            whole[np.count_nonzero(weights)] = not np.isnan(full_grid).any()
            return kernel

        def scan(log_mgf, cap, reach):
            estimate, read, walked = assert_scans_like_the_walk(log_mgf, cap, reach)
            reads[0] += read
            reads[1] += walked
            return estimate

        monkeypatch.setattr(concentration, "_scan", scan)
        monkeypatch.setattr(concentration, "weighted_log_mgf", law)
        monkeypatch.setattr(conjugate_models, "weighted_log_mgf", law)
        seed = SeedSpec(0)
        for i, (model, prior, subset, m) in enumerate(_conjecture_instances(seed)):
            if method == "exact":
                evaluate_model(model, prior, subset, m=m)
            else:
                evaluate_model(model, prior, subset, m=m, method=method, draws=20_000,
                               seed=seed.derived(i + 1))
        # far points read against walked, when written: 40 of 193 exact (the 1-D rules' far
        # branch comes from the array form), 437 of 1 923 Monte Carlo
        assert 3 * reads[0] <= reads[1]
        # the scanned rules and draws and the doubled rules: whole-grid at N <= 327 points,
        # the 1-D Gauss rules (236 where 20 of a doubled Gamma rule's weights underflow)
        if method == "exact":
            assert whole == {128: True, 236: True, 256: True, 16_384: False, 65_536: False}
        else:
            assert whole == {20_000: False}
            law(np.linspace(0.0, 1.0, 200_000), np.full(200_000, 1 / 200_000))  # CLI default
            assert whole[200_000] is False

    @settings(max_examples=60, deadline=None)
    @given(law=weighted_laws(), capped=st.booleans())
    def test_weighted(self, law, capped):
        # these laws are small enough for whole-grid far reads; with no block budget the
        # array form leaves their far branch NaN, as it does a larger law's
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(concentration, "_GRID_BLOCK_ELEMENTS", 0)
            log_mgf, _, reach, var = weighted_log_mgf(*law)
        full = 2 * max(reach) / var
        cap = min(full, 1.5 / sum(reach)) if capped else full  # a cap just past the series branch
        assert np.isnan(log_mgf.grid(scan_grid(full))).any()
        assert_scans_like_the_walk(log_mgf, cap, reach)

    def test_open_cell_bound_recomputed_at_each_growth(self, monkeypatch):
        # each growth of a side's open run recomputes its bound, and every Beta estimate is
        # pinned: sha256 of the (value, argmax, grid_spec, evaluations) reprs, from 377
        # `_cell_bound` calls on the 81 GRID laws
        calls = []

        def cell_bound(*args):
            calls.append(args)
            return _cell_bound(*args)

        monkeypatch.setattr(concentration, "_cell_bound", cell_bound)
        fields = []
        for a in GRID:
            for b in GRID:
                e = beta_proxy_estimate(BetaParams(a, b))
                fields.append((e.value, e.argmax_lambda, e.grid_spec, e.evaluations))
        digest = hashlib.sha256(repr(fields).encode()).hexdigest()
        assert digest[:16] == "c081cdeee2c69fcc"
        assert len(calls) == 377

    @pytest.mark.parametrize("alpha, beta, value, argmax, scanned", [
        (1.0, 1e7, 2.0363227736895597e-08, 35128588.20457565, "6.67119e+06 (-), 9.0037e+07 (+)"),
        (3e7, 3e7, 4.1666665972222305e-09, -1.402644265212063, "2.1039e+08 (-), 2.1039e+08 (+)"),
        # since the raw series' anchor takes ln k! from math.lgamma (1 ulp from gammaln's)
        (1e4, 3e4, 6.064549462729258e-06, 55420.35817446955, "80687.8 (-), 238200 (+)"),
        (50.0, 0.1, 0.0038924288584230144, -187.38858433724835, "495.223 (-), 44.5469 (+)"),
        (1e6, 1e6, 1.2499993750003137e-07, -0.04387538987613797, "7.13388e+06 (-), 7.13388e+06 (+)"),
    ])
    def test_raw_series_laws(self, alpha, beta, value, argmax, scanned):
        # the walk reaches raw-series points of these laws, which the array form leaves NaN;
        # the pins are the estimates of the scan that read every walked point
        p = BetaParams(alpha, beta)
        mean, var = beta_mean_var(p)
        reach = (1.0 - mean, mean)
        estimate, read, walked = assert_scans_like_the_walk(
            beta_centered_log_mgf(p), 2 * max(reach) / var, reach
        )
        assert (estimate.value, estimate.argmax_lambda) == (value, argmax)
        assert estimate.grid_spec.endswith(f"scanned to {scanned}")
        assert 0 < read <= walked


class TestWholeGridReads:
    """A law whose far exponentials for one sign of the scan grid fit `_GRID_BLOCK_ELEMENTS`,
    of at most 327 points, gives its far branch in the array form too."""

    @staticmethod
    def assert_whole_grid(v, w):
        log_mgf, _, reach, var = weighted_log_mgf(v, w)
        lams = np.concatenate([scan_grid(2 * max(reach) / var), around(1.0 / sum(reach))])
        values = log_mgf.grid(lams)
        assert not np.isnan(values).any()
        assert values.tolist() == [log_mgf(lam) for lam in lams.tolist()]
        # `_scan` reads no point by the scalar form outside Brent's refinement
        kernel, refined = counting(log_mgf), []

        def brent_max(fn, *args):
            return _brent_max(lambda lam: refined.append(lam) or fn(lam), *args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(concentration, "_brent_max", brent_max)
            estimate = _certified_scan(kernel, reach, var)
        assert kernel.calls == refined
        assert_same_estimate(estimate, loop_scan(scalar_only(log_mgf), 2 * max(reach) / var, reach))

    @settings(max_examples=40, deadline=None)
    @given(law=weighted_laws())
    def test_small_laws(self, law):
        self.assert_whole_grid(*law)

    @pytest.mark.parametrize("a, b", [(2.0, 3.0), (0.5, 8.0)])
    def test_at_the_cutoff(self, a, b):
        n = concentration._GRID_BLOCK_ELEMENTS // concentration._POINTS_PER_SIGN
        assert n == 327
        v = np.random.default_rng(n).beta(a, b, n + 1)
        self.assert_whole_grid(v[:n], np.full(n, 1.0 / n))
        log_mgf, _, reach, var = weighted_log_mgf(v, np.full(n + 1, 1.0 / (n + 1)))
        assert np.isnan(log_mgf.grid(scan_grid(2 * max(reach) / var))).any()  # one point more

    def test_grid_stays_in_its_block_budget(self):
        # both signs' 400 lambdas at the cutoff would be a 1.05 MB matrix; one sign's 200 fit
        # the 0.5 MB budget, and its buffer serves the other sign, plus per-lambda vectors
        # and the law's shifted copies (a few KB each)
        n = concentration._GRID_BLOCK_ELEMENTS // concentration._POINTS_PER_SIGN
        v = np.random.default_rng(1).beta(2.0, 3.0, n)
        log_mgf, _, reach, var = weighted_log_mgf(v, np.full(n, 1.0 / n))
        lams = scan_grid(2 * max(reach) / var)
        tracemalloc.start()
        try:
            values = log_mgf.grid(lams)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not np.isnan(values).any()
        budget = 8 * concentration._GRID_BLOCK_ELEMENTS
        assert budget <= 600_000 < 8 * lams.size * n
        assert peak <= budget + 200_000

    def test_lazy_reads_are_the_whole_grid_values(self):
        # one far implementation: a law past the cutoff, read one lambda at a time, gives the
        # far values its array form gives once the budget admits it (`math.log` of each read's
        # sum, where `np.log` takes the array form's, differs on 5 of these 6 126 sums)
        n = 400
        v, w = np.random.default_rng(n).beta(2.0, 3.0, n), np.full(n, 1.0 / n)
        lazy, _, reach, var = weighted_log_mgf(v, w)
        cap, switch = 2 * max(reach) / var, 1.0 / sum(reach)
        dense = np.geomspace(switch, cap, 3000)  # and the scan grid's far points
        lams = np.concatenate([scan_grid(cap), around(switch), -dense, dense])
        far = np.isnan(lazy.grid(lams))
        assert far.sum() > 6000
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(concentration, "_GRID_BLOCK_ELEMENTS", concentration._POINTS_PER_SIGN * n)
            whole = weighted_log_mgf(v, w)[0]
        values = whole.grid(lams)
        assert not np.isnan(values).any()
        assert [lazy(lam) for lam in lams[far].tolist()] == values[far].tolist()


@pytest.mark.parametrize("t0, k0, slope, t_first, t_last", [
    (1.0, 0.5, 0.0, 2.0, 10.0),  # falls from t_first
    (1.0, 0.5, -0.05, 2.0, 30.0),  # least at t = 22, inside the range
    (1.0, -0.5, -0.1, 2.0, 10.0),  # rises to t_last
    (0.0, 0.0, -1.0, 1e-3, 5.0),  # from K(0) = 0
    (1.0, 0.1, 0.5, 1.2, 5.0),  # rising, c0 < 0: largest at t = 1.6, inside the range
    (1.0, 0.1, 0.5, 2.0, 5.0),  # rising, c0 < 0: largest before the range, at t_first
    (1.0, 0.1, 0.5, 1.1, 1.4),  # rising, c0 < 0: largest past the range, at t_last
    (1.0, 0.5, 0.2, 2.0, 10.0),  # rising, c0 > 0: falls from t_first
    (1.0, 0.5, 0.5, 2.0, 10.0),  # rising, c0 = 0: falls from t_first
])
def test_cell_bound_of_a_falling_line(t0, k0, slope, t_first, t_last):
    # with slope <= 0 the line's ratio 2 (c0 + slope t) / t^2 has no interior
    # maximum; with slope > 0 it has one at -2 c0 / slope, before the range when c0 >= 0
    ts = np.geomspace(t_first, t_last, 100_001)
    dense = float(np.max(2.0 * (k0 + slope * (ts - t0)) / (ts * ts)))
    bound = _cell_bound(t0, k0, slope, t_first, t_last)
    assert dense <= bound <= dense + 2e-9 * abs(dense)


class TestKernelLifetime:
    """A kernel is freed by reference counting alone: no reference cycle keeps its points alive."""

    @pytest.mark.parametrize("make", [
        lambda: beta_centered_log_mgf(BetaParams(2.0, 5.0)),
        lambda: weighted_log_mgf(np.linspace(0.0, 1.0, 50), np.full(50, 0.02))[0],
        lambda: empirical_log_mgf(np.linspace(0.0, 1.0, 500))[0],
    ], ids=["beta", "weighted", "empirical"])
    def test_del_frees_the_kernel(self, make):
        enabled = gc.isenabled()
        gc.disable()
        try:
            kernel = make()
            kernel(0.5), kernel(30.0), kernel.grid(scan_grid(100.0))  # build the lazy tables
            ref = weakref.ref(kernel)
            del kernel
            assert ref() is None
        finally:
            if enabled:
                gc.enable()
