"""Tests for the posterior-mean step law, telescoping totals, and stability."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.special import polygamma

from subgauss import (
    BetaParams,
    DirichletParams,
    SeedSpec,
    azuma_total,
    simulate_paths,
    stability_diagnostics,
    step_increment,
    step_variance_proxy,
    two_point_variance_proxy,
)
from subgauss import checks, martingale
from subgauss.martingale import compositions


class TestTwoPointProxy:
    def test_fair_coin(self):
        assert two_point_variance_proxy(0.5) == 0.25

    def test_endpoints(self):
        assert two_point_variance_proxy(0.0) == 0.0
        assert two_point_variance_proxy(1.0) == 0.0

    def test_skewed_value(self):
        assert two_point_variance_proxy(0.9) == pytest.approx(
            0.8 / (2.0 * math.log(9.0)), rel=1e-14
        )

    def test_continuity_at_half(self):
        # series branch and closed form must agree across the switch
        for t in (1e-7, 9e-7, 1.1e-6, 5e-6):
            for sign in (1.0, -1.0):
                p = 0.5 + sign * t
                closed = (2 * p - 1) / (2 * (math.log(p) - math.log1p(-p)))
                assert two_point_variance_proxy(p) == pytest.approx(closed, rel=1e-9)

    def test_quarter_upper_bound(self):
        for p in np.linspace(0.0, 1.0, 1001):
            assert two_point_variance_proxy(float(p)) <= 0.25 + 1e-15

    def test_domain(self):
        with pytest.raises(ValueError):
            two_point_variance_proxy(1.2)


class TestStepIncrement:
    def test_uniform_prior(self):
        inc = step_increment(BetaParams(1, 1))
        assert inc.up_value == pytest.approx(1.0 / 6.0)
        assert inc.down_value == pytest.approx(-1.0 / 6.0)
        assert inc.up_prob == inc.down_prob == 0.5

    def test_beta_2_1(self):
        inc = step_increment(BetaParams(2, 1))
        assert inc.up_value == pytest.approx(1.0 / 12.0)
        assert inc.up_prob == pytest.approx(2.0 / 3.0)
        assert inc.down_value == pytest.approx(-2.0 / 12.0)
        assert inc.down_prob == pytest.approx(1.0 / 3.0)

    def test_mean_zero(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            a, b = np.exp(rng.uniform(-3, 6, size=2))
            inc = step_increment(BetaParams(float(a), float(b)))
            mean = inc.up_prob * inc.up_value + inc.down_prob * inc.down_value
            assert abs(mean) <= 1e-15
            assert inc.up_prob + inc.down_prob == pytest.approx(1.0, abs=1e-15)

    def test_freezes_as_alpha_grows(self):
        sizes = [abs(step_increment(BetaParams(10.0**e, 1)).up_value) for e in range(1, 7)]
        assert all(s1 > s2 for s1, s2 in zip(sizes, sizes[1:]))
        assert sizes[-1] < 1e-10


class TestStepVarianceProxy:
    def test_uniform(self):
        assert step_variance_proxy(BetaParams(1, 1)) == pytest.approx(1.0 / 36.0)

    def test_beta_2_1(self):
        expected = ((1.0 / 3.0) / (2.0 * math.log(2.0))) / 16.0
        assert step_variance_proxy(BetaParams(2, 1)) == pytest.approx(expected, rel=1e-14)

    def test_quarter_bound_on_random_states(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            a, b = np.exp(rng.uniform(math.log(1e-2), math.log(1e3), size=2))
            p = BetaParams(float(a), float(b))
            assert step_variance_proxy(p) <= 0.25 / (p.total + 1.0) ** 2 + 1e-15


class TestAzumaTotal:
    def test_partial_sum_against_polygamma(self):
        totals = azuma_total(BetaParams(1, 1), 10**6)
        oracle = (polygamma(1, 3.0) - polygamma(1, 3.0 + 10**6)) / 4.0
        assert totals.partial_sum == pytest.approx(float(oracle), rel=1e-12)
        assert totals.partial_sum == pytest.approx(0.0987334, abs=1e-6)
        assert totals.theorem_bound == pytest.approx(0.1)

    def test_single_step(self):
        totals = azuma_total(BetaParams(1, 1), 1)
        assert totals.partial_sum == pytest.approx(1.0 / 36.0)
        assert totals.partial_sum <= 0.1

    @pytest.mark.parametrize("s", [1.0, 2.0, 10.0])
    def test_total_between_tight_bounds(self, s):
        totals = azuma_total(BetaParams(s / 2, s / 2), 10**6)
        grand = totals.partial_sum + totals.tail_remainder
        assert grand <= totals.theorem_bound + 1e-12
        assert grand >= 1.0 / (4.0 * s + 2.0 + 1.0 / (3.0 * s)) - 1e-9

    def test_partial_sum_increasing_in_horizon(self):
        prior = BetaParams(2, 3)
        values = [azuma_total(prior, h).partial_sum for h in (10, 100, 1000, 10**4)]
        assert all(v1 < v2 for v1, v2 in zip(values, values[1:]))

    def test_horizon_validation(self):
        with pytest.raises(ValueError):
            azuma_total(BetaParams(1, 1), 0)


class TestSimulatePaths:
    def test_zero_horizon(self):
        report = simulate_paths(BetaParams(1, 1), 0, 500, SeedSpec(1))
        assert report.mean_total_increment == 0.0
        assert np.all(report.final_mean == 0.5)

    def test_aggregate_statistics(self):
        result = checks.martingale(SeedSpec(13), 4000)
        assert result.failures == []

    def test_determinism(self):
        a = simulate_paths(BetaParams(1, 1), 100, 50, SeedSpec(3))
        b = simulate_paths(BetaParams(1, 1), 100, 50, SeedSpec(3))
        assert np.array_equal(a.final_mean, b.final_mean)


class TestStabilityDiagnostics:
    def test_replace_one_reaches_bound(self):
        report = stability_diagnostics(DirichletParams((1.0, 1.0)), 1, {0})
        assert report.max_replace_one_change == pytest.approx(1.0 / 3.0)
        assert report.replace_one_bound == pytest.approx(1.0 / 3.0)
        assert report.replace_one_ok

    def test_add_one_example(self):
        # prior Dir(1,1,1) with 5 samples, S={0}: on counts (5,0,0) the answer
        # 6/8 moves to 7/9 (in-subset sample, change 1/36) or 6/9 (out-of-
        # subset, change 1/12); the worst dataset overall is (0,5,0)-style
        # with change 7/72. All below the bound 1/9.
        assert abs(7 / 9 - 6 / 8) == pytest.approx(1.0 / 36.0)
        assert abs(6 / 9 - 6 / 8) == pytest.approx(1.0 / 12.0)
        report = stability_diagnostics(DirichletParams((1.0, 1.0, 1.0)), 5, {0})
        assert report.add_one_bound == pytest.approx(1.0 / 9.0)
        assert report.max_add_one_change == pytest.approx(7.0 / 72.0)
        assert report.add_one_ok

    def test_lipschitz_is_exactly_linear(self):
        report = stability_diagnostics(DirichletParams((0.5, 0.5, 0.5)), 7, {1, 2})
        assert report.lipschitz_slope == pytest.approx(7.0 / (1.5 + 7.0))
        assert report.lipschitz_slope <= 1.0
        assert report.max_linearity_defect <= 1e-12

    def test_add_one_never_exceeds_replace_bound(self):
        for n in (1, 4, 9):
            for subset in ({0}, {0, 1}):
                report = stability_diagnostics(DirichletParams((1.0,) * 3), n, subset)
                assert report.max_add_one_change <= report.replace_one_bound

    @pytest.mark.parametrize("k, n", [(3, 0), (3, 13), (5, 1)])
    def test_refuses_past_the_exhaustive_sweep(self, k, n):
        with pytest.raises(ValueError, match="exhaustive sweep"):
            stability_diagnostics(DirichletParams((1.0,) * k), n, {0})

    def test_sweep_names_a_failing_cell(self, monkeypatch):
        # a diagnostic whose add-one bound is too small fails AC11 on the
        # martingale check, with its (k, alpha, n, subset) named
        def loose(prior, n, subset):
            report = stability_diagnostics(prior, n, subset)
            if prior.k == 3 and n == 7 and prior.alphas[0] == 0.5:
                return dataclasses.replace(report, add_one_ok=False)
            return report

        monkeypatch.setattr(martingale, "stability_diagnostics", loose)
        failures = []
        summary = checks._stability_sweep(failures)
        assert summary["stability_cells"] == 528
        assert len(failures) == 6  # the six proper subsets of 3 categories
        cells = {(f["check"], f["k"], f["alpha"], f["n"]) for f in failures}
        assert cells == {("stability", 3, 0.5, 7)}
        assert sorted(f["subset"] for f in failures) == ["0", "0;1", "0;2", "1", "1;2", "2"]

    def test_subset_validation(self):
        d = DirichletParams((1.0, 1.0))
        with pytest.raises(ValueError):
            stability_diagnostics(d, 3, set())
        with pytest.raises(ValueError):
            stability_diagnostics(d, 3, {0, 1})

    def test_compositions_count(self):
        assert len(list(compositions(12, 4))) == math.comb(15, 3)
        assert sorted(compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
