"""Tests for the posterior-mean step law, telescoping totals, and stability."""

import dataclasses
import itertools
import math
import time

import mpmath
import numpy as np
import pytest
from closed_form import step_increment
from scipy.special import polygamma

from subgauss import checks, martingale
from subgauss.distributions import BetaParams, DirichletParams, SeedSpec
from subgauss.game import required_n
from subgauss.martingale import (
    azuma_total,
    simulate_paths,
    stability_diagnostics,
    step_variance_proxy,
    two_point_variance_proxy,
)


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

    def test_is_the_two_point_proxy_of_the_step_law(self):
        # the step takes two values 1/(s+1) apart, up with probability alpha/s
        rng = np.random.default_rng(29)
        for _ in range(500):
            a, b = np.exp(rng.uniform(math.log(1e-2), math.log(1e3), size=2))
            p = BetaParams(float(a), float(b))
            inc = step_increment(p)
            scaled = two_point_variance_proxy(inc.up_prob) * (inc.up_value - inc.down_value) ** 2
            assert scaled == pytest.approx(step_variance_proxy(p), rel=1e-12)


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

    @pytest.mark.parametrize("s", [1e-2, 0.3, 1.0, 2.0, 10.0, 19.5, 20.0, 1e3, 1e6, 1e15])
    def test_within_stated_accuracy_of_mpmath(self, s):
        # relative error below 4 eps (measured at most 1.8 eps), on both sides of the
        # recurrence's y >= 20 and also where h << s
        prior = BetaParams(s / 2, s / 2)
        total = mpmath.mpf(prior.total)
        for h in (1, 2, 10, 10**3, 10**6, 10**9, 10**12):
            with mpmath.workdps(40):
                want = (mpmath.polygamma(1, total + 1) - mpmath.polygamma(1, total + h + 1)) / 4
                error = float(abs(azuma_total(prior, h).partial_sum - want) / want)
            assert error <= 4.0 * np.finfo(float).eps

    @pytest.mark.parametrize("s", [1.0, 1e4, 1e8, 1e12])
    @pytest.mark.parametrize("h", [1, 10, 10**6])
    def test_short_horizon_does_not_cancel(self, s, h):
        # psi'(s+1) - psi'(s+h+1) as a difference of two trigammas was 3.3e-12 off at
        # (1e6, 100) and 1.2e-5 off at (1e12, 10)
        with mpmath.workdps(50):
            total = mpmath.mpf(s)
            want = (mpmath.polygamma(1, total + 1) - mpmath.polygamma(1, total + h + 1)) / 4
            error = abs(azuma_total(BetaParams(s / 2, s / 2), h).partial_sum - want) / want
        assert float(error) <= 1e-13

    def test_horizon_costs_nothing(self):
        # the partial sum is a trigamma difference: no array of horizon terms
        started = time.perf_counter()
        totals = azuma_total(BetaParams(1, 1), 10**12)
        assert time.perf_counter() - started < 0.01
        assert totals.partial_sum == pytest.approx(float(polygamma(1, 3.0)) / 4.0, rel=1e-11)


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


@pytest.mark.parametrize("horizon, trials", [(-1, 10), (10, 1)])
def test_simulate_paths_refusals(horizon, trials):
    # one path once reported a standard error of 0.0, which failed AC6 on any nonzero mean
    message = ("horizon must be an integer of at least 0, got -1" if horizon < 0
               else "trials must be an integer of at least 2, got 1")
    with pytest.raises(ValueError, match=f"^{message}$"):
        simulate_paths(BetaParams(1, 1), horizon, trials, SeedSpec(0))


class TestStabilityDiagnostics:
    def test_replace_one_reaches_bound(self):
        report = stability_diagnostics(DirichletParams((1.0, 1.0)), 1, {0})
        assert report.max_replace_one_change == pytest.approx(1.0 / 3.0)
        assert report.replace_one_bound == pytest.approx(1.0 / 3.0)
        assert report.max_replace_one_change <= report.replace_one_bound + 1e-12

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
        assert report.max_add_one_change <= report.add_one_bound

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

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_matches_brute_force_over_datasets(self, k):
        # the sweep over the subset count alone against every count vector of
        # n samples (itertools.product), every added sample and every
        # replacement of a sample of category i by j != i, up to k 5 and n 13
        priors = [(0.5,) * k, (0.3, 1.7, 2.5, 0.9, 4.1)[:k], (7.3, 0.1, 0.77, 3.3, 1.0)[:k]]
        eye = np.eye(k, dtype=int)
        for n in range(1, 14):
            counts = np.array(
                [c + (n - sum(c),) for c in itertools.product(range(n + 1), repeat=k - 1)
                 if sum(c) <= n]
            )
            for alphas in priors:
                prior = DirichletParams(alphas)
                for size in range(1, k):
                    for subset in itertools.combinations(range(k), size):
                        report = stability_diagnostics(prior, n, set(subset))
                        assert report.max_add_one_change == _brute_add(prior, subset, counts, eye)
                        assert report.max_replace_one_change == _brute_replace(
                            prior, subset, counts, eye
                        )
                        assert report.max_linearity_defect == _brute_defect(prior, subset, counts)

    @pytest.mark.parametrize("k, n", [(3, 0)])
    def test_refuses_past_the_exhaustive_sweep(self, k, n):
        with pytest.raises(ValueError, match="n must be an integer of at least 1, got 0"):
            stability_diagnostics(DirichletParams((1.0,) * k), n, {0})

    def test_sweep_names_a_failing_cell(self, monkeypatch):
        # a diagnostic whose add-one change exceeds its bound, or whose
        # linearity defect is 2e-12, fails AC11 on the martingale check, with
        # its (k, alpha, n, subset) named
        def loose(prior, n, subset):
            report = stability_diagnostics(prior, n, subset)
            if prior.k == 3 and n == 7 and prior.alphas[0] == 0.5:
                return dataclasses.replace(report, max_add_one_change=report.add_one_bound + 1e-9)
            if prior.k == 2 and n == 5 and prior.alphas[0] == 1.0:
                return dataclasses.replace(report, max_linearity_defect=2e-12)
            return report

        monkeypatch.setattr(martingale, "stability_diagnostics", loose)
        failures = []
        summary = checks._stability_sweep(failures)
        assert summary["stability_cells"] == 528
        assert len(failures) == 8  # the six proper subsets of 3 categories, two of 2
        cells = {(f["check"], f["k"], f["alpha"], f["n"]) for f in failures}
        assert cells == {("stability", 3, 0.5, 7), ("stability", 2, 1.0, 5)}
        add_cell = [f for f in failures if f["k"] == 3]
        assert sorted(f["subset"] for f in add_cell) == ["0", "0;1", "0;2", "1", "1;2", "2"]
        assert {f["linearity_defect"] for f in failures if f["k"] == 2} == {2e-12}

    def test_vanishing_complement(self):
        # the projection sums the complement's own alphas, so a prior whose
        # total swallows the complement's mass still answers
        report = stability_diagnostics(DirichletParams((1e20, 1.0)), 3, {0})
        assert report.add_one_bound == 1.0 / (1e20 + 4.0)
        assert report.max_add_one_change <= report.add_one_bound

    def test_subset_validation(self):
        d = DirichletParams((1.0, 1.0))
        with pytest.raises(ValueError):
            stability_diagnostics(d, 3, set())
        with pytest.raises(ValueError):
            stability_diagnostics(d, 3, {0, 1})
        # refused, not passed to numpy's indexing
        for subset in ({1.0}, {True}):
            with pytest.raises(ValueError, match="category index must be an integer"):
                stability_diagnostics(d, 3, subset)
        assert stability_diagnostics(d, 3, {np.int64(1)}) == stability_diagnostics(d, 3, {1})


def _brute_answers(prior, subset, counts):
    """Posterior-mean answer (alpha_S + c_S)/(A + n) on each count vector (row)."""
    alpha_s = float(np.asarray(prior.alphas)[list(subset)].sum())
    c_s = counts[:, list(subset)].sum(axis=1).astype(float)
    return (alpha_s + c_s) / (prior.total + counts.sum(axis=1))


def _brute_add(prior, subset, counts, eye):
    before = _brute_answers(prior, subset, counts)
    return max(
        float(np.abs(_brute_answers(prior, subset, counts + eye[i]) - before).max())
        for i in range(prior.k)
    )


def _brute_replace(prior, subset, counts, eye):
    before = _brute_answers(prior, subset, counts)
    changes = [0.0]
    for i, j in itertools.permutations(range(prior.k), 2):
        has_i = counts[:, i] > 0
        if has_i.any():
            after = _brute_answers(prior, subset, counts[has_i] - eye[i] + eye[j])
            changes.append(float(np.abs(after - before[has_i]).max()))
    return max(changes)


def _brute_defect(prior, subset, counts):
    """Largest gap between the answer and (A mu0 + n e_hat)/(A + n), e_hat = c_S/n."""
    n = int(counts[0].sum())
    alpha_s = float(np.asarray(prior.alphas)[list(subset)].sum())
    e_hat = counts[:, list(subset)].sum(axis=1).astype(float) / n
    linear = (prior.total * (alpha_s / prior.total) + n * e_hat) / (prior.total + n)
    return float(np.abs(_brute_answers(prior, subset, counts) - linear).max())


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda v: required_n(0.1, 0.05, v, 10.0), "q"),
        (lambda v: azuma_total(BetaParams(1, 1), v), "horizon"),
        (lambda v: simulate_paths(BetaParams(1, 1), v, 10, SeedSpec(0)), "horizon"),
        (lambda v: simulate_paths(BetaParams(1, 1), 10, v, SeedSpec(0)), "trials"),
        (lambda v: stability_diagnostics(DirichletParams((1, 1, 1)), v, {0}), "n"),
    ],
)
@pytest.mark.parametrize("value", [2.5, 10.0, True])
def test_counts_must_be_integers(call, name, value):
    with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
        call(value)
