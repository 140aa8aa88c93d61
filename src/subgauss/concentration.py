"""Variance-proxy estimation and subgaussianity criteria.

A centered random variable X is sigma^2-subgaussian when
E[exp(lam*X)] <= exp(lam^2 sigma^2 / 2) for every lam; the smallest such
sigma^2 is the variance proxy tau^2(X). This module estimates tau^2 by
maximizing the log-MGF ratio over a lambda grid, and provides the
raw-moment, paired-moment, termwise-coefficient, and centered-moment
sufficient criteria along with the resulting exponential tail bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .distributions import (
    BetaParams,
    MomentSequence,
    beta_log_mgf,
    beta_mean_var,
    beta_raw_moments,
)

__all__ = [
    "VarianceProxyEstimate",
    "MomentCriterionReport",
    "TailBoundResult",
    "BetaBoundCheck",
    "BetaTightBoundCheck",
    "AffineScalingCheck",
    "variance_proxy_sup",
    "beta_proxy_estimate",
    "check_beta_bound",
    "check_beta_tight_bound",
    "raw_moment_criterion",
    "beta_moment_pair_bounds",
    "termwise_mgf_comparison",
    "centered_moment_criterion",
    "tail_bound",
    "affine_scaling_check",
    "empirical_log_mgf",
    "beta_proxy_bound",
    "beta_tight_proxy_bound",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def beta_proxy_bound(p: BetaParams) -> float:
    """Guaranteed variance-proxy bound 1/(4(alpha+beta)+2) for Beta(p)."""
    return 1.0 / (4.0 * p.total + 2.0)


def beta_tight_proxy_bound(p: BetaParams) -> float:
    """Tight bound 1/(4(alpha+beta+1)) (Marchal & Arbel 2017, arXiv:1705.00048)."""
    return 1.0 / (4.0 * (p.total + 1.0))


@dataclass(frozen=True)
class VarianceProxyEstimate:
    """Grid supremum of 2*(ln M(lam) - lam*mean)/lam^2: a lower estimate of tau^2."""

    value: float
    argmax_lambda: float
    method: str  # "exact_mgf" | "empirical_mgf" | "moment_criterion"
    grid_spec: str
    slack: float


@dataclass(frozen=True)
class MomentCriterionReport:
    """Outcome of a per-index moment inequality sweep; passed iff no violations."""

    sigma2_tested: float
    j_max: int
    violations: tuple[tuple[int, float, float], ...]
    passed: bool


@dataclass(frozen=True)
class TailBoundResult:
    epsilon: float
    sigma2: float
    bound: float


@dataclass(frozen=True)
class BetaBoundCheck:
    tau2_est: float
    bound: float
    passed: bool
    estimate: VarianceProxyEstimate


@dataclass(frozen=True)
class BetaTightBoundCheck:
    tau2_est: float
    bound: float
    ratio: float
    estimate: VarianceProxyEstimate


@dataclass(frozen=True)
class AffineScalingCheck:
    tau2_base: float
    tau2_affine: float
    expected: float
    rel_error: float
    passed: bool


def _golden_max(fn: Callable[[float], float], lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Derivative-free golden-section maximization of fn on [lo, hi]."""
    a, b = float(lo), float(hi)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(300):
        if b - a <= tol:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
    return (c, fc) if fc >= fd else (d, fd)


def variance_proxy_sup(
    log_mgf: Callable[[float], float],
    mean: float,
    lambda_cap: float,
    *,
    points_per_sign: int = 200,
    lambda_min: float = 1e-3,
    refine_tol: float = 1e-8,
    method: str = "exact_mgf",
) -> VarianceProxyEstimate:
    """Estimate tau^2 as the supremum of 2*(ln M(lam) - lam*mean)/lam^2.

    The ratio is evaluated on a signed log-spaced grid (|lam| from
    ``lambda_min`` to ``lambda_cap``, ``points_per_sign`` points per sign) and
    the best grid point is polished by golden-section refinement within its
    same-sign bracket. The ratio tends to Var(X) as lam -> 0 and to 0 as
    |lam| -> inf for bounded X, so the supremum is interior and grid-plus-
    refine finds it; the reported value never exceeds the true supremum.

    ``log_mgf`` takes lam and returns ln E[exp(lam*X)]; working in log space
    keeps large-lam scans representable. A non-finite log-MGF raises
    OverflowError.
    """
    if lambda_cap <= lambda_min:
        raise ValueError("lambda_cap must exceed the smallest grid magnitude")

    def ratio(lam: float) -> float:
        value = log_mgf(lam)
        if not math.isfinite(value):
            raise OverflowError(f"log-MGF is not finite at lambda={lam!r}")
        return 2.0 * (value - lam * mean) / (lam * lam)

    magnitudes = np.geomspace(lambda_min, lambda_cap, points_per_sign)
    lams = np.concatenate([-magnitudes[::-1], magnitudes])
    values = np.array([ratio(l) for l in lams])

    best = int(np.argmax(values))
    # Same-sign bracket around the best grid point (never refine across 0).
    n = points_per_sign
    sign_lo, sign_hi = (0, n - 1) if best < n else (n, 2 * n - 1)
    lo = lams[max(best - 1, sign_lo)]
    hi = lams[min(best + 1, sign_hi)]
    if lo > hi:
        lo, hi = hi, lo
    arg, val = _golden_max(ratio, lo, hi, refine_tol)
    if values[best] >= val:
        arg, val = float(lams[best]), float(values[best])

    neighbors = [values[i] for i in (best - 1, best + 1) if sign_lo <= i <= sign_hi]
    slack = max((abs(values[best] - v) for v in neighbors), default=0.0)
    spec = (
        f"signed log grid |lambda| in [{lambda_min:g}, {lambda_cap:g}], "
        f"{points_per_sign} points/sign, golden refine tol {refine_tol:g}"
    )
    return VarianceProxyEstimate(
        value=val, argmax_lambda=arg, method=method, grid_spec=spec, slack=float(slack)
    )


def beta_proxy_estimate(p: BetaParams, *, lambda_cap: float | None = None) -> VarianceProxyEstimate:
    """Variance-proxy estimate for Beta(p) from its exact (series) MGF."""
    cap = 100.0 * p.total if lambda_cap is None else lambda_cap
    mean, _ = beta_mean_var(p)
    return variance_proxy_sup(lambda lam: beta_log_mgf(p, lam), mean, cap)


def check_beta_bound(p: BetaParams, *, lambda_cap: float | None = None) -> BetaBoundCheck:
    """Check the guaranteed bound tau^2 <= 1/(4(alpha+beta)+2) for Beta(p)."""
    est = beta_proxy_estimate(p, lambda_cap=lambda_cap)
    bound = beta_proxy_bound(p)
    return BetaBoundCheck(
        tau2_est=est.value,
        bound=bound,
        passed=est.value <= bound * (1.0 + 1e-6),
        estimate=est,
    )


def check_beta_tight_bound(p: BetaParams, *, lambda_cap: float | None = None) -> BetaTightBoundCheck:
    """Report tau^2 against the tight bound 1/(4(alpha+beta+1)).

    Marchal & Arbel 2017 (arXiv:1705.00048) prove it is a variance proxy
    of every Beta, attained at alpha = beta. The check returns the ratio;
    callers apply their own tolerance to it.
    """
    est = beta_proxy_estimate(p, lambda_cap=lambda_cap)
    bound = beta_tight_proxy_bound(p)
    return BetaTightBoundCheck(
        tau2_est=est.value, bound=bound, ratio=est.value / bound, estimate=est
    )


def raw_moment_criterion(m: MomentSequence, sigma2: float) -> MomentCriterionReport:
    """Check E[X^(j+2)]/E[X^j] <= E[X]^2 + (j+1) sigma^2 for j = 0..j_max-2.

    Requires strictly positive raw moments. When the inequality holds for
    all j, the upper tail of X - E[X] is sigma^2-subgaussian, so this is a
    sufficient one-sided criterion rather than a tau^2 estimator.
    """
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    values = m.as_array()
    if (values <= 0).any():
        raise ValueError("the raw-moment criterion requires positive raw moments")
    mean_sq = values[1] ** 2 if m.j_max >= 1 else 1.0
    violations = []
    for j in range(m.j_max - 1):
        lhs = values[j + 2] / values[j]
        rhs = mean_sq + (j + 1) * sigma2
        if lhs > rhs:
            violations.append((j, float(lhs), float(rhs)))
    return MomentCriterionReport(
        sigma2_tested=float(sigma2),
        j_max=m.j_max,
        violations=tuple(violations),
        passed=not violations,
    )


def beta_moment_pair_bounds(
    p: BetaParams, j_max: int, *, strict: bool = True
) -> list[tuple[int, float, float]]:
    """Consecutive-moment-ratio bound for Beta(p), for each j = 0..j_max.

    lhs = (alpha+j)(alpha+j+1)/((alpha+beta+j)(alpha+beta+j+1)),
    rhs = (alpha/(alpha+beta))^2 + (j+1)/(2(alpha+beta+1)).
    With ``strict`` the function raises if any lhs exceeds rhs + 1e-12; the
    inequality holds for all shape parameters, so a violation means a bug.
    """
    if j_max < 0:
        raise ValueError("j_max must be nonnegative")
    a, s = p.alpha, p.total
    mean_sq = (a / s) ** 2
    rows = []
    for j in range(j_max + 1):
        lhs = (a + j) * (a + j + 1.0) / ((s + j) * (s + j + 1.0))
        rhs = mean_sq + (j + 1.0) / (2.0 * (s + 1.0))
        if strict and lhs > rhs + 1e-12:
            raise ArithmeticError(
                f"moment-pair bound violated at j={j}: {lhs!r} > {rhs!r}"
            )
        rows.append((j, lhs, rhs))
    return rows


def termwise_mgf_comparison(
    p: BetaParams, sigma2: float, k_max: int
) -> list[tuple[int, float, float]]:
    """Coefficients of both sides of the MGF bound, power by power.

    For each power n = 0..k_max returns (n, lhs, rhs) with
    lhs = E[X^n]/n!   (coefficient of lam^n in E[exp(lam X)]),
    rhs = coefficient of lam^n in exp(lam*mean + lam^2 sigma2/2).
    Callers inspect where lhs <= rhs holds or fails; a failed power does not
    by itself refute subgaussianity since neighboring powers can compensate.
    """
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    mean, _ = beta_mean_var(p)
    moments = beta_raw_moments(p, k_max)
    half_sigma2 = 0.5 * sigma2
    rows = []
    for n in range(k_max + 1):
        lhs = moments[n] / math.factorial(n)
        rhs = math.fsum(
            mean ** (n - 2 * m) * half_sigma2**m
            / (math.factorial(n - 2 * m) * math.factorial(m))
            for m in range(n // 2 + 1)
        )
        rows.append((n, float(lhs), float(rhs)))
    return rows


def centered_moment_criterion(
    centered_moments: Sequence[float], sigma2: float, symmetric: bool
) -> MomentCriterionReport:
    """Check E[(X-mu)^(2k)] <= (sigma2/sqrt(3.1))^k (2k-1)!! for k = 1..K.

    ``centered_moments`` holds the even centered moments in order k = 1..K.
    For symmetric X the sqrt(3.1) factor is dropped. Sufficient check only;
    equality at every k is attained by the Gaussian when symmetric.
    """
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    base = sigma2 if symmetric else sigma2 / math.sqrt(3.1)
    violations = []
    double_factorial = 1.0
    for k, lhs in enumerate(centered_moments, start=1):
        double_factorial *= 2 * k - 1
        rhs = base**k * double_factorial
        if lhs > rhs * (1.0 + 1e-12):
            violations.append((k, float(lhs), float(rhs)))
    return MomentCriterionReport(
        sigma2_tested=float(sigma2),
        j_max=len(centered_moments),
        violations=tuple(violations),
        passed=not violations,
    )


def tail_bound(sigma2: float, epsilon: float) -> TailBoundResult:
    """One-sided subgaussian tail bound exp(-eps^2/(2 sigma^2)), clamped to <= 1."""
    if sigma2 <= 0 or epsilon < 0:
        raise ValueError("sigma2 must be positive and epsilon nonnegative")
    bound = min(1.0, math.exp(-epsilon * epsilon / (2.0 * sigma2)))
    return TailBoundResult(epsilon=float(epsilon), sigma2=float(sigma2), bound=bound)


def affine_scaling_check(
    p: BetaParams,
    a: float,
    b: float,
    *,
    lambda_cap: float | None = None,
    rel_tol: float = 1e-4,
) -> AffineScalingCheck:
    """Verify tau^2(aX + b) = a^2 tau^2(X) from the exact MGFs.

    The variance proxy is a squared norm, so it scales quadratically and is
    translation invariant. Both sides are estimated by the same grid
    supremum, with the scaled scan capped at lambda_cap/|a| so both scans
    cover the same effective range.
    """
    if a == 0:
        raise ValueError("scale factor a must be nonzero")
    cap = 100.0 * p.total if lambda_cap is None else lambda_cap
    mean, _ = beta_mean_var(p)
    base = variance_proxy_sup(lambda lam: beta_log_mgf(p, lam), mean, cap)
    affine = variance_proxy_sup(
        lambda lam: lam * b + beta_log_mgf(p, a * lam),
        a * mean + b,
        cap / abs(a),
    )
    expected = a * a * base.value
    rel_error = abs(affine.value - expected) / expected
    return AffineScalingCheck(
        tau2_base=base.value,
        tau2_affine=affine.value,
        expected=expected,
        rel_error=rel_error,
        passed=rel_error <= rel_tol,
    )


def weighted_log_mgf(
    values: np.ndarray, weights: np.ndarray
) -> tuple[Callable[[float], float], float, float]:
    """(log_mgf, mean, cap) of the law with weight w_i (summing to 1) on v_i.

    log_mgf(lam) = ln sum_i w_i e^(lam x_i), x_i = v_i - mean, is centered:
    for |lam| * range <= 1 it is log1p(sum_i w_i expm1(lam x_i)), so the ratio
    2 log_mgf/lam^2 stays a lower estimate as lam -> 0. Since log_mgf(lam) <=
    |lam| max(x) for lam > 0 (|lam| max(-x) for lam < 0), the ratio is below
    Var, its limit at 0, beyond cap = 2 max|x| / Var: a scan to the cap
    contains the supremum. Constant values (Var = 0) have no cap: refused.
    """
    v, w = np.asarray(values, dtype=float), np.asarray(weights, dtype=float)
    v, w = v[w > 0], w[w > 0]  # the law's support
    mean = float(w @ v)
    x = v - mean
    hi, lo = float(x.max()), float(x.min())
    var = float(w @ (x * x))
    if var == 0.0:
        raise ValueError("constant values: Var = 0 leaves no lambda cap")
    cap = 2.0 * max(hi, -lo) / var

    def log_mgf(lam: float) -> float:
        if abs(lam) * (hi - lo) <= 1.0:
            return math.log1p(float(w @ np.expm1(lam * x)))
        shift = lam * (hi if lam > 0 else lo)
        return shift + math.log(float(w @ np.exp(lam * x - shift)))

    return log_mgf, mean, cap


def empirical_log_mgf(samples: np.ndarray) -> tuple[Callable[[float], float], float]:
    """Empirical log-MGF of bounded samples, plus the usable |lambda| cap.

    Returns (log_mgf, cap), where cap bounds |lambda| so that e^|lambda| stays
    below 1e6/sqrt(N), keeping the Monte Carlo relative error of the MGF
    controlled. Best effort: intended for exploratory estimates, not for
    tight assertions.
    """
    values = np.asarray(samples, dtype=float)
    n = values.size
    if n < 100:
        raise ValueError("empirical MGF needs at least 100 samples")
    centered, mean, _ = weighted_log_mgf(values, np.full(n, 1.0 / n))
    return (lambda lam: centered(lam) + lam * mean), math.log(1e6 / math.sqrt(n))
