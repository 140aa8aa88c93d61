"""Variance-proxy estimation and subgaussianity criteria.

A centered random variable X is sigma^2-subgaussian when
E[exp(lam*X)] <= exp(lam^2 sigma^2 / 2) for every lam; the smallest such
sigma^2 is the variance proxy tau^2(X). This module estimates tau^2 by
maximizing the log-MGF ratio over a lambda grid, and gives both sides of
the raw-moment and termwise-coefficient sufficient criteria, along with the
resulting exponential tail bound; `subgauss.checks` judges them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import (
    _TAYLOR_ORDER,
    BetaParams,
    _taylor_log_mgf,
    beta_centered_log_mgf,
    beta_log_mgf,  # noqa: F401  rebound by perfbench/tracing.py
    beta_mean_var,
    beta_raw_moments,
)

__all__ = [
    "VarianceProxyEstimate",
    "BetaBoundCheck",
    "variance_proxy_sup",
    "beta_proxy_estimate",
    "check_beta_bound",
    "raw_moment_criterion",
    "termwise_mgf_comparison",
    "tail_bound",
    "empirical_log_mgf",
    "beta_proxy_bound",
    "beta_tight_proxy_bound",
]

# The scan's grid: |lambda| log-spaced from _LAMBDA_MIN to the cap,
# _POINTS_PER_SIGN points per sign. Brent's method polishes the best point
# until it is bracketed to within _REFINE_TOL |lambda| on either side.
_POINTS_PER_SIGN = 200
_LAMBDA_MIN = 1e-3
_REFINE_TOL = 1e-8


def beta_proxy_bound(p: BetaParams) -> float:
    """Guaranteed variance-proxy bound 1/(4(alpha+beta)+2) for Beta(p)."""
    return 1.0 / (4.0 * p.total + 2.0)


def beta_tight_proxy_bound(p: BetaParams) -> float:
    """Tight bound 1/(4(alpha+beta+1)) (Marchal & Arbel 2017, arXiv:1705.00048)."""
    return 1.0 / (4.0 * (p.total + 1.0))


@dataclass(frozen=True)
class VarianceProxyEstimate:
    """Best ratio 2 (ln M(lam) - lam mean) / lam^2 found by a scan: a lower estimate of tau^2.

    ``grid_spec`` names the grid, the Brent refinement's relative tolerance
    and the |lambda| actually scanned on each sign; ``evaluations`` counts
    the log-MGF values the scan read (grid points and refinement), 0 for an
    estimate made without a scan.
    """

    value: float
    argmax_lambda: float
    grid_spec: str
    evaluations: int


@dataclass(frozen=True)
class BetaBoundCheck:
    tau2_est: float
    bound: float
    passed: bool
    evaluations: int  # log-MGF values the estimate's scan read


def _brent_max(
    fn: Callable[[float], float], lo: float, hi: float, x: float, fx: float,
    known: list[tuple[float, float]],
) -> tuple[float, float]:
    """Brent's parabolic-plus-golden maximization of fn on [lo, hi], from x.

    ``x`` is the best point known, with fn(x) = ``fx``. ``known`` is empty,
    or holds two more (point, value) pairs already read, and then the first
    step is the vertex of the parabola through the three. Every call of fn
    lies strictly inside (lo, hi). Stops once the bracket around x is within
    tol1 = _REFINE_TOL |x| either side, or after 100 steps, and returns the
    best (point, value) read: (x, fx) where none beat it.

    Unlike the textbook method, no step is shorter than sqrt(tol1 |x - w|),
    w the second-best point. The ratio is flat at its maximum, and a
    parabola through points far apart misplaces the vertex by up to about
    1e-5 |x|; a tol1 step from there compares two values closer together
    than their rounding, and can cut the maximum out of the bracket (a loss
    of 8.5e-13 relative on the empirical log-MGF of 3901 Beta draws).
    """
    golden = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    (w, fw), (v, fv) = sorted(known, key=lambda pair: -pair[1]) if known else [(x, fx)] * 2
    d = e = b - a  # admits a first parabolic step of up to half the bracket
    for _ in range(100):
        xm = 0.5 * (a + b)
        tol1 = _REFINE_TOL * abs(x)
        tol2 = 2.0 * tol1
        if abs(x - xm) <= tol2 - 0.5 * (b - a):
            break
        step = None
        if abs(e) > tol1:  # try the vertex of the parabola through x, w, v
            r = (x - w) * (fv - fx)
            q = (x - v) * (fw - fx)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                e, step = d, p / q
                if x + step - a < tol2 or b - (x + step) < tol2:
                    step = tol1 if xm >= x else -tol1
        if step is None:  # golden section into the larger part
            e = (a - x) if x >= xm else (b - x)
            step = golden * e
        d = step
        # no shorter step than sqrt(tol1 |x - w|), while tol1 inside the bracket
        sign = math.copysign(1.0, d)
        room = (b - x if sign > 0 else x - a) - tol1
        u = x + sign * max(abs(d), tol1, min(math.sqrt(tol1 * abs(x - w)), room))
        fu = fn(u)
        if fu >= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


def _scan(
    log_mgf: Callable[[float], float], lambda_cap: float, reach: tuple[float, float]
) -> VarianceProxyEstimate:
    """Grid-plus-Brent supremum of 2 log_mgf(lam) / lam^2 for |lam| <= lambda_cap.

    ``log_mgf`` is centered, lam -> ln E[e^(lam (X - E X))], and ``reach`` is
    (max X - E X, E X - min X) of a bounded law, or infinities. The ratio is
    then at most 2 reach[0] / lam for lam > 0 and 2 reach[1] / |lam| for
    lam < 0, so each sign's grid is walked outward until that bound falls
    below the best ratio so far: no skipped point holds the grid's best.

    An array form ``log_mgf.grid(lams)`` gives all grid values in one call;
    the walk calls ``log_mgf`` only where it gave NaN, so points past the stop
    are never evaluated. `_brent_max` refines strictly inside the same-sign
    bracket of the best grid point, whose ends were read, so it needs no value
    past the stop, never crosses 0 and never returns less than the best grid
    value. ``evaluations`` counts the values read, whichever form gave them.
    """
    if lambda_cap <= _LAMBDA_MIN:
        raise ValueError("lambda_cap must exceed the smallest grid magnitude")
    calls = [0]

    def ratio(lam: float, value: float = math.nan) -> float:
        calls[0] += 1
        if math.isnan(value):
            value = log_mgf(lam)
        if not math.isfinite(value):
            raise OverflowError(f"log-MGF is not finite at lambda={lam!r}")
        return 2.0 * value / (lam * lam)

    n = _POINTS_PER_SIGN
    magnitudes = np.geomspace(_LAMBDA_MIN, lambda_cap, n)
    lams = np.concatenate([-magnitudes[::-1], magnitudes])
    grid = getattr(log_mgf, "grid", None)
    # Python floats round as numpy's float64 does, and are faster to index and combine
    points = lams.tolist()
    readings = grid(lams).tolist() if grid is not None else [math.nan] * (2 * n)
    values = [-math.inf] * (2 * n)
    scanned = [0.0, 0.0]  # largest |lambda| evaluated on the - and + sides
    live, best_value = [True, True], -math.inf
    for i, m in enumerate(magnitudes.tolist()):
        for side, index in ((1, n + i), (0, n - 1 - i)):
            live[side] = live[side] and 2.0 * reach[1 - side] / m >= best_value
            if live[side]:
                values[index] = ratio(points[index], readings[index])
                best_value = max(best_value, values[index])
                scanned[side] = m
    best = values.index(max(values))
    # Same-sign bracket around the best grid point (never refine across 0).
    sign_lo, sign_hi = (0, n - 1) if best < n else (n, 2 * n - 1)
    lo, hi = max(best - 1, sign_lo), min(best + 1, sign_hi)
    # both neighbours seed the first parabola, unless one is missing or unread (-inf)
    known = [(points[i], values[i]) for i in (lo, hi)]
    if not lo < best < hi or -math.inf in (values[lo], values[hi]):
        known = []
    arg, val = _brent_max(ratio, points[lo], points[hi], points[best], values[best], known)

    spec = (
        f"signed log grid |lambda| in [{_LAMBDA_MIN:g}, {lambda_cap:g}], "
        f"{n} points/sign, Brent refine to {_REFINE_TOL:g} |lambda|; "
        f"scanned to {scanned[0]:g} (-), {scanned[1]:g} (+)"
    )
    return VarianceProxyEstimate(value=val, argmax_lambda=arg, grid_spec=spec, evaluations=calls[0])


def variance_proxy_sup(
    log_mgf: Callable[[float], float], mean: float, lambda_cap: float
) -> VarianceProxyEstimate:
    """Estimate tau^2 as the supremum of 2 (ln M(lam) - lam mean) / lam^2 for |lam| <= lambda_cap.

    ``log_mgf`` is the uncentered ln E[e^(lam X)], ``mean`` is E X. The kernel
    and its array form ``log_mgf.grid``, if any, are centered, then scanned by
    `_scan` with no certified stop: a lower estimate of the supremum, up to
    the rounding of ``log_mgf`` and of the centering. A non-finite value
    raises OverflowError. Bounded laws scan their centered kernel instead.
    """

    def centered(lam: float) -> float:
        return log_mgf(lam) - lam * mean

    grid = getattr(log_mgf, "grid", None)
    if grid is not None:
        centered.grid = lambda lams: grid(lams) - lams * mean
    return _scan(centered, lambda_cap, (math.inf, math.inf))


def _certified_scan(
    log_mgf: Callable[[float], float], reach: tuple[float, float], var: float,
    cap: float = math.inf,
) -> VarianceProxyEstimate:
    """`_scan` of a centered bounded law to min(cap, 2 max(reach) / Var).

    Past 2 max(reach) / Var the ratio is below Var, its limit at 0 (see
    `_scan`), so the scan holds the supremum over |lam| <= cap, and over all
    lam at the default cap. Var = 0 (a constant, or an underflowed variance)
    leaves no cap and is refused.
    """
    if not var > 0.0:
        raise ValueError(f"Var = {var!r} leaves no lambda cap")
    return _scan(log_mgf, min(cap, 2.0 * max(reach) / var), reach)


def beta_proxy_estimate(p: BetaParams) -> VarianceProxyEstimate:
    """Variance-proxy estimate for Beta(p) from its exact centered (series) log-MGF.

    The scan stops where the bounded support certifies that no larger
    ratio remains. For alpha + beta <= 1e6, where this was tested against
    50-digit mpmath, the estimate is tau^2 to about 1e-13 relative. Beyond,
    the raw series minus lam mu that takes over from the central series
    loses about eps mu / (|lam| Var) relative (5.8e-15 above Var at
    Beta(5e6, 5e6)). Past alpha + beta of about 5e7 the raw series needs
    more than 2^18 terms and raises OverflowError; a variance that
    underflows raises ValueError.
    """
    mean, var = beta_mean_var(p)
    return _certified_scan(beta_centered_log_mgf(p), (1.0 - mean, mean), var)


def check_beta_bound(p: BetaParams) -> BetaBoundCheck:
    """Check the guaranteed bound tau^2 <= 1/(4(alpha+beta)+2) for Beta(p), to 1e-6 relative."""
    est = beta_proxy_estimate(p)
    bound = beta_proxy_bound(p)
    return BetaBoundCheck(
        tau2_est=est.value, bound=bound, passed=est.value <= bound * (1.0 + 1e-6),
        evaluations=est.evaluations,
    )


def _check_sigma2(sigma2: float) -> None:
    if not (math.isfinite(sigma2) and sigma2 > 0):
        raise ValueError(f"sigma2 must be positive and finite, got {sigma2!r}")


def raw_moment_criterion(moments: np.ndarray, sigma2: float) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of E[X^(j+2)]/E[X^j] <= E[X]^2 + (j+1) sigma^2, as arrays over j = 0..J-2.

    ``moments`` is a 1-D array (or sequence) of the raw moments E[X^j],
    j = 0..J, J >= 2. They must be finite, start with E[X^0] = 1 to 1e-9, and
    be strictly positive; sigma2 must be positive and finite. When lhs <= rhs
    for all j, the upper tail of X - E[X] is sigma^2-subgaussian, so this is
    a sufficient one-sided criterion rather than a tau^2 estimator.
    """
    _check_sigma2(sigma2)
    values = np.asarray(moments, dtype=float)
    if values.ndim != 1 or values.size < 3:
        raise ValueError(f"raw moments must be a 1-D array of 3 or more, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise ValueError("raw moments must be finite")
    if abs(values[0] - 1.0) > 1e-9:
        raise ValueError(f"zeroth raw moment must be 1, got {values[0]!r}")
    if (values <= 0).any():
        raise ValueError("the raw-moment criterion requires positive raw moments")
    return values[2:] / values[:-2], values[1] ** 2 + np.arange(1, values.size - 1) * sigma2


def termwise_mgf_comparison(
    p: BetaParams, sigma2: float, k_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of both sides of the MGF bound, as arrays over powers n = 0..k_max.

    lhs[n] = E[X^n]/n! is the coefficient of lam^n in E[exp(lam X)], and
    rhs[n] that of lam^n in exp(lam*mean + lam^2 sigma2/2). A power where
    lhs > rhs does not by itself refute subgaussianity, since neighboring
    powers can compensate.
    """
    _check_sigma2(sigma2)
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    mean, _ = beta_mean_var(p)
    half_sigma2 = 0.5 * sigma2
    factorials = np.array([math.factorial(n) for n in range(k_max + 1)], dtype=float)
    rhs = [
        math.fsum(
            mean ** (n - 2 * m) * half_sigma2**m
            / (math.factorial(n - 2 * m) * math.factorial(m))
            for m in range(n // 2 + 1)
        )
        for n in range(k_max + 1)
    ]
    return beta_raw_moments(p, k_max) / factorials, np.array(rhs)


def tail_bound(sigma2: float, epsilon: float) -> float:
    """One-sided subgaussian tail bound P(X - E X >= eps) <= exp(-eps^2/(2 sigma^2))."""
    _check_sigma2(sigma2)
    if not epsilon >= 0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon!r}")
    return math.exp(-epsilon * epsilon / (2.0 * sigma2))


def tail_frequencies(
    deviations: np.ndarray, sigma2: float, epsilons: tuple[float, ...], sides: int
) -> tuple[tuple[float, float, float, float], ...]:
    """(eps, freq, bound, se) per eps: the frequency of ``deviations`` >= eps,
    its bound min(1, sides * `tail_bound`), sides 1 or 2 (for |X - E X|), and
    its standard error, floored at that of one event in N."""
    n = deviations.size
    rows = []
    for eps in epsilons:
        freq = float((deviations >= eps).mean())
        bound = min(1.0, sides * tail_bound(sigma2, eps))
        se = math.sqrt(max(freq * (1.0 - freq), 1.0 / n) / n)
        rows.append((float(eps), freq, bound, se))
    return tuple(rows)


def weighted_log_mgf(
    values: np.ndarray, weights: np.ndarray
) -> tuple[Callable[[float], float], float, tuple[float, float], float]:
    """(log_mgf, mean, reach, var) of the law with weight w_i (summing to 1) on v_i.

    log_mgf(lam) = ln sum_i w_i e^(lam x_i), x_i = v_i - mean, is centered;
    reach = (max x, -min x). For |lam| * range <= 1 it is the series
    log1p(sum_{k=1}^{21} lam^k e_k), e_k = sum_i w_i x_i^k / k!, by Horner's
    rule (`distributions._taylor_log_mgf`) on a table built at the branch's
    first call (`_check_rule_resolves` evaluates a law of up to 2^18 points
    once, maybe past the branch): its truncation error is at most 1.3e-20 relative, and no term
    cancels against a leading 1, so the ratio 2 log_mgf/lam^2 stays a lower
    estimate as lam -> 0. e_1 is the centering's rounding residual, kept so
    that both branches describe the same points. Past that range the sum is
    shifted by lam max(x) (lam > 0) or lam min(x) (lam < 0) so no exponential
    overflows; it sums over all N points per lam, so it stays scalar.
    ``log_mgf.grid(lams)`` evaluates the series branch on an array of lam in
    one numpy pass, with values == log_mgf's, and NaN past it. Every weighted
    sum is an `np.einsum` reduction: unlike `w @ v`, it never calls BLAS,
    whose threaded dot product rounds differently with the thread count.
    Constant values (Var = 0) are refused.
    """
    v, w = np.asarray(values, dtype=float), np.asarray(weights, dtype=float)
    v, w = v[w > 0], w[w > 0]  # the law's support
    mean = float(np.einsum("i,i->", w, v))
    x = v - mean
    hi, lo = float(x.max()), float(x.min())
    var = float(np.einsum("i,i->", w, x * x))
    if not var > 0.0:
        raise ValueError(f"Var = {var!r} leaves no lambda cap")
    near: list[float] = []  # e_21 .. e_1 once built

    def taylor_terms() -> list[float]:
        if not near:
            term = np.ones_like(x)
            for k in range(1, _TAYLOR_ORDER + 1):
                term = term * x / k  # x^k / k!
                near.insert(0, float(np.einsum("i,i->", w, term)))
        return near

    def grid(lams: np.ndarray) -> np.ndarray:
        out = np.full(lams.shape, math.nan)
        close = abs(lams) * (hi - lo) <= 1.0
        if close.any():
            out[close] = _taylor_log_mgf(taylor_terms(), lams[close])
        return out

    def log_mgf(lam: float) -> float:
        if abs(lam) * (hi - lo) <= 1.0:
            return _taylor_log_mgf(taylor_terms(), lam)
        shift = lam * (hi if lam > 0 else lo)
        return shift + math.log(np.einsum("i,i->", w, np.exp(lam * x - shift)))

    log_mgf.grid = grid  # refers to no log_mgf: no reference cycle holds the N points
    return log_mgf, mean, (hi, -lo), var


def weighted_proxy_sup(
    values: np.ndarray, weights: np.ndarray, cap: float = math.inf
) -> VarianceProxyEstimate:
    """tau^2 of the law with weight w_i on v_i over |lambda| <= cap: `_certified_scan`
    of its centered log-MGF, the supremum over all lambda at the default cap."""
    log_mgf, _, reach, var = weighted_log_mgf(values, weights)
    return _certified_scan(log_mgf, reach, var, cap)


def _monte_carlo_window(draws: int) -> float:
    """|lambda| cap of a Monte Carlo log-MGF: e^|lambda| <= 1e6 / sqrt(draws) bounds its error."""
    return math.log(1e6 / math.sqrt(draws))


def empirical_log_mgf(samples: np.ndarray) -> tuple[Callable[[float], float], float]:
    """Uncentered empirical log-MGF of at least 100 bounded samples, and `_monte_carlo_window(N)`.

    log_mgf(lam) = ln (1/N) sum_i e^(lam x_i) is `weighted_log_mgf`'s centered
    kernel at weights 1/N plus lam times the sample mean, and so is its array
    form ``grid``. Best effort, for exploratory estimates: adding the mean
    back costs up to 2.5e-12 relative in a scan's ratio at small argmaxes.
    """
    values = np.asarray(samples, dtype=float)
    n = values.size
    if n < 100:
        raise ValueError("empirical MGF needs at least 100 samples")
    centered, mean, _, _ = weighted_log_mgf(values, np.full(n, 1.0 / n))

    def log_mgf(lam: float) -> float:
        return centered(lam) + lam * mean

    log_mgf.grid = lambda lams: centered.grid(lams) + lams * mean
    return log_mgf, _monte_carlo_window(n)
