"""Closed-form raw moments of the conjugate-model queries, for the tests.

These are the exact references that the Gauss rule of
`subgauss.conjugate_models` is checked against: Q is expanded into
polynomials (binomial, geometric), monomials (multinomial) or
exponential-polynomials (Poisson), and integrated term by term against
the prior. Each is exact only up to a size cap, past which it raises
SizeCapError. `beta_expect` is the quadrature oracle for expectations under
a Beta law, independent of the series behind `subgauss`'s Beta log-MGF.
`golden_max` is the golden-section search that refined the tau^2 scan's
best grid point before Brent's method did; the scan's tests compare the two.
`required_n_search` is the doubling-and-bisection search that found the
game's sample size before its closed form did; `required_n` is checked
against it. `step_increment` is the two-valued law of one posterior-mean
step, against which `subgauss.martingale.step_variance_proxy` is checked.
`broadcast_query_block` is the query functional as one log-times-count and
one ``.sum(axis=1)`` on the whole (points, terms) array, and `loop_scan` the
tau^2 scan that read its grid by one ratio call per point; the library's
per-point-log functional and bounded scan are checked against them.
`counting` wraps a log-MGF to record the lambda of each scalar call, so a
test can count the points a scan read.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy import integrate
from scipy.special import gammaln, logsumexp

from subgauss.concentration import (
    _LAMBDA_MIN,
    _POINTS_PER_SIGN,
    _REFINE_TOL,
    VarianceProxyEstimate,
    _brent_max,
)
from subgauss.conjugate_models import _check_count_vectors, _outcome_counts
from subgauss.distributions import BetaParams, DirichletParams, GammaParams

# Expanded coefficients stay exact in float64: |c| <= 3^30, C(56, 28) < 2^53.
_MAX_BINOMIAL_M = 30
_MAX_GEOMETRIC_OUTCOME = 55
_MAX_POISSON_OUTCOME = 60
_MAX_POLY_WORK = 400  # j_max * degree cap for exact Beta-polynomial moments
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class SizeCapError(ValueError):
    """The instance is past the size cap within which a reference is exact."""


@dataclass(frozen=True)
class PolynomialInP:
    """Polynomial in the success probability p, coefficients by ascending degree."""

    coefficients: tuple[float, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(float(c) for c in self.coefficients)
        if not coeffs:
            raise ValueError("a polynomial needs at least one coefficient")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x):
        return np.polynomial.polynomial.polyval(x, np.asarray(self.coefficients))


def binomial_query_poly(m: int, subset: Iterable[int]) -> PolynomialInP:
    """Probability that an m-trial binomial count lands in ``subset``, as a polynomial.

    Expands sum_{c in S} C(m,c) p^c (1-p)^(m-c) in integer arithmetic; the
    coefficients stay exact in float64 for m <= 30, beyond which it is
    refused. `evaluate_model` sums the terms directly instead.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if m > _MAX_BINOMIAL_M:
        raise SizeCapError(f"m={m} exceeds the exact-coefficient cap {_MAX_BINOMIAL_M}")
    counts = sorted(set(int(c) for c in subset))
    if any(c < 0 or c > m for c in counts):
        raise ValueError("subset entries must lie in 0..m")
    coeffs = [0] * (m + 1)
    for c in counts:
        base = math.comb(m, c)
        for i in range(m - c + 1):  # expand (1-p)^(m-c)
            coeffs[c + i] += base * ((-1) ** i) * math.comb(m - c, i)
    return PolynomialInP(tuple(float(v) for v in coeffs))


def geometric_query_poly(subset: Iterable[int]) -> PolynomialInP:
    """Probability that a geometric failure count lands in ``subset``:
    sum_{c in S} p (1-p)^c expanded into monomials, exact for outcomes <= 55."""
    counts = _outcome_counts(subset)
    if counts[-1] > _MAX_GEOMETRIC_OUTCOME:
        raise SizeCapError(
            f"max(subset)={counts[-1]} exceeds the exact-coefficient cap "
            f"{_MAX_GEOMETRIC_OUTCOME}"
        )
    coeffs = [0] * (counts[-1] + 2)
    for c in counts:
        for i in range(c + 1):  # p * (1-p)^c
            coeffs[1 + i] += ((-1) ** i) * math.comb(c, i)
    return PolynomialInP(tuple(float(v) for v in coeffs))


def poly_raw_moments_under_beta(
    poly: PolynomialInP, prior: BetaParams, j_max: int
) -> np.ndarray:
    """E[Q(p)^j] for j = 0..j_max with p ~ Beta(prior), exact up to float64.

    Q^j is built by repeated coefficient convolution and integrated term by
    term against the Beta raw moments, all in exact rational arithmetic (a
    float coefficient is an exact rational), because the float sum cancels
    catastrophically once the coefficients reach ~1e12; only the final
    moment is rounded.
    """
    if j_max < 0:
        raise ValueError("j_max must be nonnegative")
    if j_max * poly.degree > _MAX_POLY_WORK:
        raise SizeCapError(
            f"j_max*degree = {j_max * poly.degree} exceeds the cap {_MAX_POLY_WORK}"
        )
    alpha, total = Fraction(prior.alpha), Fraction(prior.alpha) + Fraction(prior.beta)
    ratios = [Fraction(1)]  # E[p^d]
    for d in range(max(j_max * poly.degree, 1)):
        ratios.append(ratios[-1] * (alpha + d) / (total + d))
    exact = [int(c) if c.is_integer() else Fraction(c) for c in poly.coefficients]
    base, power = np.array(exact, dtype=object), np.ones(1, dtype=object)
    values = [1.0]
    for _ in range(j_max):
        power = np.convolve(power, base)
        values.append(float(sum(c * ratios[d] for d, c in enumerate(power) if c)))
    return np.array(values)


def multinomial_query_moments(
    m: int,
    subset: Iterable[Sequence[int]],
    prior: DirichletParams,
    j_max: int,
) -> np.ndarray:
    """E[Q^j] for Q the prior-projected probability of a multinomial count set.

    Q(p) = sum_{x in S} m!/(x_1! ... x_k!) p_1^x_1 ... p_k^x_k. Q^j is
    expanded into monomials (integer coefficients, so no cancellation) and
    E[prod p_i^d_i] = prod (alpha_i)_{d_i} / (A)_{sum d} is applied; this is
    only offered for k <= 4, m <= 5, j_max <= 8.
    """
    if j_max < 0:
        raise ValueError("j_max must be nonnegative")
    k = prior.k
    vectors = _check_count_vectors(subset, m, k)
    if k > 4 or m > 5 or j_max > 8:
        raise SizeCapError("exact moments need k <= 4, m <= 5, j_max <= 8")

    base: dict[tuple[int, ...], int] = {}
    m_fact = math.factorial(m)
    for x in vectors:
        coeff = m_fact
        for v in x:
            coeff //= math.factorial(v)
        base[x] = base.get(x, 0) + coeff

    alphas = np.asarray(prior.alphas)
    a_total = prior.total
    log_alpha = gammaln(alphas)

    def monomial_expectation(exponents: tuple[int, ...]) -> float:
        d_sum = sum(exponents)
        log_num = sum(
            gammaln(alphas[i] + e) - log_alpha[i] for i, e in enumerate(exponents)
        )
        return math.exp(log_num - (gammaln(a_total + d_sum) - gammaln(a_total)))

    values = [1.0]
    power: dict[tuple[int, ...], int] = {tuple([0] * k): 1}
    for _ in range(j_max):
        nxt: dict[tuple[int, ...], int] = {}
        for expo_a, ca in power.items():
            for expo_b, cb in base.items():
                key = tuple(a + b for a, b in zip(expo_a, expo_b))
                nxt[key] = nxt.get(key, 0) + ca * cb
        power = nxt
        values.append(
            math.fsum(c * monomial_expectation(e) for e, c in power.items())
        )
    return np.array(values)


def _log_poly_convolve(c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Convolution of polynomials given as log-coefficients (all terms >= 0)."""
    n = len(c1) + len(c2) - 1
    out = np.full(n, -np.inf)
    for s in range(n):
        lo = max(0, s - len(c2) + 1)
        hi = min(len(c1) - 1, s)
        chunk = c1[lo : hi + 1] + c2[s - hi : s - lo + 1][::-1]
        out[s] = logsumexp(chunk)
    return out


def poisson_query_moments(
    subset: Iterable[int], prior: GammaParams, j_max: int
) -> np.ndarray:
    """E[Q^j] for Q(rate) = sum_{c in S} rate^c e^-rate / c!, rate ~ Gamma(prior).

    Q^j = P_j(rate) e^{-j rate} with P_j a positive-coefficient polynomial, and
    E[rate^s e^{-j rate}] = beta^alpha Gamma(alpha+s) / (Gamma(alpha) (beta+j)^(alpha+s)).
    Everything is evaluated in log space, so no intermediate overflows.
    """
    counts = _outcome_counts(subset)
    if counts[-1] > _MAX_POISSON_OUTCOME:
        raise SizeCapError(f"max(subset)={counts[-1]} exceeds the cap {_MAX_POISSON_OUTCOME}")
    if not 0 <= j_max <= 20:
        raise SizeCapError("exact Poisson moments need 0 <= j_max <= 20")

    log_base = np.full(counts[-1] + 1, -np.inf)
    for c in counts:
        log_base[c] = -gammaln(c + 1.0)

    a, b = prior.alpha, prior.beta
    values = [1.0]
    log_power = np.zeros(1)
    for j in range(1, j_max + 1):
        log_power = _log_poly_convolve(log_power, log_base)
        s = np.arange(len(log_power), dtype=float)
        log_expect = (
            a * math.log(b) + gammaln(a + s) - gammaln(a) - (a + s) * np.log(b + j)
        )
        values.append(float(np.exp(logsumexp(log_power + log_expect))))
    return np.array(values)


def beta_expect(
    fn: Callable[[float], float],
    p: BetaParams,
    *,
    epsabs: float = 1e-13,
    epsrel: float = 1e-11,
) -> float:
    """E[fn(X)] for X ~ Beta(p) by adaptive quadrature.

    The density is split at 1/2 and each half is transformed (x = t^(1/alpha)
    on the left, mirrored on the right) so that integrable endpoint
    singularities for shape parameters below 1 disappear from the integrand.
    Used as an oracle independent of the series-based MGF path.
    """
    a, b = p.alpha, p.beta
    norm = math.exp(gammaln(a + b) - gammaln(a) - gammaln(b))

    if a < 1.0:
        # x = t^(1/a) absorbs the x^(a-1) singularity into the measure
        def left(t: float) -> float:
            x = t ** (1.0 / a)
            return fn(x) * (1.0 - x) ** (b - 1.0) / a

        left_hi = 0.5**a
    else:
        def left(x: float) -> float:
            return fn(x) * x ** (a - 1.0) * (1.0 - x) ** (b - 1.0)

        left_hi = 0.5

    if b < 1.0:
        def right(t: float) -> float:
            x = 1.0 - t ** (1.0 / b)
            return fn(x) * x ** (a - 1.0) / b

        right_hi = 0.5**b
    else:
        def right(u: float) -> float:  # u = 1 - x keeps the peak at the origin
            return fn(1.0 - u) * (1.0 - u) ** (a - 1.0) * u ** (b - 1.0)

        right_hi = 0.5

    i_left, _ = integrate.quad(left, 0.0, left_hi, epsabs=epsabs, epsrel=epsrel, limit=300)
    i_right, _ = integrate.quad(right, 0.0, right_hi, epsabs=epsabs, epsrel=epsrel, limit=300)
    return norm * (i_left + i_right)


@dataclass(frozen=True)
class StepIncrement:
    """Conditional law of the next posterior-mean move: two values, mean zero."""

    up_value: float
    up_prob: float
    down_value: float
    down_prob: float


def step_increment(p: BetaParams) -> StepIncrement:
    """Law of the posterior-mean change on the next Bernoulli observation.

    With current posterior Beta(a', b'): a success (probability a'/(a'+b'))
    moves the mean up by b'/((a'+b')(a'+b'+1)); a failure moves it down by
    a'/((a'+b')(a'+b'+1)).
    """
    s = p.total
    scale = 1.0 / (s * (s + 1.0))
    return StepIncrement(
        up_value=p.beta * scale,
        up_prob=p.alpha / s,
        down_value=-p.alpha * scale,
        down_prob=p.beta / s,
    )


def golden_max(fn: Callable[[float], float], lo: float, hi: float, tol: float) -> tuple[float, float]:
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


def required_n_search(epsilon: float, delta: float, q: int, prior_mass: float) -> int:
    """Smallest n with 2*exp(-eps^2 (2(A+n)+1)) <= delta/q (A = prior mass).

    The left side is the per-query subgaussian tail at variance proxy
    1/(4(A+n)+2); a union bound over q queries then gives total failure
    probability delta. Found by monotone search, avoiding closed-form
    off-by-one.
    """
    if epsilon <= 0 or delta <= 0 or delta >= 1 or q < 1 or prior_mass <= 0:
        raise ValueError("need epsilon > 0, 0 < delta < 1, q >= 1, prior_mass > 0")
    threshold = delta / q

    def ok(n: int) -> bool:
        exponent = -epsilon * epsilon * (2.0 * (prior_mass + n) + 1.0)
        return 2.0 * math.exp(exponent) <= threshold

    if ok(0):
        return 0
    hi = 1
    while not ok(hi):
        hi *= 2
        if hi > 2**40:
            raise OverflowError("required n exceeds 2^40; check epsilon and delta")
    lo = hi // 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


_lgamma = np.vectorize(math.lgamma, otypes=[float])


def _count_times(counts: np.ndarray, logs: np.ndarray) -> np.ndarray:
    """counts * logs, broadcast, and 0 wherever the count is 0 (also at a log of -inf)."""
    with np.errstate(invalid="ignore"):
        return np.where(counts == 0.0, 0.0, counts * logs)


def broadcast_query_block(model: str, subset, m: int | None, points: np.ndarray) -> np.ndarray:
    """Q at parameter points, each term's log formed on the whole (points, terms)
    array (a BLAS product for the multinomial) from numpy's logs and `math.lgamma`,
    and summed by ``.sum(axis=1)``."""
    if model in ("beta_binomial", "geometric"):
        c, p = np.asarray(_outcome_counts(subset), dtype=float), points[:, None]
        with np.errstate(divide="ignore"):
            log_p, log_q = np.log(p), np.log1p(-p)
        if model == "geometric":  # p (1-p)^c
            return np.exp(log_p + _count_times(c, log_q)).sum(axis=1)
        if c[-1] > m:
            raise ValueError("subset entries must lie in 0..m")
        log_coeff = _lgamma(m + 1.0) - _lgamma(c + 1.0) - _lgamma(m - c + 1.0)
        return np.exp(log_coeff + _count_times(c, log_p) + _count_times(m - c, log_q)).sum(axis=1)
    if model == "multinomial":
        vectors = _check_count_vectors(subset, m, points.shape[1])
        x = np.asarray(vectors, dtype=float)  # (s, k)
        log_coeff = _lgamma(m + 1.0)
        for column in x.T:
            log_coeff = log_coeff - _lgamma(column + 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.log(points)
            log_terms = logs @ x.T
        zero = (points == 0.0).any(axis=1)  # the product gives log(0) * 0 = NaN
        log_terms[zero] = _count_times(x, logs[zero, None, :]).sum(axis=2)
        return np.exp(log_terms + log_coeff).sum(axis=1)
    if model == "poisson_gamma":
        c, rate = np.asarray(_outcome_counts(subset), dtype=float), points[:, None]
        with np.errstate(divide="ignore"):
            log_rate = np.log(rate)
        return np.exp(_count_times(c, log_rate) - rate - _lgamma(c + 1.0)).sum(axis=1)
    raise ValueError(f"unknown model {model!r}")


def scan_magnitudes(lambda_cap: float, reach: tuple[float, float]) -> np.ndarray:
    """The scan grid's |lambda|, log-spaced to ``lambda_cap`` from 1e-3 times the least of 1,
    the cap and, for a bounded law (finite ``reach``), 1 over its largest distance from its mean."""
    widest = max(reach)
    scales = [1.0, lambda_cap] + ([1.0 / widest] if widest < math.inf else [])
    return np.geomspace(_LAMBDA_MIN * min(scales), lambda_cap, _POINTS_PER_SIGN)


def loop_scan(
    log_mgf: Callable[[float], float], lambda_cap: float, reach: tuple[float, float]
) -> VarianceProxyEstimate:
    """The grid-plus-Brent tau^2 scan, each walked point read by one call of a
    counting ratio closure (the array form's reading, or ``log_mgf`` where it is NaN)."""
    if not 0.0 < lambda_cap < math.inf:
        raise ValueError("lambda_cap must be positive and finite")
    calls = [0]

    def ratio(lam: float, value: float = math.nan) -> float:
        calls[0] += 1
        if math.isnan(value):
            value = log_mgf(lam)
        if not math.isfinite(value):
            raise OverflowError(f"log-MGF is not finite at lambda={lam!r}")
        return 2.0 * value / (lam * lam)

    n = _POINTS_PER_SIGN
    magnitudes = scan_magnitudes(lambda_cap, reach)
    lams = np.concatenate([-magnitudes[::-1], magnitudes])
    grid = getattr(log_mgf, "grid", None)
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
    sign_lo, sign_hi = (0, n - 1) if best < n else (n, 2 * n - 1)
    lo, hi = max(best - 1, sign_lo), min(best + 1, sign_hi)
    known = [(points[i], values[i]) for i in (lo, hi)]
    if not lo < best < hi or -math.inf in (values[lo], values[hi]):
        known = []
    arg, val = _brent_max(ratio, points[lo], points[hi], points[best], values[best], known)
    spec = (
        f"signed log grid |lambda| in [{magnitudes[0]:g}, {lambda_cap:g}], "
        f"{n} points/sign, Brent refine to {_REFINE_TOL:g} |lambda|; "
        f"scanned to {scanned[0]:g} (-), {scanned[1]:g} (+)"
    )
    return VarianceProxyEstimate(value=val, argmax_lambda=arg, grid_spec=spec, evaluations=calls[0])


def counting(log_mgf: Callable[[float], float]) -> Callable[[float], float]:
    """``log_mgf`` recording each scalar call's lambda in ``.calls``; its array form
    ``grid``, if any, is forwarded (and not recorded)."""
    calls: list[float] = []

    def counted(lam: float) -> float:
        calls.append(lam)
        return log_mgf(lam)

    counted.calls = calls
    grid = getattr(log_mgf, "grid", None)
    if grid is not None:
        counted.grid = grid
    return counted
