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
    _check_at_least,
    _check_integer,
    _check_law,
    _check_positive_finite,
    _check_real,
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
    "tail_frequencies",
    "weighted_log_mgf",
    "weighted_proxy_sup",
    "empirical_log_mgf",
    "beta_proxy_bound",
    "beta_tight_proxy_bound",
]

# The scan's grid: _POINTS_PER_SIGN |lambda| per sign, log-spaced from _LAMBDA_MIN
# min(1, cap, 1 / max(reach)) to the cap. Brent's method polishes the best point
# until it is bracketed to within _REFINE_TOL |lambda| on either side.
_POINTS_PER_SIGN = 200
_LAMBDA_MIN = 1e-3
_REFINE_TOL = 1e-8
# A skipped grid point is read unless its ratio bound, widened by this much
# relative, is below the ratio it is compared with.
_BOUND_MARGIN = 1e-9
# `weighted_log_mgf`'s array form fills the far branch too, so `_scan` skips no
# grid point, on a law whose far exponentials for one sign of the scan grid fit
# in this many floats (0.5 MB): _POINTS_PER_SIGN N <= 2^16, N <= 327. That
# covers exact mode's 1-D Gauss rules of 128, 236 (a doubled Gamma rule's 256
# less 20 underflowed weights) and 256 points: a whole scan took 0.61 / 0.79
# times the lazy reads' time at N = 128 / 256 (2 CPUs). The Dirichlet rules'
# 16 384 and 65 536 points and 20 000 or 200 000 Monte Carlo draws stay lazy.
_GRID_BLOCK_ELEMENTS = 2**16
# k! for k = 1..21, dividing `weighted_log_mgf`'s Taylor sums
_FACTORIALS = np.array([math.factorial(k) for k in range(1, _TAYLOR_ORDER + 1)], dtype=float)


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
    the log-MGF values the scan read: the walked grid points the kernel's
    array form gave, the skipped ones a bound could not rule out, and the
    refinement's (see `_scan`). It is 0 for an estimate made without a scan.
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


def _cell_bound(t0: float, k0: float, slope: float, t_first: float, t_last: float) -> float:
    """Largest ratio 2 K(t) / t^2 for t in [t_first, t_last] under K <= k0 + slope (t - t0).

    The line is the chord of a convex K from a read point (t0, k0) to the
    next one out, or from the last read point with slope reach, K's largest
    slope; t0 < t_first. With c0 = k0 - slope t0, 2 (c0 + slope t) / t^2 is
    largest at an end of the range when slope <= 0, and otherwise at
    t = -2 c0 / slope clamped to the range (t_first when c0 >= 0). The bound
    is widened by _BOUND_MARGIN relative, for the rounding of the values it
    comes from.
    """
    if slope == math.inf:
        return math.inf
    c0 = k0 - slope * t0
    if slope <= 0.0:
        spots = (t_first, t_last)
    else:
        spots = (min(max(-2.0 * c0 / slope, t_first), t_last),)
    top = max(2.0 * (k0 + slope * (t - t0)) / (t * t) for t in spots)
    return top + _BOUND_MARGIN * abs(top)


def _scan(
    log_mgf: Callable[[float], float], lambda_cap: float, reach: tuple[float, float]
) -> VarianceProxyEstimate:
    """Grid-plus-Brent supremum of 2 log_mgf(lam) / lam^2 for |lam| <= lambda_cap.

    ``log_mgf`` is centered, lam -> ln E[e^(lam (X - E X))], and its array
    form ``log_mgf.grid(lams)`` gives each value == the scalar form's, or NaN
    where it declines the point (a far branch). ``reach`` is
    (max X - E X, E X - min X) of a bounded law, or infinities. The ratio is
    then at most 2 reach[0] / lam for lam > 0 and 2 reach[1] / |lam| for
    lam < 0, so each sign's grid is walked outward, + before - at each
    magnitude, until that bound falls below the best ratio of the points
    walked before: no point past the stop holds the grid's best.

    All grid ratios come from one array-form call, in one numpy expression,
    the same IEEE operations as the scalar ratio. A declined walked point is
    skipped, and read by the scalar form only where no bound rules it out.
    K = log_mgf is convex, K(0) = 0, and its slope in |lam| is at
    most reach on each side, so on a run of skipped points K lies below the
    chord between the read points either side, or, past a side's outermost
    read point, below the line of slope reach from it; `_cell_bound` gives
    the largest ratio that allows. A run is open while it ends at its side's
    last walked point, and the reach line bounds it then (a run that a
    walked array-form point closes keeps that bound, which still holds).
    The run of highest bound is read into (at its outer end if it is open,
    else in its middle) until:

    - each step of the walk is decided: the best ratio read is above the
      step's stop bound, or no run's bound is;
    - once the walk is over, every run's bound is below the best ratio read.

    So the stops, the best grid point (the lowest lambda among ties) and its
    walked neighbours, which are read, are those of reading every walked
    point, and no point past a stop is read.

    Only values the estimate needs are read, and a non-finite one raises
    OverflowError naming its lambda. A skipped point the bounds rule out
    lies below the best ratio whether or not the kernel could give its
    value, so a kernel that fails only there still gives the estimate.
    `_brent_max` refines strictly inside the same-sign bracket of the best
    grid point, whose ends were read, so it needs no value past the stop,
    never crosses 0 and never returns less than the best grid value.
    ``evaluations`` counts the values read, whichever form gave them.

    The grid's |lam| runs from _LAMBDA_MIN min(1, lambda_cap, 1 / max(reach)),
    the reach term for a bounded law only, to ``lambda_cap``: below any cap,
    and _LAMBDA_MIN for a law in [0, 1] at a cap of 1 or more. A
    ``lambda_cap`` that is not positive and finite (NaN included) is refused,
    and so is one whose grid's smallest lam^2 is not a normal float (a cap
    below about 1.5e-151).
    """
    lambda_cap = _check_positive_finite("lambda_cap", lambda_cap)
    widest = max(reach)  # a bounded law's largest distance from its mean
    floor = _LAMBDA_MIN * min(1.0, lambda_cap, 1.0 / widest if widest < math.inf else 1.0)
    if not floor * floor >= np.finfo(float).tiny:  # a subnormal lam^2 rounds the ratio, then is 0
        raise ValueError(f"a lambda cap of {lambda_cap!r} is too small: lambda^2 underflows")
    calls = [0]  # Brent's evaluations

    def finite(lam: float, value: float) -> float:
        if not math.isfinite(value):
            raise OverflowError(f"log-MGF is not finite at lambda={lam!r}")
        return value

    def ratio(lam: float) -> float:
        calls[0] += 1
        return 2.0 * finite(lam, log_mgf(lam)) / (lam * lam)

    n = _POINTS_PER_SIGN
    magnitudes = np.geomspace(floor, lambda_cap, n)
    lams = np.concatenate([-magnitudes[::-1], magnitudes])
    readings = log_mgf.grid(lams)
    # Python floats round as numpy's float64 does, and are faster to index and
    # combine; like them, lam * lam may overflow to inf (|lam| past 1.3e154)
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = 2.0 * readings / (lams * lams)
    # each side's lists run outward from 0: side 0 is lam < 0, side 1 lam > 0
    kvals = (readings[n - 1 :: -1].tolist(), readings[n:].tolist())
    ratios = (ratios[n - 1 :: -1].tolist(), ratios[n:].tolist())
    mags, signs, slopes = magnitudes.tolist(), (-1.0, 1.0), (reach[1], reach[0])
    # a side stops at the first magnitude whose ratio bound falls below the best ratio
    stops = tuple((2.0 * slope / magnitudes).tolist() for slope in slopes)
    values = ([-math.inf] * n, [-math.inf] * n)
    walked = [0, 0]  # grid points walked on the - and + sides
    cells: list[list] = []  # [bound, side, first, last]: a run of skipped points
    best = top = -math.inf  # the best ratio read, and the highest cell bound

    def read(side: int, i: int) -> None:
        nonlocal best
        lam, reading = signs[side] * mags[i], kvals[side][i]
        kvals[side][i] = reading = finite(lam, log_mgf(lam) if math.isnan(reading) else reading)
        values[side][i] = value = 2.0 * reading / (lam * lam)
        best = max(best, value)

    def bound(side: int, first: int, last: int) -> float:
        """`_cell_bound` of skipped points first..last, from the read point inside them (or
        K(0) = 0) to the read point past them, or with slope reach if they are open: if they
        run to their side's last walked point."""
        t0, k0 = (mags[first - 1], kvals[side][first - 1]) if first else (0.0, 0.0)
        closed = last + 1 < walked[side]
        slope = (kvals[side][last + 1] - k0) / (mags[last + 1] - t0) if closed else slopes[side]
        return _cell_bound(t0, k0, slope, mags[first], mags[last])

    def split(cell: list) -> None:
        """Read one skipped point of ``cell``, its outer end if the cell is open, else its
        middle, and put the runs either side of it in its place."""
        nonlocal top
        _, side, first, last = cell
        j = last if last + 1 == walked[side] else (first + last) // 2
        read(side, j)
        cells.remove(cell)
        cells.extend([bound(side, a, b), side, a, b] for a, b in ((first, j - 1), (j + 1, last)) if a <= b)
        top = max([c[0] for c in cells], default=-math.inf)

    for i in range(n):
        for side in (1, 0):
            if walked[side] != i:
                continue
            stop = stops[side][i]
            while best <= stop < top:  # a skipped point may decide whether the walk goes on
                split(max(cells))
            if stop < best:
                continue
            walked[side] += 1
            value = ratios[side][i]
            if math.isfinite(value):
                values[side][i] = value
                if value > best:
                    best = value
            elif not math.isnan(kvals[side][i]):
                read(side, i)  # a value that raises
            else:  # skipped: the side's open cell grows by one point, or a new one starts
                cell = next((c for c in cells if c[1] == side and c[3] == i - 1), None)
                if cell is None:
                    cell = [-math.inf, side, i, i]
                    cells.append(cell)
                cell[0], cell[3] = bound(side, cell[2], i), i
                top = max(top, cell[0])
        if walked[0] <= i and walked[1] <= i:
            break

    while top >= best:  # a cell may hold the best grid point
        split(max(cells))
    scanned = [mags[k - 1] if k else 0.0 for k in walked]
    # the best grid point, the lowest lambda among ties
    side = 0 if best in values[0] else 1
    i = values[1].index(best) if side else n - 1 - values[0][::-1].index(best)
    # its same-sign neighbours bracket Brent's method (never refining across 0), and
    # seed its first parabola where both were walked; a skipped one is read
    if 0 < i < n - 1 and i + 1 < walked[side]:
        for j in (i - 1, i + 1):
            if values[side][j] == -math.inf:
                read(side, j)
    (lo, f_lo), (hi, f_hi) = sorted((signs[side] * mags[j], values[side][j])
                                    for j in (max(i - 1, 0), min(i + 1, n - 1)))
    known = [(lo, f_lo), (hi, f_hi)] if 0 < i < n - 1 and -math.inf not in (f_lo, f_hi) else []
    arg, val = _brent_max(ratio, lo, hi, signs[side] * mags[i], best, known)

    spec = (
        f"signed log grid |lambda| in [{floor:g}, {lambda_cap:g}], "
        f"{n} points/sign, Brent refine to {_REFINE_TOL:g} |lambda|; "
        f"scanned to {scanned[0]:g} (-), {scanned[1]:g} (+)"
    )
    reads = 2 * n - values[0].count(-math.inf) - values[1].count(-math.inf)
    return VarianceProxyEstimate(
        value=val, argmax_lambda=arg, grid_spec=spec, evaluations=reads + calls[0]
    )


def variance_proxy_sup(
    log_mgf: Callable[[float], float], mean: float, lambda_cap: float
) -> VarianceProxyEstimate:
    """Estimate tau^2 as the supremum of 2 (ln M(lam) - lam mean) / lam^2 for |lam| <= lambda_cap.

    ``log_mgf`` is the uncentered ln E[e^(lam X)], ``mean`` is E X. The
    centered kernel is scanned by `_scan` with no certified stop: a lower
    estimate of the supremum, up to the rounding of ``log_mgf`` and of the
    centering. Its array form declines no point, so every walked point is
    read: near 0 the ratio may be rounding alone, which no bound can hold.
    A non-finite value raises OverflowError. The grid starts at _LAMBDA_MIN
    min(1, lambda_cap); a ``lambda_cap`` that is not positive and finite is
    refused. Bounded laws scan their centered kernel instead.
    """

    def centered(lam: float) -> float:
        return log_mgf(lam) - lam * mean

    # refers to no centered: no reference cycle holds the kernel
    centered.grid = lambda lams: np.array([log_mgf(lam) - lam * mean for lam in lams.tolist()])
    return _scan(centered, lambda_cap, (math.inf, math.inf))


def _certified_scan(
    log_mgf: Callable[[float], float], reach: tuple[float, float], var: float,
    cap: float = math.inf,
) -> VarianceProxyEstimate:
    """`_scan` of a centered bounded law to min(cap, 2 max(reach) / Var).

    Past 2 max(reach) / Var the ratio is below Var, its limit at 0 (see
    `_scan`), so the scan holds the supremum over |lam| <= cap, and over all
    lam at the default cap. A cap that is not positive (NaN included) is
    refused, and so is Var = 0 (a constant, or an underflowed variance),
    which leaves no cap.
    """
    cap = _check_real("cap", cap)
    if not cap > 0.0:
        raise ValueError(f"cap must be positive, got {cap!r}")
    if not var > 0.0:
        raise ValueError(f"Var = {var!r} leaves no lambda cap")
    return _scan(log_mgf, min(cap, 2.0 * max(reach) / var), reach)


def beta_proxy_estimate(p: BetaParams) -> VarianceProxyEstimate:
    """Variance-proxy estimate for Beta(p) from its exact centered (series) log-MGF.

    The scan stops where the bounded support certifies that no larger
    ratio remains. The kernel's array form gives its Taylor and central
    series points; a walked point where the raw series takes over is read
    one lam at a time, only where `_scan`'s convexity bounds cannot rule it
    out, and never past the walk's stop. For alpha + beta <= 1e6, where
    this was tested against 50-digit mpmath, the estimate is tau^2 to
    about 1e-13 relative. Beyond,
    the raw series minus lam mu that takes over from the central series
    loses about eps mu / (|lam| Var) relative (5.8e-15 above Var at
    Beta(5e6, 5e6)). Far out, the raw series needs more than 2^18 terms and
    raises OverflowError, which the scan passes on only where the estimate
    needs that value: Beta(5e6, 5e7) is answered, Beta(1, 6e7) raises at
    lambda of about 4.5e8. A variance that underflows raises ValueError.
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


def raw_moment_criterion(moments: np.ndarray, sigma2: float) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of E[X^(j+2)]/E[X^j] <= E[X]^2 + (j+1) sigma^2, as arrays over j = 0..J-2.

    ``moments`` is a 1-D array (or sequence) of the raw moments E[X^j],
    j = 0..J, J >= 2. They must be finite, start with E[X^0] = 1 to 1e-9, and
    be strictly positive; sigma2 must be positive and finite. When lhs <= rhs
    for all j, the upper tail of X - E[X] is sigma^2-subgaussian, so this is
    a sufficient one-sided criterion rather than a tau^2 estimator.
    """
    sigma2 = _check_positive_finite("sigma2", sigma2)
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
    powers can compensate. sigma2 is positive and finite, k_max an integer in
    [2, 170]: 170! is the largest factorial below the float range.
    """
    sigma2 = _check_positive_finite("sigma2", sigma2)
    k_max = _check_at_least("k_max", k_max, 2)
    if k_max > 170:
        raise ValueError(f"k_max must be at most 170, got {k_max}: {k_max}! is past the float range")
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
    sigma2 = _check_positive_finite("sigma2", sigma2)
    epsilon = _check_real("epsilon", epsilon)
    if not epsilon >= 0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon!r}")
    return math.exp(-epsilon * epsilon / (2.0 * sigma2))


def tail_frequencies(
    deviations: np.ndarray, sigma2: float, epsilons: tuple[float, ...], sides: int
) -> tuple[tuple[float, float, float, float], ...]:
    """(eps, freq, bound, se) per eps: the frequency of ``deviations`` >= eps,
    its bound min(1, sides * `tail_bound`), sides 1 or 2 (for |X - E X|), and
    its standard error, floored at that of one event in N. Other ``sides``,
    and ``deviations`` that are empty, not 1-D or not finite, are refused."""
    if _check_integer("sides", sides) not in (1, 2):
        raise ValueError(f"sides must be 1 or 2, got {sides}")
    deviations = np.asarray(deviations, dtype=float)
    if deviations.ndim != 1:
        raise ValueError(f"deviations must be 1-D, got shape {deviations.shape}")
    if not np.isfinite(deviations).all():  # a NaN is below every eps, and would bias a frequency low
        raise ValueError("deviations must be finite")
    n = deviations.size
    if n == 0:
        raise ValueError("tail frequencies need at least one deviation")
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
    """(log_mgf, mean, reach, var) of the law with weight w_i on v_i.

    The weights must be a 1-D array, finite, nonnegative and sum to 1 within
    1e-9; a zero weight leaves its point out. The values must be finite, in a
    1-D array of the weights' length. log_mgf(lam) = ln sum_i w_i e^(lam x_i),
    x_i = v_i - mean, is centered; reach = (max x, -min x). For
    |lam| * range <= 1 it is the series log1p(sum_{k=1}^{21} lam^k e_k),
    e_k = sum_i w_i x_i^k / k!, by Horner's rule
    (`distributions._taylor_log_mgf`) on a table built at the branch's first
    call (`_check_rule_resolves` evaluates a law of up to 2^18 points once,
    maybe past the branch): its truncation error is at most 1.3e-20
    relative, and no term cancels against a leading 1, so the ratio
    2 log_mgf/lam^2 stays a lower estimate as lam -> 0. e_1 is the centering's rounding residual, kept so
    that both branches describe the same points. The table sums running
    powers x^k, one in-place multiply and one sum per order, and divides the
    sums by k!. x^21 is finite while max|x| <= 4.6e14; a wider law's series
    branch (|lam| <= 1 / range < 2.2e-15) raises OverflowError.

    Past that range (the far branch) it is lam edge + ln sum_i w_i
    e^(lam (x_i - edge)), edge = max x (lam > 0) or min x (lam < 0), so no
    exponential overflows: `far` gives it at lams of one sign in one
    (len(lams), N) pass over the law's x - edge and a reused buffer. At
    |lam| * range in [1, 2] on 2-40-point laws it is within 8e-15 relative
    of 50-digit mpmath with log-weights in [-3, 0], but 3.1e-12 in [-12, 0]:
    a small edge weight leaves the log small next to lam edge, and they cancel.

    ``log_mgf.grid(lams)`` evaluates the series branch on an array of lam in
    one numpy pass, by the numpy operations log_mgf runs on one lam, so its
    values are == log_mgf's. Where one sign of the scan grid fits the far
    branch in _GRID_BLOCK_ELEMENTS exponentials (at most 327 points) it
    fills that branch too, one `far` call per sign, as log_mgf calls `far`
    on its one lam. On a larger law it leaves the far branch NaN: `_scan`
    reads a far point one lam at a time, and only where its convexity
    bounds cannot rule the point out. Every weighted sum is an `np.einsum`
    reduction: unlike `w @ v`, it never calls BLAS, whose threaded dot
    product rounds differently with the thread count. Constant values
    (Var = 0) and a Var past the float range are refused.
    """
    v, w = np.asarray(values, dtype=float), np.asarray(weights, dtype=float)
    if w.ndim != 1:
        raise ValueError(f"weights must be 1-D, got shape {w.shape}")
    _check_law("weights", w)
    if v.ndim != 1 or v.shape != w.shape or not np.isfinite(v).all():
        raise ValueError(f"values must be finite, 1-D and of the weights' shape {w.shape}, got {v.shape}")
    support = w > 0
    if not support.all():  # keep the law's support; Monte Carlo weights all are
        v, w = v[support], w[support]
    mean = float(np.einsum("i,i->", w, v))
    with np.errstate(over="ignore"):  # a spread past ~1e154 gives Var = inf, refused below
        x = v - mean
        var = float(np.einsum("i,i->", w, x * x))
    hi, lo = float(x.max()), float(x.min())
    if not 0.0 < var < math.inf:
        raise ValueError(f"Var = {var!r} leaves no lambda cap")
    near: list[float] = []  # e_21 .. e_1 once built
    shifted = {True: x - hi, False: x - lo}  # x - edge for lam > 0 and lam < 0
    exps = np.empty((0, x.size))  # far exponentials, as many rows as the largest call so far
    whole = _POINTS_PER_SIGN * x.size <= _GRID_BLOCK_ELEMENTS

    def taylor_terms() -> list[float]:
        if not near:
            power = np.ones_like(x)
            with np.errstate(over="ignore", invalid="ignore"):
                sums = np.array([np.einsum("i,i->", w, np.multiply(power, x, out=power))
                                 for _ in range(_TAYLOR_ORDER)])  # sum_i w_i x_i^k
            if not np.isfinite(sums).all():
                raise OverflowError(f"x^21 overflows at max|x| = {max(hi, -lo):g}, past 4.6e14")
            near.extend((sums / _FACTORIALS)[::-1].tolist())
        return near

    def far(lams: np.ndarray) -> np.ndarray:
        """The far branch at each lam of ``lams``, all of one sign, in one (len(lams), N) pass."""
        nonlocal exps
        positive = bool(lams[0] > 0)
        edge = hi if positive else lo
        if len(exps) < lams.size:
            exps = np.empty((lams.size, x.size))
        block = exps[: lams.size]
        np.multiply(lams[:, None], shifted[positive], out=block)
        np.exp(block, out=block)
        return lams * edge + np.log(np.einsum("ij,j->i", block, w))

    def grid(lams: np.ndarray) -> np.ndarray:
        out = np.full(lams.shape, math.nan)
        close = abs(lams) * (hi - lo) <= 1.0
        if close.any():
            out[close] = _taylor_log_mgf(taylor_terms(), lams[close])
        if whole:
            for side in ((lams > 0.0) & ~close, (lams < 0.0) & ~close):
                if side.any():
                    out[side] = far(lams[side])
        return out

    def log_mgf(lam: float) -> float:
        if abs(lam) * (hi - lo) <= 1.0:
            return float(_taylor_log_mgf(taylor_terms(), lam))
        return float(far(np.array([lam]))[0])

    log_mgf.grid = grid  # refers to no log_mgf: no reference cycle holds the N points
    return log_mgf, mean, (hi, -lo), var


def weighted_proxy_sup(
    values: np.ndarray, weights: np.ndarray, cap: float = math.inf
) -> VarianceProxyEstimate:
    """tau^2 of the law with weight w_i on v_i over |lambda| <= cap: `_certified_scan`
    of its centered log-MGF, the supremum over all lambda at the default cap. The grid's
    floor is at most _LAMBDA_MIN / max(reach) (see `_scan`), so a wide law's grid scales
    with it; a cap that is not positive (NaN included) is refused."""
    log_mgf, _, reach, var = weighted_log_mgf(values, weights)
    return _certified_scan(log_mgf, reach, var, cap)


# fewest draws of a Monte Carlo log-MGF: empirical_log_mgf, evaluate_model, conjectures --trials
_MIN_MONTE_CARLO_DRAWS = 100


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
    if n < _MIN_MONTE_CARLO_DRAWS:
        raise ValueError(f"samples must hold at least {_MIN_MONTE_CARLO_DRAWS} draws, got {n}")
    centered, mean, _, _ = weighted_log_mgf(values, np.full(n, 1.0 / n))

    def log_mgf(lam: float) -> float:
        return centered(lam) + lam * mean

    log_mgf.grid = lambda lams: centered.grid(lams) + lams * mean
    return log_mgf, _monte_carlo_window(n)
