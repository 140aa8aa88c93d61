"""Distribution parameter types, exact moments, MGF evaluation, and sampling.

Covers the Beta, Dirichlet, Gamma, categorical, and Chi families. Raw
moments E[X^j], j = 0..J, are plain 1-D float arrays. All computations are
plain float64 with documented tolerances; all sampling is reproducible
through :class:`SeedSpec`, which derives independent substreams from a
master seed so parallel experiments never share RNG state.
"""
from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "BetaParams",
    "DirichletParams",
    "GammaParams",
    "SeedSpec",
    "beta_raw_moments",
    "beta_mean_var",
    "beta_centered_log_mgf",
    "beta_log_mgf",
    "chi_raw_moment",
    "draw",
    "sample",
    "sample_chi",
]

# Central-moment terms of the centered Beta series; past them (|lam| sigma
# above ~11 near the Gaussian limit) the windowed raw series takes over.
_CENTRAL_TERMS = 256
# Series terms below exp(-_WINDOW_LOG) ~ 4e-18 of the largest are dropped.
_WINDOW_LOG = 40.0
# Longest raw-series window summed (its arrays take ~20 MB). A tau^2 scan
# needs ~5e4 terms at most for alpha + beta <= 1e6; past about 5e7 it raises.
_MAX_TERMS = 2**18
# Highest power of the near-zero series of a bounded law's log-MGF
# (`_taylor_log_mgf`), used where |lam| * (support width) <= 1.
_TAYLOR_ORDER = 21


def _check_real(name: str, value) -> float:
    """``value`` as a float: numpy reals pass, True and "3" are refused rather than converted."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _left_sum(values: Iterable[float]) -> float:
    """0.0 plus each value in turn: the plain left-to-right float sum.

    Python's ``sum`` compensates the rounding of floats from 3.12 on, and
    the game's batch path adds plainly, so the Dirichlet's totals and the
    game's transcript path add with this on every Python version.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def _check_positive_finite(name: str, value) -> float:
    value = _check_real(name, value)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


def _check_integer(name: str, value) -> int:
    """``value`` as an int: numpy integers pass, 1.5 and True are refused rather than truncated."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_at_least(name: str, value, floor: int) -> int:
    """``value`` as an int of at least ``floor``; `_check_integer` refuses a non-integer."""
    value = _check_integer(name, value)
    if value < floor:
        raise ValueError(f"{name} must be an integer of at least {floor}, got {value}")
    return value


def _check_law(name: str, probs: np.ndarray) -> None:
    """Refuse ``probs`` unless they are finite, nonnegative and sum to 1 within 1e-9."""
    if not (probs >= 0).all() or abs(float(probs.sum()) - 1.0) > 1e-9:  # NaN fails >= 0, inf the sum
        raise ValueError(f"{name} must be finite, nonnegative and sum to 1 within 1e-9")


@dataclass(frozen=True)
class _AlphaBeta:
    """Positive finite alpha and beta, the fields of `BetaParams` and `GammaParams`. Neither
    subclasses the other, and ``__eq__`` compares classes: BetaParams(1, 2) != GammaParams(1, 2)."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _check_positive_finite("alpha", self.alpha))
        object.__setattr__(self, "beta", _check_positive_finite("beta", self.beta))


@dataclass(frozen=True)
class BetaParams(_AlphaBeta):
    """Shape parameters (alpha, beta) of a Beta distribution on [0, 1], with a finite alpha + beta."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not math.isfinite(self.total):  # every moment and draw divides by it
            raise ValueError(f"alpha + beta must be finite, got alpha={self.alpha!r}, beta={self.beta!r}")

    @property
    def total(self) -> float:
        return self.alpha + self.beta


@dataclass(frozen=True)
class DirichletParams:
    """Concentration parameters of a Dirichlet distribution on the simplex, with a finite total."""

    alphas: tuple[float, ...]

    def __post_init__(self) -> None:
        alphas = tuple(_check_positive_finite("every alpha", a) for a in self.alphas)
        if len(alphas) < 2:
            raise ValueError("a Dirichlet needs at least 2 categories")
        if not math.isfinite(_left_sum(alphas)):  # every moment and draw divides by it
            raise ValueError(f"the alphas' total must be finite, got alphas={alphas!r}")
        object.__setattr__(self, "alphas", alphas)

    @property
    def k(self) -> int:
        return len(self.alphas)

    @property
    def total(self) -> float:
        return _left_sum(self.alphas)


@dataclass(frozen=True)
class GammaParams(_AlphaBeta):
    """Shape/rate parameters (alpha, beta) of a Gamma distribution on [0, inf)."""


@dataclass(frozen=True)
class SeedSpec:
    """Integer master seed in [0, 2^64) and stream id >= 0; equal specs give bit-identical streams.

    Substreams (``generator(sub)``) and derived specs (``derived(offset)``)
    are statistically independent, so per-trial work can run in parallel
    without sharing RNG state. ``generator(sub)`` is numpy's
    ``SeedSequence(master_seed, spawn_key=(stream_id, sub))`` feeding a
    ``PCG64``; it is the reference for ``_block_generators``, which derives
    the substream-0 generators of a run of derived specs in one array pass.
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        master = _check_integer("master_seed", self.master_seed)
        if not 0 <= master < 2**64:
            raise ValueError(f"master_seed must be a 64-bit unsigned integer, got {master}")
        object.__setattr__(self, "master_seed", master)
        object.__setattr__(self, "stream_id", _check_at_least("stream_id", self.stream_id, 0))

    def generator(self, substream: int = 0) -> np.random.Generator:
        seq = np.random.SeedSequence(
            self.master_seed, spawn_key=(self.stream_id, substream)
        )
        return np.random.default_rng(seq)

    def derived(self, offset: int) -> "SeedSpec":
        return SeedSpec(self.master_seed, self.stream_id + offset)


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx): the
# pool size, the entropy hash (hashmix), the pool mix and the output hash.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MASK32 = 0xFFFFFFFF


def _word_count(value: int) -> int:
    """Number of uint32 words numpy's SeedSequence splits a nonnegative int into."""
    return max(1, -(-value.bit_length() // 32))


def _words(first: int, count: int, width: int) -> list[np.ndarray]:
    """The ``width`` little-endian uint32 words of first, first + 1, ..., first + count - 1.

    Word j of all ``count`` values is one array; each word adds the carry of
    the word below, so ``first`` may have any size.
    """
    words, carry = [], np.arange(count, dtype=np.uint64)
    for j in range(width):
        word = (first >> 32 * j & _MASK32) + carry
        words.append(word.astype(np.uint32))
        carry = word >> 32
    return words


def _hashed_states(entropy: list[np.ndarray]) -> np.ndarray:
    """``SeedSequence.generate_state(4, uint64)`` for many pools at once, as (count, 4).

    ``entropy`` is the assembled entropy, word by word, each word a uint32
    array broadcasting over the pools. This is numpy's ``mix_entropy`` and
    ``generate_state`` on arrays: their uint32 arithmetic wraps as numpy's C
    code does, and the hash constants depend on the call count alone, so
    every pool sees the same ones. The entropy is longer than the pool.
    """
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ value >> 16

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ result >> 16

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    state = []
    for i in range(8):  # 4 uint64 words are 8 uint32 words, cycling the pool
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        state.append(value ^ value >> 16)
    return np.stack(state, axis=1).astype("<u4").view("<u8").astype(np.uint64)


class _HashedState(np.random.bit_generator.ISeedSequence):
    """A SeedSequence's ``generate_state(4, uint64)`` words, hashed in advance.

    ``PCG64`` asks its seed sequence for exactly those words, then seeds
    itself from them in C; nothing else reads this object.
    """

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.words


def _block_generators(seed: SeedSpec, start: int, stop: int):
    """Yield, for t in [start, stop), a generator with the stream of ``seed.derived(t).generator()``.

    The SeedSequence entropy of trial t is the master's words padded with
    zeros to the pool size, then the spawn key (stream_id + t, 0) word by
    word. The master's words are the same for every t, so all trials' pools
    are hashed together (``_hashed_states``), one group per word count of
    the stream id (ids from 2**32 on take two words, from 2**64 three, ...).
    Each ``PCG64`` is then built from its hashed words: no ``SeedSequence``
    is made.
    """
    zero = np.zeros(1, dtype=np.uint32)
    head = _words(seed.master_seed, 1, _word_count(seed.master_seed))
    head += [zero] * (_POOL_SIZE - len(head))
    first, last = seed.stream_id + start, seed.stream_id + stop
    while first < last:
        width = _word_count(first)
        end = min(last, 2 ** (32 * width))
        for words in _hashed_states(head + _words(first, end - first, width) + [zero]):
            yield np.random.Generator(np.random.PCG64(_HashedState(words)))
        first = end


# ---------------------------------------------------------------------------
# Exact Beta quantities
# ---------------------------------------------------------------------------


def beta_raw_moments(p: BetaParams, j_max: int) -> np.ndarray:
    """Array of E[X^j] for j = 0..j_max (an integer >= 0) via the cumulative ratio product."""
    j_max = _check_at_least("j_max", j_max, 0)
    r = np.arange(j_max, dtype=float)
    ratios = (p.alpha + r) / (p.total + r)
    return np.concatenate(([1.0], np.cumprod(ratios)))


def beta_mean_var(p: BetaParams) -> tuple[float, float]:
    """Mean alpha/(alpha+beta) and variance alpha*beta/((alpha+beta)^2 (alpha+beta+1))."""
    s = p.total
    mean = p.alpha / s
    var = mean * (p.beta / s) / (s + 1.0)  # (alpha + beta)^2 underflows below 1e-154
    return mean, var


def _stirling_tail(y):
    """ln Gamma(y) - ((y - 1/2) ln y - y + ln(2 pi)/2) for y >= 20, to ~1e-17."""
    z = 1.0 / (y * y)
    return (
        1 / 12 - z * (1 / 360 - z * (1 / 1260 - z * (1 / 1680 - z * (1 / 1188 - z * 691 / 360360))))
    ) / y


# Bernoulli numbers B_2, B_4, ..., B_12 of trigamma's asymptotic series
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730)


def _trigamma_difference(x: float, h: float) -> float:
    """psi'(x) - psi'(x + h) = sum_{k>=0} 1/(x+k)^2 - 1/(x+h+k)^2 for x > 0, h >= 0.

    Formed from h, so nothing cancels when h << x. The recurrence psi'(y) =
    1/y^2 + psi'(y + 1) moves x up to y >= 20, where psi'(y) ~ 1/y + 1/(2y^2)
    + sum_n B_2n / y^(2n+1) to ~1e-17 relative. Each difference of powers
    u^n - v^n (u = 1/y, v = 1/(y + h)) is (u - v) times the positive sum
    u^(n-1) + u^(n-2) v + ... + v^(n-1), and u - v = h u v, so every term is a
    product with no subtraction; only the series' signs alternate, in
    corrections below 1/(2y) of the leading term.
    """
    total = 0.0
    while x < 20.0:
        u, v = 1.0 / x, 1.0 / (x + h)
        total += h * u * v * (u + v)  # 1/x^2 - 1/(x+h)^2
        x += 1.0
    u, v = 1.0 / x, 1.0 / (x + h)
    powers = [1.0]  # u^(n-1) + ... + v^(n-1) for n = 1, 2, ...
    for n in range(1, 2 * len(_BERNOULLI) + 1):
        powers.append(u * powers[-1] + v ** n)
    series = powers[0] + 0.5 * powers[1]
    for n, b in enumerate(_BERNOULLI, start=1):
        series += b * powers[2 * n]
    return total + h * u * v * series


def _log_rising(x: float, k):
    """ln Gamma(x+k)/Gamma(x) for k >= 0 to ~eps * k ln(x+k), also where ln Gamma(x) is huge."""
    if x < 20.0:
        return math.lgamma(x + k) - math.lgamma(x)
    y = x + k
    return (x - 0.5) * np.log1p(k / x) + k * (np.log(y) - 1.0) + _stirling_tail(y) - _stirling_tail(x)


def _raw_log_mgf(a: float, b: float, lam: float) -> float:
    """ln E[exp(lam X)] for X ~ Beta(a, b) and lam > 0, from the raw series.

    The terms t_k = lam^k E[X^k]/k! rise while t_{k+1}/t_k = lam (a+k) /
    ((a+b+k)(k+1)) > 1, so they peak at k = 0 or at the larger root of
    (k+1)(a+b+k) = lam (a+k), in a bump of width w = 1/sqrt(curvature of
    ln t_k). Only the terms within exp(-_WINDOW_LOG) of the peak count,
    O(sqrt(lam)) of them. The window starts 16 + 9 w terms either side of an
    interior peak (64 terms for a peak at k = 0, where the decay need not be
    quadratic) and doubles until both ends are negligible. It is summed
    pairwise, its first term from `_log_rising` and the rest from the term
    ratios; t_0 = 1 is a second local peak, so the sum restarts at k = 0 when
    it matters. A window past _MAX_TERMS, or a non-finite peak, raises OverflowError.
    """
    s = a + b
    bq, c = s + 1.0 - lam, s - lam * a  # (k+1)(s+k) - lam (a+k) = k^2 + bq k + c
    disc = bq * bq - 4.0 * c
    if disc <= 0.0 or (c > 0.0 and bq >= 0.0):
        peak = 0.0
    elif bq > 0.0:
        peak = -2.0 * c / (bq + math.sqrt(disc))
    else:
        peak = (math.sqrt(disc) - bq) / 2.0
    curvature = 1.0 / (peak + 1.0) + 1.0 / (s + peak) - 1.0 / (a + peak)
    half = 16 + int(9.0 / math.sqrt(curvature)) if peak > 0.0 and curvature > 0.0 else 64
    finite = math.isfinite(peak)  # a, b or lam near the float range's top can leave no peak
    lo = max(0, int(peak) - half) if finite else 0
    while True:
        if not finite or int(peak) + half - lo > _MAX_TERMS:
            raise OverflowError(
                f"the Beta({a:g}, {b:g}) series at lambda={lam:g} needs more than {_MAX_TERMS} terms"
            )
        k = np.arange(lo, int(peak) + half, dtype=float)
        steps = np.log(lam * (a + k) / ((s + k) * (k + 1.0)))  # ln t_{k+1}/t_k
        rel = np.concatenate(([0.0], np.cumsum(steps)))  # ln t_k / t_lo
        top = float(rel.max())
        anchor = lo * math.log(lam) + float(_log_rising(a, lo) - _log_rising(s, lo) - math.lgamma(lo + 1.0))
        if lo > 0 and anchor + top < _WINDOW_LOG:  # t_0 = 1 is not negligible
            lo = 0
        elif (lo == 0 or rel[0] < top - _WINDOW_LOG) and rel[-1] < top - _WINDOW_LOG:
            return anchor + top + math.log(float(np.sum(np.exp(rel - top))))
        else:
            half *= 2
            lo = max(0, int(peak) - half) if lo > 0 else 0


def _central_log_terms(a: float, b: float) -> np.ndarray:
    """ln(c_k / k!) for k = 0.._CENTRAL_TERMS, c_k = E[(X - mu)^k], X ~ Beta(a, b), a <= b.

    Stein's identity for the Beta law gives c_0 = 1, c_1 = 0 and c_{k+1} =
    k [(1 - 2 mu) c_k + mu (1 - mu) c_{k-1}] / (a + b + k). With mu <= 1/2
    every coefficient is >= 0, so every c_k is, and the recurrence runs on
    rescaled floats without cancellation. A zero c_k (odd k at mu = 1/2,
    or every k once the variance underflows) gives -1e300 rather than -inf,
    so that the terms minus the largest of them stay defined; its
    exponential is 0 all the same.
    """
    s = a + b
    skew, spread = (b - a) / s, (a / s) * (b / s)  # 1 - 2 mu and mu (1 - mu)
    out = np.full(_CENTRAL_TERMS + 1, -1e300)
    out[0] = 0.0
    prev, cur, scale = 1.0, 0.0, 0.0  # e_{k-1}, e_k (e_j = c_j / j!) over e^scale
    for k in range(1, _CENTRAL_TERMS):
        prev, cur = cur, (k * skew * cur + spread * prev) / ((k + 1.0) * (s + k))
        if cur > 0.0:
            out[k + 1] = scale + math.log(cur)
            if cur < 1e-200:  # rescale before the floats underflow
                scale += math.log(cur)
                prev, cur = prev / cur, 1.0
    return out


def _taylor_log_mgf(coeffs: Sequence[float], lam):
    """log1p(sum_{k=2}^{21} lam^k e_k) by Horner's rule, ``coeffs`` = (e_21, ..., e_2).

    ``lam`` is a float or an array; both run the same numpy operations, so
    each value of an array is == the float's.
    With e_k = c_k / k!, c_k = E[y^k], y = X - mu, this is the log-MGF of a
    centered law near 0: E y = 0, so there is no e_1 term, and the ratio
    2 log_mgf / lam^2 has no 1 / lam term to swamp it as lam -> 0. If X has
    support width w and |lam| w <= 1, then |c_k| <= w^(k-2) sigma^2, so the
    terms past k = 21 sum to at most lam^2 sigma^2 e / 22!, while the whole
    sum S = E e^(lam y) - 1 = E[e^(lam y) - 1 - lam y] (as E y = 0) >=
    lam^2 sigma^2 / (2e), as e^t - 1 - t >= t^2 / (2e) for |t| <= 1. So the
    truncation error is at most 2e^2/22! ~ 1.3e-20 relative, and the
    terms' rounding is amplified by sum|t_k| / S <= 2e(e - 2) < e^2 at most.
    """
    acc = 0.0
    for c in coeffs:
        acc = acc * lam + c
    return np.log1p(acc * lam * lam)


def beta_centered_log_mgf(p: BetaParams) -> Callable[[float], float]:
    """lam -> ln E[exp(lam (X - mu))] for X ~ Beta(p), computed centered.

    Let Z be X or 1 - X, whichever has mean mu_Z <= 1/2; the central
    moments of Z are all >= 0 (`_central_log_terms`). For |lam| <= 1 (Z has
    support width 1) the log-MGF is the centered series lam^2 e_2 + ... +
    lam^21 e_21, e_k = c_k / k! (c_1 = 0), by Horner's rule on a table built
    once (`_taylor_log_mgf`, which bounds its truncation by 1.3e-20
    relative). Past that, on the side where
    every term lam^k c_k/k! is >= 0, the log-MGF is log1p of their sum, with
    no cancellation at any lam. On the other side the terms alternate; their
    sum is used while its rounding error, eps * sum|t_k| / sum t_k, is below
    that of the raw series minus lam * mean (`_raw_log_mgf`), about
    eps * |lam| * mean. The raw series also takes over wherever the central
    terms have not converged within _CENTRAL_TERMS; there |lam| is far past
    1/sigma and the subtraction loses little. No form is ln M - lam mu near 0.

    The returned function has an array form ``grid(lams)``: the Taylor
    and central-series branches, whose cost does not grow with the law's
    size, for a whole array of lam in one numpy pass, with NaN where the raw
    series takes over. Both forms run the same numpy code for those branches
    (the scalar form passes its lam to the central series as a one-element
    array), so every value the array form gives is == the scalar form's.
    """
    flip = p.alpha > p.beta
    za, zb = (p.beta, p.alpha) if flip else (p.alpha, p.beta)
    s = za + zb
    table = _central_log_terms(za, zb)[2:]
    k = np.arange(2, _CENTRAL_TERMS + 1, dtype=float)
    signs = np.where(k % 2 == 0, 1.0, -1.0)
    near = np.exp(table[_TAYLOR_ORDER - 2 :: -1]).tolist()  # e_21 .. e_2

    def central(lz: np.ndarray, rising: bool) -> np.ndarray:
        """log1p of the central series at each lz, all > 1 if ``rising``, else all < -1.

        NaN where the series has not converged or loses to the raw series.
        """
        logs = np.multiply.outer(np.log(np.abs(lz)), k)
        logs += table
        top = logs.max(axis=-1)
        tail = np.maximum(logs[..., -1], logs[..., -2])
        logs -= top[..., None]
        scaled = np.exp(logs, out=logs)
        # NaN unless the central terms converged within the table, at a representable size:
        # a NaN top makes its row NaN, and no exp(top) overflows
        top[(top >= 700.0) | (tail >= top - _WINDOW_LOG)] = math.nan
        scale = np.exp(top)
        total = scale * scaled.sum(axis=-1)  # sum |t_k|
        if rising:
            return np.log1p(total)
        signed = scale * (signs * scaled).sum(axis=-1)
        # alternating terms: keep their sum while its error beats the raw series'
        # (a rounded 1 + signed may be 0)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            signed[~((signed > -1.0) & (total / (1.0 + signed) <= -lz * zb / s))] = math.nan
        return np.log1p(signed)

    def grid(lams: np.ndarray) -> np.ndarray:
        lz = -lams if flip else lams
        out = np.full(lz.shape, math.nan)
        close, rising = np.abs(lz) <= 1.0, lz > 1.0
        falling = ~(close | rising)
        out[close] = _taylor_log_mgf(near, lz[close])
        out[rising] = central(lz[rising], True)
        out[falling] = central(lz[falling], False)
        return out

    def log_mgf(lam: float) -> float:
        lam = float(lam)
        if not math.isfinite(lam):
            raise ValueError(f"lambda must be finite, got {lam!r}")
        lz = -lam if flip else lam  # the argument for Z - mu_Z
        mag = abs(lz)
        if mag <= 1.0:
            return float(_taylor_log_mgf(near, lz))
        value = float(central(np.array([lz]), lz > 0.0)[0])
        if not math.isnan(value):
            return value
        a, b = (za, zb) if lz > 0.0 else (zb, za)  # Z at -mag is 1 - Z at mag
        return _raw_log_mgf(a, b, mag) - mag * (a / s)

    log_mgf.grid = grid  # refers to no log_mgf: no reference cycle holds the kernel
    return log_mgf


def beta_log_mgf(p: BetaParams, lam: float) -> float:
    """ln E[exp(lam * X)] for X ~ Beta(p): lam * mean plus the centered log-MGF.

    The result stays finite even where exp(result) overflows float64; see
    `beta_centered_log_mgf` for how the series is summed. It raises
    OverflowError where the raw series needs more than 2^18 terms, which a
    tau^2 scan reaches once alpha + beta is past about 5e7. Each call
    rebuilds the central-moment table, so a scan over many lam should call
    `beta_centered_log_mgf` once instead.
    """
    lam = float(lam)
    return lam * (p.alpha / p.total) + beta_centered_log_mgf(p)(lam)


# ---------------------------------------------------------------------------
# Chi moments
# ---------------------------------------------------------------------------


def chi_raw_moment(k_dim: int, j: int) -> float:
    """E[X^j] for X the Euclidean norm of a standard k_dim-dim Gaussian.

    Equals 2^(j/2) * Gamma((k+j)/2) / Gamma(k/2); satisfies the recurrence
    E[X^(j+2)] = (k+j) E[X^j]. k_dim is an integer >= 1 and j one >= 0;
    ValueError past the float range (j above about 300).
    """
    k_dim, j = _check_at_least("k_dim", k_dim, 1), _check_at_least("j", j, 0)
    log_moment = 0.5 * j * math.log(2.0) + math.lgamma(0.5 * (k_dim + j)) - math.lgamma(0.5 * k_dim)
    try:
        return math.exp(log_moment)
    except OverflowError:
        raise ValueError(f"E[X^j] at k_dim={k_dim}, j={j} passes the float range") from None


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def _normalized(dist: BetaParams | DirichletParams, g: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """g / totals, refusing a sample where a draw's Gamma variates, and so its total, are all 0."""
    undefined = np.count_nonzero(totals == 0.0)
    if undefined:
        raise ValueError(f"{dist} drew {undefined} of {len(totals)} samples as 0/0: "
                         "all their Gamma variates underflowed to 0")
    return g / totals


def draw(
    dist: BetaParams | DirichletParams | GammaParams | Sequence[float],
    rng: np.random.Generator,
    count: int,
) -> np.ndarray:
    """Draw i.i.d. samples from an already-constructed generator.

    Dirichlet variates are normalized independent Gamma draws and Beta is the
    two-category special case of that construction, so a single Gamma sampler
    (valid for all shapes, including below 1) backs the whole family. It is
    ``rng.standard_gamma``, which gives the same stream as ``rng.gamma`` at
    scale 1 without its per-call scale broadcast. A Beta variate adds its two
    Gamma columns directly, the same sum as ``g.sum(axis=1)`` without the
    short-axis reduction.
    A Beta or Dirichlet draw whose Gamma variates all underflow to 0 would
    be 0/0: a sample holding one (Beta(0.005, 0.005) draws 593 in 10^6)
    raises ValueError naming the law and the count.
    Categorical probabilities (a plain 1-d sequence of at least 2, finite,
    nonnegative and summing to 1 within 1e-9) yield integer category
    indices. ``count`` is an integer >= 0.
    """
    count = _check_at_least("count", count, 0)
    if isinstance(dist, BetaParams):
        g = rng.standard_gamma(np.array([dist.alpha, dist.beta]), size=(count, 2))
        return _normalized(dist, g[:, 0], g[:, 0] + g[:, 1])
    if isinstance(dist, DirichletParams):
        g = rng.standard_gamma(np.asarray(dist.alphas), size=(count, dist.k))
        return _normalized(dist, g, g.sum(axis=1, keepdims=True))
    if isinstance(dist, GammaParams):
        return rng.gamma(dist.alpha, scale=1.0 / dist.beta, size=count)
    probs = np.asarray(dist, dtype=float)
    if probs.ndim != 1 or probs.size < 2:
        raise ValueError("categorical probabilities must be a 1-d sequence")
    _check_law("categorical probabilities", probs)
    edges = np.cumsum(probs)
    idx = np.searchsorted(edges, rng.random(count), side="right")
    return np.minimum(idx, probs.size - 1)


def sample(
    dist: BetaParams | DirichletParams | GammaParams | Sequence[float],
    seed: SeedSpec,
    count: int,
) -> np.ndarray:
    """Reproducible i.i.d. samples: identical (seed, dist, count) give identical output."""
    return draw(dist, seed.generator(), count)


def sample_chi(k_dim: int, seed: SeedSpec, count: int) -> np.ndarray:
    """Chi variates, the Euclidean norm of k_dim independent standard normals.

    The squared norm is Chi^2(k_dim) = 2 Gamma(k_dim / 2), so each variate is
    drawn as sqrt(2 G), G ~ Gamma(k_dim / 2): one draw per variate, whatever
    k_dim (an integer >= 1) is. ``count`` is an integer >= 0.
    """
    k_dim, count = _check_at_least("k_dim", k_dim, 1), _check_at_least("count", count, 0)
    out = seed.generator().standard_gamma(0.5 * k_dim, size=count)
    out *= 2.0
    return np.sqrt(out, out=out)
