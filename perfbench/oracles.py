"""Oracle checks for the benchmark's results, independent of ``subgauss`` code.

Every check returns a list of :class:`Failure`. A failure names the
instance and the quantity that failed, with its value and tolerance. Known
defects of the library (documented in README.md, each with a ROADMAP item)
carry a ``known`` tag; any other failure makes the run incorrect.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import polygamma

REFERENCE_PATH = Path(__file__).resolve().parent / "quad_reference.json"

# Known-defect tags (README.md lists each with its ROADMAP item).
SYMMETRIC_EXCESS = "symmetric_excess_over_variance"
LARGE_TOTAL_OVERFLOW = "overflow_above_total_1e3"
SERIES_CAP = "argmax_on_series_cap"
SYMMETRIC_EXCESS_MAX = 1e-6  # largest est/Var - 1 still read as the known cancellation


@dataclass(frozen=True)
class Failure:
    workload: str
    instance: str
    quantity: str
    value: object
    tolerance: str
    known: str | None = None

    def describe(self) -> str:
        tag = f" [known: {self.known}]" if self.known else ""
        return (
            f"FAIL {self.workload} {self.instance}: {self.quantity} = {self.value!r}, "
            f"required {self.tolerance}{tag}"
        )


# ---------------------------------------------------------------------------
# beta_exact
# ---------------------------------------------------------------------------


def check_beta(stratum: str, a: float, b: float, result, where: str) -> list[Failure]:
    """Check one tau^2 estimate (or the exception it raised) for Beta(a, b).

    Var - 1e-6 <= est <= (1+1e-6)/(4(a+b)+2); est <= (1+1e-3)/(4(a+b+1))
    (Marchal & Arbel's proven bound); on symmetric pairs the supremum is
    the variance, so est <= Var (1+1e-12).
    """
    inst = f"{where} {stratum} Beta({a!r}, {b!r})"
    s = a + b
    if isinstance(result, BaseException):
        known = LARGE_TOTAL_OVERFLOW if isinstance(result, OverflowError) and s > 1e3 else None
        return [Failure("beta_exact", inst, "check_beta_bound", f"raised {type(result).__name__}: {result}",
                        "a finite estimate", known)]
    est = float(result)
    var = a * b / (s * s * (s + 1.0))
    bound = 1.0 / (4.0 * s + 2.0)
    tight = 1.0 / (4.0 * (s + 1.0))
    out = []
    if not math.isfinite(est) or est < var - 1e-6:
        out.append(Failure("beta_exact", inst, "tau2_est", est, f">= Var - 1e-6 = {var - 1e-6!r}"))
    if est > bound * (1.0 + 1e-6):
        out.append(Failure("beta_exact", inst, "tau2_est", est, f"<= (1+1e-6)/(4(a+b)+2) = {bound * (1 + 1e-6)!r}"))
    if est > tight * (1.0 + 1e-3):
        out.append(Failure("beta_exact", inst, "tau2_est", est, f"<= (1+1e-3)/(4(a+b+1)) = {tight * (1 + 1e-3)!r}"))
    if a == b and est > var * (1.0 + 1e-12):
        excess = est / var - 1.0
        # The documented defect is an excess of 1e-9 to 1e-7; a larger one is new.
        known = SYMMETRIC_EXCESS if excess <= SYMMETRIC_EXCESS_MAX else None
        out.append(Failure("beta_exact", inst, "tau2_est/Var - 1", excess, "<= 1e-12", known))
    return out


# ---------------------------------------------------------------------------
# query_game
# ---------------------------------------------------------------------------


def wilson(successes: int, trials: int, z: float = 1.959963984540054) -> tuple[float, float]:
    p = successes / trials
    z2 = z * z
    center = (p + z2 / (2 * trials)) / (1 + z2 / trials)
    half = z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / (1 + z2 / trials)
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high


@dataclass(frozen=True)
class Replay:
    """One replayed trial: the instance and every recorded round."""

    trial: int
    true_p: tuple[float, ...]
    counts: tuple[int, ...]
    rounds: tuple[tuple[tuple[float, ...], float, float], ...]  # (weights, answer, truth)
    max_error: float
    win: bool


def check_game(case, prior_alphas, epsilon, delta, trials, estimate, replays, library_n, lost) -> list[Failure]:
    """Check one analyst x curator x q configuration.

    ``estimate`` is (failures, trials, rate, wilson_low, wilson_high) or the
    exception raised; ``lost`` is the failure count recounted by replaying
    every trial on its own seed stream. Replayed answers are recomputed from the instance
    counts (posterior mean, empirical mean, or one sample-split fold) and
    truths from the true parameter, within 1e-12.
    """
    inst = f"{case.analyst}/{case.curator} q={case.q} n={case.n} streams {case.stream_id}+t"
    if isinstance(estimate, BaseException):
        return [Failure("query_game", inst, "estimate_failure_rate",
                        f"raised {type(estimate).__name__}: {estimate}", "a rate estimate")]
    out = []
    if library_n != case.n:
        out.append(Failure("query_game", inst, "game.required_n", library_n, f"== {case.n}"))
    failures, n_trials, rate, low, high = estimate
    if n_trials != trials or not 0 <= failures <= trials or rate != failures / trials:
        out.append(Failure("query_game", inst, "(failures, trials, rate)", (failures, n_trials, rate),
                           f"consistent counts over {trials} trials"))
        return out
    if failures != lost:
        out.append(Failure("query_game", inst, "failures", failures, f"== {lost} lost games in a trial-by-trial replay"))
    ref_low, ref_high = wilson(failures, trials)
    if abs(low - ref_low) > 1e-12 or abs(high - ref_high) > 1e-12:
        out.append(Failure("query_game", inst, "wilson interval", (low, high), f"== {(ref_low, ref_high)} within 1e-12"))
    if case.curator == "posterior_mean" and low > delta:
        out.append(Failure("query_game", inst, "wilson_low", low, f"<= delta = {delta}"))

    alphas = np.asarray(prior_alphas, dtype=float)
    for rep in replays:
        where = f"{inst} trial={rep.trial}"
        counts = np.asarray(rep.counts, dtype=float)
        true_p = np.asarray(rep.true_p, dtype=float)
        if counts.sum() != case.n or len(rep.rounds) != case.q:
            out.append(Failure("query_game", where, "(sum counts, rounds)", (counts.sum(), len(rep.rounds)),
                               f"== ({case.n}, {case.q})"))
            continue
        post_mean = (alphas + counts) / (alphas.sum() + case.n)
        fold = case.n // case.q
        worst = 0.0
        for r, (weights, answer, truth) in enumerate(rep.rounds):
            w = np.asarray(weights, dtype=float)
            if abs(truth - float(w @ true_p)) > 1e-12:
                out.append(Failure("query_game", f"{where} round={r}", "truth", truth, f"== w.true_p = {float(w @ true_p)!r} within 1e-12"))
            if case.curator == "posterior_mean":
                expected = float(w @ post_mean)
                ok = abs(answer - expected) <= 1e-12
            elif case.curator == "empirical_mean":
                expected = float(w @ counts) / case.n
                ok = abs(answer - expected) <= 1e-12
            else:
                size = fold if r < case.q - 1 else case.n - fold * (case.q - 1)
                expected = round(answer * size) / size
                ok = abs(answer - expected) <= 1e-12 and 0.0 <= answer <= 1.0
            if not ok:
                out.append(Failure("query_game", f"{where} round={r}", "answer", answer,
                                   f"== {expected!r} within 1e-12 ({case.curator})"))
            worst = max(worst, abs(answer - truth))
        if rep.max_error != worst or rep.win != (worst <= epsilon):
            out.append(Failure("query_game", where, "(max_error, win)", (rep.max_error, rep.win),
                               f"== ({worst!r}, {worst <= epsilon})"))
    return out


# ---------------------------------------------------------------------------
# monte_carlo
# ---------------------------------------------------------------------------


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))["instances"]


_SPEC = re.compile(r"\[([^,\]]+), ([^\]]+)\], (\d+) points/sign")


def argmax_on_cap(argmax: float, grid_spec: str) -> bool:
    """True when |argmax| lies in the grid cell at the lambda cap of the scan."""
    match = _SPEC.search(grid_spec)
    if not match:
        return False
    lo, hi, n = float(match.group(1)), float(match.group(2)), int(match.group(3))
    half_step = (hi / lo) ** (0.5 / (n - 1))
    return abs(argmax) >= hi / half_step


def check_conjugate_exact(label: str, tau2: float, argmax: float, grid_spec: str, ref: dict) -> list[Failure]:
    """Exact-mode tau^2 against the quadrature supremum, within 1e-6 relative.

    A scan stopped at the series cap can only understate the supremum, so
    only a low value with its argmax at the cap is the known defect.
    """
    want = ref[label]["tau2"]
    if abs(tau2 - want) <= 1e-6 * want:
        return []
    known = SERIES_CAP if argmax_on_cap(argmax, grid_spec) and tau2 < want else None
    return [Failure("monte_carlo", f"exact {label}", "tau2_est", tau2,
                    f"== quadrature {want!r} within 1e-6 relative (argmax {argmax:.4g})", known)]


def check_conjugate_mc(label: str, tau2: float, draws: int, seed: int, ref: dict) -> list[Failure]:
    """Monte Carlo tau^2 against the quadrature reference.

    - The CLI's rule: within max(0.5 tau^2, 10/sqrt(draws)) of the supremum.
    - Within 0.5 relative of the supremum over |lambda| <= the Monte Carlo
      cap for ``draws`` (``tau2_capped``), the quantity the estimator targets.
    - At least Var - 6 SE: the scan starts at |lambda| = 1e-3, where the
      ratio is the sample variance to O(1e-6 mu4), and the sample variance
      has SE sqrt((mu4 - Var^2)/draws).
    """
    entry = ref[label]
    inst = f"monte_carlo {label} seed={seed}"
    if entry["mc_draws"] != draws:
        return [Failure("monte_carlo", inst, "draws", draws, f"== {entry['mc_draws']} (rebuild the reference)")]
    want, capped, var, mu4 = entry["tau2"], entry["tau2_capped"], entry["var"], entry["mu4"]
    out = []
    tol = max(0.5 * want, 10.0 / math.sqrt(draws))
    if not abs(tau2 - want) <= tol:
        out.append(Failure("monte_carlo", inst, "tau2_est", tau2, f"within {tol!r} of quadrature {want!r}"))
    if not abs(tau2 - capped) <= 0.5 * capped:
        out.append(Failure("monte_carlo", inst, "tau2_est", tau2,
                           f"within 0.5 relative of quadrature {capped!r} over |lambda| <= {entry['mc_cap']:.4g}"))
    floor = var - 6.0 * math.sqrt(max(mu4 - var * var, 0.0) / draws) - 1e-6 * mu4
    if not tau2 >= floor:
        out.append(Failure("monte_carlo", inst, "tau2_est", tau2, f">= Var - 6 SE = {floor!r}"))
    return out


def chi_mean(k: int) -> float:
    return math.sqrt(2.0) * math.exp(math.lgamma((k + 1) / 2.0) - math.lgamma(k / 2.0))


def check_chi(k: int, count: int, seed: int, samples: np.ndarray) -> list[Failure]:
    inst = f"sample_chi k={k} count={count} seed={seed}"
    if samples.shape != (count,) or not (samples >= 0).all():
        return [Failure("monte_carlo", inst, "samples", str(samples.shape), f"({count},) nonnegative")]
    mean, se = float(samples.mean()), float(samples.std(ddof=1) / math.sqrt(count))
    want = chi_mean(k)
    # 6 SE, not 4: a run makes about a hundred of these checks, and at 4 SE
    # one false alarm in the benchmark's whole series of runs is likely.
    if abs(mean - want) > 6.0 * se:
        return [Failure("monte_carlo", inst, "sample mean", mean, f"within 6 SE = {6 * se!r} of {want!r}")]
    return []


def check_paths(prior_total: float, prior_mean: float, trials: int, seed: int, report) -> list[Failure]:
    """Tail frequencies recomputed from the final means, and within bound + 4 SE."""
    inst = f"simulate_paths Beta total={prior_total} trials={trials} seed={seed}"
    total_increment = np.asarray(report.final_mean) - prior_mean
    sigma2 = 1.0 / (4.0 * prior_total + 2.0)
    out = []
    for eps, freq, _, _ in report.tail_rows:
        want = float((np.abs(total_increment) >= eps).mean())
        bound = min(1.0, 2.0 * math.exp(-eps * eps / (2.0 * sigma2)))
        se = math.sqrt(max(want * (1.0 - want), 1.0 / trials) / trials)
        if freq != want:
            out.append(Failure("monte_carlo", f"{inst} eps={eps}", "tail frequency", freq, f"== {want!r}"))
        if want > bound + 4.0 * se:
            out.append(Failure("monte_carlo", f"{inst} eps={eps}", "tail frequency", want,
                               f"<= bound + 4 SE = {bound + 4 * se!r}"))
    return out


def check_azuma(total: float, horizon: int, result) -> list[Failure]:
    """Partial sum against trigamma differences; grand total under 1/(4s+2)."""
    inst = f"azuma_total s={total} horizon={horizon}"
    want = 0.25 * float(polygamma(1, total + 1.0) - polygamma(1, total + horizon + 1.0))
    out = []
    if abs(result.partial_sum - want) > 1e-12 * want:
        out.append(Failure("monte_carlo", inst, "partial_sum", result.partial_sum, f"== {want!r} within 1e-12 relative"))
    bound = 1.0 / (4.0 * total + 2.0)
    if result.partial_sum + result.tail_remainder > bound + 1e-12:
        out.append(Failure("monte_carlo", inst, "partial_sum + tail", result.partial_sum + result.tail_remainder,
                           f"<= {bound!r} + 1e-12"))
    return out
