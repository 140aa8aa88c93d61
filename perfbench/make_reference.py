"""Regenerate quad_reference.json: tau^2 of every conjugate instance by quadrature.

The oracle shares no code with ``subgauss``. For each instance of the
`conjectures` set it integrates exp(lambda (Q - E[Q])) against the prior with
scipy's adaptive quadrature (Jacobi weights for the Beta and Dirichlet
endpoints; 2-D nested for the Dirichlet), and maximises
2 ln E[exp(lambda (Q - E[Q]))] / lambda^2 over lambda. The scan widens until
the bound ratio(lambda) <= 2 (Q_max - E[Q]) / lambda (and its mirror for
lambda < 0), valid for any Q in [Q_min, Q_max], falls below the best value
found, so the supremum is certified rather than capped. It also stores
Var(Q), the fourth central moment, and the supremum over the |lambda| range
that Monte Carlo mode scans at the benchmark's draw count.

Run from the repository root:  python3 perfbench/make_reference.py
(takes a few minutes on one core).
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
from scipy import integrate, optimize

sys.path.insert(0, str(Path(__file__).resolve().parent))
from inputs import MC_DRAWS, ConjugateInstance, conjugate_instances  # noqa: E402

REFERENCE_PATH = Path(__file__).resolve().parent / "quad_reference.json"
_EPSREL = 1e-12


def query_function(inst: ConjugateInstance):
    """Q as a plain function of the prior's parameter (p, rate, or (p1, p2, p3))."""
    subset = list(inst.subset)
    if inst.model == "beta_binomial":
        m = inst.m
        return lambda p: sum(math.comb(m, c) * p**c * (1.0 - p) ** (m - c) for c in subset)
    if inst.model == "geometric":
        return lambda p: sum(p * (1.0 - p) ** c for c in subset)
    if inst.model == "poisson_gamma":
        return lambda r: sum(math.exp(c * math.log(r) - r - math.lgamma(c + 1.0)) if r > 0 else float(c == 0)
                             for c in subset)
    if inst.model == "multinomial":
        m = inst.m
        coeffs = [
            (math.factorial(m) / math.prod(math.factorial(v) for v in x), x) for x in subset
        ]
        return lambda p: sum(c * math.prod(pi**xi for pi, xi in zip(p, x)) for c, x in coeffs)
    raise ValueError(inst.model)


def expectation(inst: ConjugateInstance, g) -> float:
    """E[g(Q)] under the instance's prior, by adaptive quadrature."""
    q = query_function(inst)
    if inst.prior_kind == "beta":
        a, b = inst.prior
        norm = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))
        val, _ = integrate.quad(lambda p: g(q(p)), 0.0, 1.0, weight="alg",
                                wvar=(a - 1.0, b - 1.0), epsabs=0.0, epsrel=_EPSREL, limit=400)
        return norm * val
    if inst.prior_kind == "gamma":
        a, b = inst.prior
        log_norm = a * math.log(b) - math.lgamma(a)

        def integrand(r):
            if r <= 0.0:
                return g(q(0.0)) * (math.exp(log_norm) if a == 1.0 else 0.0)
            return g(q(r)) * math.exp(log_norm + (a - 1.0) * math.log(r) - b * r)

        # Split at a few prior scales so the adaptive rule sees the bulk.
        edges = [0.0, 1.0 / b, 5.0 / b, 20.0 / b, 80.0 / b]
        total = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            total += integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=_EPSREL, limit=400)[0]
        total += integrate.quad(integrand, edges[-1], np.inf, epsabs=0.0, epsrel=_EPSREL, limit=400)[0]
        return total
    if inst.prior_kind == "dirichlet":
        a1, a2, a3 = inst.prior
        # p1 = x, p2 = (1-x) u, p3 = (1-x)(1-u): the density factorises into
        # x^(a1-1) (1-x)^(a2+a3-1) * u^(a2-1) (1-u)^(a3-1).
        log_norm = math.lgamma(a1 + a2 + a3) - math.lgamma(a1) - math.lgamma(a2) - math.lgamma(a3)

        def inner(x):
            return integrate.quad(lambda u: g(q((x, (1.0 - x) * u, (1.0 - x) * (1.0 - u)))),
                                  0.0, 1.0, weight="alg", wvar=(a2 - 1.0, a3 - 1.0),
                                  epsabs=0.0, epsrel=_EPSREL, limit=200)[0]

        val, _ = integrate.quad(inner, 0.0, 1.0, weight="alg", wvar=(a1 - 1.0, a2 + a3 - 1.0),
                                epsabs=0.0, epsrel=1e-11, limit=200)
        return math.exp(log_norm) * val
    raise ValueError(inst.prior_kind)


def query_range(inst: ConjugateInstance) -> tuple[float, float]:
    """[min Q, max Q] over the parameter space, by dense sampling plus a margin."""
    q = query_function(inst)
    if inst.prior_kind == "beta":
        vals = [q(p) for p in np.linspace(0.0, 1.0, 20001)]
    elif inst.prior_kind == "gamma":
        vals = [q(r) for r in np.linspace(0.0, 200.0, 200001)]
    else:
        grid = np.linspace(0.0, 1.0, 401)
        vals = [q((x, (1 - x) * u, (1 - x) * (1 - u))) for x in grid for u in grid]
    lo, hi = float(min(vals)), float(max(vals))
    return max(0.0, lo - 1e-6), min(1.0, hi + 1e-6)


def tau2_by_quadrature(inst: ConjugateInstance) -> dict:
    mean = expectation(inst, lambda v: v)
    q_lo, q_hi = query_range(inst)

    def ratio(lam: float) -> float:
        if abs(lam) * (q_hi - q_lo) <= 1.0:
            # ln E[e^x] with x = lam (Q - mean): log1p(E[expm1(x) - x]) keeps
            # full relative precision as lam -> 0 (E[x] = 0 exactly).
            inc = expectation(inst, lambda v: math.expm1(lam * (v - mean)) - lam * (v - mean))
            log_m = math.log1p(inc)
        else:
            shift = lam * ((q_hi if lam > 0 else q_lo) - mean)
            log_m = shift + math.log(expectation(inst, lambda v: math.exp(lam * (v - mean) - shift)))
        return 2.0 * log_m / (lam * lam)

    best_val, best_lam, top = _scan(ratio, np.geomspace(1e-4, 1e2, 121))
    while 2.0 * max(q_hi - mean, mean - q_lo) / top >= best_val:
        val, lam = _scan(ratio, np.geomspace(top, top * 100.0, 41))[:2]
        if val > best_val:
            best_val, best_lam = val, lam
        top *= 100.0
        if top > 1e7:
            raise RuntimeError(f"could not certify the scan for {inst.label}")
    best_val, best_lam = _refine(ratio, best_val, best_lam, math.inf)
    # The Monte Carlo estimator scans |lambda| <= ln(1e6/sqrt(draws)) (the cap
    # documented by concentration.empirical_log_mgf), so it targets this sup.
    mc_cap = math.log(1e6 / math.sqrt(MC_DRAWS))
    capped_val, capped_lam = _refine(ratio, *_scan(ratio, np.geomspace(1e-4, mc_cap, 121))[:2], mc_cap)
    var = expectation(inst, lambda v: (v - mean) ** 2)
    mu4 = expectation(inst, lambda v: (v - mean) ** 4)
    return {"tau2": best_val, "argmax_lambda": best_lam, "mean": mean, "var": var, "mu4": mu4,
            "q_range": [q_lo, q_hi], "certified_to_lambda": top,
            "tau2_capped": capped_val, "argmax_lambda_capped": capped_lam, "mc_cap": mc_cap, "mc_draws": MC_DRAWS}


def _scan(ratio, magnitudes) -> tuple[float, float, float]:
    """(best ratio, its lambda, largest |lambda|) over both signs of ``magnitudes``."""
    best_val, best_lam = -math.inf, 0.0
    for sign in (1.0, -1.0):
        for lam in sign * magnitudes:
            val = ratio(float(lam))
            if val > best_val:
                best_val, best_lam = val, float(lam)
    return best_val, best_lam, float(magnitudes[-1])


def _refine(ratio, best_val: float, best_lam: float, cap: float) -> tuple[float, float]:
    """Polish a grid maximum within one grid step of it (|lambda| <= cap)."""
    step = 10 ** (6.0 / 120.0)
    lo, hi = sorted((best_lam / step, math.copysign(min(abs(best_lam) * step, cap), best_lam)))
    res = optimize.minimize_scalar(lambda l: -ratio(l), bounds=(lo, hi), method="bounded",
                                   options={"xatol": 1e-10 * abs(best_lam)})
    if -res.fun > best_val:
        return -res.fun, float(res.x)
    return best_val, best_lam


def main() -> int:
    out = {}
    for inst in conjugate_instances():
        out[inst.label] = tau2_by_quadrature(inst)
        print(inst.label, out[inst.label]["tau2"], out[inst.label]["argmax_lambda"], flush=True)
    payload = {
        "about": "tau^2 of the conjectures instances by scipy quadrature; see make_reference.py",
        "instances": out,
    }
    REFERENCE_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
