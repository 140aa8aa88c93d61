"""Traced mode: spans around the library's public functions, from outside it.

:class:`Tracer` rebinds functions on the imported ``subgauss`` modules,
including the names a module imported from another one (for example
``concentration.beta_log_mgf`` and ``game.draw``), so calls the library
makes internally are traced too. Spans (id, parent, name, start, end) are
kept in memory and written out at the end; self time is a span's duration
minus the time its child spans cover. The untraced run never installs a
wrapper.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from subgauss import concentration, conjugate_models, distributions, game, martingale, reporting

# (module, attribute) bindings that are rebound, grouped by the span they record.
BINDINGS = {
    "distributions.beta_log_mgf": [(distributions, "beta_log_mgf"), (concentration, "beta_log_mgf")],
    "distributions.draw": [(distributions, "draw"), (game, "draw"), (martingale, "draw"),
                           (conjugate_models, "draw")],
    "distributions.sample_chi": [(distributions, "sample_chi")],
    "concentration.variance_proxy_sup": [(concentration, "variance_proxy_sup"),
                                         (conjugate_models, "variance_proxy_sup")],
    "concentration.empirical_log_mgf": [(concentration, "empirical_log_mgf"),
                                        (conjugate_models, "empirical_log_mgf")],
    "conjugate_models.evaluate_model": [(conjugate_models, "evaluate_model")],
    "conjugate_models.model_q_draws": [(conjugate_models, "model_q_draws")],
    "conjugate_models.mc_moments": [(conjugate_models, "mc_moments")],
    "game.estimate_failure_rate": [(game, "estimate_failure_rate")],
    "game.run_game": [(game, "run_game")],
    "martingale.simulate_paths": [(martingale, "simulate_paths")],
    "martingale.azuma_total": [(martingale, "azuma_total")],
    "reporting.emit_report": [(reporting, "emit_report")],
}

# Span names whose self time is reported (evaluate_model splits by method).
LAYERS = (
    "distributions.beta_log_mgf",
    "distributions.draw",
    "distributions.sample_chi",
    "concentration.variance_proxy_sup",
    "concentration.empirical_log_mgf",
    "conjugate_models.evaluate_model.exact",
    "conjugate_models.evaluate_model.monte_carlo",
    "conjugate_models.model_q_draws",
    "conjugate_models.mc_moments",
    "game.estimate_failure_rate",
    "game.run_game",
    "martingale.simulate_paths",
    "martingale.azuma_total",
    "reporting.emit_report",
)

# Counters reported per pass, besides the self times.
COUNTERS = (
    "distributions.beta_log_mgf.calls",
    "distributions.beta_log_mgf.lambda_points",
    "distributions.beta_log_mgf.raised",
    "distributions.draw.calls",
    "distributions.draw.variates",
    "distributions.sample_chi.bytes_computed",
    "concentration.variance_proxy_sup.calls",
    "concentration.variance_proxy_sup.raised",
    "concentration.empirical_log_mgf.evals",
    "concentration.empirical_log_mgf.bytes_computed",
    "game.run_game.calls",
    "game.rounds",
    "martingale.simulate_paths.path_steps",
    "reporting.emit_report.bytes_written",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[tuple[int, str]] = []
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []
        self._vps_points: list[int] = []
        self._vps_edge = 0
        self._games_won = 0

    # -- spans ------------------------------------------------------------

    def _call(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1][0] if self._stack else -1
        self._next_id += 1
        span_id = self._next_id
        self._stack.append((span_id, name))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, name, start, end))

    def _parent_name(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, original):
        handler = getattr(self, "_on_" + name.replace(".", "_"), None)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if handler is not None:
                return handler(original, *args, **kwargs)
            return self._call(name, original, *args, **kwargs)

        return wrapper

    def _on_distributions_beta_log_mgf(self, original, p, lam, **kwargs):
        # Negative lambda re-enters through the reflection; count it once.
        outer = self._parent_name() != "distributions.beta_log_mgf"
        if outer:
            self.counters["distributions.beta_log_mgf.calls"] += 1
            self.counters["distributions.beta_log_mgf.lambda_points"] += np.size(lam)
        try:
            return self._call("distributions.beta_log_mgf", original, p, lam, **kwargs)
        except Exception:
            if outer:
                self.counters["distributions.beta_log_mgf.raised"] += 1
            raise

    def _on_distributions_draw(self, original, dist, rng, count):
        self.counters["distributions.draw.calls"] += 1
        self.counters["distributions.draw.variates"] += count
        return self._call("distributions.draw", original, dist, rng, count)

    def _on_distributions_sample_chi(self, original, k_dim, seed, count, **kwargs):
        self.counters["distributions.sample_chi.bytes_computed"] += 8.0 * k_dim * count
        return self._call("distributions.sample_chi", original, k_dim, seed, count, **kwargs)

    def _on_concentration_variance_proxy_sup(self, original, log_mgf, mean, lambda_cap, **kwargs):
        points = [0]

        def counted(lam):
            points[0] += 1
            return log_mgf(lam)

        self.counters["concentration.variance_proxy_sup.calls"] += 1
        try:
            est = self._call("concentration.variance_proxy_sup", original, counted, mean, lambda_cap, **kwargs)
        except Exception:
            self.counters["concentration.variance_proxy_sup.raised"] += 1
            raise
        finally:
            self._vps_points.append(points[0])
        lo = kwargs.get("lambda_min", 1e-3)
        n = kwargs.get("points_per_sign", 200)
        half_step = (lambda_cap / lo) ** (0.5 / (n - 1))
        if abs(est.argmax_lambda) >= lambda_cap / half_step or abs(est.argmax_lambda) <= lo * half_step:
            self._vps_edge += 1
        return est

    def _on_concentration_empirical_log_mgf(self, original, samples):
        log_mgf, cap = original(samples)
        nbytes = 8.0 * len(samples)

        def traced(lam):
            self.counters["concentration.empirical_log_mgf.evals"] += 1
            self.counters["concentration.empirical_log_mgf.bytes_computed"] += nbytes
            return self._call("concentration.empirical_log_mgf", log_mgf, lam)

        return traced, cap

    def _on_conjugate_models_evaluate_model(self, original, *args, **kwargs):
        kind = "monte_carlo" if kwargs.get("method") == "monte_carlo" else "exact"
        return self._call(f"conjugate_models.evaluate_model.{kind}", original, *args, **kwargs)

    def _on_game_run_game(self, original, config, seed, **kwargs):
        self.counters["game.run_game.calls"] += 1
        self.counters["game.rounds"] += config.q
        transcript = self._call("game.run_game", original, config, seed, **kwargs)
        self._games_won += bool(transcript.win)
        return transcript

    def _on_martingale_simulate_paths(self, original, prior, horizon, trials, seed, **kwargs):
        self.counters["martingale.simulate_paths.path_steps"] += horizon * trials
        return self._call("martingale.simulate_paths", original, prior, horizon, trials, seed, **kwargs)

    def _on_reporting_emit_report(self, original, *args, **kwargs):
        manifest = self._call("reporting.emit_report", original, *args, **kwargs)
        paths = [Path(o["path"]) for o in manifest.outputs]
        if paths:
            paths.append(paths[0].parent / "manifest.json")
        self.counters["reporting.emit_report.bytes_written"] += sum(p.stat().st_size for p in paths)
        return manifest

    # -- install / remove -------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, bindings in BINDINGS.items():
            original = getattr(*bindings[0])
            wrapper = self._wrap(name, original)
            for module, attr in bindings:
                self._saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        child = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent != -1:
                child[parent] += end - start
        out = defaultdict(float)
        for span_id, _, name, start, end in self.spans:
            out[name] += (end - start) - child.get(span_id, 0.0)
        return out

    def metrics(self, traced_walls: list[float], overhead_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit), per traced pass.

        ``*.share`` is a layer's self time over the traced wall time; with
        nothing contending, it bounds what speeding that layer alone saves.
        """
        passes = len(traced_walls)
        selfs = self.self_times()
        out = {f"{name}.self_s": (selfs.get(name, 0.0) / passes, "s") for name in LAYERS}
        for name in COUNTERS:
            unit = "B" if name.endswith("bytes_computed") or name.endswith("bytes_written") else "count"
            out[name] = (self.counters.get(name, 0.0) / passes, unit)
        vps = self._vps_points
        out["concentration.variance_proxy_sup.lambda_points_per_call"] = (sum(vps) / len(vps) if vps else 0.0, "count")
        out["concentration.variance_proxy_sup.argmax_at_edge_share"] = (self._vps_edge / len(vps) if vps else 0.0, "share")
        games = self.counters.get("game.run_game.calls", 0.0)
        rounds = self.counters.get("game.rounds", 0.0)
        game_time = sum(end - start for _, _, name, start, end in self.spans if name == "game.run_game")
        out["game.round_us"] = (1e6 * game_time / rounds if rounds else 0.0, "us")
        out["game.win_share"] = (self._games_won / games if games else 0.0, "share")
        total_wall = sum(traced_walls)
        attributed = 0.0
        for name in LAYERS:
            share = selfs.get(name, 0.0) / total_wall
            out[f"{name}.share"] = (share, "share")
            attributed += share
        out["trace.unattributed_share"] = (1.0 - attributed, "share")
        out["trace.overhead_s"] = (overhead_s, "s")
        return out

    def write_spans(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps([span_id, parent, name, start, end]) + "\n")
