"""Benchmark of the subgauss library: one workload, one seed, one run.

    python3 perfbench/run.py --workload beta_exact --seed 1 --seconds 24 --trace 0

Runs a fixed number of timed passes of the workload's fixed work, as many as
fit in ``--seconds`` on the host the benchmark was defined on, checks every
pass against its oracles (untimed), and prints as its last
stdout line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` half the time runs untraced and half traced, and the metrics
are the per-layer ones. Failures are named on stderr. Details and the
known failures of the current library are in perfbench/README.md.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402

# One core, one caller: keep numpy's BLAS from starting worker threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 6
WORKLOAD_NAMES = ("beta_exact", "query_game", "monte_carlo")
# Seconds one pass and its check take on the VM the benchmark was defined on
# (2-vCPU Xeon, Python 3.11, numpy 2.4) at its usual load (calibration factor
# about 0.7). The pass count of a run follows from --seconds and these alone,
# never from the clock, so equal arguments always give equal attempted and
# failed counts.
PASS_SECONDS = {"beta_exact": 4.3, "query_game": 11.5, "monte_carlo": 5.4}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int, help="workload seed (nonnegative)")
    parser.add_argument("--seconds", type=float, default=24.0, help="measurement time (sets the pass count)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import and generate inputs, then print the set-up time")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def git_sha() -> str | None:
    """HEAD of the checkout; None outside a git repository."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(args: argparse.Namespace) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _interpreter_kernel(np):
    def run() -> None:
        table, items, acc = {}, [], 0.0
        for i in range(12_000):
            key = i % 97
            table[key] = table.get(key, 0.0) + i * 0.5
            items.append((key, i))
            if len(items) > 64:
                items.sort(key=lambda t: (-t[0], t[1]))
                items.clear()
            acc += abs(math.sin(i))

    return run


def _numpy_kernel(np):
    # Preallocated buffers: the time must not depend on the allocator's state.
    x = np.linspace(1.0, 2.0, 20_000)
    buf = np.empty_like(x)

    def run() -> None:
        for k in range(30):
            np.multiply(x, k % 3 + 1.0, out=buf)
            np.log1p(buf, out=buf)
            float(buf.sum())

    return run


def _fsum_kernel(np):
    values = np.linspace(1.0, 2.0, 20_000).tolist()

    def run() -> None:
        for _ in range(10):
            math.fsum(values)

    return run


# name -> (kernel factory, the kernel's median time on a quiet run of the VM
# the benchmark was defined on: 2-vCPU Xeon, Python 3.11, numpy 2.4)
CALIBRATION_KERNELS = {
    "interpreter": (_interpreter_kernel, 0.0044),
    "numpy": (_numpy_kernel, 0.0012),
    "fsum": (_fsum_kernel, 0.0033),
}


@functools.cache
def _kernels() -> tuple:
    import numpy as np

    return tuple((make(np), reference) for make, reference in CALIBRATION_KERNELS.values())


def calibration_factor(repeats: int = 7) -> float:
    """Reference time / measured time of fixed kernels that call no library code.

    The host is shared, and its speed drifts by tens of percent over minutes
    and varies from one second to the next, differently for different kinds
    of code. Times are multiplied by this factor, measured next to them: the
    mean of the three kernels' ratios, so interpreter, numpy and fsum work
    weigh the same, for every workload and for set-up; see README.md.
    """
    ratios = []
    for kernel, reference in _kernels():
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
        ratios.append(reference / statistics.median(times))
    return statistics.fmean(ratios)


class Clock:
    """Times one pass as the sum of its units' intervals.

    The workload calls :meth:`tick` after each unit. Between two intervals
    the clock runs the calibration kernels once, untimed, and scales each
    interval by the mean of the factors measured at its two ends, so the
    scaling follows the host's speed through the pass.
    """

    def __init__(self) -> None:
        self.raw = 0.0
        self.scaled = 0.0
        self._factor = calibration_factor(repeats=1)
        self._t0 = time.perf_counter()

    def tick(self) -> None:
        interval = time.perf_counter() - self._t0
        factor = calibration_factor(repeats=1)
        self.raw += interval
        self.scaled += interval * 0.5 * (self._factor + factor)
        self._factor = factor
        self._t0 = time.perf_counter()


@dataclass
class Passes:
    walls: list = field(default_factory=list)  # measured seconds per pass
    scaled_walls: list = field(default_factory=list)  # the same, scaled unit by unit
    completed: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    next_index: int = 0


def pass_count(workload_name: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS[workload_name]))


def run_passes(workload, seed: int, passes: int, first_index: int, first_inputs, tracer=None) -> Passes:
    """``passes`` timed passes, each checked untimed right after."""
    out = Passes(next_index=first_index)
    report_dir = OUT_DIR / "reports" / workload.name
    inputs = first_inputs
    for _ in range(passes):
        if out.next_index > first_index:
            inputs = workload.make_inputs(seed, out.next_index)
        if tracer is not None:
            tracer.install()
        try:
            clock = Clock()
            results = workload.run(inputs, seed, report_dir, clock.tick)
        finally:
            if tracer is not None:
                tracer.uninstall()
        n, bad, found = workload.check(inputs, results, seed)
        found = [replace(f, instance=f"{f.instance} pass={out.next_index}") for f in found]
        out.walls.append(clock.raw)
        out.scaled_walls.append(clock.scaled)
        out.completed.append(n - bad)
        out.attempted += n
        out.failed += bad
        out.failures += found
        out.next_index += 1
    return out


def probe_setup(args: argparse.Namespace) -> tuple[list[float], list[float]]:
    """Set-up times of fresh processes run one after another, each with the
    calibration factor measured after it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times, factors = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
        factors.append(calibration_factor())
    return times, factors


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "subgauss" / "__init__.py").is_file():
        print(f"error: no subgauss sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    first_inputs = workload.make_inputs(args.seed, 0)
    setup_main = time.perf_counter() - _T0
    if args.setup_probe:
        print(repr(setup_main))
        return 0

    first_factor = calibration_factor()
    OUT_DIR.mkdir(exist_ok=True)
    env = environment(args)
    if args.trace:
        from tracing import Tracer

        half = pass_count(args.workload, args.seconds / 2)
        plain = run_passes(workload, args.seed, half, 0, first_inputs)
        tracer = Tracer()
        traced = run_passes(workload, args.seed, half, plain.next_index,
                            workload.make_inputs(args.seed, plain.next_index), tracer)
        attempted, failed = plain.attempted + traced.attempted, plain.failed + traced.failed
        failures = plain.failures + traced.failures
        overhead = statistics.median(traced.scaled_walls) - statistics.median(plain.scaled_walls)
        metrics = tracer.metrics(traced.walls, overhead)
        metrics["failed_share"] = (failed / attempted, "share")
        tracer.write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        record = {"untraced": plain.__dict__, "traced": traced.__dict__}
    else:
        run = run_passes(workload, args.seed, pass_count(args.workload, args.seconds), 0, first_inputs)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        probes, probe_factors = probe_setup(args)
        setup = [s * f for s, f in zip([setup_main] + probes, [first_factor] + probe_factors)]
        scaled = run.scaled_walls
        attempted, failed, failures = run.attempted, run.failed, run.failures
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(scaled), "s"),
            "units_per_s": (statistics.median(n / w for n, w in zip(run.completed, scaled)), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        record = {"passes": run.__dict__, "setup_measured_s": [setup_main] + probes,
                  "setup_factors": [first_factor] + probe_factors}

    for failure in failures:
        print(failure.describe(), file=sys.stderr)
    unexpected = [f for f in failures if f.known is None]
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {"env": env, **record, **result}
    for part in ("passes", "untraced", "traced"):
        if part in record:
            record[part] = {**record[part], "failures": [f.describe() for f in record[part]["failures"]]}
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
