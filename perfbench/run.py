"""qfmin benchmark: run one workload and print its metrics.

Usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from its
``src`` directory.  The run has three steps, each its own process:

1. ``gen.py`` writes the workload's inputs and oracle answers from the seed;
2. with ``--trace 0``, ``SETUP_PROBES - 1`` fresh workers stop after their
   setup operation, which gives the median of setup_s;
3. the main worker runs the cycles and checks every output.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_BUDGET_S = 170  # every run must end within 180 s

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


LAYER_UNITS = (
    ("gflop_per_s", "GFLOP/s"),
    ("mb_per_s", "MB/s"),
    ("gflop_computed", "GFLOP/op"),
    ("_calls", "calls/op"),
    ("_ratio", "ratio"),
    ("_per_wall", "ratio"),
    ("_ms", "ms/op"),
)


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric; cli.* times are per process, not per op."""
    if name.startswith("cli."):
        return "ms"
    return next(unit for suffix, unit in LAYER_UNITS if name.endswith(suffix))


def bench_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


class Runner:
    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = bench_env()
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def python(self, script: str, *args) -> None:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("run budget exhausted")
        # A session of its own lets a timeout stop the worker's CLI children too.
        proc = subprocess.Popen(
            [sys.executable, str(HERE / script), *map(str, args)],
            env=self.env,
            stdout=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            proc.wait(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        if proc.returncode != 0:
            raise RuntimeError(f"{script} exited with {proc.returncode}")

    def worker(self, cycles: int, *flags) -> dict:
        out = self.workdir / f"result-{len(list(self.workdir.glob('result-*')))}.json"
        self.python("worker.py", self.workdir, cycles, repr(time.monotonic()), out, *flags)
        with open(out, encoding="utf-8") as handle:
            return json.load(handle)


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_benchmark(workload: str, seed: int, seconds: int, trace: bool, tiny: bool = False):
    """Run one workload; return (summary lines, result object)."""
    cycles = wl.cycles_for(workload, seconds)
    workdir = HERE / ".work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        runner = Runner(workdir)
        runner.python("gen.py", workload, seed, cycles, workdir, *(["--tiny"] if tiny else []))
        with open(workdir / "manifest.json", encoding="utf-8") as handle:
            env = json.load(handle)["env"]
        probes = [] if trace else [runner.worker(cycles, "--setup-only") for _ in range(wl.SETUP_PROBES - 1)]
        main = runner.worker(cycles, *(["--trace"] if trace else []))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = probes + [main]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    lat_ms = [1e3 * s for s in main["latencies_s"]]
    lines = [
        "env: " + ", ".join(f"{k} {v}" for k, v in env.items()),
        f"workload {workload} seed {seed}: {main['cycles']} cycles, "
        f"{len(lat_ms)} untraced ops measured, trace {int(trace)}",
    ]
    if trace:
        metrics = {name: (value, layer_unit(name)) for name, value in sorted(main["layers"].items())}
    else:
        setups = [r["setup_s"] for r in results]
        values = {
            "setup_s": statistics.median(setups),
            "op_ms_p50": percentile(lat_ms, 50),
            "op_ms_p90": percentile(lat_ms, 90),
            "ops_per_s": len(lat_ms) / (sum(lat_ms) / 1e3),
            "peak_rss_mb": main["peak_rss_mb"],
        }
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}
        samples = {
            "setup_s": f"n={len(setups)} [" + " ".join(f"{s:.3f}" for s in setups) + "]",
            "peak_rss_mb": "n=1",
        }
        for name, (value, unit) in metrics.items():
            lines.append(f"{name:<14} {value:12.4f} {unit:<4} {samples.get(name, f'n={len(lat_ms)}')}")
        lines.append(f"{'failed_ratio':<14} {failed / attempted:12.4f} {'':<4} n={attempted}")
        by_label = {}
        for label, ms in zip(main["labels"], lat_ms):
            by_label.setdefault(label, []).append(ms)
        lines += [
            f"  {label:<26} median {statistics.median(ms):10.3f} ms  n={len(ms)}"
            for label, ms in sorted(by_label.items(), key=lambda item: statistics.median(item[1]))
        ]
    if trace:
        lines += [f"{name:<34} {value:14.6f} {unit}" for name, (value, unit) in metrics.items()]
    for r in results:
        lines += [f"FAILED {reason}" for reason in r["failures"]]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one qfmin benchmark workload.")
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qfmin" / "__init__.py").is_file():
        print(f"run.py: no qfmin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        lines, result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
