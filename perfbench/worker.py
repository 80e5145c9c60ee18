"""The measured process: one closed-loop client running a workload's cycles.

Usage: python3 perfbench/worker.py WORKDIR CYCLES T0 OUT [--trace] [--setup-only]

T0 is the time.monotonic() reading taken just before this process was
started; setup_s is the time from T0 until the setup operation completes.
With --setup-only the process stops there.  Otherwise it runs CYCLES
cycles; with --trace, odd cycles run with the layer wrappers installed and
even ones without, so the tracing overhead is measured in the same run.
Each operation is checked against its oracle answer after its clock
stops.  The result goes to the JSON file OUT.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl
from tracing import Tracer, layer_metrics, library_targets

HERE = Path(__file__).resolve().parent
OP_TIMEOUT_S = 120


def strict_json(text: str):
    """Parse JSON, refusing the NaN and Infinity tokens json.loads accepts."""

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=refuse)


def min_gap(value: float, oracle: float) -> float:
    return abs(value - oracle) / max(1.0, abs(oracle))


def solution_errors(x, a, b, value, oracle) -> list:
    import numpy as np

    errors = []
    if not np.all(np.isfinite(x)):
        errors.append("nonfinite minimizer")
    residual = float(np.linalg.norm(a @ x - b)) / max(1.0, float(np.linalg.norm(b)))
    if not residual <= wl.FEAS_TOL:
        errors.append(f"feasibility residual {residual:.3e} > {wl.FEAS_TOL}")
    if not min_gap(value, oracle) <= wl.MIN_RTOL:
        errors.append(f"min {value!r} differs from oracle {oracle!r}")
    return errors


class CliClient:
    """Runs each operation as a fresh `python -m qfmin.cli` process."""

    def __init__(self, workdir: Path, manifest: dict):
        self.workdir = workdir
        self.import_s = []

    def run(self, op, tracer=None):
        argv = [sys.executable, "-m", "qfmin.cli", *op["argv"]]
        if tracer is not None:
            spans_path = self.workdir / f"spans-{os.getpid()}.json"
            argv = [sys.executable, str(HERE / "cli_driver.py"), str(spans_path), *op["argv"]]
        start = time.perf_counter()
        proc = subprocess.run(
            argv, cwd=self.workdir, capture_output=True, text=True, timeout=OP_TIMEOUT_S
        )
        elapsed = time.perf_counter() - start
        if tracer is not None:
            with open(spans_path, encoding="utf-8") as handle:
                traced = json.load(handle)
            offset = len(tracer.spans)
            for name, begin, end, parent, _, value in traced["spans"]:
                parent = parent + offset if parent >= 0 else -1
                tracer.spans.append([name, begin, end, parent, tracer.op, value])
            self.import_s.append(traced["import_s"])
        return elapsed, proc

    def check(self, op, proc) -> list:
        expect = op["expect"]
        if expect["type"] == "reject":
            errors = []
            if proc.returncode != expect["exit"]:
                errors.append(f"exit {proc.returncode}, expected {expect['exit']}")
            if proc.stdout:
                errors.append("rejected input wrote to stdout")
            return errors
        if proc.returncode != 0:
            return [f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"]
        try:
            doc = strict_json(proc.stdout)
        except ValueError as exc:
            return [f"stdout is not strict JSON: {exc}"]
        if expect["type"] == "l2demo":
            return l2demo_errors(doc)
        if expect["type"] == "check":
            return check_errors(doc, expect)
        import numpy as np

        x = np.array(doc["xhat"], dtype=float)
        if x.ndim == 2:
            x = x[:, 0] + 1j * x[:, 1]
        with np.load(self.workdir / expect["arrays"]) as arrays:
            errors = solution_errors(x, arrays["a"], arrays["b"], doc["min_value"], expect["oracle_min"])
        if "--verify" in op["argv"] and not doc["verify"]["oracle_gap"] <= wl.MIN_RTOL:
            errors.append(f"--verify oracle gap {doc['verify']['oracle_gap']!r}")
        return errors


def l2demo_errors(doc) -> list:
    limit = 7 * math.pi**2 / 24
    values = [row["min_value"] for row in doc["rows"]]
    errors = [row["abs_error"] for row in doc["rows"]]
    problems = []
    if abs(doc["limit"] - limit) > 1e-12:
        problems.append(f"limit {doc['limit']!r}")
    if [row["n"] for row in doc["rows"]] != [10, 100, 1000]:
        problems.append("unexpected sweep sizes")
    if not all(v < w for v, w in zip(values, values[1:])) or not values[-1] < limit:
        problems.append("minima do not increase toward the limit")
    if not all(e > f for e, f in zip(errors, errors[1:])):
        problems.append("errors do not decrease")
    return problems


def check_errors(doc, expect) -> list:
    problems = []
    if doc["ep"] is not True:
        problems.append("Hermitian t reported as not EP")
    if doc["rank"] != expect["rank"]:
        problems.append(f"rank {doc['rank']}, expected {expect['rank']}")
    if doc["positivity_class"] != expect["positivity"]:
        problems.append(f"class {doc['positivity_class']}, expected {expect['positivity']}")
    if not isinstance(doc["reverse_order"], dict):
        problems.append("no reverse-order report")
    if not 0.0 <= doc["principal_angle"] <= math.pi / 2:
        problems.append(f"principal angle {doc['principal_angle']!r}")
    return problems


class LibraryClient:
    """Calls QpProblem and solve in this process, as a library caller does."""

    def __init__(self, workdir: Path, manifest: dict):
        import numpy as np
        from qfmin import QpProblem, solve

        self.np, self.QpProblem, self.solve = np, QpProblem, solve
        self.workdir = workdir
        # A caller with fixed operators holds them; solve-mixed loads each
        # problem just before its operation, outside the timed region.
        self.pairs = []
        for pair in manifest.get("pairs", []):
            with np.load(workdir / pair["file"]) as arrays:
                self.pairs.append((arrays["t"], arrays["a"], arrays["bs"]))

    def inputs(self, op):
        if "pair" in op:
            t, a, bs = self.pairs[op["pair"]]
            return t, a, bs[op["b"]]
        with self.np.load(self.workdir / op["file"]) as arrays:
            return arrays["t"], arrays["a"], arrays["b"]

    def run(self, op, tracer=None):
        t, a, b = self.inputs(op)
        start = time.perf_counter()
        try:
            if tracer is None:
                result = self.solve(self.QpProblem(t, a, b))
            else:
                with tracer.span("minimizers.validate"):
                    problem = self.QpProblem(t, a, b)
                with tracer.span("minimizers.solve"):
                    result = self.solve(problem)
        except Exception as exc:  # an operation that raises is a failed operation
            return time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
        return time.perf_counter() - start, (result, a, b)

    def check(self, op, outcome) -> list:
        if isinstance(outcome, str):
            return [outcome]
        result, a, b = outcome
        return solution_errors(result.xhat, a, b, result.min_value, op["oracle_min"])


def interp_start_ms(runs: int = 5) -> float:
    """Median wall time of a bare `python -c pass`, the floor under every CLI op."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=OP_TIMEOUT_S)
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def cpu_seconds(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workdir", type=Path)
    parser.add_argument("cycles", type=int)
    parser.add_argument("t0", type=float)
    parser.add_argument("out", type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    with open(args.workdir / "manifest.json", encoding="utf-8") as handle:
        manifest = json.load(handle)
    is_cli = manifest["workload"] == "cli-files"
    client = (CliClient if is_cli else LibraryClient)(args.workdir, manifest)

    failures, attempted = [], 0

    def record(op, outcome, checker=client):
        nonlocal attempted
        attempted += 1
        try:
            errors = checker.check(op, outcome)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            errors = [f"malformed output: {exc!r}"]
        failures.extend(f"{op['label']}: {error}" for error in errors)

    _, outcome = client.run(manifest["setup"])
    setup_s = time.monotonic() - args.t0
    record(manifest["setup"], outcome)
    result = {"setup_s": setup_s}
    if not args.setup_only:
        result.update(measure(args, manifest, client, is_cli, record))
    result.update(attempted=attempted, failed=len(failures), failures=failures[:10])
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


def measure(args, manifest, client, is_cli, record) -> dict:
    cycles = manifest.get("cycles") or [manifest["cycle"]] * args.cycles
    tracer = Tracer()
    targets = library_targets() if args.trace and not is_cli else []
    untraced, traced, labels = [], [], []
    who = resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF
    cpu_start, wall_start = cpu_seconds(who), time.perf_counter()
    for index, cycle in enumerate(cycles):
        active = tracer if args.trace and index % 2 else None
        if active is not None and not is_cli:
            active.install(targets)
        for op in cycle:
            if active is not None:
                active.op += 1
            elapsed, outcome = client.run(op, active)
            if active is None:
                untraced.append(elapsed)
                labels.append(op["label"])
            else:
                traced.append(elapsed)
            record(op, outcome)
        if active is not None and not is_cli:
            active.uninstall()
    cpu_per_wall = (cpu_seconds(who) - cpu_start) / (time.perf_counter() - wall_start)
    out = {"latencies_s": untraced, "labels": labels, "cycles": len(cycles)}
    if args.trace:
        out["layers"] = traced_layers(tracer, client, manifest, is_cli, untraced, traced, record)
        out["layers"]["process.cpu_per_wall"] = cpu_per_wall
    # ru_maxrss is in KiB on Linux.
    out["peak_rss_mb"] = resource.getrusage(who).ru_maxrss * 1024 / 1e6
    return out


def traced_layers(tracer, client, manifest, is_cli, untraced, traced, record) -> dict:
    layers = layer_metrics(tracer.spans, len(traced))
    probe_client = client
    if not is_cli:
        # These ops never enter problem_io, the basis and check helpers,
        # oracle or l2_models; a traced probe of one `solve --verify`, one
        # `check` and one `l2demo` on the setup problem measures them.
        probe_client = CliClient(client.workdir, manifest)
        probe = Tracer()
        for op in manifest["probe"]:
            probe.op += 1
            _, outcome = probe_client.run(op, probe)
            record(op, outcome, probe_client)
        probed = layer_metrics(probe.spans, len(manifest["probe"]))
        for key in ("problem_io.load_ms", "problem_io.load_mb_per_s", "problem_io.emit_ms",
                    "pinv_ops.basis_ms", "pinv_ops.basis_calls", "pinv_ops.check_ms",
                    "oracle.verify_ms", "l2_models.sweep_ms"):
            layers[key] = probed[key]
    layers["cli.import_ms"] = 1e3 * statistics.mean(probe_client.import_s)
    layers["cli.interp_start_ms"] = interp_start_ms()
    layers["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    return layers


if __name__ == "__main__":
    sys.exit(main())
