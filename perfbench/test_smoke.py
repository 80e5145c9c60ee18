"""Smoke test of the benchmark at tiny sizes.

Run: python3 -m pytest -q perfbench/test_smoke.py   (about a minute)

Checks that every metric BENCHMARK.json names is emitted, with its unit,
for every workload in both modes, that every operation passes its
correctness gate, that the traced numpy.linalg counts of one AUTO solve
equal the counts measured when the benchmark was written, and that the
benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import LINALG_CALLS, Tracer, layer_metrics, library_targets  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# numpy.linalg calls made by one AUTO solve.  A change that factors each
# operator once is expected to move exactly these.
SEED_COUNTS = {
    "pd": {"eigh": 4, "svd": 2, "inv": 1, "solve": 0, "lstsq": 0},
    "psd": {"eigh": 3, "svd": 6, "inv": 1, "solve": 0, "lstsq": 0},
    "pd-square": {"eigh": 4, "svd": 5, "inv": 0, "solve": 1, "lstsq": 0},
}


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_every_metric_is_emitted(workload, trace):
    _, result = run.run_benchmark(workload, seed=3, seconds=1, trace=trace, tiny=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if trace and workload == "shared-operator":
        # Every pair is solved equally often, so the per-op counts are the
        # mean of the pairs' seed counts.
        cases = [kind for _, _, kind in wl.SHARED_PAIRS]
        for call in LINALG_CALLS:
            mean = sum(SEED_COUNTS[c][call] for c in cases) / len(cases)
            assert result["metrics"][f"linalg.{call}_calls"]["value"] == pytest.approx(mean)


@pytest.mark.parametrize("case", sorted(SEED_COUNTS))
def test_traced_counts_equal_seed_counts(case):
    from qfmin import QpProblem, random_pd_problem, random_psd_problem, solve

    n = 12
    if case == "psd":
        t, a, b = random_psd_problem(n, n // 2, wl.psd_rank(n), seed=5)
    else:
        t, a, b = random_pd_problem(n, n if case == "pd-square" else n // 2, seed=5)
    tracer = Tracer()
    tracer.install(library_targets())
    try:
        solve(QpProblem(t, a, b))
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer.spans, ops=1)
    assert {call: metrics[f"linalg.{call}_calls"] for call in LINALG_CALLS} == SEED_COUNTS[case]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "cli-files", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
