"""Write one workload's inputs and oracle answers, from its seed.

Usage: python3 perfbench/gen.py WORKLOAD SEED CYCLES OUTDIR [--tiny]

Runs as its own process before measurement.  Problems come from
qfmin.oracle's random_pd_problem and random_psd_problem; the expected
minimum of every operation comes from the independent oracles (kkt_solve
for definite t, reduced_solve for singular t).  OUTDIR/manifest.json lists
the setup operation, the cycles and the environment; the measured process
receives only these files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

from qfmin import kkt_solve, random_pd_problem, random_psd_problem, reduced_solve

import workloads as wl


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Generator:
    def __init__(self, seed: int, out: Path, tiny: bool):
        self.rng = np.random.default_rng(seed)
        self.out = out
        self.tiny = tiny
        self.count = 0

    def size(self, n: int) -> int:
        return wl.tiny(n) if self.tiny else n

    def problem(self, n: int, m: int, kind: str, cplx: bool):
        seed = int(self.rng.integers(2**63))
        if kind == "pd":
            return random_pd_problem(n, m, seed=seed, complex_entries=cplx)
        return random_psd_problem(n, m, wl.psd_rank(n), seed=seed, complex_entries=cplx)

    def npz(self, stem: str, **arrays) -> str:
        name = f"{stem}.npz"
        np.savez(self.out / name, **arrays)
        return name


def oracle_min(t, a, b, kind: str) -> float:
    return (kkt_solve if kind == "pd" else reduced_solve)(t, a, b).min_value


def _nested(arr):
    if np.iscomplexobj(arr):
        return np.stack([arr.real, arr.imag], axis=-1).tolist()
    return arr.tolist()


def write_problem_file(path: Path, t, a, b) -> None:
    doc = {"t": _nested(t), "a": _nested(a), "b": _nested(b)}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


def label(n, kind, cplx) -> str:
    return f"{n}-{kind}-{'c' if cplx else 'r'}"


def solve_expectation(problem_file, arrays, oracle, kind, n) -> dict:
    """What a CLI `solve` or `check` of this problem must report."""
    return {
        "file": problem_file,
        "arrays": arrays,
        "oracle_min": oracle,
        "rank": n if kind == "pd" else wl.psd_rank(n),
        "positivity": "positive-definite" if kind == "pd" else "psd-singular",
    }


def cli_ops(gen: Generator) -> dict:
    """Problem files, shared by every cycle, and the command mix over them."""
    files = {}
    for n, kind, cplx in wl.CLI_FILES:
        size = gen.size(n)
        t, a, b = gen.problem(size, size // 2, kind, cplx)
        name = label(n, kind, cplx)
        write_problem_file(gen.out / f"{name}.json", t, a, b)
        files[(n, kind, cplx)] = solve_expectation(
            f"{name}.json", gen.npz(name, a=a, b=b), oracle_min(t, a, b, kind), kind, size
        )

    def solve_op(key, verify):
        spec = files[key]
        argv = ["solve", "--problem", spec["file"]] + (["--verify"] if verify else [])
        return {"label": "solve-" + label(*key), "argv": argv, "expect": dict(spec, type="solve")}

    cycle = [solve_op(key, (key[1] == "psd") != key[2]) for key in wl.CLI_FILES]
    for key in wl.CLI_CHECKED:
        spec = files[key]
        cycle.append({
            "label": "check-" + label(*key),
            "argv": ["check", "--problem", spec["file"]],
            "expect": dict(spec, type="check"),
        })
    cycle.append({"label": "l2demo", "argv": ["l2demo"], "expect": {"type": "l2demo"}})

    size = gen.size(wl.CLI_REJECT_N)
    t, a, b = gen.problem(size, size // 2, "pd", False)
    # Shifting t by its mean eigenvalue leaves eigenvalues of both signs.
    write_problem_file(gen.out / "reject-indefinite.json", t - np.trace(t) / size * np.eye(size), a, b)
    # A repeated row of a with a different right-hand side is inconsistent.
    a[-1] = a[0]
    b[-1] = b[0] + 1.0 + abs(b[0])
    write_problem_file(gen.out / "reject-infeasible.json", t, a, b)
    for name, code in (("reject-indefinite", 3), ("reject-infeasible", 2)):
        cycle.append({
            "label": name,
            "argv": ["solve", "--problem", f"{name}.json"],
            "expect": {"type": "reject", "exit": code},
        })
    setup = solve_op(wl.CLI_SETUP, False)
    return {"setup": setup, "cycle": cycle}


def solve_mixed_ops(gen: Generator, cycles: int) -> dict:
    def op(n, m, kind, cplx):
        size, rows = gen.size(n), gen.size(m)
        t, a, b = gen.problem(size, rows, kind, cplx)
        gen.count += 1
        return {
            "label": label(n, kind, cplx),
            "kind": kind,
            "file": gen.npz(f"p{gen.count:05d}", t=t, a=a, b=b),
            "oracle_min": oracle_min(t, a, b, kind),
        }

    setup = op(*wl.SOLVE_MIXED_SETUP)
    return {"setup": setup, "cycles": [[op(*spec) for spec in wl.SOLVE_MIXED] for _ in range(cycles)]}


def shared_operator_ops(gen: Generator, cycles: int) -> dict:
    """Fixed (t, a) pairs, each with a stream of feasible right-hand sides.

    Every b is ``a @ (t @ z)`` for a fresh random z: ``t @ z`` lies in the
    range of t, so b is reachable from the kernel complement of a singular
    t as well as for a definite one.
    """
    pairs, streams = [], []
    count = 1 + cycles * wl.SHARED_BLOCK
    for index, (n, m, kind) in enumerate(wl.SHARED_PAIRS):
        size, rows = gen.size(n), gen.size(m)
        t, a, _ = gen.problem(size, rows, kind, False)
        bs = (a @ (t @ gen.rng.standard_normal((size, count)))).T
        pairs.append({"file": gen.npz(f"pair{index}", t=t, a=a, bs=bs)})
        streams.append([oracle_min(t, a, b, kind) for b in bs])

    def op(pair, k):
        n, _, kind = wl.SHARED_PAIRS[pair]
        return {
            "label": f"pair{pair}-{label(n, kind, False)}",
            "kind": kind,
            "pair": pair,
            "b": k,
            "oracle_min": streams[pair][k],
        }

    cycle_ops = []
    for c in range(cycles):
        ops = []
        for pair in range(len(wl.SHARED_PAIRS)):
            first = 1 + c * wl.SHARED_BLOCK
            ops.extend(op(pair, k) for k in range(first, first + wl.SHARED_BLOCK))
        cycle_ops.append(ops)
    return {"pairs": pairs, "setup": op(0, 0), "cycles": cycle_ops}


def probe_file(gen: Generator, manifest: dict) -> None:
    """The setup problem as a JSON file, for the traced run's CLI probe."""
    setup = manifest["setup"]
    with np.load(gen.out / (setup.get("file") or manifest["pairs"][setup["pair"]]["file"])) as arrays:
        t, a = arrays["t"], arrays["a"]
        b = arrays["b"] if "b" in arrays else arrays["bs"][setup["b"]]
    write_problem_file(gen.out / "probe.json", t, a, b)
    spec = solve_expectation(
        "probe.json", gen.npz("probe", a=a, b=b), setup["oracle_min"], setup["kind"], t.shape[0]
    )
    manifest["probe"] = [
        {"label": "probe-solve", "argv": ["solve", "--problem", "probe.json", "--verify"],
         "expect": dict(spec, type="solve")},
        {"label": "probe-check", "argv": ["check", "--problem", "probe.json"],
         "expect": dict(spec, type="check")},
        {"label": "probe-l2demo", "argv": ["l2demo"], "expect": {"type": "l2demo"}},
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=wl.WORKLOADS)
    parser.add_argument("seed", type=int)
    parser.add_argument("cycles", type=int)
    parser.add_argument("out", type=Path)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    gen = Generator(args.seed, args.out, args.tiny)
    if args.workload == "cli-files":
        manifest = cli_ops(gen)
    elif args.workload == "solve-mixed":
        manifest = solve_mixed_ops(gen, args.cycles)
    else:
        manifest = shared_operator_ops(gen, args.cycles)
    if args.workload != "cli-files":
        probe_file(gen, manifest)
    manifest.update(workload=args.workload, env=environment())
    with open(args.out / "manifest.json", "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
