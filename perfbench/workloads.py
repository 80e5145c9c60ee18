"""The three benchmark workloads, as fixed cycles of operations.

Every workload is a closed loop with one client: an operation starts only
after the previous one has finished.  A run repeats one cycle of
operations a fixed number of times, so every run sees the same mix and
its percentiles fall on the same problem classes; only the matrix entries
change with the seed.  The cycle count is sized from ``--seconds`` and the
cycle times below, which were measured on the reference machine (2 cores,
Python 3.11, numpy 2.4 on OpenBLAS 0.3.31, 2 BLAS threads).
"""

from __future__ import annotations

import math

WORKLOADS = ("cli-files", "solve-mixed", "shared-operator")

# Correctness gate, applied to every operation outside the timed region.
MIN_RTOL = 1e-8  # |min - oracle min| <= MIN_RTOL * max(1, |oracle min|)
FEAS_TOL = 1e-8  # ||a x - b|| <= FEAS_TOL * max(1, ||b||), qfmin's default feas_tol

# setup_s is the median over this many fresh measurement processes.
SETUP_PROBES = 5

# Seconds one cycle takes on the reference machine, untraced.
CYCLE_SECONDS = {"cli-files": 5.8, "solve-mixed": 4.0, "shared-operator": 2.2}


def cycles_for(workload: str, seconds: float) -> int:
    """Cycles per run: at least `seconds` of operations, and at least two.

    Two cycles are the minimum because a traced run alternates untraced
    and traced cycles to measure the tracing overhead.
    """
    return max(2, math.ceil(seconds / CYCLE_SECONDS[workload]))


def tiny(n: int) -> int:
    """Size used by the smoke test in place of `n`."""
    return 4 * max(2, n // 50)


def psd_rank(n: int) -> int:
    return 3 * n // 4


# cli-files: (n, kind, complex) of the twelve problem files.  Files where
# exactly one of "psd" and "complex" holds are solved with --verify.  The
# two `check` runs use n=200 files, which puts them in the tail with the
# complex n=200 solves: three of the 17 runs of a cycle, so the 90th
# percentile falls inside that group rather than on its edge.
CLI_FILES = tuple(
    (n, kind, cplx) for n in (50, 100, 200) for kind in ("pd", "psd") for cplx in (False, True)
)
CLI_CHECKED = ((200, "pd", False), (200, "psd", True))
CLI_SETUP = (200, "psd", False)
CLI_REJECT_N = 50

# No workload has a square constraint, the one case where the cor1
# shortcut fires: kkt_solve's fixed 1e-10 residual gate rejects about 1.5%
# of random definite problems with a square a at n >= 200, so their oracle
# answer cannot be computed reliably.  test_smoke.py still pins that
# case's factorization counts.
#
# solve-mixed: (n, m, kind, complex) per cycle.  An odd count of classes
# with distinct costs puts the median on the n=200-300 definite classes
# and the 90th percentile on (600, psd, real) for any number of cycles.
# Complex problems stop at n=400 because a complex factorization costs
# about 3.5 times a real one; n=1000 real (8 MB per matrix) and n=400
# complex (2.6 MB) sit on both sides of a 4 MiB L2.
SOLVE_MIXED = (
    (100, 50, "pd", False),
    (100, 50, "pd", True),
    (100, 50, "psd", False),
    (100, 50, "psd", True),
    (200, 100, "pd", False),
    (200, 100, "pd", True),
    (200, 100, "psd", False),
    (200, 100, "psd", True),
    (300, 150, "pd", False),
    (400, 200, "pd", False),
    (400, 200, "pd", True),
    (400, 200, "psd", False),
    (400, 200, "psd", True),
    (600, 300, "psd", False),
    (1000, 500, "pd", False),
)
SOLVE_MIXED_SETUP = (300, 150, "pd", False)

# shared-operator: (n, m, kind) per (t, a) pair; each cycle solves a block
# of fresh right-hand sides against every pair in turn.  Two thirds of the
# operations are definite, so the median falls inside the pd block and the
# 90th percentile inside the psd block.
SHARED_PAIRS = ((400, 200, "pd"), (400, 200, "pd"), (400, 200, "psd"))
SHARED_BLOCK = 4
