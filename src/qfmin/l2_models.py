"""Finite sections of sequence-space operators and a convergence study.

Builds truncations of periodic diagonal operators and the left shift,
then tracks the constrained minimum of a diagonal quadratic form under a
shifted-harmonic constraint as the truncation size grows.  The truncated
minima are partial sums of a convergent series, so the sweep converges
monotonically to ``7 pi^2 / 24`` from below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import DimensionMismatchError
from .minimizers import QpProblem, minimize_posdef

EXAMPLE1_LIMIT = 7.0 * np.pi**2 / 24.0

DENSE_CUTOFF = 400


@dataclass(frozen=True)
class DiagonalSpec:
    """Repeating diagonal pattern truncated to an n by n section."""

    period_values: tuple[float, ...]
    n: int

    def __post_init__(self):
        values = tuple(float(v) for v in self.period_values)
        if not values:
            raise ValueError("period_values must be nonempty")
        if not all(np.isfinite(v) for v in values):
            raise ValueError("period_values must be finite")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        object.__setattr__(self, "period_values", values)


@dataclass(frozen=True, eq=False)
class TruncationSeries:
    """Minima of the truncated problems together with their limit."""

    sizes: np.ndarray
    min_values: np.ndarray
    limit: float
    errors: np.ndarray


def diag_operator(spec: DiagonalSpec) -> np.ndarray:
    """Diagonal matrix cycling the pattern of `spec` to length ``spec.n``."""
    return np.diag(np.resize(np.asarray(spec.period_values, dtype=np.float64), spec.n))


def left_shift(n: int) -> np.ndarray:
    """Truncated left shift: ones on the first superdiagonal.

    Maps ``(x_1, ..., x_n)`` to ``(x_2, ..., x_n, 0)``; its pseudoinverse
    is its adjoint, the truncated right shift.
    """
    if n < 2:
        raise ValueError("left_shift needs n >= 2")
    return np.eye(n, k=1)


def harmonic_b(n: int) -> np.ndarray:
    """First `n` entries of the harmonic sequence ``(1, 1/2, 1/3, ...)``."""
    if n < 1:
        raise ValueError("harmonic_b needs n >= 1")
    return 1.0 / np.arange(1, n + 1, dtype=np.float64)


def example1_solution(n: int, cfg: ToleranceConfig = DEFAULT_TOL) -> tuple[np.ndarray, float]:
    """Truncated problem at size `n`: minimizer and minimum value.

    The problem lives in dimension ``n + 1``: the form is the [1, 2]
    periodic diagonal, the constraint is the left shift and the target is
    the harmonic sequence zero-filled at the truncated end.  Up to
    dimension `DENSE_CUTOFF` the generic positive definite solver runs on
    the assembled matrices; above it the same quantities come from the
    closed form the shift structure dictates (first coordinate free and
    zeroed, the rest pinned to the harmonic entries), which keeps the
    sweep linear in `n`.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    dim = n + 1
    if dim <= DENSE_CUTOFF:
        t = diag_operator(DiagonalSpec(period_values=(1.0, 2.0), n=dim))
        a = left_shift(dim)
        b = np.concatenate([harmonic_b(n), [0.0]])
        result = minimize_posdef(QpProblem(t=t, a=a, b=b, tol=cfg))
        return result.xhat, result.min_value
    weights = np.resize(np.array([1.0, 2.0]), dim)[1:]
    pinned = harmonic_b(n)
    xhat = np.concatenate([[0.0], pinned])
    min_value = float(np.sum(weights * pinned**2))
    return xhat, min_value


def example1_convergence(sizes, cfg: ToleranceConfig = DEFAULT_TOL) -> TruncationSeries:
    """Sweep the truncated minima over ascending `sizes`.

    Each minimum is a partial sum of positive terms, so the sequence
    increases toward the limit ``7 pi^2 / 24`` and the recorded errors
    decrease monotonically.
    """
    arr = np.asarray(list(sizes), dtype=np.int64)
    if arr.ndim != 1 or arr.size == 0:
        raise DimensionMismatchError("sizes must be a nonempty one-dimensional list")
    if np.any(arr < 1):
        raise ValueError("sizes must be positive")
    if np.any(np.diff(arr) <= 0):
        raise ValueError("sizes must be strictly ascending")
    minima = np.empty(arr.size, dtype=np.float64)
    for i, n in enumerate(arr):
        _, minima[i] = example1_solution(int(n), cfg)
    return TruncationSeries(
        sizes=arr,
        min_values=minima,
        limit=EXAMPLE1_LIMIT,
        errors=np.abs(minima - EXAMPLE1_LIMIT),
    )
