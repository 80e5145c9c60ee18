"""Tolerance knobs shared by factorizations, rank decisions and solvers."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class ToleranceConfig:
    """Bundle of numerical tolerances.

    Relative tolerances are taken against the norm (or largest singular
    value / eigenvalue) of the operator they apply to.

    Attributes
    ----------
    rtol : float or None
        Relative rank threshold for singular values.  None means
        ``max(rows, cols) * machine_eps``, the standard numerical-rank rule.
    abs_floor : float
        Absolute floor under the rank threshold, so an exactly-zero
        spectrum still yields rank 0.
    htol : float
        Hermitian pre-check, ``||a - a*|| <= htol * ||a||``.
    ktol : float
        Factorization reconstruction guard (SVD and eigendecomposition).
    ptol : float
        Penrose-equation residual budget for pseudoinverses.
    ep_tol : float
        Projector-commutation budget for the EP test.
    neg_tol : float
        Eigenvalues in ``[-neg_tol * ||t||, 0)`` are clamped to zero by the
        positive square root; anything below is an error.
    pd_tol : float or None
        Definiteness gate: eigenvalues above it count as strictly positive.
        None derives the gate from ``rtol`` and the largest eigenvalue.
    feas_tol : float
        Constraint-consistency check, ``||A A^+ b - b|| <= feas_tol * ||b||``.
    lat_tol : float
        Invariant-subspace residual budget.
    commute_tol : float
        Commutator budget for the reverse-order-law predicate.
    angle_warn : float
        Principal angles below this (radians) raise a narrow-angle warning.
    warn_ratio : float
        Kept-singular-value ratio below which an ill-conditioning warning
        is raised.
    """

    rtol: float | None = None
    abs_floor: float = 1e-300
    htol: float = 1e-10
    ktol: float = 1e-10
    ptol: float = 1e-10
    ep_tol: float = 1e-10
    neg_tol: float = 1e-10
    pd_tol: float | None = None
    feas_tol: float = 1e-8
    lat_tol: float = 1e-10
    commute_tol: float = 1e-10
    angle_warn: float = 1e-6
    warn_ratio: float = 1e-8

    def effective_rtol(self, dim: int) -> float:
        """Rank threshold factor for a problem of leading dimension `dim`."""
        if self.rtol is not None:
            return self.rtol
        return max(dim, 1) * _EPS

    def with_overrides(self, **kwargs) -> "ToleranceConfig":
        """Copy with the given fields replaced (None values are ignored)."""
        fields = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **fields) if fields else self


DEFAULT_TOL = ToleranceConfig()
