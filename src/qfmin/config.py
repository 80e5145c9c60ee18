"""Tolerances: the four a caller may set, in `ToleranceConfig`, and fixed constants."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

# HTOL and KTOL are defined with the factorization guards they set, so
# that dense_core, the bottom layer, does not depend on this module.
from .dense_core import HTOL, KTOL  # noqa: F401

_EPS = float(np.finfo(np.float64).eps)

# Absolute floor under the rank threshold, so an exactly-zero spectrum
# still yields rank 0.
ABS_FLOOR = 1e-300
# Projector-commutation budget for the EP test.
EP_TOL = 1e-10
# Constraint-consistency check, ``||A A^+ b - b|| <= FEAS_TOL * ||b||``.
FEAS_TOL = 1e-8
# Invariant-subspace residual budget.
LAT_TOL = 1e-10
# Commutator budget for the reverse-order-law predicate.
COMMUTE_TOL = 1e-10
# Kept-singular-value ratio below which an ill-conditioning warning is raised.
WARN_RATIO = 1e-8
# Factor by which a certificate's bound must clear the thresholds it stands
# in for, and ABS_FLOOR: the one rule of `minimizers._certifies`.  It covers
# the rounding that the bounds leave out.
CERTIFICATE_MARGIN = 1e3


@dataclass(frozen=True)
class ToleranceConfig:
    """The settable numerical tolerances.

    Relative tolerances are taken against the norm (or largest singular
    value / eigenvalue) of the operator they apply to.  The fields are
    exactly the keys a problem file's ``tol`` block accepts.

    Attributes
    ----------
    rtol : float or None
        Relative rank threshold for singular values.  None means
        ``max(rows, cols) * machine_eps``, the standard numerical-rank rule.
    pd_tol : float or None
        Definiteness gate: eigenvalues above it count as strictly positive.
        None derives the gate from ``rtol`` and the largest eigenvalue.
    neg_tol : float
        Indefiniteness gate: an eigenvalue below ``-neg_tol * max|λ|``
        makes `t` indefinite (`classify_spectrum`, `sqrt_psd`); negative
        eigenvalues above it count as roundoff, and `sqrt_psd` clamps them
        to zero.
    angle_warn : float
        Principal angles below this (radians) raise a narrow-angle warning.
    """

    rtol: float | None = None
    pd_tol: float | None = None
    neg_tol: float = 1e-10
    angle_warn: float = 1e-6

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
