"""Dense matrix values and the two factorizations the rest of the library uses.

Matrices and vectors are plain numpy arrays in float64 or complex128,
validated on entry (finite values, consistent shapes).  All operations are
pure functions; nothing mutates its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, FactorizationError, NotHermitianError

# Hermitian pre-check, ``||a - a*|| <= HTOL * ||a||``.
HTOL = 1e-10
# Factorization reconstruction guard (SVD and eigendecomposition).
KTOL = 1e-10


def as_matrix(a) -> np.ndarray:
    """Coerce `a` to a 2-d float64/complex128 array with finite entries."""
    arr = np.asarray(a)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-d array, got ndim={arr.ndim}")
    dtype = np.complex128 if np.iscomplexobj(arr) else np.float64
    arr = np.ascontiguousarray(arr, dtype=dtype)
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    return arr


def as_vector(b) -> np.ndarray:
    """Coerce `b` to a 1-d float64/complex128 array with finite entries."""
    arr = np.asarray(b)
    if arr.ndim != 1:
        raise DimensionMismatchError(f"expected a 1-d array, got ndim={arr.ndim}")
    dtype = np.complex128 if np.iscomplexobj(arr) else np.float64
    arr = np.ascontiguousarray(arr, dtype=dtype)
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError("vector entries must be finite")
    return arr


# Band in which the plain norm is trusted: its square lies in (1e-300, 1e300),
# so no partial sum overflowed, and squares lost to underflow moved it by at
# most ``size * 2**-1074``, negligible next to 1e-300.
_PLAIN_NORM_BAND = (1e-150, 1e150)


def fro_norm(a) -> float:
    """Frobenius norm, correct at any float64 scale.

    One BLAS pass when the plain norm lies in `_PLAIN_NORM_BAND`; outside
    it (which includes an exactly zero `a`) the norm is taken after dividing
    the moduli by the largest, so it cannot overflow or underflow.  The
    moduli are real: a complex array divided by a subnormal scale would
    overflow inside the complex division.
    """
    arr = np.asarray(a)
    with np.errstate(over="ignore", under="ignore"):
        plain = float(np.linalg.norm(arr))
    if _PLAIN_NORM_BAND[0] < plain < _PLAIN_NORM_BAND[1]:
        return plain
    mag = np.abs(arr)
    scale = float(np.max(mag)) if arr.size else 0.0
    return scale * float(np.linalg.norm(mag / scale)) if 0 < scale < np.inf else scale


def adjoint(a) -> np.ndarray:
    """Conjugate transpose."""
    return np.conjugate(as_matrix(a)).T


@dataclass(frozen=True)
class SvdResult:
    """Singular value decomposition ``a = u @ diag(sigma) @ v*``.

    `sigma` holds the min(m, n) singular values in descending order; `u` is
    m-by-m and `v` n-by-n unitary, or only their first min(m, n) columns
    in the thin form.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    def reconstruct(self) -> np.ndarray:
        m = self.u.shape[0]
        n = self.v.shape[0]
        k = self.sigma.size
        return (self.u[:, :k] * self.sigma) @ self.v[:, :k].conj().T if k else np.zeros(
            (m, n), dtype=self.u.dtype
        )


@dataclass(frozen=True)
class EigResult:
    """Hermitian eigendecomposition ``a = q @ diag(eigenvalues) @ q*``.

    Eigenvalues are real and ascending; `q` is unitary.
    """

    q: np.ndarray
    eigenvalues: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.q * self.eigenvalues) @ self.q.conj().T


def svd(a, *, full_matrices: bool = True) -> SvdResult:
    """SVD with a reconstruction guard; thin factors if not ``full_matrices``.

    Raises FactorizationError if the backend fails to converge or the
    factors do not reproduce the input within ``KTOL * ||a||``.
    """
    arr = as_matrix(a)
    try:
        u, s, vh = np.linalg.svd(arr, full_matrices=full_matrices)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"SVD did not converge: {exc}") from exc
    result = SvdResult(u=u, sigma=s, v=vh.conj().T)
    norm = fro_norm(arr)
    if norm > 0:
        residual = fro_norm(result.reconstruct() - arr)
        if residual > KTOL * norm:
            raise FactorizationError(
                f"SVD reconstruction residual {residual:.3e} exceeds {KTOL:.1e} * ||a||"
            )
    return result


def eigh(a) -> EigResult:
    """Hermitian eigendecomposition with ascending eigenvalues.

    The input must be Hermitian within ``HTOL * ||a||``; it is symmetrized
    before factorization so the returned factors are exactly consistent.
    """
    arr = as_matrix(a)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError(f"eigh needs a square matrix, got {arr.shape}")
    norm = fro_norm(arr)
    herm_residual = fro_norm(arr - arr.conj().T)
    if herm_residual > HTOL * norm:
        raise NotHermitianError(f"||a - a*|| = {herm_residual:.3e} exceeds {HTOL:.1e} * ||a||")
    sym = (arr + arr.conj().T) / 2
    try:
        w, q = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"eigh did not converge: {exc}") from exc
    del sym  # freed before the guard builds its n-by-n temporaries
    result = EigResult(q=q, eigenvalues=w)
    if norm > 0:
        residual = fro_norm(result.reconstruct() - arr)
        if residual > (KTOL + HTOL) * norm:
            raise FactorizationError(
                f"eigendecomposition residual {residual:.3e} exceeds tolerance"
            )
    return result
