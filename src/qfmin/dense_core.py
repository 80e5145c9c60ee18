"""Dense matrix values and the three factorizations the rest of the library uses.

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
# Factorization reconstruction guard (SVD, QR and eigendecomposition).
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

    One BLAS pass when the plain norm lies in `_PLAIN_NORM_BAND`, and 0.0
    for an exactly zero `a`; otherwise the norm is taken over the real and
    imaginary parts divided by the largest of them, so it cannot overflow
    or underflow.  Parts rather than moduli: `np.abs` would round each
    modulus to the subnormal grid, and a complex division by a subnormal
    scale would overflow.
    """
    arr = np.asarray(a)
    with np.errstate(over="ignore", under="ignore"):
        plain = float(np.linalg.norm(arr))
    if _PLAIN_NORM_BAND[0] < plain < _PLAIN_NORM_BAND[1]:
        return plain
    if plain == 0 and not arr.any():
        return 0.0
    mag = np.abs(np.stack([arr.real, arr.imag]))
    scale = float(np.max(mag))
    return scale * float(np.linalg.norm(mag / scale)) if 0 < scale < np.inf else scale


def adjoint(a) -> np.ndarray:
    """Conjugate transpose."""
    return np.conjugate(as_matrix(a)).T


def _within(x, x_norm: float, ref, ref_norm: float, tol: float) -> bool:
    """``||x|| <= tol * ||ref||``, on both divided by ``max|ref|`` if ``||ref||`` overflowed."""
    if ref_norm == np.inf:
        scale = float(np.max(np.abs(ref)))
        x_norm, ref_norm = fro_norm(x / scale), fro_norm(ref / scale)
    return x_norm <= tol * ref_norm


def _guard(name: str, recon: np.ndarray, a: np.ndarray, tol: float, norm: float) -> None:
    """FactorizationError unless ``||recon - a|| <= tol * norm``, so a NaN or inf residual fails.

    `recon`, the product of the factors, is overwritten by the residual.
    `norm` is ``||a||``, which may have overflowed to inf.
    """
    recon -= a
    residual = fro_norm(recon)
    if not _within(recon, residual, a, norm, tol):
        raise FactorizationError(f"{name} residual {residual:.3e} exceeds {tol:.1e} * ||a||")


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


@dataclass(frozen=True)
class EigResult:
    """Hermitian eigendecomposition ``a = q @ diag(eigenvalues) @ q*``.

    Eigenvalues are real and ascending; `q` is unitary.
    """

    q: np.ndarray
    eigenvalues: np.ndarray


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
    _guard("SVD", (u[:, : s.size] * s) @ vh[: s.size], arr, KTOL, fro_norm(arr))
    return SvdResult(u=u, sigma=s, v=vh.conj().T)


def qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR ``a = q @ r`` of a validated matrix, with the reconstruction guard."""
    q, r = np.linalg.qr(a)
    _guard("QR", q @ r, a, KTOL, fro_norm(a))
    return q, r


def eigh(a) -> EigResult:
    """Hermitian eigendecomposition with ascending eigenvalues.

    This is the library's one Hermitian gate: NotHermitianError unless
    ``||a - a*|| <= HTOL * ||a||``.  The input is then symmetrized as
    ``a - (a - a*) / 2``, which cannot overflow, before factorization so
    the returned factors are exactly consistent.
    """
    arr = as_matrix(a)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError(f"eigh needs a square matrix, got {arr.shape}")
    sym = arr - arr.conj().T
    norm = fro_norm(arr)
    herm = fro_norm(sym)
    if not _within(sym, herm, arr, norm, HTOL):
        raise NotHermitianError(f"t deviates from its adjoint by {herm:.3e} (norm {norm:.3e})")
    sym *= 0.5
    np.subtract(arr, sym, out=sym)
    try:
        w, q = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"eigh did not converge: {exc}") from exc
    del sym  # freed before the guard builds its n-by-n temporaries
    _guard("eigendecomposition", (q * w) @ q.conj().T, arr, KTOL + HTOL, norm)
    return EigResult(q=q, eigenvalues=w)
