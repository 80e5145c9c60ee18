"""Dense matrix values and the guarded factorizations the rest of the library uses.

Matrices and vectors are plain numpy arrays in float64 or complex128,
validated on entry (finite values, consistent shapes).  All operations are
pure functions; nothing mutates its inputs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, FactorizationError, NotHermitianError

# Hermitian pre-check, ``||a - a*|| <= HTOL * ||a||``.
HTOL = 1e-10
# Factorization guard (SVD, QR, eigendecomposition, Cholesky and the
# triangular inverse), relative to ||a||.
KTOL = 1e-10
# The guard multiplies the factors into _PROBES Gaussian probes drawn from
# _PROBE_SEED and divides KTOL by _PROBE_C = 10 sqrt(2/pi), the constant of
# Halko, Martinsson & Tropp (2011), Lemma 4.1, so that it is as strict as a
# full reconstruction except with a small, fixed probability (README).
_PROBES = 8
_PROBE_SEED = 20110503
_PROBE_C = 10 * math.sqrt(2 / math.pi)
# The seed's draw for the largest column count seen so far.  A draw of n
# rows is the first n rows of any longer one, so every size reads a prefix.
# The stdlib generator, not numpy.random: numpy imports that on first use,
# which costs a process about 18 ms and 5.6 MB of peak RSS.
_probe_block = np.empty((0, _PROBES))
# Largest diagonal block that `tri_inv` hands to np.linalg.inv; above it the
# recursion's work is matrix products.
_TRI_BLOCK = 128


def _coerce(a, ndim: int, kind: str) -> np.ndarray:
    """`a` as a contiguous `ndim`-d float64/complex128 array with finite entries."""
    arr = np.asarray(a)
    if arr.ndim != ndim:
        raise DimensionMismatchError(f"expected a {ndim}-d array, got ndim={arr.ndim}")
    dtype = np.complex128 if np.iscomplexobj(arr) else np.float64
    arr = np.ascontiguousarray(arr, dtype=dtype)
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{kind} entries must be finite")
    return arr


def as_matrix(a) -> np.ndarray:
    """Coerce `a` to a 2-d float64/complex128 array with finite entries."""
    return _coerce(a, 2, "matrix")


def as_vector(b) -> np.ndarray:
    """Coerce `b` to a 1-d float64/complex128 array with finite entries."""
    return _coerce(b, 1, "vector")


# Band in which the plain norm is trusted: its square lies in (1e-300, 1e300),
# so no partial sum overflowed, and squares lost to underflow moved it by at
# most ``size * 2**-1074``, negligible next to 1e-300.
_PLAIN_NORM_BAND = (1e-150, 1e150)
# No difference of two parts at most this large overflows.
_HALF_MAX = float(np.finfo(np.float64).max) / 2


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


def _largest_part(a) -> float:
    """The largest modulus of a real or imaginary part of `a`; `np.abs` of a complex entry can overflow."""
    parts = (a.real, a.imag) if np.iscomplexobj(a) else (a,)
    return max(float(np.max(np.abs(part), initial=0.0)) for part in parts)


def _within(x, x_norm: float, ref, ref_norm: float, tol: float) -> bool:
    """``||x|| <= tol * ||ref||``, on both divided by the largest part of `ref` if ``||ref||`` overflowed."""
    if ref_norm == np.inf:
        scale = _largest_part(ref)
        x_norm, ref_norm = fro_norm(x / scale), fro_norm(ref / scale)
    return x_norm <= tol * ref_norm


def _probe_scale(a, norm: float) -> float:
    """A power of two near ``1 / max|a|`` outside the plain-norm band, else 1.

    Inside the band no product of the probes with `a` or its factors can
    overflow or reach the subnormal range.  Outside it, probes times this
    scale keep ``a Z`` near unit size; the exponent is clamped to ±1000 so
    the probes themselves stay normal.
    """
    if _PLAIN_NORM_BAND[0] < norm < _PLAIN_NORM_BAND[1]:
        return 1.0
    exponent = math.frexp(_largest_part(a))[1]  # 0 for a zero `a`
    return math.ldexp(1.0, min(max(-exponent, -1000), 1000))


def _probes(n: int) -> np.ndarray:
    """The first n rows of the seed's probe block, drawn anew only for a larger n."""
    global _probe_block
    block = _probe_block  # one read, so a concurrent redraw cannot shorten it
    if block.shape[0] < n:
        rng = random.Random(_PROBE_SEED)
        block = np.array([rng.gauss(0.0, 1.0) for _ in range(n * _PROBES)]).reshape(n, _PROBES)
        _probe_block = block
    return block[:n]


def _guard(name: str, apply, a: np.ndarray, norm: float) -> None:
    """FactorizationError unless the factors reproduce `a` on `_PROBES` fixed probes.

    `apply(z)` multiplies the factors, right to left, into a real block `z`
    and never forms their product, so the check costs O(k n^2) for k probes.
    The test is ``||apply(Z) - a Z|| / sqrt(k) <= (KTOL / c) * ||a||`` on
    probes scaled by `_probe_scale`, written so that a NaN or inf residual
    fails.  `norm` is ``||a||``, which may have overflowed to inf.
    """
    scale = _probe_scale(a, norm)
    z = _probes(a.shape[1]) * scale
    residual = apply(z)
    residual -= a @ z
    err = fro_norm(residual) / math.sqrt(_PROBES)
    ref = norm * scale if norm < np.inf else fro_norm(a * scale)
    if not err <= KTOL / _PROBE_C * ref:
        raise FactorizationError(
            f"{name} probe residual {err / scale:.3e} exceeds {KTOL / _PROBE_C:.1e} * ||a||"
        )


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
    """SVD with the probe guard; thin factors if not ``full_matrices``.

    Raises FactorizationError if the backend fails to converge or the
    factors fail the guard.
    """
    arr = as_matrix(a)
    try:
        u, s, vh = np.linalg.svd(arr, full_matrices=full_matrices)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"SVD did not converge: {exc}") from exc
    _guard("SVD", lambda z: u[:, : s.size] @ (s[:, None] * (vh[: s.size] @ z)), arr, fro_norm(arr))
    return SvdResult(u=u, sigma=s, v=vh.conj().T)


def qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR ``a = q @ r`` of a validated matrix, with the probe guard."""
    q, r = np.linalg.qr(a)
    _guard("QR", lambda z: q @ (r @ z), a, fro_norm(a))
    return q, r


@dataclass(frozen=True)
class Hermitian:
    """A square matrix that passed the Hermitian gate (`hermitian`).

    `sym` is its symmetrized form, the matrix `eigh` and `cholesky` factor,
    and `norm` the Frobenius norm of the input, which may have overflowed
    to inf.
    """

    sym: np.ndarray
    norm: float


def hermitian(a) -> Hermitian:
    """The library's one Hermitian gate.

    NotHermitianError unless ``||a - a*|| <= HTOL * ||a||``, taken as
    ``a/2 - a*/2`` against ``||a/2||`` where a part of `a` is above half the
    float64 maximum.  The input is then symmetrized as ``a - (a - a*) / 2``,
    which cannot overflow, so that the factors of `sym` are exactly
    consistent.
    """
    arr = as_matrix(a)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError(f"eigh needs a square matrix, got {arr.shape}")
    norm = fro_norm(arr)
    # t - t* can overflow where a part of t is above half the float64
    # maximum; the difference of halves cannot, and the gate is scale-free
    halve = not _PLAIN_NORM_BAND[0] < norm < _PLAIN_NORM_BAND[1] and _largest_part(arr) > _HALF_MAX
    ref = arr * 0.5 if halve else arr
    sym = ref - ref.conj().T
    herm = fro_norm(sym)
    if not _within(sym, herm, ref, norm * 0.5 if halve else norm, HTOL):
        herm = 2.0 * herm if halve else herm
        raise NotHermitianError(f"t deviates from its adjoint by {herm:.3e} (norm {norm:.3e})")
    if not halve:
        sym *= 0.5
    np.subtract(arr, sym, out=sym)
    return Hermitian(sym=sym, norm=norm)


def eigh(a) -> EigResult:
    """Hermitian eigendecomposition with ascending eigenvalues.

    `a` is gated by `hermitian` unless it is already a `Hermitian`.  The
    probe guard checks the factors against the symmetrized matrix they
    are of.
    """
    h = a if isinstance(a, Hermitian) else hermitian(a)
    try:
        w, q = np.linalg.eigh(h.sym)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"eigh did not converge: {exc}") from exc
    # q* z is the conjugate of q^T z for the real probes z.  ||t|| stands
    # for ||sym||, from which the symmetrization moves it by at most HTOL / 2.
    _guard("eigendecomposition", lambda z: q @ (w[:, None] * (q.T @ z).conj()), h.sym, h.norm)
    return EigResult(q=q, eigenvalues=w)


def cholesky(h: Hermitian) -> np.ndarray:
    """Lower triangular `l` with ``h.sym = l l*``, with the probe guard.

    FactorizationError where the backend finds `sym` not positive definite
    or the factor fails the guard.
    """
    try:
        l = np.linalg.cholesky(h.sym)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"Cholesky factorization failed: {exc}") from exc
    # l* z is the conjugate of l^T z for the real probes z
    _guard("Cholesky", lambda z: l @ (l.T @ z).conj(), h.sym, h.norm)
    return l


def _tri_inv(l: np.ndarray) -> np.ndarray:
    n = l.shape[0]
    if n <= _TRI_BLOCK:
        return np.linalg.inv(l)
    k = n // 2
    x = np.zeros_like(l)
    x[:k, :k] = _tri_inv(l[:k, :k])
    x[k:, k:] = _tri_inv(l[k:, k:])
    x[k:, :k] = -(x[k:, k:] @ (l[k:, :k] @ x[:k, :k]))
    return x


def tri_inv(l: np.ndarray) -> np.ndarray:
    """The inverse `x` of a lower triangular `l`, with a probe check.

    A 2x2 block recursion: ``x11 = l11^{-1}``, ``x22 = l22^{-1}`` and
    ``x21 = -x22 (l21 x11)``, down to diagonal blocks of at most
    `_TRI_BLOCK`, which np.linalg.inv inverts; an `l` that small gets
    np.linalg.inv's result itself.  FactorizationError where a block is
    singular, or unless ``||l (x Z) - Z|| / sqrt(k) <= (KTOL / c) ||l|| ||x||``
    on the probes, the form of the right-residual bound of a stable
    inverse (Higham, Accuracy and Stability of Numerical Algorithms, §14.2).
    An inverse that overflowed holds inf or NaN; it is returned unchecked,
    and the caller refuses it by its norm.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            x = _tri_inv(l)
        except np.linalg.LinAlgError as exc:
            raise FactorizationError(f"triangular inverse failed: {exc}") from exc
        x_norm = fro_norm(x)
        if not x_norm < np.inf:
            return x
        z = _probes(l.shape[0])
        residual = l @ (x @ z)
        residual -= z
        err = fro_norm(residual) / math.sqrt(_PROBES)
    if not err <= KTOL / _PROBE_C * (fro_norm(l) * x_norm):
        raise FactorizationError(
            f"triangular inverse probe residual {err:.3e} exceeds {KTOL / _PROBE_C:.1e} * ||l|| ||x||"
        )
    return x
