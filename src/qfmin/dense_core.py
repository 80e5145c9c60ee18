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
# Rows of the largest diagonal block, the leaf, of the block recursions of
# `cholesky_inverse` and `tri_inv`: np.linalg.cholesky and np.linalg.inv
# factor and invert a leaf, and above it the work is matrix products.  Leaves
# of 32, 48 and 64 rows timed alike on 2-vCPU OpenBLAS; 64 makes the fewest
# calls (README).
_LEAF = 64


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
        raise FactorizationError(f"{name} probe residual {err / scale:.3e} exceeds {KTOL / _PROBE_C:.1e} * ||a||")


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
    """A square matrix that passed the Hermitian gate (`hermitian`), or a Gram.

    `sym` is its symmetrized form, the matrix `eigh` and `cholesky` factor,
    and `norm` the Frobenius norm of the input, which may have overflowed
    to inf.  `gram_cholesky` builds one from ``a a*``, the Gram of the rows
    of `a`, which is Hermitian by construction and needs no gate.
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
    # ref - ref*, subtracted into a contiguous copy of the transpose: numpy
    # would read a transposed operand along strided rows.  A copy, never a
    # view: the transpose of a 1 by 1 `ref` is already contiguous
    sym = ref.T.copy()
    if np.iscomplexobj(sym):
        np.conjugate(sym, out=sym)
    np.subtract(ref, sym, out=sym)
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


def _pivot_bound(pivots: np.ndarray, norm: float = 0.0) -> tuple[float, float]:
    """``(d, ν)``: ``ν = (norm^2 + Σ |l_ii|^{-2})^{1/2}`` over some pivots ``l_ii``, and ``d = 1 / ν``.

    `d` is at most ``min |l_ii|``, and 0 for no pivots or a zero one.  As
    the diagonal of ``l^{-1}`` is ``1 / l_ii``, `d` over any of the pivots
    of `l` is at least ``1 / ||l^{-1}||_F``; passing the last `ν` as `norm`
    adds pivots to it.  math.hypot scales its arguments, so `ν` overflows
    only where a ``1 / |l_ii|`` does, and `d` is then 0.
    """
    norm = math.hypot(norm, *(1.0 / p if p else math.inf for p in np.abs(pivots).tolist()))
    return (1.0 / norm if norm else 0.0), norm


def _factor_inverse(a: np.ndarray, l: np.ndarray, x: np.ndarray, floor) -> None:
    """Fill the zeroed `l` and `x` with the Cholesky factor of `a` and its inverse.

    Only the lower triangle of `a` enters the result.  A leaf of at most
    `_LEAF` rows is factored by np.linalg.cholesky, offered to
    ``floor(l)``, which raises FactorizationError where it refuses, and
    inverted by `_tri_inv`; the leaves come in the order of their rows.  A
    larger `a` is halved: ``l11, x11`` of the leading block, the panel
    ``l21 = a21 x11*``, ``l22, x22`` of the Schur complement ``a22 - l21
    l21*``, and last ``x21 = -x22 (l21 x11)``, so a refused leaf leaves
    every off-diagonal block of `x` it would need unformed.
    """
    n = a.shape[0]
    if n <= _LEAF:
        l[...] = np.linalg.cholesky(a)
        floor(l)
        x[...] = _tri_inv(l)
        return
    k = n // 2
    _factor_inverse(a[:k, :k], l[:k, :k], x[:k, :k], floor)
    l21 = l[k:, :k]
    np.matmul(a[k:, :k], x[:k, :k].conj().T, out=l21)
    schur = l21 @ l21.conj().T
    np.subtract(a[k:, k:], schur, out=schur)
    _factor_inverse(schur, l[k:, k:], x[k:, k:], floor)
    _lower_left(l, x, k)


def cholesky_inverse(h: Hermitian, admits) -> tuple[np.ndarray, np.ndarray, float]:
    """``(l, x, s)``: ``h.sym = l l*`` for a lower triangular `l`, ``x = l^{-1}`` and ``s = 1 / ||x||_F``, where `admits` passes them.

    `_factor_inverse` halves `sym` down to leaves of at most `_LEAF` rows,
    which np.linalg.cholesky factors and `tri_inv`'s leaf inverse inverts;
    above a leaf the work is matrix products (Gustavson & Jonsson, IBM J.
    Res. Dev. 44(6), 2000).  The panel needs the inverse of the leading
    block, so `x` comes along the way.

    `admits` is the caller's certificate rule.  As each leaf is factored it
    is offered the `_pivot_bound` ``d = (Σ |l_ii|^{-2})^{-1/2}`` of the
    pivots factored so far, and last ``s <= σ_min(l)``.  ``d`` is at most
    ``min |l_ii|``, only falls as pivots join, and stays at least `s`, as
    ``x_ii = 1 / l_ii``.  So an `admits` that fails every bound below one
    it fails, as a `_certifies` rule on the bound or its square does,
    refuses no `l` whose `s` it would pass; and a refused leaf stops the
    recursion before it forms inverse blocks that nothing would use.

    Backward error: LAPACK's factor satisfies ``l l* = sym + E`` with ``|E|
    <= γ_{n+1} |l| |l*|`` (Higham, Accuracy and Stability of Numerical
    Algorithms, Theorem 10.3), γ_k being about ``k eps``.  As ``||l||_F^2 =
    tr(l l*)`` and ``tr(sym) <= √n ||sym||_F``, ``||E||_F <= γ_{n+1} √n
    ||sym||_F`` to first order.  That holds for a single leaf.  Above one
    the panels multiply by computed inverses instead of solving, and the
    bound of block LU with explicit inverses of a definite matrix grows
    with ``κ_2(sym)^{1/2} = κ_2(l)`` (ibid., chapter 13; ``x21`` is Du Croz
    & Higham's method, chapter 14): ``||E||_F <= c n eps κ_2(l) ||sym||_F``
    with a modest `c`.  With ``c = 1`` it held by a factor of more than 100
    in every case measured (README), up to n = 1000 and κ_2(l) = 1e12.
    The probe guard of ``l l*`` against `sym`, relative to `norm`, and
    `_checked_inverse`'s right-residual probe check of `x` measure the
    computed pair.  The guard bounds `l` against `sym` only: ``l^{-1}``
    carries the conditioning of `sym`, which `admits` has to cover.

    Every refusal raises FactorizationError: a leaf that np.linalg.cholesky
    finds not positive definite, a pivot bound or `s` that `admits`
    refuses, an `l` past the guard, and an `x` past the check, one with inf
    or NaN entries included.
    """
    sym = h.sym
    l, x = np.zeros_like(sym), np.zeros_like(sym)
    norm = 0.0  # ||diag(l)^{-1}||_F over the leaves factored so far

    def floor(leaf: np.ndarray) -> None:
        nonlocal norm
        bound, norm = _pivot_bound(np.diagonal(leaf), norm)
        if not admits(bound):
            raise FactorizationError("Cholesky pivot bound refused")

    # an overflowed inverse spreads inf and NaN through the products; the
    # guard or _checked_inverse refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            _factor_inverse(sym, l, x, floor)
        except np.linalg.LinAlgError as exc:
            raise FactorizationError(f"Cholesky factorization failed: {exc}") from exc
        # l* z is the conjugate of l^T z for the real probes z
        _guard("Cholesky", lambda z: l @ (l.T @ z).conj(), sym, h.norm)
    s = 1.0 / fro_norm(_checked_inverse(l, x))
    if not admits(s):
        raise FactorizationError(f"1 / ||l^-1||_F = {s:.3e} refused")
    return l, x, s


def gram_cholesky(a: np.ndarray, admits) -> tuple[np.ndarray, np.ndarray, float]:
    """``(l, x, s)`` of `cholesky_inverse` for the Gram ``a a* = l l*`` of the rows of a validated `a`.

    Products and a block Cholesky recursion, all BLAS-3; `l*` is the `R` of
    the QR ``a* = Q R``, without `Q`.  The Gram is formed from the rows of
    `a` with one conjugated copy.  Outside the plain-norm band it is formed
    of `a` times the power of two of `_probe_scale`, which is exact and
    keeps ``||a||^2`` from overflowing or underflowing; `l` and `s` are
    then divided by it, `s` exactly, and `x` multiplied by it, and `admits`
    is offered the pivot bounds and `s` of the unscaled `l`.
    FactorizationError where `cholesky_inverse` would refuse the Gram, and
    where `l` or `x` leaves the float64 range on the way back.  The error
    of forming the Gram is not the guard's: the caller's certificate
    measures it through ``l^{-1} a``, which it forms anyway.
    """
    scale = _probe_scale(a, fro_norm(a))
    if scale != 1.0:
        a = a * scale
    gram = a @ a.conj().T
    h = Hermitian(sym=gram, norm=fro_norm(gram))
    if scale == 1.0:
        return cholesky_inverse(h, admits)
    l, x, s = cholesky_inverse(h, lambda d: admits(d / scale))
    with np.errstate(over="ignore"):
        l *= 1.0 / scale
        x *= scale
    if not (np.isfinite(l).all() and np.isfinite(x).all()):
        raise FactorizationError(
            "Cholesky factor of the Gram overflowed, or its inverse did: a is outside the float64 range"
        )
    return l, x, s / scale


def _lower_left(l: np.ndarray, x: np.ndarray, k: int) -> None:
    """Set ``x21 = -x22 (l21 x11)``, the lower left block of ``x = l^{-1}`` split at `k`, from `x`'s diagonal blocks."""
    np.matmul(x[k:, k:], l[k:, :k] @ x[:k, :k], out=x[k:, :k])
    np.negative(x[k:, :k], out=x[k:, :k])


def _tri_inv(l: np.ndarray) -> np.ndarray:
    n = l.shape[0]
    if n <= _LEAF:
        return np.linalg.inv(l)
    k = n // 2
    x = np.zeros_like(l)
    x[:k, :k] = _tri_inv(l[:k, :k])
    x[k:, k:] = _tri_inv(l[k:, k:])
    _lower_left(l, x, k)
    return x


def _checked_inverse(l: np.ndarray, x: np.ndarray) -> np.ndarray:
    """`x`, unless its norm is not finite or ``||l (x Z) - Z|| / sqrt(k) > (KTOL / c) ||l|| ||x||`` on the probes.

    The form of the right-residual bound of a stable inverse (Higham,
    Accuracy and Stability of Numerical Algorithms, §14.2).
    FactorizationError where it fails.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        x_norm = fro_norm(x)
        if not x_norm < np.inf:
            raise FactorizationError(f"triangular inverse overflowed: ||x|| = {x_norm}")
        z = _probes(l.shape[0])
        residual = l @ (x @ z)
        residual -= z
        err = fro_norm(residual) / math.sqrt(_PROBES)
    if not err <= KTOL / _PROBE_C * (fro_norm(l) * x_norm):
        raise FactorizationError(
            f"triangular inverse probe residual {err:.3e} exceeds {KTOL / _PROBE_C:.1e} * ||l|| ||x||"
        )
    return x


def tri_inv(l: np.ndarray) -> np.ndarray:
    """The inverse `x` of a lower triangular `l`, with a probe check.

    A 2x2 block recursion: ``x11 = l11^{-1}``, ``x22 = l22^{-1}`` and
    ``x21 = -x22 (l21 x11)``, down to leaves of at most `_LEAF` rows, which
    np.linalg.inv inverts; an `l` that small gets np.linalg.inv's result
    itself.  FactorizationError where a block is singular, or where
    `_checked_inverse` fails, as an inverse that overflowed does.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            x = _tri_inv(l)
        except np.linalg.LinAlgError as exc:
            raise FactorizationError(f"triangular inverse failed: {exc}") from exc
    return _checked_inverse(l, x)
