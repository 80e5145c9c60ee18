"""Moore-Penrose pseudoinverse and the operator toolkit built on it.

Covers thresholded pseudoinversion, range/row-space projectors, the EP test
and canonical EP decomposition, positive square roots, principal-angle
diagnostics, the reverse-order-law predicate and invariant-subspace tests.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .config import ABS_FLOOR, COMMUTE_TOL, EP_TOL, LAT_TOL, WARN_RATIO
from .config import DEFAULT_TOL, ToleranceConfig
from .dense_core import SvdResult, as_matrix, eigh, fro_norm, svd
from .errors import (
    DimensionMismatchError,
    IllConditioningWarning,
    NarrowAngleWarning,
    NotEpError,
    NotPositiveError,
)

# A principal sine at most n eps (n the ambient dimension) is roundoff on an intersection.
_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class RankDecision:
    """Outcome of thresholding a singular-value spectrum.

    ``sigma_kept_min > threshold >= sigma_dropped_max``; empty sides default
    to +inf (nothing kept) and 0.0 (nothing dropped).
    """

    rank: int
    threshold: float
    sigma_kept_min: float
    sigma_dropped_max: float


def rank_decide(
    sigma, cfg: ToleranceConfig = DEFAULT_TOL, dim: int | None = None
) -> RankDecision:
    """Decide the numerical rank of a descending, nonnegative spectrum.

    The threshold is ``rtol * max(sigma)`` floored at ``ABS_FLOOR``; `dim`
    feeds the default rtol (``dim * eps``) and should be the larger matrix
    dimension when known.  Warns with IllConditioningWarning when the kept
    values span more than ``1 / WARN_RATIO``.
    """
    sig = np.asarray(sigma, dtype=np.float64)
    if sig.ndim != 1:
        raise DimensionMismatchError("sigma must be a 1-d array")
    if sig.size and (np.any(sig < 0) or np.any(np.diff(sig) > 0)):
        raise ValueError("sigma must be nonnegative and descending")
    smax = float(sig[0]) if sig.size else 0.0
    rtol = cfg.effective_rtol(dim if dim is not None else sig.size)
    threshold = max(rtol * smax, ABS_FLOOR)
    rank = int(np.count_nonzero(sig > threshold))
    kept_min = float(sig[rank - 1]) if rank else math.inf
    dropped_max = float(sig[rank]) if rank < sig.size else 0.0
    if rank and smax > 0 and kept_min / smax < WARN_RATIO:
        warnings.warn(
            IllConditioningWarning(
                f"kept singular values span ratio {kept_min / smax:.3e}, "
                f"below warn_ratio {WARN_RATIO:.1e}",
                value=kept_min / smax,
            ),
            stacklevel=2,
        )
    return RankDecision(
        rank=rank,
        threshold=threshold,
        sigma_kept_min=kept_min,
        sigma_dropped_max=dropped_max,
    )


def _kept_svd(a, cfg: ToleranceConfig) -> tuple[SvdResult, RankDecision]:
    """The guarded thin SVD of `a` and its one rank decision.

    Every pseudoinverse, projector, basis and EP test here reads its kept
    factors ``fact.u[:, :r]``, ``fact.sigma[:r]``, ``fact.v[:, :r]`` from
    this pair, so each operand is factored and thresholded once.
    """
    fact = svd(a, full_matrices=False)
    return fact, rank_decide(fact.sigma, cfg, dim=max(fact.u.shape[0], fact.v.shape[0]))


def pinv_with_rank(
    a, cfg: ToleranceConfig = DEFAULT_TOL
) -> tuple[np.ndarray, RankDecision]:
    """Pseudoinverse together with the rank decision that produced it."""
    fact, decision = _kept_svd(a, cfg)
    r = decision.rank
    return (fact.v[:, :r] / fact.sigma[:r]) @ fact.u[:, :r].conj().T, decision


def pinv(a, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD with thresholded inversion.

    Singular values at or below the rank threshold are treated as zero and
    the rest are inverted; on well-scaled inputs the result satisfies the
    four defining (Penrose) equations to roundoff.
    """
    return pinv_with_rank(a, cfg)[0]


def projector_range(a, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projector onto the column space, ``a @ pinv(a) = U_r U_r*``."""
    return range_basis(a, cfg).projector()


def projector_rangestar(a, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projector onto the row space, ``pinv(a) @ a = V_r V_r*``."""
    return rangestar_basis(a, cfg).projector()


def _ep_holds(fact: SvdResult, r: int) -> bool:
    """Whether the rank-`r` column and row spaces of the SVD `fact` agree.

    ``U_r U_r* - V_r V_r*`` is ``t pinv(t) - pinv(t) t``, a difference of
    projectors, so the gate ``<= EP_TOL`` holds at every scale of `t`.
    """
    u, v = fact.u[:, :r], fact.v[:, :r]
    return bool(fro_norm(u @ u.conj().T - v @ v.conj().T) <= EP_TOL)


def is_ep(t, cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Whether `t` commutes with its pseudoinverse (range equals row space).

    True for every Hermitian, normal or invertible matrix; false exactly
    when the kernel and the kernel of the adjoint differ.
    """
    arr = as_matrix(t)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError("the EP test needs a square matrix")
    fact, decision = _kept_svd(arr, cfg)
    return _ep_holds(fact, decision.rank)


@dataclass(frozen=True)
class EpDecomposition:
    """Canonical form ``t = u1 @ (a1 ⊕ 0) @ u1*`` of an EP matrix.

    The first `rank` columns of the unitary `u1` span the column space and
    the remaining columns span the kernel; `a1` is the invertible
    restriction of `t` to its column space.
    """

    u1: np.ndarray
    a1: np.ndarray
    rank: int

    def reconstruct(self) -> np.ndarray:
        u = self.u1[:, : self.rank]
        return u @ self.a1 @ u.conj().T


def ep_decompose(t, cfg: ToleranceConfig = DEFAULT_TOL) -> EpDecomposition:
    """Split an EP matrix into its invertible core and kernel block.

    The unitary is assembled from the SVD of `t`: kept left singular
    vectors first (column space), then the remaining ones, which span the
    kernel precisely because `t` is EP.  The EP test, `is_ep`'s, reads the
    same SVD; NotEpError where it fails.  `reconstruct()` is the rank-r
    part of `t` kept by the rank decision `pinv` makes, so it differs from
    `t` by the singular values that decision drops.
    """
    arr = as_matrix(t)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError("EP decomposition needs a square matrix")
    fact, decision = _kept_svd(arr, cfg)
    r = decision.rank
    if not _ep_holds(fact, r):
        raise NotEpError("matrix does not commute with its pseudoinverse")
    u1 = fact.u
    return EpDecomposition(u1=u1, a1=u1[:, :r].conj().T @ arr @ u1[:, :r], rank=r)


def sqrt_psd(t, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Unique positive semidefinite square root of a Hermitian PSD matrix.

    Eigenvalues in ``[-neg_tol * ||t||, 0)`` are clamped to zero (roundoff
    on genuinely PSD inputs); anything below raises NotPositiveError.
    """
    fact = eigh(t)
    w = fact.eigenvalues
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    lower = -cfg.neg_tol * scale
    if w.size and w[0] < lower:
        raise NotPositiveError(
            f"smallest eigenvalue {w[0]:.6e} is below -neg_tol * ||t|| = {lower:.6e}"
        )
    root = (fact.q * np.sqrt(np.maximum(w, 0.0))) @ fact.q.conj().T
    return (root + root.conj().T) / 2


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal basis of a subspace of an ambient space."""

    basis: np.ndarray
    ambient_dim: int

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T


def range_basis(a, cfg: ToleranceConfig = DEFAULT_TOL) -> SubspaceBasis:
    """Orthonormal basis of the column space of `a`."""
    fact, decision = _kept_svd(a, cfg)
    return SubspaceBasis(basis=fact.u[:, : decision.rank], ambient_dim=fact.u.shape[0])


def rangestar_basis(a, cfg: ToleranceConfig = DEFAULT_TOL) -> SubspaceBasis:
    """Orthonormal basis of the row space of `a` (kernel complement)."""
    fact, decision = _kept_svd(a, cfg)
    return SubspaceBasis(basis=fact.v[:, : decision.rank], ambient_dim=fact.v.shape[0])


def null_basis(a, cfg: ToleranceConfig = DEFAULT_TOL) -> SubspaceBasis:
    """Orthonormal basis of the kernel of `a`, the trailing ``V`` of its full SVD."""
    fact = svd(a)
    rank = rank_decide(fact.sigma, cfg, dim=max(fact.u.shape[0], fact.v.shape[0])).rank
    return SubspaceBasis(basis=fact.v[:, rank:], ambient_dim=fact.v.shape[0])


@dataclass(frozen=True)
class ReverseOrderReport:
    """Verdict and residuals for the reverse-order-law predicate.

    `rangestar_commutator` is ``||[pinv(a) a, b b*]||`` and
    `range_commutator` is ``||[b pinv(b), a* a]||``; both must vanish (to
    tolerance) for ``pinv(a @ b) == pinv(b) @ pinv(a)`` to hold.  They are
    ``inf`` when that value is past the float64 range.
    `ab_rank` reports the conditioning of the product itself and
    `principal_angle` its closed range: the minimal angle between
    ``N(a) ⊖ R(b)`` and ``R(b)``, or pi/2 when there is none.  Principal
    sines at most ``n eps`` count as the intersection.  A small angle
    means ``a @ b`` is close to losing rank; a NarrowAngleWarning fires
    below ``angle_warn``.
    """

    holds: bool
    rangestar_commutator: float
    range_commutator: float
    ab_rank: RankDecision
    principal_angle: float

    def __bool__(self) -> bool:
        return self.holds


def _gram_commutator(p: np.ndarray, m: np.ndarray) -> tuple[float, np.ndarray, float]:
    """``||[p, u u*]||`` for ``u = m / ||m||``, then `u` and ``||m||`` (1 if zero)."""
    norm = fro_norm(m) or 1.0
    unit = m / norm
    gram = unit @ unit.conj().T
    return fro_norm(p @ gram - gram @ p), unit, norm


def reverse_order_holds(a, b, cfg: ToleranceConfig = DEFAULT_TOL) -> ReverseOrderReport:
    """Test the conditions behind the reverse order law ``pinv(a b) = pinv(b) pinv(a)``.

    Each commutator is taken on its operand divided by its norm and gated
    against ``COMMUTE_TOL``, so the verdict does not depend on the scale of
    `a` or `b`.  The closed-range condition on the product is reported,
    not gated on: its conditioning through `ab_rank`, and its distance
    from failing through `principal_angle`.  That rank is decided on the
    product of the divided operands, so it is scale-free too; its
    threshold and singular values are reported at the scale of ``a @ b``.
    One SVD of each operand serves all three conditions.
    """
    arr_a, arr_b = as_matrix(a), as_matrix(b)
    if arr_a.shape[1] != arr_b.shape[0]:
        raise DimensionMismatchError("inner dimensions of a and b must agree")
    return _reverse_order(arr_a, arr_b, range_basis(arr_b, cfg).basis, cfg)


def _reverse_order(a, b, range_b, cfg: ToleranceConfig) -> ReverseOrderReport:
    """`reverse_order_holds` of validated operands, given an orthonormal basis `range_b` of R(b).

    One thin SVD of `a` gives its row space ``V_r``.  The sines of ``R(b)`` to
    ``N(a)`` are the singular values of ``V_r* R_b`` and ``max(r_b - r_a, 0)``
    zeros; ascending, the first ``min(n - r_a, r_b)`` are the principal sines.
    The first above ``n eps`` gives the angle: its arcsin below ``1/sqrt(2)``,
    else the arccos of the matching singular value of ``R_b - V_r V_r* R_b``.
    """
    rows_a = rangestar_basis(a, cfg).basis
    c1, unit_b, norm_b = _gram_commutator(rows_a @ rows_a.conj().T, b)
    c2, unit_ah, norm_a = _gram_commutator(range_b @ range_b.conj().T, a.conj().T)
    product = unit_ah.conj().T @ unit_b
    unit = rank_decide(np.linalg.svd(product, compute_uv=False), cfg, dim=max(product.shape))
    values = (unit.threshold, unit.sigma_kept_min, unit.sigma_dropped_max)
    n, shadow = a.shape[1], rows_a.conj().T @ range_b
    sines = np.linalg.svd(shadow, compute_uv=False)[::-1]
    sines = np.concatenate((np.zeros(range_b.shape[1] - sines.size), sines))[: n - rows_a.shape[1]]
    first = int(np.count_nonzero(sines <= n * _EPS))
    angle = math.pi / 2
    if first < sines.size:
        if sines[first] < math.sqrt(0.5):
            angle = math.asin(sines[first])
        else:
            cosines = np.linalg.svd(range_b - rows_a @ shadow, compute_uv=False)
            angle = math.acos(min(cosines[first], 1.0))
        if angle < cfg.angle_warn:
            message = f"principal angle {angle:.3e} rad below angle_warn {cfg.angle_warn:.1e}"
            message += "; the operator product is close to losing rank"
            warnings.warn(NarrowAngleWarning(message, value=angle), stacklevel=3)
    return ReverseOrderReport(
        holds=c1 <= COMMUTE_TOL and c2 <= COMMUTE_TOL,
        # float products overflow to inf, where ** would raise
        rangestar_commutator=c1 * norm_b * norm_b,
        range_commutator=c2 * norm_a * norm_a,
        ab_rank=RankDecision(unit.rank, *(v * norm_a * norm_b for v in values)),
        principal_angle=angle,
    )


def principal_angle_diag(a, b, cfg: ToleranceConfig = DEFAULT_TOL) -> float:
    """The `principal_angle` of ``reverse_order_holds(a, b, cfg)``."""
    return reverse_order_holds(a, b, cfg).principal_angle


def lat_invariant(subspace: SubspaceBasis, t) -> bool:
    """Whether `t` maps the subspace with basis `B` into itself: ``t B - B (B* t B) ≈ 0``."""
    arr = as_matrix(t)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError("invariance test needs a square matrix")
    if subspace.ambient_dim != arr.shape[0]:
        raise DimensionMismatchError(
            f"subspace lives in dimension {subspace.ambient_dim}, "
            f"matrix acts on dimension {arr.shape[0]}"
        )
    basis = subspace.basis
    tb = arr @ basis
    leak = fro_norm(tb - basis @ (basis.conj().T @ tb))
    return bool(leak <= LAT_TOL * fro_norm(arr))
