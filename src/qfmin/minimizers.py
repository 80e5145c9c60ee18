"""Constrained minimizers for quadratic forms ``<x, T x>`` under ``A x = b``.

One kernel computes ``x = W pinv(A W) b`` for a factor with
``W W* = T^+``: ``W = L^{-*}`` from a Cholesky factorization ``T = L L*``
where it certifies T positive definite, otherwise ``W = Q_r Λ_r^{-1/2}`` from
one eigendecomposition of T (only its range for a singular semidefinite T,
which minimizes over the orthogonal complement of the kernel).  Any such W
gives the same x, as ``pinv(A W U) = U* pinv(A W)`` for unitary U.  The R of
``(A W)* = Q R`` comes first from the Cholesky factor of the Gram
``(A W) (A W)*``, with no Q: where R, and the defect ``||I - V* V||`` of
``V = (A W)* R^{-1}``, certify full row rank, ``pinv(A W) = V G`` with V
formed once and ``G`` one Schulz step from ``R^{-*}``; otherwise a
Householder QR and an SVD of its small R.  Those factors depend on
``(T, A)`` only, so the last operator's are kept, with those of the last
two earlier operators that served a hit, and a further ``b`` needs no
factorization, only O(n^2 + nm) work to recognise the operator and apply
them.  The square-root route ``T^{-1/2} pinv(A T^{-1/2}) b`` stays
literal and uncached as an independent reference, a Lat-invariance
shortcut collapses the solution to ``pinv(A) b``, and ``min_norm_ls`` is
the unconstrained baseline.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

import numpy as np

from .config import (
    ABS_FLOOR,
    CERTIFICATE_MARGIN,
    DEFAULT_TOL,
    FEAS_TOL,
    WARN_RATIO,
    ToleranceConfig,
)
from .dense_core import (
    EigResult,
    Hermitian,
    as_matrix,
    as_vector,
    cholesky_inverse,
    eigh,
    fro_norm,
    gram_cholesky,
    hermitian,
    qr,
    svd,
    tri_inv,
)
from .errors import (
    Diagnostic,
    DimensionMismatchError,
    FactorizationError,
    InfeasibleError,
    InfeasibleOnComplementError,
    NotPositiveDefiniteError,
    NotPositiveError,
    NotPsdError,
    NotSingularError,
)
from .pinv_ops import (
    _kept_svd,
    ep_decompose,  # noqa: F401  kept bound: perfbench/tracing.py wraps it
    pinv,
    pinv_with_rank,  # noqa: F401  kept bound: perfbench/tracing.py wraps it
    projector_rangestar,  # noqa: F401  kept bound: perfbench/tracing.py wraps it
    range_basis,
    rangestar_basis,  # noqa: F401  kept bound: perfbench/tracing.py wraps it
    rank_decide,
    lat_invariant,
    sqrt_psd,  # noqa: F401  kept bound: perfbench/tracing.py wraps it
    SubspaceBasis,
)


class Method(enum.Enum):
    """Solver routes; AUTO is accepted by `solve` only."""

    AUTO = "auto"
    POSDEF_DIAG = "posdef-diag"
    POSDEF = "posdef"
    COR1_SHORTCUT = "cor1-shortcut"
    PSD_COMPLEMENT = "psd-complement"


class SpectrumClass(enum.Enum):
    POSITIVE_DEFINITE = "positive-definite"
    PSD_SINGULAR = "psd-singular"
    INDEFINITE = "indefinite"


def _system(a, b) -> tuple[np.ndarray, np.ndarray]:
    """`a` and `b` coerced, DimensionMismatchError unless `b` has one entry per row of `a`."""
    arr, vec = as_matrix(a), as_vector(b)
    if vec.shape[0] != arr.shape[0]:
        raise DimensionMismatchError(f"b has length {vec.shape[0]} but a has {arr.shape[0]} rows")
    return arr, vec


@dataclass(frozen=True, eq=False)
class QpProblem:
    """A quadratic form `t`, constraint matrix `a` and right-hand side `b`.

    Shapes and finite entries are checked here; whether `t` is Hermitian
    is decided by the route, in the gate `hermitian` that runs before `t`
    is factored.
    `a` may be rectangular.
    """

    t: np.ndarray
    a: np.ndarray
    b: np.ndarray
    tol: ToleranceConfig = DEFAULT_TOL

    def __post_init__(self):
        t = as_matrix(self.t)
        a, b = _system(self.a, self.b)
        if t.shape[0] != t.shape[1]:
            raise DimensionMismatchError(f"t must be square, got {t.shape}")
        if a.shape[1] != t.shape[0]:
            raise DimensionMismatchError(
                f"a has {a.shape[1]} columns but t acts on dimension {t.shape[0]}"
            )
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return self.t.shape[0]


@dataclass(frozen=True, eq=False)
class MinimizationResult:
    """Minimizer, attained value and bookkeeping for one solve."""

    xhat: np.ndarray
    min_value: float
    feasibility_residual: float
    method: Method
    diagnostics: tuple[Diagnostic, ...] = field(default_factory=tuple)


def quad_value(t, x) -> float:
    """Real quadratic-form value ``<x, t x>`` (Hermitian t); inf when it is above the float64 range."""
    tm = as_matrix(t)
    xv = as_vector(x)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.real(np.vdot(xv, tm @ xv)))


def min_norm_ls(a, b, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Minimum-norm least-squares solution ``pinv(a) @ b``.

    Solves the normal equations ``a* a u = a* b`` even when ``a x = b`` is
    inconsistent, and returns the unique solution of smallest norm.
    """
    arr, vec = _system(a, b)
    return pinv(arr, cfg) @ vec


def feasible(a, b, cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Whether `b` lies in the range of `a`, by the kernel's `_in_range` test."""
    arr, vec = _system(a, b)
    return _in_range(range_basis(arr, cfg).basis, vec)


def classify_spectrum(eigenvalues, cfg: ToleranceConfig = DEFAULT_TOL) -> SpectrumClass:
    """Gate a Hermitian spectrum into definite / singular PSD / indefinite.

    Eigenvalues below ``-neg_tol * scale`` mean indefinite; values in
    ``(-neg_tol * scale, pd_tol]`` count as zero and mark the singular case.
    """
    w = np.asarray(eigenvalues, dtype=np.float64)
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    if w.size and float(w.min()) < -cfg.neg_tol * scale:
        return SpectrumClass.INDEFINITE
    pd_gate = cfg.pd_tol if cfg.pd_tol is not None else cfg.effective_rtol(w.size) * max(
        float(w.max()) if w.size else 0.0, 0.0
    )
    if w.size and float(w.min()) > pd_gate:
        return SpectrumClass.POSITIVE_DEFINITE
    return SpectrumClass.PSD_SINGULAR


def _constraint_note(p: QpProblem, rank: int) -> Diagnostic:
    """Rank of the rescaled constraint ``a W``; full rank of a square `a` is trivial."""
    if p.a.shape[0] == p.a.shape[1] == rank:
        return Diagnostic(
            code="trivial_constraint",
            message=(
                "constraint matrix is invertible; x is the unique solution of a x = b"
            ),
        )
    return Diagnostic(
        code="reduced_rank",
        message="numerical rank of the rescaled constraint matrix",
        value=float(rank),
    )


def _require_pd(cls: SpectrumClass) -> None:
    if cls is not SpectrumClass.POSITIVE_DEFINITE:
        raise NotPositiveDefiniteError(
            f"spectrum classified as {cls.value}; the definite routes need "
            "strictly positive eigenvalues"
        )


def _require_singular_psd(cls: SpectrumClass) -> None:
    if cls is SpectrumClass.INDEFINITE:
        raise NotPsdError("t has negative eigenvalues beyond tolerance")
    if cls is SpectrumClass.POSITIVE_DEFINITE:
        raise NotSingularError(
            "t is invertible; use the positive definite routes instead"
        )


def _require_positive(cls: SpectrumClass) -> None:
    if cls is SpectrumClass.INDEFINITE:
        raise NotPositiveError("t has negative eigenvalues; no minimizer exists")


@dataclass(eq=False)
class _Factors:
    """Everything a solve takes from ``(t, a, tol)`` alone.

    `t` and `a` are private copies: with `tol` they are the memo's key.  `t`
    is copied from the array that `hermitian` gated, so a hit needs no gate.
    `root` is ``W = L^{-*}`` where `_cholesky_root` certified `t` definite,
    else ``W = q Λ^{-1/2}`` from the kept eigenpairs of `t` (all of them for
    a definite `t`, the range for a singular one), and `u`, `v`, `g` are the
    `_row_factors` of ``a W``: `v` is ``(a W)* R^{-1}``, `R` the Cholesky
    factor of its Gram, where the rank of ``a W`` is certified, else `Q` of
    its QR or its kept columns.
    `spectra` lists the ``(sigma, dim)`` of every rank decision the miss
    made, in order, replayed on a hit so that it warns as the miss did.  A
    decision that `_certified_inverse` showed to keep every value without a
    warning is not made, so not listed.
    `reused` records that the entry has served a hit: the memo retains only
    such an entry.
    """

    t: np.ndarray
    a: np.ndarray
    tol: ToleranceConfig
    cls: SpectrumClass
    root: np.ndarray
    u: np.ndarray | None
    v: np.ndarray
    g: np.ndarray
    notes: tuple[Diagnostic, ...]
    spectra: tuple[tuple[np.ndarray, int], ...]
    reused: bool = False


# The factors of the last operator solved, and `_retained`: those of the
# last `_RETAINED` earlier operators that served a hit, most recently
# retained first.  An operator never reused is never retained, so traffic
# with no repeats holds one entry.  The count is set by memory: an entry at
# n = 400, m = 200 holds about 4 MB (the copies of t and a, W and the row
# factors), 8% of the shared-operator workload's peak RSS, whose bound is
# 10% (README).  Each slot is replaced by a single assignment, so
# concurrent callers can at worst both miss, or drop an entry the other
# retained.
_RETAINED = 2
_memo: _Factors | None = None
_retained: tuple[_Factors, ...] = ()


def _same(kept: np.ndarray, given: np.ndarray) -> bool:
    # the first row rejects another operator of the same shape in O(n)
    return (
        kept.shape == given.shape
        and kept.dtype == given.dtype
        and np.array_equal(kept[:1], given[:1])
        and np.array_equal(kept, given)
    )


def _factors(p: QpProblem, gate) -> _Factors:
    """The factor stage of `p`, reused while ``(t, a, tol)`` is unchanged.

    `gate` raises the route's error for a spectrum class it does not solve;
    it runs right after the class is known, on a hit as on a miss.  A hit
    may come from any entry, and moves none.  A miss releases the last
    operator's factors first: where they served a hit they go to the front
    of `_retained`, which drops its oldest entry past `_RETAINED`.  The new
    factors are stored only once they are complete.
    """
    global _memo, _retained
    for entry in (_memo, *_retained):
        if entry is not None and entry.tol == p.tol and _same(entry.t, p.t) and _same(entry.a, p.a):
            gate(entry.cls)
            for sigma, dim in entry.spectra:
                rank_decide(sigma, p.tol, dim=dim)
            entry.reused = True
            return entry
    entry, _memo = _memo, None
    if entry is not None and entry.reused:
        _retained = (entry, *_retained)[:_RETAINED]
    # Drop the last reference first, so that factors not retained are
    # freed before the new ones are made and peak memory holds at most
    # the retained entries besides the miss.
    entry = None
    _memo = _factorize(p, gate)
    return _memo


def _range_eigenpairs(eig: EigResult, cls: SpectrumClass, decide):
    """The eigenpairs ``(Λ_r, Q_r)`` that ``W = Q_r Λ_r^{-1/2}`` is built from.

    All of them for a definite `t`; for a singular one only ``λ`` above the
    rank threshold that ``decide(sigma, dim)`` sets on ``|λ|`` (the singular
    values of `t`) with ``dim = n``, so eigenvalues within the negative
    tolerance count as kernel.  `qfmin check` keeps the same range.
    """
    w, q = eig.eigenvalues, eig.q
    if cls is not SpectrumClass.PSD_SINGULAR:
        return w, q
    keep = w > decide(np.sort(np.abs(w))[::-1], w.size).threshold
    return w[keep], q[:, keep]


def _inverse_root(eig: EigResult, cls: SpectrumClass, decide) -> tuple[np.ndarray, np.ndarray]:
    """``Q_r Λ_r^{-1/2} Q_r*`` from the `_range_eigenpairs` of `eig`, and its range ``Q_r``.

    ``T^{-1/2}`` for a definite `t` (`decide` is then not called), the
    pseudoinverse of the positive square root for a singular one.
    """
    w, q = _range_eigenpairs(eig, cls, decide)
    return (q / np.sqrt(w)) @ q.conj().T, q


def _certifies(bound: float, *gates: float) -> bool:
    """The one certificate rule: whether ``bound > CERTIFICATE_MARGIN * max(gates, ABS_FLOOR)``.

    Every certificate decides here, so a refusal here runs the uncertified path everywhere.
    """
    return bound > CERTIFICATE_MARGIN * max(*gates, ABS_FLOOR)


def _certified_inverse(x: np.ndarray, ratio: float):
    """``(v, g, s)`` with ``pinv(x) = v g`` and ``s <= σ_min(x)`` where they certify full row rank, else None.

    `R` is the factor of the Gram ``x x* = R* R``, and `gram_cholesky`
    gives ``R*``, ``R^{-*}`` and ``s_R`` where the rule passes them; its
    FactorizationError certifies nothing.  ``v* = R^{-*} x`` is formed by
    one product.  Were `R` exact, `v` would have orthonormal columns; the computed one
    carries the error of the Gram, ``F = I - v* v`` of order ``eps
    κ(x)^2``, and ``x x* = R* (I - F) R``.  With ``f = ||F||_F`` and ``s_R
    = 1 / ||R^{-*}||_F <= σ_min(R)``:

    - ``σ_min(x)^2 >= σ_min(R)^2 (1 - f)``, so ``s = s_R √(1 - f)``.
      ``σ_max(x) <= ||x||_F``, so where `s` `_certifies` against ``ratio
      ||x||_F``, with ``ratio = max(WARN_RATIO, rtol)``, every singular
      value of `x` clears a rank threshold ``rtol σ_max`` and the warning
      ratio; the margin also covers the ``O(m eps σ_max)`` by which
      computed singular values differ.
    - ``g = (I + F) R^{-*}`` is one step of Schulz's iteration for a right
      inverse (Ben-Israel & Cohen, SIAM J. Numer. Anal. 3, 1966): ``v g =
      P (2 I - x P)`` for ``P = v R^{-*}``, and ``x v g = R* (I - F) (I +
      F) R^{-*} = I - R* F^2 R^{-*}``.  So ``||x v g b - b|| <= κ_F f^2
      ||b||`` with ``κ_F = ||R||_F / s_R``, and the range of ``v g`` stays
      that of ``x*``.  The certified path admits every `b`, so that
      relative residual has to pass the feasibility test that would
      otherwise judge `b`: ``FEAS_TOL`` `_certifies` against ``κ_F f^2``.
      The margin covers the rounding of applying `v` and `g` to `b`, of
      order ``eps κ_F``: about ``2e-11`` at the rank certificate's edge
      ``κ_F < 1 / (CERTIFICATE_MARGIN WARN_RATIO) = 1e5``, a 450th of
      ``FEAS_TOL``.

    `f` is tested first, so ``f < 1`` wherever `s` is formed.
    """
    gate = ratio * fro_norm(x)
    try:
        l, rinv, s = gram_cholesky(x, lambda bound: _certifies(bound, gate))
    except FactorizationError:
        return None
    # v*, which needs no conjugated copy of x; v is its conjugate's transpose
    vh = rinv @ x
    # F and g are formed in place: three m by m temporaries fewer
    step = vh @ vh.conj().T
    np.negative(step, out=step)
    step[np.diag_indices_from(step)] += 1.0
    f = fro_norm(step)
    if not _certifies(FEAS_TOL, fro_norm(l) / s * f * f):
        return None
    s *= (1.0 - f) ** 0.5
    if not _certifies(s, gate):
        return None
    g = step @ rinv
    g += rinv
    if np.iscomplexobj(vh):
        np.conjugate(vh, out=vh)
    return vh.T, g, s


def _row_factors(x: np.ndarray, decide, cfg: ToleranceConfig | None = None):
    """``(rank, u, v, g, s)`` with ``pinv(x) = v @ g``; `b` is in range iff `u` admits it.

    With `cfg`, the tolerances `decide` applies, `_certified_inverse` runs
    first.  Where it shows that `decide` would keep all m values and not
    warn, the decision is neither made nor passed to `decide`: ``u = None``
    (every `b` is in range) and `v`, `g` and `s` are its own.

    Otherwise a guarded QR ``x* = Q R`` and the singular values of its `R`
    (those of `x`) make the one rank decision; `s` is the exact smallest
    kept value.  Full row rank gives ``u = None``, ``v = Q`` and ``g =
    R^{-*}``, inverted from this `R`, not the Gram's, whose rounding and
    diagonal signs differ; otherwise the guarded SVD ``R = U_R Σ V_R*``
    gives ``u = V_R``, ``v = Q U_R``, ``g = Σ^{-1} u*``.  `g` is None
    without `cfg`.
    """
    m, dim = x.shape[0], max(x.shape)
    if cfg is not None:
        certified = _certified_inverse(x, max(WARN_RATIO, cfg.effective_rtol(dim)))
        if certified is not None:
            return m, None, *certified
    q, r = qr(x.conj().T)
    decision = decide(np.linalg.svd(r, compute_uv=False), dim)
    k = decision.rank
    if k == m:
        g = tri_inv(r.conj().T) if cfg is not None else None
        return k, None, q, g, decision.sigma_kept_min
    fact = svd(r, full_matrices=False)
    u = fact.v[:, :k]
    g = (u / fact.sigma[:k]).conj().T if cfg is not None else None
    return k, u, q @ fact.u[:, :k], g, decision.sigma_kept_min


def _times_root(a: np.ndarray, root: np.ndarray) -> np.ndarray:
    """``a W``, FactorizationError where it overflowed."""
    with np.errstate(over="ignore", invalid="ignore"):
        aw = a @ root
    if not np.isfinite(aw).all():
        raise FactorizationError("a W overflowed: the constraint rows are too large for the factor of t")
    return aw


def _cholesky_root(h: Hermitian, cfg: ToleranceConfig) -> np.ndarray | None:
    """``W = L^{-*}`` from ``t = L L*`` where that certifies `t` positive definite, else None.

    `classify_spectrum` calls `t` definite when its least eigenvalue clears
    ``pd_tol``, or else ``rtol_eff(n) λ_max <= rtol_eff(n) ||t||_F``, and
    `eigh` finds each eigenvalue to about ``n eps ||t||``.  With
    ``s = 1 / ||L^{-1}||_F <= σ_min(L)``, ``λ_min(t) = σ_min(L)^2 >= s^2``.
    So where ``s^2`` `_certifies` against that gate and ``n eps ||t||_F``,
    `eigh` would call `t` definite too; the margin also covers the rounding
    of `L` and of its inverse.  The rule is `cholesky_inverse`'s `admits`.
    None, and the caller takes `eigh`, for a non-positive diagonal, or where
    the factorization raises FactorizationError.
    """
    diag = np.real(np.diagonal(h.sym))
    if not (diag.size and diag.min() > 0):
        return None
    n = diag.size
    pd_gate = cfg.pd_tol if cfg.pd_tol is not None else cfg.effective_rtol(n) * h.norm
    # n eps ||t||, the default rank rule's, bounds the rounding of eigh
    gates = (pd_gate, DEFAULT_TOL.effective_rtol(n) * h.norm)
    try:
        x = cholesky_inverse(h, lambda bound: _certifies(bound * bound, *gates))[1]
    except FactorizationError:
        return None
    return x.conj().T


def _factorize(p: QpProblem, gate) -> _Factors:
    """One Hermitian gate of `t`, its factor `W`, and the `_row_factors` of ``a W``.

    `W` is ``L^{-*}`` where `_cholesky_root` certifies `t` definite, and
    otherwise comes from one guarded `eigh` of the gated `t`.  For a
    singular `t` only the range is kept (`_range_eigenpairs`), and the
    conditioning of that reduction is noted; its factorization of `a` is
    skipped when the factors in hand certify that it would note and warn
    nothing (`_conditioning_certified`).
    """
    cfg = p.tol
    h = hermitian(p.t)
    root = _cholesky_root(h, cfg)
    eig = eigh(h) if root is None else None
    del h  # the symmetrized t is not needed past the factorizations
    cls = SpectrumClass.POSITIVE_DEFINITE if eig is None else classify_spectrum(eig.eigenvalues, cfg)
    gate(cls)
    spectra = []

    def decide(sigma, dim):
        spectra.append((sigma, dim))
        return rank_decide(sigma, cfg, dim=dim)

    w = q = None
    if eig is not None:
        w, q = _range_eigenpairs(eig, cls, decide)
        root = q / np.sqrt(w)
    del eig  # all its eigenvectors, where only the kept ones are needed
    aw = _times_root(p.a, root)
    rank, u, v, g, s = _row_factors(aw, decide, cfg)
    del aw  # freed before the rest of the miss allocates
    notes = [_constraint_note(p, rank)]
    if cls is SpectrumClass.PSD_SINGULAR and not _conditioning_certified(p, rank, s, w):
        notes.extend(_complement_conditioning(p, q, decide))
    del q  # freed before the copies below
    return _Factors(
        # copied last, once the factorizations have freed their workspace,
        # so that the copy does not raise the peak memory of a miss
        t=p.t.copy(),
        a=p.a.copy(),
        tol=cfg,
        cls=cls,
        root=root,
        u=u,
        v=v,
        g=g,
        notes=tuple(notes),
        spectra=tuple(spectra),
    )


def _in_range(u: np.ndarray, b: np.ndarray) -> bool:
    """Whether `b` lies in ``range(u)`` for orthonormal `u`.

    The test is ``||b - u u* b|| <= FEAS_TOL * ||b||``, so it is scale-free
    and ``b = 0`` passes.
    """
    return fro_norm(b - u @ (u.conj().T @ b)) <= FEAS_TOL * fro_norm(b)


def _require_feasible(u: np.ndarray | None, b: np.ndarray, cls: SpectrumClass) -> None:
    """The route's InfeasibleError unless `u` is None (full row rank) or `_in_range` admits `b`."""
    if u is None or _in_range(u, b):
        return
    if cls is SpectrumClass.PSD_SINGULAR:
        raise InfeasibleOnComplementError("no point of the kernel complement satisfies a x = b")
    raise InfeasibleError("b is not in the range of a; the constraint set is empty")


def _result(p: QpProblem, xhat: np.ndarray, min_value: float, method: Method, notes) -> MinimizationResult:
    """The result of a route, with the residual ``||a xhat - b||``; FactorizationError for a non-finite `xhat`.

    A `min_value` that overflowed to inf next to a finite `xhat` is kept,
    and a `min_value_overflow` diagnostic says so.
    """
    if not np.isfinite(xhat).all():
        raise FactorizationError(
            "x is not finite: the minimizer is outside the float64 range or its factors overflowed"
        )
    notes = tuple(notes)
    if np.isinf(min_value):
        message = "the minimum is above the float64 range; x is finite"
        notes += (Diagnostic("min_value_overflow", message),)
    return MinimizationResult(xhat, min_value, fro_norm(p.a @ xhat - p.b), method, notes)


def _apply(p: QpProblem, f: _Factors, method: Method) -> MinimizationResult:
    """``x = W pinv(a W) b`` and the minimum ``||pinv(a W) b||^2`` from `f`."""
    _require_feasible(f.u, p.b, f.cls)
    y = f.v @ (f.g @ p.b)
    return _result(p, f.root @ y, float(np.real(np.vdot(y, y))), method, f.notes)


def minimize_posdef_diag(p: QpProblem) -> MinimizationResult:
    """Factor-kernel route for positive definite `t`.

    ``x = W pinv(a W) b`` for ``W W* = t^{-1}``, attaining ``||pinv(a W) b||^2``:
    ``W = L^{-*}`` where `_cholesky_root` certifies `t` definite, otherwise
    ``q Λ^{-1/2}`` from one `eigh` of ``t = q Λ q*``.
    """
    return _apply(p, _factors(p, _require_pd), Method.POSDEF_DIAG)


def minimize_posdef(p: QpProblem) -> MinimizationResult:
    """Square-root route for positive definite `t`.

    With ``t^{-1/2} = q Λ^{-1/2} q*`` from one guarded `eigh`, the minimizer
    is ``t^{-1/2} pinv(a t^{-1/2}) b`` and the minimum is
    ``||pinv(a t^{-1/2}) b||^2``.  One guarded SVD of ``a t^{-1/2}`` makes
    the route's one rank decision, and its kept ``U_r`` the feasibility
    test.  Built literally as the independent reference for the
    factor-once kernel, and never from the memo of factors.
    """
    cfg = p.tol
    eig = eigh(p.t)
    cls = classify_spectrum(eig.eigenvalues, cfg)
    _require_pd(cls)
    root_inv, _ = _inverse_root(eig, cls, None)
    fact, decision = _kept_svd(_times_root(p.a, root_inv), cfg)
    r = decision.rank
    u = fact.u[:, :r]
    _require_feasible(u, p.b, cls)
    # applied factor by factor: a formed pinv would spread the roundoff of
    # its 1/sigma_min entries over every direction of y, not only along v_r
    y = fact.v[:, :r] @ ((u.conj().T @ p.b) / fact.sigma[:r])
    return _result(p, root_inv @ y, float(np.real(np.vdot(y, y))), Method.POSDEF, [_constraint_note(p, r)])


def _cor1_xhat(p: QpProblem) -> np.ndarray | None:
    """``pinv(a) b`` for a square `a` with both ranges invariant under `t`, else None.

    Both bases, the feasibility test (InfeasibleError when it fails) and
    ``pinv(a) b`` come from `_row_factors`; an invertible `a` passes both.
    """
    if p.a.shape[0] != p.a.shape[1]:
        return None
    _, u, v, g, _ = _row_factors(p.a, lambda s, d: rank_decide(s, p.tol, dim=d), p.tol)
    if u is not None and not all(lat_invariant(SubspaceBasis(s, p.dim), p.t) for s in (u, v)):
        return None
    _require_feasible(u, p.b, SpectrumClass.POSITIVE_DEFINITE)  # t is definite here
    return v @ (g @ p.b)


def try_cor1_shortcut(p: QpProblem) -> MinimizationResult | None:
    """Shortcut when the ranges of `a` and of its adjoint are invariant under `t`.

    Applies only to square constraints (range invariance is not well-typed
    for rectangular `a`).  Row-space invariance is what actually licenses
    collapsing ``T^{-1/2} pinv(a T^{-1/2})`` to ``pinv(a)``: it makes
    ``T^{1/2} pinv(a) a T^{-1/2}`` Hermitian, which is the only reverse-order
    Penrose identity that can fail here.  Column-space invariance alone is
    not sufficient (t = diag(1, 2), a = [[1, 1], [0, 0]] has an invariant
    column space yet ``pinv(a) b`` is not the minimizer), so the gate
    checks both.  When it fires the minimizer is exactly ``pinv(a) b``
    (`_cor1_xhat`) and the minimum its `quad_value`; returns None when
    either invariance condition fails.  `t` must be positive definite.
    """
    _require_pd(classify_spectrum(eigh(p.t).eigenvalues, p.tol))
    xhat = _cor1_xhat(p)
    if xhat is None:
        return None
    message = "column and row spaces of a are invariant under t; minimizer is pinv(a) b"
    note = Diagnostic("cor1_shortcut", message)
    return _result(p, xhat, quad_value(p.t, xhat), Method.COR1_SHORTCUT, [note])


def minimize_psd_complement(p: QpProblem) -> MinimizationResult:
    """Kernel-complement route for singular positive semidefinite `t`.

    Minimizes over ``x`` in the column space of `t` only: with ``Q_r`` the
    eigenvectors of the nonzero eigenvalues ``Λ_r``, the minimizer is
    ``x = W pinv(a W) b`` for ``W = Q_r Λ_r^{-1/2}``.
    """
    return _apply(p, _factors(p, _require_singular_psd), Method.PSD_COMPLEMENT)


def _conditioning_certified(p: QpProblem, rank: int, s: float, w: np.ndarray) -> bool:
    """Whether `_complement_conditioning` can neither drop a value, warn nor note.

    `s` is a lower bound on ``σ_min(a W)`` (`_row_factors`) and `w` the
    kept eigenvalues of `t`.  With full row rank ``m <= r``,
    ``a Q_r = (a W) Λ_r^{1/2}`` gives ``σ_min(a Q_r) >= s √λ_min``.  As
    `Q_r` has orthonormal columns, ``σ_min(a) / σ_max(a)`` and, through
    ``a Q_r = R_a* (V_a* Q_r)``, every principal-angle cosine (at most 1)
    are at least ``L = s √λ_min / ||a||_F``.  So where ``s √λ_min``
    `_certifies` against ``max(WARN_RATIO, rtol) ||a||_F``, `L` clears the
    thresholds of both rank decisions and of the warning, and the note's
    factorization of `a` could not change the result.
    """
    m = p.a.shape[0]
    if rank == 0 or rank != m:
        return False
    # m <= r <= n, so n is the larger dimension of a as well as of V_a* Q_r
    ratio = max(WARN_RATIO, p.tol.effective_rtol(p.dim))
    return _certifies(float(s * np.sqrt(w[0])), ratio * fro_norm(p.a))


def _complement_conditioning(p: QpProblem, range_t, decide) -> list[Diagnostic]:
    """Conditioning of the reduction onto the kernel complement.

    The singular values of ``V_a* Q_r`` (orthonormal bases of the row space
    of `a` and of the column space of `t`) are the cosines of the principal
    angles between them; tiny kept values signal a nearly-degenerate
    reduction.  `decide` makes and records each rank decision.
    """
    row_a = _row_factors(p.a, decide)[2]
    sigma = np.linalg.svd(row_a.conj().T @ range_t, compute_uv=False)
    decision = decide(sigma, p.dim)
    notes = []
    smax = float(sigma[0]) if sigma.size else 0.0
    if decision.rank and smax > 0 and decision.sigma_kept_min / smax < WARN_RATIO:
        notes.append(
            Diagnostic(
                code="psd_product_conditioning",
                message=(
                    "projector product of the constraint row space and the "
                    "kernel complement is nearly rank deficient"
                ),
                value=decision.sigma_kept_min / smax,
            )
        )
    return notes


def solve(p: QpProblem, method: Method = Method.AUTO) -> MinimizationResult:
    """Dispatch on the spectrum of `t` (or on an explicit method).

    AUTO factors `t` once: strictly positive spectra are reported as the
    square-root route, with the invariance shortcut tried for a square `a`
    and recorded in the diagnostics (not applicable where the factors of
    `a` fail or find `b` infeasible, where `try_cor1_shortcut` raises);
    singular nonnegative spectra go to the kernel complement; genuinely
    negative eigenvalues are rejected.  The
    factors are reused while later problems keep the same ``(t, a, tol)``.
    """
    if method is Method.POSDEF_DIAG:
        return minimize_posdef_diag(p)
    if method is Method.POSDEF:
        return minimize_posdef(p)
    if method is Method.PSD_COMPLEMENT:
        return minimize_psd_complement(p)
    if method is not Method.AUTO:
        raise ValueError(f"method {method} is not dispatchable")
    f = _factors(p, _require_positive)
    if f.cls is SpectrumClass.PSD_SINGULAR:
        return _apply(p, f, Method.PSD_COMPLEMENT)
    result = _apply(p, f, Method.POSDEF)
    try:
        shortcut = _cor1_xhat(p)
    except (InfeasibleError, FactorizationError):
        # the factors of a alone can fail or decide a lower rank where
        # those of a W did not; the note then does not apply
        shortcut = None
    if shortcut is None:
        note = Diagnostic("cor1_shortcut", "range-invariance shortcut not applicable")
    else:
        message = "range-invariance shortcut fired; gap to the full route recorded"
        note = Diagnostic("cor1_shortcut", message, fro_norm(shortcut - result.xhat))
    return replace(result, diagnostics=result.diagnostics + (note,))
