"""Independent brute-force verifiers for the constrained minimizers.

These deliberately avoid the square-root pseudoinverse constructions used
by the solvers.  `kkt_solve` goes through the Lagrange-multiplier block
system, `reduced_solve` parametrizes the kernel complement explicitly and
`grid_refute` just samples feasible points.  Agreement with the solver
routes is therefore meaningful evidence rather than a tautology.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, FEAS_TOL, ToleranceConfig
from .dense_core import adjoint, as_matrix, as_vector, fro_norm
from .errors import InfeasibleOnComplementError, OracleError
from .minimizers import quad_value
from .pinv_ops import null_basis, range_basis

KKT_TOL = 1e-10

REFUTE_MARGIN = 1e-10


@dataclass(frozen=True)
class OracleResult:
    """Verifier solution with the residual of its own optimality system."""

    x: np.ndarray
    min_value: float
    kkt_residual: float


def _block_kkt(t, a):
    m, n = a.shape
    zero = np.zeros((m, m), dtype=np.result_type(t.dtype, a.dtype))
    return np.block([[2.0 * t, adjoint(a)], [a, zero]])


def _unit_rows(a, b):
    """``(D a, D b)``, ``D`` dividing each nonzero row of `a` by its norm.

    Each row of ``(a, b)`` is divided by the largest real or imaginary part
    of the row of `a`, then by the norm of what is left of that row, so no
    step overflows or underflows.  The divisions act on the real and
    imaginary parts, as a complex division by a subnormal would overflow.
    Zero rows are left as they are.
    """
    ab = np.column_stack([a, b])
    parts = ab.view(np.float64)  # a complex entry as its [re, im] pair
    a_parts = parts[:, : a.shape[1] * (ab.itemsize // 8)]
    peak = np.max(np.abs(a_parts), axis=1)
    parts /= np.where(peak > 0, peak, 1.0)[:, None]
    norm = np.linalg.norm(a_parts, axis=1)
    parts /= np.where(norm > 0, norm, 1.0)[:, None]
    return ab[:, :-1], ab[:, -1]


def kkt_solve(t, a, b) -> OracleResult:
    """Solve the Lagrange-multiplier system of the constrained minimum.

    Stacks ``[2t/τ, a*; a, 0] [x; lam] = [0; b]``, ``τ`` the largest entry
    of ``|t|``, on the rows of ``(a, b)`` scaled to unit norm (both keep the
    argmin; together they put the blocks on one scale whatever the scale
    of `t` and of each constraint), and applies a minimum-norm
    least-squares solve; the minimum is taken on the original `t`.  The
    returned residual is the norm of the block system evaluated at the
    solution, relative to the norm of the scaled `b`.

    Raises
    ------
    OracleError
        If the block system cannot be satisfied to ``1e-10``, which happens
        for infeasible data or an indefinite stationary system.
    """
    tm = as_matrix(t)
    am, bv = _unit_rows(as_matrix(a), as_vector(b))
    tau = float(np.max(np.abs(tm), initial=0.0)) or 1.0
    kkt = _block_kkt(tm / tau, am)
    rhs = np.concatenate([np.zeros(tm.shape[0], dtype=kkt.dtype), bv.astype(kkt.dtype)])
    sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    residual = fro_norm(kkt @ sol - rhs) / (fro_norm(bv) or 1.0)
    if residual > KKT_TOL:
        raise OracleError(
            f"stationarity system unsatisfied: residual {residual:.3e} exceeds {KKT_TOL}"
        )
    x = sol[: tm.shape[0]]
    return OracleResult(x=x, min_value=quad_value(tm, x), kkt_residual=residual)


def reduced_solve(t, a, b, cfg: ToleranceConfig = DEFAULT_TOL) -> OracleResult:
    """Verifier for the kernel-complement minimum of a singular PSD form.

    Parametrizes ``x = basis @ z`` over an orthonormal basis of the column
    space of `t`, which turns the restricted problem into an ordinary
    positive definite one in `z`, then defers to `kkt_solve`.  Only the
    constraint rows that the SVD of ``a_red = a @ basis`` keeps go to
    `kkt_solve` (``rows* a_red z = rows* b``, `rows` the kept left singular
    vectors), so more constraints than rank(`t`) do not leave it a
    dependent block system.
    """
    tm = as_matrix(t)
    am = as_matrix(a)
    bv = as_vector(b)
    basis = range_basis(tm, cfg).basis
    a_red = am @ basis
    t_red = adjoint(basis) @ tm @ basis
    rows = range_basis(a_red, cfg).basis
    rows_h = adjoint(rows)
    kept_b = rows_h @ bv
    if fro_norm(rows @ kept_b - bv) > FEAS_TOL * fro_norm(bv):
        raise InfeasibleOnComplementError(
            "b is not reachable from the kernel complement of t"
        )
    reduced = kkt_solve(t_red, rows_h @ a_red, kept_b)
    x = basis @ reduced.x
    return OracleResult(
        x=x, min_value=quad_value(tm, x), kkt_residual=reduced.kkt_residual
    )


def _feasible_directions(t, a, cfg: ToleranceConfig) -> np.ndarray:
    # N(a) ∩ R(t) (N(a) for a definite t) through coordinates on R(t): the
    # directions are range_t @ z with (a @ range_t) z = 0.  Intersecting via
    # projector complements instead would put roundoff-scale singular values
    # right at the rank threshold; here every factored matrix is well scaled,
    # and the product of the two orthonormal bases is orthonormal too.  The
    # caller passes `a` with unit rows, so no row's scale moves the rank
    # decision.
    range_t = range_basis(t, cfg).basis
    return range_t @ null_basis(a @ range_t, cfg).basis


def grid_refute(
    t,
    a,
    b,
    x_candidate,
    n_samples: int = 10_000,
    seed: int = 0,
    cfg: ToleranceConfig = DEFAULT_TOL,
) -> bool:
    """Try to beat a candidate minimizer by sampling feasible points.

    Draws random perturbations of the candidate inside the null space of
    `a` intersected with the column space of `t` (the whole null space for
    a definite `t`, the kernel complement the solver minimizes over for a
    singular one) at log-spaced step sizes and evaluates the quadratic form
    on each.  Returns True when no sample falls below the candidate value by
    more than ``1e-10`` of its magnitude, i.e. the candidate survives the
    refutation attempt.  A candidate off ``a x = b`` by more than ``FEAS_TOL * ||b||``
    raises OracleError.
    """
    tm = as_matrix(t)
    am = as_matrix(a)
    bv = as_vector(b)
    xc = as_vector(x_candidate)
    gap = fro_norm(am @ xc - bv)
    if gap > FEAS_TOL * fro_norm(bv):
        raise OracleError(f"candidate violates the constraint by {gap:.3e}")
    directions = _feasible_directions(tm, _unit_rows(am, bv)[0], cfg)
    if directions.shape[1] == 0:
        return True
    rng = np.random.default_rng(seed)
    k = directions.shape[1]
    coeffs = rng.standard_normal((n_samples, k))
    if np.iscomplexobj(directions):
        coeffs = (coeffs + 1j * rng.standard_normal((n_samples, k))) / np.sqrt(2.0)
    norms = np.linalg.norm(coeffs, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    steps = 10.0 ** rng.uniform(-4.0, 1.0, size=(n_samples, 1))
    scale = max(1.0, float(np.linalg.norm(xc)))
    coeffs = coeffs / norms * steps * scale
    samples = xc[None, :] + coeffs @ directions.T
    values = np.einsum("ij,jk,ik->i", samples.conj(), tm, samples).real
    value = quad_value(tm, xc)
    return not bool(np.any(values < value - REFUTE_MARGIN * abs(value)))


def random_pd_problem(
    n: int,
    m: int,
    seed: int = 0,
    complex_entries: bool = False,
):
    """Random strictly positive definite instance with a consistent b.

    ``t = m_mat* m_mat + 0.1 I`` keeps the spectrum bounded away from zero;
    `b` is manufactured as ``a @ x0`` so feasibility is guaranteed.
    """
    rng = np.random.default_rng(seed)
    mat = _random_matrix(rng, n, n, complex_entries)
    t = adjoint(mat) @ mat + 0.1 * np.eye(n, dtype=mat.dtype)
    a = _random_matrix(rng, m, n, complex_entries)
    x0 = _random_matrix(rng, n, 1, complex_entries)[:, 0]
    return t, a, a @ x0


def random_psd_problem(
    n: int,
    m: int,
    rank: int,
    seed: int = 0,
    complex_entries: bool = False,
):
    """Random singular PSD instance with b reachable from the complement.

    ``t = m_r* m_r`` with `m_r` of shape ``rank x n`` has rank at most
    `rank`; `b` comes from a point already projected into the column
    space of `t`.
    """
    if not 0 < rank < n:
        raise ValueError("rank must be strictly between 0 and n")
    rng = np.random.default_rng(seed)
    m_r = _random_matrix(rng, rank, n, complex_entries)
    t = adjoint(m_r) @ m_r
    a = _random_matrix(rng, m, n, complex_entries)
    x0 = _random_matrix(rng, n, 1, complex_entries)[:, 0]
    projector = range_basis(t).projector()
    return t, a, a @ (projector @ x0)


def _random_matrix(rng, rows, cols, complex_entries):
    real = rng.standard_normal((rows, cols))
    if complex_entries:
        return (real + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)
    return real
