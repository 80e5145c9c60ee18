import itertools
import re
import warnings
from collections import Counter
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qfmin import (
    Diagnostic,
    DimensionMismatchError,
    FactorizationError,
    IllConditioningWarning,
    InfeasibleError,
    InfeasibleOnComplementError,
    Method,
    NotHermitianError,
    NotPositiveDefiniteError,
    NotPositiveError,
    NotPsdError,
    NotSingularError,
    QfminError,
    QpProblem,
    classify_spectrum,
    SpectrumClass,
    feasible,
    kkt_solve,
    min_norm_ls,
    minimize_posdef,
    minimize_posdef_diag,
    minimize_psd_complement,
    projector_range,
    quad_value,
    random_pd_problem,
    random_psd_problem,
    reduced_solve,
    solve,
    try_cor1_shortcut,
)
from qfmin import dense_core, minimizers
from qfmin.config import ABS_FLOOR, CERTIFICATE_MARGIN, DEFAULT_TOL, FEAS_TOL, HTOL, WARN_RATIO, ToleranceConfig
from qfmin.dense_core import fro_norm, svd
from qfmin.l2_models import diag_operator, DiagonalSpec, harmonic_b, left_shift
from qfmin.pinv_ops import rank_decide

EXAMPLE2_Q = np.array([[14.0, 20, 28], [20, 83, 40], [28, 40, 56]])
EXAMPLE2_A = np.array([[2.0, 1, -1]])
EXAMPLE2_B = np.array([10.0])
# exact restricted minimizer from the one-variable reduction on (x, 10, 2x)
EXAMPLE2_XHAT = np.array([-20.0 / 7, 10.0, -40.0 / 7])
EXAMPLE2_MIN = 38100.0 / 7


def truncated_problem(n):
    dim = n + 1
    t = diag_operator(DiagonalSpec(period_values=(1.0, 2.0), n=dim))
    a = left_shift(dim)
    b = np.concatenate([harmonic_b(n), [0.0]])
    return QpProblem(t=t, a=a, b=b)


class TestQpProblem:
    def test_rejects_non_square_t(self):
        with pytest.raises(DimensionMismatchError):
            QpProblem(t=np.zeros((2, 3)), a=np.eye(2), b=np.zeros(2))

    def test_rejects_mismatched_constraint(self):
        with pytest.raises(DimensionMismatchError):
            QpProblem(t=np.eye(3), a=np.eye(2), b=np.zeros(2))

    def test_rejects_mismatched_rhs(self):
        with pytest.raises(DimensionMismatchError):
            QpProblem(t=np.eye(3), a=np.eye(3), b=np.zeros(2))

    def test_rejects_non_hermitian(self):
        # the constructor checks shapes and entries; the route's eigh gates t
        p = QpProblem(t=np.array([[0.0, 1], [0, 0]]), a=np.eye(2), b=np.zeros(2))
        with pytest.raises(NotHermitianError):
            solve(p)

    def test_dim(self):
        p = QpProblem(t=np.eye(3), a=np.ones((1, 3)), b=np.ones(1))
        assert p.dim == 3

    @pytest.mark.parametrize("scale", [1e160, 1e-170, 1e-200])
    def test_hermitian_gate_at_extreme_scales(self, scale):
        check_hermitian_gate_at(scale)

    def test_hermitian_gate_on_complex_subnormals(self):
        # a nan ||t|| would pass the gate: no comparison with nan rejects
        with pytest.raises(NotHermitianError):
            solve(QpProblem(t=5e-324 * np.array([[2, 1j], [0, 2]]), a=np.eye(2), b=np.zeros(2)))

    def test_hermitian_gate_when_the_norm_of_t_overflows(self):
        # HTOL * ||t|| is inf, which no deviation exceeds
        t = np.array([[1.5e308, 1e300], [0.0, 1.5e308]])
        with pytest.raises(NotHermitianError):
            solve(QpProblem(t, np.eye(2), np.zeros(2)))

    def test_definite_t_near_the_float64_limit(self):
        # (t + t*) / 2 would overflow to inf and the eigenvalues to nan
        t = 1e308 * np.array([[1.0, 0.5], [0.5, 1.0]])
        r = solve(QpProblem(t, np.array([[1.0, 1.0]]), np.array([1.0])))
        assert r.method is Method.POSDEF
        assert_allclose(r.xhat, [0.5, 0.5], rtol=1e-12)
        assert r.min_value == pytest.approx(7.5e307, rel=1e-12)

    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_asymmetry_just_inside_the_gate_solves(self, complex_entries):
        # eigh checks its factors against the symmetrized t it factored; checked
        # against t itself they would miss by HTOL / 2, above the guard's bound
        t, a, b = random_pd_problem(30, 12, 3, complex_entries)
        rng = np.random.default_rng(3)
        skew = rng.standard_normal((30, 30))
        if complex_entries:
            skew = skew + 1j * rng.standard_normal((30, 30))
        skew -= skew.conj().T
        asymmetric = t + skew * (0.45 * HTOL * fro_norm(t) / fro_norm(skew))
        gap = fro_norm(asymmetric - asymmetric.conj().T) / fro_norm(asymmetric)
        assert 0.89 * HTOL < gap < 0.91 * HTOL
        r = solve(QpProblem(asymmetric, a, b))
        expected = solve(QpProblem((asymmetric + asymmetric.conj().T) / 2, a, b))
        assert r.method is Method.POSDEF
        assert_allclose(r.xhat, expected.xhat, rtol=1e-12)


def check_hermitian_gate_at(scale):
    # ||t|| overflows (or underflows) when taken without rescaling
    a, b = np.array([[1.0, 1.0]]), np.array([scale])
    with pytest.raises(NotHermitianError):
        solve(QpProblem(t=scale * np.array([[2.0, 1], [0, 2]]), a=a, b=b))
    p = QpProblem(t=scale * np.array([[2.0, 1], [1, 2]]), a=a, b=b)
    assert_allclose(solve(p).xhat, [scale / 2, scale / 2], rtol=1e-12)


class TestMinNormLs:
    def test_identity(self):
        b = np.array([1.0, -2.0, 3.0])
        assert_allclose(min_norm_ls(np.eye(3), b), b)

    def test_truncated_shift(self):
        shift = left_shift(5)
        b = np.array([1.0, 1 / 2, 1 / 3, 1 / 4, 0.0])
        assert_allclose(min_norm_ls(shift, b), [0.0, 1, 1 / 2, 1 / 3, 1 / 4], atol=1e-14)

    def test_inconsistent_system(self):
        a = np.array([[1.0, 0], [1, 0]])
        b = np.array([1.0, 0])
        assert_allclose(min_norm_ls(a, b), [0.5, 0.0], atol=1e-14)

    def test_normal_equations(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 3)) @ rng.standard_normal((3, 4))
        b = rng.standard_normal(5)
        u = min_norm_ls(a, b)
        assert np.linalg.norm(a.T @ a @ u - a.T @ b) <= 1e-10

    def test_minimal_norm_among_solutions(self):
        a = np.array([[1.0, 1.0]])
        b = np.array([2.0])
        u = min_norm_ls(a, b)
        assert_allclose(u, [1.0, 1.0])
        for shift in [0.5, -1.0, 2.0]:
            other = u + shift * np.array([1.0, -1.0])
            assert np.linalg.norm(other) > np.linalg.norm(u)


class TestFeasible:
    def test_diagonal_cases(self):
        a = np.diag([1.0, 0.0])
        assert feasible(a, np.array([1.0, 0.0]))
        assert not feasible(a, np.array([0.0, 1.0]))

    def test_surjective_row(self):
        assert feasible(EXAMPLE2_A, EXAMPLE2_B)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            feasible(EXAMPLE2_A, np.ones(2))


class TestPosdefDiag:
    def test_identity_form_reduces_to_min_norm(self):
        a = np.array([[1.0, 1, 0], [0, 1, 1]])
        b = np.array([1.0, 2.0])
        p = QpProblem(t=np.eye(3), a=a, b=b)
        r = minimize_posdef_diag(p)
        assert_allclose(r.xhat, min_norm_ls(a, b), atol=1e-12)
        assert r.min_value == pytest.approx(np.linalg.norm(min_norm_ls(a, b)) ** 2)
        assert r.method is Method.POSDEF_DIAG

    def test_truncated_shift_problem(self):
        r = minimize_posdef_diag(truncated_problem(6))
        expected = np.concatenate([[0.0, 1.0], 1 / np.arange(2.0, 7.0)])
        assert_allclose(r.xhat, expected, atol=1e-12)

    def test_matches_oracle(self):
        from qfmin import kkt_solve

        t, a, b = random_pd_problem(8, 3, seed=42)
        r = minimize_posdef_diag(QpProblem(t=t, a=a, b=b))
        o = kkt_solve(t, a, b)
        assert abs(r.min_value - o.min_value) <= 1e-8 * max(1.0, o.min_value)

    def test_invertible_constraint_short_circuit(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        b = rng.standard_normal(3)
        t, _, _ = random_pd_problem(3, 1, seed=2)
        r = minimize_posdef_diag(QpProblem(t=t, a=a, b=b))
        assert_allclose(r.xhat, np.linalg.solve(a, b), atol=1e-10)
        assert any(d.code == "trivial_constraint" for d in r.diagnostics)

    def test_rejects_singular_form(self):
        p = QpProblem(t=np.diag([1.0, 0.0]), a=np.ones((1, 2)), b=np.ones(1))
        with pytest.raises(NotPositiveDefiniteError):
            minimize_posdef_diag(p)

    def test_rejects_infeasible(self):
        p = QpProblem(
            t=np.eye(2), a=np.array([[1.0, 0], [1, 0]]), b=np.array([1.0, 2.0])
        )
        with pytest.raises(InfeasibleError):
            minimize_posdef_diag(p)


class TestScaleFreeFeasibility:
    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e160])
    @pytest.mark.parametrize("route", [solve, minimize_posdef_diag, minimize_posdef])
    def test_rejects_infeasible_at_every_scale(self, route, scale):
        # an absolute bound below ||b|| = 1 used to accept b at 1e-200
        p = QpProblem(
            t=scale * np.eye(2),
            a=np.array([[1.0, 0], [1, 0]]),
            b=scale * np.array([1.0, 2.0]),
        )
        with pytest.raises(InfeasibleError):
            route(p)

    @pytest.mark.parametrize("route", [solve, minimize_posdef_diag, minimize_posdef])
    def test_zero_rhs_stays_feasible(self, route):
        p = QpProblem(t=np.eye(2), a=np.array([[1.0, 0], [1, 0]]), b=np.zeros(2))
        r = route(p)
        assert np.array_equal(r.xhat, np.zeros(2))
        assert r.min_value == 0.0


class TestPosdef:
    def test_scaled_identity(self):
        a = np.array([[1.0, 1, 0]])
        b = np.array([3.0])
        p = QpProblem(t=4.0 * np.eye(3), a=a, b=b)
        r = minimize_posdef(p)
        mnls = min_norm_ls(a, b)
        assert_allclose(r.xhat, mnls, atol=1e-12)
        assert r.min_value == pytest.approx(4.0 * np.linalg.norm(mnls) ** 2)

    def test_agrees_with_diag_route(self):
        p = truncated_problem(12)
        r1 = minimize_posdef(p)
        r2 = minimize_posdef_diag(p)
        assert np.linalg.norm(r1.xhat - r2.xhat) <= 1e-10

    def test_feasibility_residual(self):
        t, a, b = random_pd_problem(10, 4, seed=5)
        r = minimize_posdef(QpProblem(t=t, a=a, b=b))
        assert r.feasibility_residual <= 1e-8 * max(1.0, np.linalg.norm(b))

    def test_rejects_infeasible_at_huge_scale(self):
        # ||a pinv(a) b - b|| overflows when taken without rescaling
        s = 1e160
        p = QpProblem(t=s * np.eye(2), a=np.array([[1.0, 0], [1, 0]]), b=s * np.array([1.0, 2.0]))
        with pytest.raises(InfeasibleError):
            minimize_posdef(p)

    def test_min_value_matches_quadratic(self):
        t, a, b = random_pd_problem(9, 2, seed=6)
        r = minimize_posdef(QpProblem(t=t, a=a, b=b))
        direct = quad_value(t, r.xhat)
        assert abs(r.min_value - direct) <= 1e-9 * max(1.0, abs(direct))

    def test_rank_is_decided_on_the_rescaled_constraint(self):
        # a has rank 2, a T^{-1/2} rank 1: b = [1, 2] is out of its range
        p = QpProblem(
            t=np.diag([1.0, 2e15]), a=np.array([[1.0, 0], [1, 1e-12]]), b=np.array([1.0, 2.0])
        )
        for route in (minimize_posdef, minimize_posdef_diag):
            with pytest.raises(InfeasibleError):
                route(p)

    @pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("cond", [1.0, 1e4, 1e8])
    @pytest.mark.parametrize("seed", range(4))
    def test_nearly_dependent_row(self, seed, cond, complex_entries):
        # the last row is the first plus 1e-14 noise; b = a x0 is feasible, so
        # the reference meets it to FEAS_TOL and warns as the kernel does
        rng = np.random.default_rng(seed)
        n, m = 8, 5

        def draw(*shape):
            x = rng.standard_normal(shape)
            return x + 1j * rng.standard_normal(shape) if complex_entries else x

        q, _ = np.linalg.qr(draw(n, n))
        lam = np.logspace(0, np.log10(cond), n)
        t = (q * lam) @ q.conj().T
        t = (t + t.conj().T) / 2
        a = draw(m, n)
        a[-1] = a[0] + 1e-14 * draw(n)
        b = a @ draw(n)

        def outcome(route):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                r = route(QpProblem(t, a, b))
            return r, [w.category for w in caught]

        ref, ref_warnings = outcome(minimize_posdef)
        _, diag_warnings = outcome(minimize_posdef_diag)
        assert ref.feasibility_residual <= FEAS_TOL * np.linalg.norm(b)
        if ref_warnings != diag_warnings:
            # two factorizations of one operator may round a singular value
            # to either side of the rank threshold only when it lies within a
            # few eps of it (seed 1, cond 1, real: 1.837e-15 and 1.766e-15
            # of sigma_max against 8 eps = 1.776e-15)
            sigma = np.linalg.svd(a @ (q / np.sqrt(lam)) @ q.conj().T, compute_uv=False)
            assert abs(sigma[-1] / sigma[0] - n * _EPS) <= 4 * _EPS


class TestCor1Shortcut:
    def test_fires_on_shift_range(self):
        p = truncated_problem(8)
        short = try_cor1_shortcut(p)
        assert short is not None
        assert short.method is Method.COR1_SHORTCUT
        assert_allclose(short.xhat, min_norm_ls(p.a, p.b), atol=1e-13)
        full = minimize_posdef(p)
        assert np.linalg.norm(short.xhat - full.xhat) <= 1e-8
        assert short.min_value == pytest.approx(full.min_value, rel=1e-10)

    def test_skips_rectangular_constraint(self):
        p = QpProblem(t=np.diag([1.0, 2.0]), a=np.array([[1.0, 1.0]]), b=np.array([3.0]))
        assert try_cor1_shortcut(p) is None

    def test_skips_non_invariant_range(self):
        # R(a) = span{e1+e2} is not invariant under diag(1,2)
        a = np.array([[1.0, 0.0], [1.0, 0.0]])
        p = QpProblem(t=np.diag([1.0, 2.0]), a=a, b=np.array([1.0, 1.0]))
        assert try_cor1_shortcut(p) is None

    def test_skips_invariant_column_space_with_generic_row_space(self):
        # R(a) = span{e1} is invariant under diag(1,2) but the row space
        # span{(1,1)} is not, and pinv(a) b = (1.5, 1.5) is not the
        # constrained minimizer (2, 1); the shortcut must stay silent
        a = np.array([[1.0, 1.0], [0.0, 0.0]])
        p = QpProblem(t=np.diag([1.0, 2.0]), a=a, b=np.array([3.0, 0.0]))
        assert try_cor1_shortcut(p) is None
        full = minimize_posdef(p)
        assert_allclose(full.xhat, [2.0, 1.0], atol=1e-12)
        assert np.linalg.norm(min_norm_ls(p.a, p.b) - full.xhat) > 0.5

    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e160])
    def test_invariance_gate_is_scale_free(self, scale):
        # the row space span{(1,1,0), e3} is not invariant under diag(1,2,3),
        # and pinv(a) b = (1.5, 1.5, 3) is not the minimizer (2, 1, 3)
        a = np.array([[1.0, 1, 0], [1, 1, 0], [0, 0, 1]])
        p = QpProblem(t=scale * np.diag([1.0, 2, 3]), a=a, b=a @ np.array([1.0, 2, 3]))
        assert try_cor1_shortcut(p) is None
        r = solve(p)
        assert_allclose(r.xhat, [2.0, 1.0, 3.0], rtol=1e-12)
        assert r.diagnostics[-1].value is None

    def test_fires_on_commuting_singular_pair(self):
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        t = q @ np.diag([0.5, 1.0, 1.5, 2.0, 3.0]) @ q.conj().T
        t = (t + t.conj().T) / 2
        a = q @ np.diag([1.0, 2.0, 0.0, 0.0, 1.0]) @ q.conj().T
        b = a @ rng.standard_normal(5)
        p = QpProblem(t=t, a=a, b=b)
        short = try_cor1_shortcut(p)
        assert short is not None
        full = minimize_posdef(p)
        assert np.linalg.norm(short.xhat - full.xhat) <= 1e-8

    def test_requires_positive_definite(self):
        p = QpProblem(t=np.diag([1.0, 0.0]), a=np.eye(2), b=np.ones(2))
        with pytest.raises(NotPositiveDefiniteError):
            try_cor1_shortcut(p)

    @pytest.mark.parametrize("scale", [1.0, 1e200])
    def test_auto_gap_does_not_overflow(self, scale):
        # the true gap is roundoff of x, about 1e-15 ||x||, at every scale of b
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        t = q @ np.diag([1.0, 2.0, 3.0, 4.0]) @ q.T
        a = q @ np.diag([2.0, -1.0, 0.5, 3.0]) @ q.T
        p = QpProblem(t=(t + t.T) / 2, a=a, b=scale * rng.standard_normal(4))
        with warnings.catch_warnings():
            # at 1e200 the minimum itself is past the float64 range
            warnings.simplefilter("error", RuntimeWarning)
            r = solve(p)
        note = r.diagnostics[-1]
        assert note.message.startswith("range-invariance shortcut fired")
        assert np.isfinite(note.value)
        assert note.value <= 1e-12 * fro_norm(r.xhat)


class TestPsdComplement:
    def test_restricted_minimum(self):
        p = QpProblem(t=EXAMPLE2_Q, a=EXAMPLE2_A, b=EXAMPLE2_B)
        r = minimize_psd_complement(p)
        assert_allclose(r.xhat, EXAMPLE2_XHAT, atol=1e-10)
        assert r.min_value == pytest.approx(EXAMPLE2_MIN, rel=1e-12)
        assert r.method is Method.PSD_COMPLEMENT

    def test_complement_membership(self):
        p = QpProblem(t=EXAMPLE2_Q, a=EXAMPLE2_A, b=EXAMPLE2_B)
        r = minimize_psd_complement(p)
        p_t = projector_range(EXAMPLE2_Q)
        off = np.linalg.norm((np.eye(3) - p_t) @ r.xhat)
        assert off <= 1e-9 * np.linalg.norm(r.xhat)

    def test_constraint_touching_only_kernel(self):
        p = QpProblem(t=np.diag([1.0, 0.0]), a=np.array([[0.0, 1.0]]), b=np.array([1.0]))
        with pytest.raises(InfeasibleOnComplementError):
            minimize_psd_complement(p)

    def test_rejects_indefinite(self):
        p = QpProblem(t=np.diag([1.0, -1.0]), a=np.ones((1, 2)), b=np.ones(1))
        with pytest.raises(NotPsdError):
            minimize_psd_complement(p)

    def test_rejects_invertible_form(self):
        p = QpProblem(t=np.eye(2), a=np.ones((1, 2)), b=np.ones(1))
        with pytest.raises(NotSingularError):
            minimize_psd_complement(p)

    def test_conditioning_note_on_nearly_orthogonal_row_space(self):
        # R(t) = span{e1, e2}; the row space of a holds e1 and a direction
        # at cosine ~delta to R(t), so the kept cosines span ~delta
        delta = 1e-9
        t = np.diag([1.0, 1.0, 0.0])
        a = np.array([[1.0, 0.0, 0.0], [0.0, delta, 1.0]])
        p = QpProblem(t=t, a=a, b=a @ np.array([1.0, 1.0, 0.0]))
        with pytest.warns(IllConditioningWarning):
            r = minimize_psd_complement(p)
        notes = [d for d in r.diagnostics if d.code == "psd_product_conditioning"]
        assert len(notes) == 1
        assert notes[0].value < WARN_RATIO
        assert notes[0].value == pytest.approx(delta, rel=1e-6)
        assert_allclose(r.xhat, [1.0, 1.0, 0.0], atol=1e-9)

    def test_min_value_is_cor2_formula(self):
        p = QpProblem(t=EXAMPLE2_Q, a=EXAMPLE2_A, b=EXAMPLE2_B)
        r = minimize_psd_complement(p)
        direct = quad_value(EXAMPLE2_Q, r.xhat)
        assert abs(r.min_value - direct) <= 1e-9 * max(1.0, abs(direct))


# Square constraints whose own factors fail, or decide a lower rank, where
# those of a W do not: (t, a, b, the error of try_cor1_shortcut)
COR1_REFUSALS = {
    # the column norms of a overflow, so its QR is nan; a W is 1.5e158 [[1, 1], [1, -1]]
    "overflowing-a": (
        1e300 * np.eye(2),
        1.5e308 * np.array([[1.0, 1.0], [1.0, -1.0]]),
        np.array([1.5e308, 1.5e308]),
        FactorizationError,
    ),
    # a has rank 1 at the default rtol, a W = diag(1, 1e-12) rank 2
    "graded-a": (np.diag([1.0, 1e-10]), np.diag([1.0, 1e-17]), np.ones(2), InfeasibleError),
}


class TestSolveDispatch:
    @pytest.mark.parametrize("case", sorted(COR1_REFUSALS))
    def test_a_refused_shortcut_leaves_the_auto_solve(self, case):
        t, a, b, error = COR1_REFUSALS[case]
        p = QpProblem(t, a, b)
        with pytest.raises(error):
            try_cor1_shortcut(p)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IllConditioningWarning)  # a W of graded-a
            auto, diag = solve(p), minimize_posdef_diag(p)
        assert auto.method is Method.POSDEF
        assert np.array_equal(auto.xhat, diag.xhat)
        assert auto.diagnostics == diag.diagnostics[:1] + (
            Diagnostic("cor1_shortcut", "range-invariance shortcut not applicable"),
        ) + diag.diagnostics[1:]

    def test_a_non_finite_x_raises(self):
        # ||b|| overflows, so every b passes the feasibility test, and the
        # square-root route's pinv(a t^{-1/2}) b overflows
        t, a, b, _ = COR1_REFUSALS["overflowing-a"]
        with np.errstate(all="ignore"), pytest.raises(FactorizationError, match="x is not finite"):
            minimize_posdef(QpProblem(t, a, b))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_a_one_by_one_problem(self, dtype):
        # min 2 x^2 subject to 3 x = 6: the gate must not change the caller's t
        t = np.array([[2.0]], dtype=dtype)
        p = QpProblem(t, np.array([[3.0]], dtype=dtype), np.array([6.0], dtype=dtype))
        first, again = solve(p), solve(p)
        assert first.method is Method.POSDEF
        assert_allclose(first.xhat, [2.0], rtol=4 * _EPS)
        assert np.array_equal(again.xhat, first.xhat)
        assert np.array_equal(p.t, [[2.0]]) and np.array_equal(t, [[2.0]])

    def test_auto_routes_singular_form(self):
        p = QpProblem(t=EXAMPLE2_Q, a=EXAMPLE2_A, b=EXAMPLE2_B)
        auto = solve(p)
        direct = minimize_psd_complement(p)
        assert auto.method is Method.PSD_COMPLEMENT
        assert_allclose(auto.xhat, direct.xhat, atol=1e-14)

    def test_auto_routes_positive_definite_with_shortcut_note(self):
        p = truncated_problem(5)
        r = solve(p)
        assert r.method is Method.POSDEF
        notes = [d for d in r.diagnostics if d.code == "cor1_shortcut"]
        assert notes and notes[0].value is not None
        assert notes[0].value <= 1e-8

    def test_auto_rejects_indefinite(self):
        p = QpProblem(t=np.diag([1.0, -0.5]), a=np.ones((1, 2)), b=np.ones(1))
        with pytest.raises(NotPositiveError):
            solve(p)

    def test_explicit_method_dispatch(self):
        t, a, b = random_pd_problem(6, 2, seed=8)
        p = QpProblem(t=t, a=a, b=b)
        assert solve(p, Method.POSDEF).method is Method.POSDEF
        assert solve(p, Method.POSDEF_DIAG).method is Method.POSDEF_DIAG

    def test_non_dispatchable_method(self):
        t, a, b = random_pd_problem(4, 2, seed=9)
        p = QpProblem(t=t, a=a, b=b)
        with pytest.raises(ValueError):
            solve(p, Method.COR1_SHORTCUT)


class TestClassifySpectrum:
    def test_classes(self):
        assert classify_spectrum(np.array([1.0, 2.0])) is SpectrumClass.POSITIVE_DEFINITE
        assert classify_spectrum(np.array([0.0, 2.0])) is SpectrumClass.PSD_SINGULAR
        assert classify_spectrum(np.array([-1.0, 2.0])) is SpectrumClass.INDEFINITE

    def test_tiny_negative_counts_as_zero(self):
        assert (
            classify_spectrum(np.array([-1e-14, 2.0])) is SpectrumClass.PSD_SINGULAR
        )


class TestResultInvariants:
    @pytest.mark.parametrize("seed", range(5))
    def test_scaling_argmin_invariance(self, seed):
        t, a, b = random_pd_problem(7, 3, seed=seed)
        base = minimize_posdef(QpProblem(t=t, a=a, b=b))
        scaled = minimize_posdef(QpProblem(t=3.0 * t, a=a, b=b))
        assert np.linalg.norm(scaled.xhat - base.xhat) <= 1e-9 * max(
            1.0, np.linalg.norm(base.xhat)
        )
        assert scaled.min_value == pytest.approx(3.0 * base.min_value, rel=1e-9)

    def test_min_value_nonnegative(self):
        t, a, b = random_pd_problem(5, 2, seed=13)
        r = minimize_posdef(QpProblem(t=t, a=a, b=b))
        assert r.min_value >= -1e-12

    def test_variational_sample(self):
        from qfmin import null_basis

        t, a, b = random_pd_problem(8, 3, seed=14)
        r = minimize_posdef(QpProblem(t=t, a=a, b=b))
        directions = null_basis(a).basis
        rng = np.random.default_rng(15)
        for _ in range(20):
            d = directions @ rng.standard_normal(directions.shape[1])
            value = quad_value(t, r.xhat + d)
            assert value >= r.min_value - 1e-10


@pytest.fixture
def cold_memo(monkeypatch):
    """Start from an empty memo of factors, whatever ran before."""
    monkeypatch.setattr(minimizers, "_memo", None)


@pytest.mark.usefixtures("cold_memo")
class TestFactorizationCounts:
    """numpy.linalg calls made by one AUTO solve: one factorization of t, one of the Gram of a W.

    A definite t is factored by Cholesky, whose triangular factor of at
    most 128 rows is inverted by one inv; a singular one, after a Cholesky
    that fails or whose pivot rules it out, by eigh.  The R of ``(a W)*``
    is the factor of a second Cholesky factorization, of the Gram ``(a W)
    (a W)*`` (`dense_core.gram_cholesky`), and ``inv(R*)`` comes from it.  Where
    `_certified_inverse` certifies the full row rank of ``a W``, as here,
    that is all: no QR, no values-only SVD.  A refused certificate adds the
    full Householder QR (``qr``), the values-only SVD of its R and, for a
    full rank, the inverse of that R.
    """

    def test_definite_rectangular_constraint(self, count_linalg):
        p = QpProblem(*random_pd_problem(12, 6, seed=5))
        counts = count_linalg()
        solve(p)
        # 1 / ||L^{-1}||_F certifies t definite, so no eigh
        assert counts == {"eigh": 0, "cholesky": 2, "svd": 0, "qr": 0, "inv": 2, "solve": 0, "svdvals": 0}

    def test_semidefinite(self, count_linalg):
        p = QpProblem(*random_psd_problem(12, 6, rank=9, seed=5))
        counts = count_linalg()
        solve(p)
        # the lower bound on sigma_min(a W) certifies both the rank of a W and
        # the psd_product_conditioning note absent, so a is not factored for it
        assert counts == {"eigh": 1, "cholesky": 2, "svd": 0, "qr": 0, "inv": 1, "solve": 0, "svdvals": 0}

    def test_semidefinite_without_a_certificate(self, count_linalg):
        # a row at cosine 1e-9 to the range of t: the rank certificate
        # refuses, so the full QR of (a W)* follows the Cholesky factorization
        # of its Gram; a second
        # full QR and two more values-only SVDs give the row space of a and
        # its cosines to the range of t, for the note, which needs no
        # inverse; the zero on the diagonal of t rules out a Cholesky
        # factorization before it runs
        t, a = np.diag([1.0, 1.0, 0.0]), np.array([[1.0, 0.0, 0.0], [0.0, 1e-9, 1.0]])
        counts = count_linalg()
        with pytest.warns(IllConditioningWarning):
            r = solve(QpProblem(t, a, a @ np.array([1.0, 1.0, 0.0])))
        assert counts == {"eigh": 1, "cholesky": 1, "svd": 0, "qr": 2, "inv": 1, "solve": 0, "svdvals": 3}
        assert r.diagnostics[-1].code == "psd_product_conditioning"

    def test_definite_square_constraint(self, count_linalg):
        p = QpProblem(*random_pd_problem(12, 12, seed=5))
        counts = count_linalg()
        r = solve(p)
        # the shortcut's pinv(a) b takes a second Gram factor, of the
        # invertible a; both ranks are certified, and so is the class of t
        assert counts == {"eigh": 0, "cholesky": 3, "svd": 0, "qr": 0, "inv": 3, "solve": 0, "svdvals": 0}
        assert r.diagnostics[-1].value is not None

    def test_square_root_reference(self, count_linalg):
        # one eigh of t for the class and T^{-1/2}, one SVD of a T^{-1/2}
        p = QpProblem(*random_pd_problem(12, 6, seed=5))
        counts = count_linalg()
        minimize_posdef(p)
        assert counts == {"eigh": 1, "cholesky": 0, "svd": 1, "qr": 0, "inv": 0, "solve": 0, "svdvals": 0}

    def test_square_shortcut_leaves_the_memo_alone(self, count_linalg):
        # the class gate needs the eigenvalues of t and the shortcut the
        # factors of a; the kernel's factors are neither made nor stored.
        # The shift a has rank 8 of 9: the Cholesky factorization of its
        # Gram refuses the rank certificate, and its bases come from the full
        # QR and an SVD of R.
        p = truncated_problem(8)
        counts = count_linalg()
        assert try_cor1_shortcut(p) is not None
        assert counts == {"eigh": 1, "cholesky": 1, "svd": 1, "qr": 1, "inv": 0, "solve": 0, "svdvals": 1}
        assert minimizers._memo is None


SHARED_OPERATORS = {
    "pd": lambda: random_pd_problem(12, 6, seed=5),
    "psd": lambda: random_psd_problem(12, 6, rank=9, seed=5),
    "pd-square": lambda: random_pd_problem(12, 12, seed=5),
}


def fresh_rhs(t, a, seed):
    """A feasible b for (t, a): the image of a point in the range of t."""
    x = t @ np.random.default_rng(seed).standard_normal(t.shape[0])
    return a @ x


def outcome(r):
    """A solve's whole result, `x` to the byte, or its error class and message."""
    if isinstance(r, QfminError):
        return type(r), str(r)
    notes = [(d.code, d.message, d.value) for d in r.diagnostics]
    return r.xhat.dtype, r.xhat.shape, r.xhat.tobytes(), r.min_value, r.feasibility_residual, r.method, notes


@pytest.mark.usefixtures("cold_memo")
class TestFactorMemo:
    """solve and the kernel routes reuse the last operator's factors."""

    @pytest.mark.parametrize("case", sorted(SHARED_OPERATORS))
    def test_second_rhs_factors_nothing(self, count_linalg, case, monkeypatch):
        t, a, b = SHARED_OPERATORS[case]()
        solve(QpProblem(t, a, b))
        b2 = fresh_rhs(t, a, seed=1)
        counts = count_linalg()
        hit = solve(QpProblem(t, a, b2))
        # a square a keeps the shortcut's factors of a on every solve; its
        # rank is certified
        each = 1 if case == "pd-square" else 0
        assert counts == {"eigh": 0, "cholesky": each, "svd": 0, "qr": 0, "inv": each, "solve": 0, "svdvals": 0}
        monkeypatch.setattr(minimizers, "_memo", None)
        assert outcome(hit) == outcome(solve(QpProblem(t, a, b2)))

    def test_kernel_routes_share_the_memo(self, count_linalg, monkeypatch):
        t, a, b = random_pd_problem(10, 4, seed=3)
        auto = solve(QpProblem(t, a, b))
        counts = count_linalg()
        diag = minimize_posdef_diag(QpProblem(t, a, b))
        assert counts["eigh"] == counts["svd"] == counts["qr"] == 0
        assert np.array_equal(diag.xhat, auto.xhat)
        assert diag.method is Method.POSDEF_DIAG
        # the square-root reference never reads the memo
        minimize_posdef(QpProblem(t, a, b))
        assert counts == {"eigh": 1, "cholesky": 0, "svd": 1, "qr": 0, "inv": 0, "solve": 0, "svdvals": 0}

    @pytest.mark.parametrize(
        "change",
        ["mutate-t", "complex-t", "tol"],
    )
    def test_changed_operator_misses(self, count_linalg, change, monkeypatch):
        t, a, b = random_pd_problem(10, 4, seed=4)
        tol = ToleranceConfig()
        first = solve(QpProblem(t, a, b, tol))
        if change == "mutate-t":
            t *= 2.0  # in place: QpProblem keeps the caller's array
        elif change == "complex-t":
            t = t.astype(np.complex128)
        else:
            tol = tol.with_overrides(rtol=1e-13)
        counts = count_linalg()
        again = solve(QpProblem(t, a, b, tol))
        # a definite t misses by its certified Cholesky factorization, and
        # the rank of a W by the Cholesky factorization of its Gram
        assert (counts["cholesky"], counts["eigh"]) == (2, 0)
        monkeypatch.setattr(minimizers, "_memo", None)
        assert outcome(again) == outcome(solve(QpProblem(t, a, b, tol)))
        if change == "mutate-t":
            assert again.min_value == pytest.approx(2.0 * first.min_value, rel=1e-12)

    def test_certified_semidefinite_hit_factors_and_warns_nothing(self, count_linalg):
        t, a, b = SHARED_OPERATORS["psd"]()
        solve(QpProblem(t, a, b))
        # the range of t: the rank of a W was certified, and the note's two
        # decisions were never made
        assert len(minimizers._memo.spectra) == 1
        counts = count_linalg()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hit = solve(QpProblem(t, a, fresh_rhs(t, a, seed=1)))
        assert counts == dict.fromkeys(counts, 0)
        assert [d.code for d in hit.diagnostics] == ["reduced_rank"]

    def test_hit_still_rejects_infeasible_rhs(self):
        t, a, b = random_pd_problem(6, 6, seed=7)
        a[-1] = a[0]
        solve(QpProblem(t, a, a @ np.ones(6)))
        with pytest.raises(InfeasibleError):
            solve(QpProblem(t, a, b))
        t, a = np.diag([1.0, 0.0]), np.array([[0.0, 1.0]])
        assert solve(QpProblem(t, a, np.zeros(1))).min_value == 0.0
        with pytest.raises(InfeasibleOnComplementError):
            solve(QpProblem(t, a, np.ones(1)))

    def test_hit_warns_as_the_miss_did(self):
        delta = 1e-9
        t = np.diag([1.0, 1.0, 0.0])
        a = np.array([[1.0, 0.0, 0.0], [0.0, delta, 1.0]])
        messages = []
        for b in (a @ np.array([1.0, 1.0, 0.0]), a @ np.array([2.0, -1.0, 0.0])):
            with pytest.warns(IllConditioningWarning) as caught:
                r = minimize_psd_complement(QpProblem(t, a, b))
            assert [d.code for d in r.diagnostics][-1] == "psd_product_conditioning"
            messages.append([str(w.message) for w in caught])
        assert messages[0] == messages[1]

    def test_square_constraint_warns_once_per_factorization(self):
        # t = I makes a W = a: one warning for a W, one for the shortcut's a
        t, a = np.eye(3), np.diag([1.0, 1e-10, 1.0])
        for b in (np.ones(3), np.array([1.0, 2.0, 3.0])):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                solve(QpProblem(t, a, b))
            assert [w.category for w in caught] == [IllConditioningWarning] * 2

    def test_rectangular_shortcut_only_gates_the_class(self, count_linalg):
        p = QpProblem(*random_pd_problem(12, 6, seed=5))
        counts = count_linalg()
        assert try_cor1_shortcut(p) is None
        assert counts == {"eigh": 1, "cholesky": 0, "svd": 0, "qr": 0, "inv": 0, "solve": 0, "svdvals": 0}
        assert minimizers._memo is None
        with pytest.raises(NotPositiveDefiniteError):
            try_cor1_shortcut(QpProblem(EXAMPLE2_Q, EXAMPLE2_A, EXAMPLE2_B))

    def test_hit_keeps_the_route_class_errors(self):
        p = QpProblem(t=EXAMPLE2_Q, a=EXAMPLE2_A, b=EXAMPLE2_B)
        solve(p)
        with pytest.raises(NotPositiveDefiniteError):
            minimize_posdef_diag(p)
        with pytest.raises(NotPositiveDefiniteError):
            try_cor1_shortcut(p)
        q = QpProblem(t=np.eye(3), a=EXAMPLE2_A, b=EXAMPLE2_B)
        solve(q)
        with pytest.raises(NotSingularError):
            minimize_psd_complement(q)

    @pytest.fixture
    def gated(self, monkeypatch):
        """The live list of shapes the Hermitian gate ran on.

        The gate is `dense_core.hermitian`, which `_factorize` calls and
        `eigh` calls on an ungated matrix; both bindings are counted.
        """
        shapes = []
        gate = dense_core.hermitian

        def counted(x):
            shapes.append(np.shape(x))
            return gate(x)

        monkeypatch.setattr(dense_core, "hermitian", counted)
        monkeypatch.setattr(minimizers, "hermitian", counted)
        return shapes

    def test_hit_skips_the_hermitian_gate(self, gated, monkeypatch):
        compared = []
        same = minimizers._same

        def spied(kept, given):
            compared.append(given)
            return same(kept, given)

        monkeypatch.setattr(minimizers, "_same", spied)
        t, a, b = random_pd_problem(12, 6, seed=5)
        solve(QpProblem(t, a, b))
        assert (gated, compared) == ([t.shape], [])
        q = QpProblem(t.copy(), a, fresh_rhs(t, a, seed=1))
        assert compared == []  # the constructor neither gates nor reads the memo
        solve(q)
        assert gated == [t.shape]
        assert sum(x is q.t for x in compared) == 1
        # equal values in another dtype are another key
        solve(QpProblem(t.astype(np.complex128), a, b))
        assert gated == [t.shape] * 2

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize(
        "route",
        [solve, minimize_posdef, minimize_posdef_diag, minimize_psd_complement, try_cor1_shortcut],
        ids=lambda route: route.__name__,
    )
    def test_every_route_gates_t(self, route, warm):
        a, b = np.ones((1, 2)), np.ones(1)
        if warm:
            solve(QpProblem(np.array([[2.0, 1], [1, 2]]), a, b))
        p = QpProblem(np.array([[2.0, 1], [0, 2]]), a, b)
        with pytest.raises(NotHermitianError) as caught:
            route(p)
        assert str(caught.value) == "t deviates from its adjoint by 1.414e+00 (norm 3.000e+00)"

    def test_non_hermitian_entry_of_the_memo_shape_is_gated(self):
        t, a, b = random_pd_problem(12, 6, seed=5)
        solve(QpProblem(t, a, b))
        bent = t.copy()
        bent[0, 1] += 1.0
        with pytest.raises(NotHermitianError):
            solve(QpProblem(bent, a, b))
        assert minimizers._memo is None  # a rejected miss, like any miss, empties the slot

    def test_caller_mutation_in_place_is_gated(self):
        t, a, b = random_pd_problem(12, 6, seed=5)
        solve(QpProblem(t, a, b))
        t[0, 1] += 1.0  # the memo holds its own copy of t
        with pytest.raises(NotHermitianError):
            solve(QpProblem(t, a, b))

    def test_gate_runs_after_a_failed_factor_stage(self, gated):
        t, a, b = np.diag([1.0, -1.0]), np.ones((1, 2)), np.ones(1)
        with pytest.raises(NotPositiveError):
            solve(QpProblem(t, a, b))
        with pytest.raises(NotPositiveError):
            solve(QpProblem(t, a, b))
        assert gated == [t.shape] * 2

    @pytest.mark.parametrize("scale", [1e160, 1e-170, 1e-200])
    def test_hermitian_gate_at_extreme_scales_with_a_warm_memo(self, scale):
        t = scale * np.array([[2.0, 1], [1, 2]])
        solve(QpProblem(t, np.array([[1.0, 0.0]]), np.array([scale])))
        check_hermitian_gate_at(scale)

    @pytest.mark.parametrize("case", ["pd", "psd"])
    def test_a_miss_gates_t_once(self, gated, count_linalg, case):
        t, a, b = SHARED_OPERATORS[case]()
        counts = count_linalg()
        solve(QpProblem(t, a, b))
        # the certified Cholesky factor needs no eigh; the singular t, whose
        # Cholesky factorization fails, is factored by eigh from the same
        # gate; the second Cholesky factorization is that of the Gram of a W
        assert gated == [t.shape]
        assert (counts["cholesky"], counts["eigh"]) == ((2, 0) if case == "pd" else (2, 1))

    def test_failed_factor_stage_releases_the_slot(self, count_linalg):
        t, a, b = random_pd_problem(8, 3, seed=9)
        solve(QpProblem(t, a, b))
        with pytest.raises(NotPositiveError):
            solve(QpProblem(np.diag([1.0, -1.0]), np.ones((1, 2)), np.ones(1)))
        counts = count_linalg()
        solve(QpProblem(t, a, b))
        assert (counts["cholesky"], counts["eigh"]) == (2, 0)


def svd_row_factors(x, decide, cfg=None):
    """The thin-SVD construction that `_row_factors` replaced, kept as its reference."""
    fact = svd(x, full_matrices=False)
    decision = decide(fact.sigma, max(x.shape))
    k = decision.rank
    u, v = fact.u[:, :k], fact.v[:, :k]
    g = (u / fact.sigma[:k]).conj().T if cfg is not None else None
    return k, u, v, g, decision.sigma_kept_min


def observed(p, method):
    """What a caller sees of one solve on a cold memo.

    The method, the diagnostic codes with the `reduced_rank` value, and the
    warning classes, or the error class; and `x`.
    """
    minimizers._memo = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            r = solve(p, method)
        except QfminError as exc:
            return (type(exc), [w.category for w in caught]), None
    notes = [(d.code, d.value if d.code == "reduced_rank" else None) for d in r.diagnostics]
    return (r.method, notes, [w.category for w in caught]), r.xhat


def _duplicated_rows():
    t, a, _ = random_pd_problem(10, 4, seed=21)
    a[3] = a[0]
    return t, a, a @ np.ones(10)


def _psd_rank_below_m(complex_entries=False):
    return random_psd_problem(10, 6, rank=4, seed=22, complex_entries=complex_entries)


def _outside(case):
    """`case` with `b` moved off the range of ``a W``."""
    t, a, b = case()
    return t, a, b + np.linalg.svd(a @ projector_range(t))[0][:, -1]


def _square_singular():
    # the third row of a is the sum of the others, and so is the third entry of b
    return np.eye(3), np.array([[1.0, 0, 0], [0, 1, 0], [1, 1, 0]]), np.array([1.0, 2, 3])


KERNEL_CASES = {
    "duplicated-rows": _duplicated_rows,
    "duplicated-rows-infeasible": lambda: _outside(_duplicated_rows),
    "psd-rank-below-m": _psd_rank_below_m,
    "psd-rank-below-m-infeasible": lambda: _outside(_psd_rank_below_m),
    "square": lambda: random_pd_problem(8, 8, seed=23),
    "square-shortcut": lambda: astuple(truncated_problem(8))[:3],
    "square-singular": _square_singular,
    "complex-pd": lambda: random_pd_problem(12, 6, seed=24, complex_entries=True),
    "complex-psd": lambda: random_psd_problem(12, 6, rank=9, seed=24, complex_entries=True),
    "complex-psd-rank-below-m": lambda: _psd_rank_below_m(complex_entries=True),
    "ill-conditioned": lambda: (np.eye(3), np.array([[1.0, 0, 0], [0, 1e-9, 0]]), np.ones(2)),
}


class TestRowFactors:
    """The QR-first kernel against the thin SVD of ``a W`` it replaced."""

    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_matches_the_svd_reference(self, case, monkeypatch):
        p = QpProblem(*KERNEL_CASES[case]())
        definite = classify_spectrum(np.linalg.eigvalsh(p.t)) is SpectrumClass.POSITIVE_DEFINITE
        for method in (Method.AUTO, Method.POSDEF_DIAG if definite else Method.PSD_COMPLEMENT):
            got, x = observed(p, method)
            with monkeypatch.context() as m:
                m.setattr(minimizers, "_row_factors", svd_row_factors)
                want, ref = observed(p, method)
            assert got == want
            if ref is not None:
                assert fro_norm(x - ref) <= 1e-12 * fro_norm(ref)

    def test_rank_deficiency_is_kept(self):
        # the duplicated row leaves rank 3, and a b off that range is refused
        got, _ = observed(QpProblem(*_duplicated_rows()), Method.AUTO)
        assert ("reduced_rank", 3.0) in got[1]
        got, _ = observed(QpProblem(*_outside(_duplicated_rows)), Method.AUTO)
        assert got[0] is InfeasibleError
        got, _ = observed(QpProblem(*_outside(_psd_rank_below_m)), Method.AUTO)
        assert got[0] is InfeasibleOnComplementError

    @pytest.mark.parametrize("case", ["ill-conditioned", "psd-rank-below-m", "complex-psd"])
    def test_hit_repeats_the_miss(self, case):
        p = QpProblem(*KERNEL_CASES[case]())
        minimizers._memo = None
        runs = []
        for _ in range(2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                runs.append((solve(p), [(w.category, str(w.message)) for w in caught]))
        (miss, miss_warnings), (hit, hit_warnings) = runs
        assert outcome(miss) == outcome(hit)
        assert miss_warnings == hit_warnings
        assert miss_warnings or case != "ill-conditioned"


def _random_unitary(rng, n, complex_entries):
    g = rng.standard_normal((n, n))
    if complex_entries:
        g = g + 1j * rng.standard_normal((n, n))
    return np.linalg.qr(g)[0]


def _minimum_norm_reference(x, bs, mp):
    """``x* (x x*)^{-1} b`` for each column `b` of `bs`, with 40 digits, in complex128.

    Every part of `x` is an integer times ``2^-k`` for one `k`, so ``x x*``
    is formed exactly in integers; the system is then solved by Gaussian
    elimination on arrays of 40-digit numbers.
    """
    cplx = np.iscomplexobj(x) or np.iscomplexobj(bs)
    parts = (x.real, x.imag) if np.iscomplexobj(x) else (x,)
    k = max(52 - int(np.frexp(p[p != 0])[1].min()) + 1 for p in parts if p.any())
    ints = [np.array([int(v) for v in np.ldexp(p, k).ravel()], dtype=object).reshape(p.shape) for p in parts]
    real = sum(p @ p.T for p in ints)
    imag = ints[1] @ ints[0].T - ints[0] @ ints[1].T if len(ints) == 2 else None
    number = np.frompyfunc(mp.mpc if cplx else mp.mpf, 1, 1)
    with mp.workdps(40):
        exact = np.frompyfunc(lambda v: mp.ldexp(mp.mpf(v), -2 * k), 1, 1)
        gram = exact(real) if imag is None else number(exact(real) + 1j * exact(imag))
        w, xo = number(bs), number(x)
        for j in range(gram.shape[0]):
            pivot_col = gram[j + 1 :, j] / gram[j, j]
            gram[j + 1 :, j:] -= np.outer(pivot_col, gram[j, j:])
            w[j + 1 :] -= np.outer(pivot_col, w[j])
        for j in reversed(range(gram.shape[0])):
            w[j] = (w[j] - gram[j, j + 1 :] @ w[j + 1 :]) / gram[j, j]
        return ((xo.T.conj() if cplx else xo.T) @ w).astype(complex)


def _planted_rows(rng, m, kappa, cplx):
    """An m by 2m `x` with singular values graded from 1 to ``1/κ``, and ``[x z, b]`` for a point `z` and a generic `b`."""
    left, right = _random_unitary(rng, m, cplx), _random_unitary(rng, 2 * m, cplx)[:m]
    x = (left * np.logspace(0.0, -np.log10(kappa), m)) @ right
    z = rng.standard_normal((2 * m, 1)) + (1j * rng.standard_normal((2 * m, 1)) if cplx else 0.0)
    generic = rng.standard_normal((m, 1)) + (1j * rng.standard_normal((m, 1)) if cplx else 0.0)
    return x, np.hstack([x @ z, generic])


def _householder_factors(x):
    """``(v, g)`` of the certified path on the `R` of LAPACK's Householder QR, as it was before the Gram factor."""
    r = np.linalg.qr(x.conj().T, mode="r")
    g = np.linalg.inv(r.conj().T)
    v = x.conj().T @ g.conj().T
    return v, 2 * g - (v.conj().T @ v) @ g


def _decide(sigma, dim):
    return rank_decide(sigma, DEFAULT_TOL, dim=dim)


def _errors(x, bs, ref, *paths):
    """Per path ``(v, g)``, per column `b` of `bs`: the relative error of ``y = v g b`` against `ref`, then ``||x y - b|| / ||b||``."""
    return np.array(
        [[(_relative_gap(y, want), _relative_gap(x @ y, b)) for y, want, b in zip((v @ (g @ bs)).T, ref.T, bs.T)]
         for v, g in paths]
    )


class TestRowFactorAccuracy:
    """The certified ``pinv(x) = v g`` keeps the accuracy of ``Q R^{-*}``.

    `x` is m by 2m with planted singular values graded from 1 to ``1/κ``,
    real or complex.  `b` is the image ``x z`` of a point, as the feasible
    `b` of a solve is, or a generic vector, which weights ``y = pinv(x) b``
    toward the least singular value.  Errors are relative errors of `y`
    and relative residuals ``||x y - b|| / ||b||``.  κ runs in bands up to
    the rank certificate's edge: ``||R||_F ||R^{-*}||_F`` below ``1 /
    (CERTIFICATE_MARGIN WARN_RATIO) = 1e5``, and ``κ_F f^2`` below
    ``FEAS_TOL / CERTIFICATE_MARGIN`` (`minimizers._certified_inverse`).

    `R` comes from the Gram ``x x*``, so ``R^{-1}`` carries an error of
    order ``eps κ^2``; the Schulz step squares it away.  Without the step,
    the residual grew as ``eps κ^2``: with the `R` of a Householder QR, at
    30 by 60, κ = 1e4 and a generic `b`, it read 2.8e-9, against 2.9e-13
    through `Q`.
    """

    def test_certified_factors_keep_the_accuracy_of_q(self, monkeypatch):
        # 8 by 16 against a 40-digit reference: every draw up to κ = 1e4 is
        # certified and every draw at 1e6 refused.  Per band, the certified
        # factors' worst error and residual are at most 3 times those of the
        # refused path's Q R^{-*} b on the same draws.  On this seed they read
        # 0.52 and 1.6 times; over six other seeds, up to 1.3 and 3.6 times,
        # where the R of a Householder QR read up to 0.76 and 2.3 times.  The
        # comparison with Householder's R over many draws is the next test.
        mp = pytest.importorskip("mpmath").mp
        rng = np.random.default_rng(20261019)
        ratio = max(WARN_RATIO, DEFAULT_TOL.effective_rtol(16))
        worst = {}
        for kappa, cplx, _ in itertools.product((1.0, 1e1, 1e2, 1e3, 1e4, 1e6), (False, True), range(3)):
            x, bs = _planted_rows(rng, 8, kappa, cplx)
            certified = minimizers._certified_inverse(x, ratio) is not None
            assert certified == (kappa < 1e5), kappa
            if not certified:
                continue
            _, _, v, g, _ = minimizers._row_factors(x, _decide, DEFAULT_TOL)
            with monkeypatch.context() as m:
                m.setattr(minimizers, "_certifies", lambda *args: False)
                _, _, q, g_q, _ = minimizers._row_factors(x, _decide, DEFAULT_TOL)
            errors = _errors(x, bs, _minimum_norm_reference(x, bs, mp), (v, g), (q, g_q))
            worst[kappa] = np.maximum(worst.get(kappa, 0.0), errors)
        for kappa, (certified, full) in worst.items():
            assert (certified <= 3 * full).all(), (kappa, certified, full)

    def test_gram_factors_keep_the_accuracy_of_householder_at_m_8(self):
        # 8 by 16 against a 40-digit reference, over seeds 1 to 8, 48 draws
        # per band, all certified.  Per band, the worst error of the Gram's
        # factors is at most 2 times that of the same formula on the R of a
        # Householder QR, and the worst residual at most 5 times: over 15
        # disjoint runs of 8 seeds, they read at most 1.67 and 4.0 times.
        # The residual's tail is the heavier at κ = 1e4: over 720 draws
        # there, its worst was 2.0 eps κ against Householder's 0.81 eps κ.
        mp = pytest.importorskip("mpmath").mp
        ratio = max(WARN_RATIO, DEFAULT_TOL.effective_rtol(16))
        worst = {}
        for seed in range(1, 9):
            rng = np.random.default_rng(seed)
            for kappa, cplx, _ in itertools.product((1.0, 1e1, 1e2, 1e3, 1e4), (False, True), range(3)):
                x, bs = _planted_rows(rng, 8, kappa, cplx)
                assert minimizers._certified_inverse(x, ratio) is not None, kappa
                _, _, v, g, _ = minimizers._row_factors(x, _decide, DEFAULT_TOL)
                errors = _errors(x, bs, _minimum_norm_reference(x, bs, mp), (v, g), _householder_factors(x))
                worst[kappa] = np.maximum(worst.get(kappa, 0.0), errors)
        for kappa, (gram, house) in worst.items():
            assert (gram[:, 0] <= 2 * house[:, 0]).all() and (gram[:, 1] <= 5 * house[:, 1]).all(), (kappa, gram, house)

    def test_gram_factors_keep_the_accuracy_of_householder(self):
        # 40 by 80 against a 40-digit reference, every draw certified.  Per
        # band, the worst error and residual of the Gram's factors, over its
        # real and complex draw, are at most 2 times those of the same
        # formula on the R of a Householder QR.  Over 40 seeds they were at
        # most 1.61 and 1.62 times; draw by draw the residual's ratio, of two
        # rounding errors, reached 2.08 on two of them.  3 times those of Q
        # would not hold for either formula at this size: the residual of
        # Householder's read 5.7 times Q's at 30 by 60, κ = 1e4.
        mp = pytest.importorskip("mpmath").mp
        rng = np.random.default_rng(20261020)
        ratio = max(WARN_RATIO, DEFAULT_TOL.effective_rtol(80))
        worst = {}
        for kappa, cplx in itertools.product((1e1, 1e2, 1e3, 1e4), (False, True)):
            x, bs = _planted_rows(rng, 40, kappa, cplx)
            assert minimizers._certified_inverse(x, ratio) is not None, kappa
            _, _, v, g, _ = minimizers._row_factors(x, _decide, DEFAULT_TOL)
            errors = _errors(x, bs, _minimum_norm_reference(x, bs, mp), (v, g), _householder_factors(x))
            worst[kappa] = np.maximum(worst.get(kappa, 0.0), errors)
        for kappa, (gram, house) in worst.items():
            assert (gram <= 2 * house).all(), (kappa, gram, house)

    def test_gram_factors_track_q_at_m_200(self, monkeypatch):
        # 200 by 400 in float64, every draw certified: the gaps of y and of
        # the residual to those of the refused path's Q R^{-*} b are at most
        # 2 times those of Householder's R; over four seeds, this one among
        # them, they were at most 1.03 and 1.21 times
        rng = np.random.default_rng(20261021)
        ratio = max(WARN_RATIO, DEFAULT_TOL.effective_rtol(400))
        for kappa, cplx in itertools.product((1e1, 1e3), (False, True)):
            x, bs = _planted_rows(rng, 200, kappa, cplx)
            assert minimizers._certified_inverse(x, ratio) is not None, kappa
            _, _, v, g, _ = minimizers._row_factors(x, _decide, DEFAULT_TOL)
            with monkeypatch.context() as m:
                m.setattr(minimizers, "_certifies", lambda *args: False)
                _, _, q, g_q, _ = minimizers._row_factors(x, _decide, DEFAULT_TOL)
            y_q = q @ (g_q @ bs)
            gram, house = _errors(x, bs, y_q, (v, g), _householder_factors(x))
            assert (gram <= 2 * house).all(), (kappa, cplx, gram, house)

    def test_a_refused_x_takes_its_inverse_from_its_own_r(self):
        # κ = 5e4 at 2 by 4: the Gram factor passes its pre-screen and s, but
        # κ_F f^2 = 1.4e-9 fails the residual gate.  The refused path inverts
        # the R of its Householder QR, whose rounding and diagonal signs
        # differ from the Gram's: v g is pinv(x) to rounding
        x, _ = _planted_rows(np.random.default_rng(1), 2, 5e4, False)
        ratio = max(WARN_RATIO, DEFAULT_TOL.effective_rtol(4))
        rule = lambda bound: minimizers._certifies(bound, ratio * fro_norm(x))  # noqa: E731
        dense_core.gram_cholesky(x, rule)  # raises where the rule refuses
        assert minimizers._certified_inverse(x, ratio) is None
        rank, u, v, g, _ = minimizers._row_factors(x, _decide, DEFAULT_TOL)
        assert (rank, u) == (2, None)
        want = np.linalg.pinv(x)
        assert fro_norm(v @ g - want) <= 1e-9 * fro_norm(want)

    @pytest.mark.parametrize("kappa", [1e2, 1e6], ids=["certified", "refused"])
    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    def test_the_factors_scale_exactly(self, kappa, cplx):
        # 2^540 x has an ||x||^2 above the float64 range and 2^-540 x one
        # below it: both take the verdict of x, and v g scales by 2^-k exactly
        x, _ = _planted_rows(np.random.default_rng(2), 20, kappa, cplx)
        rank, u, v, g, _ = minimizers._row_factors(x, _decide, DEFAULT_TOL)
        ratio = max(WARN_RATIO, DEFAULT_TOL.effective_rtol(40))
        assert (minimizers._certified_inverse(x, ratio) is not None) == (kappa < 1e5)
        for k in (540, -540):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                got = minimizers._row_factors(x * 2.0**k, _decide, DEFAULT_TOL)
            assert got[:2] == (rank, u) == (20, None)
            assert np.array_equal(got[2], v) and np.array_equal(got[3], g * 2.0**-k)


def _planted_case(rng, complex_entries, m_vs_rank, edge):
    """A singular `t` of rank r, with m below, at or above r, and a constraint to match.

    The nonzero eigenvalues of `t` are equal or spread over [1, 100].  Row 0
    of `a` may lie at a cosine δ in [1e-13, 1e-1] to the range of `t`,
    drawn near `edge`, the cosine ratio at which a rank decision drops a
    value or warns, half of the time; its part along that range is then
    small or as long as the other rows.  The rows may be graded over 1e±10,
    and `t` and `a` are each scaled by 1e-150, 1 or 1e150.  `b` is the
    image of a point in the range of `t`, or, above rank, now and then a
    generic (infeasible) `b`.
    """
    n = int(rng.integers(5, 31))
    r = int(rng.integers(2, n - 1))
    m = {"below": r - 1, "equal": r, "above": r + 1}[m_vs_rank]
    q = _random_unitary(rng, n, complex_entries)
    lam = np.zeros(n)
    lam[:r] = 10.0 ** rng.uniform(0.0, 2.0, 1 if rng.random() < 0.5 else r)
    t = (q * lam) @ q.conj().T
    t = (t + t.conj().T) / 2
    a = rng.standard_normal((m, n))
    if complex_entries:
        a = a + 1j * rng.standard_normal((m, n))
    if rng.random() < 0.7:
        if rng.random() < 0.5:
            delta = min(edge * 10.0 ** rng.uniform(-1.0, 3.0), 0.1)
        else:
            delta = 10.0 ** rng.uniform(-13.0, -1.0)
        # the row, or its part along the range of t, as long as the other rows
        size = np.sqrt(n) / (delta if rng.random() < 0.5 else 1.0)
        a[0] = size * (delta * q[:, 0] + np.sqrt(1.0 - delta**2) * q[:, -1]).conj()
    if rng.random() < 0.3:
        a *= np.logspace(-10.0, 10.0, m)[rng.permutation(m), None]
    t = t * rng.choice([1e-150, 1.0, 1e150])
    a = a * rng.choice([1e-150, 1.0, 1e150])
    if m_vs_rank == "above" and rng.random() < 0.3:
        return t, a, a @ rng.standard_normal(n)
    return t, a, a @ (q[:, :r] @ rng.standard_normal(r))


def _planted_row_case(rng, kind, complex_entries, edges, decades=2.0):
    """A feasible problem whose ``a W`` has planted singular values, of condition number κ.

    `t` is definite (`kind` "pd", or "square" for m = n) or of rank r
    ("psd"), with its nonzero eigenvalues spread over [1, 10^decades].
    ``a W`` is ``U Σ V*`` with ``Σ`` graded from 1 to ``1/κ``; κ is drawn
    within 1.5 decades of one of `edges` half of the time, else anywhere in
    [1, 1e13].  A singular `t` adds a random part of `a` along its kernel,
    which ``a W`` does not see.  `t` and `a` are each scaled by 1e-150, 1
    or 1e150, and `b` is the image of a point in the range of `t`.
    """
    n = int(rng.integers(3, 31))
    r = int(rng.integers(2, n)) if kind == "psd" else n
    m = n if kind == "square" else int(rng.integers(1, r + 1))
    q = _random_unitary(rng, n, complex_entries)
    lam = np.zeros(n)
    lam[:r] = 10.0 ** rng.uniform(0.0, decades, r)
    t = (q * lam) @ q.conj().T
    if rng.random() < 0.5:
        kappa = min(rng.choice(edges) * 10.0 ** rng.uniform(-1.5, 1.5), 1e13)
    else:
        kappa = 10.0 ** rng.uniform(0.0, 13.0)
    grades = np.sort(np.r_[0.0, 1.0, rng.random(m - 2)]) if m > 1 else np.zeros(1)
    u, v = _random_unitary(rng, m, complex_entries), _random_unitary(rng, r, complex_entries)
    aw = (u * kappa**-grades) @ v[:m]
    a = (aw * np.sqrt(lam[:r])) @ q[:, :r].conj().T
    if r < n:
        a = a + rng.standard_normal((m, n - r)) @ q[:, r:].conj().T
    t = (t + t.conj().T) / 2 * rng.choice([1e-150, 1.0, 1e150])
    a = a * rng.choice([1e-150, 1.0, 1e150])
    return t, a, a @ (q[:, :r] @ rng.standard_normal(r))


def _definite_case(rng, complex_entries, least=None):
    """A feasible problem whose `t` has a planted spectrum, and that spectrum.

    n ≤ 30 and m ≤ n, square now and then.  The eigenvalues of `t` are
    graded from 1 down to ``1/κ``, with κ from 1 to 1e14; `least`, where
    given, replaces the last (a negative one makes `t` indefinite).  `t` is
    scaled by 1e-150, 1 or 1e150, and `b` is the image of a random point.
    """
    n = int(rng.integers(2, 31))
    m = n if rng.random() < 0.2 else int(rng.integers(1, n + 1))
    q = _random_unitary(rng, n, complex_entries)
    lam = 10.0 ** -(rng.uniform(0.0, 14.0) * np.sort(np.r_[0.0, 1.0, rng.random(n - 2)]))
    lam[-1] = lam[-1] if least is None else least
    scale = rng.choice([1e-150, 1.0, 1e150])
    t = (q * lam) @ q.conj().T
    t = (t + t.conj().T) / 2 * scale
    a = rng.standard_normal((m, n))
    if complex_entries:
        a = a + 1j * rng.standard_normal((m, n))
    return t, a, a @ rng.standard_normal(n), lam * scale


def _planted_draws():
    rng = np.random.default_rng(20260418)
    for draw, cplx, m_vs_rank in itertools.product(range(24), (False, True), ("below", "equal", "above")):
        rtol = (None, 1e-6, 1e-3)[draw % 3]
        t, a, b = _planted_case(rng, cplx, m_vs_rank, max(WARN_RATIO, rtol or 0.0))
        yield (draw, cplx, m_vs_rank, rtol), QpProblem(t, a, b, ToleranceConfig(rtol=rtol))


def _planted_row_draws():
    rng = np.random.default_rng(20261018)
    for draw, kind, cplx in itertools.product(range(18), ("pd", "psd", "square"), (False, True)):
        rtol = (None, 1e-6, 1e-3)[draw % 3]
        effective = rtol or 30 * _EPS
        # the rank certificate's edge, the warning's and the rank threshold's
        edges = [1.0 / (CERTIFICATE_MARGIN * max(WARN_RATIO, effective)), 1.0 / WARN_RATIO, 1.0 / effective]
        t, a, b = _planted_row_case(rng, kind, cplx, edges)
        yield (draw, kind, cplx, rtol), QpProblem(t, a, b, ToleranceConfig(rtol=rtol))


def _definite_draws():
    rng = np.random.default_rng(20261019)
    for draw in range(60):
        t, a, b, lam = _definite_case(rng, draw % 2 == 1)
        # around the least eigenvalue: above it, eigh calls t singular
        pd_tol = float(lam.min() * 10.0 ** rng.uniform(-4.0, 1.0)) if draw % 3 == 2 else None
        tol = ToleranceConfig(rtol=(None, 1e-10, None, 1e-6)[draw % 4], pd_tol=pd_tol)
        yield (draw, tol), QpProblem(t, a, b, tol)


def _added_draws():
    rng = np.random.default_rng(20261020)
    for draw in range(24):
        cplx = draw % 4 >= 2
        tol = ToleranceConfig(rtol=1e-9, pd_tol=1e-12) if draw % 3 else ToleranceConfig()
        if draw % 2:
            t, a, b = _planted_row_case(rng, "pd", cplx, [1e4, 1e8, 1e12], decades=8.0)
        else:
            # the least eigenvalue is -1e-14 to -1 times the largest
            t, a, b, _ = _definite_case(rng, cplx, least=-(10.0 ** -rng.uniform(0.0, 14.0)))
        yield (draw, cplx, tol), QpProblem(t, a, b, tol)


# The corpus of `TestCertificates`: each part's draws, and the tallies that must reach 5 over it.  The
# first three parts are, draw for draw, the sweeps that checked each certificate on its own; the last adds
# an indefinite `t`, `pd_tol` and `rtol` set together, and cond(T) up to 1e8 under ``a W`` of κ up to 1e13.
CERTIFICATE_CORPUS = {
    "planted": (_planted_draws, ("conditioning certified", "conditioning refused", "noted", "conditioning warned")),
    "planted-row": (_planted_row_draws, ("rank certified", "rank refused-quiet", "rank dropped", "rank warned")),
    "definite": (_definite_draws, ("cholesky certified", "cholesky refused-definite", "cholesky refused-singular")),
    "added": (_added_draws, ("cholesky certified", "cholesky refused-singular", "rank warned")),
}


def _agreement_bound(p):
    """``max(1e-12, eps (cond(T) + √cond(T) κ(A W)))``, κ over the kept values.

    cond(T) and `W` are taken on the range of a singular `t`: its
    eigenvalues above ``rtol λ_max``, floored at ABS_FLOOR.
    """
    w, q = np.linalg.eigh(p.t)
    if classify_spectrum(w, p.tol) is not SpectrumClass.POSITIVE_DEFINITE:
        keep = w > max(p.tol.effective_rtol(w.size) * np.abs(w).max(), ABS_FLOOR)
        w, q = w[keep], q[:, keep]
    sigma = np.linalg.svd(p.a @ (q / np.sqrt(w)), compute_uv=False)
    kept = sigma[sigma > max(p.tol.effective_rtol(max(p.a.shape)) * sigma.max(initial=0.0), ABS_FLOOR)]
    kappa = kept[0] / kept[-1] if kept.size else 1.0
    return max(1e-12, _EPS * (w[-1] / w[0] + np.sqrt(w[-1] / w[0]) * kappa))


def _relative_gap(x, ref):
    gap, size = fro_norm(np.atleast_1d(x - ref)), fro_norm(np.atleast_1d(ref))
    return gap / size if size else (np.inf if gap else 0.0)


_NUMBER = re.compile(r"[-+]?\d+(?:\.\d*)?(?:e[-+]?\d+)?")


def _rounding_gap(got, want):
    """The largest `_relative_gap` of `x`, the minimum and the warnings' values, once all else is equal.

    The method, the diagnostics, `reduced_rank`, the warning classes and
    texts with their numbers masked, and any error must be equal.
    """
    (seen, caught), (ref, ref_caught) = got, want
    masked = [[(c, _NUMBER.sub("#", text)) for c, text, _ in w] for w in (caught, ref_caught)]
    assert masked[0] == masked[1]
    gaps = [_relative_gap(v, u) for (*_, v), (*_, u) in zip(caught, ref_caught) if u is not None]
    if isinstance(ref, QfminError) or isinstance(seen, QfminError):
        assert outcome(seen) == outcome(ref)
        return max(gaps, default=0.0)

    # the shortcut's gap to x is a rounding-level number of its own
    notes = [[(d.code, d.message, d.value if d.code == "reduced_rank" else d.value is None) for d in r.diagnostics]
             for r in (seen, ref)]
    assert (seen.method, notes[0]) == (ref.method, notes[1])
    return max(gaps + [_relative_gap(seen.xhat, ref.xhat), _relative_gap(seen.min_value, ref.min_value)])


# ``(t, a, b, cholesky, rank)``: edge inputs, the verdict of `_cholesky_root`, and those of `_certified_inverse` in AUTO
CERTIFICATE_EDGES = {
    # the diagonal rules out a Cholesky factorization before it runs
    "zero-diagonal": (np.diag([1.0, 0, 2]), np.ones((1, 3)), np.ones(1), False, [True]),
    "negative-diagonal": (np.diag([1.0, -1.0]), np.ones((1, 2)), np.ones(1), False, []),
    # singular, and the Cholesky factorization meets a zero pivot
    "cholesky-raises": (np.ones((2, 2)), np.array([[1.0, 0]]), np.ones(1), False, [True]),
    # singular to rtol: the factorization succeeds with the pivot 2^-25
    "tiny-pivot": (np.array([[1.0, 1], [1, 1 + 2.0**-50]]), np.array([[1.0, 0]]), np.ones(1), False, [True]),
    # W = 1e100 I, so R^{-*} is near 1e-100
    "tiny-t": (1e-200 * np.eye(3), np.array([[1.0, 2, 0], [0, 1, 1]]), np.ones(2), True, [True]),
    # 1e-300 I: s^2 = 1e-300 / 3 is below CERTIFICATE_MARGIN * ABS_FLOOR
    "floor-t": (1e-300 * np.eye(3), np.array([[1.0, 2, 0], [0, 1, 1]]), np.ones(2), False, [True]),
    "huge-t": (1e300 * np.array([[2.0, 1], [1, 3]]), np.ones((1, 2)), np.ones(1), True, [True]),
    "near-max-t": (1e308 * np.array([[1.0, 0.5], [0.5, 1]]), np.ones((1, 2)), np.ones(1), True, [True]),
    # ||t||_F overflows, so the gate's bound is inf
    "norm-overflows": (1.5e308 * np.array([[1.0, 0.5], [0.5, 1]]), np.ones((1, 2)), np.ones(1), False, []),
    "zero-rows": (np.eye(3), np.zeros((0, 3)), np.zeros(0), True, [False]),
    "zero-a": (np.eye(3), np.zeros((2, 3)), np.zeros(2), True, [False]),
    # R has an exact zero on its diagonal, so it is not inverted
    "singular-r": (np.eye(3), np.array([[1.0, 2, 0], [2, 4, 0]]), np.array([3.0, 6]), True, [False]),
    # R near 1e-309: the inverses of a W and of the square a would overflow;
    # b = 0 is feasible at rank 0, so the shortcut runs
    "tiny-r": (np.eye(2), 1e-309 * np.array([[1.0, 0.3], [0.2, 1]]), np.zeros(2), True, [False] * 2),
    # R near 1e-300: its diagonal, and so σ_min, is below the floor
    "floor-r": (np.eye(2), 1e-300 * np.array([[1.0, 0.3], [0.2, 1]]), np.zeros(2), True, [False] * 2),
    # R = I minus the ones above its diagonal: the diagonal passes, but
    # σ_min / σ_max = 1.5e-10 warns, and only ||R^{-*}||_F refuses
    "flat-diagonal-r": (np.eye(30), np.eye(30) - np.tri(30, k=-1), 1.0 - np.arange(30), True, [False] * 2),
}


class TestCertificates:
    """Each certificate stands in for a factorization or a decision only where that changes nothing.

    `_cholesky_root` stands in for the `eigh` of a definite `t`,
    `_certified_inverse` for the values-only SVD of `R`, and
    `_conditioning_certified` for the factorization of `a` for the PSD
    note.  All decide by `minimizers._certifies`, so patching it to refuse
    runs the uncertified path everywhere.  Each problem is solved on a cold
    memo with every certificate allowed, and with all refused.

    Where no certificate of `_cholesky_root` or `_certified_inverse`
    passed, both solves take the same factors and must match to the byte.
    Where the Cholesky certificate passed, the two `W` differ by a unitary
    factor; where a rank certificate passed, the allowed solve takes ``y =
    v (g b)`` with ``v = (A W)* R^{-1}``, `R` the Cholesky factor of the
    Gram of ``A W``, and ``g`` the Schulz step from ``R^{-*}``
    (`_certified_inverse`), and the refused one ``Q R^{-*} b`` from a
    Householder QR.  Then all but `x`, the minimum and the warnings' numbers
    must be equal, and those within ``B = max(1e-12, eps (cond(T) + √cond(T)
    κ(A W)))``, the first-order bound on the minimum-norm solution (Higham,
    Accuracy and Stability of Numerical Algorithms, chapters 20-21) up to
    constants, with cond(T) on the range of a singular `t`.  Each path
    factors ``T + E``, ``||E|| <= c eps ||T||``, which moves `x` by ``-Z
    (Z* T Z)^{-1} Z* E x`` (`Z` spanning the null space of `a`), at most
    ``c eps cond(T) ||x||``, and the minimum ``<x, T x>`` by ``<x, E x>``.
    Its QR gives ``y = pinv(A W) b`` to ``c eps κ(A W) ||y||``, which ``x =
    W y`` scales by at most ``||W|| ||W^{-1}|| = √cond(T)``.  With `R` from
    a backward-stable QR, ``(A W)* R^{-1} R^{-*} b`` has an error of that
    same order ``c eps κ(A W) ||y||`` (Paige, Math. Comp. 27, 1973; Björck,
    Numerical Methods for Least Squares Problems, 1996).  The `R` of the
    Gram is not that, but after the Schulz step its error of `y` read
    within 2 times that of Householder's `R` (`TestRowFactorAccuracy`);
    the rank certificate admits only ``κ(A W) <= ||R||_F ||R^{-*}||_F``
    below ``1 / (CERTIFICATE_MARGIN max(WARN_RATIO, rtol))``, at most 1e5,
    where the constant stays small.  ``A W`` is accurate to ``eps
    √cond(T)``, so its printed ``σ_min / σ_max`` to κ(A W) times that.
    The floor covers the constants at n <= 30.  Over the corpus the largest
    gap was 0.23 B on the 243 solves whose Cholesky certificate passed,
    and 0.19 B on the 138 where only a rank certificate did; ``max(1e-12,
    eps cond(T))`` fails on 52 of the 243.
    """

    @staticmethod
    def run(p, method, refuse, monkeypatch):
        """``(result or error, [(category, text, value) of each warning])`` of a cold solve, and a log.

        The log holds each certificate's verdicts in call order, a refused
        rank certificate with whether the decision it leaves kept every
        value and stayed quiet, the notes of each `_complement_conditioning`
        and whether it warned, and the memo's `spectra`.
        """
        log = {"cholesky": [], "rank": [], "conditioning": [], "notes": []}
        with monkeypatch.context() as m, warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            warnings.simplefilter("error", RuntimeWarning)

            def spy(name, record):
                real = getattr(minimizers, name)

                def spied(*args, **kwargs):
                    before = len(caught)
                    out = real(*args, **kwargs)
                    record(out, args[0], len(caught) == before)
                    return out

                m.setattr(minimizers, name, spied)

            def decided(decision, sigma, quiet):
                if log["rank"] and log["rank"][-1] == [False]:
                    log["rank"][-1] += [decision.rank == sigma.size, quiet]

            spy("_cholesky_root", lambda root, *_: log["cholesky"].append(root is not None))
            spy("_certified_inverse", lambda out, *_: log["rank"].append([out is not None]))
            spy("rank_decide", decided)
            spy("_conditioning_certified", lambda passed, *_: log["conditioning"].append(passed))
            spy("_complement_conditioning", lambda notes, _, quiet: log["notes"].append((notes, not quiet)))
            m.setattr(minimizers, "_memo", None)
            if refuse:
                m.setattr(minimizers, "_certifies", lambda *args: False)
            try:
                seen = solve(p, method)
            except QfminError as exc:
                seen = exc
            log["spectra"] = minimizers._memo and minimizers._memo.spectra
        return (seen, [(w.category, str(w.message), getattr(w.message, "value", None)) for w in caught]), log

    def compare(self, p, method, monkeypatch):
        """Assert that `p` solves alike with every certificate allowed and refused, and that each verdict held.

        Returns the allowed solve and log, and a tally of the verdicts.
        """
        got, log = self.run(p, method, False, monkeypatch)
        want, exact = self.run(p, method, True, monkeypatch)
        assert len(log["cholesky"]) == len(exact["cholesky"]) <= 1
        if any(log["cholesky"]) or any(passed for passed, *_ in log["rank"]):
            assert _rounding_gap(got, want) <= _agreement_bound(p)
        else:
            assert (outcome(got[0]), got[1]) == (outcome(want[0]), want[1])
        tally = Counter()
        # a certified class is the class eigh gives
        definite = classify_spectrum(np.linalg.eigvalsh(p.t), p.tol) is SpectrumClass.POSITIVE_DEFINITE
        for passed in log["cholesky"]:
            assert definite or not passed
            tally[f"cholesky {'certified' if passed else 'refused-definite' if definite else 'refused-singular'}"] += 1
        # a certified rank: the decision it skipped keeps every value and stays quiet
        assert len(log["rank"]) == len(exact["rank"])
        for (passed, *_), (_, kept, quiet) in zip(log["rank"], exact["rank"]):
            assert not passed or (kept and quiet)
            tally.update({"rank certified": passed, "rank refused-quiet": not passed and kept and quiet})
            tally.update({"rank dropped": not kept, "rank warned": not quiet})
        # a certified conditioning: the note's code notes and warns nothing,
        # and neither skipped decision drops a value
        assert len(log["conditioning"]) == len(exact["notes"])
        for passed, (notes, warned) in zip(log["conditioning"], exact["notes"]):
            if passed:
                assert (notes, warned) == ([], False)
                assert len(exact["spectra"]) == len(log["spectra"]) + 2 + sum(v[0] for v in log["rank"])
                for sigma, dim in exact["spectra"][-2:]:
                    assert rank_decide(sigma, p.tol, dim=dim).rank == sigma.size
            tally.update({"conditioning certified": passed, "conditioning refused": not passed})
            tally.update({"noted": bool(notes), "conditioning warned": warned})
        return got, log, tally

    @pytest.mark.parametrize("part", list(CERTIFICATE_CORPUS))
    def test_matches_the_refused_solve(self, part, monkeypatch):
        draws, tallies = CERTIFICATE_CORPUS[part]
        tally = Counter()
        for case, p in draws():
            for method in (Method.AUTO, Method.POSDEF_DIAG, Method.PSD_COMPLEMENT):
                try:
                    tally += self.compare(p, method, monkeypatch)[2]
                except AssertionError as exc:
                    raise AssertionError((*case, method)) from exc
        assert min(tally[name] for name in tallies) >= 5, tally

    @pytest.mark.parametrize("edge", list(CERTIFICATE_EDGES))
    def test_edge_inputs(self, edge, monkeypatch, count_linalg):
        # each run turns RuntimeWarning into an error
        t, a, b, cholesky, rank = CERTIFICATE_EDGES[edge]
        p = QpProblem(t, a, b)
        counts = count_linalg()
        for method in (Method.AUTO, Method.POSDEF_DIAG, Method.PSD_COMPLEMENT):
            before = dict(counts)
            got, seen = self.run(p, method, False, monkeypatch)
            ran = {name: counts[name] - before[name] for name in counts}
            _, log, _ = self.compare(p, method, monkeypatch)
            assert log["cholesky"] == [cholesky], method
            assert method is not Method.AUTO or [v[0] for v in log["rank"]] == rank
            # the diagonal refuses before the Cholesky factorization of t, and
            # each rank certificate factors a Gram; a certificate needs no eigh
            assert ran["cholesky"] == (t.diagonal().min() > 0) + len(seen["rank"]), method
            assert ran["eigh"] == (not cholesky), method
        # a definite t is not sent down the singular route
        assert not cholesky or isinstance(got[0], NotSingularError)

    def test_refusing_reaches_every_certificate(self, monkeypatch, count_linalg):
        psd, pd = QpProblem(*random_psd_problem(12, 6, rank=9, seed=5)), QpProblem(*random_pd_problem(12, 6, seed=5))
        counts = count_linalg()
        # a singular t costs what an uncertified psd miss does (TestFactorizationCounts),
        # plus the Cholesky factorization that its positive diagonal allows
        self.run(psd, Method.AUTO, True, monkeypatch)
        assert counts == {"eigh": 1, "cholesky": 2, "svd": 0, "qr": 2, "inv": 1, "solve": 0, "svdvals": 3}
        # a definite t goes to eigh, and R to its values-only SVD; each
        # miss also factors the Gram of a W, for the refused rank certificate
        before = dict(counts)
        self.run(pd, Method.AUTO, True, monkeypatch)
        ran = {name: counts[name] - before[name] for name in counts}
        assert ran == {"eigh": 1, "cholesky": 2, "svd": 0, "qr": 1, "inv": 1, "solve": 0, "svdvals": 1}

    def test_inverse_without_a_certificate(self):
        # x = R*, whose Gram has the Cholesky factor R.  An empty R is not
        # inverted; the Gram of a zero R, or of a 1e-200 diagonal under a
        # 1e-80 entry, is not numerically definite; one near 1e-309 has a
        # diagonal below the floor; and the pivot 2e-8 that the singular one
        # leaves, or one of 1e-7 under 1, fails against ratio ||x||_F
        not_inverted = (
            np.zeros((0, 0)),
            np.zeros((2, 2)),
            np.ones((2, 2)),
            1e-309 * np.array([[1.0, 0.3], [0, 1]]),
            1e-200 * np.array([[1.0, 1e120], [0, 1]]),
            1e-200 * np.array([[1.0, 0, 0], [0, 1, 1e120], [0, 0, 1]]),
            np.diag([1.0, 1e-7]),
        )
        for r in not_inverted:
            assert minimizers._certified_inverse(r.conj().T, WARN_RATIO) is None
        # an inverse with inf or NaN entries certifies nothing: the pivots
        # pass, and the entries 2^(i-j-1) 1e290 of the inverse overflow.  A
        # Gram whose factor is this l is not numerically definite, so the
        # check of the recursion refuses the inverse the leaves give, and
        # that inverse with a NaN as well
        l = 1e-290 * (np.eye(64) - np.tri(64, k=-1))
        with np.errstate(over="ignore", invalid="ignore"):
            g = dense_core._tri_inv(l)
        assert np.isinf(g).any()
        rule = lambda bound: minimizers._certifies(bound, WARN_RATIO * fro_norm(l))  # noqa: E731
        assert rule(dense_core._pivot_bound(np.diagonal(l))[0])
        for inverse in (g, np.where(np.isinf(g), np.nan, g)):
            with pytest.raises(FactorizationError, match="triangular inverse overflowed"):
                dense_core._checked_inverse(l, inverse)
        v, g, s = minimizers._certified_inverse(1e-200 * np.eye(2), WARN_RATIO)
        assert fro_norm(v @ g - 1e200 * np.eye(2)) <= 4 * _EPS * 1e200
        assert s == pytest.approx(1e-200 / np.sqrt(2), rel=4 * _EPS)

    def test_the_bound_covers_the_rounding_of_eigh(self, monkeypatch):
        # with pd_tol = 1e-300 and λ_min = 1e-17 ||t||, the factorization
        # gives s^2 = 3.5e-17, but eigh finds λ_min = -5.3e-17 and calls t
        # singular; only the n eps ||t|| term of the bound refuses
        rng = np.random.default_rng(7)
        q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        t = (q * np.logspace(0.0, -17.0, 4)) @ q.T
        p = QpProblem((t + t.T) / 2, np.ones((1, 4)), np.ones(1), ToleranceConfig(pd_tol=1e-300))
        (got, _), log, _ = self.compare(p, Method.AUTO, monkeypatch)
        assert (log["cholesky"], got.method) == ([False], Method.PSD_COMPLEMENT)

    @pytest.mark.parametrize("n, cplx", [(300, False), (400, True), (1000, False)], ids=["300", "400c", "1000"])
    def test_the_block_recursion_keeps_x_within_b(self, monkeypatch, n, cplx):
        # t of cond 1e2 to 1e9 on a random basis, past several leaves of the
        # recursion: AUTO's W = L^{-*}, where its certificate passes, and
        # the square-root reference's T^{-1/2} give x and the minimum within
        # B, as they did with LAPACK's factor and tri_inv
        rng = np.random.default_rng(n)

        def draw(*shape):
            x = rng.standard_normal(shape)
            return x + 1j * rng.standard_normal(shape) if cplx else x

        q = _random_unitary(rng, n, cplx)
        certified, real = [], minimizers._cholesky_root

        def spied(*args):
            root = real(*args)
            certified.append(root is not None)
            return root

        monkeypatch.setattr(minimizers, "_cholesky_root", spied)
        for cond in (1e2, 1e5, 1e7, 1e9):
            t = (q * np.logspace(0.0, -np.log10(cond), n)) @ q.conj().T
            a = draw(n // 10, n)
            p = QpProblem((t + t.conj().T) / 2, a, a @ draw(n))
            got, want = solve(p), minimize_posdef(p)
            bound = _agreement_bound(p)
            assert _relative_gap(got.xhat, want.xhat) <= bound, cond
            assert _relative_gap(got.min_value, want.min_value) <= bound, cond
        # the certificate refuses cond 1e9: s^2 is about λ_min / 15 here
        assert certified == [True, True, True, False]

    def test_tiny_pivot_skips_the_inverse(self, monkeypatch):
        inverted = []
        factor = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda l: inverted.append(l.shape) or factor(l))
        t = np.array([[1.0, 1.0], [1.0, 1.0 + 2.0**-50]])
        r = solve(QpProblem(t, np.array([[1.0, 0.0]]), np.ones(1)))
        assert r.method is Method.PSD_COMPLEMENT
        assert inverted == [(1, 1)]  # R* of a W only

    @pytest.mark.parametrize("case", ["refused-definite", "singular"])
    def test_a_refused_t_stops_before_any_off_diagonal_inverse_block(self, monkeypatch, case):
        # n = 2 * leaf + 1 halves into three leaves: rows [0, leaf), then
        # about half a leaf each.  The definite t has one eigenvalue at 10
        # times the definiteness gate, on the diagonal in the second leaf,
        # so eigh calls it definite but its pivot floor refuses; the
        # singular one has its rank inside the third leaf, where its
        # factorization fails or is refused.  Either stops there: no block
        # above a leaf, whose inverse would join its leaves by an
        # off-diagonal block, is completed
        leaf = dense_core._LEAF
        n = 2 * leaf + 1
        rng = np.random.default_rng(3)
        if case == "singular":
            g = rng.standard_normal((n, leaf + leaf // 2 + 4))
            t = g @ g.T
        else:
            t = np.diag(rng.uniform(1.0, 2.0, n))
            t[leaf + 4, leaf + 4] = 10 * DEFAULT_TOL.effective_rtol(n) * np.linalg.norm(t)
        m = 5  # rows of a, so of the Gram of a W, which is factored after
        a = rng.standard_normal((m, n))
        p = QpProblem(t, a, a @ (t @ rng.standard_normal(n)))
        recursion, completed, inverted = dense_core._factor_inverse, [], []
        factor = np.linalg.inv

        def spied(block, *args):
            recursion(block, *args)  # raises where a leaf fails or is refused
            completed.append(block.shape[0])

        monkeypatch.setattr(dense_core, "_factor_inverse", spied)
        monkeypatch.setattr(np.linalg, "inv", lambda l: inverted.append(l.shape[0]) or factor(l))
        log = TestCertificates.run(p, Method.AUTO, False, monkeypatch)[1]
        assert log["cholesky"] == [False]
        completed = [rows for rows in completed if rows > m]
        assert completed and max(completed) <= dense_core._LEAF
        # every leaf before the refused one is inverted, for its panel, and no more
        assert [rows for rows in inverted if rows > m] == completed


def _leaf_result(name, change):
    """A patch of np.linalg.`name` that applies ``change(out)`` to the leaf factor or inverse it returns."""
    backend = getattr(np.linalg, name)

    def patched(x):
        out = backend(x)
        change(out)
        return out

    return name, patched


def _perturb(out):
    out[-1, 0] += 1e-3 * fro_norm(out)


def _overflow(out):
    out[-1, 0] = np.inf


_UNIT_GRADED = np.eye(30) - np.tri(30, k=-1)  # unit pivots; its inverse has the entries 2^(i-j-1)
_SMALL_T = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
_SMALL_ROWS = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 3.0]])

# (kind, factor): the operand, a patch of numpy.linalg or None, and the
# message of the refusal, None where the rule certifies.  "t" is factored by
# _cholesky_root's cholesky_inverse and "gram" by _certified_inverse's
# gram_cholesky, each under its own rule; "gram, no floor" by gram_cholesky
# under a rule that passes every bound, and "tri_inv" by tri_inv.  Neither
# rule lets an l or x past the float64 range through: an overflowed ||x||_F
# makes the gate inf, and an x past the range has s below ABS_FLOOR
REFUSALS = {
    ("certified", "t"): (_SMALL_T, None, None),
    ("certified", "gram"): (_SMALL_ROWS, None, None),
    ("not-definite", "t"): (np.ones((2, 2)), None, "Cholesky factorization failed"),
    ("not-definite", "gram"): (np.ones((2, 3)), None, "Cholesky factorization failed"),
    ("pivot-floor", "t"): (np.diag([1.0, 1e-30]), None, "pivot bound refused"),
    ("pivot-floor", "gram"): (np.diag([1.0, 1e-7]), None, "pivot bound refused"),
    ("s-rule", "t"): (_UNIT_GRADED @ _UNIT_GRADED.T, None, r"1 / \|\|l\^-1\|\|_F = 2.794e-09 refused"),
    ("s-rule", "gram"): (_UNIT_GRADED[:20, :20], None, r"1 / \|\|l\^-1\|\|_F = 2.861e-06 refused"),
    ("guard", "t"): (_SMALL_T, _leaf_result("cholesky", _perturb), "Cholesky probe residual"),
    ("guard", "gram"): (_SMALL_ROWS, _leaf_result("cholesky", _perturb), "Cholesky probe residual"),
    ("non-finite-inverse", "t"): (_SMALL_T, _leaf_result("inv", _overflow), "triangular inverse overflowed"),
    ("non-finite-inverse", "gram"): (_SMALL_ROWS, _leaf_result("inv", _overflow), "triangular inverse overflowed"),
    ("non-finite-inverse", "tri_inv"): (1e-309 * np.eye(2), None, "triangular inverse overflowed"),
    # the first row norm of this a is 2.1e308
    ("l-out-of-range", "gram, no floor"): (
        1.5e308 * np.array([[1.0, 1.0], [0.5, -0.5]]),
        None,
        "Cholesky factor of the Gram overflowed",
    ),
    # the smaller singular value of this a is 3.8e-312
    ("x-out-of-range", "gram, no floor"): (1e-311 * np.array([[2.0, 1.0], [1.0, 1.0]]), None, "its inverse did"),
}


@pytest.mark.parametrize("kind, factor", list(REFUSALS))
def test_every_refusal_is_a_factorization_error(monkeypatch, kind, factor):
    # each refusal of a triangular factorization raises FactorizationError,
    # which the certificate that asked for it turns into None; where the
    # rule certifies, it saw s = 1 / ||x||_F last
    operand, patch, match = REFUSALS[kind, factor]
    if patch is not None:
        monkeypatch.setattr(np.linalg, *patch)
    if factor == "tri_inv":
        with pytest.raises(FactorizationError, match=match):
            dense_core.tri_inv(operand)
        return
    if factor == "gram, no floor":
        with pytest.raises(FactorizationError, match=match):
            dense_core.gram_cholesky(operand, lambda bound: True)
        return
    name = "cholesky_inverse" if factor == "t" else "gram_cholesky"
    real, offered, outcome = getattr(minimizers, name), [], []

    def spied(x, admits):
        try:
            out = real(x, lambda bound: offered.append(bound) or admits(bound))
        except FactorizationError as exc:
            outcome.append(exc)
            raise
        outcome.append(out)
        return out

    monkeypatch.setattr(minimizers, name, spied)
    if factor == "t":
        got = minimizers._cholesky_root(dense_core.hermitian(operand), DEFAULT_TOL)
    else:
        got = minimizers._certified_inverse(operand, WARN_RATIO)
    (out,) = outcome
    if match is None:
        l, x, s = out
        assert got is not None
        assert offered[-1] == s == 1.0 / fro_norm(x)
    else:
        assert got is None
        assert isinstance(out, FactorizationError) and re.search(match, str(out)), out


def _invariance_case(seed, n, m, psd, complex_entries):
    """A feasible problem whose `t` has its nonzero spectrum in [1, 100].

    A singular `t` has rank between 1 and n - 1.  Rounding ``c t`` or
    ``u* t u`` perturbs `t` by an ulp, which moves `x` by about eps times
    the condition number of `t` on its range; bounding that number at 100
    keeps the comparison about the invariance, not about the conditioning.
    """
    rng = np.random.default_rng(seed)
    rank = 1 + seed % (n - 1) if psd else n
    q = _random_unitary(rng, n, complex_entries)
    lam = np.zeros(n)
    lam[:rank] = 10.0 ** rng.uniform(0.0, 2.0, rank)
    t = (q * lam) @ q.conj().T
    a = rng.standard_normal((m, n))
    z = rng.standard_normal(rank)
    if complex_entries:
        a = a + 1j * rng.standard_normal((m, n))
        z = z + 1j * rng.standard_normal(rank)
    return (t + t.conj().T) / 2, a, a @ (q[:, :rank] @ z)


invariance_cases = st.builds(
    lambda seed, n, frac, psd, cplx: (seed, n, max(1, round(frac * n)), psd, cplx),
    st.integers(0, 2**31 - 1),
    st.integers(2, 30),
    st.floats(0.0, 1.0),
    st.booleans(),
    st.booleans(),
)


class TestInvariance:
    """The argmin of AUTO against the unscaled solve, not against an oracle.

    The examples are drawn from a fixed seed: the constraint restricted to
    the range of `t` is a random matrix, whose rare near-singular draws
    would make a 1e-10 bound fail now and then for reasons of conditioning.
    """

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=invariance_cases, exponent=st.floats(-150.0, 150.0))
    def test_scaling_t(self, case, exponent):
        t, a, b = _invariance_case(*case)
        ref = solve(QpProblem(t, a, b)).xhat
        x = solve(QpProblem(10.0**exponent * t, a, b)).xhat
        assert _relative_gap(x, ref) <= 1e-10

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=invariance_cases)
    def test_unitary_change_of_variables(self, case):
        t, a, b = _invariance_case(*case)
        u = _random_unitary(np.random.default_rng(case[0] + 1), t.shape[0], np.iscomplexobj(t))
        ref = solve(QpProblem(t, a, b)).xhat
        # t -> u* t u, a -> a u maps the minimizer x to u* x
        x = solve(QpProblem(u.conj().T @ t @ u, a @ u, b)).xhat
        assert _relative_gap(u @ x, ref) <= 1e-10

    # The two silent wrong answers of the ROADMAP's measurement tables: each
    # returns normally, with only an IllConditioningWarning to show for it.
    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1: graded rows of (a, b) are not equilibrated")
    @pytest.mark.filterwarnings("ignore::qfmin.IllConditioningWarning")
    def test_graded_constraint_rows(self):
        # relative error 0.57, and a reduced_rank of 10 for 12 independent rows
        t, a, b = random_pd_problem(30, 12, 0)
        d = np.logspace(-8.0, 8.0, 12)
        ref = solve(QpProblem(t, a, b)).xhat
        assert _relative_gap(solve(QpProblem(t, d[:, None] * a, d * b)).xhat, ref) <= 1e-10

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 2: a definite t with graded variables is called singular")
    @pytest.mark.filterwarnings("ignore::qfmin.IllConditioningWarning")
    def test_graded_variables(self):
        # (D t D, a D, b) has the minimizer D^{-1} x; today psd-complement, relative error 0.46
        t, a, b = random_pd_problem(30, 12, 0)
        d = np.logspace(-4.0, 4.0, 30)
        ref = solve(QpProblem(t, a, b)).xhat
        got = solve(QpProblem(d[:, None] * t * d, a * d, b))
        assert got.method is Method.POSDEF
        assert _relative_gap(d * got.xhat, ref) <= 1e-10


_EPS = float(np.finfo(np.float64).eps)


def _graded_case(seed, n, frac, psd, complex_entries):
    """A feasible problem whose `t` has its nonzero spectrum spanning [1, 1e8].

    Returns ``(t, a, b)`` and ``cond(t) ||a|| ||W|| / sigma_min(a W)``: the
    eigenvectors of `t`, and so `W`, are known to ``eps * cond(t)``, and that
    error reaches ``a W`` through `a`.  There are at most as many constraints
    as the rank of `t`: with more, whether `b` is in the range of ``a W`` is
    itself decided only to that accuracy.
    """
    rng = np.random.default_rng(seed)
    rank = 1 + seed % (n - 1) if psd else n
    m = max(1, round(frac * rank))
    q = _random_unitary(rng, n, complex_entries)
    lam = np.zeros(n)
    lam[:rank] = 10.0 ** rng.uniform(0.0, 8.0, rank)
    lam[0] = 1.0
    lam[rank - 1] = 1e8 if rank > 1 else 1.0
    t = (q * lam) @ q.conj().T
    a = rng.standard_normal((m, n))
    z = rng.standard_normal(rank)
    if complex_entries:
        a = a + 1j * rng.standard_normal((m, n))
        z = z + 1j * rng.standard_normal(rank)
    sigma = np.linalg.svd(a @ (q[:, :rank] / np.sqrt(lam[:rank])), compute_uv=False)
    # ||W|| = 1, the inverse root of the smallest nonzero eigenvalue
    conditioning = lam[:rank].max() * np.linalg.norm(a, 2) / sigma[-1]
    return (t + t.conj().T) / 2, a, a @ (q[:, :rank] @ z), conditioning


class TestOracleAgreement:
    """AUTO against the independent oracles, at conditioning of `t` up to 1e8.

    `kkt_solve` checks a definite `t` and `reduced_solve` a singular one.
    Both lose about ``eps`` times the conditioning `_graded_case` returns,
    so 100 times that bounds their gap.  Over 6000 random draws the gap
    reached at most 1.0 times it for a definite `t` and 9.7 times for a
    singular one.
    """

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(2, 30),
        frac=st.floats(0.0, 1.0),
        psd=st.booleans(),
        cplx=st.booleans(),
    )
    def test_auto_matches_the_oracle(self, seed, n, frac, psd, cplx):
        t, a, b, conditioning = _graded_case(seed, n, frac, psd, cplx)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IllConditioningWarning)
            r = solve(QpProblem(t, a, b))
            oracle = reduced_solve(t, a, b) if psd else kkt_solve(t, a, b)
        assert r.method is (Method.PSD_COMPLEMENT if psd else Method.POSDEF)
        bound = 100 * _EPS * conditioning
        assert _relative_gap(r.xhat, oracle.x) <= bound
        assert abs(r.min_value - oracle.min_value) <= bound * abs(oracle.min_value)
