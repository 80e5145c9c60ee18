import warnings
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qfmin import (
    DimensionMismatchError,
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
from qfmin import minimizers
from qfmin.config import FEAS_TOL, WARN_RATIO, ToleranceConfig
from qfmin.dense_core import fro_norm, svd
from qfmin.l2_models import diag_operator, DiagonalSpec, harmonic_b, left_shift

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


class TestSolveDispatch:
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
    """numpy.linalg calls made by one AUTO solve: one eigh of t, one QR of (a W)*.

    A full-row-rank ``a W`` needs the values-only SVD of R for its rank and
    ``inv(R*)`` for its pseudoinverse, and no singular vectors.
    """

    def test_definite_rectangular_constraint(self, count_linalg):
        p = QpProblem(*random_pd_problem(12, 6, seed=5))
        counts = count_linalg()
        solve(p)
        assert counts == {"eigh": 1, "svd": 0, "qr": 1, "inv": 1, "solve": 0, "svdvals": 1}

    def test_semidefinite(self, count_linalg):
        p = QpProblem(*random_psd_problem(12, 6, rank=9, seed=5))
        counts = count_linalg()
        solve(p)
        # the second QR and two more values-only SVDs give the row space of
        # a and its cosines to the range of t, for the psd_product_conditioning
        # note, which needs no inverse
        assert counts == {"eigh": 1, "svd": 0, "qr": 2, "inv": 1, "solve": 0, "svdvals": 3}

    def test_definite_square_constraint(self, count_linalg):
        p = QpProblem(*random_pd_problem(12, 12, seed=5))
        counts = count_linalg()
        r = solve(p)
        # the shortcut's pinv(a) b takes a second QR, of the invertible a*
        assert counts == {"eigh": 1, "svd": 0, "qr": 2, "inv": 2, "solve": 0, "svdvals": 2}
        assert r.diagnostics[-1].value is not None

    def test_square_root_reference(self, count_linalg):
        # one eigh of t for the class and T^{-1/2}, one SVD of a T^{-1/2}
        p = QpProblem(*random_pd_problem(12, 6, seed=5))
        counts = count_linalg()
        minimize_posdef(p)
        assert counts == {"eigh": 1, "svd": 1, "qr": 0, "inv": 0, "solve": 0, "svdvals": 0}

    def test_square_shortcut_leaves_the_memo_alone(self, count_linalg):
        # the class gate needs the eigenvalues of t and the shortcut the
        # factors of a; the kernel's factors are neither made nor stored.
        # The shift a has rank 8 of 9: its bases come from an SVD of R.
        p = truncated_problem(8)
        counts = count_linalg()
        assert try_cor1_shortcut(p) is not None
        assert counts == {"eigh": 1, "svd": 1, "qr": 1, "inv": 0, "solve": 0, "svdvals": 1}
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


def assert_same_result(r, s):
    assert np.array_equal(r.xhat, s.xhat)
    assert r.min_value == s.min_value
    assert r.feasibility_residual == s.feasibility_residual
    assert r.method is s.method
    assert r.diagnostics == s.diagnostics


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
        # a square a keeps the shortcut's factors of a on every solve
        each = 1 if case == "pd-square" else 0
        assert counts == {"eigh": 0, "svd": 0, "qr": each, "inv": each, "solve": 0, "svdvals": each}
        monkeypatch.setattr(minimizers, "_memo", None)
        assert_same_result(hit, solve(QpProblem(t, a, b2)))

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
        assert counts == {"eigh": 1, "svd": 1, "qr": 0, "inv": 0, "solve": 0, "svdvals": 0}

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
        assert counts["eigh"] == 1
        monkeypatch.setattr(minimizers, "_memo", None)
        assert_same_result(again, solve(QpProblem(t, a, b, tol)))
        if change == "mutate-t":
            assert again.min_value == pytest.approx(2.0 * first.min_value, rel=1e-12)

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
        assert counts == {"eigh": 1, "svd": 0, "qr": 0, "inv": 0, "solve": 0, "svdvals": 0}
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

        The gate is the first step of `eigh`, and nothing else runs it.
        """
        shapes = []
        factor = minimizers.eigh

        def counted(x):
            shapes.append(np.shape(x))
            return factor(x)

        monkeypatch.setattr(minimizers, "eigh", counted)
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

    def test_failed_factor_stage_releases_the_slot(self, count_linalg):
        t, a, b = random_pd_problem(8, 3, seed=9)
        solve(QpProblem(t, a, b))
        with pytest.raises(NotPositiveError):
            solve(QpProblem(np.diag([1.0, -1.0]), np.ones((1, 2)), np.ones(1)))
        counts = count_linalg()
        solve(QpProblem(t, a, b))
        assert counts["eigh"] == 1


def svd_row_factors(x, decide, inverse=False):
    """The thin-SVD construction that `_row_factors` replaced, kept as its reference."""
    fact = svd(x, full_matrices=False)
    k = decide(fact.sigma, max(x.shape)).rank
    u, v = fact.u[:, :k], fact.v[:, :k]
    return k, u, v, (u / fact.sigma[:k]).conj().T if inverse else None


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
        assert_same_result(miss, hit)
        assert miss_warnings == hit_warnings
        assert miss_warnings or case != "ill-conditioned"


def _random_unitary(rng, n, complex_entries):
    g = rng.standard_normal((n, n))
    if complex_entries:
        g = g + 1j * rng.standard_normal((n, n))
    return np.linalg.qr(g)[0]


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


def _relative_gap(x, ref):
    return fro_norm(x - ref) / fro_norm(ref)


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
