import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qfmin import (
    IllConditioningWarning,
    InfeasibleOnComplementError,
    OracleError,
    QpProblem,
    grid_refute,
    kkt_solve,
    minimize_posdef,
    minimize_psd_complement,
    null_basis,
    quad_value,
    random_pd_problem,
    random_psd_problem,
    range_basis,
    reduced_solve,
    solve,
)

EXAMPLE2_Q = np.array([[14.0, 20, 28], [20, 83, 40], [28, 40, 56]])
EXAMPLE2_A = np.array([[2.0, 1, -1]])
EXAMPLE2_B = np.array([10.0])


class TestKktSolve:
    def test_closest_point_on_line(self):
        r = kkt_solve(np.eye(2), np.array([[1.0, 0]]), np.array([1.0]))
        assert_allclose(r.x, [1.0, 0.0], atol=1e-12)
        assert r.min_value == pytest.approx(1.0)

    def test_small_truncated_shift(self):
        from qfmin.l2_models import DiagonalSpec, diag_operator, harmonic_b, left_shift

        dim = 5
        t = diag_operator(DiagonalSpec(period_values=(1.0, 2.0), n=dim))
        a = left_shift(dim)
        b = np.concatenate([harmonic_b(4), [0.0]])
        direct = minimize_posdef(QpProblem(t=t, a=a, b=b))
        oracle = kkt_solve(t, a, b)
        assert abs(direct.min_value - oracle.min_value) <= 1e-9

    def test_two_variable_lagrange(self):
        # minimize x^2 + 2 y^2 with x + y = 3: gradient gives x = 2y, so (2, 1)
        r = kkt_solve(np.diag([1.0, 2.0]), np.array([[1.0, 1.0]]), np.array([3.0]))
        assert_allclose(r.x, [2.0, 1.0], atol=1e-12)
        assert r.min_value == pytest.approx(6.0)

    def test_self_check_residual(self):
        t, a, b = random_pd_problem(12, 5, seed=3)
        r = kkt_solve(t, a, b)
        assert r.kkt_residual <= 1e-10

    @pytest.mark.parametrize("c", [1e-100, 1e-8, 1e4, 1e8, 1e100])
    def test_argmin_does_not_depend_on_the_scale_of_t(self, c):
        t, a, b = random_pd_problem(30, 12, seed=0)
        x = kkt_solve(t, a, b).x
        r = kkt_solve(c * t, a, b)
        assert np.linalg.norm(r.x - x) <= 1e-10 * np.linalg.norm(x)
        assert r.min_value == pytest.approx(c * quad_value(t, x), rel=1e-10, abs=0)

    @pytest.mark.parametrize("e", [6, 40, 150])
    @pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
    def test_argmin_does_not_depend_on_the_scale_of_the_rows(self, complex_entries, e):
        # rows of (a, b) scaled by 1e-e .. 1e+e describe the same constraint set
        t, a, b = random_pd_problem(30, 12, seed=0, complex_entries=complex_entries)
        x = solve(QpProblem(t, a, b)).xhat
        d = np.logspace(-e, e, 12)
        r = kkt_solve(t, d[:, None] * a, d * b)
        assert np.linalg.norm(r.x - x) <= 1e-12 * np.linalg.norm(x)

    def test_zero_row_is_left_alone(self):
        t, a, b = random_pd_problem(8, 3, seed=2)
        x = kkt_solve(t, a, b).x
        r = kkt_solve(t, np.vstack([a, np.zeros(8)]), np.append(b, 0.0))
        assert np.linalg.norm(r.x - x) <= 1e-12 * np.linalg.norm(x)

    def test_reports_unsatisfiable_system(self):
        # b outside R(A) leaves the block system inconsistent
        a = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(OracleError):
            kkt_solve(np.eye(2), a, np.array([1.0, 2.0]))


class TestReducedSolve:
    def test_restricted_example(self):
        r = reduced_solve(EXAMPLE2_Q, EXAMPLE2_A, EXAMPLE2_B)
        assert_allclose(r.x, [-20.0 / 7, 10.0, -40.0 / 7], atol=1e-10)
        assert r.min_value == pytest.approx(38100.0 / 7, rel=1e-10)
        assert r.kkt_residual <= 1e-10

    def test_one_dimensional_reduction(self):
        r = reduced_solve(np.diag([1.0, 0.0]), np.array([[1.0, 0.0]]), np.array([2.0]))
        assert_allclose(r.x, [2.0, 0.0], atol=1e-12)
        assert r.min_value == pytest.approx(4.0)

    def test_detects_unreachable_rhs(self):
        with pytest.raises(InfeasibleOnComplementError):
            reduced_solve(np.diag([1.0, 0.0]), np.array([[0.0, 1.0]]), np.array([1.0]))

    @pytest.mark.parametrize("s", [1e-200, 1.0, 1e160])
    def test_detects_unreachable_rhs_at_every_scale(self, s):
        with pytest.raises(InfeasibleOnComplementError):
            reduced_solve(np.diag([1.0, 0.0]), np.array([[0.0, 1.0]]), s * np.array([1.0]))

    def test_matches_solver_on_random_instance(self):
        t, a, b = random_psd_problem(9, 3, rank=6, seed=4)
        direct = minimize_psd_complement(QpProblem(t=t, a=a, b=b))
        oracle = reduced_solve(t, a, b)
        assert abs(direct.min_value - oracle.min_value) <= 1e-8 * max(
            1.0, oracle.min_value
        )
        assert np.linalg.norm(direct.xhat - oracle.x) <= 1e-6


    def test_more_constraints_than_rank(self, more_rows_than_rank):
        # a_red = a Q_r has 8 rows and rank 5: kept in the block system, its
        # 3 dependent rows make it unsatisfiable to 1e-10 on 80 of these draws
        worst = 0.0
        for seed in range(100):
            t, a, b = more_rows_than_rank(seed)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", IllConditioningWarning)
                auto = solve(QpProblem(t, a, b))
                oracle = reduced_solve(t, a, b)
            worst = max(worst, abs(auto.min_value - oracle.min_value) / oracle.min_value)
        assert worst <= 1e-6


class TestGridRefute:
    def test_restricted_candidate_stands(self):
        cand = minimize_psd_complement(
            QpProblem(t=EXAMPLE2_Q, a=EXAMPLE2_A, b=EXAMPLE2_B)
        ).xhat
        assert grid_refute(EXAMPLE2_Q, EXAMPLE2_A, EXAMPLE2_B, cand, n_samples=10_000)

    def test_perturbed_candidate_falls(self):
        cand = minimize_psd_complement(
            QpProblem(t=EXAMPLE2_Q, a=EXAMPLE2_A, b=EXAMPLE2_B)
        ).xhat
        # feasible direction inside the kernel complement
        d = np.array([1.0, 0.0, 2.0]) / np.sqrt(5.0)
        assert not grid_refute(
            EXAMPLE2_Q, EXAMPLE2_A, EXAMPLE2_B, cand + 0.1 * d, n_samples=10_000
        )

    def test_pd_candidate_stands(self):
        t, a, b = random_pd_problem(8, 3, seed=5)
        xhat = minimize_posdef(QpProblem(t=t, a=a, b=b)).xhat
        assert grid_refute(t, a, b, xhat, n_samples=5_000)

    def test_pd_perturbed_candidate_falls(self):
        t, a, b = random_pd_problem(8, 3, seed=6)
        xhat = minimize_posdef(QpProblem(t=t, a=a, b=b)).xhat
        d = null_basis(a).basis[:, 0]
        assert not grid_refute(t, a, b, xhat + 0.1 * d, n_samples=5_000)

    @pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
    def test_refutes_at_every_scale_of_t(self, scale):
        # the margin is relative to the candidate's value, which scales with t
        t, a, b = random_pd_problem(8, 3, seed=6)
        xhat = minimize_posdef(QpProblem(t=t, a=a, b=b)).xhat
        d = null_basis(a).basis[:, 0]
        assert not grid_refute(scale * t, a, b, xhat + 0.1 * d, n_samples=5_000)
        assert grid_refute(scale * t, a, b, xhat, n_samples=5_000)

    @pytest.mark.parametrize("e", [20, 40, 150])
    @pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("kind", ["pd", "psd"])
    def test_verdict_does_not_depend_on_the_scale_of_the_rows(self, kind, complex_entries, e):
        # rows of (a, b) scaled by 1e-e .. 1e+e describe the same constraint set
        if kind == "pd":
            t, a, b = random_pd_problem(30, 12, seed=0, complex_entries=complex_entries)
        else:
            t, a, b = random_psd_problem(30, 12, 20, seed=0, complex_entries=complex_entries)
        xhat = solve(QpProblem(t, a, b)).xhat
        range_t = range_basis(t).basis
        d = range_t @ null_basis(a @ range_t).basis[:, 0]
        rows = np.logspace(-e, e, 12)
        a, b = rows[:, None] * a, rows * b
        assert grid_refute(t, a, b, xhat, n_samples=5_000)
        assert not grid_refute(t, a, b, xhat + 0.1 * d, n_samples=5_000)

    def test_invertible_constraint_trivially_stands(self):
        a = np.eye(3)
        b = np.ones(3)
        assert grid_refute(2.0 * np.eye(3), a, b, np.linalg.solve(a, b), n_samples=10)

    def test_rejects_infeasible_candidate(self):
        with pytest.raises(OracleError):
            grid_refute(np.eye(2), np.eye(2), np.ones(2), np.zeros(2), n_samples=10)

    @pytest.mark.parametrize("s", [1e-200, 1.0, 1e160])
    def test_rejects_infeasible_candidate_at_every_scale(self, s):
        a = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(OracleError):
            grid_refute(np.eye(2), a, s * np.array([1.0, 2.0]), s * np.array([1.5, 0.0]), n_samples=10)

    def test_deterministic_given_seed(self):
        t, a, b = random_pd_problem(6, 2, seed=7)
        xhat = minimize_posdef(QpProblem(t=t, a=a, b=b)).xhat
        first = grid_refute(t, a, b, xhat, n_samples=500, seed=123)
        second = grid_refute(t, a, b, xhat, n_samples=500, seed=123)
        assert first == second


class TestGenerators:
    def test_pd_instance(self):
        t, a, b = random_pd_problem(10, 4, seed=0)
        assert t.shape == (10, 10) and a.shape == (4, 10) and b.shape == (4,)
        assert np.min(np.linalg.eigvalsh(t)) >= 0.1 - 1e-12

    def test_pd_complex(self):
        t, a, b = random_pd_problem(6, 2, seed=1, complex_entries=True)
        assert np.iscomplexobj(t) and np.iscomplexobj(a)
        assert np.linalg.norm(t - t.conj().T) <= 1e-12

    def test_psd_instance_rank(self):
        t, a, b = random_psd_problem(8, 3, rank=5, seed=2)
        eigenvalues = np.linalg.eigvalsh(t)
        assert np.sum(eigenvalues > 1e-10) == 5
        assert np.min(eigenvalues) >= -1e-10

    def test_psd_rhs_reachable(self):
        from qfmin import feasible, projector_range

        t, a, b = random_psd_problem(8, 3, rank=5, seed=3)
        assert feasible(a @ projector_range(t), b)

    def test_psd_rank_bounds(self):
        with pytest.raises(ValueError):
            random_psd_problem(5, 2, rank=5)
        with pytest.raises(ValueError):
            random_psd_problem(5, 2, rank=0)
