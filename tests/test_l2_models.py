import numpy as np
import pytest
from numpy.testing import assert_allclose

from qfmin import (
    DiagonalSpec,
    diag_operator,
    example1_convergence,
    example1_solution,
    harmonic_b,
    l2_models,
    left_shift,
    pinv,
)

LIMIT = 7.0 * np.pi**2 / 24.0


class TestDiagonalSpec:
    def test_rejects_empty_pattern(self):
        with pytest.raises(ValueError):
            DiagonalSpec(period_values=(), n=3)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            DiagonalSpec(period_values=(1.0, np.inf), n=3)

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            DiagonalSpec(period_values=(1.0,), n=0)


class TestDiagOperator:
    def test_cycles_pattern(self):
        t = diag_operator(DiagonalSpec(period_values=(1.0, 2.0), n=4))
        assert_allclose(t, np.diag([1.0, 2.0, 1.0, 2.0]))

    def test_constant_pattern(self):
        assert_allclose(diag_operator(DiagonalSpec(period_values=(1.0,), n=3)), np.eye(3))

    def test_diagonal_pinv_rule(self):
        t = diag_operator(DiagonalSpec(period_values=(0.0, 1.0), n=2))
        assert_allclose(t, np.diag([0.0, 1.0]))
        assert_allclose(pinv(t), np.diag([0.0, 1.0]))

    def test_commutes_with_own_pinv(self):
        t = diag_operator(DiagonalSpec(period_values=(0.0, 3.0, 1.0), n=7))
        assert np.linalg.norm(t @ pinv(t) - pinv(t) @ t) <= 1e-14


class TestLeftShift:
    def test_two_by_two(self):
        assert_allclose(left_shift(2), [[0.0, 1.0], [0.0, 0.0]])

    def test_action_truncates(self):
        x = np.array([1.0, 2.0, 3.0])
        assert_allclose(left_shift(3) @ x, [2.0, 3.0, 0.0])

    def test_pinv_is_adjoint(self):
        shift = left_shift(4)
        assert_allclose(pinv(shift), shift.T, atol=1e-14)

    def test_rejects_trivial_size(self):
        with pytest.raises(ValueError):
            left_shift(1)


class TestHarmonicB:
    def test_first_three(self):
        assert_allclose(harmonic_b(3), [1.0, 0.5, 1 / 3])

    def test_single(self):
        assert_allclose(harmonic_b(1), [1.0])

    def test_positive_decreasing(self):
        b = harmonic_b(20)
        assert np.all(b > 0)
        assert np.all(np.diff(b) < 0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            harmonic_b(0)


class TestExample1Solution:
    def test_minimizer_shape(self):
        xhat, value = example1_solution(4)
        assert_allclose(xhat, [0.0, 1.0, 0.5, 1 / 3, 0.25], atol=1e-12)
        # weights alternate 2, 1 starting at j = 1
        assert value == pytest.approx(2.0 + 0.25 + 2.0 / 9 + 1.0 / 16, rel=1e-12)

    @pytest.mark.parametrize("n", [3, 17, 64])
    def test_dense_and_structured_paths_agree(self, n, monkeypatch):
        monkeypatch.setattr(l2_models, "DENSE_CUTOFF", 10_000)
        dense_x, dense_v = example1_solution(n)
        monkeypatch.setattr(l2_models, "DENSE_CUTOFF", 1)
        fast_x, fast_v = example1_solution(n)
        assert np.linalg.norm(dense_x - fast_x) <= 1e-10
        assert dense_v == pytest.approx(fast_v, rel=1e-12)

    def test_structured_entries_exact(self, monkeypatch):
        monkeypatch.setattr(l2_models, "DENSE_CUTOFF", 1)
        xhat, _ = example1_solution(500)
        assert xhat[0] == 0.0
        assert_allclose(xhat[1:], 1.0 / np.arange(1, 501), rtol=0, atol=0)


class TestExample1Convergence:
    def test_small_partial_sum(self):
        series = example1_convergence([2])
        # two terms: weight 2 at j=1, weight 1 at j=2
        assert series.min_values[0] == pytest.approx(2.0 + 0.25, rel=1e-12)

    def test_monotone_increasing_minima(self):
        series = example1_convergence([10, 50, 200, 1000])
        assert np.all(np.diff(series.min_values) > 0)

    def test_errors_strictly_decreasing(self):
        series = example1_convergence([10, 100, 1000])
        assert np.all(np.diff(series.errors) < 0)

    def test_never_exceeds_limit(self):
        series = example1_convergence([10, 100, 1000, 5000])
        assert np.all(series.min_values <= LIMIT + 1e-12)
        assert series.limit == pytest.approx(LIMIT)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            example1_convergence([5, 5])
        with pytest.raises(ValueError):
            example1_convergence([0, 3])
        with pytest.raises(Exception):
            example1_convergence([])

    def test_tail_scale(self):
        # dropped tail is about 1.5/n, so n = 1000 sits near 1.5e-3
        series = example1_convergence([1000])
        assert 1e-3 < series.errors[0] < 2e-3
