import numpy as np
import pytest
from numpy.testing import assert_allclose

from qfmin import (
    DimensionMismatchError,
    NotHermitianError,
    adjoint,
    as_matrix,
    as_vector,
    eigh,
    svd,
)

EXAMPLE2_Q = np.array([[14.0, 20, 28], [20, 83, 40], [28, 40, 56]])


class TestCoercion:
    def test_as_matrix_real(self):
        m = as_matrix([[1, 2], [3, 4]])
        assert m.dtype == np.float64
        assert m.shape == (2, 2)

    def test_as_matrix_complex(self):
        m = as_matrix([[1j, 0], [0, 1]])
        assert m.dtype == np.complex128

    def test_as_matrix_rejects_wrong_ndim(self):
        with pytest.raises(DimensionMismatchError):
            as_matrix([1, 2, 3])

    def test_as_matrix_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            as_matrix([[np.inf, 0], [0, 1]])

    def test_as_vector(self):
        v = as_vector([1, 2, 3])
        assert v.shape == (3,)
        with pytest.raises(DimensionMismatchError):
            as_vector([[1, 2]])

    def test_as_vector_rejects_nan(self):
        with pytest.raises(ValueError):
            as_vector([np.nan, 1.0])


class TestAdjoint:
    def test_real_symmetric_fixed(self):
        m = np.array([[2.0, 1], [1, 3]])
        assert_allclose(adjoint(m), m)

    def test_shift(self):
        assert_allclose(adjoint([[0, 1], [0, 0]]), [[0, 0], [1, 0]])

    def test_complex_conjugation(self):
        assert_allclose(adjoint([[1j]]), [[-1j]])

    def test_involution_exact(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        assert np.array_equal(adjoint(adjoint(m)), m)


class TestSvd:
    def test_diagonal_sigma(self):
        assert_allclose(svd(np.diag([3.0, 1.0])).sigma, [3.0, 1.0])

    def test_zero_matrix(self):
        res = svd(np.zeros((3, 2)))
        assert_allclose(res.sigma, 0.0)

    def test_random_reconstruction(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((5, 3))
        res = svd(a)
        assert np.linalg.norm(res.reconstruct() - a) <= 1e-12 * np.linalg.norm(a)

    @pytest.mark.parametrize("shape", [(2, 2), (7, 3), (3, 7), (50, 50), (40, 13)])
    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_unitarity_and_reconstruction(self, shape, complex_entries):
        rng = np.random.default_rng(hash(shape) % 2**32)
        a = rng.standard_normal(shape)
        if complex_entries:
            a = a + 1j * rng.standard_normal(shape)
        res = svd(a)
        m, n = shape
        assert np.linalg.norm(adjoint(res.u) @ res.u - np.eye(m)) <= 1e-12 * m
        assert np.linalg.norm(adjoint(res.v) @ res.v - np.eye(n)) <= 1e-12 * n
        assert np.all(np.diff(res.sigma) <= 0)
        assert np.all(res.sigma >= 0)
        assert np.linalg.norm(res.reconstruct() - a) <= 1e-12 * np.linalg.norm(a)


class TestEigh:
    def test_diagonal_ascending(self):
        res = eigh(np.diag([2.0, 1.0]))
        assert_allclose(res.eigenvalues, [1.0, 2.0])

    def test_known_two_by_two(self):
        res = eigh(np.array([[0.0, 1], [1, 0]]))
        assert_allclose(res.eigenvalues, [-1.0, 1.0], atol=1e-14)

    def test_example2_kernel(self):
        # hand check: Q @ (2,0,-1) = 0, so one eigenvalue vanishes
        res = eigh(EXAMPLE2_Q)
        assert res.eigenvalues[0] == pytest.approx(0.0, abs=1e-10)
        assert np.all(res.eigenvalues[1:] > 1.0)
        kernel = res.q[:, 0]
        direction = np.array([2.0, 0, -1]) / np.sqrt(5)
        assert abs(abs(kernel @ direction) - 1.0) <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            eigh(np.array([[0.0, 1], [0, 0]]))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            eigh(np.zeros((2, 3)))

    @pytest.mark.parametrize("n", [2, 9, 30])
    def test_reconstruction_random_hermitian(self, n):
        rng = np.random.default_rng(n)
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (m + adjoint(m)) / 2
        res = eigh(h)
        assert np.isrealobj(res.eigenvalues)
        assert np.all(np.diff(res.eigenvalues) >= 0)
        assert np.linalg.norm(res.reconstruct() - h) <= 1e-12 * np.linalg.norm(h)
