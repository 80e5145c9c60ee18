import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qfmin import (
    DEFAULT_TOL,
    DimensionMismatchError,
    FactorizationError,
    NotHermitianError,
    adjoint,
    as_matrix,
    as_vector,
    eigh,
    svd,
)
from qfmin import dense_core
from qfmin.dense_core import cholesky_inverse, fro_norm, gram_cholesky, hermitian, qr, tri_inv

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


_EPS = float(np.finfo(np.float64).eps)


@st.composite
def extreme_arrays(draw):
    """Real or complex vectors and matrices at scales from 1e-300 to 1e300.

    Besides entries of one scale: all zeros, subnormals only, and one huge
    entry among tiny ones.
    """
    shape = draw(
        st.one_of(
            st.tuples(st.integers(1, 40)),
            st.tuples(st.integers(1, 8), st.integers(1, 8)),
        )
    )
    size = int(np.prod(shape))
    kind = draw(st.sampled_from(["scaled", "zero", "subnormal", "huge-among-tiny"]))

    def entries():
        if kind == "zero":
            return np.zeros(size)
        if kind == "subnormal":
            # integer multiples of the smallest subnormal, below the smallest normal
            ints = draw(st.lists(st.integers(-(2**52) + 1, 2**52 - 1), min_size=size, max_size=size))
            return np.array(ints, dtype=np.float64) * 5e-324
        mantissas = st.floats(-1.0, 1.0, allow_nan=False)
        x = np.array(draw(st.lists(mantissas, min_size=size, max_size=size)))
        return x * 10.0 ** draw(st.integers(-300, 300))

    arr = entries()
    if draw(st.booleans()):
        arr = arr + 1j * entries()
    if kind == "huge-among-tiny":
        arr[draw(st.integers(0, size - 1))] = 10.0 ** draw(st.integers(100, 300))
    return arr.reshape(shape)


class TestFroNorm:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(arr=extreme_arrays())
    # np.abs rounds each complex modulus to the subnormal grid: 2e-323, not 1.5e-323
    @example(arr=np.array([1e-323j, 1e-323 + 1e-323j]))
    def test_matches_the_scaled_form(self, arr):
        # the real and imaginary parts as one real vector, whose scaled
        # form needs no complex division
        parts = np.concatenate([arr.real.ravel(), arr.imag.ravel()])
        scale = float(np.max(np.abs(parts)))
        ref = scale * float(np.linalg.norm(parts / scale)) if scale else 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = fro_norm(arr)
        assert abs(got - ref) <= 4 * _EPS * ref

    def test_empty(self):
        assert fro_norm(np.zeros((0, 3))) == 0.0

    def test_complex_subnormal(self):
        # a complex division by a subnormal scale overflows to nan
        assert fro_norm(np.array([0, 5e-324j])) == 5e-324
        assert fro_norm(np.array([3e-320 + 4e-320j])) == pytest.approx(5e-320, rel=1e-3)


def _no_floor(bound):
    """A pivot floor for `cholesky_inverse` and `gram_cholesky` that refuses nothing."""
    return True


# the backend of gram_cholesky is np.linalg.cholesky, and its guard that of cholesky
@pytest.mark.parametrize(
    "name, factor",
    [("svd", svd), ("eigh", eigh), ("qr", qr), ("cholesky", lambda a: gram_cholesky(a, _no_floor))],
    ids=["svd-svd", "eigh-eigh", "qr-qr", "cholesky-gram_cholesky"],
)
def test_a_nan_in_the_factors_fails_the_guard(monkeypatch, name, factor):
    backend = getattr(np.linalg, name)

    def poisoned(*args, **kwargs):
        out = backend(*args, **kwargs)
        factors = [np.array(f) for f in ((out,) if isinstance(out, np.ndarray) else out)]
        factors[0].flat[0] = np.nan
        return factors[0] if len(factors) == 1 else tuple(factors)

    monkeypatch.setattr(np.linalg, name, poisoned)
    with pytest.raises(FactorizationError):
        factor(np.array([[2.0, 1.0], [1.0, 3.0]]))


def test_an_eigenvalue_past_the_float64_range_fails_the_guard():
    # the eigenvalue 2e308 and ||a|| both overflow to inf
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FactorizationError):
        eigh(1e308 * np.ones((2, 2)))


def _draw(rng, shape, complex_entries):
    x = rng.standard_normal(shape)
    return x + 1j * rng.standard_normal(shape) if complex_entries else x


def _operand(rng, name, shape, complex_entries):
    """A random input for the factorization `name`: Hermitian for eigh, definite for cholesky."""
    a = _draw(rng, shape, complex_entries)
    if name == "cholesky":
        return a @ a.conj().T / shape[0] + np.eye(shape[0])
    return (a + a.conj().T) / 2 if name == "eigh" else a


def _guarded(name, a):
    """The guarded factorization `name` of `a`: the thin SVD, the QR, eigh, or Cholesky of `a` or of its Gram ``a* a``."""
    factor = {
        "svd": lambda x: svd(x, full_matrices=False),
        "qr": lambda x: qr(as_matrix(x)),
        "gram_cholesky": lambda x: gram_cholesky(as_matrix(x).conj().T, _no_floor),
        "eigh": eigh,
        "cholesky": lambda x: cholesky_inverse(hermitian(x), _no_floor),
    }
    return factor[name](a)


class TestProbeGuard:
    """The guard checks the factors on dense_core._PROBES fixed Gaussian probes."""

    @pytest.mark.parametrize("n", [3, 64, 257])
    @pytest.mark.parametrize("complex_entries", [False, True])
    @pytest.mark.parametrize("name", ["svd", "qr", "eigh", "cholesky"])
    @pytest.mark.parametrize("size", [1.01, 2.0])
    def test_a_rank_one_error_past_the_tolerance_fails(
        self, monkeypatch, size, name, complex_entries, n
    ):
        # The backend factors a + E, ||E|| = size * KTOL ||a||, Hermitian for
        # eigh and Cholesky, which a full reconstruction would reject.  The probes miss it
        # with probability P(chi2_8 <= pi / (25 size^2)), below 6.2e-7 (README).
        # gram_cholesky's guard is that of cholesky.  The Cholesky backend is
        # the block recursion, whose leaves are smaller than a: its outermost
        # call factors a + E.
        rng = np.random.default_rng(n)
        a = _operand(rng, name, (n, n), complex_entries)
        u = _draw(rng, n, complex_entries)
        v = u if name in ("eigh", "cholesky") else _draw(rng, n, complex_entries)
        error = np.outer(u, v.conj())
        error *= size * dense_core.KTOL * fro_norm(a) / fro_norm(error)
        owner, attr = (dense_core, "_factor_inverse") if name == "cholesky" else (np.linalg, name)
        backend = getattr(owner, attr)

        def perturbed(x, *args, **kw):
            return backend(x + error if x.shape == error.shape else x, *args, **kw)

        monkeypatch.setattr(owner, attr, perturbed)
        with pytest.raises(FactorizationError, match="probe residual"):
            _guarded(name, a)

    @pytest.mark.parametrize("n", [3, 64, 257])
    @pytest.mark.parametrize("complex_entries", [False, True])
    @pytest.mark.parametrize("name", ["svd", "qr", "gram_cholesky", "eigh", "cholesky"])
    def test_sound_factors_pass_with_a_hundredfold_margin(
        self, monkeypatch, name, complex_entries, n
    ):
        rng = np.random.default_rng(n)
        a = _operand(rng, name, (n, n), complex_entries)
        monkeypatch.setattr(dense_core, "KTOL", dense_core.KTOL / 100)
        _guarded(name, a)

    @pytest.mark.parametrize("scale", [1e-310, 1e-300, 1e-150, 1.0, 1e150, 1e300, 1e307])
    @pytest.mark.parametrize("complex_entries", [False, True])
    @pytest.mark.parametrize(
        "name, shape",
        [
            ("eigh", (30, 30)),
            ("svd", (30, 30)),
            ("svd", (30, 12)),
            ("qr", (30, 30)),
            ("qr", (30, 12)),
            ("gram_cholesky", (30, 30)),
            ("gram_cholesky", (30, 12)),
            ("cholesky", (30, 30)),
        ],
    )
    def test_sound_factors_pass_at_every_scale(self, name, shape, complex_entries, scale):
        rng = np.random.default_rng(shape[1])
        a = _operand(rng, name, shape, complex_entries) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            if name == "gram_cholesky" and scale == 1e-310:
                # the factor passes the guard, but its inverse, of norm
                # above 1e310, is past the float64 range, and that refuses
                with pytest.raises(FactorizationError, match="its inverse did"):
                    _guarded(name, a)
            else:
                _guarded(name, a)

    @pytest.mark.parametrize("complex_entries", [False, True])
    @pytest.mark.parametrize("name", ["svd", "qr", "gram_cholesky", "eigh", "cholesky"])
    def test_one_guard_allocates_a_few_probe_blocks(self, monkeypatch, name, complex_entries):
        n = 400
        rng = np.random.default_rng(7)
        a = _operand(rng, name, (n, n), complex_entries)
        guard, peaks = dense_core._guard, []

        def traced(*args):
            tracemalloc.start()
            try:
                guard(*args)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()

        monkeypatch.setattr(dense_core, "_guard", traced)
        _guarded(name, a)
        block = n * dense_core._PROBES * a.itemsize
        assert len(peaks) == 1
        assert peaks[0] <= 8 * block < a.nbytes / 4


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
        product = (res.u[:, :3] * res.sigma) @ adjoint(res.v)
        assert np.linalg.norm(product - a) <= 1e-12 * np.linalg.norm(a)

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
        k = min(m, n)
        product = (res.u[:, :k] * res.sigma) @ adjoint(res.v[:, :k])
        assert np.linalg.norm(product - a) <= 1e-12 * np.linalg.norm(a)


    @pytest.mark.parametrize("factor", [svd, eigh])
    def test_tolerance_config_is_not_a_parameter(self, factor):
        # a positional config would otherwise land in svd's full_matrices
        with pytest.raises(TypeError):
            factor(np.eye(2), DEFAULT_TOL)


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

    @pytest.mark.parametrize(
        "t",
        [
            np.array([[1.0, 1.5e308], [-1.5e308, 1.0]]),
            np.array([[1.0, 1.5e308 * (1 + 1j)], [1.5e308 * (1 + 1j), 1.0]]),
        ],
        ids=["real", "complex"],
    )
    def test_rejects_non_hermitian_where_t_minus_its_adjoint_overflows(self, t):
        # a part of t - t* is 3e308; the gate takes the difference on halves
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotHermitianError, match="by inf"):
                eigh(t)

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
        product = (res.q * res.eigenvalues) @ adjoint(res.q)
        assert np.linalg.norm(product - h) <= 1e-12 * np.linalg.norm(h)


def _symmetrized_as_before(a):
    """`hermitian`'s `sym` by the expression it used to take, ``ref - ref.conj().T``."""
    halve = np.abs(np.stack([a.real, a.imag])).max() > dense_core._HALF_MAX
    ref = a * 0.5 if halve else a
    sym = ref - ref.conj().T
    if not halve:
        sym *= 0.5
    return a - sym


class TestHermitian:
    @pytest.mark.parametrize(
        "scale, complex_entries",
        [(1.0, False), (1.0, True), (1e308, False), (1e308, True)],
        ids=["real", "complex", "halved-real", "halved-complex"],
    )
    def test_sym_is_the_old_expression_to_the_bit(self, scale, complex_entries):
        # the difference is subtracted into a contiguous copy of the
        # transpose: the same operations on the same operands.  Above half
        # the float64 maximum the gate works on halves
        rng = np.random.default_rng(11)
        a = _draw(rng, (70, 70), complex_entries)
        a = (a + a.conj().T) / 2 + 1e-12 * _draw(rng, (70, 70), complex_entries)
        a = a / np.abs(np.stack([a.real, a.imag])).max() * scale
        assert np.array_equal(hermitian(a).sym, _symmetrized_as_before(a))

    @pytest.mark.parametrize("scale", [1.0, 1e308], ids=["plain", "halved"])
    @pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
    def test_an_exactly_hermitian_input_is_its_own_sym(self, scale, complex_entries):
        # the old expression gives the input back to the bit, signed zeros
        # included, so the gate returns the input itself and copies nothing
        rng = np.random.default_rng(12)
        a = _draw(rng, (70, 70), complex_entries)
        a = (a + a.conj().T) / 2
        a = a / np.abs(np.stack([a.real, a.imag])).max() * scale
        a[0, 1] = a[1, 0] = -0.0
        assert hermitian(a).sym is a
        assert _symmetrized_as_before(a).tobytes() == a.tobytes()

    @pytest.mark.parametrize("scale", [2.0, 1.5e308], ids=["plain", "halved"])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_a_one_by_one_input_is_left_as_it_is(self, scale, dtype):
        # an exactly Hermitian input is its own symmetrized form, so `sym`
        # may be the caller's array: a read-only one passes the gate and
        # both factorizations of `sym`, none of which writes to it
        a = np.array([[scale]], dtype=dtype)
        a.flags.writeable = False
        h = hermitian(a)
        eigh(h)
        cholesky_inverse(h, lambda bound: True)
        assert a[0, 0] == scale and h.sym[0, 0] == scale


def _graded_factor(n, complex_entries, cond):
    """A lower triangular factor whose rows, and so its diagonal, are graded from 1 to ``1/cond``.

    ``diag(logspace(0, -log10 cond)) C`` for the Cholesky factor `C` of a
    well-conditioned random definite matrix, so cond(l) is within a factor
    3 of `cond`.
    """
    rng = np.random.default_rng(n)
    g = _draw(rng, (n, n), complex_entries)
    c = np.linalg.cholesky(g @ g.conj().T / n + np.eye(n))
    return np.logspace(0.0, -np.log10(cond), n)[:, None] * c


class TestTriInv:
    """The blocked triangular inverse against np.linalg.inv.

    The bounds are those of a stable inverse (Higham, §14.2): the right
    residual ``||l x - I||_F <= n eps ||l||_F ||x||_F``, and so
    ``||x - l^{-1}||_F <= n eps cond(l) ||l^{-1}||_F``.  Over the cases
    below the residual stayed below 0.04 and the gap below 0.23 of
    ``eps ||l|| ||x||`` and ``eps cond(l) ||l^{-1}||``.
    """

    @pytest.mark.parametrize("cond", [1.0, 1e6, 1e12])
    @pytest.mark.parametrize("complex_entries", [False, True])
    @pytest.mark.parametrize("n", [1, dense_core._LEAF - 1, dense_core._LEAF, dense_core._LEAF + 1, 300])
    def test_matches_inv(self, n, complex_entries, cond):
        l = _graded_factor(n, complex_entries, cond)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            x = tri_inv(l)
        ref = np.linalg.inv(l)
        if n <= dense_core._LEAF:
            # one leaf: np.linalg.inv's own result
            assert np.array_equal(x, ref)
        assert np.array_equal(np.triu(x, 1), np.zeros_like(x))
        assert fro_norm(l @ x - np.eye(n)) <= n * _EPS * fro_norm(l) * fro_norm(x)
        assert fro_norm(x - ref) <= n * _EPS * np.linalg.cond(l) * fro_norm(ref)

    def test_a_corrupted_block_fails_the_check(self, monkeypatch):
        # n = 300 halves to 150 and 75, and into eight leaves of 37 and 38
        # rows (_LEAF = 64); the second is returned with one entry off by
        # 1e-6 of its norm
        l = _graded_factor(300, False, 1.0)
        backend, blocks = np.linalg.inv, []

        def corrupted(x):
            y = backend(x)
            blocks.append(x.shape)
            if len(blocks) == 2:
                y[-1, 0] += 1e-6 * fro_norm(y)
            return y

        monkeypatch.setattr(np.linalg, "inv", corrupted)
        with pytest.raises(FactorizationError, match="probe residual"):
            tri_inv(l)
        assert blocks == [(37, 37), (38, 38)] * 4

    def test_a_singular_block_raises(self):
        l = _graded_factor(300, False, 1.0)
        l[200, 200] = 0.0
        with pytest.raises(FactorizationError, match="triangular inverse failed"):
            tri_inv(l)



def _factored(l):
    """``l l*``, made exactly Hermitian."""
    t = l @ l.conj().T
    return (t + t.conj().T) / 2


class TestCholeskyInverse:
    """The block recursion for ``(l, x)`` against np.linalg.cholesky and `tri_inv`.

    `x` meets `TestTriInv`'s right-residual bound, and the backward error
    ``||l l* - t||_F`` the docstring's ``n eps κ_2(l) ||t||_F``.  Over the
    cases below it stayed below 2e-3 of that and within 1.4 times
    LAPACK's.
    """

    @pytest.mark.parametrize("cond", [1.0, 1e6, 1e12])
    @pytest.mark.parametrize(
        "n, complex_entries",
        [(dense_core._LEAF + 1, False), (2 * dense_core._LEAF + 1, False), (300, False), (400, True)],
        ids=["leaf+1", "2leaf+1", "300", "400c"],
    )
    def test_matches_the_lapack_factor_and_tri_inv(self, n, complex_entries, cond):
        t = _factored(_graded_factor(n, complex_entries, cond))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            l, x, _ = cholesky_inverse(hermitian(t), _no_floor)
        ref = np.linalg.cholesky(t)
        cond_l = np.linalg.cond(ref)
        assert np.array_equal(np.triu(l, 1), np.zeros_like(l))
        assert np.array_equal(np.triu(x, 1), np.zeros_like(x))
        assert fro_norm(l @ l.conj().T - t) <= n * _EPS * cond_l * fro_norm(t)
        assert fro_norm(l - ref) <= n * _EPS * cond_l * fro_norm(ref)
        assert fro_norm(l @ x - np.eye(n)) <= n * _EPS * fro_norm(l) * fro_norm(x)
        inv = tri_inv(ref)
        assert fro_norm(x - inv) <= n * _EPS * cond_l * fro_norm(inv)

    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_one_leaf_is_lapack_and_inv(self, complex_entries):
        t = _factored(_graded_factor(dense_core._LEAF, complex_entries, 1e3))
        l, x, _ = cholesky_inverse(hermitian(t), _no_floor)
        assert np.array_equal(l, np.linalg.cholesky(t))
        assert np.array_equal(x, np.linalg.inv(l))

    def test_the_floor_sees_the_pivots_factored_so_far(self):
        # 2 * _LEAF + 1 rows halve into three leaves, of _LEAF rows and two
        # of about _LEAF / 2, with the one small pivot, 1e-4, in the second:
        # each call sees the bound over the leaves so far, and the refusal
        # stops the recursion there
        leaf = dense_core._LEAF
        d = np.ones(2 * leaf + 1)
        d[leaf + 4] = 1e-8
        seen = []
        with pytest.raises(FactorizationError, match="pivot bound refused"):
            cholesky_inverse(hermitian(np.diag(d)), lambda bound: seen.append(bound) or bound > 1e-3)
        assert seen == [pytest.approx(1 / np.sqrt(leaf)), pytest.approx(1e-4, rel=1e-6)]

    def test_a_refusing_floor_leaves_the_leaf_uninverted(self, count_linalg):
        counts = count_linalg()
        with pytest.raises(FactorizationError, match="pivot bound"):
            cholesky_inverse(hermitian(EXAMPLE2_Q + np.eye(3)), lambda bound: False)
        assert (counts["cholesky"], counts["inv"]) == (1, 0)

    def test_a_failed_leaf_raises(self):
        # the rank-one tail fails in the last leaf
        n = 2 * dense_core._LEAF + 1
        t = np.eye(n)
        t[-2:, -2:] = 1.0
        with pytest.raises(FactorizationError, match="Cholesky factorization failed"):
            cholesky_inverse(hermitian(t), _no_floor)

    def test_a_corrupted_leaf_inverse_fails_the_check(self, monkeypatch):
        # the leaf inverses feed the panels, so an error in one reaches l
        # too; one of the two checks refuses it
        t = _factored(_graded_factor(300, False, 1.0))
        backend, calls = np.linalg.inv, []

        def corrupted(x):
            y = backend(x)
            calls.append(x.shape)
            if len(calls) == 2:
                y[-1, 0] += 1e-6 * fro_norm(y)
            return y

        monkeypatch.setattr(np.linalg, "inv", corrupted)
        with pytest.raises(FactorizationError, match="probe residual"):
            cholesky_inverse(hermitian(t), _no_floor)


class TestCholesky:
    def test_factors_the_gated_matrix(self):
        t = EXAMPLE2_Q + np.eye(3)
        l, x, _ = cholesky_inverse(hermitian(t), _no_floor)
        assert np.array_equal(l, np.linalg.cholesky(t))
        assert np.array_equal(x, np.linalg.inv(l))

    @pytest.mark.parametrize("t", [np.diag([1.0, -1.0]), np.ones((2, 2))], ids=["indefinite", "singular"])
    def test_not_definite_raises(self, t):
        with pytest.raises(FactorizationError, match="Cholesky factorization failed"):
            cholesky_inverse(hermitian(t), _no_floor)


class TestGramCholesky:
    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_factors_the_gram(self, complex_entries):
        # of the rows: a a* = l l*
        a = _draw(np.random.default_rng(3), (5, 12), complex_entries)
        l, x, _ = gram_cholesky(a, _no_floor)
        assert np.array_equal(l, np.linalg.cholesky(a @ a.conj().T))
        assert np.array_equal(x, np.linalg.inv(l))

    @pytest.mark.parametrize("exponent", [-540, -300, 300, 540])
    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_the_factor_scales_exactly(self, exponent, complex_entries):
        # ||a||^2 is past the float64 range at 2^±540: the Gram is formed of
        # a times a power of two, l divided by it after and x multiplied
        a = _draw(np.random.default_rng(4), (5, 12), complex_entries)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            l, x, s = gram_cholesky(a * 2.0**exponent, _no_floor)
        l1, x1, s1 = gram_cholesky(a, _no_floor)
        assert np.array_equal(l, l1 * 2.0**exponent)
        assert np.array_equal(x, x1 * 2.0**-exponent)
        assert s == pytest.approx(s1 * 2.0**exponent, rel=4 * _EPS)

    def test_the_floor_sees_the_unscaled_pivots(self):
        # the pivot bound, then s, both of the unscaled l = 2^540 I
        seen = []
        gram_cholesky(2.0**540 * np.eye(2), lambda bound: seen.append(bound) or True)
        assert seen == [2.0**540 / np.sqrt(2)] * 2

    @pytest.mark.parametrize("a", [np.ones((2, 3)), np.zeros((2, 2))], ids=["rank-one", "zero"])
    def test_a_singular_gram_raises(self, a):
        with pytest.raises(FactorizationError, match="Cholesky factorization failed"):
            gram_cholesky(a, _no_floor)
