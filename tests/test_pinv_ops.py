import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qfmin import (
    DEFAULT_TOL,
    DimensionMismatchError,
    IllConditioningWarning,
    NarrowAngleWarning,
    NotEpError,
    NotPositiveError,
    SubspaceBasis,
    adjoint,
    ep_decompose,
    is_ep,
    lat_invariant,
    null_basis,
    pinv,
    pinv_with_rank,
    principal_angle_diag,
    projector_range,
    projector_rangestar,
    random_pd_problem,
    range_basis,
    rank_decide,
    reverse_order_holds,
    sqrt_psd,
)

EXAMPLE2_Q = np.array([[14.0, 20, 28], [20, 83, 40], [28, 40, 56]])
NILPOTENT = np.array([[0.0, 1], [0, 0]])
EP_SCALES = [1e-200, 1.0, 1e11, 1e150]


def penrose_residuals(a, p):
    scale = max(1.0, np.linalg.norm(a))
    pscale = max(1.0, np.linalg.norm(p))
    return (
        np.linalg.norm(a @ p @ a - a) / scale,
        np.linalg.norm(p @ a @ p - p) / pscale,
        np.linalg.norm(adjoint(a @ p) - a @ p) / max(1.0, np.linalg.norm(a @ p)),
        np.linalg.norm(adjoint(p @ a) - p @ a) / max(1.0, np.linalg.norm(p @ a)),
    )


class TestPinv:
    def test_diagonal_rule(self):
        assert_allclose(pinv(np.diag([1.0, 2.0, 0.0])), np.diag([1.0, 0.5, 0.0]))

    def test_identity(self):
        assert_allclose(pinv(np.eye(4)), np.eye(4))

    def test_left_shift_is_right_shift(self):
        shift = np.eye(5, k=1)
        assert_allclose(pinv(shift), shift.T, atol=1e-14)

    def test_zero_matrix(self):
        assert_allclose(pinv(np.zeros((3, 2))), np.zeros((2, 3)))

    def test_involution(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 4)) @ rng.standard_normal((4, 5))
        assert np.linalg.norm(pinv(pinv(a)) - a) <= 1e-10 * np.linalg.norm(a)

    def test_adjoint_commutes(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        assert np.linalg.norm(pinv(adjoint(a)) - adjoint(pinv(a))) <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=8),
        n=st.integers(min_value=1, max_value=8),
        inner=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31),
        complex_entries=st.booleans(),
    )
    def test_penrose_equations_property(self, m, n, inner, seed, complex_entries):
        rng = np.random.default_rng(seed)
        left = rng.standard_normal((m, inner))
        right = rng.standard_normal((inner, n))
        if complex_entries:
            left = left + 1j * rng.standard_normal((m, inner))
            right = right + 1j * rng.standard_normal((inner, n))
        a = left @ right
        residuals = penrose_residuals(a, pinv(a))
        assert max(residuals) <= 1e-10


class TestRankDecide:
    def test_machine_noise_tail(self):
        from qfmin import ToleranceConfig

        decision = rank_decide(
            np.array([3.0, 1.0, 1e-16]), ToleranceConfig(rtol=1e-12)
        )
        assert decision.rank == 2

    def test_all_zero(self):
        decision = rank_decide(np.zeros(4))
        assert decision.rank == 0
        assert decision.sigma_dropped_max == 0.0

    def test_ordering_invariant(self):
        decision = rank_decide(np.array([5.0, 2.0, 1e-18]))
        assert decision.sigma_kept_min > decision.threshold >= decision.sigma_dropped_max

    def test_no_warning_above_ratio(self, recwarn):
        from qfmin import ToleranceConfig

        rank_decide(np.array([1.0, 1e-6]), ToleranceConfig(rtol=1e-12))
        assert not [w for w in recwarn if issubclass(w.category, IllConditioningWarning)]

    def test_warns_below_ratio(self):
        from qfmin import ToleranceConfig

        with pytest.warns(IllConditioningWarning):
            rank_decide(np.array([1.0, 1e-9]), ToleranceConfig(rtol=1e-12))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            rank_decide(np.array([1.0, 2.0]))


class TestProjectors:
    def test_range_invertible(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 4)) + np.eye(4) * 4
        assert_allclose(projector_range(a), np.eye(4), atol=1e-12)

    def test_range_diagonal(self):
        assert_allclose(projector_range(np.diag([1.0, 0.0])), np.diag([1.0, 0.0]))

    def test_range_of_singular_form(self):
        w = np.array([2.0, 0, -1])
        expected = np.eye(3) - np.outer(w, w) / (w @ w)
        assert_allclose(projector_range(EXAMPLE2_Q), expected, atol=1e-12)

    def test_rangestar_row_vector(self):
        a = np.array([[2.0, 1, -1]])
        expected = np.array([[4.0, 2, -2], [2, 1, -1], [-2, -1, 1]]) / 6.0
        assert_allclose(projector_rangestar(a), expected, atol=1e-14)

    def test_rangestar_zero(self):
        assert_allclose(projector_rangestar(np.zeros((2, 3))), np.zeros((3, 3)))

    @pytest.mark.parametrize("seed", range(4))
    def test_projector_laws(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((5, 3)) @ rng.standard_normal((3, 6))
        p = projector_range(a)
        scale = max(1.0, np.linalg.norm(a))
        assert np.linalg.norm(p - adjoint(p)) <= 1e-10
        assert np.linalg.norm(p @ p - p) <= 1e-10
        assert np.linalg.norm(p @ a - a) <= 1e-10 * scale


class TestIsEp:
    def test_hermitian_always(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((5, 5))
        assert is_ep(m + m.T)

    def test_truncated_shift_is_not(self):
        assert not is_ep(np.array([[0.0, 1], [0, 0]]))

    def test_invertible_always(self):
        rng = np.random.default_rng(7)
        assert is_ep(rng.standard_normal((4, 4)) + 4 * np.eye(4))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_null_space_comparison(self, seed):
        rng = np.random.default_rng(seed)
        t = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 5))
        null_t = null_basis(t)
        null_tstar = null_basis(adjoint(t))
        same_kernels = (
            np.linalg.norm(null_t.projector() - null_tstar.projector()) <= 1e-8
        )
        assert is_ep(t) == same_kernels

    @pytest.mark.parametrize("scale", EP_SCALES)
    def test_verdict_is_scale_free(self, scale):
        assert not is_ep(scale * NILPOTENT)
        assert is_ep(scale * np.diag([1.0, 0.0]))


class TestEpDecompose:
    def test_reordering_diagonal(self):
        dec = ep_decompose(np.diag([0.0, 3.0]))
        assert dec.rank == 1
        assert_allclose(dec.a1, [[3.0]])

    def test_singular_form_reconstruction(self):
        dec = ep_decompose(EXAMPLE2_Q)
        assert dec.rank == 2
        assert np.linalg.norm(dec.reconstruct() - EXAMPLE2_Q) <= 1e-10 * np.linalg.norm(
            EXAMPLE2_Q
        )

    def test_identity(self):
        dec = ep_decompose(np.eye(3))
        assert dec.rank == 3
        assert_allclose(dec.a1, np.eye(3), atol=1e-14)

    def test_core_invertible(self):
        dec = ep_decompose(EXAMPLE2_Q)
        assert np.linalg.norm(
            np.linalg.inv(dec.a1) @ dec.a1 - np.eye(dec.rank)
        ) <= 1e-10

    def test_psd_core_is_positive_definite(self):
        dec = ep_decompose(EXAMPLE2_Q)
        core = (dec.a1 + adjoint(dec.a1)) / 2
        assert np.all(np.linalg.eigvalsh(core) > 0)

    def test_rejects_non_ep(self):
        with pytest.raises(NotEpError):
            ep_decompose(np.array([[0.0, 1], [0, 0]]))

    def test_unitarity(self):
        dec = ep_decompose(EXAMPLE2_Q)
        assert np.linalg.norm(adjoint(dec.u1) @ dec.u1 - np.eye(3)) <= 1e-12

    @pytest.mark.parametrize("scale", EP_SCALES)
    def test_verdict_is_scale_free(self, scale):
        with pytest.raises(NotEpError):
            ep_decompose(scale * NILPOTENT)
        dec = ep_decompose(scale * np.diag([1.0, 0.0]))
        assert dec.rank == 1
        assert_allclose(dec.a1, [[scale]], rtol=1e-14)

    def test_factors_once_and_warns_once(self, monkeypatch):
        calls = []
        real_svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return real_svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            dec = ep_decompose(np.diag([1.0, 1e-12, 0.0]))
        assert dec.rank == 2
        assert calls == [(3, 3)]
        assert [w.category for w in caught] == [IllConditioningWarning]


class TestSqrtPsd:
    def test_diagonal(self):
        assert_allclose(sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-14)

    def test_periodic_pattern(self):
        t = np.diag([1.0, 2.0, 1.0, 2.0])
        assert_allclose(
            sqrt_psd(t), np.diag([1.0, np.sqrt(2), 1.0, np.sqrt(2)]), atol=1e-14
        )

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotPositiveError):
            sqrt_psd(np.diag([-1.0, 1.0]))

    @pytest.mark.parametrize("seed", range(4))
    def test_square_root_laws(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((6, 3))
        t = m @ m.T
        root = sqrt_psd(t)
        assert np.linalg.norm(root - adjoint(root)) <= 1e-12
        assert np.min(np.linalg.eigvalsh(root)) >= -1e-10
        assert np.linalg.norm(root @ root - t) <= 1e-9 * np.linalg.norm(t)

    def test_clamps_tiny_negatives(self):
        t = np.diag([1.0, -1e-14])
        root = sqrt_psd(t)
        assert_allclose(root, np.diag([1.0, 0.0]), atol=1e-7)


class TestPrincipalAngle:
    def test_invertible_constraint_gives_right_angle(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        assert principal_angle_diag(a, np.eye(3)) == pytest.approx(np.pi / 2)

    def test_orthogonal_subspaces(self):
        a = np.diag([0.0, 1.0])  # kernel = span{e1}
        b = np.array([[0.0], [1.0]])  # range = span{e2}
        assert principal_angle_diag(a, b) == pytest.approx(np.pi / 2)

    def test_tilted_line(self):
        theta = 0.3
        a = np.diag([0.0, 1.0])
        b = np.array([[np.cos(theta)], [np.sin(theta)]])
        assert principal_angle_diag(a, b) == pytest.approx(theta, abs=1e-9)

    @pytest.mark.parametrize(
        "theta", [1e-3, 1e-5, 1e-7, 1e-8, 1e-10], ids=["1e-3", "1e-5", "1e-7", "1e-8", "1e-10"]
    )
    def test_narrow_angle_from_sines(self, theta):
        # the sine of a small angle keeps its relative accuracy, where the
        # cosine rounds to 1 below about sqrt(2 n eps)
        a = np.diag([0.0, 1.0])
        b = np.array([[np.cos(theta)], [np.sin(theta)]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            angle = principal_angle_diag(a, b)
        assert abs(angle - theta) <= 1e-12
        expected = [NarrowAngleWarning] if theta < DEFAULT_TOL.angle_warn else []
        assert [w.category for w in caught] == expected

    def test_contained_kernel_collapses_to_right_angle(self):
        a = np.diag([0.0, 1.0])
        assert principal_angle_diag(a, np.eye(2)) == pytest.approx(np.pi / 2)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_roundoff_of_an_intersection_is_not_an_angle(self, seed):
        # R(T^{-1/2}) is the whole space, so N(a) lies inside it; the
        # cosines of that intersection carry errors of order n eps
        t, a, _ = random_pd_problem(200, 100, seed=seed)
        w, q = np.linalg.eigh(t)
        partner = (q / np.sqrt(w)) @ q.T
        with warnings.catch_warnings():
            warnings.simplefilter("error", NarrowAngleWarning)
            assert principal_angle_diag(a, partner) == np.pi / 2

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            principal_angle_diag(np.eye(2), np.eye(3))

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_two_svd_construction(self, seed):
        # reference: rotate N(a) onto its principal vectors, drop those in
        # R(b), and take the largest cosine of the rest by a second SVD
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 13))
        m, k = int(rng.integers(1, n)), int(rng.integers(1, n + 1))
        a, b = rng.standard_normal((m, n)), rng.standard_normal((n, k))
        if seed % 2:
            a, b = a + 1j * rng.standard_normal((m, n)), b + 1j * rng.standard_normal((n, k))
        if seed % 3 == 0:
            # force a line of R(b) into N(a)
            shared = b[:, 0] / np.linalg.norm(b[:, 0])
            a = a - np.outer(a @ shared, shared.conj())
        na, rb = null_basis(a), range_basis(b)
        u_m, s_m, _ = np.linalg.svd(na.basis.conj().T @ rb.basis, full_matrices=True)
        cosines = np.zeros(na.dim)
        cosines[: s_m.size] = np.clip(s_m, 0.0, 1.0)
        keep = cosines < 1.0 - n * np.finfo(float).eps
        expected = np.pi / 2
        if np.any(keep):
            h = na.basis @ u_m[:, keep]
            rest = np.linalg.svd(h.conj().T @ rb.basis, compute_uv=False)
            expected = float(np.arccos(np.clip(rest[0], 0.0, 1.0)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NarrowAngleWarning)
            angle = principal_angle_diag(a, b)
        assert angle == pytest.approx(expected, abs=1e-12)


class TestReverseOrder:
    def test_diagonal_pair(self):
        a = np.diag([1.0, 2.0, 0.0])
        b = np.diag([3.0, 0.0, 5.0])
        report = reverse_order_holds(a, b)
        assert report.holds
        direct = np.linalg.norm(pinv(a @ b) - pinv(b) @ pinv(a))
        assert direct <= 1e-10

    def test_known_failing_pair_matches_direct_test(self):
        a = np.array([[1.0, 1], [0, 0]])
        b = np.array([[1.0, 0], [1, 1]])
        report = reverse_order_holds(a, b)
        direct = np.linalg.norm(pinv(a @ b) - pinv(b) @ pinv(a))
        assert bool(report) == (direct <= 1e-8)
        assert not report.holds

    def test_commuting_construction(self):
        rng = np.random.default_rng(9)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        a = q @ np.diag([2.0, 1.0, 0.0, 0.5]) @ adjoint(q)
        b = q @ np.diag([3.0, 0.0, 1.0, 2.0]) @ adjoint(q)
        report = reverse_order_holds(a, b)
        assert report.holds
        norm = np.linalg.norm(pinv(a @ b))
        assert np.linalg.norm(pinv(a @ b) - pinv(b) @ pinv(a)) <= 1e-8 * norm

    def test_holds_implies_direct_identity(self):
        # shared eigenbasis with overlapping nonzero spectra keeps the
        # product honestly nonzero, so its pseudoinverse is well posed
        rng = np.random.default_rng(10)
        for _ in range(20):
            q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
            alpha = rng.uniform(0.5, 2.0, 5) * (rng.random(5) > 0.3)
            beta = rng.uniform(0.5, 2.0, 5) * (rng.random(5) > 0.3)
            alpha[0] = beta[0] = 1.0
            a = q @ np.diag(alpha) @ adjoint(q)
            b = q @ np.diag(beta) @ adjoint(q)
            report = reverse_order_holds(a, b)
            if report.holds:
                gap = np.linalg.norm(pinv(a @ b) - pinv(b) @ pinv(a))
                assert gap <= 1e-8 * max(1.0, np.linalg.norm(pinv(a @ b)))

    @pytest.mark.parametrize("scale", [1e-200, 1e-8, 1.0, 1e8, 1e160])
    @pytest.mark.parametrize("side", ["a", "b"])
    def test_verdict_is_scale_free(self, scale, side):
        # in each generic pair one commutator vanishes (its projector is
        # the identity) and the other, of degree 2 in the scaled operand, fails
        rng = np.random.default_rng(13)
        wide, square, tall = (rng.standard_normal(shape) for shape in ((3, 5), (5, 5), (5, 3)))
        commuting = (np.eye(5)[:3], np.diag(np.arange(1.0, 6.0)))
        pairs = (((wide, square), False), ((square, tall), False), (commuting, True))
        for (a, b), holds in pairs:
            if side == "a":
                a = scale * a
            else:
                b = scale * b
            assert reverse_order_holds(a, b).holds is holds

    def test_commutators_keep_their_scale(self):
        # the report is ||[pinv(a) a, b b*]||, of degree 2 in b, and reads
        # inf once that is past the float64 range
        rng = np.random.default_rng(14)
        a, b = rng.standard_normal((3, 5)), rng.standard_normal((5, 5))
        base = reverse_order_holds(a, b).rangestar_commutator
        for scale in (1e-8, 1e8, 1e160):
            got = reverse_order_holds(a, scale * b).rangestar_commutator
            assert got == pytest.approx(base * scale * scale, rel=1e-10)
        assert reverse_order_holds(a, 1e160 * b).rangestar_commutator == np.inf

    def test_product_rank_is_scale_free(self):
        # the product of the scaled operands overflows at 1e160 and
        # underflows at 1e-160; the rank is decided without forming it
        rng = np.random.default_rng(14)
        a, b = rng.standard_normal((3, 5)), rng.standard_normal((5, 5))
        direct = rank_decide(np.linalg.svd(a @ b, compute_uv=False), dim=3)
        for scale in (1e-160, 1.0, 1e160):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                report = reverse_order_holds(scale * a, scale * b)
            assert report.ab_rank.rank == 3
            if scale == 1.0:
                assert report.ab_rank.threshold == pytest.approx(direct.threshold, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            reverse_order_holds(np.eye(2), np.eye(3))


class TestLatInvariant:
    def test_identity_always(self):
        sub = range_basis(np.array([[1.0], [1.0]]))
        assert lat_invariant(sub, np.eye(2))

    def test_eigenvector_line(self):
        t = np.diag([1.0, 2.0])
        e1 = range_basis(np.array([[1.0], [0.0]]))
        tilted = range_basis(np.array([[1.0], [1.0]]))
        assert lat_invariant(e1, t)
        assert not lat_invariant(tilted, t)

    def test_full_space(self):
        rng = np.random.default_rng(11)
        t = rng.standard_normal((4, 4))
        sub = SubspaceBasis(np.eye(4), 4)
        assert lat_invariant(sub, t)

    def test_range_of_constraint(self):
        shift = np.eye(4, k=1)
        t = np.diag([1.0, 2.0, 1.0, 2.0])
        assert lat_invariant(range_basis(shift), t)

    def test_dimension_mismatch(self):
        sub = SubspaceBasis(np.eye(2), 2)
        with pytest.raises(DimensionMismatchError):
            lat_invariant(sub, np.eye(3))


class TestSubspaceBasis:
    def test_from_span_orthonormalizes(self):
        raw = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])
        sub = range_basis(raw)
        assert sub.dim == 1
        assert sub.ambient_dim == 3
        assert np.linalg.norm(adjoint(sub.basis) @ sub.basis - np.eye(1)) <= 1e-12

    def test_null_plus_rangestar_partition(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((3, 6))
        null = null_basis(a)
        assert null.dim == 3
        assert np.linalg.norm(a @ null.basis) <= 1e-12

    def test_pinv_with_rank_reports(self):
        mat = np.diag([2.0, 1e-18])
        p, decision = pinv_with_rank(mat)
        assert decision.rank == 1
        assert_allclose(p, np.diag([0.5, 0.0]), atol=1e-14)
