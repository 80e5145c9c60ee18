"""Acceptance suite: one test per acceptance criterion.

Each test prints a single summary line; run with ``pytest -v`` to get one
pass/fail line per criterion.  Criteria with runtime budgets assert them.
"""

import time

import numpy as np
import pytest

from qfmin import (
    QpProblem,
    ToleranceConfig,
    adjoint,
    example1_convergence,
    example1_solution,
    kkt_solve,
    l2_models,
    lat_invariant,
    min_norm_ls,
    minimize_posdef,
    minimize_posdef_diag,
    minimize_psd_complement,
    null_basis,
    pinv,
    quad_value,
    random_pd_problem,
    random_psd_problem,
    range_basis,
    rangestar_basis,
    reduced_solve,
    reverse_order_holds,
    try_cor1_shortcut,
)

EXAMPLE2_Q = np.array([[14.0, 20, 28], [20, 83, 40], [28, 40, 56]])
EXAMPLE2_A = np.array([[2.0, 1, -1]])
EXAMPLE2_B = np.array([10.0])
LIMIT = 7.0 * np.pi**2 / 24.0


@pytest.fixture(scope="module")
def pd_instances():
    """100 positive definite instances with both solver routes and the oracle."""
    rows = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 21))
        m = int(rng.integers(1, n))
        t, a, b = random_pd_problem(n, m, seed=seed, complex_entries=seed >= 80)
        problem = QpProblem(t=t, a=a, b=b)
        rows.append(
            {
                "t": t,
                "a": a,
                "b": b,
                "posdef": minimize_posdef(problem),
                "posdef_diag": minimize_posdef_diag(problem),
                "oracle": kkt_solve(t, a, b),
            }
        )
    return rows


@pytest.fixture(scope="module")
def psd_instances():
    """100 singular PSD instances (rank deficiency 1 to 3) with oracle."""
    rows = []
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(5, 21))
        deficiency = int(rng.integers(1, 4))
        m = int(rng.integers(1, n))
        t, a, b = random_psd_problem(
            n, m, rank=n - deficiency, seed=1000 + seed, complex_entries=seed >= 80
        )
        problem = QpProblem(t=t, a=a, b=b)
        rows.append(
            {
                "t": t,
                "a": a,
                "b": b,
                "result": minimize_psd_complement(problem),
                "oracle": reduced_solve(t, a, b),
            }
        )
    return rows


def test_criterion_1_example2_regression():
    start = time.perf_counter()
    result = minimize_psd_complement(
        QpProblem(t=EXAMPLE2_Q, a=EXAMPLE2_A, b=EXAMPLE2_B)
    )
    elapsed = time.perf_counter() - start
    printed = np.array([-2.8572, 10.0, -5.7143])
    assert np.max(np.abs(result.xhat - printed)) <= 2e-4
    assert abs(result.min_value - 5442.857) <= 0.05
    direct = quad_value(EXAMPLE2_Q, result.xhat)
    assert abs(result.min_value - direct) <= 1e-9 * max(1.0, abs(direct))
    assert elapsed < 1.0
    print(
        f"criterion 1: xhat within {np.max(np.abs(result.xhat - printed)):.2e} "
        f"of printed values, min {result.min_value:.6f}, {elapsed:.3f} s"
    )


def test_criterion_2_example2_null_direction():
    v = np.array([4.0, 0.0, -2.0])
    assert EXAMPLE2_A @ v == pytest.approx(10.0, abs=1e-12)
    unrestricted = quad_value(EXAMPLE2_Q, v)
    assert unrestricted <= 1e-9
    restricted = minimize_psd_complement(
        QpProblem(t=EXAMPLE2_Q, a=EXAMPLE2_A, b=EXAMPLE2_B)
    ).min_value
    assert restricted == pytest.approx(38100.0 / 7, rel=1e-9)
    print(
        f"criterion 2: f(v) = {unrestricted:.2e} at the feasible null direction, "
        f"restricted minimum {restricted:.4f}"
    )


def test_criterion_3_example1_convergence(monkeypatch):
    start = time.perf_counter()
    series = example1_convergence([10, 100, 1000, 10_000])
    final_error = abs(series.min_values[-1] - LIMIT)
    assert final_error <= 3.1e-4
    assert np.all(np.diff(series.min_values) > 0)
    for n, cutoff in [(100, 10_000), (10_000, 400)]:
        monkeypatch.setattr(l2_models, "DENSE_CUTOFF", cutoff)
        xhat, _ = example1_solution(n)
        exact = np.concatenate([[0.0], 1.0 / np.arange(1, n + 1)])
        assert np.max(np.abs(xhat - exact)) <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"criterion 3: |min(1e4) - 7pi^2/24| = {final_error:.2e}, monotone minima, "
        f"{elapsed:.2f} s"
    )


def test_criterion_4_penrose_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    worst = 0.0
    while checked < 200:
        m = int(rng.integers(1, 13))
        n = int(rng.integers(1, 13))
        inner = int(rng.integers(1, min(m, n) + 1))
        a = rng.standard_normal((m, inner)) @ rng.standard_normal((inner, n))
        if checked % 2 == 1:
            a = a + 1j * (
                rng.standard_normal((m, inner)) @ rng.standard_normal((inner, n))
            )
        p = pinv(a)
        scale_a = max(1.0, np.linalg.norm(a))
        residuals = (
            np.linalg.norm(a @ p @ a - a) / scale_a,
            np.linalg.norm(p @ a @ p - p) / max(1.0, np.linalg.norm(p)),
            np.linalg.norm(adjoint(a @ p) - a @ p) / max(1.0, np.linalg.norm(a @ p)),
            np.linalg.norm(adjoint(p @ a) - p @ a) / max(1.0, np.linalg.norm(p @ a)),
        )
        worst = max(worst, max(residuals))
        assert max(residuals) <= 1e-10
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        f"criterion 4: 200 matrices, worst Penrose residual {worst:.2e}, "
        f"{elapsed:.2f} s"
    )


def test_criterion_5_oracle_equivalence(pd_instances, psd_instances):
    start = time.perf_counter()
    for row in pd_instances:
        oracle = row["oracle"]
        result = row["posdef"]
        assert abs(result.min_value - oracle.min_value) <= 1e-8 * max(
            1.0, abs(oracle.min_value)
        )
        assert np.linalg.norm(result.xhat - oracle.x) <= 1e-6
    for row in psd_instances:
        oracle = row["oracle"]
        result = row["result"]
        assert abs(result.min_value - oracle.min_value) <= 1e-8 * max(
            1.0, abs(oracle.min_value)
        )
        assert np.linalg.norm(result.xhat - oracle.x) <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"criterion 5: 100 PD + 100 singular-PSD instances agree with the "
        f"oracles, {elapsed:.2f} s"
    )


def test_criterion_6_path_agreement(pd_instances):
    worst = 0.0
    for row in pd_instances:
        gap = np.linalg.norm(row["posdef"].xhat - row["posdef_diag"].xhat)
        worst = max(worst, gap)
        assert gap <= 1e-9
    print(f"criterion 6: eigenbasis vs square-root route, worst gap {worst:.2e}")


def _invariant_range_instance(seed, rotate):
    # a and t share an eigenbasis (a commutes with t), so both the column
    # and row spaces of a are spanned by eigenvectors of t; a is kept
    # singular for odd seeds so the pseudoinverse is not just an inverse
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    d = rng.uniform(0.5, 4.0, n)
    c = rng.uniform(0.5, 2.0, n) * (rng.random(n) > 0.3)
    c[0] = 0.0 if seed % 2 else 1.0
    c[1] = 1.5
    t = np.diag(d)
    a = np.diag(c)
    if rotate:
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        t = q @ t @ adjoint(q)
        t = (t + adjoint(t)) / 2
        a = q @ a @ adjoint(q)
    b = a @ rng.standard_normal(n)
    return QpProblem(t=t, a=a, b=b)


def test_criterion_7_invariant_range_shortcut():
    fired = 0
    for seed in range(20):
        problem = _invariant_range_instance(seed, rotate=seed >= 10)
        assert lat_invariant(range_basis(problem.a), problem.t)
        assert lat_invariant(rangestar_basis(problem.a), problem.t)
        shortcut = try_cor1_shortcut(problem)
        assert shortcut is not None
        fired += 1
        full = minimize_posdef(problem)
        assert np.linalg.norm(shortcut.xhat - full.xhat) <= 1e-8
        direct = min_norm_ls(problem.a, problem.b)
        assert np.linalg.norm(shortcut.xhat - direct) <= 1e-12
    print(f"criterion 7: shortcut fired and matched the full route on {fired}/20")


def test_criterion_8_reverse_order_law():
    rng = np.random.default_rng(77)
    for _ in range(50):
        n = int(rng.integers(3, 8))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        alpha = rng.uniform(0.5, 2.0, n) * (rng.random(n) > 0.25)
        beta = rng.uniform(0.5, 2.0, n) * (rng.random(n) > 0.25)
        alpha[0] = beta[0] = 1.0
        a = q @ np.diag(alpha) @ adjoint(q)
        b = q @ np.diag(beta) @ adjoint(q)
        report = reverse_order_holds(a, b)
        assert report.holds
        lhs = pinv(a @ b)
        gap = np.linalg.norm(lhs - pinv(b) @ pinv(a))
        assert gap <= 1e-8 * max(1.0, np.linalg.norm(lhs))

    generic_failures = 0
    logged = []
    count = 0
    while count < 50:
        m = int(rng.integers(3, 8))
        k = int(rng.integers(3, 8))
        n = int(rng.integers(3, 8))
        r1 = int(rng.integers(1, min(m, k)))
        r2 = int(rng.integers(1, min(k, n)))
        a = rng.standard_normal((m, r1)) @ rng.standard_normal((r1, k))
        b = rng.standard_normal((k, r2)) @ rng.standard_normal((r2, n))
        report = reverse_order_holds(a, b)
        if report.holds:
            continue
        count += 1
        gap = np.linalg.norm(pinv(a @ b) - pinv(b) @ pinv(a))
        if gap > 1e-6:
            generic_failures += 1
        else:
            logged.append(gap)
    assert generic_failures >= 45
    print(
        f"criterion 8: 50 commuting pairs satisfied the law; generic pairs "
        f"violated it in {generic_failures}/50 (near-boundary gaps: {logged})"
    )


def _restricted_directions(a, t):
    # N(a) intersect R(t) via coordinates on R(t); keeps every rank
    # decision on a well-scaled matrix
    basis = range_basis(t).basis
    coeffs = null_basis(a @ basis).basis
    return basis @ coeffs


def test_criterion_9_variational_property(pd_instances, psd_instances):
    rng = np.random.default_rng(99)
    worst_drop = 0.0
    for row in pd_instances:
        directions = null_basis(row["a"]).basis
        result = row["posdef"]
        for _ in range(20):
            coeff = rng.standard_normal(directions.shape[1])
            step = 10.0 ** rng.uniform(-3, 1)
            d = step * (directions @ coeff)
            value = quad_value(row["t"], result.xhat + d)
            worst_drop = max(worst_drop, result.min_value - value)
            assert value >= result.min_value - 1e-10
    for row in psd_instances:
        directions = _restricted_directions(row["a"], row["t"])
        result = row["result"]
        if directions.shape[1] == 0:
            continue
        for _ in range(20):
            coeff = rng.standard_normal(directions.shape[1])
            step = 10.0 ** rng.uniform(-3, 1)
            d = step * (directions @ coeff)
            value = quad_value(row["t"], result.xhat + d)
            worst_drop = max(worst_drop, result.min_value - value)
            assert value >= result.min_value - 1e-10
    print(
        f"criterion 9: 20 feasible perturbations per solve never undercut the "
        f"minimum (worst drop {worst_drop:.2e})"
    )
