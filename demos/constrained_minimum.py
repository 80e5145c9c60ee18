"""Constrained quadratic minimization, definite and singular cases.

Solves min <x, T x> subject to A x = b three ways:

* a strictly positive definite T, where the factor-kernel and square-root
  routes agree and an independent saddle-point solver confirms the value;
* a commuting constraint, where the solution collapses to pinv(A) b;
* a singular positive semidefinite T (loaded from a problem file), where
  the unrestricted infimum is 0 along kernel directions and the honest
  question is the minimum over the kernel complement.
"""

import pathlib

import numpy as np

from qfmin import (
    QpProblem,
    grid_refute,
    kkt_solve,
    load_problem_arrays,
    minimize_posdef,
    minimize_posdef_diag,
    quad_value,
    reduced_solve,
    solve,
    try_cor1_shortcut,
)

PROBLEM = pathlib.Path(__file__).parent / "problems" / "singular_form.json"


def definite_case():
    print("== strictly positive definite ==")
    rng = np.random.default_rng(11)
    m = rng.standard_normal((5, 5))
    t = m @ m.T + 0.5 * np.eye(5)
    a = rng.standard_normal((2, 5))
    b = a @ rng.standard_normal(5)
    p = QpProblem(t=t, a=a, b=b)

    via_kernel = minimize_posdef_diag(p)
    via_root = minimize_posdef(p)
    oracle = kkt_solve(t, a, b)
    print(f"  factor-kernel route min {via_kernel.min_value:.12f}")
    print(f"  square-root route   min {via_root.min_value:.12f}")
    print(f"  saddle-point check  min {oracle.min_value:.12f} "
          f"(kkt residual {oracle.kkt_residual:.1e})")
    print(f"  routes differ in x by {np.linalg.norm(via_kernel.xhat - via_root.xhat):.1e}")


def shortcut_case():
    print("\n== commuting constraint: minimizer is pinv(A) b ==")
    rng = np.random.default_rng(23)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    t = q @ np.diag([0.5, 1.0, 2.0, 4.0]) @ q.T
    t = (t + t.T) / 2
    a = q @ np.diag([1.0, 3.0, 0.0, 2.0]) @ q.T  # shares the eigenbasis of t
    b = a @ rng.standard_normal(4)
    p = QpProblem(t=t, a=a, b=b)

    short = try_cor1_shortcut(p)
    full = minimize_posdef(p)
    print(f"  shortcut fired: {short is not None}")
    print(f"  gap to the full route {np.linalg.norm(short.xhat - full.xhat):.1e}")
    print(f"  min value {short.min_value:.12f}")


def singular_case():
    print(f"\n== singular form from {PROBLEM.name} ==")
    t, a, b, _ = load_problem_arrays(PROBLEM)
    print("  T eigenvalues:", np.round(np.linalg.eigvalsh(t), 6))

    result = solve(QpProblem(t=t, a=a, b=b))
    print(f"  route {result.method.value}: x = {np.round(result.xhat, 6)}, "
          f"min {result.min_value:.6f}")

    # the unrestricted problem is degenerate: kernel directions satisfy the
    # constraint while driving the form to zero
    kernel = np.array([4.0, 0.0, -2.0])
    print(f"  kernel point v = {kernel.tolist()}: A v = {float((a @ kernel)[0]):g}, "
          f"<v, T v> = {quad_value(t, kernel):.2e}")

    oracle = reduced_solve(t, a, b)
    rel = abs(result.min_value - oracle.min_value) / max(1.0, abs(oracle.min_value))
    print(f"  reduced-parametrization oracle agrees to {rel:.1e}")

    stands = grid_refute(t, a, b, result.xhat, n_samples=20000, seed=1)
    print(f"  20000 random feasible perturbations failed to beat it: {stands}")


def main():
    definite_case()
    shortcut_case()
    singular_case()


if __name__ == "__main__":
    main()
