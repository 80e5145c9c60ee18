"""Operator diagnostics: EP structure, square roots, angles, rank warnings.

Walks the diagnostic toolkit over the bundled singular form: splits the
operator into its invertible core and kernel, takes the positive square
root, measures the principal angle between the constraint row space and
the kernel complement, and shows what the rank machinery reports when a
spectrum straddles the decision threshold.
"""

import pathlib
import warnings

import numpy as np

from qfmin import (
    IllConditioningWarning,
    ToleranceConfig,
    adjoint,
    ep_decompose,
    is_ep,
    lat_invariant,
    load_problem_arrays,
    pinv,
    principal_angle_diag,
    range_basis,
    rangestar_basis,
    rank_decide,
    sqrt_psd,
)
from qfmin.config import WARN_RATIO

PROBLEM = pathlib.Path(__file__).parent / "problems" / "singular_form.json"


def main():
    t, a, _, _ = load_problem_arrays(PROBLEM)

    print("== equal-projection structure ==")
    print(f"  is_ep(T) = {is_ep(t)} (T is Hermitian, so ranges of T and T* agree)")
    decomp = ep_decompose(t)
    print(f"  rank {decomp.rank} of {t.shape[0]}; core eigenvalues "
          f"{np.round(np.linalg.eigvalsh(decomp.a1), 5).tolist()}")
    recon = decomp.u1 @ np.pad(decomp.a1, ((0, 1), (0, 1))) @ adjoint(decomp.u1)
    print(f"  block reconstruction residual {np.linalg.norm(recon - t):.2e}")

    print("\n== positive square root ==")
    root = sqrt_psd(t)
    print(f"  ||R^2 - T|| = {np.linalg.norm(root @ root - t):.2e}")
    print(f"  R shares the kernel of T: ||R v|| = "
          f"{np.linalg.norm(root @ np.array([2.0, 0.0, -1.0])):.2e} "
          f"for the kernel vector (2, 0, -1)")

    print("\n== principal angle: constraint row space vs kernel complement ==")
    # pinv(R) kills the kernel, so the pair (A, pinv(R)) measures how the
    # constraint meets the subspace the restricted minimization lives on
    angle = principal_angle_diag(a, pinv(root))
    print(f"  angle {angle:.6f} rad ({np.degrees(angle):.2f} deg); "
          f"0 would mean a degenerate reduction")

    print("\n== invariant subspaces ==")
    # the 1x3 constraint has its column space in the codomain, so only the
    # row space question is well-typed against the 3x3 operator
    row = rangestar_basis(a)
    print(f"  row space of A invariant under T: {lat_invariant(row, t)}")
    s = np.diag([1.0, 2.0])
    m = np.array([[1.0, 1.0], [0.0, 0.0]])
    print(f"  square example M = {m.tolist()} against diag(1, 2):")
    print(f"    column space invariant: {lat_invariant(range_basis(m), s)}, "
          f"row space invariant: {lat_invariant(rangestar_basis(m), s)}")
    print("  (the pinv(A) b shortcut for definite forms requires both)")

    print("\n== rank decisions near the threshold ==")
    sigma = np.array([1.0, 3e-3, 2e-9, 5e-16])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        decision = rank_decide(sigma, ToleranceConfig(rtol=1e-12))
    print(f"  spectrum {sigma.tolist()} at rtol 1e-12 "
          f"-> rank {decision.rank}, threshold {decision.threshold:.1e}")
    conditioning = [w for w in caught if issubclass(w.category, IllConditioningWarning)]
    print(f"  the kept 2e-9 value spans a ratio below the fixed WARN_RATIO "
          f"{WARN_RATIO:.0e}: {len(conditioning)} warning(s)")
    if conditioning:
        print(f"  message: {conditioning[0].message}")

if __name__ == "__main__":
    main()
