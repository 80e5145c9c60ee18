"""Command-line front end: solve, check and the convergence demo.

Exit codes: 0 success, 1 parse/IO/usage errors, 2 infeasible constraint
sets, 3 operator-property failures (not Hermitian, not positive, not
semidefinite, or a failed verification) and factorizations that failed
their guard.  Stdout carries only the JSON result document; messages go
to stderr.
"""

from __future__ import annotations

import argparse
import sys
import warnings

import numpy as np

from .dense_core import as_matrix, eigh
from .errors import (
    FactorizationError,
    IllConditioningWarning,
    NarrowAngleWarning,
    NotEpError,
    NotHermitianError,
    InfeasibleError,
    OracleError,
    PositivityError,
    ProblemFileError,
)
from .minimizers import (
    Method,
    MinimizationResult,
    QpProblem,
    SpectrumClass,
    _range_eigenpairs,
    classify_spectrum,
    minimize_posdef,  # noqa: F401  kept bound: perfbench/tracing.py wraps it
    minimize_posdef_diag,  # noqa: F401  kept bound: perfbench/tracing.py wraps it
    minimize_psd_complement,  # noqa: F401  kept bound: perfbench/tracing.py wraps it
    solve,
)
from .oracle import kkt_solve, reduced_solve
from .l2_models import example1_convergence
from .pinv_ops import (
    _ep_holds,
    _kept_svd,
    is_ep,  # noqa: F401  kept bound: perfbench/tracing.py wraps it
    pinv,  # noqa: F401  kept bound: perfbench/tracing.py wraps it
    principal_angle_diag,
    rank_decide,
    reverse_order_holds,
    sqrt_psd,  # noqa: F401  kept bound: perfbench/tracing.py wraps it
)
from .problem_io import emit_json, load_problem_arrays, resolve_tolerances

_WARNING_CODES = {
    IllConditioningWarning: "ill_conditioning",
    NarrowAngleWarning: "narrow_angle",
}


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _sizes_arg(text: str):
    try:
        sizes = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"sizes must be integers: {text!r}") from exc
    if not sizes:
        raise argparse.ArgumentTypeError("size list is empty")
    if any(s < 1 for s in sizes):
        raise argparse.ArgumentTypeError("sizes must be positive")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise argparse.ArgumentTypeError("sizes must be strictly ascending")
    return sizes


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qfmin", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_solve = sub.add_parser("solve", help="minimize <x, T x> subject to A x = b")
    p_solve.add_argument("--problem", required=True, help="path to a JSON problem file")
    p_solve.add_argument(
        "--method",
        default="auto",
        choices=["auto", "posdef", "posdef-diag", "psd-complement"],
        help="solver route (default: dispatch on the spectrum of T)",
    )
    p_solve.add_argument(
        "--verify",
        action="store_true",
        help="cross-check against the independent stationarity oracle",
    )
    p_solve.add_argument("--rtol", type=float, default=None, help="rank threshold override")
    p_solve.add_argument(
        "--pd-tol", type=float, default=None, help="definiteness gate override"
    )
    p_solve.set_defaults(func=cmd_solve)

    p_check = sub.add_parser("check", help="report operator properties of a problem")
    p_check.add_argument("--problem", required=True, help="path to a JSON problem file")
    p_check.set_defaults(func=cmd_check)

    p_demo = sub.add_parser("l2demo", help="convergence sweep of the truncated shift problem")
    p_demo.add_argument(
        "--sizes",
        type=_sizes_arg,
        default=[10, 100, 1000],
        help="comma-separated ascending truncation sizes (default 10,100,1000)",
    )
    p_demo.add_argument("--csv", default=None, help="also write the table to this CSV path")
    p_demo.set_defaults(func=cmd_l2demo)
    return parser


def _warning_diagnostics(caught) -> list:
    notes = []
    for record in caught:
        code = _WARNING_CODES.get(record.category, "warning")
        notes.append(
            {
                "code": code,
                "message": str(record.message),
                "value": getattr(record.message, "value", None),
            }
        )
    return notes


def _result_document(result: MinimizationResult, extra_diagnostics) -> dict:
    diagnostics = [
        {"code": d.code, "message": d.message, "value": d.value}
        for d in result.diagnostics
    ]
    diagnostics.extend(extra_diagnostics)
    return {
        "xhat": result.xhat,
        "min_value": result.min_value,
        "method": result.method.value,
        "feasibility_residual": result.feasibility_residual,
        "diagnostics": diagnostics,
    }


def cmd_solve(args) -> int:
    t, a, b, file_tol = load_problem_arrays(args.problem)
    cfg = resolve_tolerances(file_tol, {"rtol": args.rtol, "pd_tol": args.pd_tol})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        problem = QpProblem(t=t, a=a, b=b, tol=cfg)
        result = solve(problem, Method(args.method))
        document = _result_document(result, _warning_diagnostics(caught))
    if args.verify:
        if result.method is Method.PSD_COMPLEMENT:
            oracle = reduced_solve(t, a, b, cfg)
        else:
            oracle = kkt_solve(t, a, b)
        scale = max(abs(result.min_value), abs(oracle.min_value))
        gap = abs(result.min_value - oracle.min_value) / scale if scale else 0.0
        document["verify"] = {"oracle_min": oracle.min_value, "oracle_gap": gap}
    print(emit_json(document))
    return 0


def cmd_check(args) -> int:
    t, a, _, file_tol = load_problem_arrays(args.problem)
    cfg = resolve_tolerances(file_tol, {})
    t = as_matrix(t)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            eig = eigh(t)
        except NotHermitianError:
            eig = None
        if eig is None:
            # one SVD gives the rank and the EP verdict
            fact, decision = _kept_svd(t, cfg)
            ep, label = _ep_holds(fact, decision.rank), "non-hermitian"
        else:
            # the |λ| of a Hermitian t are its singular values, and it is EP
            sigma = np.sort(np.abs(eig.eigenvalues))[::-1]
            decision = rank_decide(sigma, cfg, dim=t.shape[0])
            cls = classify_spectrum(eig.eigenvalues, cfg)
            ep, label = True, cls.value
        report = {
            "ep": ep,
            "rank": decision.rank,
            "reverse_order": None,
            "principal_angle": None,
            "positivity_class": label,
        }
        if eig is not None and cls is not SpectrumClass.INDEFINITE:
            # T^{+1/2} on the range the solver keeps, from the same eigenpairs
            w, q = _range_eigenpairs(eig, cls, lambda *_: decision)
            partner = (q / np.sqrt(w)) @ q.conj().T
            verdict = reverse_order_holds(a, partner, cfg=cfg)
            report["reverse_order"] = {
                "holds": verdict.holds,
                "rangestar_commutator": verdict.rangestar_commutator,
                "range_commutator": verdict.range_commutator,
                "ab_rank": verdict.ab_rank.rank,
                "ab_rank_threshold": verdict.ab_rank.threshold,
            }
            report["principal_angle"] = principal_angle_diag(a, partner, cfg)
        report["diagnostics"] = _warning_diagnostics(caught)
    print(emit_json(report))
    return 0


def cmd_l2demo(args) -> int:
    cfg = resolve_tolerances(None, {})
    series = example1_convergence(args.sizes, cfg)
    rows = [
        {"n": int(n), "min_value": float(v), "abs_error": float(e)}
        for n, v, e in zip(series.sizes, series.min_values, series.errors)
    ]
    document = {"limit": series.limit, "rows": rows}
    if args.csv is not None:
        lines = ["n,min_value,abs_error"]
        lines += [
            "{},{:.17g},{:.17g}".format(r["n"], r["min_value"], r["abs_error"])
            for r in rows
        ]
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
    print(emit_json(document))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ProblemFileError as exc:
        print(f"qfmin: error: {exc}", file=sys.stderr)
        return 1
    except InfeasibleError as exc:
        print(f"qfmin: infeasible: {exc}", file=sys.stderr)
        return 2
    except (PositivityError, NotHermitianError, NotEpError, OracleError) as exc:
        print(f"qfmin: operator property failure: {exc}", file=sys.stderr)
        return 3
    except FactorizationError as exc:
        print(f"qfmin: factorization failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"qfmin: i/o error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"qfmin: invalid input: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
