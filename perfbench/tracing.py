"""Spans around qfmin's layers, recorded from outside the package.

The wrappers replace the names each caller module bound at import time
(``qfmin.minimizers.pinv_with_rank``, ``qfmin.pinv_ops.svd``, ...), and the
``numpy.linalg`` factorizations, which qfmin looks up at call time.  A span
is ``[name, start, end, parent, op, value]``: `parent` indexes the span
that was open when it started (-1 at top level), `op` is the operation it
belongs to, and `value` is a number the wrapper measured after the call:
computed flops for a ``numpy.linalg`` call, 1.0 for a cor1 shortcut that
fired, the file size for a problem load.  Spans stay in memory until the
run ends; self time is derived from them afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time

# Layers whose spans are summed into per-operation time and call counts.
PINV_FAMILIES = ("pinv", "sqrt_psd", "ep_decompose", "basis")
LINALG_CALLS = ("eigh", "svd", "inv", "solve", "lstsq")


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = 0
        self._stack = []
        self._patches = []

    def wrap(self, fn, name, measure=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0.0])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1:3] = start, end
            if measure is not None:
                spans[index][5] = float(measure(result, *args, **kwargs))
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.op, 0.0])
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[index][1:3] = start, time.perf_counter()
            self._stack.pop()

    def install(self, targets):
        for module, attr, name, measure in targets:
            original = getattr(module, attr)
            setattr(module, attr, self.wrap(original, name, measure))
            self._patches.append((module, attr, original))

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


# Flop counts from operand shapes, after Golub & Van Loan, Matrix
# Computations (4th ed.): symmetric QR with eigenvectors 9n^3 (sec. 8.3);
# Golub-Reinsch SVD (fig. 8.6.1) 4mn^2 - 4n^3/3 for values only,
# 4m^2n + 8mn^2 + 9n^3 with full U and V, 14mn^2 + 8n^3 with thin U and V,
# and 4mn^2 + 8n^3 with V only (used for lstsq); LU 2n^3/3, inverse 2n^3.
# Complex arithmetic counts four real flops per complex flop.  These are
# computed, not measured.
def _scale(a):
    return 4.0 if a.dtype.kind == "c" else 1.0


def _shape(a):
    m, n = a.shape[-2:]
    return max(m, n), min(m, n), _scale(a)


def _eigh_flops(result, a, *args, **kwargs):
    return 9.0 * a.shape[-1] ** 3 * _scale(a)


def _svd_flops(result, a, full_matrices=True, compute_uv=True, *args, **kwargs):
    big, small, scale = _shape(a)
    if not compute_uv:
        return scale * (4 * big * small**2 - 4 * small**3 / 3)
    if full_matrices:
        return scale * (4 * big**2 * small + 8 * big * small**2 + 9 * small**3)
    return scale * (14 * big * small**2 + 8 * small**3)


def _pinv_flops(result, a, *args, **kwargs):
    return _svd_flops(result, a, full_matrices=False)


def _lstsq_flops(result, a, *args, **kwargs):
    big, small, scale = _shape(a)
    return scale * (4 * big * small**2 + 8 * small**3)


def _inv_flops(result, a, *args, **kwargs):
    return 2.0 * a.shape[-1] ** 3 * _scale(a)


def _solve_flops(result, a, b, *args, **kwargs):
    n = a.shape[-1]
    rhs = b.shape[-1] if b.ndim == 2 else 1
    return (2 * n**3 / 3 + 2 * n**2 * rhs) * _scale(a)


def _fired(result, *args, **kwargs):
    return result is not None


def _file_bytes(result, path, *args, **kwargs):
    return os.path.getsize(path)


def library_targets():
    """Wrappers for the solve path: minimizers down to numpy.linalg."""
    import numpy
    from qfmin import l2_models, minimizers, oracle, pinv_ops

    pinv, basis = "pinv_ops.pinv", "pinv_ops.basis"
    return [
        (minimizers, "minimize_posdef", "minimizers.route", None),
        (minimizers, "minimize_posdef_diag", "minimizers.route", None),
        (minimizers, "minimize_psd_complement", "minimizers.route", None),
        (minimizers, "try_cor1_shortcut", "minimizers.shortcut", _fired),
        (minimizers, "feasible", "minimizers.feasible", None),
        (minimizers, "eigh", "dense_core.eigh", None),
        (minimizers, "pinv", pinv, None),
        (minimizers, "pinv_with_rank", pinv, None),
        (minimizers, "projector_rangestar", pinv, None),
        (minimizers, "ep_decompose", "pinv_ops.ep_decompose", None),
        (minimizers, "sqrt_psd", "pinv_ops.sqrt_psd", None),
        (minimizers, "range_basis", basis, None),
        (minimizers, "rangestar_basis", basis, None),
        (pinv_ops, "svd", "dense_core.svd", None),
        (pinv_ops, "eigh", "dense_core.eigh", None),
        (pinv_ops, "pinv", pinv, None),
        (pinv_ops, "pinv_with_rank", pinv, None),
        (pinv_ops, "range_basis", basis, None),
        (pinv_ops, "null_basis", basis, None),
        (oracle, "range_basis", basis, None),
        (oracle, "null_basis", basis, None),
        (l2_models, "minimize_posdef", "minimizers.route", None),
        (numpy.linalg, "eigh", "linalg.eigh", _eigh_flops),
        (numpy.linalg, "svd", "linalg.svd", _svd_flops),
        (numpy.linalg, "inv", "linalg.inv", _inv_flops),
        (numpy.linalg, "solve", "linalg.solve", _solve_flops),
        (numpy.linalg, "lstsq", "linalg.lstsq", _lstsq_flops),
        (numpy.linalg, "pinv", "linalg.pinv", _pinv_flops),
    ]


def cli_targets():
    """Wrappers for the names qfmin.cli bound to the layers below it."""
    from qfmin import cli

    check = "pinv_ops.check"
    return [
        (cli, "load_problem_arrays", "problem_io.load", _file_bytes),
        (cli, "emit_json", "problem_io.emit", None),
        (cli, "QpProblem", "minimizers.validate", None),
        (cli, "solve", "minimizers.solve", None),
        (cli, "minimize_posdef", "minimizers.solve", None),
        (cli, "minimize_posdef_diag", "minimizers.solve", None),
        (cli, "minimize_psd_complement", "minimizers.solve", None),
        (cli, "kkt_solve", "oracle.verify", None),
        (cli, "reduced_solve", "oracle.verify", None),
        (cli, "example1_convergence", "l2_models.sweep", None),
        (cli, "is_ep", check, None),
        (cli, "reverse_order_holds", check, None),
        (cli, "principal_angle_diag", check, None),
        (cli, "sqrt_psd", "pinv_ops.sqrt_psd", None),
        (cli, "pinv", "pinv_ops.pinv", None),
        (cli, "eigh", "dense_core.eigh", None),
    ]


def layer_metrics(spans, ops: int) -> dict:
    """Per-operation layer metrics from the spans of `ops` traced operations.

    Times and call counts take only the outermost span of each name, so a
    pinv nested in a pinv is counted once.  Self time is a span's duration
    minus that of its direct children.
    """
    duration = [end - start for _, start, end, *_ in spans]
    self_time = list(duration)
    outermost = []
    for index, (name, _, _, parent, _, _) in enumerate(spans):
        if parent >= 0:
            self_time[parent] -= duration[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        outermost.append(ancestor < 0)

    def total(name, field=None):
        return sum(
            duration[i] if field is None else spans[i][5]
            for i, span in enumerate(spans)
            if span[0] == name and outermost[i]
        )

    def calls(name):
        return sum(1 for i, span in enumerate(spans) if span[0] == name and outermost[i])

    def self_ms(layer):
        prefix = layer + "."
        return 1e3 * sum(t for t, span in zip(self_time, spans) if span[0].startswith(prefix)) / ops

    def ms(name):
        return 1e3 * total(name) / ops

    linalg_names = [f"linalg.{kind}" for kind in LINALG_CALLS + ("pinv",)]
    factor_s = sum(total(name) for name in linalg_names)
    flop = sum(total(name, "value") for name in linalg_names)
    load_s = total("problem_io.load")
    attempts = calls("minimizers.shortcut")
    metrics = {
        "problem_io.load_ms": 1e3 * load_s / ops,
        "problem_io.load_mb_per_s": total("problem_io.load", "value") / 1e6 / load_s if load_s else 0.0,
        "problem_io.emit_ms": ms("problem_io.emit"),
        "minimizers.validate_ms": ms("minimizers.validate"),
        "minimizers.solve_ms": ms("minimizers.solve"),
        "minimizers.self_ms": self_ms("minimizers"),
        "minimizers.feasible_ms": ms("minimizers.feasible"),
        "minimizers.shortcut_ms": ms("minimizers.shortcut"),
        "minimizers.shortcut_hit_ratio": total("minimizers.shortcut", "value") / attempts if attempts else 0.0,
    }
    for family in PINV_FAMILIES:
        metrics[f"pinv_ops.{family}_ms"] = ms(f"pinv_ops.{family}")
        metrics[f"pinv_ops.{family}_calls"] = calls(f"pinv_ops.{family}") / ops
    metrics["pinv_ops.check_ms"] = ms("pinv_ops.check")
    metrics["dense_core.eigh_calls"] = calls("dense_core.eigh") / ops
    metrics["dense_core.svd_calls"] = calls("dense_core.svd") / ops
    metrics["dense_core.guard_ms"] = self_ms("dense_core")
    for kind in LINALG_CALLS:
        metrics[f"linalg.{kind}_calls"] = calls(f"linalg.{kind}") / ops
    metrics["linalg.factor_ms"] = 1e3 * factor_s / ops
    metrics["linalg.gflop_computed"] = flop / 1e9 / ops
    metrics["linalg.gflop_per_s"] = flop / 1e9 / factor_s if factor_s else 0.0
    metrics["oracle.verify_ms"] = ms("oracle.verify")
    metrics["l2_models.sweep_ms"] = ms("l2_models.sweep")
    return metrics
