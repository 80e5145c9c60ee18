"""Problem-file parsing and deterministic JSON emission.

A problem file is a single JSON document with keys ``t``, ``a``, ``b``
and an optional ``tol`` object.  Matrix entries are numbers or two
element ``[re, im]`` pairs for complex values.  Output documents render
every float with 17 significant digits so that round-trips are lossless
and repeated runs are bitwise identical; nonfinite floats become ``null``.
"""

from __future__ import annotations

import json
import math
import os
from numbers import Real

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import ProblemFileError

ENV_RTOL = "QFMIN_RTOL"

TOL_KEYS = ("rtol", "pd_tol", "neg_tol", "angle_warn")


def _entry_to_scalar(entry, where: str):
    if isinstance(entry, bool):
        raise ProblemFileError(f"{where}: booleans are not numeric entries")
    if isinstance(entry, Real):
        return float(entry)
    if isinstance(entry, list) and len(entry) == 2 and all(
        isinstance(p, Real) and not isinstance(p, bool) for p in entry
    ):
        return complex(float(entry[0]), float(entry[1]))
    raise ProblemFileError(
        f"{where}: entries must be numbers or [re, im] pairs, got {entry!r}"
    )


def matrix_from_nested(rows, name: str) -> np.ndarray:
    """Row-major nested lists to a 2-d array, complex iff any pair appears."""
    if not isinstance(rows, list) or not rows:
        raise ProblemFileError(f"{name!r} must be a nonempty list of rows")
    width = None
    parsed = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or not row:
            raise ProblemFileError(f"{name!r} row {i} must be a nonempty list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ProblemFileError(
                f"{name!r} is ragged: row {i} has {len(row)} entries, expected {width}"
            )
        parsed.append([_entry_to_scalar(e, f"{name!r} row {i}") for e in row])
    if any(isinstance(e, complex) for row in parsed for e in row):
        return np.array(parsed, dtype=np.complex128)
    return np.array(parsed, dtype=np.float64)


def vector_from_list(entries, name: str) -> np.ndarray:
    if not isinstance(entries, list) or not entries:
        raise ProblemFileError(f"{name!r} must be a nonempty list")
    parsed = [_entry_to_scalar(e, f"{name!r} entry {i}") for i, e in enumerate(entries)]
    if any(isinstance(e, complex) for e in parsed):
        return np.array(parsed, dtype=np.complex128)
    return np.array(parsed, dtype=np.float64)


def load_problem_arrays(path):
    """Parse a problem file into raw arrays plus the file's tol overrides."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProblemFileError(f"{path}: top level must be a JSON object")
    missing = [k for k in ("t", "a", "b") if k not in doc]
    if missing:
        raise ProblemFileError(f"{path}: missing required keys {missing}")
    unknown = [k for k in doc if k not in ("t", "a", "b", "tol")]
    if unknown:
        raise ProblemFileError(f"{path}: unknown keys {unknown}")
    t = matrix_from_nested(doc["t"], "t")
    a = matrix_from_nested(doc["a"], "a")
    b = vector_from_list(doc["b"], "b")
    tol = doc.get("tol")
    if tol is not None:
        if not isinstance(tol, dict):
            raise ProblemFileError(f"{path}: 'tol' must be an object")
        bad = [k for k in tol if k not in TOL_KEYS]
        if bad:
            raise ProblemFileError(
                f"{path}: unsupported tol keys {bad}; allowed: {list(TOL_KEYS)}"
            )
        for key, value in tol.items():
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ProblemFileError(f"{path}: tol.{key} must be a number")
            if float(value) <= 0:
                raise ProblemFileError(f"{path}: tol.{key} must be positive")
    return t, a, b, tol


def resolve_tolerances(
    file_tol: dict | None,
    flag_overrides: dict | None = None,
    env=None,
) -> ToleranceConfig:
    """Blend tolerance sources: flags beat file values beat the environment.

    Only ``QFMIN_RTOL`` is read from the environment, and only when
    neither the flags nor the file set ``rtol``.
    """
    if env is None:
        env = os.environ
    merged = {}
    raw_env = env.get(ENV_RTOL)
    if raw_env is not None:
        try:
            env_rtol = float(raw_env)
        except ValueError as exc:
            raise ProblemFileError(f"{ENV_RTOL}={raw_env!r} is not a number") from exc
        if env_rtol <= 0:
            raise ProblemFileError(f"{ENV_RTOL} must be positive, got {env_rtol}")
        merged["rtol"] = env_rtol
    if file_tol:
        merged.update({k: float(v) for k, v in file_tol.items()})
    if flag_overrides:
        merged.update({k: float(v) for k, v in flag_overrides.items() if v is not None})
    return DEFAULT_TOL.with_overrides(**merged)


def _emit(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (complex, np.complexfloating)):
        return _emit([float(value.real), float(value.imag)])
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g") if math.isfinite(value) else "null"
    if isinstance(value, np.ndarray):
        return _emit(value.tolist())
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_emit(v) for v in value) + "]"
    if isinstance(value, dict):
        parts = (json.dumps(str(k)) + ": " + _emit(v) for k, v in value.items())
        return "{" + ", ".join(parts) + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def emit_json(document: dict) -> str:
    """Render a result document with 17-significant-digit floats, nonfinite as null."""
    return _emit(document)
