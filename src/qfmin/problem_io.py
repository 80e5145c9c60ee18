"""Problem-file parsing and deterministic JSON emission.

A problem file is a single JSON document with keys ``t``, ``a``, ``b``
and an optional ``tol`` object.  Matrix entries are numbers or two
element ``[re, im]`` pairs for complex values.  Files are streamed a
chunk of text at a time, so besides the arrays a load holds one chunk,
at most twice the text of the longest row, and the decoded rows of the
matrix being read until they are stacked.  A piped input is held in
memory whole, so that the per-entry parser can read it again.  Output
documents render every float with 17 significant digits so that
round-trips are lossless and repeated runs are bitwise identical;
nonfinite floats become ``null``.
"""

from __future__ import annotations

import io
import json
import math
import os
import re
from dataclasses import fields
from numbers import Real

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import ProblemFileError

ENV_RTOL = "QFMIN_RTOL"

TOL_KEYS = tuple(f.name for f in fields(ToleranceConfig))

# Characters of text the streaming reader reads at a time.
_CHUNK = 1 << 16
# A value cut by the end of the text read so far fails to decode within
# this many characters of that end: a cut number, constant ("-Infinit")
# or tol key ("angle_war") fails at its first character.  A failure
# further back is the document's own.
_CUT_REACH = 16
_WS = re.compile(r"[ \t\n\r]*")


def _entry_to_scalar(entry, where: str):
    if isinstance(entry, bool):
        raise ProblemFileError(f"{where}: booleans are not numeric entries")
    try:
        if isinstance(entry, Real):
            return float(entry)
        if isinstance(entry, list) and len(entry) == 2 and all(
            isinstance(p, Real) and not isinstance(p, bool) for p in entry
        ):
            return complex(float(entry[0]), float(entry[1]))
    except OverflowError:
        raise ProblemFileError(f"{where}: integer entry outside the float64 range") from None
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


def _tolerance(value, source: str) -> float:
    """`value` as a float, if it is finite and positive."""
    try:
        v = float(value)
    except OverflowError:
        v = math.inf
    if not 0 < v < math.inf:
        raise ProblemFileError(f"{source} must be finite and positive, got {v!r}")
    return v


class _RepeatedKey(ValueError):
    """One object of a document names a key twice."""


def _unique_keys(pairs) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise _RepeatedKey(key)
        obj[key] = value
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


class _Unusual(Exception):
    """A document the stream leaves to the per-entry parser."""


class _Stream:
    """A problem document read chunk by chunk, one row of `t` or `a` at a time.

    Each row, all of `b` and all of `tol` go through `json`'s own decoder,
    so every number is the float `json.loads` would give.  The stream
    accepts only documents whose entries are all int or float scalars, or
    all ``[re, im]`` pairs of them, row by row; it raises `_Unusual` (or
    the decoder's `ValueError`) on anything else.
    """

    def __init__(self, handle):
        self.handle = handle
        self.buf = ""
        self.pos = 0
        self.longest = 0

    def _more(self) -> bool:
        """Drop the text before the cursor and read one more chunk."""
        chunk = self.handle.read(_CHUNK)
        if chunk:
            self.buf = self.buf[self.pos:] + chunk
            self.pos = 0
        return bool(chunk)

    def _peek(self) -> str:
        """The next character after whitespace, or "" at the end of the file."""
        while True:
            self.pos = _WS.match(self.buf, self.pos).end()
            if self.pos < len(self.buf):
                return self.buf[self.pos]
            if not self._more():
                return ""

    def _take(self, expected: str) -> str:
        """Step past the next character, which must be one of `expected`."""
        char = self._peek()
        if not char or char not in expected:
            raise _Unusual
        self.pos += 1
        return char

    def _decode(self):
        """The JSON value at the next character, and where its text starts."""
        self._peek()
        # Rows of one matrix have about the same length, so holding the
        # longest value so far spares most rows a failed first decode.
        while len(self.buf) - self.pos < self.longest and self._more():
            pass
        while True:
            try:
                value, end = _DECODER.raw_decode(self.buf, self.pos)
            except json.JSONDecodeError as exc:
                held = len(self.buf) - self.pos
                if exc.pos < len(self.buf) - _CUT_REACH or not self._more():
                    raise
                # read on until the text held has at least doubled, so that a
                # value of many chunks is decoded a logarithmic number of times
                while len(self.buf) - self.pos < 2 * held and self._more():
                    pass
            else:
                start, self.pos = self.pos, end
                self.longest = max(self.longest, end - start)
                return value, start

    def _vector(self) -> np.ndarray:
        """The next list, a row of `t` or `a` or all of `b`, as a float64 or complex128 vector."""
        if self._peek() != "[":
            raise _Unusual
        value, start = self._decode()
        # numpy reads a true among numbers as 1.0.  No number holds the
        # "u" of true or the "l" of false.
        if self.buf.find("u", start, self.pos) >= 0 or self.buf.find("l", start, self.pos) >= 0:
            raise _Unusual
        arr = np.array(value)
        if arr.dtype.kind not in "if" or 0 in arr.shape:
            raise _Unusual
        if arr.ndim == 1:
            return arr.astype(np.float64, copy=False)
        if arr.ndim == 2 and arr.shape[1] == 2:
            # a view of the float64 pairs keeps signed zeros and infinite parts
            return arr.astype(np.float64, copy=False).view(np.complex128).reshape(-1)
        raise _Unusual

    def _matrix(self) -> np.ndarray:
        """The next list of rows, stacked at its closing bracket."""
        self._take("[")
        rows = [self._vector()]
        while self._take(",]") == ",":
            rows.append(self._vector())
            if rows[-1].dtype != rows[0].dtype or rows[-1].shape != rows[0].shape:
                raise _Unusual
        return np.stack(rows)

    def read(self):
        """(t, a, b, tol) of a document the stream accepts."""
        self._take("{")
        found = {}
        while True:
            if self._peek() != '"':
                raise _Unusual
            key, _ = self._decode()
            if key in found or key not in ("t", "a", "b", "tol"):
                raise _Unusual
            self._take(":")
            if key == "b":
                found[key] = self._vector()
            elif key != "tol":
                found[key] = self._matrix()
            else:
                found[key], _ = self._decode()
                if not isinstance(found[key], dict):
                    raise _Unusual
            if self._take(",}") == "}":
                break
        if self._peek() or not {"t", "a", "b"} <= found.keys():
            raise _Unusual
        return found["t"], found["a"], found["b"], found.get("tol")


def _parse_document(handle, path):
    """The text of `handle` from its start through `json.loads` and the per-entry parser."""
    try:
        handle.seek(0)
        doc = json.loads(handle.read(), object_pairs_hook=_unique_keys)
    except _RepeatedKey as exc:
        raise ProblemFileError(f"{path}: repeated key {exc.args[0]!r}") from None
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"{path} is not valid JSON: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # Invalid UTF-8, integer literals past Python's digit limit, deep nesting.
        raise ProblemFileError(f"{path} cannot be decoded: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProblemFileError(f"{path}: top level must be a JSON object")
    missing = [k for k in ("t", "a", "b") if k not in doc]
    if missing:
        raise ProblemFileError(f"{path}: missing required keys {missing}")
    unknown = [k for k in doc if k not in ("t", "a", "b", "tol")]
    if unknown:
        raise ProblemFileError(f"{path}: unknown keys {unknown}")
    return (
        matrix_from_nested(doc["t"], "t"),
        matrix_from_nested(doc["a"], "a"),
        vector_from_list(doc["b"], "b"),
        doc.get("tol"),
    )


def load_problem_arrays(path):
    """Parse a problem file into raw arrays plus the file's tol overrides.

    The file is streamed.  A document the stream does not accept (a
    boolean, null or string entry, ragged rows, scalars mixed with pairs,
    an integer numpy holds only as uint64 or object, a repeated key,
    trailing data, any decode error) is read again from its start and
    parsed entry by entry, which writes every error message.  A file that
    cannot seek, such as a pipe, is first read whole into memory.
    """
    try:
        with open(path, "rb") as raw:
            source = raw if raw.seekable() else io.BytesIO(raw.read())
            handle = io.TextIOWrapper(source, encoding="utf-8")
            try:
                t, a, b, tol = _Stream(handle).read()
            except (_Unusual, ValueError, RecursionError):
                t, a, b, tol = _parse_document(handle, path)
    except OSError as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from exc
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
            _tolerance(value, f"{path}: tol.{key}")
    return t, a, b, tol


def resolve_tolerances(
    file_tol: dict | None,
    flag_overrides: dict | None = None,
    env=None,
) -> ToleranceConfig:
    """Blend tolerance sources: flags beat file values beat the environment.

    Only ``QFMIN_RTOL`` is read from the environment; it is always read
    and checked, and a flag or the file's ``rtol`` overrides it.  Every
    value, whatever its source, must be finite and positive.
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
        merged["rtol"] = _tolerance(env_rtol, ENV_RTOL)
    for key, value in (file_tol or {}).items():
        merged[key] = _tolerance(value, f"tol.{key}")
    for key, value in (flag_overrides or {}).items():
        if value is not None:
            merged[key] = _tolerance(value, "--" + key.replace("_", "-"))
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
