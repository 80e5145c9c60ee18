import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qfmin import (
    DEFAULT_TOL,
    ProblemFileError,
    emit_json,
    load_problem_arrays,
    random_pd_problem,
)
from qfmin import problem_io
from qfmin.problem_io import matrix_from_nested, resolve_tolerances, vector_from_list


def write_problem(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestLoadProblem:
    def test_real_problem(self, tmp_path):
        path = write_problem(
            tmp_path, {"t": [[1, 0], [0, 2]], "a": [[1, 1]], "b": [3]}
        )
        t, a, b, tol = load_problem_arrays(path)
        assert_allclose(t, [[1.0, 0], [0, 2]])
        assert_allclose(a, [[1.0, 1.0]])
        assert_allclose(b, [3.0])
        assert tol is None

    def test_complex_pairs(self, tmp_path):
        path = write_problem(
            tmp_path,
            {"t": [[1, [0, -1]], [[0, 1], 2]], "a": [[1, 0]], "b": [[1, 1]]},
        )
        t, a, b, _ = load_problem_arrays(path)
        assert t.dtype == np.complex128
        assert t[0, 1] == -1j
        assert b[0] == 1 + 1j

    def test_tol_overrides(self, tmp_path):
        path = write_problem(
            tmp_path,
            {"t": [[1]], "a": [[1]], "b": [1], "tol": {"rtol": 1e-9, "pd_tol": 1e-7}},
        )
        *_, tol = load_problem_arrays(path)
        assert tol == {"rtol": 1e-9, "pd_tol": 1e-7}

    @pytest.mark.parametrize(
        "doc",
        [
            {"a": [[1]], "b": [1]},
            {"t": [[1]], "a": [[1]], "b": [1], "extra": 1},
            {"t": [[1, 2], [3]], "a": [[1]], "b": [1]},
            {"t": [[1]], "a": [[1]], "b": ["x"]},
            {"t": [[1]], "a": [[1]], "b": [1], "tol": {"bogus": 1}},
            {"t": [[1]], "a": [[1]], "b": [1], "tol": {"rtol": -1}},
            {"t": [[1]], "a": [[1]], "b": [1], "tol": {"rtol": True}},
            {"t": [[1]], "a": [[1]], "b": []},
            {"t": [], "a": [[1]], "b": [1]},
        ],
    )
    def test_rejects_malformed(self, tmp_path, doc):
        path = write_problem(tmp_path, doc)
        with pytest.raises(ProblemFileError):
            load_problem_arrays(path)

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ProblemFileError):
            load_problem_arrays(str(path))

    def test_rejects_missing_file(self, tmp_path):
        with pytest.raises(ProblemFileError):
            load_problem_arrays(str(tmp_path / "missing.json"))

    def test_rejects_boolean_entries(self, tmp_path):
        path = write_problem(tmp_path, {"t": [[True]], "a": [[1]], "b": [1]})
        with pytest.raises(ProblemFileError):
            load_problem_arrays(path)

    def test_rejects_boolean_among_numbers(self, tmp_path):
        # numpy alone would read this true as 1.0
        path = write_problem(tmp_path, {"t": [[1.5, True], [0, 1]], "a": [[1, 0]], "b": [1]})
        with pytest.raises(ProblemFileError, match="'t' row 0: booleans"):
            load_problem_arrays(path)

    @pytest.mark.parametrize(
        "text, where",
        [
            ('{"t": [[1%s]], "a": [[1]], "b": [1]}', "'t' row 0"),
            ('{"t": [[1]], "a": [[1]], "b": [[1, 1%s]]}', "'b' entry 0"),
            ('{"t": [[1]], "a": [[1]], "b": [1], "tol": {"rtol": 1%s}}', "tol.rtol"),
        ],
    )
    def test_rejects_integer_beyond_float_range(self, tmp_path, text, where):
        path = tmp_path / "huge.json"
        path.write_text(text % ("0" * 400))
        with pytest.raises(ProblemFileError, match=where):
            load_problem_arrays(str(path))

    def test_rejects_invalid_utf8(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"t": [[1]], "a": [[1]], "b": [1], "\xe9": 1}')
        with pytest.raises(ProblemFileError, match="position 36"):
            load_problem_arrays(str(path))

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"t": [[1, 0], [0, 1]], "a": [[1, 1]], "b": [1], "t": [[2, 0], [0, 2]]}', "t"),
            ('{"t": [[1]], "a": [[1]], "b": [1], "tol": {"rtol": 1e-9, "rtol": 1e-8}}', "rtol"),
            ('{"t": [[1]], "a": [[1]], "b": [1], "tol": {}, "tol": {"rtol": 1e-8}}', "tol"),
        ],
        ids=["top-level", "in-tol", "tol-twice"],
    )
    def test_rejects_repeated_key(self, tmp_path, text, key):
        path = tmp_path / "twice.json"
        path.write_text(text)
        with pytest.raises(ProblemFileError, match=f"repeated key '{key}'"):
            load_problem_arrays(str(path))

    @pytest.mark.parametrize(
        "text, message",
        [
            ('\ufeff{"t": [[1]], "a": [[1]], "b": [1]}', "Unexpected UTF-8 BOM"),
            ('{"t": [[1]], "a": [[1]], "b": [1]} x', "Extra data"),
            ('{"t": [[1]], "a": [[1]], "b": [1]}{}', "Extra data"),
            ('{"t": [[1, null]], "a": [[1]], "b": [1]}', "'t' row 0: entries must be numbers"),
            ('{"t": [[1]], "a": [[1]], "b": [false]}', "'b' entry 0: booleans"),
            ("[1]", "top level must be a JSON object"),
            ('{"t": [[1]], "a": [[1]], "b": [1], "tol": 1}', "'tol' must be an object"),
            # the one input whose decode error the stream raises itself
            ('{"t": [[1, 2,]], "a": [[1]], "b": [1]}',
             "is not valid JSON: Expecting value: line 1 column 14 (char 13)"),
            # lists that are neither a row of numbers nor of [re, im] pairs
            ('{"t": [[[1, 2, 3]]], "a": [[1]], "b": [1]}',
             "'t' row 0: entries must be numbers or [re, im] pairs, got [1, 2, 3]"),
            ('{"t": [[[[1, 2]]]], "a": [[1]], "b": [1]}',
             "'t' row 0: entries must be numbers or [re, im] pairs, got [[1, 2]]"),
            ('{"t": [[1]], "a": [[1]], "b": [[1, 2, 3]]}',
             "'b' entry 0: entries must be numbers or [re, im] pairs, got [1, 2, 3]"),
        ],
        ids=["bom", "trailing-text", "second-object", "null-entry", "boolean-b", "top-level-list",
             "tol-not-object", "comma-in-row", "triple-entry", "nested-pair", "triple-b-entry"],
    )
    def test_rejects_what_json_loads_rejects(self, tmp_path, monkeypatch, text, message):
        path = tmp_path / "odd.json"
        path.write_text(text, encoding="utf-8")
        # a chunk of a few characters cuts the text at every place
        for chunk in (problem_io._CHUNK, 5):
            monkeypatch.setattr(problem_io, "_CHUNK", chunk)
            with pytest.raises(ProblemFileError, match=re.escape(message)):
                load_problem_arrays(str(path))

    def test_null_tol_is_no_tol(self, tmp_path):
        path = tmp_path / "null.json"
        path.write_text('{"tol": null, "t": [[2]], "a": [[1]], "b": [1]}')
        t, _, _, tol = load_problem_arrays(str(path))
        assert (t.tolist(), tol) == ([[2.0]], None)


def _nested(arr):
    if np.iscomplexobj(arr):
        return np.stack([arr.real, arr.imag], axis=-1).tolist()
    return arr.tolist()


REAL = st.one_of(
    st.floats(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([-0.0, 2**53 + 1, 2**63, -(2**63) - 1, 10**400]),
)
PAIR = st.lists(REAL, min_size=2, max_size=2)
BAD = st.sampled_from([True, False, None, "x", [], [1, 2, 3], [[1, 2], 3], {}])
ENTRIES = {
    "float": st.floats(),
    "int": st.integers(min_value=-(2**62), max_value=2**62),
    "pair": PAIR,
    "mixed": st.one_of(REAL, PAIR),
    "malformed": st.one_of(REAL, PAIR, BAD),
}


TOL = st.dictionaries(
    st.sampled_from(problem_io.TOL_KEYS),
    st.floats(min_value=1e-300, max_value=1e300),
)
LAYOUTS = [{}, {"indent": 2}, {"separators": (",", ":")}]


@st.composite
def documents(draw):
    """(text, streamable): a problem document, and whether the stream must accept it."""
    style = draw(st.sampled_from(sorted(ENTRIES)))
    entry = ENTRIES[style]

    def matrix():
        cols = draw(st.integers(1, 4))
        rows = [draw(st.lists(entry, min_size=cols, max_size=cols))
                for _ in range(draw(st.integers(1, 4)))]
        if style == "malformed" and draw(st.booleans()):
            rows[-1] = rows[-1][:-1]
        return rows

    doc = {"t": matrix(), "a": matrix(), "b": draw(st.lists(entry, min_size=1, max_size=4))}
    if draw(st.booleans()):
        doc["tol"] = draw(TOL)
    doc = {key: doc[key] for key in draw(st.permutations(list(doc)))}
    text = json.dumps(doc, **draw(st.sampled_from(LAYOUTS)))
    return text, style in ("float", "int")


def _per_entry(doc):
    """The reference parse: every entry converted on its own."""
    try:
        return [
            matrix_from_nested(doc["t"], "t"),
            matrix_from_nested(doc["a"], "a"),
            vector_from_list(doc["b"], "b"),
        ]
    except ProblemFileError as exc:
        return str(exc)


def _problem_file(tmp_path, n, complex_entries):
    t, a, b = random_pd_problem(n, n // 2, seed=3, complex_entries=complex_entries)
    return write_problem(tmp_path, {"t": _nested(t), "a": _nested(a), "b": _nested(b)}), (t, a, b)


class TestBulkParse:
    # A chunk of a few characters cuts rows, numbers and keys at every place.
    @pytest.mark.parametrize("chunk", [problem_io._CHUNK, 5], ids=["chunk", "few-characters"])
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(document=documents())
    def test_matches_per_entry_parser(self, tmp_path, chunk, document):
        text, streamable = document
        path = tmp_path / "doc.json"
        path.write_text(text)
        doc = json.loads(path.read_text())
        expected = _per_entry(doc)
        fallbacks = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(problem_io, "_CHUNK", chunk)
            mp.setattr(problem_io, "_parse_document",
                       lambda h, p, parse=problem_io._parse_document: fallbacks.append(p) or parse(h, p))
            try:
                got = load_problem_arrays(str(path))
            except ProblemFileError as exc:
                got = str(exc)
        if streamable:
            assert fallbacks == []
        if isinstance(expected, str) or isinstance(got, str):
            assert got == expected
            return
        for g, e in zip(got, expected):
            assert (g.dtype, g.shape, g.tobytes()) == (e.dtype, e.shape, e.tobytes())
        assert got[3] == doc.get("tol")

    @pytest.mark.parametrize("n", [50, 200])
    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_well_formed_file_skips_per_entry_parser(self, tmp_path, monkeypatch, complex_entries, n):
        # A silent fall back to the per-entry parser shows only here.
        path, (t, a, b) = _problem_file(tmp_path, n, complex_entries)
        calls = []
        real_entry = problem_io._entry_to_scalar

        def counting(entry, where):
            calls.append(where)
            return real_entry(entry, where)

        monkeypatch.setattr(problem_io, "_entry_to_scalar", counting)
        got = load_problem_arrays(path)
        assert calls == []
        for g, e in zip(got, (t, a, b)):
            assert g.dtype == e.dtype and np.array_equal(g, e)

    def test_a_row_of_many_chunks_is_decoded_a_few_times(self, tmp_path, monkeypatch):
        # Decoded again after each 16-character chunk, the rows below took
        # 631 decodes.
        path = write_problem(tmp_path, {"t": [[0.5] * 2000], "a": [[1.0] * 2000], "b": [1.0]})
        decoder, starts = problem_io._DECODER, []

        class Counting:
            def raw_decode(self, text, start):
                starts.append(start)
                return decoder.raw_decode(text, start)

        monkeypatch.setattr(problem_io, "_CHUNK", 16)
        monkeypatch.setattr(problem_io, "_DECODER", Counting())
        t, a, b, _ = load_problem_arrays(path)
        assert (t.shape, a.shape, b.shape) == ((1, 2000), (1, 2000), (1,))
        assert len(starts) < 100

    def test_a_wide_row_allocates_only_the_rows_the_file_can_hold(self, tmp_path):
        # the decoded rows and their stack hold 0.5 MB; width rows, as for
        # a square t, would be 7.2 GB here
        path = write_problem(tmp_path, {"t": [[0.0] * 30000], "a": [[1.0]], "b": [1.0]})
        tracemalloc.start()
        try:
            t = load_problem_arrays(path)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t.shape == (1, 30000) and peak < 10e6

    def test_load_holds_the_arrays_and_little_more(self, tmp_path):
        # A whole document as Python lists and floats peaks at about 13
        # times the arrays here.
        path, _ = _problem_file(tmp_path, 200, True)
        tracemalloc.start()
        try:
            arrays = load_problem_arrays(path)[:3]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * sum(arr.nbytes for arr in arrays) + 2 * problem_io._CHUNK


class TestResolveTolerances:
    def test_defaults(self):
        cfg = resolve_tolerances(None, {}, env={})
        assert cfg == DEFAULT_TOL

    def test_file_beats_env(self):
        cfg = resolve_tolerances({"rtol": 1e-9}, {}, env={"QFMIN_RTOL": "1e-5"})
        assert cfg.rtol == 1e-9

    def test_flags_beat_file(self):
        cfg = resolve_tolerances({"rtol": 1e-9}, {"rtol": 1e-7}, env={})
        assert cfg.rtol == 1e-7

    def test_env_used_last(self):
        cfg = resolve_tolerances(None, {}, env={"QFMIN_RTOL": "1e-5"})
        assert cfg.rtol == 1e-5

    def test_none_flags_ignored(self):
        cfg = resolve_tolerances(None, {"rtol": None}, env={})
        assert cfg.rtol is None

    def test_rejects_bad_env(self):
        with pytest.raises(ProblemFileError):
            resolve_tolerances(None, {}, env={"QFMIN_RTOL": "abc"})
        with pytest.raises(ProblemFileError):
            resolve_tolerances(None, {}, env={"QFMIN_RTOL": "-1"})

    @pytest.mark.parametrize(
        "file_tol, flags", [({"rtol": 1e-9}, {}), (None, {"rtol": 1e-8})], ids=["file", "flag"]
    )
    def test_rejects_bad_env_under_an_override(self, file_tol, flags):
        # every tolerance must be valid, whichever of the three sources it
        # comes from, even where a higher source overrides it
        with pytest.raises(ProblemFileError, match="QFMIN_RTOL='abc' is not a number"):
            resolve_tolerances(file_tol, flags, env={"QFMIN_RTOL": "abc"})

    @pytest.mark.parametrize("raw", ["nan", "inf", "0"])
    def test_rejects_nonfinite_env(self, raw):
        with pytest.raises(ProblemFileError, match="QFMIN_RTOL must be finite and positive"):
            resolve_tolerances(None, {}, env={"QFMIN_RTOL": raw})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0, 0.0])
    def test_rejects_nonfinite_file_value(self, value):
        with pytest.raises(ProblemFileError, match="tol.neg_tol must be finite and positive"):
            resolve_tolerances({"neg_tol": value}, {}, env={})

    @pytest.mark.parametrize("key", ["rtol", "pd_tol", "neg_tol", "angle_warn"])
    def test_each_file_key_reaches_config(self, tmp_path, key):
        path = write_problem(tmp_path, {"t": [[1]], "a": [[1]], "b": [1], "tol": {key: 3e-7}})
        cfg = resolve_tolerances(load_problem_arrays(path)[3], {}, env={})
        assert cfg == DEFAULT_TOL.with_overrides(**{key: 3e-7})

    def test_file_keys_are_the_config_fields(self, tmp_path):
        path = write_problem(tmp_path, {"t": [[1]], "a": [[1]], "b": [1], "tol": {"ktol": 1.0}})
        allowed = "allowed: ['rtol', 'pd_tol', 'neg_tol', 'angle_warn']"
        with pytest.raises(ProblemFileError, match=re.escape(allowed)):
            load_problem_arrays(path)

    @pytest.mark.parametrize(
        "flags, name",
        [({"rtol": math.nan}, "--rtol"), ({"rtol": -1.0}, "--rtol"), ({"pd_tol": -5.0}, "--pd-tol")],
    )
    def test_rejects_nonfinite_flag(self, flags, name):
        with pytest.raises(ProblemFileError, match=f"{name} must be finite and positive"):
            resolve_tolerances(None, flags, env={})


class TestEmitJson:
    def test_seventeen_significant_digits(self):
        text = emit_json({"x": 1.0 / 3.0})
        assert "0.33333333333333331" in text

    def test_round_trip(self):
        doc = {
            "xhat": [1.0 / 7, -2.5, 3e-300],
            "min_value": 38100.0 / 7,
            "method": "psd-complement",
            "flag": True,
            "nothing": None,
            "n": 42,
        }
        parsed = json.loads(emit_json(doc))
        assert parsed["xhat"] == doc["xhat"]
        assert parsed["min_value"] == doc["min_value"]
        assert parsed["method"] == doc["method"]
        assert parsed["flag"] is True
        assert parsed["nothing"] is None
        assert parsed["n"] == 42

    def test_complex_as_pairs(self):
        parsed = json.loads(emit_json({"z": 1 + 2j}))
        assert parsed["z"] == [1.0, 2.0]

    def test_ndarray_support(self):
        parsed = json.loads(emit_json({"v": np.array([1.0, 0.5])}))
        assert parsed["v"] == [1.0, 0.5]

    def test_deterministic(self):
        doc = {"a": np.pi, "b": [np.e, 1e-17]}
        assert emit_json(doc) == emit_json(doc)

    def test_nonfinite_floats_emit_null(self):
        text = emit_json({"v": float("inf"), "n": np.nan, "c": complex(1.0, -np.inf)})
        assert json.loads(text, parse_constant=pytest.fail) == {
            "v": None,
            "n": None,
            "c": [1.0, None],
        }

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            emit_json({"x": object()})
