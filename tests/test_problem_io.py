import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qfmin import DEFAULT_TOL, ProblemFileError, emit_json, load_problem_arrays
from qfmin.problem_io import resolve_tolerances


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
