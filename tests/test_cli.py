import json
import os
import subprocess
import sys

import numpy as np
import pytest

import qfmin
from qfmin import (
    OracleResult,
    kkt_solve,
    principal_angle_diag,
    random_pd_problem,
    random_psd_problem,
    reverse_order_holds,
)
from qfmin import cli
from qfmin.cli import main

SINGULAR_FORM = {
    "t": [[14, 20, 28], [20, 83, 40], [28, 40, 56]],
    "a": [[2, 1, -1]],
    "b": [10],
}


def write(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def nested(arr):
    """A matrix or vector as problem-file JSON: complex entries as [re, im]."""
    if np.iscomplexobj(arr):
        return np.stack([arr.real, arr.imag], axis=-1).tolist()
    return arr.tolist()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_restricted_example(self, tmp_path, capsys):
        path = write(tmp_path, SINGULAR_FORM)
        code, out, err = run(
            capsys, "solve", "--problem", path, "--method", "psd-complement"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "psd-complement"
        np.testing.assert_allclose(
            doc["xhat"], [-2.8572, 10.0, -5.7143], atol=2e-4
        )
        assert abs(doc["min_value"] - 5442.857) < 0.05
        assert doc["feasibility_residual"] <= 1e-8

    def test_verify_gap(self, tmp_path, capsys):
        path = write(tmp_path, SINGULAR_FORM)
        code, out, _ = run(capsys, "solve", "--problem", path, "--verify")
        assert code == 0
        doc = json.loads(out)
        assert doc["verify"]["oracle_gap"] <= 1e-8

    @pytest.mark.parametrize("scale", [1e-100, 1e-8, 1e8, 1e100])
    @pytest.mark.parametrize(
        "problem",
        [lambda: random_pd_problem(30, 12, seed=0), lambda: random_psd_problem(30, 12, 20, seed=0)],
        ids=["pd", "psd"],
    )
    def test_verify_at_every_scale_of_t(self, tmp_path, capsys, problem, scale):
        t, a, b = problem()
        path = write(tmp_path, {"t": (scale * t).tolist(), "a": a.tolist(), "b": b.tolist()})
        code, out, err = run(capsys, "solve", "--problem", path, "--verify")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["verify"]["oracle_gap"] <= 1e-12
        assert doc["verify"]["oracle_min"] == pytest.approx(doc["min_value"], rel=1e-10, abs=0)

    def test_verify_on_graded_rows(self, tmp_path, capsys):
        # rows of (a, b) scaled over 1e-6 .. 1e6: the oracle read a gap of 0.22
        # before it normalized them
        t, a, b = random_pd_problem(30, 12, seed=0)
        d = np.logspace(-6, 6, 12)
        doc = {"t": t.tolist(), "a": (d[:, None] * a).tolist(), "b": (d * b).tolist()}
        code, out, err = run(capsys, "solve", "--problem", write(tmp_path, doc), "--verify")
        assert (code, err) == (0, "")
        assert json.loads(out)["verify"]["oracle_gap"] <= 1e-12

    def test_verify_more_constraints_than_rank(self, tmp_path, capsys, more_rows_than_rank):
        # a t of rank 5 leaves 3 of the 8 rows of a Q_r dependent, and a
        # block system that keeps them is unsatisfiable to 1e-10
        t, a, b = more_rows_than_rank(0)
        path = write(tmp_path, {"t": t.tolist(), "a": a.tolist(), "b": b.tolist()})
        code, out, _ = run(capsys, "solve", "--problem", path, "--verify")
        assert code == 0
        assert json.loads(out)["verify"]["oracle_gap"] <= 1e-6

    def test_verify_gap_is_relative(self, tmp_path, capsys, monkeypatch):
        # at T·1e-100 the minimum is about 1e-98; an oracle off by a factor
        # of 2 must read as a gap of 1/2, not as 1e-98
        t, a, b = random_pd_problem(30, 12, seed=0)
        path = write(tmp_path, {"t": (1e-100 * t).tolist(), "a": a.tolist(), "b": b.tolist()})
        _, out, _ = run(capsys, "solve", "--problem", path, "--verify")
        verify = json.loads(out)["verify"]
        assert 0 < verify["oracle_min"] < 1e-97 and verify["oracle_gap"] <= 1e-12

        def doubled(*args):
            right = kkt_solve(*args)
            return OracleResult(right.x, 2.0 * right.min_value, right.kkt_residual)

        monkeypatch.setattr(cli, "kkt_solve", doubled)
        _, out, _ = run(capsys, "solve", "--problem", path, "--verify")
        assert json.loads(out)["verify"]["oracle_gap"] == pytest.approx(0.5, rel=1e-12)

    def test_verify_gap_is_zero_at_zero_minimum(self, tmp_path, capsys):
        t, a, _ = random_pd_problem(6, 2, seed=1)
        path = write(tmp_path, {"t": t.tolist(), "a": a.tolist(), "b": [0.0, 0.0]})
        _, out, _ = run(capsys, "solve", "--problem", path, "--verify")
        assert json.loads(out)["verify"] == {"oracle_min": 0.0, "oracle_gap": 0.0}

    def test_auto_dispatch_matches_direct(self, tmp_path, capsys):
        path = write(tmp_path, SINGULAR_FORM)
        _, auto_out, _ = run(capsys, "solve", "--problem", path)
        _, direct_out, _ = run(
            capsys, "solve", "--problem", path, "--method", "psd-complement"
        )
        assert json.loads(auto_out)["xhat"] == json.loads(direct_out)["xhat"]

    def test_deterministic_output(self, tmp_path, capsys):
        path = write(tmp_path, SINGULAR_FORM)
        _, first, _ = run(capsys, "solve", "--problem", path, "--verify")
        _, second, _ = run(capsys, "solve", "--problem", path, "--verify")
        assert first == second

    def test_missing_file_exits_one(self, tmp_path, capsys):
        code, out, err = run(capsys, "solve", "--problem", str(tmp_path / "no.json"))
        assert code == 1
        assert out == ""
        assert "cannot read" in err

    def test_infeasible_exits_two(self, tmp_path, capsys):
        path = write(
            tmp_path, {"t": [[1, 0], [0, 1]], "a": [[1, 0], [1, 0]], "b": [1, 2]}
        )
        code, out, err = run(capsys, "solve", "--problem", path)
        assert code == 2
        assert "infeasible" in err

    def test_reference_judges_b_on_the_operator_it_factors(self, tmp_path, capsys):
        # a has rank 2 but a T^{-1/2} has rank 1 at the threshold; the square
        # root route once decided feasibility on a and exited 0 with a
        # feasibility residual of 0.71
        doc = {"t": [[1, 0], [0, 2e15]], "a": [[1, 0], [1, 1e-12]], "b": [1, 2]}
        path = write(tmp_path, doc)
        for method in ("auto", "posdef", "posdef-diag"):
            code, out, err = run(capsys, "solve", "--problem", path, "--method", method)
            assert (code, out) == (2, "")
            assert err.startswith("qfmin: infeasible: ")

    def test_complement_infeasible_exits_two(self, tmp_path, capsys):
        path = write(tmp_path, {"t": [[1, 0], [0, 0]], "a": [[0, 1]], "b": [1]})
        code, _, err = run(capsys, "solve", "--problem", path)
        assert code == 2
        assert "complement" in err

    def test_indefinite_exits_three(self, tmp_path, capsys):
        path = write(tmp_path, {"t": [[-1, 0], [0, 1]], "a": [[1, 0]], "b": [1]})
        code, _, err = run(capsys, "solve", "--problem", path)
        assert code == 3

    def test_non_hermitian_exits_three(self, tmp_path, capsys):
        path = write(tmp_path, {"t": [[0, 1], [0, 0]], "a": [[1, 0]], "b": [1]})
        for method in ("auto", "posdef", "posdef-diag", "psd-complement"):
            code, out, err = run(capsys, "solve", "--problem", path, "--method", method)
            assert (code, out) == (3, "")
            assert err == (
                "qfmin: operator property failure: "
                "t deviates from its adjoint by 1.414e+00 (norm 1.000e+00)\n"
            )

    @pytest.mark.parametrize("command", ["solve", "check"])
    def test_failed_factorization_guard_exits_three(self, tmp_path, command):
        # the column norms of a overflow, so every factorization of it is nan
        big = 1.5e308
        doc = {"t": [[1, 0], [0, 1]], "a": [[big, big], [big, -big]], "b": [big, big]}
        path = write(tmp_path, doc)
        src = os.path.dirname(os.path.dirname(qfmin.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "qfmin.cli", command, "--problem", path],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr.startswith("qfmin: factorization failure: ")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr

    def test_overflowing_a_w_exits_three(self, tmp_path, capsys):
        # x = [1, 1] with minimum 2e-300, but W = 1e150 I takes a W past the
        # float64 range; ROADMAP item 1's row equilibration should make it
        # solve, as it does at a = 1e10 [[1, 1]]
        doc = {"t": [[1e-300, 0], [0, 1e-300]], "a": [[1e200, 1e200]], "b": [2e200]}
        path = write(tmp_path, doc)
        for method in ("auto", "posdef-diag"):
            code, out, err = run(capsys, "solve", "--problem", path, "--method", method)
            assert (code, out) == (3, "")
            assert err == (
                "qfmin: factorization failure: "
                "a W overflowed: the constraint rows are too large for the factor of t\n"
            )
        code, out, _ = run(capsys, "solve", "--problem", write(tmp_path, {**doc, "a": [[1e10, 1e10]], "b": [2e10]}))
        assert code == 0
        assert json.loads(out)["xhat"] == pytest.approx([1.0, 1.0])

    def test_wrong_route_for_singular_form_exits_three(self, tmp_path, capsys):
        path = write(tmp_path, SINGULAR_FORM)
        code, _, _ = run(capsys, "solve", "--problem", path, "--method", "posdef")
        assert code == 3

    def test_rtol_flag_accepted(self, tmp_path, capsys):
        path = write(tmp_path, SINGULAR_FORM)
        code, out, _ = run(capsys, "solve", "--problem", path, "--rtol", "1e-12")
        assert code == 0
        assert json.loads(out)["method"] == "psd-complement"

    def test_env_rtol_lowest_precedence(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QFMIN_RTOL", "not-a-number")
        path = write(tmp_path, SINGULAR_FORM)
        code, _, err = run(capsys, "solve", "--problem", path)
        assert code == 1
        assert "QFMIN_RTOL" in err

    @pytest.mark.parametrize("value", ["NaN", "1e999"])
    def test_nonfinite_file_tol_exits_one(self, tmp_path, capsys, value):
        # with a NaN or inf neg_tol the indefinite t used to pass as psd-complement
        path = tmp_path / "tol.json"
        path.write_text(
            '{"t": [[1, 0], [0, -1]], "a": [[1, 0]], "b": [1], "tol": {"neg_tol": %s}}' % value
        )
        code, out, err = run(capsys, "solve", "--problem", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("qfmin: error:") and "tol.neg_tol" in err

    @pytest.mark.parametrize("raw", ["nan", "inf"])
    def test_nonfinite_env_rtol_exits_one(self, tmp_path, capsys, monkeypatch, raw):
        monkeypatch.setenv("QFMIN_RTOL", raw)
        path = write(tmp_path, {"t": [[2, 0], [0, 1]], "a": [[1, 1]], "b": [1]})
        code, out, err = run(capsys, "solve", "--problem", path)
        assert (code, out) == (1, "")
        assert err.startswith("qfmin: error: QFMIN_RTOL")

    @pytest.mark.parametrize(
        "flag, value", [("--rtol", "nan"), ("--rtol", "-1"), ("--pd-tol", "-5")]
    )
    def test_nonpositive_flag_exits_one(self, tmp_path, capsys, flag, value):
        path = write(tmp_path, {"t": [[2, 0], [0, 1]], "a": [[1, 1]], "b": [1]})
        code, out, err = run(capsys, "solve", "--problem", path, flag, value)
        assert (code, out) == (1, "")
        assert err.startswith(f"qfmin: error: {flag}")

    @pytest.mark.parametrize(
        "content",
        [
            b'{"t": [[1' + b"0" * 400 + b']], "a": [[1]], "b": [1]}',
            b'{"t": [[1]], "a": [[1]], "b": [1], "tol": {"rtol": 1' + b"0" * 400 + b"}}",
            b'{"t": [[1]], "a": [[1]], "b": [1], "\xff": 1}',
        ],
        ids=["huge-entry", "huge-tol", "invalid-utf8"],
    )
    def test_malformed_file_exits_one(self, tmp_path, capsys, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, out, err = run(capsys, "solve", "--problem", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("qfmin: error:")


class TestCheck:
    def test_singular_form_report(self, tmp_path, capsys):
        path = write(tmp_path, SINGULAR_FORM)
        code, out, _ = run(capsys, "check", "--problem", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["ep"] is True
        assert doc["rank"] == 2
        assert doc["positivity_class"] == "psd-singular"
        assert doc["reverse_order"] is not None
        assert 0.0 <= doc["principal_angle"] <= np.pi / 2

    def test_identity_report(self, tmp_path, capsys):
        path = write(tmp_path, {"t": [[1, 0], [0, 1]], "a": [[1, 1]], "b": [1]})
        code, out, _ = run(capsys, "check", "--problem", path)
        doc = json.loads(out)
        assert doc["ep"] is True
        assert doc["positivity_class"] == "positive-definite"
        assert doc["rank"] == 2

    def test_nilpotent_report(self, tmp_path, capsys):
        path = write(tmp_path, {"t": [[0, 1], [0, 0]], "a": [[1, 0]], "b": [1]})
        code, out, _ = run(capsys, "check", "--problem", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["ep"] is False
        assert doc["rank"] == 1
        assert doc["positivity_class"] == "non-hermitian"
        assert doc["reverse_order"] is None

    def test_indefinite_report(self, tmp_path, capsys):
        path = write(tmp_path, {"t": [[-2, 0], [0, 1]], "a": [[1, 0]], "b": [1]})
        code, out, _ = run(capsys, "check", "--problem", path)
        assert code == 0
        assert json.loads(out)["positivity_class"] == "indefinite"

    def test_report_concerns_the_exact_partner(self, tmp_path, capsys):
        # T = Q_r Λ Q_r* of rank 45 in dimension 60; the report is about
        # (A, P) for the exact P = T^{+1/2} = Q_r Λ^{-1/2} Q_r*
        rng = np.random.default_rng(12)
        q, _ = np.linalg.qr(rng.standard_normal((60, 60)))
        q_r, lam = q[:, :45], np.linspace(1.0, 4.0, 45)
        t = (q_r * lam) @ q_r.T
        a = rng.standard_normal((30, 60))
        doc = {"t": t.tolist(), "a": a.tolist(), "b": rng.standard_normal(30).tolist()}
        code, out, _ = run(capsys, "check", "--problem", write(tmp_path, doc))
        assert code == 0
        report = json.loads(out)
        assert (report["rank"], report["positivity_class"]) == (45, "psd-singular")
        partner = (q_r / np.sqrt(lam)) @ q_r.T
        verdict = reverse_order_holds(a, partner)
        got = report["reverse_order"]
        assert got["rangestar_commutator"] == pytest.approx(verdict.rangestar_commutator, rel=1e-8)
        assert got["range_commutator"] == pytest.approx(verdict.range_commutator, rel=1e-8)
        assert report["principal_angle"] == pytest.approx(principal_angle_diag(a, partner), rel=1e-8)
        assert [d for d in report["diagnostics"] if d["code"] == "ill_conditioning"] == []

    def test_narrow_angle_of_a_singular_t(self, tmp_path, capsys):
        # N(A) = span(Q[:, :4]) and R(T) = span(cos θ Q0 + sin θ Q4, Q5, Q6):
        # the one principal angle below pi/2 is θ, far below the resolution
        # of its cosine
        theta = 1e-8
        q, _ = np.linalg.qr(np.random.default_rng(21).standard_normal((8, 8)))
        a = np.random.default_rng(22).standard_normal((4, 4)) @ q[:, 4:].T
        r_t = np.column_stack([np.cos(theta) * q[:, 0] + np.sin(theta) * q[:, 4], q[:, 5], q[:, 6]])
        t = (r_t * [1.0, 2.0, 3.0]) @ r_t.T
        doc = {"t": t.tolist(), "a": a.tolist(), "b": [1.0, 2.0, 3.0, 4.0]}
        code, out, _ = run(capsys, "check", "--problem", write(tmp_path, doc))
        assert code == 0
        report = json.loads(out)
        assert (report["rank"], report["positivity_class"]) == (3, "psd-singular")
        assert report["principal_angle"] == pytest.approx(theta, rel=1e-6)
        narrow = [d for d in report["diagnostics"] if d["code"] == "narrow_angle"]
        assert [d["value"] for d in narrow] == [report["principal_angle"]]

    @pytest.mark.parametrize(
        "problem",
        [
            lambda: random_pd_problem(50, 25, seed=7),
            lambda: random_psd_problem(50, 25, rank=37, seed=7, complex_entries=True),
        ],
        ids=["pd", "psd-complex"],
    )
    def test_factors_t_once(self, tmp_path, capsys, count_linalg, problem):
        t, a, b = problem()
        doc = {"t": nested(t), "a": nested(a), "b": nested(b)}
        path = write(tmp_path, doc)
        calls = count_linalg()
        code, _, _ = run(capsys, "check", "--problem", path)
        assert code == 0
        # the range of T^{+1/2} is the Q_r of the eigh, so the reverse-order
        # report factors only A, by one thin SVD, then takes the singular
        # values of the product and of V_A* Q_r, the sines to N(A); both
        # angles here are below pi/4, where no cosine is needed
        assert calls == {"eigh": 1, "cholesky": 0, "svd": 1, "qr": 0, "inv": 0, "solve": 0, "svdvals": 2}

    def test_non_hermitian_factors_once(self, tmp_path, capsys, count_linalg):
        path = write(tmp_path, {"t": [[1, 1e-9], [0, 1e-12]], "a": [[1, 0]], "b": [1]})
        calls = count_linalg()
        code, out, _ = run(capsys, "check", "--problem", path)
        assert code == 0
        doc = json.loads(out)
        assert (doc["ep"], doc["rank"], doc["positivity_class"]) == (True, 2, "non-hermitian")
        assert [d["code"] for d in doc["diagnostics"]] == ["ill_conditioning"]
        assert calls == {"eigh": 0, "cholesky": 0, "svd": 1, "qr": 0, "inv": 0, "solve": 0, "svdvals": 0}

    def test_definite_t_near_the_float64_limit(self, tmp_path, capsys):
        t = (1e308 * np.array([[1.0, 0.5], [0.5, 1.0]])).tolist()
        path = write(tmp_path, {"t": t, "a": [[1, 1]], "b": [1]})
        code, out, _ = run(capsys, "check", "--problem", path)
        assert code == 0
        doc = json.loads(out)
        assert (doc["positivity_class"], doc["rank"]) == ("positive-definite", 2)

    def test_non_ep_at_large_scale(self, tmp_path, capsys):
        path = write(tmp_path, {"t": [[0, 1e11], [0, 0]], "a": [[1, 0]], "b": [1]})
        code, out, _ = run(capsys, "check", "--problem", path)
        assert code == 0
        assert json.loads(out)["ep"] is False

    def test_reverse_order_verdict_is_scale_free(self, tmp_path, capsys):
        t, a, b = random_pd_problem(6, 3, seed=2)
        verdicts = []
        for scale in (1.0, 1e16):
            doc = {"t": (scale * t).tolist(), "a": a.tolist(), "b": b.tolist()}
            code, out, _ = run(capsys, "check", "--problem", write(tmp_path, doc))
            assert code == 0
            verdicts.append(json.loads(out)["reverse_order"]["holds"])
        assert verdicts == [False, False]

    @pytest.mark.parametrize(
        "t",
        [[[1, 0], [0, 2]], [[1, 0], [0, -2]], [[1, 1], [0, 1]]],
        ids=["definite", "indefinite", "non-hermitian"],
    )
    @pytest.mark.parametrize(
        "a, b",
        [
            ([[1, 0, 0]], [1]),
            ([[1, 0]], [1, 2, 3]),
            ([[float("nan"), 0]], [1]),
            ([[1, 0]], [float("nan")]),
        ],
        ids=["a-width", "b-length", "nan-in-a", "nan-in-b"],
    )
    def test_invalid_problem_exits_one_as_solve_does(self, tmp_path, capsys, t, a, b):
        path = write(tmp_path, {"t": t, "a": a, "b": b})
        checked = run(capsys, "check", "--problem", path)
        solved = run(capsys, "solve", "--problem", path)
        assert checked[:2] == (1, "")
        assert checked[2].startswith("qfmin: invalid input: ")
        assert checked == solved

    def test_each_operand_warns_once(self, tmp_path, capsys):
        # A keeps a singular value 1e-10 of its largest; T^{+1/2} is well
        # conditioned, so A and the product each warn, and nothing else does
        rng = np.random.default_rng(3)
        u, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        v, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        a = (u * [1.0, 0.5, 0.1, 1e-10]) @ v[:, :4].T
        t = np.diag(np.linspace(1.0, 3.0, 8))
        doc = {"t": t.tolist(), "a": a.tolist(), "b": [1.0, 2.0, 3.0, 4.0]}
        code, out, _ = run(capsys, "check", "--problem", write(tmp_path, doc))
        assert code == 0
        notes = json.loads(out)["diagnostics"]
        sigma_a = np.linalg.svd(a, compute_uv=False)
        sigma_ab = np.linalg.svd(a / np.sqrt(np.diag(t)), compute_uv=False)
        assert [d["code"] for d in notes] == ["ill_conditioning"] * 2
        assert notes[0]["value"] == pytest.approx(sigma_a[-1] / sigma_a[0], rel=1e-4)
        assert notes[1]["value"] == pytest.approx(sigma_ab[-1] / sigma_ab[0], rel=1e-4)


class TestL2Demo:
    def test_default_rows(self, capsys):
        code, out, _ = run(capsys, "l2demo")
        assert code == 0
        doc = json.loads(out)
        assert [row["n"] for row in doc["rows"]] == [10, 100, 1000]
        errors = [row["abs_error"] for row in doc["rows"]]
        assert errors == sorted(errors, reverse=True)

    def test_single_tiny_size(self, capsys):
        code, out, _ = run(capsys, "l2demo", "--sizes", "2")
        doc = json.loads(out)
        assert doc["rows"][0]["min_value"] == pytest.approx(2.25)

    def test_csv_output(self, tmp_path, capsys):
        csv_path = tmp_path / "table.csv"
        code, _, _ = run(capsys, "l2demo", "--sizes", "10,100", "--csv", str(csv_path))
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "n,min_value,abs_error"
        assert len(lines) == 3
        n, value, error = lines[1].split(",")
        assert n == "10"
        assert float(value) == pytest.approx(2.7336326845553041)

    def test_empty_sizes_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["l2demo", "--sizes", ""])
        assert excinfo.value.code == 1

    def test_descending_sizes_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["l2demo", "--sizes", "5,3"])
        assert excinfo.value.code == 1

    def test_csv_write_failure_exits_one(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "l2demo", "--sizes", "2", "--csv", str(tmp_path / "nodir" / "t.csv")
        )
        assert code == 1


class TestUsage:
    def test_unknown_subcommand_exits_one(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 1

    def test_missing_problem_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["solve"])
        assert excinfo.value.code == 1

    def test_stdout_contains_only_json(self, tmp_path, capsys):
        path = write(tmp_path, SINGULAR_FORM)
        code, out, err = run(capsys, "solve", "--problem", path)
        json.loads(out)
        assert err == ""
