"""Layering read from the source.

Only dense_core calls the guarded factorizations of numpy.linalg, private
names cross from one module to another only where listed, and an import
kept only for the benchmark's tracer is one the tracer wraps and nothing
else uses.
"""

import ast
import pathlib

import pytest

import qfmin

SRC = pathlib.Path(qfmin.__file__).parent


def _unguarded_calls(tree):
    """Calls of np.linalg.eigh, np.linalg.qr and of np.linalg.svd with vectors."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "linalg"
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id in ("np", "numpy")
        ):
            continue
        values_only = any(
            k.arg == "compute_uv" and isinstance(k.value, ast.Constant) and k.value.value is False
            for k in node.keywords
        )
        if func.attr in ("eigh", "qr") or (func.attr == "svd" and not values_only):
            yield f"np.linalg.{func.attr} at line {node.lineno}"


@pytest.mark.parametrize(
    "module", sorted(p.name for p in SRC.glob("*.py") if p.name != "dense_core.py")
)
def test_factorizations_go_through_dense_core(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    assert list(_unguarded_calls(tree)) == []


def test_the_check_sees_dense_core_calls():
    tree = ast.parse((SRC / "dense_core.py").read_text(encoding="utf-8"))
    assert {call.split(" ")[0] for call in _unguarded_calls(tree)} == {
        "np.linalg.eigh",
        "np.linalg.qr",
        "np.linalg.svd",
    }


# (importer, source, name): every private name one qfmin module imports from
# another.  A new crossing is a coupling, and joins this list on purpose.
PRIVATE_IMPORTS = {
    ("cli", "minimizers", "_inverse_root"),
    ("cli", "pinv_ops", "_ep_holds"),
    ("cli", "pinv_ops", "_kept_svd"),
    ("cli", "pinv_ops", "_reverse_order"),
    ("minimizers", "pinv_ops", "_kept_svd"),
}


def test_private_names_cross_modules_only_where_listed():
    found = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                node.level or node.module.split(".")[0] == "qfmin"
            ):
                source = node.module or "__init__"
                found |= {
                    (path.stem, source.removeprefix("qfmin."), alias.name)
                    for alias in node.names
                    if alias.name.startswith("_")
                }
    assert found == PRIVATE_IMPORTS


PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
KEPT_BOUND = "# noqa: F401  kept bound: perfbench/tracing.py wraps it"

# (module, name): the imports each module keeps only so that the tracer
# can wrap them.  Once the tracer wraps the layers where they are defined,
# these imports can go.
TRACER_ONLY = {
    ("cli", "is_ep"),
    ("cli", "minimize_posdef"),
    ("cli", "minimize_posdef_diag"),
    ("cli", "minimize_psd_complement"),
    ("cli", "pinv"),
    ("cli", "principal_angle_diag"),
    ("cli", "reverse_order_holds"),
    ("cli", "sqrt_psd"),
    ("minimizers", "ep_decompose"),
    ("minimizers", "pinv_with_rank"),
    ("minimizers", "projector_rangestar"),
    ("minimizers", "rangestar_basis"),
    ("minimizers", "sqrt_psd"),
}


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


def _kept_bound(tree, lines):
    """Names imported on a line that carries the KEPT_BOUND marker."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if lines[alias.lineno - 1].rstrip().endswith(KEPT_BOUND):
                    yield alias.asname or alias.name


def test_kept_bound_imports_are_tracer_only(tracing):
    wrapped = {
        (module.__name__.removeprefix("qfmin."), attr)
        for module, attr, _, _ in tracing.library_targets() + tracing.cli_targets()
    }
    found = set()
    for path in SRC.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text)
        kept = set(_kept_bound(tree, text.splitlines()))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert kept & used == set(), path.name
        found |= {(path.stem, name) for name in kept}
    assert found - wrapped == set()
    assert found == TRACER_ONLY
