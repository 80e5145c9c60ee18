"""Layering read from the source.

Only dense_core calls the guarded factorizations and the inverse of
numpy.linalg, the kernel's certificates share one rule, a triangular
factorization refuses only by FactorizationError, one function runs the
block Cholesky recursion, private names cross from one module to another
only where listed, every name the benchmark's tracer wraps exists, and an
import kept only for the tracer is one the tracer wraps and nothing else
uses.
"""

import ast
import pathlib

import pytest

import qfmin

SRC = pathlib.Path(qfmin.__file__).parent


def _unguarded_calls(tree):
    """Calls of np.linalg.eigh, np.linalg.cholesky, np.linalg.qr, np.linalg.inv and of np.linalg.svd with vectors."""
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
        if func.attr in ("eigh", "cholesky", "qr", "inv") or (func.attr == "svd" and not values_only):
            yield f"np.linalg.{func.attr} at line {node.lineno}"


@pytest.mark.parametrize(
    "module", sorted(p.name for p in SRC.glob("*.py") if p.name != "dense_core.py")
)
def test_factorizations_go_through_dense_core(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    assert list(_unguarded_calls(tree)) == []


def test_the_check_sees_dense_core_calls():
    # one call site each: a second wrapper of a factorization would be a
    # second error message and a second guard.  The Cholesky factorization
    # and the inverse are the leaves that both block recursions share
    tree = ast.parse((SRC / "dense_core.py").read_text(encoding="utf-8"))
    assert sorted(call.split(" ")[0] for call in _unguarded_calls(tree)) == [
        "np.linalg.cholesky",
        "np.linalg.eigh",
        "np.linalg.inv",
        "np.linalg.qr",
        "np.linalg.svd",
    ]


def _formed_products(tree):
    """``@`` products in the arguments of a `_guard` call whose right operand is not a probe.

    The guard's `apply` multiplies into the probe block, right to left; an
    ``@`` with no probe on its right forms a product of factors, the
    O(n^3) reconstruction the probes replace.
    """
    for call in ast.walk(tree):
        if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "_guard"):
            continue
        for arg in [*call.args, *(k.value for k in call.keywords)]:
            probes = {a.arg for a in arg.args.args} if isinstance(arg, ast.Lambda) else set()
            for node in ast.walk(arg):
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                    right = {n.id for n in ast.walk(node.right) if isinstance(n, ast.Name)}
                    if not right & probes:
                        yield f"{ast.unparse(node)} at line {node.lineno}"


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_guard_forms_a_product_of_factors(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    assert list(_formed_products(tree)) == []


def test_the_product_check_sees_a_reconstruction():
    guards = [
        node
        for node in ast.walk(ast.parse((SRC / "dense_core.py").read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_guard"
    ]
    # SVD, QR, eigendecomposition and Cholesky, of t or of a Gram; the
    # triangular inverse checks its residual against the identity, with no
    # _guard call
    assert len(guards) == 4
    old = ast.parse('_guard("QR", q @ r, a, KTOL, n)\n_guard("E", lambda z: ((q * w) @ q.T) @ z, a, n)')
    assert [p.split(" at ")[0] for p in _formed_products(old)] == ["q @ r", "q * w @ q.T"]


def _margin_reads(tree):
    """``(top-level definition, name)`` for each read of CERTIFICATE_MARGIN or ABS_FLOOR outside an import."""
    for top in tree.body:
        where = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name in ("CERTIFICATE_MARGIN", "ABS_FLOOR"):
                yield where, name


def test_minimizers_certify_by_one_rule():
    # every certificate in the kernel compares its bound through _certifies,
    # the one rule and the one place a test refuses them all
    tree = ast.parse((SRC / "minimizers.py").read_text(encoding="utf-8"))
    assert set(_margin_reads(tree)) == {("_certifies", "CERTIFICATE_MARGIN"), ("_certifies", "ABS_FLOOR")}


def test_the_rule_check_sees_an_inline_margin():
    old = ast.parse("def _cholesky_root(h, cfg):\n    bound = config.CERTIFICATE_MARGIN * max(gate, ABS_FLOOR)\n")
    assert set(_margin_reads(old)) == {("_cholesky_root", "CERTIFICATE_MARGIN"), ("_cholesky_root", "ABS_FLOOR")}


# the dense_core functions that return the inverse of a triangular factor
TRIANGLE_INVERSES = ("tri_inv", "cholesky_inverse", "gram_cholesky")


def _inverts(node):
    """Whether `node` calls a `TRIANGLE_INVERSES` name, by name or as an attribute."""
    func = getattr(node, "func", None)
    return (getattr(func, "id", None) or getattr(func, "attr", None)) in TRIANGLE_INVERSES


def _tri_inv_calls(tree):
    """The top-level definition around each call of a `TRIANGLE_INVERSES` name."""
    for top in tree.body:
        for node in ast.walk(top):
            if _inverts(node):
                yield getattr(top, "name", "<module>")


def test_minimizers_invert_triangles_in_one_place():
    # a Cholesky factor and its inverse, of t or of the Gram of a W, are
    # factored only where the certificate hands its rule to the
    # factorization; only the full-rank branch of _row_factors inverts an R
    # it already decided on
    tree = ast.parse((SRC / "minimizers.py").read_text(encoding="utf-8"))
    assert sorted(_tri_inv_calls(tree)) == ["_certified_inverse", "_cholesky_root", "_row_factors"]


def test_the_triangle_check_sees_an_inline_inverse():
    old = ast.parse(
        "def _cholesky_root(h, cfg):\n    x = dense_core.tri_inv(cholesky(h))\n"
        "def _certified_inverse(x, ratio):\n    l, rinv = gram_cholesky(x)\n"
    )
    assert list(_tri_inv_calls(old)) == ["_cholesky_root", "_certified_inverse"]


# The dense_core functions on the way to a triangular factor or inverse.
# Each returns its result or raises FactorizationError; `_factor_inverse`
# fills its arguments and returns nothing.
RAISING = ("cholesky_inverse", "gram_cholesky", "_checked_inverse", "tri_inv")


def _returned_verdicts(tree):
    """``return None`` in a `RAISING` function, and a return with a value in `_factor_inverse`."""
    for top in tree.body:
        name = getattr(top, "name", None)
        for node in ast.walk(top):
            if not isinstance(node, ast.Return):
                continue
            none = isinstance(node.value, ast.Constant) and node.value.value is None
            if (name in RAISING and none) or (name == "_factor_inverse" and node.value is not None):
                yield f"{name} at line {node.lineno}"


def _none_tests_of_factors(tree):
    """The top-level definition around each ``is None`` test of a `TRIANGLE_INVERSES` result.

    A result is the call itself or a name assigned from an expression that
    calls one.
    """
    for top in tree.body:
        results = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Assign) and any(_inverts(call) for call in ast.walk(node.value)):
                results |= {n.id for target in node.targets for n in ast.walk(target) if isinstance(n, ast.Name)}
        for node in ast.walk(top):
            if not (
                isinstance(node, ast.Compare)
                and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
                and any(isinstance(c, ast.Constant) and c.value is None for c in node.comparators)
            ):
                continue
            if getattr(node.left, "id", None) in results or _inverts(node.left):
                yield getattr(top, "name", "<module>")


def test_a_triangular_factorization_refuses_by_raising():
    # cholesky_inverse, gram_cholesky and tri_inv return their factors or
    # raise FactorizationError; the certificates turn that error into None,
    # and never test a factor call's result for None
    tree = ast.parse((SRC / "dense_core.py").read_text(encoding="utf-8"))
    assert {*RAISING, "_factor_inverse"} <= {getattr(top, "name", None) for top in tree.body}
    assert list(_returned_verdicts(tree)) == []
    assert list(_none_tests_of_factors(ast.parse((SRC / "minimizers.py").read_text(encoding="utf-8")))) == []


def test_the_refusal_check_sees_a_returned_verdict():
    old = ast.parse(
        "def _factor_inverse(a, l, x, admits):\n    if not admits(l):\n        return False\n    return True\n"
        "def gram_cholesky(a, admits):\n    if pair is None:\n        return None\n    return pair\n"
        "def _certified_inverse(x, ratio):\n"
        "    certified = _certified_cholesky(lambda admits: gram_cholesky(x, admits), rule)\n"
        "    if certified is None:\n        return None\n"
        "def _cholesky_root(h, cfg):\n    return None if dense_core.cholesky_inverse(h, rule) is None else 1\n"
    )
    assert [v.split(" at ")[0] for v in _returned_verdicts(old)] == ["_factor_inverse"] * 2 + ["gram_cholesky"]
    assert list(_none_tests_of_factors(old)) == ["_certified_inverse", "_cholesky_root"]


def _callers(tree, name):
    """The top-level definitions that call `name` by name."""
    for top in tree.body:
        if any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == name for n in ast.walk(top)):
            yield getattr(top, "name", "<module>")


def test_one_entry_runs_the_cholesky_recursion():
    # gram_cholesky is cholesky_inverse of the prescaled Gram, so the
    # recursion, its checks and the offer of s to admits sit in one function
    tree = ast.parse((SRC / "dense_core.py").read_text(encoding="utf-8"))
    assert sorted(_callers(tree, "_factor_inverse")) == ["_factor_inverse", "cholesky_inverse"]
    assert list(_callers(tree, "cholesky_inverse")) == ["gram_cholesky"]


def test_the_entry_check_sees_a_second_caller():
    old = ast.parse(
        "def _cholesky_pair(h, admits):\n    _factor_inverse(h.sym, l, x, floor)\n"
        "def cholesky_inverse(h, admits):\n    return _admitted(*_cholesky_pair(h, admits), admits)\n"
    )
    assert list(_callers(old, "_factor_inverse")) == ["_cholesky_pair"]


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


@pytest.mark.parametrize("targets", ["library_targets", "cli_targets"])
def test_trace_targets_resolve(tracing, targets):
    # the tracer replaces module attributes by name, so a renamed or unbound
    # one breaks ``perfbench/run.py --trace 1`` with an AttributeError
    entries = getattr(tracing, targets)()
    assert entries
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in entries
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []


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
