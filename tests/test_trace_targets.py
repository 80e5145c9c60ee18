"""The benchmark's tracer wraps qfmin names; each one must still exist.

`perfbench/tracing.py` replaces module attributes by name, so renaming or
unbinding one of them breaks ``perfbench/run.py --trace 1`` with an
AttributeError that no other test sees.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


@pytest.mark.parametrize("targets", ["library_targets", "cli_targets"])
def test_trace_targets_resolve(tracing, targets):
    entries = getattr(tracing, targets)()
    assert entries
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in entries
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []
