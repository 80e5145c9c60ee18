import numpy as np
import pytest

# Every numpy.linalg factorization or solve the library can call; a new one
# has to join this list, so that none goes uncounted.
LINALG_CALLS = ("eigh", "svd", "qr", "inv", "solve")


@pytest.fixture
def count_linalg(monkeypatch):
    """Start counting the numpy.linalg calls in `LINALG_CALLS`.

    Calling the fixture's value patches them and returns the live counts,
    which grow until the test ends.
    """

    def start() -> dict:
        calls = dict.fromkeys(LINALG_CALLS, 0)
        for name in LINALG_CALLS:

            def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        return calls

    return start
