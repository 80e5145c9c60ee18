import numpy as np
import pytest

# Every numpy.linalg factorization or solve the library can call; a new one
# has to join this list, so that none goes uncounted.
LINALG_CALLS = ("eigh", "svd", "qr", "inv", "solve")


@pytest.fixture
def count_linalg(monkeypatch):
    """Start counting the numpy.linalg calls in `LINALG_CALLS`.

    Calling the fixture's value patches them and returns the live counts,
    which grow until the test ends.  An SVD called with ``compute_uv=False``
    computes no singular vectors and counts under ``svdvals``, apart from
    ``svd``.
    """

    def start() -> dict:
        calls = dict.fromkeys(LINALG_CALLS + ("svdvals",), 0)
        for name in LINALG_CALLS:

            def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
                values_only = _name == "svd" and kwargs.get("compute_uv") is False
                calls["svdvals" if values_only else _name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        return calls

    return start


@pytest.fixture
def more_rows_than_rank():
    """Draws a feasible singular problem with 8 constraints on a `t` of rank 5.

    The nonzero spectrum of `t` is ``logspace(0, 8, 5)`` and ``b = a Q_r z``;
    the value is the function of the seed.
    """

    def draw(seed):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
        lam = np.zeros(12)
        lam[:5] = np.logspace(0, 8, 5)
        t = (q * lam) @ q.T
        a = rng.standard_normal((8, 12))
        return (t + t.T) / 2, a, a @ (q[:, :5] @ rng.standard_normal(5))

    return draw
