import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def fresh_stores(monkeypatch):
    """Empty certificate, diagonal-maximum and line stores for the test.
    Returns a function that swaps in empty stores again."""
    from madcap import capacity

    def empty():
        for name in ("_CERT_CACHE", "_DIAG_MAX", "_LINES"):
            monkeypatch.setattr(capacity, name, {})

    empty()
    return empty
