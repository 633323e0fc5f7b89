"""Fixtures shared by the test modules."""

import pytest

from spinorforge import clifford


@pytest.fixture
def gp_calls(monkeypatch):
    """Counts geometric products: the calls of the one kernel behind
    gp_blades and gp_array."""
    calls = []
    kernel = clifford._accumulate

    def counted(a, b, signs, rows):
        calls.append(len(signs))
        return kernel(a, b, signs, rows)

    monkeypatch.setattr(clifford, "_accumulate", counted)
    return calls
