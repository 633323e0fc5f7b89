"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from spinorforge import clifford, lie_algebra


@pytest.fixture
def map_calls():
    """The closed-form map applications that `gp_calls` sets apart, as
    (n, "forward" or "inverse") in call order."""
    return []


@pytest.fixture
def gp_calls(monkeypatch, map_calls):
    """Counts geometric products: the calls of `clifford._accumulate`, the
    one summation kernel behind gp_blades and gp_array, save those on a
    table of `clifford._closed_form_maps`.  Those tables are cached, so
    they are known by identity, and their calls go to `map_calls`.
    (gp_array passes the rows of a product table that it needs, a copy.)"""
    maps = {id(table[0]): (n, kind) for n in (3, 4) for kind, table in
            zip(("forward", "inverse"), clifford._closed_form_maps(n))}
    calls = []
    kernel = clifford._accumulate

    def counted(a, b, signs, rows):
        if id(signs) in maps:
            map_calls.append(maps[id(signs)])
        else:
            calls.append(len(signs))
        return kernel(a, b, signs, rows)

    monkeypatch.setattr(clifford, "_accumulate", counted)
    return calls


@pytest.fixture
def connection_work(monkeypatch):
    """What contracting c and gamma costs: "operators", the shape of each
    operator field that `lie_algebra._operator` forms, and "einsums", the
    subscripts of every `np.einsum` call, each in call order."""
    work = {"operators": [], "einsums": []}
    operator = lie_algebra._operator
    einsum = np.einsum

    def counted_operator(X, terms, n):
        out = operator(X, terms, n)
        work["operators"].append(out.shape)
        return out

    def counted_einsum(subscripts, *operands, **kwargs):
        work["einsums"].append(subscripts)
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(lie_algebra, "_operator", counted_operator)
    monkeypatch.setattr(np, "einsum", counted_einsum)
    return work


@pytest.fixture
def no_connection(monkeypatch):
    """Fails the test on any contraction of c or gamma."""
    def formed(*args):
        raise AssertionError("a connection was formed")
    monkeypatch.setattr(lie_algebra, "_operator", formed)
    monkeypatch.setattr(lie_algebra, "_contract", formed)
