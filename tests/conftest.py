"""Fixtures shared by the test modules."""

import numpy as np
import pytest

import steerbound.functionals as functionals_module
from steerbound.linalg import _openblas


@pytest.fixture(autouse=True)
def blas_count_unchanged():
    """Fail a test that returns with numpy's OpenBLAS at another thread
    count than it started with: the count is process-wide, so a leak would
    change every later test. No check where numpy bundles no OpenBLAS."""
    calls = _openblas()
    if not calls:
        yield
        return
    get = calls[0]
    before = get()
    yield
    after = get()
    assert after == before, f"OpenBLAS thread count leaked: {before} -> {after}"


@pytest.fixture
def eigvalsh_matrices(monkeypatch):
    """Counts the matrices passed to numpy's eigvalsh, one entry per call."""
    counted = []
    original = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        counted.append(int(np.prod(np.shape(a)[:-2])))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return counted


@pytest.fixture
def hermiticity_passes(monkeypatch):
    """Counts the Hermiticity passes over functional tables, one entry (the
    table's shape) per call of functionals._hermiticity_defects."""
    counted = []
    original = functionals_module._hermiticity_defects

    def counting(table):
        counted.append(table.shape)
        return original(table)

    monkeypatch.setattr(functionals_module, "_hermiticity_defects", counting)
    return counted


@pytest.fixture
def linalg_calls(monkeypatch):
    """Counts calls to numpy's eigh and qr, by name."""
    counted = {"eigh": 0, "qr": 0}
    for name in counted:
        original = getattr(np.linalg, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counted[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return counted
