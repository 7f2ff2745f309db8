"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.table import Table


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def fault_injector():
    """A soft-crash :class:`FaultInjector` installed for the test.

    Arm it (``fault_injector.arm(...)`` / ``arm_hit(...)``) and run the
    operation under test; un-armed it just records every failpoint hit.
    """
    from repro.reliability import FaultInjector, inject

    injector = FaultInjector()
    with inject(injector):
        yield injector


@pytest.fixture
def hard_fault_injector():
    """Like ``fault_injector`` but modeling ``kill -9``: cleanup paths skipped."""
    from repro.reliability import FaultInjector, inject

    injector = FaultInjector(hard=True)
    with inject(injector):
        yield injector


@pytest.fixture
def cholesky_calls(monkeypatch):
    """Records every ``robust_cholesky`` factorization made during the test."""
    import repro.core.gaussian
    import repro.utils.linalg

    calls = []
    real = repro.utils.linalg.robust_cholesky

    def counting(cov):
        calls.append(np.shape(cov))
        return real(cov)

    for module in (repro.utils.linalg, repro.core.gaussian):
        monkeypatch.setattr(module, "robust_cholesky", counting)
    return calls


@pytest.fixture
def separable_mixture(rng):
    """A tiny imbalanced two-class similarity-vector problem.

    Matches (8%) have high similarities, unmatches low — the geometry every
    matcher in this library is supposed to handle. Returns ``(X, y)``.
    """
    n = 600
    y = (rng.random(n) < 0.08).astype(np.float64)
    X = rng.normal(0.18, 0.1, size=(n, 6))
    X[y == 1] += 0.55
    return np.clip(X, 0.0, 1.0), y


@pytest.fixture
def grouped_mixture(rng):
    """Like ``separable_mixture`` but with two correlated feature groups.

    Features 0-2 are correlated copies of one signal, features 3-5 of
    another; the group partition is returned alongside.
    """
    n = 500
    y = (rng.random(n) < 0.1).astype(np.float64)
    base_a = rng.normal(0.2, 0.1, size=n) + 0.5 * y
    base_b = rng.normal(0.25, 0.1, size=n) + 0.45 * y
    X = np.stack(
        [
            base_a,
            base_a + rng.normal(0, 0.02, n),
            base_a + rng.normal(0, 0.02, n),
            base_b,
            base_b + rng.normal(0, 0.02, n),
            base_b + rng.normal(0, 0.02, n),
        ],
        axis=1,
    )
    return np.clip(X, 0.0, 1.0), y, [[0, 1, 2], [3, 4, 5]]


@pytest.fixture
def people_table():
    """A small table used across data/blocking/feature tests."""
    return Table(
        [
            {"id": "a", "name": "alice cooper", "city": "chicago", "age": 34},
            {"id": "b", "name": "alicia cooper", "city": "chicago", "age": 34},
            {"id": "c", "name": "bob dylan", "city": "duluth", "age": 80},
            {"id": "d", "name": "robert dylan", "city": "duluth", "age": 80},
            {"id": "e", "name": "carol king", "city": None, "age": None},
        ],
        attributes=["name", "city", "age"],
    )
