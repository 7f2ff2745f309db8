"""Tests for Tikhonov / adaptive regularization (§3.3)."""

import numpy as np
import pytest

from repro.core.config import ZeroERConfig
from repro.core.regularization import apply_regularization, penalty_diagonal


def cfg(reg, kappa=0.5):
    return ZeroERConfig(regularization=reg, kappa=kappa, transitivity=False)


class TestPenaltyDiagonal:
    def test_none_is_zero(self):
        K = penalty_diagonal(cfg("none"), np.ones(3), np.zeros(3))
        assert np.all(K == 0.0)

    def test_tikhonov_uniform(self):
        K = penalty_diagonal(cfg("tikhonov", 0.3), np.ones(4), np.zeros(4))
        assert np.allclose(K, 0.3)

    def test_adaptive_is_kappa_gap_squared(self):
        mu_m = np.array([1.0, 0.5, 0.2])
        mu_u = np.array([0.0, 0.5, 0.1])
        K = penalty_diagonal(cfg("adaptive", 2.0), mu_m, mu_u)
        assert np.allclose(K, 2.0 * np.array([1.0, 0.0, 0.01]))

    def test_adaptive_larger_gap_more_regularization(self):
        # the paper's Example 2: well-separated features get inflated more,
        # keeping the two components separated after smoothing
        mu_m = np.array([1.0, 0.6])
        mu_u = np.array([0.0, 0.4])
        K = penalty_diagonal(cfg("adaptive"), mu_m, mu_u)
        assert K[0] > K[1]

    def test_adaptive_symmetric_in_classes(self):
        a = penalty_diagonal(cfg("adaptive"), np.ones(2), np.zeros(2))
        b = penalty_diagonal(cfg("adaptive"), np.zeros(2), np.ones(2))
        assert np.allclose(a, b)


class TestApplyRegularization:
    def test_adds_to_diagonal_only(self):
        S = np.array([[0.1, 0.05], [0.05, 0.2]])
        penalty = np.array([2.0, 3.0])
        out = apply_regularization(S, penalty)
        assert out[0, 0] == pytest.approx(0.1 + 2.0)
        assert out[1, 1] == pytest.approx(0.2 + 3.0)
        assert out[0, 1] == pytest.approx(0.05)

    def test_does_not_mutate_input(self):
        S = np.eye(2)
        apply_regularization(S, np.ones(2))
        assert np.allclose(S, np.eye(2))

    def test_fixes_singularity(self):
        # zero-variance feature (the paper's f1 example) becomes invertible
        S = np.array([[0.0]])
        out = apply_regularization(S, np.array([0.25]))
        assert np.linalg.det(out) > 0.0
