"""Tests for weighted moments and the shared-correlation decomposition (§4)."""

import numpy as np
import pytest

from repro.core.covariance import (
    pooled_correlation,
    rescale_to_correlation,
    weighted_covariance,
    weighted_mean,
)


class TestWeightedMean:
    def test_uniform_weights_is_plain_mean(self, rng):
        X = rng.random((30, 3))
        w = np.ones(30)
        assert np.allclose(weighted_mean(X, w), X.mean(axis=0))

    def test_hard_weights_select_subset(self, rng):
        X = rng.random((10, 2))
        w = np.zeros(10)
        w[:3] = 1.0
        assert np.allclose(weighted_mean(X, w), X[:3].mean(axis=0))

    def test_rejects_zero_mass(self):
        with pytest.raises(ValueError, match="zero"):
            weighted_mean(np.ones((3, 2)), np.zeros(3))


class TestWeightedCovariance:
    def test_uniform_equals_ml_covariance(self, rng):
        X = rng.random((100, 3))
        w = np.ones(100)
        mean = X.mean(axis=0)
        expected = (X - mean).T @ (X - mean) / 100
        assert np.allclose(weighted_covariance(X, w, mean), expected)

    def test_symmetric_psd(self, rng):
        X = rng.random((50, 4))
        w = rng.random(50)
        mean = weighted_mean(X, w)
        S = weighted_covariance(X, w, mean)
        assert np.allclose(S, S.T)
        assert np.all(np.linalg.eigvalsh(S) > -1e-10)

    def test_soft_weights_interpolate(self, rng):
        X = np.array([[0.0], [1.0]])
        S_first = weighted_covariance(X, np.array([1.0, 0.0]), np.array([0.0]))
        assert S_first[0, 0] == pytest.approx(0.0)
        S_both = weighted_covariance(X, np.array([1.0, 1.0]), np.array([0.5]))
        assert S_both[0, 0] == pytest.approx(0.25)


class TestPooledCorrelation:
    def test_blocks_match_numpy_corrcoef(self, rng):
        X = rng.random((200, 4))
        assert np.allclose(pooled_correlation(X), np.corrcoef(X, rowvar=False), atol=1e-10)

    def test_unit_diagonals(self, rng):
        X = rng.random((50, 3))
        assert np.allclose(np.diag(pooled_correlation(X)), 1.0)

    def test_constant_feature_zero_correlation(self):
        X = np.column_stack([np.ones(20), np.linspace(0, 1, 20)])
        assert pooled_correlation(X)[0, 1] == 0.0

    def test_correlated_copies_detected(self, grouped_mixture):
        X, _y, groups = grouped_mixture
        R = pooled_correlation(X)
        # within-group features are near-copies -> correlation close to 1
        assert R[groups[0][0], groups[0][1]] > 0.9
        assert R[groups[1][0], groups[1][1]] > 0.9


class TestRescaleToCorrelation:
    def test_preserves_diagonal(self, rng):
        A = rng.normal(size=(3, 3))
        S = A @ A.T + np.eye(3)
        R = np.eye(3)
        out = rescale_to_correlation(S, R)
        assert np.allclose(np.diag(out), np.diag(S))

    def test_identity_correlation_gives_diagonal(self, rng):
        A = rng.normal(size=(3, 3))
        S = A @ A.T + np.eye(3)
        out = rescale_to_correlation(S, np.eye(3))
        assert np.allclose(out, np.diag(np.diag(S)))

    def test_lambda_r_lambda_identity(self, rng):
        # decomposing a covariance into Λ R Λ with its own correlation
        # reconstructs the original matrix (Equation 14)
        A = rng.normal(size=(4, 4))
        S = A @ A.T + 0.5 * np.eye(4)
        std = np.sqrt(np.diag(S))
        R_own = S / np.outer(std, std)
        assert np.allclose(rescale_to_correlation(S, R_own), S)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="disagree"):
            rescale_to_correlation(np.eye(2), np.eye(3))

    def test_parameter_sharing_effect(self, grouped_mixture):
        # S_M rebuilt with pooled R keeps M's scale but borrows structure
        X, y, groups = grouped_mixture
        R = pooled_correlation(X)
        w = y  # hard match weights
        sub = X[:, groups[0]]
        mean = weighted_mean(sub, w)
        S_m = weighted_covariance(sub, w, mean)
        rebuilt = rescale_to_correlation(S_m, R[np.ix_(groups[0], groups[0])])
        assert np.allclose(np.diag(rebuilt), np.diag(S_m))
        assert rebuilt[0, 1] != pytest.approx(S_m[0, 1], rel=1e-6)
