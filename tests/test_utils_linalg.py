"""Tests for repro.utils.linalg (robust Cholesky, Gaussian logpdf)."""

import numpy as np
import pytest
import scipy.stats

from repro.core.gaussian import BlockDiagonalGaussian
from repro.utils.linalg import correlation_from_covariance, robust_cholesky


def gaussian_logpdf(X, mean, cov):
    """Log density under a single-block Gaussian (factorized via robust_cholesky)."""
    return BlockDiagonalGaussian(mean, [list(range(len(mean)))], [cov]).logpdf(X)


class TestRobustCholesky:
    def test_spd_matrix_exact(self):
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        L = robust_cholesky(cov)
        assert np.allclose(L @ L.T, cov)

    def test_lower_triangular(self):
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        L = robust_cholesky(cov)
        assert np.allclose(L, np.tril(L))

    def test_singular_matrix_gets_jitter(self):
        # rank-1: classic singularity-problem covariance (paper §3.3)
        v = np.array([1.0, 2.0])
        cov = np.outer(v, v)
        L = robust_cholesky(cov)
        assert np.all(np.isfinite(L))
        assert np.allclose(L @ L.T, cov, atol=1e-4)

    def test_zero_matrix(self):
        L = robust_cholesky(np.zeros((3, 3)))
        assert np.all(np.isfinite(L))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            robust_cholesky(np.ones((2, 3)))

    def test_nan_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            robust_cholesky(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestGaussianLogpdf:
    def test_whitening_inverts_the_covariance(self, rng):
        A = rng.normal(size=(4, 4))
        cov = A @ A.T + np.eye(4)
        g = BlockDiagonalGaussian(np.zeros(4), [[0, 1, 2, 3]], [cov])
        assert np.allclose(g.whitening @ g.whitening.T, np.linalg.inv(cov))
        log_det = np.linalg.slogdet(cov)[1]
        assert g.group_log_norms[0] == pytest.approx(-0.5 * (4 * np.log(2 * np.pi) + log_det))

    def test_matches_scipy_1d(self):
        X = np.array([[0.0], [1.0], [-2.0]])
        ours = gaussian_logpdf(X, np.array([0.5]), np.array([[2.0]]))
        reference = scipy.stats.norm(0.5, np.sqrt(2.0)).logpdf(X.ravel())
        assert np.allclose(ours, reference)

    def test_matches_scipy_multivariate(self, rng):
        d = 4
        A = rng.normal(size=(d, d))
        cov = A @ A.T + np.eye(d)
        mean = rng.normal(size=d)
        X = rng.normal(size=(20, d))
        ours = gaussian_logpdf(X, mean, cov)
        reference = scipy.stats.multivariate_normal(mean, cov).logpdf(X)
        assert np.allclose(ours, reference)

    def test_density_peaks_at_mean(self):
        mean = np.array([0.3, 0.7])
        cov = np.eye(2) * 0.1
        at_mean = gaussian_logpdf(mean[None, :], mean, cov)[0]
        away = gaussian_logpdf(mean[None, :] + 0.5, mean, cov)[0]
        assert at_mean > away

    def test_near_singular_is_finite(self):
        # collapsed variance must not produce inf (the jitter ladder's job)
        X = np.array([[1.0, 1.0]])
        cov = np.array([[1e-30, 0.0], [0.0, 1.0]])
        out = gaussian_logpdf(X, np.array([1.0, 1.0]), cov)
        assert np.all(np.isfinite(out))


class TestCorrelationFromCovariance:
    def test_unit_diagonal(self, rng):
        A = rng.normal(size=(3, 3))
        cov = A @ A.T + np.eye(3)
        corr = correlation_from_covariance(cov)
        assert np.allclose(np.diag(corr), 1.0)

    def test_values_in_range(self, rng):
        A = rng.normal(size=(4, 4))
        corr = correlation_from_covariance(A @ A.T)
        assert np.all(corr <= 1.0) and np.all(corr >= -1.0)

    def test_perfect_correlation(self):
        cov = np.array([[1.0, 2.0], [2.0, 4.0]])  # y = 2x
        corr = correlation_from_covariance(cov)
        assert corr[0, 1] == pytest.approx(1.0)

    def test_zero_variance_dimension(self):
        cov = np.array([[0.0, 0.0], [0.0, 1.0]])
        corr = correlation_from_covariance(cov)
        assert corr[0, 0] == 1.0
        assert corr[0, 1] == 0.0

    def test_known_correlation(self):
        cov = np.array([[4.0, 2.0], [2.0, 9.0]])
        corr = correlation_from_covariance(cov)
        assert corr[0, 1] == pytest.approx(2.0 / 6.0)
