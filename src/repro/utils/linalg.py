"""Numerically robust linear-algebra primitives for the EM core.

The EM loop repeatedly evaluates multivariate-Gaussian log densities with
covariance matrices that can be nearly singular (that is the entire point of
the paper's Section 3.3). Everything here is written so a rank-deficient
block degrades gracefully instead of raising ``LinAlgError`` mid-iteration.
"""

from __future__ import annotations

import numpy as np

from repro.reliability.health import SINGULAR_COVARIANCE_FALLBACK, record_condition

__all__ = ["robust_cholesky", "correlation_from_covariance"]

#: Jitter ladder tried, in order, when a Cholesky factorization fails.
_JITTER_LADDER = (0.0, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2)


def robust_cholesky(cov: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor of ``cov``, with jitter fallback.

    Tries an escalating ladder of diagonal jitter values (scaled by the mean
    diagonal magnitude) until factorization succeeds. Raises
    ``np.linalg.LinAlgError`` only if even the largest jitter fails, which in
    practice means the input contains NaN.
    """
    cov = np.asarray(cov, dtype=np.float64)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError(f"covariance must be square, got shape {cov.shape}")
    if not np.all(np.isfinite(cov)):
        raise np.linalg.LinAlgError("covariance matrix contains NaN or infinite entries")
    scale = float(np.mean(np.abs(np.diag(cov))))
    if scale <= 0.0 or not np.isfinite(scale):
        scale = 1.0
    eye = np.eye(cov.shape[0])
    for jitter in _JITTER_LADDER:
        try:
            factor = np.linalg.cholesky(cov + jitter * scale * eye)
        except np.linalg.LinAlgError:
            continue
        if jitter > 0.0:
            # Plain Cholesky failed: the block is singular (rank-deficient
            # features) and was rescued by diagonal jitter — a defined
            # degradation, recorded for the run's health report.
            record_condition(
                SINGULAR_COVARIANCE_FALLBACK,
                f"a covariance block required diagonal jitter {jitter:g} to "
                "factorize (rank-deficient feature group)",
                jitter=jitter,
            )
        return factor
    raise np.linalg.LinAlgError("covariance matrix could not be factorized even with jitter")


def correlation_from_covariance(cov: np.ndarray) -> np.ndarray:
    """Convert a covariance matrix to a Pearson correlation matrix.

    Zero-variance dimensions get unit diagonal and zero off-diagonal entries
    (they carry no correlation information), matching the convention used by
    the shared-correlation decomposition in :mod:`repro.core.covariance`.
    """
    cov = np.asarray(cov, dtype=np.float64)
    std = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    denom = np.outer(std, std)
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = np.where(denom > 0.0, cov / denom, 0.0)
    np.fill_diagonal(corr, 1.0)
    return np.clip(corr, -1.0, 1.0)
