"""Weighted moment estimation and the shared-correlation decomposition.

Implements the M-step statistics of the paper:

* Equation (8)/(11): posterior-weighted means and covariances (the EM
  M-step takes one full ``d × d`` matrix per class and slices the group
  blocks of Equation 11 out of it);
* Equation (14)/(15): the decomposition ``S_C = Λ_C R Λ_C`` with a single
  Pearson correlation matrix ``R`` shared across classes and estimated from
  the entire dataset — the class-imbalance fix of §4.

The shared ``R`` does not depend on the posteriors, so it is computed once
per fit, not once per EM iteration.
"""

from __future__ import annotations

import numpy as np

from repro.utils.linalg import correlation_from_covariance

__all__ = [
    "weighted_mean",
    "weighted_covariance",
    "pooled_correlation",
    "rescale_to_correlation",
]


def weighted_mean(X: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Posterior-weighted sample mean ``x̄_C`` (Equation 8)."""
    total = float(weights.sum())
    if total <= 0.0:
        raise ValueError("weights sum to zero; cannot compute a weighted mean")
    return (weights @ X) / total


def weighted_covariance(X: np.ndarray, weights: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Posterior-weighted sample covariance ``S_C`` (Equation 8).

    Uses the ``1/N_C`` normalization of the paper (maximum-likelihood, not
    Bessel-corrected). ``weights`` are posteriors, so non-negative: scaling
    the centred rows by ``√w`` makes the scatter one ``Aᵀ A`` product, which
    BLAS evaluates as a symmetric rank-k update.
    """
    total = float(weights.sum())
    if total <= 0.0:
        raise ValueError("weights sum to zero; cannot compute a weighted covariance")
    scaled = X - mean
    scaled *= np.sqrt(weights)[:, None]
    return scaled.T @ scaled / total


def pooled_correlation(X: np.ndarray) -> np.ndarray:
    """Pearson correlation matrix of all ``d`` features, estimated from **all** rows.

    This is the shared ``R`` of Equation (15): feature correlations are only
    mildly affected by class labels, so one matrix estimated from the whole
    (unlabeled) dataset serves both classes. The grouped model reads only its
    diagonal blocks ``R[g, g]``. Zero-variance features get unit diagonal and
    zero off-diagonals.
    """
    weights = np.ones(X.shape[0])
    return correlation_from_covariance(weighted_covariance(X, weights, weighted_mean(X, weights)))


def rescale_to_correlation(block_cov: np.ndarray, correlation: np.ndarray) -> np.ndarray:
    """Rebuild a covariance block as ``Λ R Λ`` (Equation 15).

    ``Λ`` is taken from the diagonal of ``block_cov`` (the class's own
    per-feature standard deviations); the off-diagonal structure is replaced
    by the shared correlation ``R``. The diagonal of the result equals the
    diagonal of ``block_cov`` exactly.
    """
    if block_cov.shape != correlation.shape:
        raise ValueError(
            f"covariance block {block_cov.shape} and correlation {correlation.shape} disagree"
        )
    std = np.sqrt(np.clip(np.diag(block_cov), 0.0, None))
    return np.outer(std, std) * correlation
