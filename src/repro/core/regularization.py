"""Covariance regularization (paper §3.3).

The M-step under the regularized objective (Equation 12) has the closed form
``Σ_C = S_C + K`` (Equation 13) where ``K`` is a diagonal penalty matrix:

* **Tikhonov** — ``K = κ I``: every feature inflated equally; the paper's
  Example 1 shows why a single κ cannot fit all features.
* **Adaptive** — ``K = κ · diag((μ_M − μ_U)²)``: the inflation is
  proportional to the squared mean gap, so well-separating features stay
  well separated while degenerate ones are smoothed exactly where needed.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import ZeroERConfig

__all__ = ["penalty_diagonal", "apply_regularization"]


def penalty_diagonal(
    config: ZeroERConfig, mean_match: np.ndarray, mean_unmatch: np.ndarray
) -> np.ndarray:
    """The diagonal of ``K`` for the current means (length ``d``)."""
    d = mean_match.shape[0]
    if config.regularization == "none":
        return np.zeros(d)
    if config.regularization == "tikhonov":
        return np.full(d, config.kappa)
    # adaptive: K = κ · diag((μ_M − μ_U)²)
    gap = np.asarray(mean_match, dtype=np.float64) - np.asarray(mean_unmatch, dtype=np.float64)
    return config.kappa * gap * gap


def apply_regularization(cov: np.ndarray, penalty: np.ndarray) -> np.ndarray:
    """``Σ = S + K`` (Equation 13) for a covariance over the features of ``penalty``."""
    out = np.array(cov, dtype=np.float64, copy=True)
    out[np.diag_indices_from(out)] += penalty
    return out
