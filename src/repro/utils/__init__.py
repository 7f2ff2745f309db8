"""Shared utilities: input validation, RNG handling, numerical linear algebra."""

from repro.utils.linalg import correlation_from_covariance, robust_cholesky
from repro.utils.rng import ensure_rng
from repro.utils.validation import (
    check_feature_groups,
    check_feature_matrix,
    check_posterior,
    check_probability,
)

__all__ = [
    "ensure_rng",
    "check_feature_matrix",
    "check_feature_groups",
    "check_posterior",
    "check_probability",
    "robust_cholesky",
    "correlation_from_covariance",
]
