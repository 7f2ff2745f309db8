"""Block-diagonal multivariate Gaussian.

Feature grouping (paper §3.2) makes each class-conditional distribution a
product of independent per-group Gaussians — equivalently one Gaussian with
a block-diagonal covariance (Equation 10), and so a block-diagonal whitening
matrix: scoring all groups is one ``X @ W`` product plus a row sum of squares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.linalg import robust_cholesky

__all__ = ["BlockDiagonalGaussian", "stacked_logpdf"]


@dataclass
class BlockDiagonalGaussian:
    """``N(mean, Σ)`` with ``Σ`` block-diagonal over feature groups.

    Parameters
    ----------
    mean:
        Full mean vector of length ``d``.
    groups:
        Partition of ``range(d)`` into index lists (one per block).
    blocks:
        Per-group covariance matrices, aligned with ``groups``.

    Construction factorizes every block once (treat instances as immutable)
    and caches ``whitening = blockdiag(L_g⁻ᵀ)``, so ``‖(x − mean) W‖²`` is
    the Mahalanobis distance; ``offset = mean @ whitening``; and
    ``group_log_norms``, the constants ``−½ (d_g log 2π + log|Σ_g|)``.
    Scoring never refactorizes: a singular block's jitter fallback is
    recorded once per distribution, not once per call.
    """

    mean: np.ndarray
    groups: list[list[int]]
    blocks: list[np.ndarray]

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        if len(self.groups) != len(self.blocks):
            raise ValueError(
                f"{len(self.groups)} groups but {len(self.blocks)} covariance blocks"
            )
        covered = sorted(j for g in self.groups for j in g)
        if covered != list(range(self.mean.shape[0])):
            raise ValueError("groups must partition the feature indices exactly")
        d = self.n_features
        self.whitening = np.zeros((d, d))
        self.group_log_norms = np.empty(len(self.groups))
        for g, (idx, block) in enumerate(zip(self.groups, self.blocks)):
            block = np.asarray(block, dtype=np.float64)
            if block.shape != (len(idx), len(idx)):
                raise ValueError(
                    f"block for group {idx} has shape {block.shape}, expected {(len(idx), len(idx))}"
                )
            chol = robust_cholesky(block)
            self.whitening[np.ix_(idx, idx)] = np.linalg.inv(chol).T
            log_det = 2.0 * np.sum(np.log(np.diag(chol)))
            self.group_log_norms[g] = -0.5 * (len(idx) * np.log(2.0 * np.pi) + log_det)
        self.offset = self.mean @ self.whitening

    @property
    def n_features(self) -> int:
        return self.mean.shape[0]

    def _checked(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.n_features:
            raise ValueError(f"X has {X.shape[1]} features, distribution has {self.n_features}")
        return X

    def logpdf(self, X: np.ndarray) -> np.ndarray:
        """Per-row log density: sum of per-block Gaussian log densities."""
        return stacked_logpdf((self,), self._checked(X))[0]

    def group_logpdf(self, X: np.ndarray) -> np.ndarray:
        """Per-row, per-group log densities, shape ``(n, n_groups)``.

        Rows sum to :meth:`logpdf`; the per-group terms are what
        :mod:`repro.core.explain` attributes a pair's log-odds to.
        """
        Z = self._checked(X) @ self.whitening - self.offset
        Z *= Z
        maha = np.stack([Z[:, idx].sum(axis=1) for idx in self.groups], axis=1)
        return self.group_log_norms - 0.5 * maha

    def covariance_matrix(self) -> np.ndarray:
        """The full ``d × d`` block-diagonal covariance (for inspection)."""
        d = self.n_features
        cov = np.zeros((d, d))
        for idx, block in zip(self.groups, self.blocks):
            cov[np.ix_(idx, idx)] = block
        return cov

    def variances(self) -> np.ndarray:
        """Per-feature variances (the diagonal of the full covariance)."""
        var = np.zeros(self.n_features)
        for idx, block in zip(self.groups, self.blocks):
            var[idx] = np.diag(block)
        return var


def stacked_logpdf(distributions, X: np.ndarray) -> np.ndarray:
    """Log densities of the rows of ``X`` under each distribution: ``(k, n)``.

    One GEMM against the stacked whitening matrices scores all ``k`` in a
    single pass over ``X``, a validated ``n × d`` float matrix (the E-step
    scores both mixture classes this way).
    """
    k, (n, d) = len(distributions), X.shape
    Z = np.vstack([g.whitening.T for g in distributions]) @ X.T  # (k·d, n)
    Z -= np.concatenate([g.offset for g in distributions])[:, None]
    Z *= Z
    log_norms = np.array([g.group_log_norms.sum() for g in distributions])
    return log_norms[:, None] - 0.5 * Z.reshape(k, d, n).sum(axis=1)
