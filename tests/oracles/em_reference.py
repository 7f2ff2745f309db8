"""The per-group EM engine, kept as the oracle for the fused kernel.

This is the straightforward form of the ZeroER steps (paper §3–4, Eq.
3/8/11/13/15) that the production kernel in :mod:`repro.core.em` and
:mod:`repro.core.gaussian` replaced:

* every log-density call gathers each group's columns and factorizes its
  block with scipy, then solves against the factor;
* the M-step computes each class's weighted covariance group by group, with
  the shared correlation estimated per group.

:func:`use_reference_engine` swaps these steps into
:class:`~repro.core.em.EMRunner`, so any fit (single model or the F/Fl/Fr
linkage trainer) can be re-run on the oracle and compared.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from repro.core.em import EMRunner, MixtureParameters
from repro.core.gaussian import BlockDiagonalGaussian
from repro.core.regularization import penalty_diagonal
from repro.utils.linalg import correlation_from_covariance

_JITTER_LADDER = (0.0, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2)


def reference_cholesky(cov: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor with the same diagonal-jitter ladder, via scipy."""
    scale = float(np.mean(np.abs(np.diag(cov))))
    if scale <= 0.0 or not np.isfinite(scale):
        scale = 1.0
    eye = np.eye(cov.shape[0])
    for jitter in _JITTER_LADDER:
        try:
            return scipy.linalg.cholesky(cov + jitter * scale * eye, lower=True)
        except scipy.linalg.LinAlgError:
            continue
    raise np.linalg.LinAlgError("covariance matrix could not be factorized even with jitter")


def reference_logpdf(X: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Log density of the rows of ``X`` under ``N(mean, cov)``."""
    chol = reference_cholesky(cov)
    z = scipy.linalg.solve_triangular(chol, (X - mean).T, lower=True)
    log_det = 2.0 * np.sum(np.log(np.diag(chol)))
    return -0.5 * (mean.shape[0] * np.log(2.0 * np.pi) + log_det + np.sum(z * z, axis=0))


def reference_mixture_logpdf(dist: BlockDiagonalGaussian, X: np.ndarray) -> np.ndarray:
    """Sum of per-group log densities, one gather and factorization per group."""
    total = np.zeros(X.shape[0])
    for idx, block in zip(dist.groups, dist.blocks):
        total += reference_logpdf(X[:, idx], dist.mean[idx], np.asarray(block))
    return total


def _weighted_covariance(X, weights, mean):
    diff = X - mean
    return (weights[:, None] * diff).T @ diff / float(weights.sum())


def _pooled_correlation_blocks(X, groups):
    ones = np.ones(X.shape[0])
    blocks = []
    for idx in groups:
        sub = X[:, idx]
        mean = (ones @ sub) / ones.sum()
        blocks.append(correlation_from_covariance(_weighted_covariance(sub, ones, mean)))
    return blocks


def reference_m_step(runner: EMRunner) -> MixtureParameters:
    """Per-group M-step (Eq. 8/11/13/15) over ``runner``'s data and posteriors."""
    cfg = runner.config
    n = runner.X.shape[0]
    weights = {"M": runner.gamma, "U": 1.0 - runner.gamma}
    masses = {c: float(w.sum()) for c, w in weights.items()}
    previous = {}
    if runner.params is not None:
        previous = {"M": runner.params.match, "U": runner.params.unmatch}
    correlation = None
    if cfg.shared_correlation:
        if getattr(runner, "_reference_correlation", None) is None:
            runner._reference_correlation = _pooled_correlation_blocks(runner.X, runner.groups)
        correlation = runner._reference_correlation

    kept = {c: masses[c] < cfg.min_component_mass and c in previous for c in weights}
    means = {}
    for c, w in weights.items():
        if kept[c]:
            means[c] = previous[c].mean
        else:
            w_pos = np.maximum(w, 0.0) + 1e-300
            means[c] = (w_pos @ runner.X) / float(w_pos.sum())
    penalty = penalty_diagonal(cfg, means["M"], means["U"])

    distributions = {}
    for c, w in weights.items():
        if kept[c]:
            distributions[c] = previous[c]
            continue
        blocks = []
        for g, idx in enumerate(runner.groups):
            cov = _weighted_covariance(runner.X[:, idx], w, means[c][idx])
            if correlation is not None:
                std = np.sqrt(np.clip(np.diag(cov), 0.0, None))
                cov = np.outer(std, std) * correlation[g]
            cov = cov + np.diag(penalty[idx])
            blocks.append(cov)
        distributions[c] = BlockDiagonalGaussian(means[c], runner.groups, blocks)

    prior = float(np.clip(masses["M"] / n, cfg.prior_floor, 1.0 - cfg.prior_floor))
    runner.params = MixtureParameters(prior, distributions["M"], distributions["U"])
    return runner.params


def _reference_log_joint(params: MixtureParameters, X: np.ndarray):
    log_m = np.log(params.prior_match) + reference_mixture_logpdf(params.match, X)
    log_u = np.log1p(-params.prior_match) + reference_mixture_logpdf(params.unmatch, X)
    return log_m, log_u


def reference_e_step(runner: EMRunner) -> float:
    """Posterior update (Eq. 3) with per-group log densities."""
    log_m, log_u = _reference_log_joint(runner.params, runner.X)
    log_total = np.logaddexp(log_m, log_u)
    gamma = np.exp(log_m - log_total)
    gamma[gamma < 1e-30] = 0.0
    gamma[gamma > 1.0 - 1e-15] = 1.0
    runner.gamma = gamma
    return float(np.mean(log_total))


def reference_posterior(runner: EMRunner, X: np.ndarray) -> np.ndarray:
    """Frozen-scorer posteriors with per-group log densities."""
    log_m, log_u = _reference_log_joint(runner.params, np.asarray(X, dtype=np.float64))
    return np.exp(log_m - np.logaddexp(log_m, log_u))


def use_reference_engine(monkeypatch) -> None:
    """Route every :class:`EMRunner` through the per-group oracle steps."""
    monkeypatch.setattr(EMRunner, "m_step", reference_m_step)
    monkeypatch.setattr(EMRunner, "e_step", reference_e_step)
    monkeypatch.setattr(EMRunner, "posterior", reference_posterior)
