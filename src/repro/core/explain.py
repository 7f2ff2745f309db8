"""Per-pair explanations from the generative model.

A fitted ZeroER model decomposes naturally: because the class-conditional
densities factor over feature groups (block-diagonal covariance), the
posterior log-odds of a pair is a sum of *per-attribute-group*
log-likelihood-ratio contributions plus the prior log-odds:

    log γ/(1−γ) = log π_M/π_U + Σ_g [ log p_M(x_g) − log p_U(x_g) ]

That gives exact, additive attributions: "this pair is a match mostly
because of its title group, despite its price group." No surrogate model is
needed — the explanation *is* the model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.em import MixtureParameters

__all__ = ["GroupContribution", "PairExplanation", "explain_pairs"]


@dataclass(frozen=True)
class GroupContribution:
    """One feature group's additive contribution to a pair's match log-odds."""

    group_index: int
    feature_indices: tuple[int, ...]
    log_likelihood_ratio: float

    @property
    def favors_match(self) -> bool:
        return self.log_likelihood_ratio > 0.0


@dataclass(frozen=True)
class PairExplanation:
    """Exact additive decomposition of one pair's posterior log-odds."""

    prior_log_odds: float
    contributions: tuple[GroupContribution, ...]
    log_odds: float
    posterior: float

    def top(self, k: int = 3) -> list[GroupContribution]:
        """The ``k`` groups with the largest absolute contribution."""
        ordered = sorted(
            self.contributions, key=lambda c: -abs(c.log_likelihood_ratio)
        )
        return ordered[:k]


def explain_pairs(params: MixtureParameters, X: np.ndarray) -> list[PairExplanation]:
    """Decompose the match log-odds of each row of ``X``.

    ``X`` must already be normalized/imputed the same way the model was
    trained (use :meth:`repro.core.model.ZeroER.explain`, which handles
    that). The per-group contributions plus the prior term reconstruct the
    model's posterior exactly.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    match, unmatch = params.match, params.unmatch
    if X.shape[1] != match.n_features:
        raise ValueError(f"X has {X.shape[1]} features, model has {match.n_features}")
    prior_log_odds = float(np.log(params.prior_match) - np.log1p(-params.prior_match))

    # per-group LLRs from the distributions' cached factors: (n, n_groups)
    stacked = match.group_logpdf(X) - unmatch.group_logpdf(X)

    explanations = []
    for i in range(X.shape[0]):
        contributions = tuple(
            GroupContribution(g, tuple(match.groups[g]), float(stacked[i, g]))
            for g in range(len(match.groups))
        )
        log_odds = prior_log_odds + float(stacked[i].sum())
        posterior = float(1.0 / (1.0 + np.exp(-np.clip(log_odds, -700, 700))))
        explanations.append(
            PairExplanation(prior_log_odds, contributions, log_odds, posterior)
        )
    return explanations
