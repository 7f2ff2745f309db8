"""Tests for the per-pair explanation decomposition."""

import numpy as np
import pytest

from repro.core import ZeroER
from repro.core.explain import explain_pairs


@pytest.fixture
def fitted(grouped_mixture):
    X, y, groups = grouped_mixture
    model = ZeroER(transitivity=False).fit(X, feature_groups=groups)
    return model, X, y, groups


class TestExplain:
    def test_one_explanation_per_row(self, fitted):
        model, X, _, _ = fitted
        explanations = model.explain(X[:7])
        assert len(explanations) == 7

    def test_posterior_reconstruction_matches_predict_proba(self, fitted):
        # the decomposition is exact: prior + Σ group LLRs == model log-odds
        model, X, _, _ = fitted
        explanations = model.explain(X[:25])
        proba = model.predict_proba(X[:25])
        rebuilt = np.array([e.posterior for e in explanations])
        assert np.allclose(rebuilt, proba, atol=1e-10)

    def test_prior_plus_contributions_reproduce_predict_proba(self, fitted, cholesky_calls):
        # on a frozen copy, and from the fitted distributions' cached factors
        model, X, _, _ = fitted
        frozen = ZeroER.from_fitted_state(model.get_fitted_state())
        loaded = len(cholesky_calls)
        explanations = frozen.explain(X)
        log_odds = np.array(
            [
                e.prior_log_odds + sum(c.log_likelihood_ratio for c in e.contributions)
                for e in explanations
            ]
        )
        rebuilt = 1.0 / (1.0 + np.exp(-log_odds))
        assert len(cholesky_calls) == loaded
        np.testing.assert_allclose(rebuilt, model.predict_proba(X), rtol=0, atol=1e-10)

    def test_log_odds_is_sum_of_parts(self, fitted):
        model, X, _, _ = fitted
        for e in model.explain(X[:5]):
            total = e.prior_log_odds + sum(c.log_likelihood_ratio for c in e.contributions)
            assert total == pytest.approx(e.log_odds)

    def test_one_contribution_per_group(self, fitted):
        model, X, _, groups = fitted
        e = model.explain(X[:1])[0]
        assert len(e.contributions) == len(groups)
        assert [list(c.feature_indices) for c in e.contributions] == groups

    def test_matches_get_positive_contributions(self, fitted):
        model, X, y, _ = fitted
        match_rows = X[y == 1][:5]
        for e in model.explain(match_rows):
            assert sum(c.log_likelihood_ratio for c in e.contributions) > 0
            assert any(c.favors_match for c in e.contributions)

    def test_unmatches_get_negative_log_odds(self, fitted):
        model, X, y, _ = fitted
        unmatch_rows = X[y == 0][:5]
        for e in model.explain(unmatch_rows):
            assert e.log_odds < 0

    def test_top_orders_by_magnitude(self, fitted):
        model, X, _, _ = fitted
        e = model.explain(X[:1])[0]
        top = e.top(2)
        magnitudes = [abs(c.log_likelihood_ratio) for c in top]
        assert magnitudes == sorted(magnitudes, reverse=True)

    def test_prior_log_odds_negative_for_imbalanced_data(self, fitted):
        model, X, _, _ = fitted
        e = model.explain(X[:1])[0]
        assert e.prior_log_odds < 0  # matches are the minority

    def test_explain_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            ZeroER().explain(np.ones((1, 3)))

    def test_wrong_width_raises(self, fitted):
        model, X, _, _ = fitted
        with pytest.raises(ValueError):
            model.explain(np.ones((2, X.shape[1] + 1)))

    def test_explain_pairs_direct_api(self, fitted):
        model, X, _, _ = fitted
        # feeding already-normalized data through the low-level API
        prepared = model._normalizer.transform(X[:3])
        explanations = explain_pairs(model.params_, prepared)
        assert len(explanations) == 3
