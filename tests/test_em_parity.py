"""The fused EM kernel against the per-group oracle on every fixture dataset.

The production kernel factorizes each covariance block once per M-step and
scores both classes with one GEMM; :mod:`oracles.em_reference` keeps the
per-group engine it replaced. Fits on the six fixture benchmarks must agree
with it to 1e-10 (same matches), checkpoint resume must stay exact, and a
singular block must still be rescued by jitter and flagged.
"""

import numpy as np
import pytest

from repro.core import ZeroER, ZeroERConfig, ZeroERLinkage
from repro.core.gaussian import BlockDiagonalGaussian
from repro.eval.harness import prepare_dataset
from repro.reliability import SINGULAR_COVARIANCE_FALLBACK, health_scope
from repro.reliability.checkpoint import CheckpointStore, FitControls

from oracles.em_reference import reference_mixture_logpdf, use_reference_engine

DATASETS = ("rest_fz", "pub_da", "pub_ds", "mv_ri", "prod_ab", "prod_ag")


def _fit_linkage(prep, controls=None):
    model = ZeroERLinkage(ZeroERConfig())
    model.fit(
        prep.X,
        prep.pairs,
        feature_groups=prep.feature_groups,
        X_left=prep.X_left,
        left_pairs=prep.left_pairs if prep.X_left is not None else None,
        X_right=prep.X_right,
        right_pairs=prep.right_pairs if prep.X_right is not None else None,
        controls=controls,
    )
    return model


@pytest.mark.parametrize("name", DATASETS)
def test_fit_and_scores_match_the_per_group_oracle(name, monkeypatch):
    prep = prepare_dataset(name, scale="tiny", seed=11)
    fused = _fit_linkage(prep)
    fused_proba = fused.predict_proba(prep.X)
    with monkeypatch.context() as patch:
        use_reference_engine(patch)
        reference = _fit_linkage(prep)
        reference_proba = reference.predict_proba(prep.X)

    assert fused.history_.n_iterations == reference.history_.n_iterations
    np.testing.assert_allclose(fused.match_scores_, reference.match_scores_, rtol=0, atol=1e-10)
    np.testing.assert_array_equal(fused.labels_, reference.labels_)
    np.testing.assert_allclose(fused_proba, reference_proba, rtol=0, atol=1e-10)
    np.testing.assert_array_equal(fused_proba > 0.5, reference_proba > 0.5)


@pytest.mark.parametrize("name", ["pub_da", "mv_ri"])
def test_resumed_linkage_fit_reproduces_uninterrupted_fit(name, tmp_path):
    prep = prepare_dataset(name, scale="tiny", seed=11)
    store = CheckpointStore(tmp_path / "ck")
    interrupted = _fit_linkage(
        prep, FitControls(checkpoint=store, checkpoint_every=1, time_budget_s=0.0)
    )
    assert not interrupted.history_.converged
    resumed = _fit_linkage(prep, FitControls(checkpoint=store, resume=True))
    baseline = _fit_linkage(prep)
    np.testing.assert_allclose(resumed.match_scores_, baseline.match_scores_, rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        resumed.predict_proba(prep.X), baseline.predict_proba(prep.X), rtol=0, atol=1e-12
    )


class TestSingularBlock:
    @pytest.fixture
    def duplicated(self, grouped_mixture):
        # an exact copy of feature 0 makes the first group's covariance singular
        X, _y, groups = grouped_mixture
        X = np.column_stack([X, X[:, 0]])
        return X, [groups[0] + [X.shape[1] - 1], groups[1]]

    def test_fit_flags_the_jitter_fallback_and_stays_finite(self, duplicated):
        X, groups = duplicated
        with health_scope() as report:
            model = ZeroER(transitivity=False, regularization="none").fit(X, groups)
        assert report.has(SINGULAR_COVARIANCE_FALLBACK)
        assert report[SINGULAR_COVARIANCE_FALLBACK].context["jitter"] > 0
        # once per singular block per M-step: at most both classes, every iteration
        assert report[SINGULAR_COVARIANCE_FALLBACK].count <= 2 * model.history_.n_iterations
        assert np.all(np.isfinite(model.params_.match.logpdf(X)))
        assert np.all(np.isfinite(model.predict_proba(X)))

    def test_flag_counts_once_per_factorization_not_per_call(self, duplicated):
        X, groups = duplicated
        cov = np.cov(X, rowvar=False, bias=True)
        blocks = [cov[np.ix_(idx, idx)] for idx in groups]
        with health_scope() as report:
            dist = BlockDiagonalGaussian(X.mean(axis=0), groups, blocks)
            for _ in range(3):
                scores = dist.logpdf(X)
        assert report[SINGULAR_COVARIANCE_FALLBACK].count == 1
        assert np.all(np.isfinite(scores))
        # the jittered factor still scores like the oracle's own jittered factor
        np.testing.assert_allclose(scores, reference_mixture_logpdf(dist, X), rtol=1e-6)
