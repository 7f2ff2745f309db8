"""Artifact round-trip tests: save/load must preserve scoring bit-for-bit."""

import json

import numpy as np
import pytest

from repro import ZeroER, ZeroERConfig, load_benchmark
from repro.blocking import TokenOverlapBlocker
from repro.features import FeatureGenerator
from repro.features.types import AttributeType
from repro.incremental import ArtifactError, load_artifacts, save_artifacts
from repro.incremental.artifacts import artifact_dir
from repro.reliability import write_checksum_manifest
from repro import ERPipeline


@pytest.fixture(scope="module")
def dataset():
    return load_benchmark("rest_fz", scale="tiny", seed=7)


@pytest.fixture(scope="module")
def linkage_fit(dataset):
    pipeline = ERPipeline(blocking_attribute="name")
    result = pipeline.run(dataset.left, dataset.right)
    return pipeline, result


class TestArtifactRoundTrip:
    def test_linkage_predict_proba_bit_identical(self, dataset, linkage_fit, tmp_path):
        """The transitivity (linkage) model round-trips exactly."""
        pipeline, result = linkage_fit
        save_artifacts(tmp_path / "art", pipeline.generator_, pipeline.model_)
        generator, model, manifest = load_artifacts(tmp_path / "art")

        assert manifest["model"]["kind"] == "linkage"
        X_orig = pipeline.generator_.transform(dataset.left, dataset.right, result.pairs)
        X_new = generator.transform(dataset.left, dataset.right, result.pairs)
        np.testing.assert_array_equal(X_orig, X_new)
        np.testing.assert_array_equal(
            pipeline.model_.predict_proba(X_orig), model.predict_proba(X_new)
        )

    def test_loaded_model_scores_without_refactorizing(
        self, dataset, linkage_fit, tmp_path, cholesky_calls
    ):
        """Loading factorizes the covariance blocks once; scoring reuses them."""
        pipeline, result = linkage_fit
        save_artifacts(tmp_path / "art", pipeline.generator_, pipeline.model_)
        generator, model, _ = load_artifacts(tmp_path / "art")
        X = generator.transform(dataset.left, dataset.right, result.pairs)
        loaded = len(cholesky_calls)
        for _ in range(3):
            model.predict_proba(X)
            model.predict_proba(X[:1])
        assert loaded > 0 and len(cholesky_calls) == loaded

    def test_zeroer_with_type_overrides_bit_identical(self, dataset, tmp_path):
        """Dedup model + pinned attribute types survive the round trip."""
        merged, _ = dataset.as_dedup()
        pairs = TokenOverlapBlocker("name", top_k=40).block(merged)
        overrides = {"phone": AttributeType.SHORT_STRING}
        generator = FeatureGenerator(type_overrides=overrides).fit(merged)
        X = generator.transform(merged, None, pairs)
        model = ZeroER(ZeroERConfig(transitivity=True))
        model.fit(X, generator.feature_groups_, pairs)

        save_artifacts(tmp_path / "art", generator, model)
        generator2, model2, manifest = load_artifacts(tmp_path / "art")

        assert manifest["model"]["kind"] == "zeroer"
        assert generator2.type_overrides == overrides
        assert generator2.attribute_types_ == generator.attribute_types_
        assert generator2.feature_names_ == generator.feature_names_
        assert generator2.feature_groups_ == generator.feature_groups_
        X2 = generator2.transform(merged, None, pairs)
        np.testing.assert_array_equal(X, X2)
        np.testing.assert_array_equal(model.predict_proba(X), model2.predict_proba(X2))

    def test_loaded_config_matches(self, linkage_fit, tmp_path):
        pipeline, _ = linkage_fit
        save_artifacts(tmp_path / "art", pipeline.generator_, pipeline.model_)
        _, model, _ = load_artifacts(tmp_path / "art")
        assert model.config == pipeline.model_.config

    def test_unfitted_model_refuses_to_save(self):
        with pytest.raises(RuntimeError):
            ZeroER().get_fitted_state()

    def test_unfitted_generator_refuses_to_save(self):
        with pytest.raises(RuntimeError):
            FeatureGenerator().get_state()


class TestArtifactValidation:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(ArtifactError, match="not an artifact directory"):
            load_artifacts(tmp_path / "nope")

    def test_schema_version_mismatch(self, linkage_fit, tmp_path):
        pipeline, _ = linkage_fit
        path = save_artifacts(tmp_path / "art", pipeline.generator_, pipeline.model_)
        version_dir = artifact_dir(path)
        manifest = json.loads((version_dir / "manifest.json").read_text())
        manifest["schema_version"] = 999
        (version_dir / "manifest.json").write_text(json.dumps(manifest))
        # re-sign so the (valid) bytes pass integrity and hit the schema check
        write_checksum_manifest(version_dir)
        with pytest.raises(ArtifactError, match="schema version"):
            load_artifacts(path)
        # a schema mismatch is not corruption: the directory stays put
        assert version_dir.is_dir()

    def test_missing_arrays_file(self, linkage_fit, tmp_path):
        pipeline, _ = linkage_fit
        path = save_artifacts(tmp_path / "art", pipeline.generator_, pipeline.model_)
        version_dir = artifact_dir(path)
        (version_dir / "arrays.npz").unlink()
        write_checksum_manifest(version_dir)
        with pytest.raises(ArtifactError, match="arrays.npz"):
            load_artifacts(path)

    def test_unknown_model_kind(self, linkage_fit, tmp_path):
        pipeline, _ = linkage_fit
        path = save_artifacts(tmp_path / "art", pipeline.generator_, pipeline.model_)
        version_dir = artifact_dir(path)
        manifest = json.loads((version_dir / "manifest.json").read_text())
        manifest["model"]["kind"] = "mystery"
        (version_dir / "manifest.json").write_text(json.dumps(manifest))
        write_checksum_manifest(version_dir)
        with pytest.raises(ArtifactError, match="unknown model kind"):
            load_artifacts(path)
