"""Wire-format tests: everything must survive JSON bit-exactly.

Each round-trip test pushes the payload through ``json.dumps``/``loads``
(not just dict copies) because the determinism guarantee of the distributed
runner rests on Python's shortest-repr float encoding.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.datasets.base import Dataset
from repro.distributed import PROTOCOL_VERSION, ProtocolError
from repro.distributed.errors import DatasetIntegrityError
from repro.distributed.messages import (
    cell_from_wire,
    cell_to_wire,
    check_protocol,
    dataset_digest,
    dataset_from_wire,
    dataset_to_wire,
    json_safe,
    outcome_from_wire,
    outcome_to_wire,
    settings_from_wire,
    settings_to_wire,
)
from repro.experiments.runner import _RepeatOutcome
from repro.metrics.report import ClusteringReport


def roundtrip(payload: dict) -> dict:
    return json.loads(json.dumps(payload))


@pytest.fixture()
def dataset():
    rng = np.random.default_rng(0)
    return Dataset(
        name="Iris",
        abbreviation="IR",
        data=rng.standard_normal((7, 3)),
        labels=rng.integers(0, 3, size=7),
        metadata={"n_classes": np.int64(3), "scale": np.float64(0.25)},
    )


class TestProtocolCheck:
    def test_matching_version_passes(self):
        check_protocol({"protocol": PROTOCOL_VERSION}, side="worker")

    @pytest.mark.parametrize("version", [None, 0, PROTOCOL_VERSION + 1, "1"])
    def test_mismatch_raises(self, version):
        with pytest.raises(ProtocolError, match="protocol"):
            check_protocol({"protocol": version}, side="coordinator")


class TestJsonSafe:
    def test_numpy_scalars_and_arrays(self):
        value = {
            "scalar": np.float64(0.1),
            "array": np.arange(3),
            "nested": [np.int32(7), (np.bool_(True),)],
        }
        safe = json_safe(value)
        assert safe == {"scalar": 0.1, "array": [0, 1, 2], "nested": [7, [True]]}
        json.dumps(safe)  # must not raise


class TestDatasetWire:
    def test_bit_exact_roundtrip(self, dataset):
        rebuilt = dataset_from_wire(roundtrip(dataset_to_wire(dataset)))
        assert rebuilt.name == dataset.name
        assert rebuilt.abbreviation == dataset.abbreviation
        # Bit-exact, not approximate: this is the determinism guarantee.
        np.testing.assert_array_equal(rebuilt.data, dataset.data)
        assert rebuilt.data.dtype == np.float64
        np.testing.assert_array_equal(rebuilt.labels, dataset.labels)
        assert rebuilt.metadata == {"n_classes": 3, "scale": 0.25}

    def test_missing_field_raises_protocol_error(self, dataset):
        payload = dataset_to_wire(dataset)
        del payload["labels"]
        with pytest.raises(ProtocolError, match="missing field"):
            dataset_from_wire(payload)


class TestDatasetIntegrity:
    def test_digest_travels_with_the_payload(self, dataset):
        payload = dataset_to_wire(dataset)
        assert payload["digest"] == dataset_digest(dataset)

    def test_digest_survives_json_roundtrip(self, dataset):
        # JSON floats round-trip bit-exactly, so the receiver recomputes the
        # identical digest from the decoded matrices.
        rebuilt = dataset_from_wire(roundtrip(dataset_to_wire(dataset)))
        assert dataset_digest(rebuilt) == dataset_digest(dataset)

    def test_tampered_data_is_rejected(self, dataset):
        payload = roundtrip(dataset_to_wire(dataset))
        payload["data"][0][0] += 1e-9
        with pytest.raises(DatasetIntegrityError, match="digest"):
            dataset_from_wire(payload)

    def test_tampered_labels_are_rejected(self, dataset):
        payload = roundtrip(dataset_to_wire(dataset))
        payload["labels"][0] = (payload["labels"][0] + 1) % 3
        with pytest.raises(DatasetIntegrityError, match="digest"):
            dataset_from_wire(payload)

    def test_absent_digest_is_tolerated(self, dataset):
        # Peers predating the digest field still interoperate.
        payload = roundtrip(dataset_to_wire(dataset))
        del payload["digest"]
        rebuilt = dataset_from_wire(payload)
        np.testing.assert_array_equal(rebuilt.data, dataset.data)

    def test_digest_depends_on_content_not_metadata(self, dataset):
        other = Dataset(
            name="Renamed", abbreviation="RN",
            data=dataset.data.copy(), labels=dataset.labels.copy(),
            metadata={"different": True},
        )
        assert dataset_digest(other) == dataset_digest(dataset)


class TestSettingsWire:
    def test_roundtrip_with_artifact_dir(self, tmp_path):
        settings = {
            "n_hidden": 6,
            "n_epochs": 2,
            "batch_size": 32,
            "random_state": 0,
            "config_overrides": {"eta": 0.5},
            "artifact_dir": tmp_path / "bundles",
        }
        rebuilt = settings_from_wire(roundtrip(settings_to_wire(settings)))
        assert rebuilt["artifact_dir"] == Path(tmp_path / "bundles")
        for key in ("n_hidden", "n_epochs", "batch_size", "random_state",
                    "config_overrides"):
            assert rebuilt[key] == settings[key]

    def test_roundtrip_without_artifact_dir(self):
        settings = {"n_hidden": 6, "artifact_dir": None}
        rebuilt = settings_from_wire(roundtrip(settings_to_wire(settings)))
        assert rebuilt["artifact_dir"] is None


class TestCellWire:
    @pytest.mark.parametrize(
        "algorithm",
        ["K-means+slsRBM", {"type": "framework", "params": {"n_clusters": 3}}],
    )
    def test_roundtrip(self, algorithm):
        wire = cell_to_wire(
            "4:1",
            dataset_ref="IR",
            algorithm=algorithm,
            label="K-means+slsRBM",
            repeat=1,
        )
        assert cell_from_wire(roundtrip(wire)) == {
            "cell_id": "4:1",
            "dataset_ref": "IR",
            "algorithm": algorithm,
            "label": "K-means+slsRBM",
            "repeat": 1,
        }

    def test_missing_field_raises(self):
        with pytest.raises(ProtocolError, match="missing field"):
            cell_from_wire({"cell_id": "0:0"})

    def test_wrong_algorithm_type_raises(self):
        wire = cell_to_wire(
            "0:0", dataset_ref="IR", algorithm="DP", label="DP", repeat=0
        )
        wire["algorithm"] = ["not", "a", "spec"]
        with pytest.raises(ProtocolError, match="name or spec"):
            cell_from_wire(wire)


class TestOutcomeWire:
    def test_bit_exact_roundtrip(self):
        # Deliberately awkward floats: each must survive JSON unchanged.
        report = ClusteringReport(
            accuracy=1 / 3,
            purity=0.1 + 0.2,
            rand=np.nextafter(0.5, 1.0),
            adjusted_rand=-0.07692307692307693,
            fmi=0.9999999999999999,
            nmi=5e-324,
            n_samples=150,
            n_clusters=3,
            extras={"seed": 7},
        )
        outcome = _RepeatOutcome(
            report=report,
            artifact_hit=True,
            supervision_hit=False,
        )
        rebuilt = outcome_from_wire(roundtrip(outcome_to_wire(outcome)))
        assert rebuilt.report == report
        assert rebuilt.artifact_hit is True
        assert rebuilt.supervision_hit is False

    def test_missing_field_raises(self):
        with pytest.raises(ProtocolError, match="missing field"):
            outcome_from_wire({"artifact_hit": True})
