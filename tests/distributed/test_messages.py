"""Wire-format tests: everything must survive JSON bit-exactly.

Each round-trip test pushes the payload through ``json.dumps``/``loads``
(not just dict copies) because the determinism guarantee of the distributed
runner rests on it: settings and reports cross as shortest-repr JSON
floats, datasets as the arrays' own bytes in base64 text.  Dataset payloads
come from another host, so malformed ones must raise typed errors.
"""

from __future__ import annotations

import base64
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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

    @pytest.mark.parametrize(
        "version", [None, 0, 1, PROTOCOL_VERSION + 1, "1"]
    )
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


def flip_byte(payload: dict, field: str, index: int = 0) -> dict:
    """Flip one byte of a dataset array's decoded bytes and re-encode."""
    raw = bytearray(base64.b64decode(payload[field]["bytes"]))
    raw[index] ^= 0xFF
    payload[field]["bytes"] = base64.b64encode(bytes(raw)).decode("ascii")
    return payload


def resize_bytes(payload: dict, field: str, delta: int) -> dict:
    """Drop (``delta < 0``) or append bytes to a dataset array's bytes."""
    raw = base64.b64decode(payload[field]["bytes"])
    raw = raw[:delta] if delta < 0 else raw + bytes(delta)
    payload[field]["bytes"] = base64.b64encode(raw).decode("ascii")
    return payload


#: Finite float64 edge values the byte codec must carry unchanged: signed
#: zero, the smallest and largest subnormals and the extremes.
AWKWARD_FLOATS = [
    -0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308,
    1.7976931348623157e308, -1.7976931348623157e308,
]


@st.composite
def wire_datasets(draw) -> Dataset:
    n_samples = draw(st.integers(1, 6))
    n_features = draw(st.integers(1, 6))
    elements = st.one_of(
        st.sampled_from(AWKWARD_FLOATS),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    data = draw(hnp.arrays(np.float64, (n_samples, n_features), elements=elements))
    labels = draw(
        hnp.arrays(np.int64, n_samples, elements=st.integers(-(2**63), 2**63 - 1))
    )
    return Dataset(name="Drawn", abbreviation="DR", data=data, labels=labels)


def edge_dataset(data, labels) -> Dataset:
    return Dataset(
        name="Edge", abbreviation="ED",
        data=np.array(data, dtype=np.float64),
        labels=np.array(labels, dtype=np.int64),
    )


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

    @given(wire_datasets())
    @example(edge_dataset([[-0.0]], [-1]))
    @example(edge_dataset([[5e-324], [-5e-324], [-0.0]], [0, -(2**63), 2**63 - 1]))
    @example(
        edge_dataset(
            [[1.7976931348623157e308, -1.7976931348623157e308, -0.0]], [-7]
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_arrays_round_trip_bit_exact(self, sent):
        payload = roundtrip(dataset_to_wire(sent))
        rebuilt = dataset_from_wire(payload)
        # Byte equality, which also keeps the sign of -0.0.
        assert rebuilt.data.tobytes() == sent.data.tobytes()
        assert rebuilt.labels.tobytes() == sent.labels.tobytes()
        for rebuilt_array, dtype in (
            (rebuilt.data, np.float64), (rebuilt.labels, np.int64)
        ):
            assert rebuilt_array.dtype == dtype
            assert rebuilt_array.flags.writeable
            assert rebuilt_array.flags.c_contiguous
        assert rebuilt.data.shape == sent.data.shape
        assert dataset_digest(rebuilt) == payload["digest"]

    def test_arrays_travel_as_little_endian_bytes(self, dataset):
        payload = dataset_to_wire(dataset)
        assert payload["data"]["dtype"] == "<f8"
        assert payload["data"]["shape"] == [7, 3]
        assert base64.b64decode(payload["data"]["bytes"]) == (
            dataset.data.astype("<f8").tobytes()
        )
        assert payload["labels"]["dtype"] == "<i8"
        assert payload["labels"]["shape"] == [7]

    def test_missing_field_raises_protocol_error(self, dataset):
        payload = dataset_to_wire(dataset)
        del payload["labels"]
        with pytest.raises(ProtocolError, match="missing field"):
            dataset_from_wire(payload)


class TestMalformedDataset:
    """What a broken or hostile peer can send instead of a dataset."""

    @pytest.mark.parametrize(
        "field, key", [("data", "bytes"), ("data", "shape"), ("labels", "dtype")]
    )
    def test_missing_array_field_is_a_protocol_error(self, dataset, field, key):
        payload = roundtrip(dataset_to_wire(dataset))
        del payload[field][key]
        with pytest.raises(ProtocolError, match=f"missing field '{field}.{key}'"):
            dataset_from_wire(payload)

    @pytest.mark.parametrize(
        "field, tag",
        [("data", "<f4"), ("data", ">f8"), ("data", "<i8"), ("labels", "<f8")],
    )
    def test_wrong_dtype_tag_is_a_protocol_error(self, dataset, field, tag):
        payload = roundtrip(dataset_to_wire(dataset))
        payload[field]["dtype"] = tag
        with pytest.raises(ProtocolError, match="dtype"):
            dataset_from_wire(payload)

    @pytest.mark.parametrize(
        "field, shape",
        [("data", [21]), ("data", [7, 3, 1]), ("labels", [7, 1]), ("labels", [])],
    )
    def test_wrong_rank_is_a_protocol_error(self, dataset, field, shape):
        payload = roundtrip(dataset_to_wire(dataset))
        payload[field]["shape"] = shape
        with pytest.raises(ProtocolError, match="shape"):
            dataset_from_wire(payload)

    def test_number_lists_of_protocol_1_are_a_protocol_error(self, dataset):
        payload = roundtrip(dataset_to_wire(dataset))
        payload["data"] = dataset.data.tolist()
        with pytest.raises(ProtocolError, match="'data' must be an object"):
            dataset_from_wire(payload)

    @pytest.mark.parametrize("field", ["data", "labels"])
    @pytest.mark.parametrize("delta", [-8, -1, 1, 8])
    def test_truncated_or_padded_bytes_fail_integrity(self, dataset, field, delta):
        payload = resize_bytes(roundtrip(dataset_to_wire(dataset)), field, delta)
        with pytest.raises(DatasetIntegrityError, match="bytes"):
            dataset_from_wire(payload)

    def test_size_is_checked_in_python_ints(self, dataset):
        # The product overflows int64 (2**64 wraps to 0): it must still be
        # compared exactly, not wrap into a plausible byte count.
        payload = roundtrip(dataset_to_wire(dataset))
        payload["data"]["shape"] = [2**32, 2**32]
        payload["data"]["bytes"] = ""
        with pytest.raises(DatasetIntegrityError, match="bytes"):
            dataset_from_wire(payload)

    @pytest.mark.parametrize(
        "text", ["not base64!", "-_-_", "AAAA=AAA", "AAA", "ÄÄÄÄ"]
    )
    def test_undecodable_base64_fails_integrity(self, dataset, text):
        payload = roundtrip(dataset_to_wire(dataset))
        payload["data"]["bytes"] = text
        with pytest.raises(DatasetIntegrityError, match="base64"):
            dataset_from_wire(payload)


class TestDatasetIntegrity:
    def test_digest_travels_with_the_payload(self, dataset):
        payload = dataset_to_wire(dataset)
        assert payload["digest"] == dataset_digest(dataset)

    def test_digest_survives_json_roundtrip(self, dataset):
        # The arrays cross as their own bytes, so the receiver recomputes
        # the identical digest from the decoded matrices.
        rebuilt = dataset_from_wire(roundtrip(dataset_to_wire(dataset)))
        assert dataset_digest(rebuilt) == dataset_digest(dataset)

    def test_tampered_data_is_rejected(self, dataset):
        payload = flip_byte(roundtrip(dataset_to_wire(dataset)), "data")
        with pytest.raises(DatasetIntegrityError, match="digest"):
            dataset_from_wire(payload)

    def test_tampered_labels_are_rejected(self, dataset):
        payload = flip_byte(roundtrip(dataset_to_wire(dataset)), "labels")
        with pytest.raises(DatasetIntegrityError, match="digest"):
            dataset_from_wire(payload)

    def test_tamper_to_a_non_finite_value_fails_the_digest(self, dataset):
        # The digest is checked before the Dataset validates its values, so
        # corruption stays a (transient) integrity error.
        payload = roundtrip(dataset_to_wire(dataset))
        raw = bytearray(base64.b64decode(payload["data"]["bytes"]))
        raw[:8] = np.array([np.nan]).tobytes()
        payload["data"]["bytes"] = base64.b64encode(bytes(raw)).decode("ascii")
        with pytest.raises(DatasetIntegrityError, match="digest"):
            dataset_from_wire(payload)

    def test_absent_digest_is_rejected(self, dataset):
        # Every peer that can register sends a digest; an unverified matrix
        # is never cached.
        payload = roundtrip(dataset_to_wire(dataset))
        del payload["digest"]
        with pytest.raises(ProtocolError, match="missing field 'digest'"):
            dataset_from_wire(payload)

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
