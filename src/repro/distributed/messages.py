"""Wire formats of the coordinator/worker protocol.

Every message is a JSON object, and every value crosses the wire without
loss, which is what lets a distributed grid reproduce the sequential run to
the last bit.  Settings and metric reports travel as JSON numbers, which
round-trip bit-exactly through Python's shortest-repr float encoding.  A
dataset's matrix and labels travel as their own little-endian bytes
(base64 text inside the JSON object, with dtype and shape), so the worker
rebuilds the sender's arrays byte for byte without formatting or parsing a
decimal per element.

The cell descriptor deliberately references its dataset by abbreviation
instead of embedding the matrix: a grid leases the same dataset to a worker
once per (algorithm, repeat), so workers fetch each matrix a single time
from ``GET /dataset`` and cache it for the rest of the run.
"""

from __future__ import annotations

import base64
import math
import traceback
from pathlib import Path

import numpy as np

from repro.datasets.base import Dataset, content_digest, dataset_digest
from repro.distributed.errors import DatasetIntegrityError, ProtocolError
from repro.experiments.runner import _RepeatOutcome
from repro.metrics.report import ClusteringReport

__all__ = [
    "PROTOCOL_VERSION",
    "check_protocol",
    "json_safe",
    "dataset_digest",
    "dataset_to_wire",
    "dataset_from_wire",
    "error_to_wire",
    "settings_to_wire",
    "settings_from_wire",
    "cell_to_wire",
    "cell_from_wire",
    "outcome_to_wire",
    "outcome_from_wire",
]

#: Bumped on any incompatible message change; coordinator and worker refuse
#: to pair across versions (a silent mismatch could corrupt a grid).
#: Version 2 carries datasets as raw bytes instead of JSON number lists.
PROTOCOL_VERSION = 2


def check_protocol(payload: dict, *, side: str) -> None:
    """Raise :class:`ProtocolError` unless the peer speaks our version."""
    version = payload.get("protocol")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"{side} speaks protocol {version!r}, this build speaks "
            f"{PROTOCOL_VERSION}; upgrade the older side"
        )


def json_safe(value):
    """Recursively convert numpy scalars/arrays into plain Python values."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {str(key): json_safe(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(entry) for entry in value]
    return value


# ------------------------------------------------------------------ datasets
#: Wire dtype and rank of each array of a dataset payload.
_DATASET_ARRAYS = {"data": ("<f8", 2), "labels": ("<i8", 1)}


def dataset_to_wire(dataset: Dataset) -> dict:
    """JSON payload of a labelled dataset (the arrays' exact bytes).

    ``data`` and ``labels`` each become ``{dtype, shape, bytes}``: the
    array as little-endian float64 / int64 bytes, base64-encoded.  A sha256
    content digest rides along so the receiving worker can prove the
    matrix survived the transfer before caching it for the whole grid.
    """
    return {
        "name": dataset.name,
        "abbreviation": dataset.abbreviation,
        "data": _array_to_wire(dataset.data, "data"),
        "labels": _array_to_wire(dataset.labels, "labels"),
        "metadata": json_safe(dataset.metadata),
        "digest": dataset_digest(dataset),
    }


def _array_to_wire(array: np.ndarray, field: str) -> dict:
    dtype, _ = _DATASET_ARRAYS[field]
    array = np.ascontiguousarray(array, dtype=dtype)
    return {
        "dtype": dtype,
        "shape": list(array.shape),
        "bytes": base64.b64encode(array).decode("ascii"),
    }


def _array_from_wire(payload: dict, field: str) -> np.ndarray:
    """One array of a dataset payload, rebuilt writable from its bytes."""
    dtype, ndim = _DATASET_ARRAYS[field]
    wire = payload[field]
    if not isinstance(wire, dict):
        raise ProtocolError(
            f"dataset field {field!r} must be an object with dtype, shape "
            f"and bytes, got {type(wire).__name__}"
        )
    try:
        tag, shape, text = wire["dtype"], wire["shape"], wire["bytes"]
    except KeyError as exc:
        raise ProtocolError(
            f"dataset payload is missing field '{field}.{exc.args[0]}'"
        ) from exc
    if tag != dtype:
        raise ProtocolError(
            f"dataset field {field!r} has dtype {tag!r}, expected {dtype!r}"
        )
    if (
        not isinstance(shape, list)
        or len(shape) != ndim
        or not all(type(n) is int and n >= 0 for n in shape)
    ):
        raise ProtocolError(
            f"dataset field {field!r} needs a shape of {ndim} non-negative "
            f"ints, got {shape!r}"
        )
    if not isinstance(text, str):
        raise ProtocolError(
            f"dataset field {field!r} must carry its bytes as base64 text, "
            f"got {type(text).__name__}"
        )
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or non-ASCII text
        raise DatasetIntegrityError(
            f"dataset field {field!r} is not valid base64 ({exc}); re-fetch"
        ) from exc
    # Python ints: a hostile shape cannot overflow the expected size.
    expected = math.prod(shape) * np.dtype(dtype).itemsize
    if len(raw) != expected:
        raise DatasetIntegrityError(
            f"dataset field {field!r} carries {len(raw)} bytes, shape "
            f"{shape} needs {expected} (truncated or padded; re-fetch)"
        )
    # frombuffer over bytes would be read-only, and Dataset keeps the array
    # it is given; a bytearray makes it writable.
    return np.frombuffer(bytearray(raw), dtype=dtype).reshape(shape)


def dataset_from_wire(payload: dict) -> Dataset:
    """Rebuild a :class:`Dataset` from :func:`dataset_to_wire` output.

    The rebuilt arrays are hashed and compared with the payload's
    ``digest`` before the dataset is built.  A mismatch, base64 that does
    not decode, or a byte count that does not fit the shape raises
    :class:`DatasetIntegrityError` (a *transient* failure — re-fetching is
    expected to succeed).  A missing field, including the digest, an
    unexpected dtype tag or a shape of the wrong rank raises
    :class:`ProtocolError`.
    """
    try:
        name = str(payload["name"])
        abbreviation = str(payload["abbreviation"])
        expected = str(payload["digest"])
        data = _array_from_wire(payload, "data")
        labels = _array_from_wire(payload, "labels")
    except KeyError as exc:
        raise ProtocolError(f"dataset payload is missing field {exc}") from exc
    actual = content_digest(data, labels)
    if actual != expected:
        raise DatasetIntegrityError(
            f"dataset {abbreviation!r} failed its integrity check: digest "
            f"{actual} != advertised {expected} (corrupted in transit; "
            f"re-fetch)"
        )
    return Dataset(
        name=name,
        abbreviation=abbreviation,
        data=data,
        labels=labels,
        metadata=dict(payload.get("metadata", {})),
    )


# -------------------------------------------------------------------- errors
def error_to_wire(cell_id: str, worker_id: str, exc: BaseException) -> dict:
    """Failure report of one cell, carrying what the retry policy needs.

    ``kind`` (the exception class name) is what
    :func:`repro.resilience.classify_failure` keys on; the traceback rides
    along so a fail-fast abort can show the remote stack.
    """
    return {
        "cell_id": str(cell_id),
        "worker_id": str(worker_id),
        "kind": type(exc).__name__,
        "error": f"{type(exc).__name__}: {exc}",
        "traceback": traceback.format_exc(),
    }


# ------------------------------------------------------------------ settings
def settings_to_wire(settings: dict) -> dict:
    """Runner settings as JSON (``artifact_dir`` Path → string)."""
    wire = dict(settings)
    artifact_dir = wire.get("artifact_dir")
    wire["artifact_dir"] = (
        str(artifact_dir) if artifact_dir is not None else None
    )
    return json_safe(wire)


def settings_from_wire(payload: dict) -> dict:
    """Inverse of :func:`settings_to_wire`.

    ``artifact_dir`` is resolved on the *worker's* filesystem: loopback
    workers share the coordinator's warm-start directory, remote hosts use
    a local path of the same name (each cell writes a unique bundle, so
    concurrent workers never collide).
    """
    settings = dict(payload)
    artifact_dir = settings.get("artifact_dir")
    settings["artifact_dir"] = (
        Path(artifact_dir) if artifact_dir is not None else None
    )
    return settings


# --------------------------------------------------------------------- cells
def cell_to_wire(
    cell_id: str, *, dataset_ref: str, algorithm, label: str, repeat: int
) -> dict:
    """Descriptor of one (dataset, algorithm, repeat) work item.

    ``algorithm`` is either a table name (str) or a registry spec (dict) —
    the two grid-cell formats :class:`ExperimentRunner` accepts; both are
    already JSON.
    """
    return {
        "cell_id": cell_id,
        "dataset_ref": dataset_ref,
        "algorithm": algorithm,
        "label": label,
        "repeat": int(repeat),
    }


def cell_from_wire(payload: dict) -> dict:
    """Validated cell descriptor (same keys as :func:`cell_to_wire`)."""
    try:
        algorithm = payload["algorithm"]
        if not isinstance(algorithm, (str, dict)):
            raise ProtocolError(
                f"cell algorithm must be a name or spec, got "
                f"{type(algorithm).__name__}"
            )
        return {
            "cell_id": str(payload["cell_id"]),
            "dataset_ref": str(payload["dataset_ref"]),
            "algorithm": algorithm,
            "label": str(payload["label"]),
            "repeat": int(payload["repeat"]),
        }
    except KeyError as exc:
        raise ProtocolError(f"cell payload is missing field {exc}") from exc


# ------------------------------------------------------------------ outcomes
def outcome_to_wire(outcome: _RepeatOutcome) -> dict:
    """One repeat's result as JSON.

    The in-memory supervision and trained encoder stay on the worker (they
    are not JSON and the coordinator could not hand them to another host
    anyway); workers keep their own per-process caches, and only the hit
    statistics travel.
    """
    return {
        "report": outcome.report.to_payload(),
        "artifact_hit": bool(outcome.artifact_hit),
        "supervision_hit": bool(outcome.supervision_hit),
        "encoder_hit": bool(outcome.encoder_hit),
    }


def outcome_from_wire(payload: dict) -> _RepeatOutcome:
    """Rebuild a :class:`_RepeatOutcome` from :func:`outcome_to_wire`.

    ``encoder_hit`` is optional: outcomes written before the encoder cache
    existed (older workers, replayed journals) decode with ``False``.
    """
    try:
        return _RepeatOutcome(
            report=ClusteringReport.from_payload(payload["report"]),
            artifact_hit=bool(payload["artifact_hit"]),
            supervision_hit=bool(payload["supervision_hit"]),
            encoder_hit=bool(payload.get("encoder_hit", False)),
        )
    except KeyError as exc:
        raise ProtocolError(f"outcome payload is missing field {exc}") from exc
