"""Wire formats of the coordinator/worker protocol.

Every message is a JSON object.  Numbers round-trip bit-exactly through
Python's JSON encoder (shortest-repr floats), which is what lets a
distributed grid reproduce the sequential run to the last bit: datasets,
settings and metric reports all cross the wire without loss.

The cell descriptor deliberately references its dataset by abbreviation
instead of embedding the matrix: a grid leases the same dataset to a worker
once per (algorithm, repeat), so workers fetch each matrix a single time
from ``GET /dataset`` and cache it for the rest of the run.
"""

from __future__ import annotations

import traceback
from pathlib import Path

import numpy as np

from repro.datasets.base import Dataset, dataset_digest
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
PROTOCOL_VERSION = 1


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
def dataset_to_wire(dataset: Dataset) -> dict:
    """JSON payload of a labelled dataset (exact float round-trip).

    Carries a sha256 content digest so the receiving worker can prove the
    matrix survived the transfer before caching it for the whole grid.
    """
    return {
        "name": dataset.name,
        "abbreviation": dataset.abbreviation,
        "data": dataset.data.tolist(),
        "labels": dataset.labels.tolist(),
        "metadata": json_safe(dataset.metadata),
        "digest": dataset_digest(dataset),
    }


def dataset_from_wire(payload: dict) -> Dataset:
    """Rebuild a :class:`Dataset` from :func:`dataset_to_wire` output.

    When the payload carries a ``digest``, the rebuilt arrays are hashed
    and compared; a mismatch raises :class:`DatasetIntegrityError` (a
    *transient* failure — re-fetching is expected to succeed).  Payloads
    without a digest are accepted for compatibility with older peers.
    """
    try:
        dataset = Dataset(
            name=str(payload["name"]),
            abbreviation=str(payload["abbreviation"]),
            data=np.asarray(payload["data"], dtype=float),
            labels=np.asarray(payload["labels"], dtype=int),
            metadata=dict(payload.get("metadata", {})),
        )
    except KeyError as exc:
        raise ProtocolError(f"dataset payload is missing field {exc}") from exc
    expected = payload.get("digest")
    if expected is not None:
        actual = dataset_digest(dataset)
        if actual != str(expected):
            raise DatasetIntegrityError(
                f"dataset {dataset.abbreviation!r} failed its integrity "
                f"check: digest {actual} != advertised {expected} "
                f"(corrupted in transit; re-fetch)"
            )
    return dataset


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
