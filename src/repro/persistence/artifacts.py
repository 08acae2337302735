"""Reading and writing model/framework artifact bundles.

Bundle layout (one directory per artifact)::

    <path>/
        manifest.json   # schema version, kind, spec, history, checksum
        arrays.npz      # every fitted ndarray (weights, biases, velocities,
                        # supervision state)

The manifest carries a ``schema_version`` so future layout changes can be
detected (:class:`~repro.exceptions.SchemaVersionError`) and a SHA-256
checksum of ``arrays.npz`` so silent corruption is caught on load
(:class:`~repro.exceptions.ArtifactCorruptedError`).

Schema history
--------------
* **v1** — per-kind construction info (``model.config`` +
  ``framework.config``) interpreted by hand-rolled loaders.  No longer
  readable: loading one raises :class:`~repro.exceptions.SchemaVersionError`.
* **v2** — adds a top-level ``"spec"``: the :mod:`repro.registry` component
  spec of the saved estimator, so loading is ``registry.build(spec)`` +
  state restore, and the same spec format is shared with configs and
  experiment grids.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

import repro
from repro import registry
from repro.core.framework import SelfLearningEncodingFramework
from repro.exceptions import (
    ArtifactCorruptedError,
    PersistenceError,
    SchemaVersionError,
    ValidationError,
)
from repro.rbm.base import BaseRBM
from repro.supervision.local_supervision import LocalSupervision

__all__ = [
    "SCHEMA_VERSION",
    "READABLE_SCHEMA_VERSIONS",
    "MANIFEST_NAME",
    "ARRAYS_NAME",
    "save_model",
    "load_model",
    "save_framework",
    "load_framework",
    "save_supervision",
    "load_supervision",
    "read_manifest",
]

#: Bump on any backwards-incompatible change to the bundle layout.
#: v2 added the registry ``"spec"`` entry (2026-07).
SCHEMA_VERSION = 2

#: Schema versions this build can load.
READABLE_SCHEMA_VERSIONS = (2,)

MANIFEST_NAME = "manifest.json"
ARRAYS_NAME = "arrays.npz"
_FORMAT = "repro-artifact"


# ---------------------------------------------------------------- primitives
def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_bundle(path: Path, kind: str, payload: dict, arrays: dict) -> Path:
    path = Path(path)
    if path.exists() and not path.is_dir():
        raise PersistenceError(f"artifact path {path} exists and is not a directory")
    path.mkdir(parents=True, exist_ok=True)

    arrays_path = path / ARRAYS_NAME
    with open(arrays_path, "wb") as handle:
        np.savez(handle, **arrays)

    manifest = {
        "format": _FORMAT,
        "schema_version": SCHEMA_VERSION,
        "repro_version": repro.__version__,
        "kind": kind,
        "arrays": {"file": ARRAYS_NAME, "sha256": _sha256(arrays_path)},
        **payload,
    }
    manifest_path = path / MANIFEST_NAME
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def read_manifest(path) -> dict:
    """Parse and validate the manifest of a bundle at ``path``.

    Raises
    ------
    PersistenceError
        If the bundle directory or manifest file is missing.
    ArtifactCorruptedError
        If the manifest is not valid JSON or not a repro artifact.
    SchemaVersionError
        If the bundle was written with an incompatible schema version.
    """
    path = Path(path)
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.is_file():
        raise PersistenceError(f"no artifact manifest at {manifest_path}")
    try:
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ArtifactCorruptedError(
            f"manifest {manifest_path} is unreadable: {exc}"
        ) from exc
    if not isinstance(manifest, dict) or manifest.get("format") != _FORMAT:
        raise ArtifactCorruptedError(
            f"{manifest_path} is not a repro artifact manifest"
        )
    version = manifest.get("schema_version")
    if version not in READABLE_SCHEMA_VERSIONS:
        raise SchemaVersionError(
            f"artifact {path} has schema version {version!r}; this build of "
            f"repro reads versions {READABLE_SCHEMA_VERSIONS}"
        )
    return manifest


def _load_arrays(path: Path, manifest: dict) -> dict[str, np.ndarray]:
    arrays_info = manifest.get("arrays") or {}
    arrays_path = path / arrays_info.get("file", ARRAYS_NAME)
    if not arrays_path.is_file():
        raise ArtifactCorruptedError(f"artifact {path} is missing {arrays_path.name}")
    expected = arrays_info.get("sha256")
    if expected and _sha256(arrays_path) != expected:
        raise ArtifactCorruptedError(
            f"checksum mismatch for {arrays_path}; the artifact is corrupted"
        )
    try:
        with np.load(arrays_path) as handle:
            return {key: handle[key] for key in handle.files}
    except (OSError, ValueError) as exc:
        raise ArtifactCorruptedError(
            f"cannot decode arrays file {arrays_path}: {exc}"
        ) from exc


def _model_spec(model: BaseRBM) -> dict:
    """Registry spec rebuilding an equivalent (unfitted) model."""
    return {"kind": "model", "type": model.model_kind, "params": model.get_config()}


def _model_payload(model: BaseRBM) -> tuple[dict, dict]:
    """Manifest fragment and array mapping for one fitted model."""
    if not model.model_kind:
        raise PersistenceError(
            f"{type(model).__name__} has no model_kind; only the concrete "
            "RBM variants can be persisted"
        )
    state = model.get_state()
    payload = {
        "model": {
            "model_kind": model.model_kind,
            "class": type(model).__name__,
            "config": model.get_config(),
            "history": state["history"],
            "supervision": state["supervision"],
        }
    }
    return payload, state["arrays"]


def _restore_model(model: BaseRBM, manifest: dict, arrays: dict) -> BaseRBM:
    info = manifest["model"]
    model.set_state(
        {
            "arrays": arrays,
            "history": info.get("history"),
            "supervision": info.get("supervision"),
        }
    )
    return model


# -------------------------------------------------------------- bare models
def save_model(model: BaseRBM, path) -> Path:
    """Persist a fitted RBM variant as a bundle directory at ``path``."""
    if not isinstance(model, BaseRBM):
        raise ValidationError(
            f"model must be a BaseRBM variant, got {type(model).__name__}"
        )
    model._check_fitted()
    payload, arrays = _model_payload(model)
    payload["spec"] = _model_spec(model)
    return _write_bundle(Path(path), "model", payload, arrays)


def _build_from_spec(path: Path, manifest: dict, kind: str, expected: type):
    """Construct the (unfitted) estimator the manifest's registry spec
    describes, insisting on an instance of ``expected``."""
    spec = manifest.get("spec")
    if spec is None:
        raise ArtifactCorruptedError(f"artifact {path} has no registry spec")
    try:
        estimator = registry.build(spec, kind=kind)
    except (ValidationError, TypeError) as exc:
        # TypeError covers corrupt/foreign param keys rejected by the
        # component constructor itself.
        raise ArtifactCorruptedError(
            f"artifact {path} carries an unbuildable spec: {exc}"
        ) from exc
    if not isinstance(estimator, expected):
        raise ArtifactCorruptedError(
            f"artifact {path} spec built a {type(estimator).__name__}, not a {kind}"
        )
    return estimator


def load_model(path) -> BaseRBM:
    """Rebuild a fitted RBM variant from a bundle written by :func:`save_model`."""
    path = Path(path)
    manifest = read_manifest(path)
    if manifest.get("kind") != "model":
        raise PersistenceError(
            f"artifact {path} holds a {manifest.get('kind')!r}, not a model; "
            "use load_framework for framework bundles"
        )
    model = _build_from_spec(path, manifest, "model", BaseRBM)
    arrays = _load_arrays(path, manifest)
    return _restore_model(model, manifest, arrays)


# --------------------------------------------------------------- frameworks
def save_framework(framework: SelfLearningEncodingFramework, path) -> Path:
    """Persist a fitted encoding framework (config + model + supervision).

    The bundle round-trips everything :meth:`fit` produced except the cached
    ``preprocessed_`` training matrix, which is deliberately dropped: it can
    be arbitrarily large and :meth:`transform` does not need it.
    """
    if not isinstance(framework, SelfLearningEncodingFramework):
        raise ValidationError(
            "framework must be a SelfLearningEncodingFramework, got "
            f"{type(framework).__name__}"
        )
    framework._check_fitted()
    payload, arrays = _model_payload(framework.model_)
    payload["framework"] = {
        "config": framework.config.as_dict(),
        "n_clusters": framework.n_clusters,
    }
    payload["spec"] = {
        "kind": "framework",
        "type": "framework",
        "params": {
            "config": framework.config.as_dict(),
            "n_clusters": framework.n_clusters,
        },
    }
    return _write_bundle(Path(path), "framework", payload, arrays)


def load_framework(path) -> SelfLearningEncodingFramework:
    """Rebuild a fitted framework from a bundle written by :func:`save_framework`.

    The returned framework is ready for :meth:`transform` /
    :meth:`repro.serving.EncodingService.encode`; its features are
    bitwise-identical to those of the framework that was saved.
    """
    path = Path(path)
    manifest = read_manifest(path)
    if manifest.get("kind") != "framework":
        raise PersistenceError(
            f"artifact {path} holds a {manifest.get('kind')!r}, not a framework; "
            "use load_model for bare model bundles"
        )
    framework = _build_from_spec(
        path, manifest, "framework", SelfLearningEncodingFramework
    )
    model = framework.build_model()
    saved_kind = (manifest.get("model") or {}).get("model_kind")
    if saved_kind != model.model_kind:
        raise ArtifactCorruptedError(
            f"artifact {path} pairs a {saved_kind!r} model with a "
            f"{framework.config.model!r} framework configuration"
        )
    arrays = _load_arrays(path, manifest)
    _restore_model(model, manifest, arrays)
    framework.model_ = model
    framework.supervision_ = getattr(model, "supervision_", None)
    return framework


# -------------------------------------------------------------- supervision
def save_supervision(supervision: LocalSupervision, path) -> Path:
    """Persist a :class:`LocalSupervision` (labels + provenance metadata)."""
    if not isinstance(supervision, LocalSupervision):
        raise ValidationError(
            "supervision must be a LocalSupervision, got "
            f"{type(supervision).__name__}"
        )
    payload = {
        "supervision": {
            "n_samples": supervision.n_samples,
            "metadata": dict(supervision.metadata),
        }
    }
    return _write_bundle(
        Path(path), "supervision", payload, {"labels": supervision.labels}
    )


def load_supervision(path) -> LocalSupervision:
    """Rebuild a supervision from a bundle written by :func:`save_supervision`."""
    path = Path(path)
    manifest = read_manifest(path)
    if manifest.get("kind") != "supervision":
        raise PersistenceError(
            f"artifact {path} holds a {manifest.get('kind')!r}, not a supervision"
        )
    arrays = _load_arrays(path, manifest)
    info = manifest.get("supervision") or {}
    return LocalSupervision(
        labels=np.asarray(arrays["labels"], dtype=int),
        n_samples=int(info.get("n_samples", arrays["labels"].shape[0])),
        metadata=dict(info.get("metadata", {})),
    )
