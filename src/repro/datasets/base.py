"""Dataset containers used throughout the experiments."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.exceptions import DatasetError
from repro.utils.validation import check_array, check_labels

__all__ = ["Dataset", "DatasetSuite", "content_digest", "dataset_digest"]


@dataclass(frozen=True)
class Dataset:
    """A labelled dataset: feature matrix, ground-truth classes and metadata.

    Attributes
    ----------
    name : str
        Full dataset name (e.g. ``"Breast Cancer Wisconsin"``).
    abbreviation : str
        Short code used in the paper's tables (e.g. ``"BCW"``).
    data : ndarray of shape (n_samples, n_features)
    labels : ndarray of shape (n_samples,)
        Ground-truth class per sample (used only for evaluation).
    metadata : dict
        Free-form provenance information (generator parameters, suite name).
    """

    name: str
    abbreviation: str
    data: np.ndarray
    labels: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        data = check_array(self.data, name=f"{self.name}.data")
        labels = check_labels(
            self.labels, name=f"{self.name}.labels", n_samples=data.shape[0]
        )
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "labels", labels)

    @property
    def n_samples(self) -> int:
        return int(self.data.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.data.shape[1])

    @property
    def n_classes(self) -> int:
        return int(np.unique(self.labels).shape[0])

    def summary(self) -> dict[str, int | str]:
        """One-row summary matching the paper's Tables II / III columns."""
        return {
            "name": self.name,
            "abbreviation": self.abbreviation,
            "classes": self.n_classes,
            "instances": self.n_samples,
            "features": self.n_features,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Dataset({self.abbreviation}: {self.n_samples} x {self.n_features}, "
            f"{self.n_classes} classes)"
        )


def dataset_digest(dataset: Dataset) -> str:
    """Content digest of a dataset's numerical payload (sha256 hex).

    Names play no part: two datasets with one abbreviation but different
    contents differ here.  See :func:`content_digest`.
    """
    return content_digest(dataset.data, dataset.labels)


def content_digest(data, labels) -> str:
    """sha256 hex of a ``(data, labels)`` pair, as :func:`dataset_digest`.

    Canonicalises dtypes the same way
    :func:`repro.distributed.messages.dataset_from_wire` does (float data,
    int labels), so the digest a coordinator stamps on a payload matches
    the digest a worker computes over the rebuilt arrays, which hold the
    sender's bytes.  The worker checks it before it builds a
    :class:`Dataset` from them.
    """
    data = np.ascontiguousarray(np.asarray(data, dtype=float))
    labels = np.ascontiguousarray(np.asarray(labels, dtype=int))
    hasher = hashlib.sha256()
    for array in (data, labels):
        hasher.update(str(array.dtype).encode("utf-8"))
        hasher.update(str(array.shape).encode("utf-8"))
        hasher.update(array.tobytes())
    return hasher.hexdigest()


class DatasetSuite:
    """Ordered collection of datasets (the paper's "datasets I" / "datasets II")."""

    def __init__(self, name: str, datasets: list[Dataset]) -> None:
        if not datasets:
            raise DatasetError("a DatasetSuite needs at least one dataset")
        self.name = name
        self._datasets = list(datasets)
        self._by_abbreviation = {d.abbreviation: d for d in datasets}
        if len(self._by_abbreviation) != len(datasets):
            raise DatasetError("dataset abbreviations within a suite must be unique")

    def __len__(self) -> int:
        return len(self._datasets)

    def __iter__(self) -> Iterator[Dataset]:
        return iter(self._datasets)

    def __getitem__(self, key: int | str) -> Dataset:
        if isinstance(key, str):
            try:
                return self._by_abbreviation[key]
            except KeyError:
                raise DatasetError(
                    f"unknown dataset {key!r} in suite {self.name!r}; "
                    f"available: {sorted(self._by_abbreviation)}"
                ) from None
        return self._datasets[key]

    @property
    def abbreviations(self) -> list[str]:
        return [d.abbreviation for d in self._datasets]

    def summary_table(self) -> list[dict[str, int | str]]:
        """Rows reproducing the paper's dataset summary tables (II / III)."""
        return [
            {"No.": index + 1, **dataset.summary()}
            for index, dataset in enumerate(self._datasets)
        ]
