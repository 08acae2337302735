"""Tests for the clusterer base class and the registry's clusterer factory."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering import (
    AffinityPropagation,
    AgglomerativeClustering,
    BaseClusterer,
    DensityPeaks,
    KMeans,
    SpectralClustering,
)
from repro.exceptions import NotFittedError, ValidationError
from repro.registry import available, build_clusterer


class _DummyClusterer(BaseClusterer):
    """Trivial clusterer assigning everything to cluster 0 (for base tests)."""

    def _fit(self, data):
        self.labels_ = np.zeros(data.shape[0], dtype=int)


class _BrokenClusterer(BaseClusterer):
    """Clusterer that forgets to set labels_ (contract violation)."""

    def _fit(self, data):
        pass


class TestBaseClusterer:
    def test_fit_sets_metadata(self, blobs_dataset):
        data, _ = blobs_dataset
        model = _DummyClusterer().fit(data)
        assert model.n_samples_ == data.shape[0]
        assert model.n_features_ == data.shape[1]
        assert model.n_clusters_found_ == 1

    def test_fit_predict_returns_labels(self, blobs_dataset):
        data, _ = blobs_dataset
        labels = _DummyClusterer().fit_predict(data)
        assert labels.shape == (data.shape[0],)

    def test_unfitted_access_raises(self):
        with pytest.raises(NotFittedError):
            _ = _DummyClusterer().n_clusters_found_

    def test_missing_labels_contract_violation(self, blobs_dataset):
        data, _ = blobs_dataset
        with pytest.raises(RuntimeError, match="labels_"):
            _BrokenClusterer().fit(data)

    def test_rejects_1d_input(self):
        with pytest.raises(ValidationError):
            _DummyClusterer().fit(np.zeros(5))

    def test_rejects_nan_input(self):
        with pytest.raises(ValidationError):
            _DummyClusterer().fit(np.array([[np.nan, 1.0]]))


class TestRegistry:
    def test_available_names(self):
        names = available("clusterer")
        assert {"dp", "kmeans", "ap"} <= set(names)

    @pytest.mark.parametrize(
        "name, expected_type",
        [
            ("kmeans", KMeans),
            ("K-Means", KMeans),
            ("ap", AffinityPropagation),
            ("affinity_propagation", AffinityPropagation),
            ("dp", DensityPeaks),
            ("density_peaks", DensityPeaks),
            ("agglomerative", AgglomerativeClustering),
            ("spectral", SpectralClustering),
        ],
    )
    def test_factory_types(self, name, expected_type):
        assert isinstance(build_clusterer(name, 3), expected_type)

    def test_unknown_name_raises(self):
        with pytest.raises(ValidationError, match="unknown clusterer"):
            build_clusterer("dbscan", 3)

    def test_n_clusters_forwarded(self):
        model = build_clusterer("kmeans", 5)
        assert model.n_clusters == 5

    def test_ap_receives_target(self):
        model = build_clusterer("ap", 4)
        assert model.target_n_clusters == 4

    def test_random_state_forwarded(self, blobs_dataset):
        data, _ = blobs_dataset
        a = build_clusterer("kmeans", 3, random_state=1).fit_predict(data)
        b = build_clusterer("kmeans", 3, random_state=1).fit_predict(data)
        np.testing.assert_array_equal(a, b)
