"""Warm-start tests: the runner reuses persisted frameworks and supervisions."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.datasets.base import Dataset, DatasetSuite
from repro.datasets.synthetic import make_overlapping_binary_clusters
from repro.experiments.runner import ExperimentRunner
from repro.persistence import MANIFEST_NAME

ALGORITHMS = ("K-means", "K-means+slsRBM", "DP+slsRBM")
SETTINGS = dict(n_hidden=5, n_epochs=2, batch_size=16)


@pytest.fixture
def suite():
    data, labels = make_overlapping_binary_clusters(
        60, 8, 3, flip_probability=0.1, random_state=0
    )
    dataset = Dataset(
        name="Warm", abbreviation="WM", data=data, labels=labels
    )
    return DatasetSuite("warm-suite", [dataset])


def _table_values(table, metric="accuracy"):
    return {
        algorithm: table.cell("WM", algorithm).value(metric)
        for algorithm in ALGORITHMS
    }


class TestWarmStart:
    def test_artifacts_written_and_reloaded(self, suite, tmp_path):
        cold = ExperimentRunner(ALGORITHMS, artifact_dir=tmp_path, **SETTINGS)
        cold_table = cold.run_suite(suite)
        assert cold.n_artifact_hits == 0
        # one bundle per framework cell (the raw K-means cell trains nothing)
        bundles = [p for p in tmp_path.iterdir() if p.is_dir()]
        assert len(bundles) == 2

        warm = ExperimentRunner(ALGORITHMS, artifact_dir=tmp_path, **SETTINGS)
        warm_table = warm.run_suite(suite)
        assert warm.n_artifact_hits == 2
        assert _table_values(warm_table) == _table_values(cold_table)

    def test_supervision_shared_across_cells(self, suite, tmp_path):
        runner = ExperimentRunner(ALGORITHMS, **SETTINGS)
        runner.run_suite(suite)
        # K-means+slsRBM builds the supervision; DP+slsRBM reuses it.
        assert runner.n_supervision_hits == 1

    def test_results_match_without_warm_start(self, suite, tmp_path):
        plain = ExperimentRunner(ALGORITHMS, **SETTINGS)
        cached = ExperimentRunner(ALGORITHMS, artifact_dir=tmp_path, **SETTINGS)
        plain_values = _table_values(plain.run_suite(suite))
        cached_values = _table_values(cached.run_suite(suite))
        assert plain_values == cached_values

    def test_corrupted_bundle_falls_back_to_retraining(self, suite, tmp_path):
        cold = ExperimentRunner(ALGORITHMS, artifact_dir=tmp_path, **SETTINGS)
        cold_table = cold.run_suite(suite)
        for bundle in tmp_path.iterdir():
            (bundle / "manifest.json").write_text("{broken")
        warm = ExperimentRunner(ALGORITHMS, artifact_dir=tmp_path, **SETTINGS)
        warm_table = warm.run_suite(suite)
        assert warm.n_artifact_hits == 0
        assert _table_values(warm_table) == _table_values(cold_table)

    def test_stale_config_bundle_not_reused(self, suite, tmp_path):
        cold = ExperimentRunner(ALGORITHMS, artifact_dir=tmp_path, **SETTINGS)
        cold.run_suite(suite)
        # Same cell names, different hyper-parameters (the ablation hook):
        # the stale bundles must be retrained, not silently reused.
        ablated = ExperimentRunner(
            ALGORITHMS,
            artifact_dir=tmp_path,
            config_overrides={"eta": 0.2},
            **SETTINGS,
        )
        ablated.run_suite(suite)
        assert ablated.n_artifact_hits == 0
        # ...and the refreshed bundles now warm-start the ablated config.
        rerun = ExperimentRunner(
            ALGORITHMS,
            artifact_dir=tmp_path,
            config_overrides={"eta": 0.2},
            **SETTINGS,
        )
        rerun.run_suite(suite)
        assert rerun.n_artifact_hits == 2

    def test_pipeline_refits_by_default(self, suite):
        from repro.experiments.grids import build_algorithm

        pipeline = build_algorithm("K-means+slsRBM", 3, n_hidden=5, n_epochs=2)
        dataset = suite["WM"]
        pipeline.run(dataset)
        first_weights = pipeline.framework.model_.weights_.copy()
        # A second run on the same pipeline object refits (reuse is opt-in),
        # so a different dataset can never be transformed with stale weights.
        data, labels = make_overlapping_binary_clusters(
            50, 8, 3, flip_probability=0.2, random_state=9
        )
        other = Dataset(name="Other", abbreviation="OT", data=data, labels=labels)
        pipeline.run(other)
        assert pipeline.framework.model_.weights_.shape == (8, 5)
        assert not np.array_equal(first_weights, pipeline.framework.model_.weights_)

    def test_repeats_get_distinct_bundles(self, suite, tmp_path):
        runner = ExperimentRunner(
            ("K-means+slsRBM",), n_repeats=2, artifact_dir=tmp_path, **SETTINGS
        )
        runner.run_suite(suite)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["WM__K-means-slsRBM__r0", "WM__K-means-slsRBM__r1"]

    def test_v1_bundle_falls_back_to_retraining(self, suite, tmp_path):
        # Schema-v1 bundles are refused on load: the runner retrains and
        # rewrites them as current bundles, which the next run reuses.
        cold = ExperimentRunner(ALGORITHMS, artifact_dir=tmp_path, **SETTINGS)
        cold_table = cold.run_suite(suite)
        for bundle in tmp_path.iterdir():
            manifest_path = bundle / MANIFEST_NAME
            manifest = json.loads(manifest_path.read_text())
            manifest["schema_version"] = 1
            del manifest["spec"]
            manifest_path.write_text(json.dumps(manifest))
        retrained = ExperimentRunner(ALGORITHMS, artifact_dir=tmp_path, **SETTINGS)
        retrained_table = retrained.run_suite(suite)
        assert retrained.n_artifact_hits == 0
        assert _table_values(retrained_table) == _table_values(cold_table)
        warm = ExperimentRunner(ALGORITHMS, artifact_dir=tmp_path, **SETTINGS)
        warm.run_suite(suite)
        assert warm.n_artifact_hits == 2
