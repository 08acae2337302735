"""Encoder cache: a grid trains each distinct encoder once.

The DP, K-means and AP columns of one feature family cluster the same
features, so a nine-column table needs two trained encoders per dataset and
repeat, not six.  The cache must never change a result: every table here
equals a reference in which each cell runs in a runner of its own.
"""

from __future__ import annotations

import pytest

from repro.datasets.base import DatasetSuite
from repro.datasets.msra_mm import load_msra_mm_dataset
from repro.experiments.grids import DATASETS_I_ALGORITHMS, algorithm_spec
from repro.experiments.runner import ExperimentRunner, ExperimentTable
from repro.rbm.trainer import RBMTrainer

SETTINGS = dict(n_hidden=6, n_epochs=2, batch_size=32, random_state=3)


@pytest.fixture(scope="module")
def suite():
    return DatasetSuite(
        "mini",
        [
            load_msra_mm_dataset(abbreviation, scale=0.1, random_state=0)
            for abbreviation in ("BO", "WA")
        ],
    )


@pytest.fixture
def fits(monkeypatch):
    """Model class of every RBM training, in call order."""
    calls = []
    original = RBMTrainer.fit

    def fit(self, data, supervision=None):
        calls.append(type(self.model).__name__)
        return original(self, data, supervision=supervision)

    monkeypatch.setattr(RBMTrainer, "fit", fit)
    return calls


def fresh_reference(suite, algorithms, **kwargs):
    """The table with every cell run in a runner of its own."""
    table = ExperimentTable(suite.name, suite.abbreviations, list(algorithms))
    for dataset in suite:
        for algorithm in algorithms:
            runner = ExperimentRunner((algorithm,), **kwargs)
            table.add(runner.run_cell(dataset, algorithm))
    return table


class TestSharedEncoders:
    def test_nine_columns_train_four_encoders(self, suite, fits):
        runner = ExperimentRunner(DATASETS_I_ALGORITHMS, **SETTINGS)
        runner.run_suite(suite)
        # One GRBM and one slsGRBM per dataset, not one per column.
        assert sorted(fits) == ["GaussianRBM"] * 2 + ["SlsGRBM"] * 2
        assert runner.n_encoder_hits == 8
        # The K-means and AP sls columns build no supervision of their own.
        assert runner.n_supervision_hits == 4

    def test_repeats_train_once_per_encoder_and_repeat(self, suite, fits):
        runner = ExperimentRunner(DATASETS_I_ALGORITHMS, n_repeats=2, **SETTINGS)
        runner.run_suite(suite)
        assert len(fits) == 8
        assert runner.n_encoder_hits == 16

    def test_table_equals_fresh_runner_per_cell(self, suite):
        kwargs = dict(n_repeats=2, **SETTINGS)
        table = ExperimentRunner(DATASETS_I_ALGORITHMS, **kwargs).run_suite(suite)
        reference = fresh_reference(suite, DATASETS_I_ALGORITHMS, **kwargs)
        assert table.to_dict() == reference.to_dict()

    def test_interleaved_columns_still_share(self, suite, fits):
        # The sequential loop runs a group's cells back to back, so the
        # one-slot cache serves "K-means+GRBM" although "DP+slsGRBM" (its
        # own encoder) sits between the two GRBM columns.
        algorithms = ("DP+GRBM", "DP+slsGRBM", "K-means", "K-means+GRBM")
        runner = ExperimentRunner(algorithms, **SETTINGS)
        table = runner.run_suite(suite)
        assert len(fits) == 4
        assert runner.n_encoder_hits == 2
        assert table.algorithm_order == list(algorithms)
        assert table.to_dict() == fresh_reference(
            suite, algorithms, **SETTINGS
        ).to_dict()

    def test_name_and_equal_spec_cells_share_one_encoder(self, suite, fits):
        spec = algorithm_spec(
            "DP+slsGRBM",
            2,  # the runner sets the dataset's class count and the seed
            n_hidden=SETTINGS["n_hidden"],
            n_epochs=SETTINGS["n_epochs"],
            batch_size=SETTINGS["batch_size"],
        )
        runner = ExperimentRunner(("K-means+slsGRBM", spec), **SETTINGS)
        table = runner.run_suite(suite)
        assert fits == ["SlsGRBM", "SlsGRBM"]  # one per dataset
        assert runner.n_encoder_hits == 2
        reference = fresh_reference(
            suite, ("K-means+slsGRBM", "DP+slsGRBM"), **SETTINGS
        )
        assert table.to_dict() == reference.to_dict()

    def test_one_slot_holds_the_last_trained_encoder(self, suite):
        runner = ExperimentRunner(("K-means+GRBM", "K-means+slsGRBM"), **SETTINGS)
        runner.run_suite(suite)
        key, framework = runner._cache.encoder
        assert framework.config.model == "sls_grbm"
        assert framework.model_.n_visible_ == suite["WA"].n_features

    def test_encoder_hit_cells_write_their_own_bundles(self, suite, tmp_path):
        algorithms = ("DP+GRBM", "K-means+GRBM")
        cold = ExperimentRunner(algorithms, artifact_dir=tmp_path, **SETTINGS)
        cold_table = cold.run_suite(suite)
        assert cold.n_encoder_hits == 2
        assert len([p for p in tmp_path.iterdir() if p.is_dir()]) == 4
        # Warm: every cell loads its own bundle; none counts as an encoder hit.
        warm = ExperimentRunner(algorithms, artifact_dir=tmp_path, **SETTINGS)
        assert warm.run_suite(suite).to_dict() == cold_table.to_dict()
        assert warm.n_artifact_hits == 4
        assert warm.n_encoder_hits == 0


class TestCacheKeyedByContent:
    def test_same_abbreviation_different_data_shares_nothing(self):
        # Two draws of "BO" with equal shape: a cache keyed by the name
        # would hand the second one the first one's supervision.
        first = load_msra_mm_dataset("BO", scale=0.2, random_state=1)
        second = load_msra_mm_dataset("BO", scale=0.2, random_state=2)
        assert first.data.shape == second.data.shape
        algorithms = ("K-means+slsGRBM",)
        runner = ExperimentRunner(algorithms, **SETTINGS)
        runner.run_suite(DatasetSuite("first", [first]))
        table = runner.run_suite(DatasetSuite("second", [second]))
        assert runner.n_supervision_hits == 0
        assert runner.n_encoder_hits == 0
        fresh = ExperimentRunner(algorithms, **SETTINGS).run_suite(
            DatasetSuite("second", [second])
        )
        assert table.to_dict() == fresh.to_dict()
