"""Shared encoders across the wire: lease affinity, dispatch order and the
outcome format.

The runner passes the coordinator a cell -> encoder-group map beside the
cell descriptors, so workers get the cells of the encoder they trained last,
and the longest groups (sls encoders, then plain encoders, then raw
clusterers) first, while the descriptors, the journal fingerprint and the
protocol version stay as they were.  Outcomes and journals written before
``encoder_hit`` existed still decode and resume.
"""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest

from repro.datasets.base import Dataset, DatasetSuite
from repro.datasets.msra_mm import load_msra_mm_dataset
from repro.distributed import GridCoordinator
from repro.distributed.messages import outcome_from_wire, outcome_to_wire
from repro.exceptions import ValidationError
from repro.experiments.grids import DATASETS_I_ALGORITHMS
from repro.experiments.runner import (
    ExperimentRunner,
    ExperimentTable,
    _RepeatOutcome,
)
from repro.metrics.report import ClusteringReport
from repro.resilience import grid_fingerprint

SETTINGS = {
    "n_hidden": 4,
    "n_epochs": 2,
    "batch_size": 32,
    "random_state": 0,
    "config_overrides": None,
    "artifact_dir": None,
}
RUNNER_KW = dict(n_hidden=6, n_epochs=2, batch_size=32, random_state=5)

#: An outcome as workers sent (and journals stored) it before
#: ``encoder_hit`` existed.
OLD_OUTCOME = {
    "report": {"accuracy": 0.5, "purity": 0.5, "rand": 0.5,
               "adjusted_rand": 0.0, "fmi": 0.5, "nmi": 0.0,
               "n_samples": 6, "n_clusters": 2, "extras": {}},
    "artifact_hit": False,
    "supervision_hit": True,
}


def make_dataset():
    rng = np.random.default_rng(0)
    return Dataset(
        name="Iris", abbreviation="IR",
        data=rng.standard_normal((6, 3)),
        labels=rng.integers(0, 2, size=6),
        metadata={},
    )


def make_cells(labels):
    return [
        {"cell_id": f"{index}:0", "dataset_ref": "IR", "algorithm": label,
         "label": label, "repeat": 0}
        for index, label in enumerate(labels)
    ]


@pytest.fixture(scope="module")
def suite():
    return DatasetSuite(
        "mini",
        [
            load_msra_mm_dataset(abbreviation, scale=0.1, random_state=1)
            for abbreviation in ("BO", "WA")
        ],
    )


class TestOutcomeWire:
    def test_old_outcome_decodes_without_an_encoder_hit(self):
        outcome = outcome_from_wire(OLD_OUTCOME)
        assert outcome.encoder_hit is False
        assert outcome.supervision_hit is True

    def test_encoder_hit_round_trips(self):
        payload = outcome_to_wire(
            _RepeatOutcome(
                report=ClusteringReport.from_payload(OLD_OUTCOME["report"]),
                artifact_hit=False,
                supervision_hit=True,
                encoder_hit=True,
            )
        )
        assert payload["encoder_hit"] is True
        assert outcome_from_wire(payload).encoder_hit is True


class TestCoordinatorGroups:
    def test_lease_follows_the_group_map(self, tmp_path):
        labels = ("DP+GRBM", "DP", "K-means+GRBM")
        cells = make_cells(labels)
        datasets = {"IR": make_dataset()}
        coordinator = GridCoordinator(
            cells, datasets, SETTINGS,
            groups={"0:0": 0, "1:0": 1, "2:0": 0},
            journal=tmp_path / "grid.jsonl",
        )
        try:
            assert coordinator.handle_lease({"worker_id": "w1"})["cell"][
                "cell_id"] == "0:0"
            coordinator.handle_result(
                {"worker_id": "w1", "cell_id": "0:0", "outcome": OLD_OUTCOME}
            )
            # w1 trained group 0's encoder: it gets "2:0" ahead of "1:0".
            response = coordinator.handle_lease({"worker_id": "w1"})
            assert response["cell"]["cell_id"] == "2:0"
            # The group map stays out of the journal's grid identity.
            assert coordinator.journal.fingerprint == grid_fingerprint(
                cells, SETTINGS, datasets
            )
        finally:
            coordinator._server.server_close()
            coordinator.journal.close()


class TestDistributedSharing:
    def test_three_tables_identical(self, suite):
        distributed = ExperimentRunner(
            DATASETS_I_ALGORITHMS, workers=2, **RUNNER_KW
        )
        distributed_table = distributed.run_suite(suite)
        sequential_table = ExperimentRunner(
            DATASETS_I_ALGORITHMS, **RUNNER_KW
        ).run_suite(suite)
        reference = ExperimentTable(
            suite.name, suite.abbreviations, list(DATASETS_I_ALGORITHMS)
        )
        for dataset in suite:
            for algorithm in DATASETS_I_ALGORITHMS:
                runner = ExperimentRunner((algorithm,), **RUNNER_KW)
                reference.add(runner.run_cell(dataset, algorithm))
        assert distributed_table.to_dict() == sequential_table.to_dict()
        assert sequential_table.to_dict() == reference.to_dict()
        # 12 encoder cells, 4 distinct encoders: at most 8 hits, and the
        # lease affinity gets some of them even when the tail splits.
        assert 0 < distributed.n_encoder_hits <= 8

    def test_unknown_algorithm_fails_before_any_worker_runs(self, suite):
        # Grouping builds every cell up front, so a bad name is a
        # ValidationError in the runner, not a failed cell on a worker.
        runner = ExperimentRunner(("DP", "DP+Nope"), workers=2, **RUNNER_KW)
        with pytest.raises(ValidationError, match="unknown algorithm"):
            runner.run_suite(suite)

    def test_journal_without_encoder_hits_resumes(self, suite, tmp_path):
        algorithms = ("DP", "DP+GRBM", "K-means+GRBM")
        journal = tmp_path / "grid.jsonl"
        first = ExperimentRunner(
            algorithms, workers=1, journal=journal, **RUNNER_KW
        )
        expected = first.run_suite(suite)
        assert first.n_encoder_hits == 2
        # Rewrite the journal in the format written before "encoder_hit"
        # existed, cut after three results, as if the coordinator had died
        # there.
        lines = journal.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        cells = [r for r in records if r["type"] == "cell"][:3]
        for record in cells:
            del record["outcome"]["encoder_hit"]
        journal.write_text(
            "\n".join(json.dumps(r, sort_keys=True) for r in [records[0], *cells])
            + "\n"
        )
        resumed = ExperimentRunner(
            algorithms, workers=1, journal=journal, resume=True, **RUNNER_KW
        )
        assert resumed.run_suite(suite).to_dict() == expected.to_dict()
        assert resumed.n_journal_replayed == 3


def grid_cells(suite):
    """The runner's ``(dataset, label, algorithm)`` cells of a nine-column
    grid, in grid order."""
    return [
        (dataset, name, name)
        for dataset in suite
        for name in DATASETS_I_ALGORITHMS
    ]


class TestLongestGroupsFirst:
    def test_two_workers_get_sls_then_plain_then_raw(self, suite):
        runner = ExperimentRunner(DATASETS_I_ALGORITHMS, workers=2, **RUNNER_KW)
        coordinator = runner._coordinator(grid_cells(suite))
        leases = []  # (worker, dataset, label) in lease order
        held = {}
        try:
            # Two workers lease and complete in turn, one cell at a time.
            for worker in itertools.cycle(("w1", "w2")):
                if coordinator.queue.done:
                    break
                if worker in held:
                    coordinator.handle_result({
                        "worker_id": worker,
                        "cell_id": held.pop(worker),
                        "outcome": OLD_OUTCOME,
                    })
                cell = coordinator.handle_lease({"worker_id": worker}).get("cell")
                if cell is not None:
                    held[worker] = cell["cell_id"]
                    leases.append((worker, cell["dataset_ref"], cell["label"]))
        finally:
            coordinator._server.server_close()
        assert len(leases) == 18
        # The two sls encoder cells go first, one to each worker ...
        assert [(d, label) for _, d, label in leases[:2]] == [
            ("BO", "DP+slsGRBM"), ("WA", "DP+slsGRBM"),
        ]
        assert {worker for worker, _, _ in leases[:2]} == {"w1", "w2"}
        # ... then the rest of the sls groups, the plain-encoder groups and
        # the raw cells.
        labels = [label for _, _, label in leases]
        assert all("+sls" in label for label in labels[:6])
        assert all(label.endswith("+GRBM") for label in labels[6:12])
        assert all("+" not in label for label in labels[12:])
        # No encoder group is split across the two workers.
        holders = {}
        for worker, dataset, label in leases:
            if "+" in label:
                family = label.split("+")[1]
                holders.setdefault((dataset, family), set()).add(worker)
        assert len(holders) == 4
        assert all(len(workers) == 1 for workers in holders.values())

    def test_journal_fingerprint_hashes_the_grid_order(self, suite, tmp_path):
        journal = tmp_path / "grid.jsonl"
        ExperimentRunner(
            DATASETS_I_ALGORITHMS, workers=1, journal=journal, **RUNNER_KW
        ).run_suite(suite)
        header = json.loads(journal.read_text().splitlines()[0])
        descriptors = [
            {"cell_id": f"{index}:0", "dataset_ref": dataset.abbreviation,
             "algorithm": name, "label": name, "repeat": 0}
            for index, (dataset, name, _) in enumerate(grid_cells(suite))
        ]
        settings = dict(SETTINGS, n_hidden=6, random_state=5)
        # The value the runner wrote before the dispatch order changed: a
        # journal from then still resumes.
        assert header["fingerprint"] == grid_fingerprint(
            descriptors, settings, {dataset.abbreviation: dataset for dataset in suite}
        )
