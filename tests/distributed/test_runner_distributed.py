"""End-to-end distributed runs: loopback and standby workers vs the
sequential runner.

The contract under test is the strongest one the subsystem makes: a grid
fanned out over worker subprocesses merges into a table *bit-identical* to
the sequential run — including after a worker is SIGKILLed mid-grid and its
leases are re-queued, and grid after grid on the same standby workers.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys

import numpy as np
import pytest

from repro.datasets import load_uci_suite
from repro.datasets.base import DatasetSuite
from repro.datasets.msra_mm import load_msra_mm_dataset
from repro.datasets.uci import load_uci_dataset
from repro.distributed import DistributedError, GridCoordinator
from repro.exceptions import ValidationError
from repro.experiments.grids import algorithm_spec
from repro.experiments.runner import ExperimentRunner

ALGORITHMS = ("DP", "K-means", "K-means+slsRBM")
RUNNER_KW = dict(
    n_repeats=2, n_hidden=6, n_epochs=2, batch_size=32, random_state=0
)


@pytest.fixture(scope="module")
def mini_suite():
    suite = load_uci_suite(scale=0.25, random_state=0)
    return DatasetSuite("mini", list(suite)[:2])


@pytest.fixture(scope="module")
def sequential_table(mini_suite):
    return ExperimentRunner(ALGORITHMS, **RUNNER_KW).run_suite(mini_suite)


def assert_tables_bit_identical(actual, expected):
    assert actual.to_dict() == expected.to_dict()
    for dataset in expected.dataset_order:
        for algorithm in expected.algorithm_order:
            cell_a = actual.cell(dataset, algorithm)
            cell_e = expected.cell(dataset, algorithm)
            assert cell_a.mean == cell_e.mean
            assert cell_a.variance == cell_e.variance
            for report_a, report_e in zip(cell_a.reports, cell_e.reports):
                assert report_a == report_e


class TestWorkersValidation:
    def test_zero_workers_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentRunner(ALGORITHMS, workers=0)

    def test_bool_workers_rejected(self):
        with pytest.raises(ValidationError, match="workers"):
            ExperimentRunner(ALGORITHMS, workers=True)

    def test_empty_address_list_rejected(self):
        with pytest.raises(ValidationError, match="must not be empty"):
            ExperimentRunner(ALGORITHMS, workers=[])

    @pytest.mark.parametrize("address", ["localhost", "host:port", ":80", "a:b:c"])
    def test_malformed_address_rejected(self, address):
        with pytest.raises(ValidationError):
            ExperimentRunner(ALGORITHMS, workers=[address])

    def test_nonpositive_lease_timeout_rejected(self):
        with pytest.raises(ValidationError, match="lease_timeout"):
            ExperimentRunner(ALGORITHMS, workers=2, lease_timeout=0.0)

    def test_journal_without_workers_rejected(self, tmp_path):
        # A sequential run keeps no journal; accepting one would let a user
        # believe the grid is crash-safe (and --resume re-run every cell).
        with pytest.raises(ValidationError, match="journal requires workers"):
            ExperimentRunner(ALGORITHMS, journal=tmp_path / "grid.jsonl")


class TestLoopbackBitIdentity:
    def test_two_loopback_workers_match_sequential(
        self, mini_suite, sequential_table
    ):
        runner = ExperimentRunner(ALGORITHMS, **RUNNER_KW, workers=2)
        table = runner.run_suite(mini_suite)
        assert_tables_bit_identical(table, sequential_table)
        assert runner.n_duplicate_results == 0

    def test_single_worker_matches_sequential(self, mini_suite, sequential_table):
        runner = ExperimentRunner(ALGORITHMS, **RUNNER_KW, workers=1)
        table = runner.run_suite(mini_suite)
        assert_tables_bit_identical(table, sequential_table)

    def test_run_cell_with_spec_matches_sequential(self, mini_suite):
        # run_cell queues one cell's repeats; a registry spec given in place
        # of a table name travels to the workers with them.
        from repro.experiments.grids import algorithm_spec

        dataset = list(mini_suite)[0]
        spec = algorithm_spec(
            "K-means+slsRBM", dataset.n_classes, n_hidden=6, n_epochs=2
        )
        sequential = ExperimentRunner(("DP",), **RUNNER_KW).run_cell(dataset, spec)
        runner = ExperimentRunner(("DP",), **RUNNER_KW, workers=2)
        distributed = runner.run_cell(dataset, spec)
        assert distributed.algorithm == sequential.algorithm == "K-means+slsRBM"
        assert distributed.mean == sequential.mean
        assert distributed.variance == sequential.variance
        assert distributed.reports == sequential.reports


@pytest.mark.slow
class TestWorkerLoss:
    def test_sigkilled_worker_mid_grid_still_matches_sequential(
        self, mini_suite, sequential_table, monkeypatch
    ):
        """SIGKILL one of two workers while it holds a lease; the grid must
        recover via lease expiry and still merge bit-identically."""
        from repro.distributed import worker as worker_module

        pool_box = []
        real_spawn = worker_module.spawn_loopback_workers

        def capturing_spawn(n_workers, coordinator_address, **kwargs):
            pool = real_spawn(n_workers, coordinator_address, **kwargs)
            pool_box.append(pool)
            return pool

        monkeypatch.setattr(
            worker_module, "spawn_loopback_workers", capturing_spawn
        )

        state = {"n_granted": 0, "killed": False}
        real_handle_lease = GridCoordinator.POST_ROUTES["/cell/lease"]

        def killing_handle_lease(coordinator, request):
            response = real_handle_lease(coordinator, request)
            if response.get("cell") is not None:
                state["n_granted"] += 1
                # Killing the worker this third cell is granted to *before
                # the response is delivered* guarantees a lease dies with
                # it (another worker may hold none); the cell must come
                # back via expiry.  Worker ids are hostname-pid-suffix.
                if state["n_granted"] == 3 and not state["killed"]:
                    state["killed"] = True
                    pid = int(request["worker_id"].rsplit("-", 2)[1])
                    for process in pool_box[0].processes:
                        if process.pid == pid:
                            process.kill()
                            process.wait(timeout=10)
            return response

        monkeypatch.setitem(
            GridCoordinator.POST_ROUTES, "/cell/lease", killing_handle_lease
        )

        runner = ExperimentRunner(
            ALGORITHMS, **RUNNER_KW, workers=2, lease_timeout=2.0
        )
        table = runner.run_suite(mini_suite)

        assert state["killed"], "fault injection never fired"
        assert pool_box[0].n_alive <= 1
        assert_tables_bit_identical(table, sequential_table)
        # The dead worker's lease(s) were re-queued, not lost.
        assert runner.n_requeued_cells >= 1

    def test_all_workers_dead_aborts_instead_of_hanging(
        self, mini_suite, monkeypatch
    ):
        from repro.distributed import worker as worker_module

        real_spawn = worker_module.spawn_loopback_workers

        def spawn_and_kill_all(n_workers, coordinator_address, **kwargs):
            pool = real_spawn(n_workers, coordinator_address, **kwargs)
            while pool.n_alive:
                pool.kill_one()
            return pool

        monkeypatch.setattr(
            worker_module, "spawn_loopback_workers", spawn_and_kill_all
        )
        runner = ExperimentRunner(
            ALGORITHMS, **RUNNER_KW, workers=2, lease_timeout=1.0
        )
        with pytest.raises(DistributedError, match="loopback workers exited"):
            runner.run_suite(mini_suite)


class TestRunCellRunsTheGivenSpec:
    """``run_cell(dataset, spec)`` evaluates exactly that spec, whatever
    cell of the grid shares its label, and leaves the grid unchanged."""

    KW = dict(n_hidden=6, n_epochs=2)

    @pytest.fixture(scope="class")
    def iris(self):
        return load_uci_dataset("IR", scale=0.5, random_state=0)

    def spec(self, dataset, n_hidden):
        return algorithm_spec(
            "K-means+slsRBM", dataset.n_classes, n_hidden=n_hidden, n_epochs=2
        )

    @pytest.mark.parametrize("workers", [None, 2])
    def test_spec_is_not_replaced_by_the_name_cell(self, iris, workers):
        spec = self.spec(iris, 3)
        runner = ExperimentRunner(("K-means+slsRBM",), workers=workers, **self.KW)
        cell = runner.run_cell(iris, spec)
        expected = ExperimentRunner((spec,), **self.KW).run_cell(iris, spec)
        named = ExperimentRunner(("K-means+slsRBM",), **self.KW).run_cell(
            iris, "K-means+slsRBM"
        )
        assert expected.reports != named.reports
        assert cell.to_dict() == expected.to_dict()
        # The grid still runs its own cell.
        assert runner.algorithm_names == ("K-means+slsRBM",)
        table = runner.run_suite(DatasetSuite("one", [iris]))
        assert table.cell("IR", "K-means+slsRBM").to_dict() == named.to_dict()

    @pytest.mark.parametrize("workers", [None, 2])
    def test_two_specs_of_one_label_each_run(self, iris, workers):
        first, second = self.spec(iris, 3), self.spec(iris, 5)
        runner = ExperimentRunner(("DP",), workers=workers, **self.KW)
        cells = [runner.run_cell(iris, spec) for spec in (first, second)]
        expected = [
            ExperimentRunner(("DP",), **self.KW).run_cell(iris, spec)
            for spec in (first, second)
        ]
        assert expected[0].reports != expected[1].reports
        assert [cell.to_dict() for cell in cells] == [
            cell.to_dict() for cell in expected
        ]
        assert runner.algorithm_names == ("DP",)


def start_standby_worker():
    """A ``python -m repro worker --listen 0`` process and its address."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(path for path in sys.path if path)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--listen", "0"],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    line = process.stdout.readline()
    match = re.search(r"on http://([\d.]+:\d+)", line)
    if match is None:
        process.kill()
        process.wait(timeout=10)
        raise AssertionError(f"standby worker never announced: {line!r}")
    return process, match.group(1)


class TestStandbyWorkers:
    def test_back_to_back_grids_on_the_same_workers(self):
        """The coordinator keeps serving until both workers said bye, so a
        worker that idled while the other finished the last cell is free
        for the next grid instead of retrying a vanished coordinator."""
        suite = DatasetSuite(
            "msra-mm",
            [
                load_msra_mm_dataset(abbreviation, scale=0.3, random_state=0)
                for abbreviation in ("BO", "WA")
            ],
        )
        algorithms = ("DP", "K-means")
        expected = ExperimentRunner(algorithms).run_suite(suite).to_dict()
        workers = [start_standby_worker() for _ in range(2)]
        try:
            addresses = [address for _, address in workers]
            for _ in range(2):
                runner = ExperimentRunner(algorithms, workers=addresses)
                assert runner.run_suite(suite).to_dict() == expected
        finally:
            for process, _ in workers:
                process.terminate()
            for process, _ in workers:
                assert process.wait(timeout=10) == 0


class TestDistributedCacheCounters:
    def test_artifact_hits_travel_back(self, mini_suite, tmp_path):
        warm = ExperimentRunner(
            ("K-means+slsRBM",), **RUNNER_KW, artifact_dir=tmp_path
        )
        warm.run_suite(mini_suite)

        runner = ExperimentRunner(
            ("K-means+slsRBM",), **RUNNER_KW, workers=1,
            artifact_dir=tmp_path,
        )
        table = runner.run_suite(mini_suite)
        # Loopback workers share the coordinator's artifact directory, so
        # every framework fit is served from the warm-started bundles and
        # the hits are reported back over the wire.
        assert runner.n_artifact_hits > 0
        expected = warm.run_suite(mini_suite)
        assert table.to_dict() == expected.to_dict()


def test_distributed_table_roundtrips_through_json(mini_suite, sequential_table):
    import json

    payload = json.loads(json.dumps(sequential_table.to_dict()))
    from repro.experiments.runner import ExperimentTable

    rebuilt = ExperimentTable.from_dict(payload)
    assert rebuilt.to_dict() == sequential_table.to_dict()
    matrix_a = rebuilt.metric_matrix("accuracy")
    matrix_b = sequential_table.metric_matrix("accuracy")
    np.testing.assert_array_equal(matrix_a, matrix_b)
