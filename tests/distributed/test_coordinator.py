"""Protocol tests for :class:`GridCoordinator` over real HTTP.

A coordinator is started on an ephemeral port and exercised with
:func:`repro.serving.wire.request_json` playing the worker side by hand —
no real worker processes, so every interleaving is scripted explicitly.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.datasets.base import Dataset
from repro.distributed import (
    CellExecutionError,
    CoordinatorDrained,
    DistributedError,
    GridCoordinator,
)
from repro.distributed.messages import (
    PROTOCOL_VERSION,
    dataset_digest,
    dataset_from_wire,
)
from repro.exceptions import ValidationError
from repro.serving.wire import request_json

SETTINGS = {
    "n_hidden": 4,
    "n_epochs": 2,
    "batch_size": 32,
    "random_state": 0,
    "config_overrides": None,
    "artifact_dir": None,
}

OUTCOME = {
    "report": {
        "accuracy": 0.9,
        "purity": 0.9,
        "rand": 0.8,
        "adjusted_rand": 0.7,
        "fmi": 0.8,
        "nmi": 0.6,
        "n_samples": 10,
        "n_clusters": 2,
        "extras": {},
    },
    "artifact_hit": False,
    "supervision_hit": False,
}


def make_cells(n=2):
    return [
        {
            "cell_id": f"0:{repeat}",
            "dataset_ref": "IR",
            "algorithm": "DP",
            "label": "DP",
            "repeat": repeat,
        }
        for repeat in range(n)
    ]


def make_dataset():
    rng = np.random.default_rng(0)
    return Dataset(
        name="Iris",
        abbreviation="IR",
        data=rng.standard_normal((6, 3)),
        labels=rng.integers(0, 2, size=6),
        metadata={},
    )


@pytest.fixture()
def coordinator():
    coord = GridCoordinator(
        make_cells(), {"IR": make_dataset()}, SETTINGS, lease_timeout=30.0
    ).start()
    yield coord
    coord.stop()


def call(coordinator, method, path, payload=None):
    host, port = coordinator.address
    return request_json(host, port, method, path, payload, timeout=10.0)


def register(coordinator, worker_id="w1"):
    return call(
        coordinator,
        "POST",
        "/worker/register",
        {"protocol": PROTOCOL_VERSION, "worker_id": worker_id},
    )


class TestConstruction:
    def test_empty_grid_rejected(self):
        with pytest.raises(ValidationError, match="at least one cell"):
            GridCoordinator([], {}, SETTINGS)

    def test_duplicate_cell_ids_rejected(self):
        cells = make_cells(1) * 2
        with pytest.raises(ValidationError, match="unique"):
            GridCoordinator(cells, {"IR": make_dataset()}, SETTINGS)

    def test_unknown_dataset_ref_rejected(self):
        with pytest.raises(ValidationError, match="unknown datasets"):
            GridCoordinator(make_cells(), {}, SETTINGS)


class TestRegistration:
    def test_register_returns_run_parameters(self, coordinator):
        status, body = register(coordinator)
        assert status == 200
        assert body["protocol"] == PROTOCOL_VERSION
        assert body["settings"]["n_hidden"] == 4
        assert body["lease_timeout"] == 30.0
        assert 0 < body["heartbeat_interval"] < body["lease_timeout"]
        assert body["n_cells"] == 2

    def test_protocol_mismatch_is_400(self, coordinator):
        status, body = call(
            coordinator,
            "POST",
            "/worker/register",
            {"protocol": 999, "worker_id": "w1"},
        )
        assert status == 400
        assert "protocol" in body["error"]

    def test_missing_worker_id_is_400(self, coordinator):
        status, body = call(
            coordinator, "POST", "/worker/register",
            {"protocol": PROTOCOL_VERSION},
        )
        assert status == 400


class TestLeaseResultFlow:
    def test_full_grid_lifecycle(self, coordinator):
        register(coordinator)
        workers = ["w1", "w2"]
        leased = []
        for worker_id in workers:
            status, body = call(
                coordinator, "POST", "/cell/lease", {"worker_id": worker_id}
            )
            assert status == 200 and body["stop"] is False
            leased.append(body["cell"]["cell_id"])
        assert leased == ["0:0", "0:1"]

        # Everything leased out: an idle poll, not a stop.
        status, body = call(
            coordinator, "POST", "/cell/lease", {"worker_id": "w3"}
        )
        assert body == {"stop": False, "idle": True}

        for index, (worker_id, cell_id) in enumerate(zip(workers, leased)):
            status, body = call(
                coordinator,
                "POST",
                "/cell/result",
                {"worker_id": worker_id, "cell_id": cell_id, "outcome": OUTCOME},
            )
            assert status == 200
            assert body["accepted"] is True
            # The last delivery tells the worker to stop on the spot.
            assert body["stop"] is (index == 1)

        results = coordinator.wait(timeout=5.0)
        assert set(results) == {"0:0", "0:1"}
        assert results["0:0"] == OUTCOME
        status, body = call(
            coordinator, "POST", "/cell/lease", {"worker_id": "w1"}
        )
        assert body == {"stop": True}

    def test_duplicate_result_not_accepted(self, coordinator):
        register(coordinator)
        call(coordinator, "POST", "/cell/lease", {"worker_id": "w1"})
        message = {"worker_id": "w1", "cell_id": "0:0", "outcome": OUTCOME}
        _, first = call(coordinator, "POST", "/cell/result", message)
        _, second = call(coordinator, "POST", "/cell/result", message)
        assert first["accepted"] is True
        assert second["accepted"] is False
        assert coordinator.queue.counters()["n_duplicates"] == 1

    def test_result_for_unknown_cell_is_400(self, coordinator):
        status, body = call(
            coordinator,
            "POST",
            "/cell/result",
            {"worker_id": "w1", "cell_id": "9:9", "outcome": OUTCOME},
        )
        assert status == 400
        assert "unknown cell id" in body["error"]

    def test_result_without_outcome_is_400(self, coordinator):
        status, _ = call(
            coordinator, "POST", "/cell/result",
            {"worker_id": "w1", "cell_id": "0:0"},
        )
        assert status == 400


class TestFailureAndDrain:
    def test_remote_error_aborts_wait(self, coordinator):
        status, _ = call(
            coordinator,
            "POST",
            "/cell/error",
            {"worker_id": "w1", "cell_id": "0:0", "error": "boom"},
        )
        assert status == 200
        with pytest.raises(CellExecutionError, match="boom"):
            coordinator.wait(timeout=5.0)
        _, body = call(coordinator, "POST", "/cell/lease", {"worker_id": "w2"})
        assert body == {"stop": True}

    @pytest.mark.parametrize(
        "report, message",
        [
            ({"worker_id": "w1", "cell_id": "nope", "kind": "ValueError",
              "error": "stray"}, "unknown cell id 'nope'"),
            ({"worker_id": "w1"}, "requires worker_id and cell_id"),
            ({"cell_id": "0:0", "kind": "ValueError", "error": "anonymous"},
             "requires worker_id and cell_id"),
        ],
    )
    def test_stray_error_report_is_400_and_harmless(
        self, coordinator, report, message
    ):
        status, body = call(coordinator, "POST", "/cell/error", report)
        assert status == 400
        assert message in body["error"]
        assert coordinator.describe()["failed"] is False
        assert coordinator.breaker.strikes("w1") == 0
        # The grid is untouched: both cells lease, complete and merge.
        for _ in range(2):
            _, body = call(
                coordinator, "POST", "/cell/lease", {"worker_id": "w1"}
            )
            call(
                coordinator,
                "POST",
                "/cell/result",
                {"worker_id": "w1", "cell_id": body["cell"]["cell_id"],
                 "outcome": OUTCOME},
            )
        assert set(coordinator.wait(timeout=5.0)) == {"0:0", "0:1"}

    def test_drain_stops_leases_and_raises(self, coordinator):
        coordinator.drain()
        _, body = call(coordinator, "POST", "/cell/lease", {"worker_id": "w1"})
        assert body == {"stop": True}
        with pytest.raises(CoordinatorDrained) as excinfo:
            coordinator.wait(timeout=5.0)
        assert excinfo.value.n_completed == 0
        assert excinfo.value.n_total == 2

    def test_drain_waits_for_inflight_cell(self, coordinator):
        _, body = call(coordinator, "POST", "/cell/lease", {"worker_id": "w1"})
        cell_id = body["cell"]["cell_id"]
        coordinator.drain()

        def finish():
            call(
                coordinator,
                "POST",
                "/cell/result",
                {"worker_id": "w1", "cell_id": cell_id, "outcome": OUTCOME},
            )

        thread = threading.Timer(0.2, finish)
        thread.start()
        try:
            with pytest.raises(CoordinatorDrained) as excinfo:
                coordinator.wait(timeout=10.0, poll=0.05)
        finally:
            thread.join()
        # The in-flight cell landed before the drain completed.
        assert excinfo.value.n_completed == 1

    def test_wait_timeout_raises(self, coordinator):
        with pytest.raises(DistributedError, match="did not complete"):
            coordinator.wait(timeout=0.2, poll=0.05)

    def test_watchdog_can_abort_wait(self, coordinator):
        def watchdog():
            raise DistributedError("all workers died")

        with pytest.raises(DistributedError, match="all workers died"):
            coordinator.wait(timeout=5.0, watchdog=watchdog)


class TestHeartbeatAndBye:
    def test_heartbeat_renews_and_reports_stop(self, coordinator):
        call(coordinator, "POST", "/cell/lease", {"worker_id": "w1"})
        status, body = call(
            coordinator, "POST", "/worker/heartbeat", {"worker_id": "w1"}
        )
        assert status == 200
        assert body == {"renewed": 1, "stop": False}

    def test_bye_releases_leases(self, coordinator):
        call(coordinator, "POST", "/cell/lease", {"worker_id": "w1"})
        status, body = call(
            coordinator, "POST", "/worker/bye", {"worker_id": "w1"}
        )
        assert status == 200
        assert body == {"released": 1}
        # The released cell is immediately available to another worker.
        _, body = call(coordinator, "POST", "/cell/lease", {"worker_id": "w2"})
        assert body["cell"]["cell_id"] == "0:0"


class TestGetRoutes:
    def test_healthz(self, coordinator):
        status, body = call(coordinator, "GET", "/healthz")
        assert status == 200
        assert body == {"status": "ok", "protocol": PROTOCOL_VERSION}

    def test_status_counters(self, coordinator):
        register(coordinator)
        status, body = call(coordinator, "GET", "/status")
        assert status == 200
        assert body["queue"]["n_cells"] == 2
        assert body["n_workers"] == 1
        assert body["draining"] is False
        assert body["failed"] is False

    def test_dataset_fetch_roundtrip(self, coordinator):
        status, body = call(coordinator, "GET", "/dataset/IR")
        assert status == 200
        dataset = make_dataset()
        fetched = dataset_from_wire(body)
        np.testing.assert_array_equal(fetched.data, dataset.data)
        np.testing.assert_array_equal(fetched.labels, dataset.labels)
        assert body["digest"] == dataset_digest(fetched) == dataset_digest(dataset)

    def test_unknown_dataset_is_404(self, coordinator):
        status, body = call(coordinator, "GET", "/dataset/NOPE")
        assert status == 404

    def test_unknown_routes_are_404(self, coordinator):
        assert call(coordinator, "GET", "/nope")[0] == 404
        assert call(coordinator, "POST", "/nope", {})[0] == 404
