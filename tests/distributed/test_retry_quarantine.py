"""Fake-clock state-machine tests for retry, backoff and quarantine.

The coordinator's handlers are called directly (no HTTP, no workers, no real
time): an injected clock drives the lease queue's delay pen, so every retry
and quarantine transition is asserted deterministically.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.datasets.base import Dataset
from repro.distributed import CellExecutionError, GridCoordinator

SETTINGS = {
    "n_hidden": 4,
    "n_epochs": 2,
    "batch_size": 32,
    "random_state": 0,
    "config_overrides": None,
    "artifact_dir": None,
}

OUTCOME = {"report": {"accuracy": 0.9}, "artifact_hit": False,
           "supervision_hit": False}


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_cells(n=2):
    return [
        {"cell_id": f"0:{repeat}", "dataset_ref": "IR", "algorithm": "DP",
         "label": "DP", "repeat": repeat}
        for repeat in range(n)
    ]


def make_dataset():
    rng = np.random.default_rng(0)
    return Dataset(
        name="Iris", abbreviation="IR",
        data=rng.standard_normal((6, 3)),
        labels=rng.integers(0, 2, size=6),
        metadata={},
    )


@pytest.fixture()
def make_coord():
    created = []

    def factory(n_cells=2, clock=None, **kwargs):
        coordinator = GridCoordinator(
            make_cells(n_cells),
            {"IR": make_dataset()},
            SETTINGS,
            lease_timeout=30.0,
            clock=clock or time.monotonic,
            **kwargs,
        )
        created.append(coordinator)
        return coordinator

    yield factory
    for coordinator in created:
        # Handlers were driven directly; only the (never-served) socket and
        # the journal need closing.
        coordinator._server.server_close()
        if coordinator.journal is not None:
            coordinator.journal.close()


def lease(coordinator, worker_id="w1"):
    return coordinator.handle_lease({"worker_id": worker_id})


def fail(coordinator, cell_id, worker_id="w1", kind="ConnectionResetError",
         error="connection reset by peer"):
    return coordinator.handle_error(
        {"worker_id": worker_id, "cell_id": cell_id,
         "kind": kind, "error": error}
    )


def complete(coordinator, cell_id, worker_id="w1"):
    return coordinator.handle_result(
        {"worker_id": worker_id, "cell_id": cell_id, "outcome": OUTCOME}
    )


class TestTransientRetry:
    def test_transient_failure_requeues_with_backoff(self, make_coord):
        clock = FakeClock()
        coordinator = make_coord(clock=clock, retry_backoff=0.5)
        assert lease(coordinator)["cell"]["cell_id"] == "0:0"
        response = fail(coordinator, "0:0")
        assert response == {"ok": True, "retried": True, "stop": False}
        counters = coordinator.queue.counters()
        assert counters["n_delayed"] == 1
        assert counters["n_retried"] == 1
        # The cell sits in the backoff pen: the next lease hands out the
        # *other* cell, then goes idle.
        assert lease(coordinator)["cell"]["cell_id"] == "0:1"
        assert lease(coordinator, "w2") == {"stop": False, "idle": True}
        # Backoff elapses -> the failed cell is leased again.
        clock.advance(0.6)
        assert lease(coordinator, "w2")["cell"]["cell_id"] == "0:0"

    def test_retried_cell_can_still_complete(self, make_coord):
        clock = FakeClock()
        coordinator = make_coord(n_cells=1, clock=clock, retry_backoff=0.0)
        lease(coordinator)
        fail(coordinator, "0:0")
        assert lease(coordinator, "w2")["cell"]["cell_id"] == "0:0"
        assert complete(coordinator, "0:0", "w2")["accepted"] is True
        assert coordinator.wait(timeout=1.0) == {"0:0": OUTCOME}

    def test_message_marker_classifies_unknown_kind_transient(self, make_coord):
        coordinator = make_coord(retry_backoff=0.0)
        lease(coordinator)
        response = fail(
            coordinator, "0:0", kind="SomeLibraryError",
            error="socket read timed out after 30s",
        )
        assert response["retried"] is True
        assert coordinator._failure is None

    def test_stale_failure_after_completion_is_absorbed(self, make_coord):
        coordinator = make_coord(n_cells=1)
        lease(coordinator)
        complete(coordinator, "0:0")
        # A second worker's late failure report must not resurrect (or
        # abort) a finished grid.
        response = fail(coordinator, "0:0", worker_id="w2")
        assert response["retried"] is True
        assert coordinator._failure is None
        assert coordinator.queue.done
        assert coordinator.queue.counters()["n_delayed"] == 0


class TestFailFast:
    def test_deterministic_failure_aborts(self, make_coord):
        coordinator = make_coord()
        lease(coordinator)
        response = fail(
            coordinator, "0:0", kind="ValueError", error="singular matrix"
        )
        assert response["retried"] is False
        assert response["stop"] is True
        assert lease(coordinator, "w2") == {"stop": True}
        with pytest.raises(CellExecutionError, match="deterministic"):
            coordinator.wait(timeout=1.0)

    def test_transient_budget_exhaustion_aborts(self, make_coord):
        coordinator = make_coord(max_cell_retries=1, retry_backoff=0.0)
        lease(coordinator)
        assert fail(coordinator, "0:0")["retried"] is True
        lease(coordinator)  # 0:1
        lease(coordinator)  # the retried 0:0
        response = fail(coordinator, "0:0")
        assert response["retried"] is False
        with pytest.raises(CellExecutionError, match="retries exhausted"):
            coordinator.wait(timeout=1.0)

    def test_zero_retries_restores_fail_fast(self, make_coord):
        coordinator = make_coord(max_cell_retries=0)
        lease(coordinator)
        response = fail(coordinator, "0:0")  # transient kind, no budget
        assert response["retried"] is False
        with pytest.raises(CellExecutionError):
            coordinator.wait(timeout=1.0)


class TestQuarantine:
    def test_worker_quarantined_after_consecutive_failures(self, make_coord):
        coordinator = make_coord(
            n_cells=3, quarantine_after=2, max_cell_retries=10,
            retry_backoff=0.0,
        )
        lease(coordinator, "w1")
        fail(coordinator, "0:0", "w1")
        lease(coordinator, "w1")
        fail(coordinator, "0:0", "w1")
        # Two strikes: w1 is quarantined, its lease polls get a clean stop.
        assert coordinator.breaker.is_quarantined("w1")
        assert lease(coordinator, "w1") == {"stop": True, "quarantined": True}
        assert coordinator.describe()["quarantined_workers"] == ["w1"]
        # The grid is not poisoned: a healthy worker picks the cell up.
        assert lease(coordinator, "w2")["cell"]["cell_id"] == "0:0"

    def test_quarantine_releases_held_leases(self, make_coord):
        coordinator = make_coord(
            n_cells=3, quarantine_after=2, max_cell_retries=10,
            retry_backoff=0.0,
        )
        lease(coordinator, "w1")  # 0:0
        fail(coordinator, "0:0", "w1")
        lease(coordinator, "w1")  # 0:0 again, still held when the breaker trips
        fail(coordinator, "0:0", "w1")  # trip: every w1 lease is released
        assert coordinator.queue.n_leased == 0
        workers = ("w2", "w3", "w4")
        leased = {lease(coordinator, w)["cell"]["cell_id"] for w in workers}
        assert leased == {"0:0", "0:1", "0:2"}

    def test_success_resets_the_strike_count(self, make_coord):
        coordinator = make_coord(
            n_cells=3, quarantine_after=2, max_cell_retries=10,
            retry_backoff=0.0,
        )
        lease(coordinator, "w1")
        fail(coordinator, "0:0", "w1")
        lease(coordinator, "w1")
        complete(coordinator, "0:0", "w1")
        assert coordinator.breaker.strikes("w1") == 0
        lease(coordinator, "w1")
        fail(coordinator, "0:1", "w1")
        assert not coordinator.breaker.is_quarantined("w1")

    def test_deterministic_failure_from_quarantined_worker_still_aborts(
        self, make_coord
    ):
        coordinator = make_coord(
            n_cells=3, quarantine_after=1, max_cell_retries=10,
            retry_backoff=0.0,
        )
        lease(coordinator, "w1")
        fail(coordinator, "0:0", "w1")  # transient -> quarantined immediately
        assert coordinator.breaker.is_quarantined("w1")
        fail(coordinator, "0:1", "w1", kind="ValueError", error="real bug")
        assert coordinator._failure is not None


class TestErrorJournalling:
    def test_failures_are_journalled_for_the_post_mortem(
        self, make_coord, tmp_path
    ):
        path = tmp_path / "grid.jsonl"
        coordinator = make_coord(journal=path, retry_backoff=0.0)
        lease(coordinator)
        fail(coordinator, "0:0")
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        errors = [r for r in records if r.get("type") == "error"]
        assert errors == [{
            "type": "error", "cell_id": "0:0", "worker_id": "w1",
            "kind": "ConnectionResetError", "transient": True,
        }]
