"""Crash-resume: the write-ahead journal through the coordinator and CLI.

Three layers of the same guarantee:

* handler-level — a second coordinator resuming the first one's journal
  pre-completes the journalled cells and merges their outcomes verbatim;
* subprocess-level (slow) — a real ``repro evaluate --grid --workers``
  process is SIGKILLed mid-grid and rerun with ``--resume``; the merged
  table must be bit-identical to a sequential run;
* chaos (slow) — a full distributed grid runs behind a seeded
  :class:`FaultProxy` injecting 500s, drops, resets and duplicates, with
  the journal armed, and still merges bit-identically.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.datasets import load_uci_suite
from repro.datasets.base import Dataset, DatasetSuite
from repro.distributed import GridCoordinator
from repro.distributed.worker import WorkerClient
from repro.exceptions import ValidationError
from repro.experiments.runner import ExperimentRunner
from repro.resilience import FaultProxy, FaultSchedule, JournalError
from repro.resilience.faults import ScriptedSchedule

SETTINGS = {
    "n_hidden": 4,
    "n_epochs": 2,
    "batch_size": 32,
    "random_state": 0,
    "config_overrides": None,
    "artifact_dir": None,
}

OUTCOME = {"report": {"accuracy": 1 / 3}, "artifact_hit": False,
           "supervision_hit": False}


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

    def factory(n_cells=2, **kwargs):
        coordinator = GridCoordinator(
            make_cells(n_cells), {"IR": make_dataset()}, SETTINGS, **kwargs
        )
        created.append(coordinator)
        return coordinator

    yield factory
    for coordinator in created:
        coordinator._server.server_close()
        if coordinator.journal is not None:
            coordinator.journal.close()


class TestCoordinatorResume:
    def test_resumed_coordinator_replays_and_finishes(self, make_coord, tmp_path):
        path = tmp_path / "grid.jsonl"
        first = make_coord(journal=path)
        first.handle_lease({"worker_id": "w1"})
        first.handle_result(
            {"worker_id": "w1", "cell_id": "0:0", "outcome": OUTCOME}
        )
        first.journal.close()  # the coordinator "dies" here

        second = make_coord(journal=path, resume=True)
        assert second.n_replayed == 1
        assert second.queue.n_completed == 1
        assert second.describe()["n_journal_replayed"] == 1
        assert second.describe()["journal"] == str(path)
        # Only the unfinished cell is ever leased again.
        response = second.handle_lease({"worker_id": "w2"})
        assert response["cell"]["cell_id"] == "0:1"
        second.handle_result(
            {"worker_id": "w2", "cell_id": "0:1", "outcome": OUTCOME}
        )
        results = second.wait(timeout=1.0)
        assert results["0:0"] == OUTCOME  # replayed verbatim
        assert set(results) == {"0:0", "0:1"}

    def test_fully_journalled_grid_is_done_at_startup(self, make_coord, tmp_path):
        path = tmp_path / "grid.jsonl"
        first = make_coord(journal=path)
        for cell_id in ("0:0", "0:1"):
            first.handle_lease({"worker_id": "w1"})
            first.handle_result(
                {"worker_id": "w1", "cell_id": cell_id, "outcome": OUTCOME}
            )
        first.journal.close()
        second = make_coord(journal=path, resume=True)
        assert second.queue.done
        assert second.handle_lease({"worker_id": "w1"}) == {"stop": True}
        assert set(second.wait(timeout=1.0)) == {"0:0", "0:1"}

    def test_torn_tail_is_survived(self, make_coord, tmp_path):
        path = tmp_path / "grid.jsonl"
        first = make_coord(journal=path)
        first.handle_lease({"worker_id": "w1"})
        first.handle_result(
            {"worker_id": "w1", "cell_id": "0:0", "outcome": OUTCOME}
        )
        first.journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "cell", "cell_id": "0:1", "out')
        second = make_coord(journal=path, resume=True)
        assert second.n_replayed == 1
        assert second.journal.n_torn_lines == 1

    def test_foreign_journal_is_refused(self, make_coord, tmp_path):
        path = tmp_path / "grid.jsonl"
        first = make_coord(journal=path)
        first.journal.close()
        with pytest.raises(JournalError, match="different grid"):
            GridCoordinator(
                make_cells(), {"IR": make_dataset()},
                dict(SETTINGS, n_hidden=16),  # different grid identity
                journal=path, resume=True,
            )

    def test_resume_without_journal_is_rejected(self, make_coord):
        with pytest.raises(ValidationError, match="journal"):
            make_coord(resume=True)

    def test_resume_missing_file_is_refused(self, make_coord, tmp_path):
        with pytest.raises(JournalError, match="does not exist"):
            make_coord(journal=tmp_path / "missing.jsonl", resume=True)

    def test_journalled_errors_are_not_replayed_as_results(
        self, make_coord, tmp_path
    ):
        path = tmp_path / "grid.jsonl"
        first = make_coord(journal=path, retry_backoff=0.0)
        first.handle_lease({"worker_id": "w1"})
        first.handle_error(
            {"worker_id": "w1", "cell_id": "0:0",
             "kind": "ConnectionResetError", "error": "reset"}
        )
        first.journal.close()
        second = make_coord(journal=path, resume=True)
        assert second.n_replayed == 0
        assert second.queue.n_completed == 0


def _subprocess_env():
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(path for path in sys.path if path)
    return env


def _count_journalled_cells(path):
    if not path.exists():
        return 0
    count = 0
    for line in path.read_text(encoding="utf-8").splitlines():
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict) and record.get("type") == "cell":
            count += 1
    return count


@pytest.mark.slow
class TestCoordinatorSigkillResume:
    def test_sigkilled_grid_resumes_bit_identically(self, tmp_path):
        """SIGKILL the whole coordinator process group mid-grid, then rerun
        with ``--resume``: the merged table must match the sequential run to
        the last bit, re-running only the cells the journal does not own."""
        env = _subprocess_env()
        journal = tmp_path / "grid.jsonl"
        sequential_out = tmp_path / "sequential.json"
        resumed_out = tmp_path / "resumed.json"
        base = [
            sys.executable, "-m", "repro", "evaluate", "--grid",
            "--dataset", "IR,BCW", "--scale", "0.25",
            "--algorithms", "DP,K-means+slsRBM", "--repeats", "2",
            "--n-hidden", "6", "--epochs", "2", "--batch-size", "32",
        ]
        subprocess.run(
            base + ["--table-out", str(sequential_out)],
            env=env, check=True, timeout=300,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )

        process = subprocess.Popen(
            base + ["--workers", "2", "--lease-timeout", "10",
                    "--journal", str(journal),
                    "--table-out", str(tmp_path / "never-written.json")],
            env=env, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if process.poll() is not None or _count_journalled_cells(journal) >= 2:
                    break
                time.sleep(0.05)
            assert process.poll() is None, (
                "grid finished before the kill could land; "
                "the workload is too small to exercise resume"
            )
            assert _count_journalled_cells(journal) >= 2
            # SIGKILL the whole group: coordinator AND its workers die with
            # no chance to flush anything beyond what was already fsync'd.
            os.killpg(process.pid, signal.SIGKILL)
            process.wait(timeout=30)
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup path
                os.killpg(process.pid, signal.SIGKILL)
        assert not (tmp_path / "never-written.json").exists()

        resume = subprocess.run(
            base + ["--workers", "2", "--lease-timeout", "10",
                    "--journal", str(journal), "--resume",
                    "--table-out", str(resumed_out)],
            env=env, check=True, timeout=300, capture_output=True, text=True,
        )
        assert "replayed from" in resume.stdout  # the journal was used
        resumed = json.loads(resumed_out.read_text(encoding="utf-8"))
        sequential = json.loads(sequential_out.read_text(encoding="utf-8"))
        assert resumed == sequential


@pytest.mark.slow
class TestChaosGrid:
    def test_grid_behind_fault_proxy_matches_sequential(
        self, tmp_path, monkeypatch
    ):
        """Route every worker through a seeded FaultProxy (500s, drops,
        resets, duplicates, latency) with the journal armed; the merged
        table must still be bit-identical to the sequential run."""
        from repro.distributed import worker as worker_module

        algorithms = ("DP", "K-means", "K-means+slsRBM")
        runner_kw = dict(
            n_repeats=2, n_hidden=6, n_epochs=2, batch_size=32, random_state=0
        )
        suite = DatasetSuite(
            "mini", list(load_uci_suite(scale=0.25, random_state=0))[:2]
        )
        sequential = ExperimentRunner(algorithms, **runner_kw).run_suite(suite)

        proxies = []
        real_spawn = worker_module.spawn_loopback_workers

        def proxied_spawn(n_workers, coordinator_address, **kwargs):
            host, port = coordinator_address.rsplit(":", 1)
            schedule = FaultSchedule(
                11,
                p_error=0.10, p_drop=0.05, p_reset=0.05, p_duplicate=0.05,
                latency_ms=1.0,
                protect_routes=("/worker/register",),
            )
            proxy = FaultProxy(host, int(port), schedule=schedule).start()
            proxies.append(proxy)
            return real_spawn(n_workers, proxy.address_string, **kwargs)

        monkeypatch.setattr(
            worker_module, "spawn_loopback_workers", proxied_spawn
        )
        runner = ExperimentRunner(
            algorithms, **runner_kw, workers=2, lease_timeout=5.0,
            journal=tmp_path / "chaos.jsonl",
        )
        try:
            table = runner.run_suite(suite)
        finally:
            for proxy in proxies:
                proxy.stop()

        assert table.to_dict() == sequential.to_dict()
        assert len(proxies) == 1
        counters = proxies[0].counters.as_dict()
        assert counters["n_requests"] > 0
        n_faults = (
            counters["n_injected_errors"] + counters["n_dropped"]
            + counters["n_reset"] + counters["n_duplicated"]
        )
        assert n_faults >= 1, f"no fault ever fired: {counters}"
        # Every accepted result survived the chaos into the journal.
        assert _count_journalled_cells(tmp_path / "chaos.jsonl") >= 12


class TestLostLeaseGrant:
    def test_grant_the_worker_never_saw_is_requeued(self):
        """A lease request relayed twice reaches the coordinator twice, but
        the worker only hears the first answer.  The second request finds
        the first grant still held by the worker and hands the same cell
        out again; granting a second cell left an orphan that the worker's
        heartbeats kept alive forever, so the grid never finished."""
        dataset = list(load_uci_suite(scale=0.25, random_state=0))[0]
        cells = [
            {"cell_id": f"0:{repeat}", "dataset_ref": dataset.abbreviation,
             "algorithm": "DP", "label": "DP", "repeat": repeat}
            for repeat in range(2)
        ]
        settings = ExperimentRunner(("DP",), random_state=0)._settings()
        coordinator = GridCoordinator(
            cells, {dataset.abbreviation: dataset}, settings
        ).start()
        # Request 1 registers; request 2 is the first lease, sent twice.
        schedule = ScriptedSchedule(["relay", "duplicate"])
        proxy = FaultProxy(*coordinator.address, schedule=schedule).start()
        client = WorkerClient(*proxy.address, poll_interval=0.02)
        thread = threading.Thread(target=client.run, daemon=True)
        thread.start()
        try:
            results = coordinator.wait(timeout=20.0, poll=0.05)
        finally:
            client.stop()
            thread.join(timeout=10)
            proxy.stop()
            coordinator.stop()
        assert schedule.log[1] == ("/cell/lease", "duplicate")
        assert set(results) == {"0:0", "0:1"}
        counters = coordinator.queue.counters()
        assert (counters["n_requeued"], counters["n_expired_leases"]) == (1, 0)
