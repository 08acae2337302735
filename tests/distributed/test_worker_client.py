"""Worker-client hardening: transport retries, fatal statuses, the
heartbeat thread's survival guarantee and a stop that signals cannot
deadlock.

``request_json`` is monkeypatched with scripted responses, so every retry
path runs in milliseconds with no sockets.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time

import pytest

from repro.distributed import worker as worker_module
from repro.distributed.errors import DistributedError
from repro.distributed.worker import WorkerClient
from repro.serving.wire import WireError


def scripted(responses, calls):
    """A request_json stand-in replaying ``responses`` (exceptions raise)."""

    def fake_request_json(host, port, method, path, payload=None, **kwargs):
        calls.append({"path": path, "payload": payload,
                      "secret": kwargs.get("secret")})
        if not responses:
            raise AssertionError("unexpected extra request")
        entry = responses.pop(0)
        if isinstance(entry, Exception):
            raise entry
        return entry

    return fake_request_json


@pytest.fixture()
def client():
    return WorkerClient(
        "127.0.0.1", 1, worker_id="w-test",
        backoff_base=0.001, backoff_cap=0.002,
        max_consecutive_failures=3,
    )


class TestExchange:
    def test_retries_5xx_then_succeeds(self, client, monkeypatch):
        calls = []
        monkeypatch.setattr(
            worker_module, "request_json",
            scripted(
                [(500, {"error": "mid-restart"}),
                 (503, {"error": "still coming up"}),
                 (200, {"ok": True})],
                calls,
            ),
        )
        assert client._exchange("POST", "/cell/lease", {}) == {"ok": True}
        assert len(calls) == 3
        assert client._failures == 0  # success resets the streak

    def test_retries_transport_errors(self, client, monkeypatch):
        calls = []
        monkeypatch.setattr(
            worker_module, "request_json",
            scripted([WireError("reset"), (200, {"ok": True})], calls),
        )
        assert client._exchange("POST", "/cell/lease", {}) == {"ok": True}
        assert len(calls) == 2

    def test_gives_up_after_max_consecutive_failures(self, client, monkeypatch):
        monkeypatch.setattr(
            worker_module, "request_json",
            scripted([WireError("down")] * 10, []),
        )
        with pytest.raises(DistributedError, match="unreachable after 3"):
            client._exchange("POST", "/cell/lease", {})

    def test_401_is_fatal_immediately(self, client, monkeypatch):
        calls = []
        monkeypatch.setattr(
            worker_module, "request_json",
            scripted([(401, {"error": "bad secret"})], calls),
        )
        with pytest.raises(DistributedError, match="shared secret"):
            client._exchange("POST", "/worker/register", {})
        assert len(calls) == 1  # no retry: the refusal is deliberate

    def test_other_4xx_is_fatal_immediately(self, client, monkeypatch):
        monkeypatch.setattr(
            worker_module, "request_json",
            scripted([(400, {"error": "unknown cell id"})], []),
        )
        with pytest.raises(DistributedError, match="rejected"):
            client._exchange("POST", "/cell/result", {})

    def test_secret_travels_on_every_exchange(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            worker_module, "request_json",
            scripted([(200, {"ok": True})], calls),
        )
        client = WorkerClient("127.0.0.1", 1, secret="s3cret")
        client._exchange("POST", "/cell/lease", {})
        assert calls[0]["secret"] == "s3cret"


class TestHeartbeatGuard:
    def test_heartbeat_thread_survives_arbitrary_exceptions(self, monkeypatch):
        """A dead heartbeat thread silently expires every lease the worker
        holds; the loop must survive *any* exception, not just WireError."""
        attempts = []
        failures = [ValueError("surprise"), WireError("blip"),
                    RuntimeError("weird")]

        def flaky_request_json(*args, **kwargs):
            attempts.append(time.monotonic())
            if failures:
                raise failures.pop(0)
            return 200, {"renewed": 1}

        client = WorkerClient("127.0.0.1", 1, worker_id="w-test")
        client._heartbeat_interval = 0.01
        monkeypatch.setattr(worker_module, "request_json", flaky_request_json)
        thread = threading.Thread(target=client._heartbeat_loop, daemon=True)
        thread.start()
        deadline = time.monotonic() + 5.0
        # At least one successful beat after all three scripted failures
        # proves the loop outlived every exception class.
        while len(attempts) < 4 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert thread.is_alive()
        client.stop()
        thread.join(timeout=2)
        assert len(attempts) >= 4

    def test_stop_ends_the_loop(self, monkeypatch):
        monkeypatch.setattr(
            worker_module, "request_json",
            lambda *a, **k: (200, {"renewed": 0}),
        )
        client = WorkerClient("127.0.0.1", 1)
        client._heartbeat_interval = 0.01
        thread = threading.Thread(target=client._heartbeat_loop, daemon=True)
        thread.start()
        client.stop()
        thread.join(timeout=2)
        assert not thread.is_alive()


#: Installs the worker's stop handlers, then sends the process SIGTERM from
#: inside the stop update that ends ``WorkerClient.run`` — the moment the
#: runner's SIGTERM most often lands, right after the last result told the
#: worker to stop.  The handler calls ``client.stop()`` in the middle of it.
SIGTERM_INSIDE_STOP = """
import os, signal
from repro.distributed import worker

client = worker.WorkerClient("127.0.0.1", 1)
worker._current_client["client"] = client
worker._install_stop_signals()
request = client._stop
sender = request._sender


class SignallingSender:
    def send(self, data):
        os.kill(os.getpid(), signal.SIGTERM)
        return sender.send(data)


request._sender = SignallingSender()
request.set()
assert request.is_set() and request.wait(0)
print("stopped")
"""


class TestSignalSafeStop:
    def test_sigterm_inside_the_stop_update_does_not_deadlock(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(path for path in sys.path if path)
        process = subprocess.Popen(
            [sys.executable, "-c", SIGTERM_INSIDE_STOP],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            output, _ = process.communicate(timeout=15)
        except subprocess.TimeoutExpired:
            process.kill()
            process.communicate()
            pytest.fail("the SIGTERM handler deadlocked inside the stop update")
        assert process.returncode == 0, output
        assert output.strip() == "stopped"

    def test_stop_wakes_a_waiting_thread(self):
        client = WorkerClient("127.0.0.1", 1)
        woke = []
        thread = threading.Thread(target=lambda: woke.append(client._stop.wait(30)))
        thread.start()
        client.stop()
        thread.join(timeout=2)
        assert woke == [True]

    def test_stop_before_run_registers_nothing(self, monkeypatch):
        calls = []
        monkeypatch.setattr(worker_module, "request_json", scripted([], calls))
        client = WorkerClient("127.0.0.1", 1)
        client.stop()
        assert client.run() == {"n_cells_done": 0, "n_cells_failed": 0}
        assert calls == []
