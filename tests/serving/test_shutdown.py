"""Regression tests for graceful shutdown ordering.

``EncodingHTTPServer.shutdown()`` once closed the fuser *before* stopping
the accept loop, so requests in flight during shutdown were answered with
spurious errors from a dead fusion queue.  The contract under test: stop
accepting first, drain the admitted requests (they finish with real
responses), and only then close the fuser.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.core.config import FrameworkConfig
from repro.core.framework import SelfLearningEncodingFramework
from repro.datasets.synthetic import make_overlapping_binary_clusters
from repro.serving import BatchFuser, EncodingService
from repro.serving.fusion import FuserClosedError
from repro.serving.http import build_server


@pytest.fixture(scope="module")
def fitted():
    data, _ = make_overlapping_binary_clusters(
        50, 6, 2, flip_probability=0.1, random_state=0
    )
    config = FrameworkConfig(
        model="sls_rbm",
        preprocessing="median_binarize",
        supervision_preprocessing="standardize",
        n_hidden=4,
        n_epochs=2,
        random_state=0,
    )
    framework = SelfLearningEncodingFramework(config, n_clusters=2)
    framework.fit(data)
    return framework, data


def post(base, payload):
    request = urllib.request.Request(
        base + "/encode",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.load(response)


class TestShutdownUnderLoad:
    def test_in_flight_requests_drain_before_the_fuser_closes(self, fitted):
        framework, data = fitted
        service = EncodingService(cache_entries=0)
        service.register("ir", framework)

        # Slow every compute so the requests are reliably still in flight
        # when shutdown starts.
        original_compute = service._compute

        def slow_compute(runtime, matrix):
            time.sleep(0.15)
            return original_compute(runtime, matrix)

        service._compute = slow_compute

        fuser = BatchFuser(service, max_batch_rows=4096, max_wait_ms=20)
        server = build_server(service, fuser=fuser, port=0)
        serve_thread = threading.Thread(target=server.serve_forever, daemon=True)
        serve_thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"

        n_clients = 4
        results: list = [None] * n_clients

        def client(index: int) -> None:
            payload = {"model": "ir", "data": data[: 2 + index].tolist()}
            try:
                results[index] = post(base, payload)
            except Exception as exc:  # noqa: BLE001 - asserted below
                results[index] = exc

        clients = [
            threading.Thread(target=client, args=(i,)) for i in range(n_clients)
        ]
        for thread in clients:
            thread.start()

        # Wait until every client's request is admitted (inside the server).
        deadline = time.monotonic() + 10
        while server.gateway.admission.as_dict()["n_admitted"] < n_clients:
            assert time.monotonic() < deadline, "clients were never admitted"
            time.sleep(0.005)

        # Shut down while all of them are still computing.  The graceful
        # ordering must let every one of them finish with a real response.
        server.shutdown()

        for thread in clients:
            thread.join(timeout=30)
        server.server_close()
        serve_thread.join(timeout=5)

        for result in results:
            assert not isinstance(result, Exception), f"client failed: {result}"
            status, body = result
            assert status == 200
            expected = framework.transform(body_rows(body, data))
            assert np.array_equal(np.asarray(body["features"]), expected)

        # Only after the drain is the fuser closed.
        assert fuser.closed
        assert server.gateway.admission.as_dict()["in_flight"] == 0

    def test_shutdown_is_idempotent(self, fitted):
        framework, _ = fitted
        service = EncodingService()
        service.register("ir", framework)
        fuser = BatchFuser(service)
        server = build_server(service, fuser=fuser, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        server.shutdown()
        server.shutdown()  # second call returns immediately
        server.server_close()
        thread.join(timeout=5)
        assert fuser.closed


def body_rows(body: dict, data: np.ndarray) -> np.ndarray:
    """The input rows a response was computed from (clients send prefixes)."""
    n_rows = body["shape"][0]
    return data[:n_rows]


class TestFuserClosed:
    def test_submit_after_close_raises(self, fitted):
        framework, data = fitted
        service = EncodingService()
        service.register("ir", framework)
        fuser = BatchFuser(service)
        fuser.close()
        with pytest.raises(FuserClosedError):
            fuser.submit("ir", data[:3])

    def test_close_is_idempotent_and_flushes(self, fitted):
        framework, data = fitted
        service = EncodingService()
        service.register("ir", framework)
        fuser = BatchFuser(service, max_batch_rows=4096, max_wait_ms=1000)
        ticket = fuser.submit("ir", data[:3])
        fuser.close()
        fuser.close()
        assert ticket.done
        assert np.array_equal(ticket.result(), framework.transform(data[:3]))
