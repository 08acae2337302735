"""Regression tests for deadline enforcement on the *unfused* encode path.

The front end computes each request's remaining ``deadline_ms`` budget, but
it was only enforced when the request went through the fuser (whose
``max_wait_ms`` caps the coalescing wait).  A request whose ``use_cache``
mismatched the fuser's configuration fell back to a direct
``service.encode`` that ignored the budget entirely — it could queue behind
slow requests on the model's compute lock for seconds and still burn
compute on an answer its client had long abandoned.  Now the budget travels
into :meth:`EncodingService.encode` and is enforced at compute start,
answering 503 + ``Retry-After`` and counting an admission deadline shed.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.config import FrameworkConfig
from repro.core.framework import SelfLearningEncodingFramework
from repro.datasets.synthetic import make_overlapping_binary_clusters
from repro.exceptions import DeadlineExceededError
from repro.serving import BatchFuser, EncodingService
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


class FakeClock:
    """Deterministic monotonic clock: returns queued ticks, then repeats."""

    def __init__(self, *ticks: float) -> None:
        self.ticks = list(ticks)

    def __call__(self) -> float:
        if len(self.ticks) > 1:
            return self.ticks.pop(0)
        return self.ticks[0]


class TestServiceBudget:
    def test_spent_budget_at_compute_start_raises(self, fitted):
        framework, data = fitted
        # encode() reads the clock at arrival, then again once it holds the
        # compute lock; one second elapses in between — far past a 50ms
        # budget.
        service = EncodingService(cache_entries=0, clock=FakeClock(0.0, 1.0))
        service.register("ir", framework)
        with pytest.raises(DeadlineExceededError, match="compute lock"):
            service.encode("ir", data[:3], budget_ms=50.0)

    def test_live_budget_computes_normally(self, fitted):
        framework, data = fitted
        service = EncodingService(cache_entries=0, clock=FakeClock(0.0))
        service.register("ir", framework)
        result = service.encode("ir", data[:3], budget_ms=50.0)
        assert np.array_equal(result, framework.transform(data[:3]))

    def test_cache_hit_beats_any_budget(self, fitted):
        framework, data = fitted
        service = EncodingService(clock=FakeClock(0.0, 1.0, 1.0, 1.0))
        service.register("ir", framework)
        service.encode("ir", data[:3])  # warm the cache
        # Same spent-budget clock as the raising test — but the hit wins.
        result = service.encode("ir", data[:3], budget_ms=50.0)
        assert np.array_equal(result, framework.transform(data[:3]))

    def test_no_budget_is_unbounded(self, fitted):
        framework, data = fitted
        service = EncodingService(cache_entries=0, clock=FakeClock(0.0, 99.0))
        service.register("ir", framework)
        result = service.encode("ir", data[:3])
        assert np.array_equal(result, framework.transform(data[:3]))


class TestUnfusedHTTPPath:
    def test_deadline_is_enforced_when_use_cache_mismatches_the_fuser(
        self, fitted
    ):
        framework, data = fitted
        service = EncodingService()
        service.register("ir", framework)
        fuser = BatchFuser(service, use_cache=True)
        server = build_server(service, fuser=fuser, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            # ``use_cache: false`` mismatches the fuser's config, so the
            # request takes the direct service.encode path.  Holding the
            # model's compute lock simulates queueing behind slow requests.
            runtime = service._models["ir"]
            release = threading.Event()

            def hold_lock() -> None:
                # Hold the compute lock well past the 100ms budget (but not
                # past the client's own socket timeout).
                with runtime.lock:
                    release.wait(0.4)

            holder = threading.Thread(target=hold_lock)
            holder.start()
            time.sleep(0.05)  # let the holder acquire the lock
            payload = {
                "model": "ir",
                "data": data[:3].tolist(),
                "use_cache": False,
                "deadline_ms": 100,
            }
            request = urllib.request.Request(
                base + "/encode",
                data=json.dumps(payload).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            try:
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(request, timeout=10)
            finally:
                release.set()
                holder.join(timeout=10)
            error = excinfo.value
            assert error.code == 503
            assert error.headers["Retry-After"] is not None
            body = json.load(error)
            assert "deadline budget" in body["error"]
            assert server.gateway.admission.as_dict()["n_deadline_shed"] == 1
        finally:
            release.set()
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_unfused_request_without_deadline_still_succeeds(self, fitted):
        framework, data = fitted
        service = EncodingService()
        service.register("ir", framework)
        fuser = BatchFuser(service, use_cache=True)
        server = build_server(service, fuser=fuser, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            payload = {
                "model": "ir",
                "data": data[:3].tolist(),
                "use_cache": False,
            }
            request = urllib.request.Request(
                base + "/encode",
                data=json.dumps(payload).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                body = json.load(response)
            assert body["fused"] is False
            assert np.array_equal(
                np.asarray(body["features"]), framework.transform(data[:3])
            )
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
