"""Overload protection of the serving front end: admission control,
deadline budgets and shared-secret auth.

The admission gate is driven deterministically by claiming slots through
``try_admit`` directly — no racing threads needed to observe a full server.
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
from repro.exceptions import ValidationError
from repro.serving import BatchFuser, EncodingService
from repro.serving.http import DeadlineExceededError, build_server
from repro.serving.stats import AdmissionStats
from repro.serving.wire import SECRET_HEADER

SECRET = "serving-secret"


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


def serve(service, **kwargs):
    server = build_server(service, port=0, **kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread, f"http://127.0.0.1:{server.server_address[1]}"


@pytest.fixture()
def gated_stack(fitted):
    framework, data = fitted
    service = EncodingService()
    service.register("ir", framework)
    fuser = BatchFuser(service, max_batch_rows=64, max_wait_ms=5)
    server, thread, base = serve(
        service, fuser=fuser, max_in_flight=2, retry_after=2.5
    )
    yield server, framework, data, base
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def post(base, payload, headers=None):
    request = urllib.request.Request(
        base + "/encode",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.load(response)


def post_error(base, payload, headers=None):
    try:
        post(base, payload, headers)
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), json.load(exc)
    raise AssertionError("expected an HTTP error")


class TestAdmissionGate:
    def test_full_server_sheds_with_retry_after(self, gated_stack):
        server, _, data, base = gated_stack
        gateway = server.gateway
        payload = {"model": "ir", "data": data[:3].tolist()}
        assert gateway.try_admit() and gateway.try_admit()  # occupy both slots
        try:
            code, headers, body = post_error(base, payload)
            assert code == 503
            assert headers["Retry-After"] == "3"  # ceil(2.5)
            assert "capacity" in body["error"]
        finally:
            gateway.release_request()
            gateway.release_request()
        # With the slots free again the same request succeeds.
        assert post(base, payload)["model"] == "ir"

    def test_stats_expose_the_admission_counters(self, gated_stack):
        server, _, data, base = gated_stack
        server.gateway.try_admit()
        server.gateway.try_admit()
        try:
            post_error(base, {"model": "ir", "data": data[:3].tolist()})
        finally:
            server.gateway.release_request()
            server.gateway.release_request()
        post(base, {"model": "ir", "data": data[:3].tolist()})
        # The slot is released just after the response is written.
        assert server.gateway.admission.wait_idle(timeout=5.0)
        with urllib.request.urlopen(base + "/stats", timeout=10) as response:
            stats = json.load(response)
        admission = stats["admission"]
        assert admission["max_in_flight"] == 2
        assert admission["retry_after"] == 2.5
        assert admission["n_shed"] >= 1
        assert admission["n_admitted"] >= 1
        assert admission["in_flight"] == 0  # everything released

    def test_ungated_server_always_admits(self, fitted):
        framework, data = fitted
        service = EncodingService()
        service.register("ir", framework)
        server, thread, base = serve(service)
        try:
            for _ in range(4):
                assert post(base, {"model": "ir", "data": data[:2].tolist()})
            assert server.gateway.admission.as_dict()["n_shed"] == 0
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_invalid_max_in_flight_rejected(self, fitted):
        framework, _ = fitted
        service = EncodingService()
        service.register("ir", framework)
        with pytest.raises(ValidationError):
            build_server(service, port=0, max_in_flight=0)
        with pytest.raises(ValidationError, match="retry_after"):
            build_server(service, port=0, retry_after=0.0)


class TestDeadlineBudget:
    def test_spent_budget_is_shed_with_503(self, gated_stack):
        server, _, data, base = gated_stack
        # A microscopic budget is always spent by the time the body has
        # been read and parsed: deterministic deadline shedding.
        code, headers, body = post_error(
            base,
            {"model": "ir", "data": data[:3].tolist(), "deadline_ms": 1e-6},
        )
        assert code == 503
        assert "Retry-After" in headers
        assert "deadline" in body["error"]
        assert server.gateway.admission.as_dict()["n_deadline_shed"] >= 1
        # The slot is released just after the response is written.
        assert server.gateway.admission.wait_idle(timeout=5.0)
        assert server.gateway.admission.as_dict()["in_flight"] == 0

    def test_generous_budget_computes_normally(self, gated_stack):
        _, framework, data, base = gated_stack
        payload = post(
            base,
            {"model": "ir", "data": data[:4].tolist(), "use_cache": False,
             "deadline_ms": 60_000},
        )
        expected = framework.transform(data[:4])
        np.testing.assert_allclose(np.asarray(payload["features"]), expected)

    @pytest.mark.parametrize("deadline", [0, -5, "soon"])
    def test_invalid_deadline_is_400(self, gated_stack, deadline):
        _, _, data, base = gated_stack
        code, _, body = post_error(
            base,
            {"model": "ir", "data": data[:2].tolist(), "deadline_ms": deadline},
        )
        assert code == 400
        assert "deadline_ms" in body["error"]

    def test_remaining_budget_shrinks_with_elapsed_time(self, gated_stack):
        server, _, _, _ = gated_stack
        arrival = time.monotonic() - 0.05  # the request is 50ms old
        remaining = server.gateway._remaining_budget_ms(
            {"deadline_ms": 100.0}, arrival
        )
        assert 20.0 < remaining < 60.0

    def test_spent_budget_raises_and_counts(self, gated_stack):
        server, _, _, _ = gated_stack
        before = server.gateway.admission.as_dict()["n_deadline_shed"]
        with pytest.raises(DeadlineExceededError, match="budget"):
            server.gateway._remaining_budget_ms(
                {"deadline_ms": 10.0}, time.monotonic() - 1.0
            )
        assert server.gateway.admission.as_dict()["n_deadline_shed"] == before + 1


class TestAdmissionStatsUnit:
    def test_counters_and_peak(self):
        stats = AdmissionStats()
        stats.admitted()
        stats.admitted()
        stats.released()
        stats.shed()
        stats.deadline_shed()
        snapshot = stats.as_dict()
        assert snapshot == {
            "n_admitted": 2, "n_shed": 1, "n_deadline_shed": 1,
            "in_flight": 1, "peak_in_flight": 2,
        }


class TestServingAuth:
    @pytest.fixture()
    def secured(self, fitted):
        framework, data = fitted
        service = EncodingService()
        service.register("ir", framework)
        server, thread, base = serve(service, secret=SECRET)
        yield data, base
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    def test_healthz_stays_open(self, secured):
        _, base = secured
        with urllib.request.urlopen(base + "/healthz", timeout=10) as response:
            assert json.load(response)["status"] == "ok"

    def test_encode_requires_the_secret(self, secured):
        data, base = secured
        payload = {"model": "ir", "data": data[:2].tolist()}
        code, _, body = post_error(base, payload)
        assert code == 401
        assert "secret" in body["error"]
        response = post(base, payload, headers={SECRET_HEADER: SECRET})
        assert response["model"] == "ir"

    def test_wrong_secret_is_401(self, secured):
        data, base = secured
        code, _, _ = post_error(
            base,
            {"model": "ir", "data": data[:2].tolist()},
            headers={SECRET_HEADER: "wrong"},
        )
        assert code == 401

    def test_stats_requires_the_secret(self, secured):
        _, base = secured
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(base + "/stats", timeout=10)
        assert excinfo.value.code == 401
        request = urllib.request.Request(
            base + "/stats", headers={SECRET_HEADER: SECRET}
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            assert "admission" in json.load(response)
