"""Tests for the JSON/HTTP serving front end (``repro.serving.http``) and
the threaded server base it shares with the distributed servers."""

from __future__ import annotations

import collections
import contextlib
import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.config import FrameworkConfig
from repro.core.framework import SelfLearningEncodingFramework
from repro.datasets.synthetic import make_overlapping_binary_clusters
from repro.distributed import GridCoordinator
from repro.distributed.worker import _StandbyServer
from repro.serving import BatchFuser, EncodingService
from repro.serving.http import EncodingHTTPServer, build_server


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


@pytest.fixture()
def server_stack(fitted):
    framework, data = fitted
    service = EncodingService()
    service.register("ir", framework)
    fuser = BatchFuser(service, max_batch_rows=64, max_wait_ms=5)
    server = build_server(service, fuser=fuser, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    yield service, framework, data, base
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def _coordinator_server(address):
    cell = {"cell_id": "0:0", "dataset_ref": "IR", "algorithm": "DP",
            "label": "DP", "repeat": 0}
    host, port = address
    coordinator = GridCoordinator([cell], {"IR": None}, {}, host=host, port=port)
    return coordinator._server


#: Every threaded server in the repo, with a POST route that reads a JSON
#: body: all of them run on ``wire.JsonHTTPServer``/``JsonRequestHandler``.
WIRE_SERVERS = {
    "encoding": (
        lambda address: EncodingHTTPServer(address, EncodingService()),
        "/encode",
    ),
    "coordinator": (_coordinator_server, "/worker/heartbeat"),
    "standby": (_StandbyServer, "/join"),
}


@pytest.fixture(params=list(WIRE_SERVERS))
def wire_server(request):
    """One of :data:`WIRE_SERVERS`, running; yields ``(address, route)``."""
    make_server, route = WIRE_SERVERS[request.param]
    server = make_server(("127.0.0.1", 0))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.server_address[:2], route
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def get_json(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=10) as response:
        return json.load(response)


def post_json(url: str, payload: dict) -> dict:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.load(response)


def raw_post(address, route: str, headers: dict, body: bytes = b""):
    """POST with hand-rolled headers (http.client would insert a correct
    Content-Length, which is exactly what the framing tests must be able
    to omit or corrupt); returns ``(status, payload)``."""
    connection = http.client.HTTPConnection(*address, timeout=10)
    try:
        connection.putrequest("POST", route, skip_accept_encoding=True)
        for name, value in headers.items():
            connection.putheader(name, value)
        connection.endheaders()
        if body:
            connection.send(body)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def post_error(url: str, body: bytes) -> tuple[int, dict]:
    request = urllib.request.Request(url, data=body)
    try:
        urllib.request.urlopen(request, timeout=10)
    except urllib.error.HTTPError as exc:
        return exc.code, json.load(exc)
    raise AssertionError("expected an HTTP error")


class TestRoutes:
    def test_healthz(self, server_stack):
        _, _, _, base = server_stack
        payload = get_json(base + "/healthz")
        assert payload == {"status": "ok", "models": ["ir"]}

    def test_models(self, server_stack):
        _, framework, _, base = server_stack
        payload = get_json(base + "/models")
        info = payload["models"]["ir"]
        assert info["estimator"] == "SelfLearningEncodingFramework"
        assert info["fast_path"] is True
        assert info["n_features"] == 6
        assert info["n_hidden"] == 4
        assert info["dtype"] == "float64"

    def test_stats_shape(self, server_stack):
        _, _, _, base = server_stack
        payload = get_json(base + "/stats")
        assert set(payload) == {"models", "cache", "fusion", "admission"}
        assert "ir" in payload["models"]
        assert payload["fusion"]["max_batch_rows"] == 64
        assert "entries" in payload["cache"]

    def test_unknown_route(self, server_stack):
        _, _, _, base = server_stack
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(base + "/nope")
        assert excinfo.value.code == 404

    def test_unsupported_method_is_501(self, server_stack):
        _, _, _, base = server_stack
        host, port = base.removeprefix("http://").split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            connection.request("DELETE", "/encode")
            assert connection.getresponse().status == 501
        finally:
            connection.close()


class TestEncodeRoute:
    def test_encode_matches_direct_service_call(self, server_stack):
        service, framework, data, base = server_stack
        matrix = data[:7].tolist()
        payload = post_json(base + "/encode", {"model": "ir", "data": matrix})
        direct = service.encode("ir", np.asarray(matrix), use_cache=False)
        assert payload["model"] == "ir"
        assert payload["shape"] == list(direct.shape)
        assert payload["dtype"] == str(direct.dtype)
        assert payload["fused"] is True
        np.testing.assert_array_equal(np.asarray(payload["features"]), direct)

    def test_concurrent_http_clients_fuse(self, server_stack):
        service, framework, data, base = server_stack
        n_clients = 4
        barrier = threading.Barrier(n_clients)
        outputs: dict[int, np.ndarray] = {}
        errors: list[BaseException] = []

        def client(index: int) -> None:
            barrier.wait()
            try:
                chunk = data[index * 5 : (index + 1) * 5].tolist()
                response = post_json(
                    base + "/encode",
                    {"model": "ir", "data": chunk, "use_cache": False},
                )
                outputs[index] = np.asarray(response["features"])
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(n_clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors[0]
        for index in range(n_clients):
            expected = framework.transform(data[index * 5 : (index + 1) * 5])
            np.testing.assert_allclose(outputs[index], expected)

    def test_unknown_model_is_404(self, server_stack):
        _, _, data, base = server_stack
        code, payload = post_error(
            base + "/encode",
            json.dumps({"model": "missing", "data": data[:2].tolist()}).encode(),
        )
        assert code == 404
        assert "missing" in payload["error"]

    def test_missing_fields_are_400(self, server_stack):
        _, _, data, base = server_stack
        code, payload = post_error(
            base + "/encode", json.dumps({"data": data[:2].tolist()}).encode()
        )
        assert code == 400
        code, payload = post_error(
            base + "/encode", json.dumps({"model": "ir"}).encode()
        )
        assert code == 400
        assert "data" in payload["error"]

    def test_invalid_json_is_400(self, server_stack):
        _, _, _, base = server_stack
        code, payload = post_error(base + "/encode", b"this is not json")
        assert code == 400
        assert "JSON" in payload["error"]

    def test_wrong_width_is_400(self, server_stack):
        _, _, _, base = server_stack
        code, _ = post_error(
            base + "/encode",
            json.dumps({"model": "ir", "data": [[1.0, 2.0]]}).encode(),
        )
        assert code == 400

    def test_post_to_unknown_route_is_404(self, server_stack):
        _, _, _, base = server_stack
        code, _ = post_error(base + "/models", json.dumps({}).encode())
        assert code == 404

    def test_keep_alive_survives_unknown_route_post(self, server_stack):
        # The body of a rejected POST must be drained, or the next request
        # on the same persistent connection is parsed out of the leftover
        # body bytes.
        _, _, _, base = server_stack
        host, port = base.removeprefix("http://").split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            connection.request(
                "POST", "/nope", body=json.dumps({"x": 1}),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 404
            response.read()
            connection.request("GET", "/healthz")
            followup = connection.getresponse()
            assert followup.status == 200
            assert json.loads(followup.read())["status"] == "ok"
        finally:
            connection.close()


class TestWithoutFusion:
    def test_server_without_fuser_encodes_directly(self, fitted):
        framework, data = fitted
        service = EncodingService()
        service.register("ir", framework)
        server = build_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            payload = post_json(
                base + "/encode", {"model": "ir", "data": data[:3].tolist()}
            )
            assert payload["fused"] is False
            stats = get_json(base + "/stats")
            assert stats["fusion"] is None
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


class TestRequestHardening:
    """Malformed framing must get an error response, never a hung thread.

    The body rules live in the request handler base every server shares,
    so the framing tests run against each of them.
    """

    @pytest.mark.parametrize(
        "headers, body, message",
        [
            ({}, b"", "Content-Length"),
            ({"Content-Length": "not-a-number"}, b"", "Content-Length"),
            ({"Content-Length": "-5"}, b"", "Content-Length"),
            ({"Content-Length": "1e6"}, b"", "Content-Length"),
            ({"Content-Length": "0"}, b"", "JSON body"),
            ({"Content-Length": "6"}, b"[1, 2]", "JSON object"),
        ],
        ids=["missing-length", "non-numeric-length", "negative-length",
             "float-length", "empty", "not-an-object"],
    )
    def test_bad_request_is_400(self, wire_server, headers, body, message):
        address, route = wire_server
        status, payload = raw_post(address, route, headers, body)
        assert status == 400
        assert message in payload["error"]

    def test_oversized_body_is_413_and_closes(self, wire_server):
        from repro.serving.wire import MAX_BODY_BYTES

        address, route = wire_server
        # Rejected from the header alone; the unread body would desync a
        # keep-alive connection, so the server closes it.
        head = (
            f"POST {route} HTTP/1.1\r\nHost: test\r\n"
            f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n"
        )
        with socket.create_connection(address, timeout=10) as sock:
            sock.sendall(head.encode("latin-1"))
            with sock.makefile("rb") as stream:
                response = stream.read()  # returns once the server closes
        assert response.startswith(b"HTTP/1.1 413")
        assert b"exceeds" in response

    def test_invalid_json_keeps_the_connection_usable(self, wire_server):
        address, route = wire_server
        connection = http.client.HTTPConnection(*address, timeout=10)
        try:
            connection.request("POST", route, body=b"not json")
            response = connection.getresponse()
            assert response.status == 400
            assert "not valid JSON" in json.loads(response.read())["error"]
            connection.request("GET", "/healthz")
            followup = connection.getresponse()
            followup.read()
            assert followup.status == 200
        finally:
            connection.close()

    def test_oversized_post_to_unknown_route_is_404_not_hang(self, server_stack):
        from repro.serving.http import MAX_BODY_BYTES

        _, _, _, base = server_stack
        host, port = base.removeprefix("http://").split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            connection.putrequest("POST", "/nope", skip_accept_encoding=True)
            connection.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            connection.endheaders()
            response = connection.getresponse()
            # drain_body() cannot consume a body past the cap; the route
            # error wins and the connection is severed instead of read dry.
            assert response.status == 404
        finally:
            connection.close()

    def test_server_stays_responsive_after_rejections(self, server_stack):
        _, _, data, base = server_stack
        host, port = base.removeprefix("http://").split(":")
        raw_post((host, int(port)), "/encode", {"Content-Length": "garbage"})
        payload = post_json(
            base + "/encode", {"model": "ir", "data": data[:2].tolist()}
        )
        assert payload["model"] == "ir"


def keep_alive_seconds(address, method, route, body=None) -> float:
    """Seconds taken by 20 back-to-back requests on one connection."""
    connection = http.client.HTTPConnection(*address, timeout=10)
    try:
        start = time.perf_counter()
        for _ in range(20):
            connection.request(method, route, body=body)
            response = connection.getresponse()
            response.read()
            assert response.status == 200
        return time.perf_counter() - start
    finally:
        connection.close()


class TestKeepAlive:
    """Back-to-back requests on one keep-alive connection must not stall.

    A response is written as the head and then the body.  With Nagle's
    algorithm on, the body waited for the client's delayed ACK of the head,
    about 40 ms per request: 20 requests took 0.84–0.92 s.
    """

    def test_twenty_requests_on_one_connection(self, wire_server):
        address, _ = wire_server
        elapsed = keep_alive_seconds(address, "GET", "/healthz")
        assert elapsed < 0.4, f"20 keep-alive requests took {elapsed:.2f}s"

    def test_twenty_encode_requests_on_one_connection(self, server_stack):
        _, _, data, base = server_stack
        body = json.dumps({"model": "ir", "data": data[:3].tolist()})
        host, port = base.removeprefix("http://").split(":")
        elapsed = keep_alive_seconds((host, int(port)), "POST", "/encode", body)
        assert elapsed < 0.4, f"20 keep-alive requests took {elapsed:.2f}s"


HEALTHZ_THEN_CLOSE = (
    b"GET /healthz HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
)


def response_status(sock: socket.socket, deadline: float) -> str:
    """Status code of the response on ``sock``, or the error's name."""
    try:
        sock.settimeout(max(deadline - time.monotonic(), 0.01))
        with sock.makefile("rb") as stream:
            response = stream.read()  # Connection: close -> read to EOF
    except OSError as exc:
        return type(exc).__name__
    return response.split(b" ", 2)[1].decode() if response else "EOF"


class TestConnectBurst:
    """A burst of simultaneous connects is queued, not reset.

    Every threaded server in the repo inherits its listen backlog from
    ``wire.JsonHTTPServer``.  At the stdlib backlog of 5, each of these
    servers left 61–78 connections of this burst unanswered after 10 s.
    """

    N_CONNECTIONS = 120

    def test_every_connection_is_answered(self, wire_server):
        address, _ = wire_server
        sockets = [socket.socket() for _ in range(self.N_CONNECTIONS)]
        try:
            for sock in sockets:
                # Non-blocking: every SYN is out before the first accept.
                sock.setblocking(False)
                sock.connect_ex(address)
            deadline = time.monotonic() + 10.0
            for sock in sockets:
                sock.settimeout(max(deadline - time.monotonic(), 0.01))
                # A failed send shows up as a failed read below.
                with contextlib.suppress(OSError):
                    sock.sendall(HEALTHZ_THEN_CLOSE)
            outcomes = [response_status(sock, deadline) for sock in sockets]
        finally:
            for sock in sockets:
                sock.close()
        assert collections.Counter(outcomes) == {"200": self.N_CONNECTIONS}
