"""HTTP front end for the serving stack: ``python -m repro serve``.

A deliberately dependency-free JSON-over-HTTP layer built on the stdlib
:class:`http.server.ThreadingHTTPServer` — one handler thread per
connection, which is exactly the concurrency shape the
:class:`~repro.serving.fusion.BatchFuser` coalesces: simultaneous ``/encode``
requests for the same model are answered by shared fused matmuls.  The
request/response plumbing (JSON bodies, Content-Length validation, the
413 size cap, the listen backlog, Nagle off) lives in
:mod:`repro.serving.wire`, shared with the distributed experiment
protocol.

The route table lives in the request handler; what a request passes
through besides connection I/O — admission control, deadline budgets,
encode dispatch and the ``/models``/``/stats`` snapshots — lives in
:class:`ServingGateway`.  The gateway dispatches to a *backend*:
:class:`LocalEncodeBackend` (an in-process :class:`EncodingService`,
optionally fused) or the multi-process
:class:`~repro.serving.shard.ShardPool`.

Routes
------
``GET /healthz``
    Liveness probe: ``{"status": "ok", "models": [...]}``.
``GET /models``
    Registered model names and per-model serving configuration.
``GET /stats``
    Per-model counters (including the queue/compute split and fusion
    ratio), cache counters and the fuser configuration.
``POST /encode``
    Body ``{"model": name, "data": [[...], ...], "use_cache": true,
    "deadline_ms": 50}`` (the last two optional); responds
    ``{"features": [[...], ...], "shape": [n, k], "dtype": ...}``.

Overload protection: a server built with ``max_in_flight`` answers
``503`` with a ``Retry-After`` header once that many ``/encode`` requests
are in flight, instead of queueing unboundedly until every client times
out.  A request carrying ``deadline_ms`` is shed the same way when its
budget is spent before compute can start — on the fused path the budget
caps the coalescing wait, on the unfused path it is enforced at compute
start (covering the wait for the model's compute lock).  Shed/admitted
counters appear under ``"admission"`` in ``/stats``.  A server built with
``secret`` requires the ``X-Repro-Secret`` header everywhere except
``/healthz``.

Shutdown ordering: ``shutdown()`` first stops the accept loop, then
drains the in-flight ``/encode`` requests, and only then closes the
fuser — closing first would answer the in-flight requests with spurious
errors from a dead fusion queue.

Error mapping: unknown model name → 404, invalid input or body → 400,
missing/bad secret → 401, oversized body → 413, overload, spent deadline
or a closing server → 503 (+ ``Retry-After``), anything else → 500; every
error body is ``{"error": message}``.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.exceptions import (
    DeadlineExceededError,
    ServingError,
    ValidationError,
)
from repro.serving.fusion import BatchFuser, FuserClosedError
from repro.serving.service import EncodingService
from repro.serving.stats import AdmissionStats
from repro.serving.wire import (
    MAX_BODY_BYTES,
    JsonHTTPServer,
    JsonRequestHandler,
    PayloadTooLargeError,
)
from repro.utils.validation import check_positive_int

__all__ = [
    "EncodingHTTPServer",
    "DeadlineExceededError",
    "LocalEncodeBackend",
    "ServingGateway",
    "build_server",
    "MAX_BODY_BYTES",
]


class LocalEncodeBackend:
    """In-process encode backend: an :class:`EncodingService` + optional fuser.

    The default backend of the HTTP front end.  ``/encode`` requests
    whose ``use_cache`` matches the fuser's configuration go through the
    fusion queue (concurrent requests share one stacked matmul, the
    deadline budget caps the coalescing wait); mismatching requests fall
    back to a direct ``service.encode`` with the budget enforced at
    compute start.
    """

    def __init__(
        self, service: EncodingService, fuser: BatchFuser | None = None
    ) -> None:
        if fuser is not None and fuser.service is not service:
            raise ValidationError("fuser must wrap the same EncodingService")
        self.service = service
        self.fuser = fuser

    @property
    def model_names(self) -> list[str]:
        return self.service.model_names

    def encode_request(
        self, name: str, request: dict, budget_ms: float | None
    ) -> dict:
        if "data" not in request:
            raise ValidationError("request must carry a 'data' matrix")
        data = np.asarray(request["data"], dtype=float)
        use_cache = bool(request.get("use_cache", True))
        used_fuser = self.fuser is not None and use_cache == self.fuser.use_cache
        if used_fuser:
            features = self.fuser.encode(name, data, max_wait_ms=budget_ms)
        else:
            features = self.service.encode(
                name, data, use_cache=use_cache, budget_ms=budget_ms
            )
        return {
            "model": name,
            "features": features.tolist(),
            "shape": list(features.shape),
            "dtype": str(features.dtype),
            "fused": used_fuser,
        }

    def describe_models(self) -> dict:
        return self.service.describe_models()

    def describe_stats(self) -> dict:
        payload = {
            "models": self.service.stats(),
            "cache": self.service.cache_info,
            "fusion": None,
        }
        if self.fuser is not None:
            payload["fusion"] = {
                "max_batch_rows": self.fuser.max_batch_rows,
                "max_wait_ms": self.fuser.max_wait_ms,
                "use_cache": self.fuser.use_cache,
            }
        return payload

    def close(self) -> None:
        if self.fuser is not None:
            self.fuser.close()


class ServingGateway:
    """Serving logic behind the HTTP routes: admission, deadlines, dispatch.

    Owned by one :class:`EncodingHTTPServer` and dispatching to exactly
    one backend (local service or shard pool), so the admission and
    deadline rules are the same whichever backend answers.
    """

    def __init__(
        self,
        backend,
        *,
        max_in_flight: int | None = None,
        retry_after: float = 1.0,
    ) -> None:
        self.backend = backend
        self.max_in_flight = (
            check_positive_int(max_in_flight, name="max_in_flight")
            if max_in_flight is not None
            else None
        )
        if retry_after <= 0:
            raise ValidationError(f"retry_after must be > 0, got {retry_after}")
        self.retry_after = float(retry_after)
        self.admission = AdmissionStats()
        self._slots = (
            threading.BoundedSemaphore(self.max_in_flight)
            if self.max_in_flight is not None
            else None
        )

    # ------------------------------------------------------------ admission
    @property
    def retry_after_header(self) -> int:
        """``Retry-After`` is specified in whole seconds; round up."""
        return max(1, int(-(-self.retry_after // 1)))

    def try_admit(self) -> bool:
        """Claim an in-flight slot (non-blocking); False sheds the request."""
        if self._slots is not None and not self._slots.acquire(blocking=False):
            self.admission.shed()
            return False
        self.admission.admitted()
        return True

    def release_request(self) -> None:
        self.admission.released()
        if self._slots is not None:
            self._slots.release()

    # ------------------------------------------------------------- dispatch
    @property
    def model_names(self) -> list[str]:
        return self.backend.model_names

    def handle_encode(self, request: dict, *, arrival: float | None = None) -> dict:
        name = request.get("model")
        if not isinstance(name, str) or not name:
            raise ValidationError("request must name a 'model' (non-empty string)")
        budget_ms = self._remaining_budget_ms(request, arrival)
        try:
            return self.backend.encode_request(name, request, budget_ms)
        except DeadlineExceededError:
            # The budget died inside the backend (waiting on the compute
            # lock, or reported back by a shard worker); count it here so
            # every deadline shed lands in one counter regardless of where
            # it was detected.
            self.admission.deadline_shed()
            raise

    def _remaining_budget_ms(
        self, request: dict, arrival: float | None
    ) -> float | None:
        """What is left of the request's ``deadline_ms`` budget (None: no
        deadline).  A spent budget raises :class:`DeadlineExceededError`
        (counted as a deadline shed) instead of computing a result the
        client has already given up on."""
        deadline_ms = request.get("deadline_ms")
        if deadline_ms is None:
            return None
        try:
            deadline_ms = float(deadline_ms)
        except (TypeError, ValueError):
            raise ValidationError(
                f"deadline_ms must be a positive number, got {deadline_ms!r}"
            ) from None
        if deadline_ms <= 0:
            raise ValidationError(
                f"deadline_ms must be a positive number, got {deadline_ms!r}"
            )
        elapsed_ms = (
            (time.monotonic() - arrival) * 1000.0 if arrival is not None else 0.0
        )
        remaining = deadline_ms - elapsed_ms
        if remaining <= 0:
            self.admission.deadline_shed()
            raise DeadlineExceededError(
                f"deadline budget of {deadline_ms:g}ms was spent before "
                f"compute started ({elapsed_ms:.1f}ms elapsed)"
            )
        return remaining

    # -------------------------------------------------------- introspection
    def describe_models(self) -> dict:
        return self.backend.describe_models()

    def describe_stats(self) -> dict:
        payload = self.backend.describe_stats()
        payload["admission"] = {
            "max_in_flight": self.max_in_flight,
            "retry_after": self.retry_after,
            **self.admission.as_dict(),
        }
        return payload

    # ------------------------------------------------------------ lifecycle
    def drain(self, timeout: float | None = 10.0) -> bool:
        """Wait for every in-flight ``/encode`` request to release its slot."""
        return self.admission.wait_idle(timeout)

    def close(self) -> None:
        """Tear down the backend (flush/close the fuser, stop shard workers).

        Call only after the front end has stopped accepting and
        :meth:`drain` returned — in-flight requests still own the backend.
        """
        self.backend.close()


class _EncodingRequestHandler(JsonRequestHandler):
    server_version = "repro-serve/1.0"

    # ------------------------------------------------------------- routes
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        gateway: ServingGateway = self.server.gateway  # type: ignore[attr-defined]
        if self.path == "/healthz":
            # Liveness stays open: probes should not need the secret.
            self.send_json(
                200, {"status": "ok", "models": gateway.model_names}
            )
        elif not self.authorize():
            return
        elif self.path == "/models":
            self.send_json(200, {"models": gateway.describe_models()})
        elif self.path == "/stats":
            self.send_json(200, gateway.describe_stats())
        else:
            self.send_error_json(404, f"unknown route {self.path!r}")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        if not self.authorize():
            return
        if self.path != "/encode":
            self.drain_body()
            self.send_error_json(404, f"unknown route {self.path!r}")
            return
        gateway: ServingGateway = self.server.gateway  # type: ignore[attr-defined]
        arrival = time.monotonic()
        if not gateway.try_admit():
            # Shed before reading the body: an overloaded server should do
            # the least possible work per rejected request.
            self.drain_body()
            self.send_json(
                503,
                {"error": "server is at capacity (max_in_flight reached)"},
                headers={"Retry-After": gateway.retry_after_header},
            )
            return
        try:
            request = self.read_json_body()
            response = gateway.handle_encode(request, arrival=arrival)
        except (DeadlineExceededError, FuserClosedError) as exc:
            self.send_json(
                503,
                {"error": str(exc)},
                headers={"Retry-After": gateway.retry_after_header},
            )
        except ServingError as exc:
            self.send_error_json(404, str(exc))
        except PayloadTooLargeError as exc:
            self.send_error_json(413, str(exc))
        except (ValidationError, ValueError, TypeError) as exc:
            self.send_error_json(400, str(exc))
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            self.send_error_json(500, f"{type(exc).__name__}: {exc}")
        else:
            self.send_json(200, response)
        finally:
            gateway.release_request()


class EncodingHTTPServer(JsonHTTPServer):
    """Threaded HTTP server wrapping an :class:`EncodingService`.

    Parameters
    ----------
    address : (host, port)
        Bind address; port 0 picks an ephemeral port (``server_port`` holds
        the bound one).
    service : EncodingService, optional
        The model registry answering the requests (``None`` only when a
        pre-built ``gateway`` with its own backend is supplied).
    fuser : BatchFuser, optional
        When given, ``/encode`` requests go through the fusion queue so
        concurrent requests for the same model share one matmul; without
        it each request is encoded directly.
    gateway : ServingGateway, optional
        Pre-built gateway (e.g. wrapping a
        :class:`~repro.serving.shard.ShardPool`); mutually exclusive with
        ``service``/``fuser``/``max_in_flight``/``retry_after``.
    max_in_flight : int, optional
        Admission-control bound: at most this many ``/encode`` requests are
        processed concurrently; excess requests are answered ``503`` with a
        ``Retry-After`` header instead of queueing unboundedly.  ``None``
        (the default) disables the gate.
    retry_after : float, default 1.0
        Seconds advertised in the ``Retry-After`` header of shed requests.
    secret : str, optional
        Shared secret required (``X-Repro-Secret``) on every route except
        ``/healthz``.
    verbose : bool, default False
        Log one line per request to stderr (stdlib format).
    """

    def __init__(
        self,
        address: tuple[str, int],
        service: EncodingService | None = None,
        *,
        fuser: BatchFuser | None = None,
        gateway: ServingGateway | None = None,
        max_in_flight: int | None = None,
        retry_after: float = 1.0,
        secret: str | None = None,
        verbose: bool = False,
    ) -> None:
        if gateway is None:
            if service is None:
                raise ValidationError("either service or gateway is required")
            gateway = ServingGateway(
                LocalEncodeBackend(service, fuser),
                max_in_flight=max_in_flight,
                retry_after=retry_after,
            )
        elif service is not None or fuser is not None:
            raise ValidationError("pass either a gateway or a service, not both")
        self.gateway = gateway
        self.verbose = verbose
        self.auth_secret = str(secret) if secret else None
        self._shutdown_lock = threading.Lock()
        self._shut_down = False
        super().__init__(address, _EncodingRequestHandler)

    # ------------------------------------------------------------ lifecycle
    def shutdown(self, *, drain_timeout: float = 10.0) -> None:
        """Graceful stop: stop accepting, drain in-flight, close the fuser.

        The order is the point (and was once reversed, answering in-flight
        requests with spurious errors from an already-closed fuser):

        1. ``super().shutdown()`` stops the accept loop — no new requests;
        2. :meth:`ServingGateway.drain` waits for the admitted ``/encode``
           requests to finish (bounded by ``drain_timeout``);
        3. the gateway closes its backend — the fuser refuses further
           submissions and flushes whatever its lanes still hold.

        Idempotent: a second call returns immediately.
        """
        with self._shutdown_lock:
            if self._shut_down:
                return
            self._shut_down = True
        super().shutdown()
        self.gateway.drain(timeout=drain_timeout)
        self.gateway.close()


def build_server(
    service: EncodingService | None = None,
    *,
    fuser: BatchFuser | None = None,
    gateway: ServingGateway | None = None,
    host: str = "127.0.0.1",
    port: int = 8000,
    max_in_flight: int | None = None,
    retry_after: float = 1.0,
    secret: str | None = None,
    verbose: bool = False,
) -> EncodingHTTPServer:
    """Bind an :class:`EncodingHTTPServer` (port 0 → ephemeral port)."""
    return EncodingHTTPServer(
        (host, port),
        service,
        fuser=fuser,
        gateway=gateway,
        max_in_flight=max_in_flight,
        retry_after=retry_after,
        secret=secret,
        verbose=verbose,
    )
