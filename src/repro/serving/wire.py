"""Shared JSON-over-HTTP plumbing for the serving and distributed layers.

The encoding front end (:mod:`repro.serving.http`), its shard workers
(:mod:`repro.serving.shard`) and the distributed experiment
coordinator/worker protocol (:mod:`repro.distributed`) all run on the
stdlib threaded server and speak the same dialect: JSON request bodies,
JSON responses, keep-alive connections and explicit error mapping.  This
module holds the pieces they share:

* :class:`JsonHTTPServer` — the :class:`~http.server.ThreadingHTTPServer`
  base of every one of those servers: daemon handler threads, and a listen
  backlog deep enough that a burst of simultaneous connects is queued
  instead of reset;
* :class:`JsonRequestHandler` — a :class:`~http.server.BaseHTTPRequestHandler`
  base class with safe body reading (Content-Length validation so a missing
  or garbage header can never hang a blocking read, and a size cap answered
  with ``413 Payload Too Large``) and JSON response helpers;
* :exc:`PayloadTooLargeError` — the size-cap violation, mapped to 413 where a
  plain :class:`~repro.exceptions.ValidationError` maps to 400;
* :func:`request_json` — the matching stdlib client: one JSON request over a
  (reusable) :class:`http.client.HTTPConnection`, returning the decoded
  response and raising :exc:`WireError` on transport problems so callers can
  implement retry/backoff without fishing through ``OSError`` subclasses;
* **shared-secret auth** — a server exposing an ``auth_secret`` attribute
  makes :meth:`JsonRequestHandler.authorize` require the matching
  ``X-Repro-Secret`` header (constant-time compare, 401 on mismatch), and
  ``request_json(secret=...)`` sends it.  Loopback deployments leave the
  secret unset; anything bound to a routable address should set one.
"""

from __future__ import annotations

import hmac
import http.client
import json
import socket
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.exceptions import ReproError, ValidationError

__all__ = [
    "MAX_BODY_BYTES",
    "SECRET_HEADER",
    "PayloadTooLargeError",
    "WireError",
    "JsonHTTPServer",
    "JsonRequestHandler",
    "request_json",
]

#: Header carrying the shared secret on authenticated deployments.
SECRET_HEADER = "X-Repro-Secret"

#: Default request-body cap (64 MiB of JSON text).
MAX_BODY_BYTES = 64 * 1024 * 1024


class PayloadTooLargeError(ValidationError):
    """Request body exceeds the handler's size cap (HTTP 413)."""


class WireError(ReproError, ConnectionError):
    """A JSON/HTTP exchange failed at the transport level (connection
    refused or reset, timeout, or a non-JSON response body)."""


class JsonHTTPServer(ThreadingHTTPServer):
    """Threaded server base of every JSON/HTTP server in the repo.

    The stdlib listen backlog of 5 overflows as soon as more clients
    connect at once than the accept loop can take in one pass; the kernel
    then drops or resets the excess connections.  A backlog of 1024 (the
    kernel still caps it at ``net.core.somaxconn``) queues such a burst
    until the accept loop catches up.
    """

    daemon_threads = True
    request_queue_size = 1024


class JsonRequestHandler(BaseHTTPRequestHandler):
    """Request handler base speaking JSON bodies and JSON responses.

    Subclasses implement ``do_GET``/``do_POST`` on top of
    :meth:`read_json_body` and :meth:`send_json`; the owning server may
    expose a ``verbose`` attribute to gate stdlib per-request logging.
    """

    protocol_version = "HTTP/1.1"

    # A response goes out as two writes, the head and then the body.  With
    # Nagle's algorithm on, the body waits until the client ACKs the head,
    # and a client that has nothing to send delays that ACK by ~40 ms, so
    # every keep-alive request would stall for the delayed-ACK timeout.
    disable_nagle_algorithm = True

    #: Per-handler request-body cap; subclasses may override.
    max_body_bytes = MAX_BODY_BYTES

    # ---------------------------------------------------------------- logging
    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib name
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    # ------------------------------------------------------------------ auth
    def authorize(self) -> bool:
        """Enforce the server's shared secret, if it has one.

        Servers opt in by exposing a non-empty ``auth_secret`` attribute;
        the client must then send it in the :data:`SECRET_HEADER` header.
        The comparison is constant-time (:func:`hmac.compare_digest`), so a
        mismatching prefix leaks nothing through timing.  On mismatch a 401
        is sent, the connection is closed (any unread body would desync
        keep-alive) and ``False`` is returned — the handler must bail out.
        """
        secret = getattr(self.server, "auth_secret", None)
        if not secret:
            return True
        provided = self.headers.get(SECRET_HEADER) or ""
        if hmac.compare_digest(provided.encode("utf-8"), str(secret).encode("utf-8")):
            return True
        self.close_connection = True
        self.send_error_json(
            401, f"missing or invalid {SECRET_HEADER} shared secret"
        )
        return False

    # -------------------------------------------------------------- responses
    def send_json(
        self, status: int, payload: dict, *, headers: dict | None = None
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if headers:
            for name, value in headers.items():
                self.send_header(name, str(value))
        self.end_headers()
        self.wfile.write(body)

    def send_error_json(self, status: int, message: str) -> None:
        self.send_json(status, {"error": message})

    # ----------------------------------------------------------------- bodies
    def content_length(self) -> int:
        """Validated ``Content-Length`` of the current request.

        Raises :class:`ValidationError` (HTTP 400) when the header is
        missing, non-numeric or negative — a blocking ``rfile.read`` without
        a trustworthy length would hang the handler thread — and
        :class:`PayloadTooLargeError` (HTTP 413) when it exceeds
        :attr:`max_body_bytes`.
        """
        raw = self.headers.get("Content-Length")
        if raw is None:
            raise ValidationError("request requires a Content-Length header")
        try:
            length = int(raw)
        except ValueError:
            raise ValidationError(f"invalid Content-Length header {raw!r}") from None
        if length < 0:
            raise ValidationError(f"invalid Content-Length header {raw!r}")
        if length > self.max_body_bytes:
            # The unread body would desync a keep-alive connection (the next
            # request line would be parsed out of the body bytes), so force
            # this connection closed after the error response.
            self.close_connection = True
            raise PayloadTooLargeError(
                f"request body of {length} bytes exceeds the "
                f"{self.max_body_bytes}-byte limit"
            )
        return length

    def read_json_body(self) -> dict:
        """The request body decoded as a JSON object.

        Raises :class:`ValidationError` for an absent/invalid length or a
        body that is not a JSON object, :class:`PayloadTooLargeError` past
        the size cap.
        """
        length = self.content_length()
        if length == 0:
            raise ValidationError("request requires a JSON body")
        try:
            payload = json.loads(self.rfile.read(length).decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValidationError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ValidationError("request body must be a JSON object")
        return payload

    def drain_body(self) -> None:
        """Consume (or sever) an unread request body on a rejected route.

        Keeps the keep-alive connection in sync for the client's next
        request; bodies without a sane length close the connection instead.
        """
        try:
            length = self.content_length()
        except ValidationError:
            self.close_connection = True
            return
        if length > 0:
            self.rfile.read(length)


def request_json(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: dict | None = None,
    *,
    timeout: float = 30.0,
    connection: http.client.HTTPConnection | None = None,
    secret: str | None = None,
) -> tuple[int, dict]:
    """One JSON request/response exchange; returns ``(status, payload)``.

    Transport failures (refused/reset connections, timeouts, undecodable
    response bodies) raise :class:`WireError`; HTTP error statuses are
    returned to the caller, whose protocol decides what is fatal.  When
    ``connection`` is given it is reused (keep-alive) and left open; the
    caller owns its lifecycle.  ``secret`` (when set) is sent in the
    :data:`SECRET_HEADER` header for servers that require it.
    """
    own_connection = connection is None
    if own_connection:
        connection = http.client.HTTPConnection(host, port, timeout=timeout)
    body = None
    headers = {}
    if payload is not None:
        body = json.dumps(payload).encode("utf-8")
        headers["Content-Type"] = "application/json"
    if secret:
        headers[SECRET_HEADER] = secret
    try:
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        raw = response.read()
    except (OSError, http.client.HTTPException, socket.timeout) as exc:
        connection.close()
        raise WireError(f"{method} {host}:{port}{path} failed: {exc}") from exc
    finally:
        if own_connection:
            connection.close()
    try:
        decoded = json.loads(raw.decode("utf-8")) if raw else {}
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise WireError(
            f"{method} {host}:{port}{path} returned undecodable body: {exc}"
        ) from exc
    if not isinstance(decoded, dict):
        raise WireError(
            f"{method} {host}:{port}{path} returned a non-object JSON body"
        )
    return response.status, decoded
