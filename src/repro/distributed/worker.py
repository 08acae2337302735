"""Experiment worker: ``python -m repro worker`` (or ``repro-worker``).

A worker executes grid cells for a :class:`~repro.distributed.coordinator.
GridCoordinator`.  Two modes share one pull loop:

* **connect mode** (``--connect HOST:PORT``): dial the coordinator, pull
  cells until it says stop, exit;
* **standby mode** (``--listen PORT``): serve a tiny control endpoint and
  wait; an :class:`ExperimentRunner` with ``workers=["host:port", ...]``
  POSTs ``/join {"coordinator": "host:port"}`` and the worker runs that
  grid, then returns to standby for the next one.

The pull loop is where the fault-tolerance contract is honoured from the
worker side: a background thread heartbeats at a fraction of the lease
timeout so only a *dead* worker ever lets a lease lapse; transport failures
reconnect with capped exponential backoff; SIGTERM/SIGINT finish the cell
in flight, say goodbye (releasing leases instantly) and exit 0.

Cells execute through the exact machinery of the in-process runner
(:func:`repro.experiments.runner._run_repeat`) with a per-process cache of
supervisions and of the last trained encoder, so a cell computes
bit-identical results no matter which host it lands on.
"""

from __future__ import annotations

import argparse
import os
import socket
import subprocess
import sys
import threading
import time
import urllib.parse
import uuid

from repro.distributed.errors import DistributedError, WorkerJoinError
from repro.distributed.messages import (
    PROTOCOL_VERSION,
    cell_from_wire,
    check_protocol,
    dataset_from_wire,
    error_to_wire,
    outcome_to_wire,
    settings_from_wire,
)
from repro.exceptions import ValidationError
from repro.experiments.runner import _CellCache, _run_repeat
from repro.serving.wire import (
    JsonHTTPServer,
    JsonRequestHandler,
    PayloadTooLargeError,
    WireError,
    request_json,
)

__all__ = [
    "WorkerClient",
    "LoopbackWorkerPool",
    "spawn_loopback_workers",
    "dial_standby_workers",
    "parse_address",
    "main",
]


def parse_address(value: str) -> tuple[str, int]:
    """``"host:port"`` → ``(host, port)`` with validation."""
    host, separator, port = str(value).rpartition(":")
    if not separator or not host:
        raise ValidationError(f"expected HOST:PORT, got {value!r}")
    try:
        return host, int(port)
    except ValueError:
        raise ValidationError(f"invalid port in address {value!r}") from None


def _default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


class WorkerClient:
    """Pull-loop client executing cells for one coordinator.

    Parameters
    ----------
    host, port : coordinator address.
    worker_id : str, optional
        Stable identity used for leases and heartbeats (default:
        hostname-pid-random).
    poll_interval : float
        Sleep between lease attempts while the queue is momentarily empty.
    backoff_base, backoff_cap : float
        Exponential reconnect schedule on transport failures:
        ``min(cap, base * 2**k)`` seconds after the k-th consecutive
        failure.
    max_consecutive_failures : int
        Give up (raise :class:`DistributedError`) after this many failed
        exchanges in a row — the coordinator is gone, not busy.
    secret : str, optional
        Shared secret sent in the ``X-Repro-Secret`` header on every
        exchange (required by coordinators started with one).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        worker_id: str | None = None,
        poll_interval: float = 0.05,
        backoff_base: float = 0.1,
        backoff_cap: float = 5.0,
        max_consecutive_failures: int = 12,
        verbose: bool = False,
        secret: str | None = None,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.worker_id = worker_id or _default_worker_id()
        self.poll_interval = float(poll_interval)
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self.max_consecutive_failures = int(max_consecutive_failures)
        self.verbose = verbose
        self.secret = str(secret) if secret else None
        self._stop = threading.Event()
        self._failures = 0
        self._settings: dict | None = None
        self._heartbeat_interval = 1.0
        self._datasets: dict[str, object] = {}
        self._cache = _CellCache()
        self.n_cells_done = 0
        self.n_cells_failed = 0

    # -------------------------------------------------------------- plumbing
    def stop(self) -> None:
        """Ask the loop to exit after the cell in flight (signal-safe)."""
        self._stop.set()

    def _log(self, message: str) -> None:
        if self.verbose:
            print(f"[worker {self.worker_id}] {message}", flush=True)

    def _exchange(self, method: str, path: str, payload: dict | None = None) -> dict:
        """One request with capped exponential backoff on transport errors.

        HTTP 5xx responses retry through the same backoff as transport
        failures: a coordinator mid-restart (or a flaky proxy in between)
        answers 500s briefly, and giving up on the first one would turn a
        transient blip into a lost worker.  4xx responses stay fatal — the
        coordinator understood the request and refused it.
        """
        while True:
            failure: str | None = None
            try:
                status, body = request_json(
                    self.host,
                    self.port,
                    method,
                    path,
                    payload,
                    timeout=30.0,
                    secret=self.secret,
                )
            except WireError as exc:
                failure = str(exc)
            else:
                if status == 401:
                    raise DistributedError(
                        f"coordinator {self.host}:{self.port} rejected the "
                        f"shared secret (401): {body.get('error', body)}"
                    )
                if status < 500:
                    if status != 200:
                        raise DistributedError(
                            f"coordinator rejected {method} {path}: "
                            f"{status} {body.get('error', body)}"
                        )
                    self._failures = 0
                    return body
                failure = f"HTTP {status} {body.get('error', body)}"
            self._failures += 1
            if self._failures >= self.max_consecutive_failures:
                raise DistributedError(
                    f"coordinator {self.host}:{self.port} unreachable "
                    f"after {self._failures} attempts: {failure}"
                )
            delay = min(
                self.backoff_cap,
                self.backoff_base * (2 ** (self._failures - 1)),
            )
            self._log(f"transport error ({failure}); retrying in {delay:.2f}s")
            if self._stop.wait(delay):
                raise DistributedError("worker stopped during reconnect")

    # ------------------------------------------------------------- heartbeat
    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self._heartbeat_interval):
            try:
                request_json(
                    self.host,
                    self.port,
                    "POST",
                    "/worker/heartbeat",
                    {"worker_id": self.worker_id},
                    timeout=10.0,
                    secret=self.secret,
                )
            except Exception as exc:  # noqa: BLE001 - thread must survive
                # The pull loop owns reconnect policy; a missed heartbeat
                # just shortens the lease margin.  Catching *everything*
                # (not only WireError) keeps the thread alive — a dead
                # heartbeat thread silently expires every lease the worker
                # holds while it keeps computing, wasting whole cells.
                self._log(f"heartbeat failed ({type(exc).__name__}: {exc})")

    # -------------------------------------------------------------- datasets
    def _dataset(self, ref: str):
        dataset = self._datasets.get(ref)
        if dataset is None:
            payload = self._exchange(
                "GET", "/dataset/" + urllib.parse.quote(ref, safe="")
            )
            dataset = dataset_from_wire(payload)
            self._datasets[ref] = dataset
            self._log(f"fetched dataset {ref} "
                      f"({dataset.n_samples} x {dataset.n_features})")
        return dataset

    # ------------------------------------------------------------------ cells
    def _execute(self, cell: dict) -> bool:
        """Run one cell and report it; returns True when the coordinator
        said to stop (this result completed or aborted the grid)."""
        try:
            # The dataset fetch sits *inside* the try: a transfer that fails
            # its integrity digest (or an OSError mid-download) must reach
            # the coordinator as a classified cell error so the retry policy
            # can re-run the cell elsewhere, not kill the worker.
            dataset = self._dataset(cell["dataset_ref"])
            outcome = _run_repeat(
                dataset,
                cell["algorithm"],
                cell["repeat"],
                self._settings,
                self._cache,
                label=cell["label"],
            )
        except Exception as exc:  # noqa: BLE001 - reported to the coordinator
            self.n_cells_failed += 1
            self._log(f"cell {cell['cell_id']} failed: {exc}")
            response = self._exchange(
                "POST",
                "/cell/error",
                error_to_wire(cell["cell_id"], self.worker_id, exc),
            )
            # A transient failure keeps the worker in the grid (the cell
            # retries, possibly here); only an aborting coordinator stops it.
            return bool(response.get("stop", True))
        response = self._exchange(
            "POST",
            "/cell/result",
            {
                "worker_id": self.worker_id,
                "cell_id": cell["cell_id"],
                "outcome": outcome_to_wire(outcome),
            },
        )
        self.n_cells_done += 1
        state = "merged" if response.get("accepted") else "duplicate"
        self._log(f"cell {cell['cell_id']} done ({state})")
        return bool(response.get("stop"))

    # -------------------------------------------------------------------- run
    def run(self) -> dict:
        """Register, pull cells until the coordinator says stop, say bye.

        Returns the worker-side counters (cells done/failed).
        """
        registration = self._exchange(
            "POST",
            "/worker/register",
            {"protocol": PROTOCOL_VERSION, "worker_id": self.worker_id},
        )
        check_protocol(registration, side="coordinator")
        self._settings = settings_from_wire(registration["settings"])
        self._heartbeat_interval = float(
            registration.get("heartbeat_interval", 1.0)
        )
        self._log(
            f"registered at {self.host}:{self.port} "
            f"({registration.get('n_cells')} cells in the grid)"
        )
        heartbeat = threading.Thread(
            target=self._heartbeat_loop,
            name=f"heartbeat-{self.worker_id}",
            daemon=True,
        )
        heartbeat.start()
        try:
            while not self._stop.is_set():
                response = self._exchange(
                    "POST", "/cell/lease", {"worker_id": self.worker_id}
                )
                if response.get("stop"):
                    break
                cell_payload = response.get("cell")
                if cell_payload is None:
                    # Momentarily drained queue: other workers hold the
                    # remaining leases; poll again shortly.
                    self._stop.wait(self.poll_interval)
                    continue
                if self._execute(cell_from_wire(cell_payload)):
                    break
        finally:
            self._stop.set()
            heartbeat.join(timeout=2)
            try:
                request_json(
                    self.host,
                    self.port,
                    "POST",
                    "/worker/bye",
                    {"worker_id": self.worker_id},
                    timeout=5.0,
                    secret=self.secret,
                )
            except WireError:
                pass  # leases expire on their own
        self._log(f"done ({self.n_cells_done} cells)")
        return {
            "n_cells_done": self.n_cells_done,
            "n_cells_failed": self.n_cells_failed,
        }


# ------------------------------------------------------------ loopback pool
class LoopbackWorkerPool:
    """Local worker subprocesses for single-machine distributed runs."""

    def __init__(self, processes: list[subprocess.Popen]) -> None:
        self.processes = processes

    def __len__(self) -> int:
        return len(self.processes)

    @property
    def n_alive(self) -> int:
        return sum(1 for process in self.processes if process.poll() is None)

    def kill_one(self) -> int:
        """SIGKILL the first live worker (fault-injection hook for tests);
        returns its pid."""
        for process in self.processes:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)
                return process.pid
        raise DistributedError("no live worker to kill")

    def terminate(self, timeout: float = 10.0) -> None:
        """Stop every worker: SIGTERM, then SIGKILL stragglers."""
        for process in self.processes:
            if process.poll() is None:
                process.terminate()
        deadline = time.monotonic() + timeout
        for process in self.processes:
            remaining = max(0.1, deadline - time.monotonic())
            try:
                process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:  # pragma: no cover - last resort
                process.kill()
                process.wait(timeout=5)


def spawn_loopback_workers(
    n_workers: int,
    coordinator_address: str,
    *,
    poll_interval: float = 0.05,
    verbose: bool = False,
    secret: str | None = None,
) -> LoopbackWorkerPool:
    """Start ``n_workers`` local ``python -m repro worker`` subprocesses.

    The child inherits the parent's import path (``PYTHONPATH`` is extended
    with the live ``sys.path``), so the stack is testable from a source
    checkout without installation.  ``secret`` travels via the
    ``REPRO_SECRET`` environment variable, not argv (``ps`` would show it).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [path for path in sys.path if path] +
        [path for path in env.get("PYTHONPATH", "").split(os.pathsep) if path]
    )
    if secret:
        env["REPRO_SECRET"] = str(secret)
    command = [
        sys.executable, "-m", "repro", "worker",
        "--connect", coordinator_address,
        "--poll-interval", str(poll_interval),
    ]
    if verbose:
        command.append("--verbose")
    processes = [
        subprocess.Popen(
            command,
            env=env,
            stdout=None if verbose else subprocess.DEVNULL,
            stderr=None if verbose else subprocess.DEVNULL,
        )
        for _ in range(int(n_workers))
    ]
    return LoopbackWorkerPool(processes)


def dial_standby_workers(
    addresses: list[str],
    coordinator_address: str,
    *,
    timeout: float = 10.0,
    secret: str | None = None,
) -> None:
    """Tell each standby worker (``--listen``) to join a coordinator.

    A worker still winding down its previous grid answers 409 for a
    moment (it clears its busy flag right after saying goodbye to the old
    coordinator), so busy/unreachable workers are retried with backoff for
    up to ``timeout`` seconds before :class:`WorkerJoinError` is raised.
    ``secret`` authenticates the join against a worker started with one
    (the worker then uses its own secret toward the coordinator).
    """
    for address in addresses:
        host, port = parse_address(address)
        deadline = time.monotonic() + timeout
        delay = 0.05
        while True:
            failure = None
            try:
                status, body = request_json(
                    host,
                    port,
                    "POST",
                    "/join",
                    {
                        "protocol": PROTOCOL_VERSION,
                        "coordinator": coordinator_address,
                    },
                    timeout=timeout,
                    secret=secret,
                )
            except WireError as exc:
                failure = f"standby worker {address} is unreachable: {exc}"
            else:
                if status == 200:
                    break
                failure = (
                    f"standby worker {address} refused to join: "
                    f"{status} {body.get('error', body)}"
                )
            if time.monotonic() >= deadline:
                raise WorkerJoinError(failure)
            time.sleep(delay)
            delay = min(1.0, delay * 2)


# ------------------------------------------------------------- standby mode
class _StandbyRequestHandler(JsonRequestHandler):
    server_version = "repro-worker/1.0"

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        if self.path == "/healthz":
            busy = self.server.busy.is_set()  # type: ignore[attr-defined]
            self.send_json(
                200,
                {
                    "status": "busy" if busy else "idle",
                    "protocol": PROTOCOL_VERSION,
                },
            )
        else:
            self.send_error_json(404, f"unknown route {self.path!r}")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        if not self.authorize():
            return
        if self.path != "/join":
            self.drain_body()
            self.send_error_json(404, f"unknown route {self.path!r}")
            return
        try:
            request = self.read_json_body()
            check_protocol(request, side="runner")
            coordinator = parse_address(request.get("coordinator") or "")
        except PayloadTooLargeError as exc:
            self.send_error_json(413, str(exc))
            return
        except (ValidationError, ValueError, TypeError) as exc:
            self.send_error_json(400, str(exc))
            return
        server = self.server  # type: ignore[assignment]
        if server.busy.is_set():
            self.send_error_json(409, "worker is busy with another grid")
            return
        server.pending_coordinator = coordinator
        server.busy.set()
        # Set the event *before* writing the response: a runner that sees
        # the 200 must be able to rely on the join being underway, and on a
        # single-core host it can act on the response before this handler
        # thread would otherwise be scheduled again.
        server.join_event.set()
        self.send_json(200, {"ok": True})


class _StandbyServer(JsonHTTPServer):
    def __init__(self, address, secret: str | None = None) -> None:
        self.join_event = threading.Event()
        self.busy = threading.Event()
        self.pending_coordinator: tuple[str, int] | None = None
        self.verbose = False
        self.auth_secret = secret
        super().__init__(address, _StandbyRequestHandler)


def _run_standby(args: argparse.Namespace) -> int:
    server = _StandbyServer((args.host, args.listen), secret=args.secret)
    server.verbose = args.verbose
    thread = threading.Thread(
        target=server.serve_forever, name="repro-worker-standby", daemon=True
    )
    thread.start()
    host, port = server.server_address[:2]
    print(f"worker standing by on http://{host}:{port} "
          "(POST /join {\"coordinator\": \"host:port\"})", flush=True)
    stop = threading.Event()
    _install_stop_signals(stop.set)
    try:
        while not stop.is_set():
            if not server.join_event.wait(timeout=0.2):
                continue
            server.join_event.clear()
            coordinator = server.pending_coordinator
            if coordinator is None:  # pragma: no cover - defensive
                server.busy.clear()
                continue
            client = WorkerClient(
                *coordinator,
                worker_id=args.worker_id,
                poll_interval=args.poll_interval,
                verbose=args.verbose,
                secret=args.secret,
            )
            _current_client["client"] = client
            try:
                counters = client.run()
                print(f"grid finished: {counters['n_cells_done']} cells",
                      flush=True)
            except DistributedError as exc:
                print(f"grid aborted: {exc}", file=sys.stderr, flush=True)
            finally:
                _current_client["client"] = None
                server.busy.clear()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    return 0


# ----------------------------------------------------------------- CLI entry
#: The client currently executing (so signal handlers can reach it).
_current_client: dict = {"client": None}


def _install_stop_signals(also=None) -> None:
    import signal

    def _graceful(signum, frame):  # noqa: ARG001 - signal signature
        client = _current_client.get("client")
        if client is not None:
            client.stop()
        if also is not None:
            also()

    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(signum, _graceful)
        except ValueError:  # pragma: no cover - non-main thread
            return


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro worker",
        description="Execute experiment grid cells for a coordinator.",
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--connect",
        metavar="HOST:PORT",
        help="pull cells from this coordinator, exit when the grid is done",
    )
    mode.add_argument(
        "--listen",
        type=int,
        metavar="PORT",
        help="standby mode: wait for a runner to POST /join (0 = ephemeral)",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address in standby mode")
    parser.add_argument("--worker-id", default=None,
                        help="stable worker identity (default: host-pid-random)")
    parser.add_argument("--poll-interval", type=float, default=0.05,
                        help="seconds between lease polls when idle")
    parser.add_argument("--secret", default=os.environ.get("REPRO_SECRET"),
                        help="shared secret for coordinator auth (default: "
                             "the REPRO_SECRET environment variable)")
    parser.add_argument("--verbose", action="store_true",
                        help="log one line per cell")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``python -m repro worker`` / ``repro-worker``."""
    args = build_parser().parse_args(argv)
    if args.listen is not None:
        return _run_standby(args)
    host, port = parse_address(args.connect)
    client = WorkerClient(
        host,
        port,
        worker_id=args.worker_id,
        poll_interval=args.poll_interval,
        verbose=args.verbose,
        secret=args.secret,
    )
    _current_client["client"] = client
    _install_stop_signals()
    try:
        counters = client.run()
    except DistributedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        _current_client["client"] = None
    print(f"worker finished: {counters['n_cells_done']} cell(s) executed, "
          f"{counters['n_cells_failed']} failed", flush=True)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(main())
