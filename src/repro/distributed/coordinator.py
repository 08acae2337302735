"""Grid coordinator: shards experiment cells to workers over JSON/HTTP.

The coordinator owns the full (dataset, algorithm, repeat) cell list of a
grid, a :class:`~repro.distributed.queue.LeaseQueue` tracking each cell's
state, and the merged results.  Workers *pull*: they register, lease cells,
stream back outcomes and heartbeat in between — the coordinator never dials
a worker mid-grid, so worker loss is detected purely by silence (lease
expiry) and tolerated by re-queueing.

Routes (all JSON; the plumbing is :mod:`repro.serving.wire`)
------------------------------------------------------------
``POST /worker/register``  ``{protocol, worker_id}`` →
    the run settings, the lease timeout and the heartbeat interval.
``POST /cell/lease``       ``{worker_id}`` →
    ``{"cell": {...}}``, ``{"idle": true}`` (nothing pending right now) or
    ``{"stop": true}`` (grid finished, failed or draining — disconnect).
    A lease the worker still holds is re-queued first: its grant was lost.
``POST /cell/result``      ``{worker_id, cell_id, outcome}`` →
    ``{"accepted": bool}`` (false: a duplicate of an already-merged cell).
``POST /cell/error``       ``{worker_id, cell_id, kind, error}`` →
    records the remote failure of a cell of this grid (400 for a missing
    id or an unknown cell).  Transient failures (see
    :func:`repro.resilience.classify_failure`) re-queue the cell with
    backoff up to ``max_cell_retries``; deterministic ones — or transient
    ones past the retry budget — abort the grid (they would fail on every
    retry).
``POST /worker/heartbeat`` ``{worker_id}`` → renews the worker's leases.
``POST /worker/bye``       ``{worker_id}`` → releases its leases instantly.
``GET  /dataset/<abbr>``   → the dataset: matrix and labels as their raw
    little-endian bytes, base64 text inside the JSON object (see
    :func:`repro.distributed.messages.dataset_to_wire`).  Workers cache it
    per grid, verifying its sha256 digest before trusting the copy.
``GET  /status`` / ``GET /healthz`` → queue counters / liveness.

Resilience:

* a ``journal`` path arms the :class:`~repro.resilience.GridJournal`
  write-ahead log — every accepted result is fsync'd before the worker sees
  the acknowledgement, and ``resume=True`` replays a prior journal so a
  coordinator killed mid-grid only re-runs the cells it had not yet merged;
* a per-worker :class:`~repro.resilience.CircuitBreaker` quarantines hosts
  that keep failing cells (``quarantine_after`` consecutive strikes): their
  leases are released, further lease polls answer ``{"stop": true}`` and
  ``/status`` lists them;
* a non-empty ``secret`` requires the ``X-Repro-Secret`` header (constant
  time compare, 401 on mismatch) on every route except ``/healthz``.

Determinism: results are keyed by cell id and later read back in the
*grid's* order, never in arrival order, and every float crosses the wire
bit-exactly (datasets as the matrix's own bytes, reports as shortest-repr
JSON numbers) — so the merged table is identical to the sequential run no
matter how cells interleave, expire, retry or duplicate.
"""

from __future__ import annotations

import contextlib
import signal
import threading
import time
import urllib.parse

from repro.distributed.errors import (
    CellExecutionError,
    CoordinatorDrained,
    DistributedError,
)
from repro.distributed.messages import (
    PROTOCOL_VERSION,
    cell_to_wire,
    check_protocol,
    dataset_to_wire,
    settings_to_wire,
)
from repro.distributed.queue import LeaseQueue
from repro.exceptions import ValidationError
from repro.resilience import (
    CircuitBreaker,
    GridJournal,
    RetryPolicy,
    classify_failure,
    grid_fingerprint,
)
from repro.serving.wire import (
    JsonHTTPServer,
    JsonRequestHandler,
    PayloadTooLargeError,
)

__all__ = ["GridCoordinator", "coordinator_signal_drain"]

#: Longest :meth:`GridCoordinator.dismiss` waits for workers to say bye.
_DISMISS_TIMEOUT = 1.0
#: Poll period of the serve loop's stop check and of the dismiss wait.
_POLL = 0.01


class _CoordinatorRequestHandler(JsonRequestHandler):
    server_version = "repro-coordinator/1.0"

    @property
    def coordinator(self) -> "GridCoordinator":
        return self.server.coordinator  # type: ignore[attr-defined]

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        if self.path == "/healthz":
            # Liveness stays unauthenticated: probes and load balancers
            # should not need the secret to tell alive from dead.
            self.send_json(
                200, {"status": "ok", "protocol": PROTOCOL_VERSION}
            )
        elif not self.authorize():
            return
        elif self.path == "/status":
            self.send_json(200, self.coordinator.describe())
        elif self.path.startswith("/dataset/"):
            name = urllib.parse.unquote(self.path[len("/dataset/"):])
            payload = self.coordinator.dataset_payload(name)
            if payload is None:
                self.send_error_json(404, f"unknown dataset {name!r}")
            else:
                self.send_json(200, payload)
        else:
            self.send_error_json(404, f"unknown route {self.path!r}")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        if not self.authorize():
            return
        route = self.coordinator.POST_ROUTES.get(self.path)
        if route is None:
            self.drain_body()
            self.send_error_json(404, f"unknown route {self.path!r}")
            return
        try:
            request = self.read_json_body()
            response = route(self.coordinator, request)
        except PayloadTooLargeError as exc:
            self.send_error_json(413, str(exc))
        except (ValidationError, ValueError, TypeError, KeyError) as exc:
            self.send_error_json(400, str(exc))
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            self.send_error_json(500, f"{type(exc).__name__}: {exc}")
        else:
            self.send_json(200, response)


class _CoordinatorHTTPServer(JsonHTTPServer):
    def __init__(
        self,
        address,
        coordinator: "GridCoordinator",
        verbose: bool,
        secret: str | None = None,
    ):
        self.coordinator = coordinator
        self.verbose = verbose
        self.auth_secret = secret
        super().__init__(address, _CoordinatorRequestHandler)


class GridCoordinator:
    """Fault-tolerant coordinator for one experiment grid.

    Parameters
    ----------
    cells : list of dict
        Cell descriptors (``cell_id``, ``dataset_ref``, ``algorithm``,
        ``label``, ``repeat``) in grid order, the order the journal
        fingerprint hashes; see
        :func:`repro.distributed.messages.cell_to_wire`.  Without
        ``groups`` they are also dispatched in this order.
    datasets : dict
        ``abbreviation -> Dataset`` for every ``dataset_ref`` used.
    settings : dict
        The runner settings workers execute cells with (the same dict
        :func:`repro.experiments.runner._run_repeat` takes).
    groups : dict, optional
        ``cell_id -> group key`` for the lease queue: cells are dispatched
        in ascending key order, and a worker gets more of the group it
        leased last (the runner groups the cells that share a trained
        encoder and ranks the longest groups first).  It travels beside
        the cell descriptors, not in them, so the journal fingerprint does
        not depend on it.  Without it the queue is plain FIFO.
    host, port : bind address (port 0 → ephemeral).
    lease_timeout : float
        Seconds without a heartbeat before a worker's cells are re-queued.
    clock : callable
        Monotonic time source (injectable for tests).
    journal : str, Path or GridJournal, optional
        Arms the write-ahead journal: every accepted result is fsync'd to
        this JSONL file before the worker's acknowledgement.  A path is
        opened with the grid's fingerprint; a ready-made
        :class:`~repro.resilience.GridJournal` is used as-is.
    resume : bool, default False
        Replay an existing journal before serving: replayed cells are
        pre-completed (never re-leased) and their outcomes merged verbatim.
        Requires ``journal``; refuses a journal whose fingerprint belongs
        to a different grid.
    max_cell_retries : int, default 2
        Transient-failure retries per cell; 0 restores strict fail-fast.
    retry_backoff : float, default 0.5
        Base delay (doubled per failure) before a retried cell re-enters
        the queue.
    quarantine_after : int, default 3
        Consecutive failures after which a worker is quarantined for the
        rest of the grid.
    secret : str, optional
        Shared secret required (``X-Repro-Secret``) on every route except
        ``/healthz``.
    """

    def __init__(
        self,
        cells: list[dict],
        datasets: dict,
        settings: dict,
        *,
        groups: dict | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_timeout: float = 30.0,
        clock=time.monotonic,
        verbose: bool = False,
        journal=None,
        resume: bool = False,
        max_cell_retries: int = 2,
        retry_backoff: float = 0.5,
        quarantine_after: int = 3,
        secret: str | None = None,
    ) -> None:
        if not cells:
            raise ValidationError("a grid needs at least one cell")
        self._cells = {cell["cell_id"]: dict(cell) for cell in cells}
        if len(self._cells) != len(cells):
            raise ValidationError("cell ids must be unique")
        missing = {
            cell["dataset_ref"] for cell in cells
        } - set(datasets)
        if missing:
            raise ValidationError(f"cells reference unknown datasets {sorted(missing)}")
        self._datasets = dict(datasets)
        self._settings_wire = settings_to_wire(settings)
        self.queue = LeaseQueue(
            [cell["cell_id"] for cell in cells],
            lease_timeout=lease_timeout,
            clock=clock,
            groups=groups,
        )
        self.lease_timeout = float(lease_timeout)
        self.retry_policy = RetryPolicy(
            max_cell_retries, backoff_base=retry_backoff
        )
        self.breaker = CircuitBreaker(quarantine_after)
        self.secret = str(secret) if secret else None
        self._cell_failures: dict[str, int] = {}
        self._results: dict[str, dict] = {}
        self._results_lock = threading.Lock()
        self._workers: set[str] = set()
        self._failure: str | None = None
        self._draining = False
        self._done_event = threading.Event()
        self.verbose = verbose
        self.journal: GridJournal | None = None
        self.n_replayed = 0
        if journal is not None:
            if isinstance(journal, GridJournal):
                self.journal = journal
            else:
                self.journal = GridJournal(
                    journal,
                    fingerprint=grid_fingerprint(cells, settings, datasets),
                    resume=resume,
                )
            # Replayed cells are merged up front and never leased again; a
            # crash-resumed grid only runs the remainder.
            for cell_id, outcome in self.journal.replayed.items():
                if cell_id in self._cells and self.queue.complete(
                    cell_id, "journal"
                ):
                    self._results[cell_id] = outcome
                    self.n_replayed += 1
        elif resume:
            raise ValidationError("resume=True requires a journal path")
        if self.queue.done:
            self._done_event.set()
        self._server = _CoordinatorHTTPServer(
            (host, port), self, verbose, secret=self.secret
        )
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------- lifecycle
    @property
    def address(self) -> tuple[str, int]:
        """Bound ``(host, port)`` of the coordinator server."""
        return self._server.server_address[:2]

    @property
    def address_string(self) -> str:
        host, port = self.address
        return f"{host}:{port}"

    def start(self) -> "GridCoordinator":
        """Serve in a background thread; returns self."""
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            # How often the loop checks for stop(): after dismiss() no
            # connection comes in to wake it sooner.
            kwargs={"poll_interval": _POLL},
            name="repro-coordinator",
            daemon=True,
        )
        self._thread.start()
        return self

    def dismiss(self, *, gone=None) -> None:
        """Tell every worker to stop, and keep serving until they are gone.

        A worker learns of the stop at its next exchange (an idle one at its
        next lease poll) and says bye.  Stopping the server first would
        leave a worker that was never told to stop retrying a vanished
        coordinator for its whole backoff, and a standby worker refusing
        the next grid meanwhile.  Gone means every registered worker has
        said bye, or ``gone()`` is true when given (the runner passes "no
        loopback worker process is alive", which also covers one that has
        not registered yet and one that died).  The wait is bounded by one
        second, so a worker that died without a bye costs at most that.
        """
        self.drain()
        if gone is None:
            def gone():
                return not self._workers
        deadline = time.monotonic() + _DISMISS_TIMEOUT
        while not gone() and time.monotonic() < deadline:
            time.sleep(_POLL)

    def stop(self) -> None:
        """Shut the server down, close the journal, join the thread."""
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        if self.journal is not None:
            self.journal.close()

    def drain(self) -> None:
        """Stop handing out cells; workers disconnect at their next poll."""
        self._draining = True
        self._done_event.set()

    @property
    def draining(self) -> bool:
        return self._draining

    # -------------------------------------------------------------- handlers
    def handle_register(self, request: dict) -> dict:
        check_protocol(request, side="worker")
        worker_id = str(request.get("worker_id") or "")
        if not worker_id:
            raise ValidationError("register requires a worker_id")
        self._workers.add(worker_id)
        if self.verbose:  # pragma: no cover - cosmetic
            print(f"[coordinator] worker {worker_id} registered")
        return {
            "protocol": PROTOCOL_VERSION,
            "settings": self._settings_wire,
            "lease_timeout": self.lease_timeout,
            # Workers renew well inside the timeout so only real silence
            # (a dead process, a partition) ever expires a lease.
            "heartbeat_interval": max(self.lease_timeout / 4.0, 0.05),
            "n_cells": self.queue.n_cells,
        }

    def handle_lease(self, request: dict) -> dict:
        worker_id = str(request.get("worker_id") or "")
        if not worker_id:
            raise ValidationError("lease requires a worker_id")
        if self.breaker.is_quarantined(worker_id):
            # A quarantined host gets a clean stop instead of an error: its
            # in-flight work was already released and the grid finishes on
            # the healthy workers.
            return {"stop": True, "quarantined": True}
        if self._draining or self._failure is not None or self.queue.done:
            return {"stop": True}
        cell_id = self.queue.lease(worker_id)
        if cell_id is None:
            # Nothing pending: either the grid is finishing on other
            # workers (idle-poll until done) or everything is leased out.
            return {"stop": False, "idle": True}
        cell = self._cells[cell_id]
        return {
            "stop": False,
            "cell": cell_to_wire(
                cell_id,
                dataset_ref=cell["dataset_ref"],
                algorithm=cell["algorithm"],
                label=cell["label"],
                repeat=cell["repeat"],
            ),
        }

    def handle_result(self, request: dict) -> dict:
        worker_id = str(request.get("worker_id") or "")
        cell_id = str(request.get("cell_id") or "")
        outcome = request.get("outcome")
        if not worker_id or not cell_id or not isinstance(outcome, dict):
            raise ValidationError(
                "result requires worker_id, cell_id and an outcome object"
            )
        if cell_id not in self._cells:
            raise ValidationError(f"unknown cell id {cell_id!r}")
        if self.journal is not None:
            # Write-ahead: the fsync happens *before* the completion is
            # recorded or acknowledged, so a coordinator killed right after
            # this line still owns the result on resume.  (A journal-write
            # failure turns into a 500; the worker retries the delivery.)
            self.journal.record_result(cell_id, outcome)
        accepted = self.queue.complete(cell_id, worker_id)
        self.breaker.record_success(worker_id)
        if accepted:
            with self._results_lock:
                self._results[cell_id] = outcome
            if self.queue.done:
                self._done_event.set()
        if self.verbose:  # pragma: no cover - cosmetic
            state = "merged" if accepted else "duplicate (discarded)"
            print(f"[coordinator] {cell_id} from {worker_id}: {state}")
        # Telling the worker that delivered the last result to stop right
        # here (instead of at its next lease poll) closes the window where
        # it would race the coordinator's teardown and burn its reconnect
        # backoff on a server that is gone.
        return {
            "accepted": accepted,
            "stop": self._draining or self._failure is not None or self.queue.done,
        }

    def handle_error(self, request: dict) -> dict:
        worker_id = str(request.get("worker_id") or "")
        cell_id = str(request.get("cell_id") or "")
        if not worker_id or not cell_id:
            raise ValidationError("error report requires worker_id and cell_id")
        # Validated before anything is counted: a report naming no cell of
        # this grid must not strike the worker or abort the grid.  A known
        # cell the worker no longer holds is still a real failure report.
        if cell_id not in self._cells:
            raise ValidationError(f"unknown cell id {cell_id!r}")
        error = str(request.get("error") or "unknown error")
        kind = str(request.get("kind") or "")
        transient = classify_failure(kind, error)
        n_failures = self._cell_failures.get(cell_id, 0) + 1
        self._cell_failures[cell_id] = n_failures
        if self.journal is not None:
            self.journal.record_error(
                cell_id,
                worker_id=worker_id,
                kind=kind or "unknown",
                transient=transient,
            )
        if self.breaker.record_failure(worker_id):
            released = self.queue.release(worker_id)
            if self.verbose:  # pragma: no cover - cosmetic
                print(
                    f"[coordinator] worker {worker_id} quarantined after "
                    f"{self.breaker.threshold} consecutive failures "
                    f"({released} lease(s) re-queued)"
                )
        retried = False
        if transient and self.retry_policy.allows(n_failures):
            # requeue() returning False means the cell already completed on
            # another worker or is already queued for retry — either way
            # the failure is absorbed, not fatal.
            self.queue.requeue(
                cell_id, delay=self.retry_policy.delay(n_failures)
            )
            retried = True
            if self.verbose:  # pragma: no cover - cosmetic
                print(
                    f"[coordinator] {cell_id} failed transiently on "
                    f"{worker_id} ({kind or 'unknown'}); retry "
                    f"{n_failures}/{self.retry_policy.max_cell_retries}"
                )
        elif self._failure is None:
            # Fail fast: a deterministic error (or a transient one past its
            # retry budget) would reproduce on every worker.
            reason = (
                "transient, retries exhausted" if transient else "deterministic"
            )
            self._failure = (
                f"cell {cell_id!r} failed on worker {worker_id!r} "
                f"[{reason}]: {error}"
            )
            self._done_event.set()
        return {
            "ok": True,
            "retried": retried,
            "stop": (
                self._draining or self._failure is not None or self.queue.done
            ),
        }

    def handle_heartbeat(self, request: dict) -> dict:
        worker_id = str(request.get("worker_id") or "")
        if not worker_id:
            raise ValidationError("heartbeat requires a worker_id")
        renewed = self.queue.heartbeat(worker_id)
        return {
            "renewed": renewed,
            "stop": self._draining or self._failure is not None or self.queue.done,
        }

    def handle_bye(self, request: dict) -> dict:
        worker_id = str(request.get("worker_id") or "")
        if not worker_id:
            raise ValidationError("bye requires a worker_id")
        released = self.queue.release(worker_id)
        self._workers.discard(worker_id)
        if self.verbose:  # pragma: no cover - cosmetic
            print(f"[coordinator] worker {worker_id} left, "
                  f"{released} lease(s) re-queued")
        return {"released": released}

    POST_ROUTES = {
        "/worker/register": handle_register,
        "/cell/lease": handle_lease,
        "/cell/result": handle_result,
        "/cell/error": handle_error,
        "/worker/heartbeat": handle_heartbeat,
        "/worker/bye": handle_bye,
    }

    # ------------------------------------------------------------ inspection
    def dataset_payload(self, name: str) -> dict | None:
        dataset = self._datasets.get(name)
        if dataset is None:
            return None
        return dataset_to_wire(dataset)

    def describe(self) -> dict:
        return {
            "protocol": PROTOCOL_VERSION,
            "queue": self.queue.counters(),
            "n_workers": len(self._workers),
            "draining": self._draining,
            "failed": self._failure is not None,
            "done": self.queue.done,
            "quarantined_workers": self.breaker.quarantined,
            "n_journal_replayed": self.n_replayed,
            "journal": (
                str(self.journal.path) if self.journal is not None else None
            ),
            "secret_required": self.secret is not None,
        }

    # ------------------------------------------------------------ collection
    def wait(
        self,
        *,
        timeout: float | None = None,
        poll: float = 0.25,
        watchdog=None,
    ) -> dict:
        """Block until every cell completed; returns ``{cell_id: outcome}``.

        ``outcome`` values are the raw wire payloads (decode with
        :func:`repro.distributed.messages.outcome_from_wire`).  Raises
        :class:`CellExecutionError` when a worker reported a failure,
        :class:`CoordinatorDrained` after :meth:`drain` once in-flight
        leases have finished or expired, and :class:`DistributedError` on
        ``timeout``.  ``watchdog`` (when given) runs every poll iteration
        and may raise to abort the wait — the runner uses it to detect a
        loopback pool whose workers all died.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if watchdog is not None:
                watchdog()
            if self._failure is not None:
                raise CellExecutionError(self._failure)
            if self.queue.done:
                with self._results_lock:
                    return dict(self._results)
            if self._draining:
                # Give in-flight cells a chance to land, then report how
                # far the grid got.
                self.queue.expire_overdue()
                if self.queue.n_leased == 0:
                    counters = self.queue.counters()
                    raise CoordinatorDrained(
                        "coordinator drained with "
                        f"{counters['n_completed']}/{counters['n_cells']} "
                        "cells completed",
                        n_completed=counters["n_completed"],
                        n_total=counters["n_cells"],
                    )
            else:
                # Keep expiring even when no worker is polling, so a grid
                # whose workers all died surfaces in the counters.
                self.queue.expire_overdue()
            if deadline is not None and time.monotonic() >= deadline:
                counters = self.queue.counters()
                raise DistributedError(
                    f"grid did not complete within {timeout:.1f}s "
                    f"({counters['n_completed']}/{counters['n_cells']} cells)"
                )
            self._done_event.wait(poll)
            self._done_event.clear()


@contextlib.contextmanager
def coordinator_signal_drain(coordinator: GridCoordinator):
    """Drain the coordinator gracefully on SIGINT/SIGTERM.

    Installed around blocking :meth:`GridCoordinator.wait` calls in CLI
    paths (only the main thread may set signal handlers; library callers in
    other threads simply do not use this).  The first signal switches the
    grid into drain mode — no new leases, in-flight cells finish, partial
    results stay mergeable; a second signal falls through to the previous
    handler (typically KeyboardInterrupt).
    """
    seen = threading.Event()

    def _drain(signum, frame):  # noqa: ARG001 - signal signature
        if seen.is_set():
            previous = previous_handlers.get(signum)
            if callable(previous):
                previous(signum, frame)
            return
        seen.set()
        coordinator.drain()

    previous_handlers = {}
    try:
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous_handlers[signum] = signal.signal(signum, _drain)
    except ValueError:
        # Not the main thread: signals cannot be installed; run unguarded.
        yield
        return
    try:
        yield
    finally:
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)
