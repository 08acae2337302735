"""Concurrent batch fusion: coalesce encode requests into one matmul.

Production encode tiers see many small concurrent requests.  Answering each
one with its own forward pass pays the fixed numpy/BLAS call overhead per
request and serialises on the per-model compute lock anyway (the scratch
buffer is shared), so the hardware runs far below its matmul throughput.
:class:`BatchFuser` closes that gap: requests arriving from many threads are
parked in a bounded per-model queue (a *lane*), and whichever event fires
first — the accumulated rows reaching ``max_batch_rows`` or the oldest
request's ``max_wait_ms`` expiring — elects the triggering thread as the
*leader*, which drains the lane and answers every parked request with one
stacked forward pass through :meth:`EncodingService.encode_many`.

Correctness properties:

* **bit-equivalence** — preprocessing runs per request (it may be
  data-dependent), only the row-independent matmul+bias+sigmoid chain is
  fused, so every caller receives exactly the bytes a direct
  ``service.encode`` call would have produced.  One caveat: BLAS uses a
  different kernel (GEMV) for single-row matmuls, so a *1-row* request
  computed inside a fused GEMM can differ from its unfused result in the
  last bits (still allclose at ~1e-16); requests of >= 2 rows are
  bit-identical;
* **exactly-once scatter** — each request owns a disjoint row span of the
  fused output and is completed exactly once, by whichever thread flushed
  its lane;
* **error isolation** — if a fused flush fails (e.g. one request has the
  wrong feature width), the leader retries every request of that flush
  individually, so one bad request cannot fail its batch-mates;
* **no deadlocks on timeout** — a waiter whose deadline expires flushes the
  lane itself; if another thread already claimed its request, the result is
  guaranteed to arrive, so the waiter falls back to an unbounded wait.

Determinism for tests: the scheduler itself never sleeps and never spawns
threads — all compute happens on caller threads.  The low-level
:meth:`submit`/:meth:`flush` API drives every coalescing rule synchronously
with an injectable clock, so the unit tests need neither real time nor real
concurrency.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

import numpy as np

from repro.exceptions import ServingError, ValidationError
from repro.serving.service import EncodingService
from repro.utils.validation import check_positive_int

__all__ = ["BatchFuser", "FuserClosedError", "FusionTicket"]


class FuserClosedError(ServingError):
    """A request was submitted to a :class:`BatchFuser` after ``close()``.

    Raised instead of silently parking the request in a lane nobody will
    flush again; the HTTP front end maps it to 503 + ``Retry-After`` (the
    server is shutting down — a replica behind a load balancer should
    receive no further traffic)."""

_FLOAT64 = np.dtype(np.float64)


class FusionTicket:
    """Handle to one submitted request; resolved when its lane flushes.

    Every ticket of one flush resolves atomically, so tickets share their
    flush group's single :class:`threading.Event` instead of carrying one
    each — one allocation and one ``set()`` per flush rather than per
    request, which keeps the fusion fast path off the futex.
    """

    __slots__ = ("data", "n_rows", "enqueued_at", "_event", "_result", "_error")

    def __init__(
        self, data: np.ndarray, enqueued_at: float, event: threading.Event
    ) -> None:
        self.data = data
        self.n_rows = int(data.shape[0])
        self.enqueued_at = enqueued_at
        self._event = event
        self._result: np.ndarray | None = None
        self._error: BaseException | None = None

    @property
    def done(self) -> bool:
        """Whether the request has been answered (result or error)."""
        return self._event.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the ticket resolves; returns ``done``."""
        return self._event.wait(timeout)

    def result(self) -> np.ndarray:
        """The encoded features (raises the request's error if it failed)."""
        if not self._event.is_set():
            raise RuntimeError(
                "ticket is not resolved yet; wait() for it or flush its lane"
            )
        if self._error is not None:
            raise self._error
        return self._result


class _Lane:
    """Pending requests of one model, guarded by a per-lane mutex.

    ``event`` belongs to the *current* flush group: every ticket submitted
    before the next flush shares it, and the flush swaps in a fresh one
    while holding the lane lock.
    """

    __slots__ = ("lock", "tickets", "n_rows", "event")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.tickets: list[FusionTicket] = []
        self.n_rows = 0
        self.event = threading.Event()


class BatchFuser:
    """Coalesce concurrent ``encode`` calls into fused forward passes.

    Parameters
    ----------
    service : EncodingService
        The service whose registered models answer the requests.
    max_batch_rows : int, default 4096
        Row bound of a lane: a submission that brings the pending rows to
        this bound (or past it) flushes the lane immediately.  One request
        larger than the bound is still served — it simply flushes alone.
    max_wait_ms : float, default 2.0
        Upper bound on the coalescing delay: a blocked ``encode`` call whose
        wait exceeds this flushes whatever its lane holds.  ``0`` disables
        coalescing-by-time — every submission flushes at once (useful as a
        kill switch: correctness is identical, only the fusion ratio drops).
    use_cache : bool, default True
        Forwarded to :meth:`EncodingService.encode_many`.
    clock : callable, optional
        Monotonic time source for queue-wait accounting; defaults to the
        service's clock so injected fake clocks cover fusion stats too.

    Examples
    --------
    >>> fuser = BatchFuser(service, max_batch_rows=512, max_wait_ms=2.0)  # doctest: +SKIP
    >>> features = fuser.encode("ir", X)   # from any number of threads  # doctest: +SKIP
    """

    def __init__(
        self,
        service: EncodingService,
        *,
        max_batch_rows: int = 4096,
        max_wait_ms: float = 2.0,
        use_cache: bool = True,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if not isinstance(service, EncodingService):
            raise ValidationError(
                f"service must be an EncodingService, got {type(service).__name__}"
            )
        self.service = service
        self.max_batch_rows = check_positive_int(max_batch_rows, name="max_batch_rows")
        if max_wait_ms < 0:
            raise ValidationError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        self.max_wait_ms = float(max_wait_ms)
        self.use_cache = bool(use_cache)
        self._clock = clock if clock is not None else service._clock
        self._lanes: dict[str, _Lane] = {}
        self._closed = False

    # ----------------------------------------------------------------- lanes
    def _lane(self, name: str) -> _Lane:
        # dict.get/setdefault are atomic under the GIL; setdefault returns
        # the winner if two threads race to create the same lane.
        lane = self._lanes.get(name)
        if lane is None:
            lane = self._lanes.setdefault(name, _Lane())
        return lane

    def pending(self, name: str) -> tuple[int, int]:
        """``(n_requests, n_rows)`` currently parked in ``name``'s lane."""
        lane = self._lane(name)
        with lane.lock:
            return len(lane.tickets), lane.n_rows

    # ------------------------------------------------------------ scheduling
    def submit(self, name: str, data) -> FusionTicket:
        """Park one request in its model's lane (non-blocking).

        The model name and the input's shape are validated immediately — a
        malformed request fails its caller at submit time, before it can
        join a batch; the feature width is included whenever it is checkable
        without preprocessing (models whose preprocessing may change the
        width defer that check to the flush).  The elementwise finiteness
        scan is deferred to one reduction over the *stacked* flush matrix
        (cheaper than N small scans).  A request that only fails at flush
        time is isolated by the per-request fallback: it raises the standard
        validation error from ``result()`` while its batch-mates succeed —
        but that fallback demotes its whole flush to serial encodes, so
        failing early here protects the fusion ratio from misbehaving
        clients.  If the submission fills the lane to ``max_batch_rows`` (or
        ``max_wait_ms`` is 0), the submitting thread becomes the leader and
        flushes inline, so the returned ticket may already be resolved.
        """
        if self._closed:
            raise FuserClosedError(
                "fuser is closed (the server is shutting down); "
                "no further requests are accepted"
            )
        runtime = self.service._models.get(name)
        if runtime is None:
            # Atomic lookup: raises ServingError for unknown names and
            # covers a register() racing this submit.
            runtime = self.service._entry(name)[0]
        if not (isinstance(data, np.ndarray) and data.dtype == _FLOAT64):
            data = np.asarray(data, dtype=float)
        if data.ndim != 2:
            raise ValidationError(
                f"data must be a 2-D array, got shape {data.shape}"
            )
        if data.size == 0:
            raise ValidationError("data must not be empty")
        if (
            runtime.has_fast_path
            and runtime.preprocess is None
            and data.shape[1] != runtime.weights.shape[0]
        ):
            raise ValidationError(
                f"data has {data.shape[1]} features but the model "
                f"expects {runtime.weights.shape[0]}"
            )
        enqueued_at = self._clock()
        lane = self._lane(name)
        drained: list[FusionTicket] | None = None
        with lane.lock:
            ticket = FusionTicket(data, enqueued_at, lane.event)
            lane.tickets.append(ticket)
            lane.n_rows += ticket.n_rows
            if lane.n_rows >= self.max_batch_rows or self.max_wait_ms == 0.0:
                # Drain inline under the lock we already hold (one lock
                # round-trip per flush instead of two) and compute outside.
                drained = lane.tickets
                group_event = lane.event
                lane.tickets = []
                lane.n_rows = 0
                lane.event = threading.Event()
        if drained is not None:
            self._run_flush(name, drained, group_event)
        return ticket

    def flush(self, name: str | None = None) -> int:
        """Flush one lane (or every lane); returns the requests answered."""
        if name is not None:
            return self._flush_lane(name, self._lane(name))
        return sum(
            self._flush_lane(lane_name, self._lane(lane_name))
            for lane_name in list(self._lanes)
        )

    def _flush_lane(self, name: str, lane: _Lane) -> int:
        with lane.lock:
            tickets = lane.tickets
            if not tickets:
                return 0
            group_event = lane.event
            lane.tickets = []
            lane.n_rows = 0
            lane.event = threading.Event()
        return self._run_flush(name, tickets, group_event)

    def _run_flush(
        self,
        name: str,
        tickets: list[FusionTicket],
        group_event: threading.Event,
    ) -> int:
        now = self._clock()
        queue_seconds = [now - ticket.enqueued_at for ticket in tickets]
        try:
            results = self.service.encode_many(
                name,
                [ticket.data for ticket in tickets],
                use_cache=self.use_cache,
                queue_seconds=queue_seconds,
                # submit() checked shape; finiteness is checked on the
                # stacked matrix (or fully, for non-fast-path models).
                validate=False,
            )
        except Exception:
            # One request can poison a whole fused pass — wrong feature
            # width, a preprocessing failure, or any exception out of a
            # third-party estimator's transform (not only ReproErrors, so a
            # numpy shape error cannot fail innocent batch-mates; only
            # BaseExceptions like KeyboardInterrupt fall through to the
            # fail-all branch below).  Isolate: answer each
            # request of this flush individually so only the offender fails.
            # Retried via single-request encode_many so the queue wait stays
            # accounted.  Known accounting skew on this error path only: the
            # failed pass already bumped the cache lookup counters (counted
            # twice), and each retry books itself as a flush of one, which
            # drags fusion_ratio down — accurate in the sense that these
            # requests were ultimately served unfused.
            for ticket, waited in zip(tickets, queue_seconds):
                try:
                    ticket._result = self.service.encode_many(
                        name,
                        [ticket.data],
                        use_cache=self.use_cache,
                        queue_seconds=[waited],
                    )[0]
                except BaseException as exc:  # noqa: BLE001 - stored, re-raised in caller
                    ticket._error = exc
            group_event.set()
            return len(tickets)
        except BaseException as exc:
            for ticket in tickets:
                ticket._error = exc
            group_event.set()
            raise
        for ticket, result in zip(tickets, results):
            ticket._result = result
        group_event.set()
        return len(tickets)

    # --------------------------------------------------------------- serving
    def wait_for(
        self,
        name: str,
        ticket: FusionTicket,
        *,
        max_wait_ms: float | None = None,
    ) -> np.ndarray:
        """Block until ``ticket`` resolves, enforcing the coalescing deadline.

        Waits up to ``max_wait_ms`` of real time for another thread to fill
        and flush the lane; on expiry the calling thread leads the flush
        itself, so waiting can never hang on a lane nobody else will fill.
        Pipelined clients that hold several outstanding tickets must reap
        them through this method (or ``flush`` explicitly) — a bare
        ``ticket.wait()`` enforces no deadline.

        ``max_wait_ms`` (when given) caps this call's coalescing wait below
        the fuser-wide default — the hook that lets a request with a nearly
        spent deadline budget skip the coalescing window instead of blowing
        its deadline waiting for batch-mates.  It can only shorten the wait,
        never extend it.
        """
        if not ticket._event.is_set():
            # time.monotonic, not the injected clock: deadlines interact
            # with Event.wait, which always measures real time.
            remaining = self.max_wait_ms / 1000.0
            if max_wait_ms is not None:
                remaining = min(remaining, max(0.0, float(max_wait_ms)) / 1000.0)
            if remaining <= 0.0 or not ticket.wait(remaining):
                if not ticket.done:
                    # Deadline expired: lead the flush ourselves — but only
                    # if our ticket is still parked.  If another thread
                    # already drained it (its flush is mid-compute), the lane
                    # now holds only fresh tickets whose own coalescing
                    # window should not be cut short; our completion is
                    # guaranteed, so the unbounded wait cannot hang.
                    lane = self._lane(name)
                    with lane.lock:
                        still_parked = lane.event is ticket._event
                    if still_parked:
                        self._flush_lane(name, lane)
                    ticket.wait()
        return ticket.result()

    def encode(
        self, name: str, data, *, max_wait_ms: float | None = None
    ) -> np.ndarray:
        """Blocking encode through the fusion queue (thread-safe).

        Semantically identical to ``service.encode(name, data)`` — same
        bytes, same errors — but concurrent callers of the same model are
        answered by shared fused passes.  Adds at most ``max_wait_ms`` of
        coalescing latency (the per-call override can only lower the
        fuser-wide bound).
        """
        return self.wait_for(name, self.submit(name, data), max_wait_ms=max_wait_ms)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (submissions are refused)."""
        return self._closed

    def close(self) -> None:
        """Refuse further submissions, then flush every lane (idempotent).

        Must run *after* the front end has stopped accepting requests and
        drained the in-flight ones — closing first would answer them with
        :class:`FuserClosedError` 503s.  The flag is set before the final
        flush so a submission racing ``close()`` either joins that flush
        or fails loudly; it can never park in a lane nobody will drain
        (its own ``wait_for`` deadline would still flush the lane, but a
        bare ``ticket.wait()`` would hang forever).
        """
        self._closed = True
        self.flush()

    def __enter__(self) -> "BatchFuser":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchFuser(max_batch_rows={self.max_batch_rows}, "
            f"max_wait_ms={self.max_wait_ms}, models={self.service.model_names})"
        )
