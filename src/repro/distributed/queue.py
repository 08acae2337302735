"""Work-queue and lease bookkeeping of the coordinator.

:class:`LeaseQueue` tracks every cell of a grid through the states
``pending → leased → completed``.  Fault tolerance lives entirely here:

* a lease carries a deadline; a worker that stops heartbeating (killed,
  partitioned) lets its leases *expire* and the cells return to the front
  of the pending queue for another worker;
* completion is *idempotent*: when an expired cell is re-leased and the
  original worker later turns out to have survived (a slow cell, not a dead
  worker), the second completion is acknowledged but discarded — exactly
  one result per cell reaches the table;
* a worker can say goodbye, releasing its leases immediately instead of
  waiting out the timeout;
* a failed cell can be *re-queued with a delay* (:meth:`LeaseQueue.requeue`)
  — the retry-with-backoff path for transient failures: the cell sits in a
  delay pen until its ready time passes, then rejoins the front of the
  pending queue.

Cells may come in *groups* (the cells that share one trained encoder).  A
group map also sets the dispatch order: pending cells start sorted by
group key, so a caller that ranks its costliest groups first gets them
leased first.  A worker gains affinity to the group of every cell it
leases, and :meth:`LeaseQueue.lease` hands it more of that group first, so
the worker reuses the encoder it already holds; failing that, a cell of a
group no worker holds; failing that, the first pending cell, so no worker
idles while work is pending.  Affinity only orders the queue: any cell may
still run on any worker.

The clock is injectable so the expiry logic is testable deterministically
(fake-clock tests advance time explicitly); all entry points take one lock,
as the coordinator's HTTP handler threads call them concurrently.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass

__all__ = ["CellLease", "LeaseQueue"]

_NO_GROUP = object()


@dataclass
class CellLease:
    """One active lease: which worker holds which cell until when."""

    cell_id: str
    worker_id: str
    deadline: float


class LeaseQueue:
    """Lease-based work queue over a fixed set of cell ids.

    Parameters
    ----------
    cell_ids : iterable of str
        The work items.  Without ``groups`` they are dispatched in this
        order; with it, this order breaks ties between cells of one key.
    lease_timeout : float
        Seconds a lease survives without a heartbeat before its cell is
        re-queued.  Workers heartbeat at a fraction of this, so only a dead
        or partitioned worker ever lets a lease lapse.
    clock : callable, default time.monotonic
        Monotonic time source (injectable for deterministic tests).
    groups : mapping of str to hashable, optional
        Group key of every cell id (see the module docstring).  Pending
        cells are dispatched in ascending key order, a stable sort of
        ``cell_ids``, so the keys must be mutually comparable.  Without it
        every cell is its own group, and the dispatch order is plain FIFO.
    """

    def __init__(
        self,
        cell_ids,
        *,
        lease_timeout: float = 30.0,
        clock=time.monotonic,
        groups=None,
    ) -> None:
        if lease_timeout <= 0:
            raise ValueError("lease_timeout must be positive")
        self._pending: deque[str] = deque()
        self._known: set[str] = set()
        for cell_id in cell_ids:
            cell_id = str(cell_id)
            if cell_id in self._known:
                raise ValueError(f"duplicate cell id {cell_id!r}")
            self._known.add(cell_id)
            self._pending.append(cell_id)
        if groups is None:
            self._groups = {cell_id: cell_id for cell_id in self._known}
        else:
            self._groups = {str(k): group for k, group in groups.items()}
            missing = self._known - set(self._groups)
            if missing:
                raise ValueError(f"cells without a group: {sorted(missing)}")
            self._pending = deque(sorted(self._pending, key=self._groups.get))
        #: worker_id -> group of the last cell it leased.
        self._affinity: dict[str, object] = {}
        self.lease_timeout = float(lease_timeout)
        self._clock = clock
        self._leases: dict[str, CellLease] = {}  # keyed by cell_id
        self._completed: set[str] = set()
        #: cell_id -> monotonic time before which it must not be leased
        #: (the backoff pen of retried cells), insertion-ordered.
        self._delayed: dict[str, float] = {}
        self._lock = threading.Lock()
        self.n_requeued = 0
        self.n_duplicates = 0
        self.n_expired_leases = 0
        self.n_retried = 0

    # ------------------------------------------------------------- internals
    def _expire_overdue_locked(self) -> list[str]:
        """Re-queue every cell whose lease deadline has passed."""
        now = self._clock()
        expired = [
            lease.cell_id
            for lease in self._leases.values()
            if lease.deadline <= now
        ]
        # Expired cells go to the *front* of the queue (preserving their
        # original relative order) so a recovered grid finishes the oldest
        # work first instead of starting fresh cells.
        for cell_id in reversed(expired):
            lease = self._leases.pop(cell_id)
            self._affinity.pop(lease.worker_id, None)
            self._pending.appendleft(cell_id)
            self.n_expired_leases += 1
            self.n_requeued += 1
        return expired

    def _promote_ready_locked(self) -> None:
        """Move delayed cells whose backoff has elapsed into pending."""
        if not self._delayed:
            return
        now = self._clock()
        ready = [
            cell_id
            for cell_id, ready_at in self._delayed.items()
            if ready_at <= now
        ]
        # Front of the queue, preserving insertion order — the same recover-
        # oldest-work-first rule as lease expiry.
        for cell_id in reversed(ready):
            del self._delayed[cell_id]
            self._pending.appendleft(cell_id)

    def _release_locked(self, worker_id: str) -> int:
        """Return every lease of ``worker_id`` to the front of the queue."""
        released = [
            lease.cell_id
            for lease in self._leases.values()
            if lease.worker_id == worker_id
        ]
        for cell_id in reversed(released):
            del self._leases[cell_id]
            self._pending.appendleft(cell_id)
            self.n_requeued += 1
        return len(released)

    def _next_locked(self, worker_id: str) -> str:
        """The pending cell ``worker_id`` should run next: the first of its
        own group, else the first of a group no worker holds, else the
        first pending cell."""
        own = self._affinity.get(worker_id, _NO_GROUP)
        held = set(self._affinity.values())
        free = None
        for cell_id in self._pending:
            group = self._groups[cell_id]
            if group == own:
                return cell_id
            if free is None and group not in held:
                free = cell_id
        return free if free is not None else self._pending[0]

    # ------------------------------------------------------------------- API
    def lease(self, worker_id: str) -> str | None:
        """Hand the next pending cell to ``worker_id`` (None when empty).

        A worker computes one cell at a time, so a lease it still holds was
        granted by a response it never received (a retried or duplicated
        request); its heartbeats would keep that lease alive for good, so
        the cell goes back to the front of the queue first.  The worker
        keeps its affinity, so it is granted that cell again.
        """
        worker_id = str(worker_id)
        with self._lock:
            self._expire_overdue_locked()
            self._promote_ready_locked()
            self._release_locked(worker_id)
            if not self._pending:
                return None
            cell_id = self._next_locked(worker_id)
            self._pending.remove(cell_id)
            self._affinity[worker_id] = self._groups[cell_id]
            self._leases[cell_id] = CellLease(
                cell_id=cell_id,
                worker_id=worker_id,
                deadline=self._clock() + self.lease_timeout,
            )
            return cell_id

    def heartbeat(self, worker_id: str) -> int:
        """Renew every lease held by ``worker_id``; returns how many."""
        worker_id = str(worker_id)
        with self._lock:
            deadline = self._clock() + self.lease_timeout
            renewed = 0
            for lease in self._leases.values():
                if lease.worker_id == worker_id:
                    lease.deadline = deadline
                    renewed += 1
            return renewed

    def complete(self, cell_id: str, worker_id: str) -> bool:
        """Record a finished cell; True when this is the accepted completion.

        Duplicates (a re-queued cell finishing on two workers, or a retry of
        a lost acknowledgement) return False and are counted, keeping the
        merge idempotent.  A completion for a cell whose lease expired — the
        worker was presumed dead but wasn't — is still accepted when the
        cell has not been completed elsewhere yet, saving the re-run where
        possible.
        """
        cell_id, worker_id = str(cell_id), str(worker_id)
        with self._lock:
            if cell_id not in self._known:
                raise KeyError(f"unknown cell id {cell_id!r}")
            if cell_id in self._completed:
                self.n_duplicates += 1
                return False
            self._completed.add(cell_id)
            self._leases.pop(cell_id, None)
            self._delayed.pop(cell_id, None)
            # The cell may sit in pending after an expiry; a completed cell
            # must never be dispatched again.
            try:
                self._pending.remove(cell_id)
            except ValueError:
                pass
            return True

    def requeue(self, cell_id: str, *, delay: float = 0.0) -> bool:
        """Return a failed cell to the queue after ``delay`` seconds.

        The retry path for transient failures: the cell's lease (if any) is
        dropped and the cell parks in the delay pen until ``delay`` elapses,
        then rejoins the *front* of the pending queue.  Every worker's
        affinity to the cell's group is dropped, so the retry goes to
        whichever worker asks first.  Returns False (and does nothing) when
        the cell already completed elsewhere — a stale failure report must
        not resurrect finished work.
        """
        cell_id = str(cell_id)
        with self._lock:
            if cell_id not in self._known:
                raise KeyError(f"unknown cell id {cell_id!r}")
            if cell_id in self._completed:
                return False
            self._leases.pop(cell_id, None)
            if cell_id in self._pending or cell_id in self._delayed:
                return False  # already on its way back
            if delay > 0:
                self._delayed[cell_id] = self._clock() + float(delay)
            else:
                self._pending.appendleft(cell_id)
            group = self._groups[cell_id]
            self._affinity = {
                worker: held
                for worker, held in self._affinity.items()
                if held != group
            }
            self.n_requeued += 1
            self.n_retried += 1
            return True

    def release(self, worker_id: str) -> int:
        """Return every lease of a departing (or quarantined) worker to the
        queue now, and drop its affinity."""
        worker_id = str(worker_id)
        with self._lock:
            self._affinity.pop(worker_id, None)
            return self._release_locked(worker_id)

    def expire_overdue(self) -> list[str]:
        """Re-queue overdue leases; returns the affected cell ids."""
        with self._lock:
            return self._expire_overdue_locked()

    # ------------------------------------------------------------ inspection
    @property
    def n_cells(self) -> int:
        return len(self._known)

    @property
    def n_pending(self) -> int:
        with self._lock:
            return len(self._pending)

    @property
    def n_delayed(self) -> int:
        with self._lock:
            return len(self._delayed)

    @property
    def n_leased(self) -> int:
        with self._lock:
            return len(self._leases)

    @property
    def n_completed(self) -> int:
        with self._lock:
            return len(self._completed)

    @property
    def done(self) -> bool:
        with self._lock:
            return len(self._completed) == len(self._known)

    def counters(self) -> dict:
        """Snapshot of the queue state (the coordinator's /status body)."""
        with self._lock:
            return {
                "n_cells": len(self._known),
                "n_pending": len(self._pending),
                "n_leased": len(self._leases),
                "n_delayed": len(self._delayed),
                "n_completed": len(self._completed),
                "n_requeued": self.n_requeued,
                "n_duplicates": self.n_duplicates,
                "n_expired_leases": self.n_expired_leases,
                "n_retried": self.n_retried,
            }
