"""Deterministic fake-clock tests for the coordinator's lease queue.

Every fault-tolerance rule — expiry, re-queue order, heartbeat renewal,
idempotent completion — is driven here by advancing an explicit clock, so
the suite never sleeps and never races.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed import CellLease, LeaseQueue


class FakeClock:
    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def clock():
    return FakeClock()


def make_queue(clock, cells=("a", "b", "c"), lease_timeout=10.0):
    return LeaseQueue(cells, lease_timeout=lease_timeout, clock=clock)


class TestConstruction:
    def test_duplicate_cell_ids_rejected(self, clock):
        with pytest.raises(ValueError, match="duplicate cell id"):
            make_queue(clock, cells=["a", "b", "a"])

    def test_nonpositive_lease_timeout_rejected(self, clock):
        with pytest.raises(ValueError, match="lease_timeout"):
            make_queue(clock, lease_timeout=0)

    def test_initial_counters(self, clock):
        queue = make_queue(clock)
        assert queue.counters() == {
            "n_cells": 3,
            "n_pending": 3,
            "n_leased": 0,
            "n_delayed": 0,
            "n_completed": 0,
            "n_requeued": 0,
            "n_duplicates": 0,
            "n_expired_leases": 0,
            "n_retried": 0,
        }
        assert not queue.done


class TestLeasing:
    def test_fifo_dispatch_order(self, clock):
        queue = make_queue(clock)
        assert [queue.lease(w) for w in ("w1", "w2", "w3")] == ["a", "b", "c"]
        assert queue.lease("w4") is None

    def test_lease_records_worker_and_deadline(self, clock):
        queue = make_queue(clock, lease_timeout=7.0)
        clock.advance(3.0)
        queue.lease("w1")
        lease = queue._leases["a"]
        assert lease == CellLease(cell_id="a", worker_id="w1", deadline=10.0)

    def test_empty_queue_returns_none_while_leased(self, clock):
        queue = make_queue(clock, cells=["only"])
        assert queue.lease("w1") == "only"
        # Nothing pending, but the grid is not done either: the caller
        # idles until the in-flight cell lands or expires.
        assert queue.lease("w2") is None
        assert not queue.done

    def test_lease_still_held_by_the_asker_is_granted_again(self, clock):
        # A worker computes one cell at a time: a lease it holds when it
        # asks again was granted by a response it never received (a
        # duplicated or retried request), so that cell comes back first.
        queue = make_queue(clock)
        assert queue.lease("w1") == "a"
        assert queue.lease("w1") == "a"
        assert queue.complete("a", "w1") is True
        assert queue.lease("w1") == "b"
        assert queue.lease("w1") == "b"
        assert queue.n_leased == 1
        assert queue.n_requeued == 2


class TestExpiry:
    def test_lease_expires_exactly_at_deadline(self, clock):
        queue = make_queue(clock, lease_timeout=10.0)
        queue.lease("w1")
        clock.advance(9.999)
        assert queue.expire_overdue() == []
        clock.advance(0.001)
        assert queue.expire_overdue() == ["a"]
        assert queue.n_requeued == 1
        assert queue.n_expired_leases == 1

    def test_expired_cells_requeue_to_front_in_order(self, clock):
        queue = make_queue(clock, cells=["a", "b", "c", "d"], lease_timeout=5.0)
        assert queue.lease("w1") == "a"
        assert queue.lease("w2") == "b"
        clock.advance(6.0)
        # Both leases lapse; the cells come back at the *front* of the
        # queue in their original relative order, ahead of untouched "c".
        assert queue.expire_overdue() == ["a", "b"]
        workers = ("w3", "w4", "w5", "w6")
        assert [queue.lease(w) for w in workers] == ["a", "b", "c", "d"]

    def test_lease_call_expires_overdue_first(self, clock):
        queue = make_queue(clock, cells=["a", "b"], lease_timeout=5.0)
        queue.lease("w1")
        queue.lease("w2")
        clock.advance(6.0)
        # No explicit expire_overdue(): the next lease() call sweeps.
        assert queue.lease("w3") == "a"
        assert queue.n_requeued == 2


class TestHeartbeat:
    def test_heartbeat_renews_all_worker_leases(self, clock):
        queue = make_queue(clock, lease_timeout=10.0)
        queue.lease("w1")
        queue.lease("w2")
        clock.advance(8.0)
        assert queue.heartbeat("w1") == 1
        clock.advance(4.0)
        # w2 never heartbeat: its cell lapses; w1's renewed lease survives.
        assert queue.expire_overdue() == ["b"]
        assert queue.n_leased == 1

    def test_heartbeat_for_unknown_worker_renews_nothing(self, clock):
        queue = make_queue(clock)
        queue.lease("w1")
        assert queue.heartbeat("ghost") == 0


class TestCompletion:
    def test_complete_is_idempotent(self, clock):
        queue = make_queue(clock, cells=["a"])
        queue.lease("w1")
        assert queue.complete("a", "w1") is True
        assert queue.complete("a", "w2") is False
        assert queue.n_duplicates == 1
        assert queue.n_completed == 1
        assert queue.done

    def test_unknown_cell_raises(self, clock):
        queue = make_queue(clock)
        with pytest.raises(KeyError, match="unknown cell id"):
            queue.complete("nope", "w1")

    def test_late_completion_from_presumed_dead_worker_is_accepted(self, clock):
        queue = make_queue(clock, cells=["a"], lease_timeout=5.0)
        queue.lease("w1")
        clock.advance(6.0)
        assert queue.expire_overdue() == ["a"]
        # w1 was slow, not dead: its result arrives before anyone re-leased
        # the cell.  Accept it (saves the re-run) and drop the cell from
        # pending so it is never dispatched again.
        assert queue.complete("a", "w1") is True
        assert queue.lease("w2") is None
        assert queue.done

    def test_requeued_cell_completing_twice_keeps_first(self, clock):
        queue = make_queue(clock, cells=["a"], lease_timeout=5.0)
        queue.lease("w1")
        clock.advance(6.0)
        queue.expire_overdue()
        assert queue.lease("w2") == "a"
        assert queue.complete("a", "w2") is True
        # The original worker resurfaces with the same cell: discarded.
        assert queue.complete("a", "w1") is False
        assert queue.counters()["n_duplicates"] == 1


class TestRelease:
    def test_release_returns_leases_to_front(self, clock):
        queue = make_queue(clock, cells=["a", "b", "c"])
        queue.lease("w1")
        queue.lease("w2")
        assert queue.release("w1") == 1
        assert queue.lease("w3") == "a"  # ahead of untouched "c"
        assert queue.n_requeued == 1

    def test_release_without_leases_is_a_noop(self, clock):
        queue = make_queue(clock)
        assert queue.release("w1") == 0
        assert queue.n_pending == 3


class TestFullLifecycle:
    def test_grid_survives_worker_loss(self, clock):
        """The canonical recovery story, step by deterministic step."""
        queue = make_queue(clock, cells=["a", "b", "c", "d"], lease_timeout=10.0)
        assert queue.lease("w1") == "a"
        assert queue.lease("w2") == "b"
        assert queue.complete("b", "w2") is True
        assert queue.lease("w2") == "c"
        # w1 dies silently holding "a"; w2 keeps heartbeating.
        clock.advance(8.0)
        queue.heartbeat("w2")
        clock.advance(4.0)
        assert queue.complete("c", "w2") is True
        assert queue.lease("w2") == "a"  # expired, re-queued ahead of "d"
        assert queue.complete("a", "w2") is True
        assert queue.lease("w2") == "d"
        assert queue.complete("d", "w2") is True
        assert queue.done
        counters = queue.counters()
        assert counters["n_completed"] == 4
        assert counters["n_requeued"] == 1
        assert counters["n_duplicates"] == 0


def make_grouped_queue(clock, groups, lease_timeout=10.0):
    return LeaseQueue(
        list(groups), lease_timeout=lease_timeout, clock=clock, groups=groups
    )


class TestAffinity:
    """Cells sharing a group (a trained encoder) go to the worker that
    leased that group last; everything else keeps the FIFO rules above."""

    def test_groups_must_cover_every_cell(self, clock):
        with pytest.raises(ValueError, match="cells without a group"):
            LeaseQueue(["a", "b"], clock=clock, groups={"a": 0})

    def test_own_group_before_the_queue_front(self, clock):
        queue = make_grouped_queue(clock, {"a1": "A", "b1": "B", "a2": "A"})
        assert queue.lease("w1") == "a1"
        assert queue.complete("a1", "w1") is True
        # "b1" is at the front, but w1 holds group A.
        assert queue.lease("w1") == "a2"
        assert queue.complete("a2", "w1") is True
        assert queue.lease("w1") == "b1"

    def test_free_group_before_a_held_one(self, clock):
        queue = make_grouped_queue(clock, {"a1": "A", "a2": "A", "b1": "B"})
        assert queue.lease("w1") == "a1"
        # w2 holds nothing; "a2" belongs to w1's group, "b1" to no one's.
        assert queue.lease("w2") == "b1"
        assert queue.complete("a1", "w1") is True
        assert queue.lease("w1") == "a2"

    def test_fifo_fallback_when_every_group_is_held(self, clock):
        queue = make_grouped_queue(
            clock, {"a1": "A", "a2": "A", "b1": "B", "b2": "B"}
        )
        assert queue.lease("w1") == "a1"
        assert queue.lease("w2") == "b1"
        # Both groups are held: w3 does not idle, it takes the front cell
        # and now holds group A as well.
        assert queue.lease("w3") == "a2"
        assert queue._affinity == {"w1": "A", "w2": "B", "w3": "A"}
        assert queue.lease("w4") == "b2"

    def test_release_drops_affinity(self, clock):
        queue = make_grouped_queue(clock, {"a1": "A", "a2": "A", "b1": "B"})
        assert queue.lease("w1") == "a1"
        assert queue.complete("a1", "w1") is True
        assert queue.release("w1") == 0  # bye (or quarantine)
        # Group A is free again, so w2 gets the front cell.
        assert queue.lease("w2") == "a2"
        assert "w1" not in queue._affinity

    def test_expiry_drops_affinity(self, clock):
        queue = make_grouped_queue(
            clock, {"a1": "A", "a2": "A", "b1": "B"}, lease_timeout=5.0
        )
        assert queue.lease("w1") == "a1"
        clock.advance(6.0)
        assert queue.expire_overdue() == ["a1"]
        assert "w1" not in queue._affinity
        assert queue.lease("w2") == "a1"
        assert queue.lease("w3") == "b1"  # A is held by w2 now

    def test_requeue_drops_every_holder_of_the_group(self, clock):
        queue = make_grouped_queue(
            clock, {"a1": "A", "a2": "A", "a3": "A", "b1": "B"}
        )
        assert queue.lease("w1") == "a1"
        assert queue.lease("w2") == "b1"
        assert queue.complete("b1", "w2") is True
        assert queue.lease("w2") == "a2"  # FIFO fallback: w2 holds A too
        assert queue.requeue("a1") is True
        # The retry runs on whichever worker asks first.
        assert queue._affinity == {}
        assert queue.lease("w3") == "a1"

    def test_stale_requeue_keeps_affinity(self, clock):
        queue = make_grouped_queue(clock, {"a1": "A", "a2": "A", "b1": "B"})
        assert queue.lease("w1") == "a1"
        assert queue.complete("a1", "w1") is True
        assert queue.requeue("a1") is False  # already completed
        assert queue._affinity == {"w1": "A"}

    def test_duplicate_grant_keeps_affinity(self, clock):
        queue = make_grouped_queue(clock, {"a1": "A", "a2": "A", "b1": "B"})
        assert queue.lease("w1") == "a1"
        # The grant was lost: the held lease is released and granted again.
        assert queue.lease("w1") == "a1"
        assert queue.n_requeued == 1
        assert queue._affinity == {"w1": "A"}
        assert queue.lease("w2") == "b1"

    def test_one_worker_runs_group_by_group(self, clock):
        groups = {"x": 0, "a1": 1, "b1": 2, "a2": 1, "b2": 2, "a3": 1}
        queue = make_grouped_queue(clock, groups)
        order = []
        while (cell_id := queue.lease("w1")) is not None:
            order.append(cell_id)
            assert queue.complete(cell_id, "w1") is True
        assert order == ["x", "a1", "a2", "a3", "b1", "b2"]
        assert queue.done


class _FifoQueue(LeaseQueue):
    """The lease order before groups existed: always the front cell."""

    def _next_locked(self, worker_id):
        return self._pending[0]


_WORKERS = st.sampled_from(["w1", "w2", "w3"])
_CELLS = st.sampled_from(["a", "b", "c", "d", "e"])
_OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("lease"), _WORKERS),
        st.tuples(st.just("complete"), _CELLS, _WORKERS),
        st.tuples(st.just("heartbeat"), _WORKERS),
        st.tuples(st.just("release"), _WORKERS),
        st.tuples(st.just("requeue"), _CELLS, st.sampled_from([0.0, 2.0])),
        st.tuples(st.just("advance"), st.sampled_from([1.0, 3.0, 6.0])),
        st.tuples(st.just("expire_overdue")),
    ),
    max_size=60,
)


class TestNoGroupMapKeepsFifo:
    @settings(max_examples=300, deadline=None)
    @given(operations=_OPERATIONS)
    def test_same_results_as_the_fifo_queue(self, operations):
        clock = FakeClock()
        cells = ["a", "b", "c", "d", "e"]
        queue = LeaseQueue(cells, lease_timeout=5.0, clock=clock)
        fifo = _FifoQueue(cells, lease_timeout=5.0, clock=clock)
        for name, *args in operations:
            if name == "advance":
                clock.advance(*args)
                continue
            if name == "requeue":
                cell_id, delay = args
                assert queue.requeue(cell_id, delay=delay) == fifo.requeue(
                    cell_id, delay=delay
                )
            else:
                assert getattr(queue, name)(*args) == getattr(fifo, name)(*args)
            assert queue.counters() == fifo.counters()
            assert list(queue._pending) == list(fifo._pending)
