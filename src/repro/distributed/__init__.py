"""Fault-tolerant multi-host experiment runner.

The paper's evaluation is a (dataset x algorithm x repeat) grid.  This
package fans it out from :class:`~repro.experiments.runner.ExperimentRunner`
over local or remote worker processes with a coordinator/worker protocol
over JSON/HTTP (plumbing shared with the serving stack via
:mod:`repro.serving.wire`):

* the **coordinator** (:class:`GridCoordinator`) shards cells into a lease
  queue, serves datasets to workers, merges streamed-back outcomes
  idempotently, re-queues cells whose lease expires (worker killed
  mid-cell) and drains gracefully on SIGINT/SIGTERM;
* a **worker** (``python -m repro worker --connect HOST:PORT``, module
  :mod:`repro.distributed.worker`) pulls cells, executes them through the
  exact in-process repeat machinery, heartbeats to keep its leases alive
  and reconnects with exponential backoff.

Determinism is the contract: every cell seeds from its identity
(``random_state + repeat``), floats cross the wire bit-exactly, and the
coordinator assembles results in grid order — so a distributed
:meth:`~repro.experiments.runner.ExperimentRunner.run_suite` is
**bit-identical** to the sequential run, including after worker loss.

Entry points: ``ExperimentRunner(workers=4)`` (auto-spawned loopback
worker subprocesses), ``ExperimentRunner(workers=["host:port", ...])``
(standby workers started with ``--listen``), and
``python -m repro evaluate --grid --workers ...``.
"""

from repro.distributed.coordinator import GridCoordinator, coordinator_signal_drain
from repro.distributed.errors import (
    CellExecutionError,
    CoordinatorDrained,
    DistributedError,
    ProtocolError,
    WorkerJoinError,
)
from repro.distributed.messages import PROTOCOL_VERSION
from repro.distributed.queue import CellLease, LeaseQueue
from repro.distributed.worker import (
    LoopbackWorkerPool,
    WorkerClient,
    dial_standby_workers,
    parse_address,
    spawn_loopback_workers,
)

__all__ = [
    "PROTOCOL_VERSION",
    "GridCoordinator",
    "coordinator_signal_drain",
    "LeaseQueue",
    "CellLease",
    "WorkerClient",
    "LoopbackWorkerPool",
    "spawn_loopback_workers",
    "dial_standby_workers",
    "parse_address",
    "DistributedError",
    "ProtocolError",
    "WorkerJoinError",
    "CellExecutionError",
    "CoordinatorDrained",
]
