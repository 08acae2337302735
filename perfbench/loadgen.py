"""Open-loop HTTP load generator for the ``encode`` workload.

Requests are due on a fixed schedule (``start + i / rate``) whatever the
server does, and are spread round-robin over a few keep-alive connections,
one sender thread per connection.  A request whose connection is still busy
with an earlier reply is sent late; its latency is measured from the time it
was *due*, so a server stall shows up on every request queued behind it, and
the lateness of each send is recorded so a backlog that keeps growing can be
told apart from a steady one.
"""

from __future__ import annotations

import http.client
import threading
import time
from dataclasses import dataclass, field

#: Socket timeout of one request; a server that stops answering fails the
#: request instead of hanging the run.
TIMEOUT_S = 30.0


@dataclass
class Outcome:
    """One request of a phase."""

    index: int
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: bytes | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == 200 and self.error is None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0

    @property
    def lateness_ms(self) -> float:
        return (self.sent - self.due) * 1000.0


@dataclass
class Phase:
    """Outcomes of one open-loop phase at one offered rate."""

    rate: float
    outcomes: list = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def sent(self) -> int:
        return sum(1 for o in self.outcomes if o.sent)

    @property
    def succeeded(self) -> int:
        return sum(1 for o in self.outcomes if o.ok)

    @property
    def failed(self) -> int:
        return len(self.outcomes) - self.succeeded

    def latencies_ms(self) -> list:
        """Latency from the due time of every request, in schedule order; a
        failed request counts as infinitely late (it misses any limit)."""
        return [o.latency_ms if o.ok else float("inf") for o in self.outcomes]

    def lateness_ms(self) -> list:
        """How late each request was sent, in schedule order."""
        return [o.lateness_ms for o in self.outcomes]

    def achieved_rps(self) -> float:
        return self.succeeded / self.elapsed if self.elapsed > 0 else 0.0

    def summary(self) -> dict:
        return {
            "rate": self.rate,
            "sent": self.sent,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "elapsed_s": round(self.elapsed, 4),
        }


def run_phase(
    host: str,
    port: int,
    bodies: list,
    rate: float,
    *,
    connections: int = 2,
    keep_body=lambda index: False,
) -> Phase:
    """Send every body in ``bodies`` to ``POST /encode`` at ``rate`` req/s.

    ``keep_body(i)`` selects the responses whose raw bytes are kept for a
    correctness check (the others are read and dropped).
    """
    phase = Phase(rate=rate)
    phase.outcomes = [Outcome(index=i, due=0.0) for i in range(len(bodies))]
    lanes = [
        [o for o in phase.outcomes if o.index % connections == lane]
        for lane in range(connections)
    ]
    start = time.perf_counter() + 0.05
    for outcome in phase.outcomes:
        outcome.due = start + outcome.index / rate

    def sender(lane: list) -> None:
        connection = http.client.HTTPConnection(host, port, timeout=TIMEOUT_S)
        headers = {"Content-Type": "application/json"}
        try:
            for outcome in lane:
                delay = outcome.due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                outcome.sent = time.perf_counter()
                try:
                    connection.request(
                        "POST", "/encode", body=bodies[outcome.index], headers=headers
                    )
                    response = connection.getresponse()
                    raw = response.read()
                    outcome.done = time.perf_counter()
                    outcome.status = response.status
                    if keep_body(outcome.index) or response.status != 200:
                        outcome.body = raw
                except (OSError, http.client.HTTPException) as exc:
                    outcome.done = time.perf_counter()
                    outcome.error = f"{type(exc).__name__}: {exc}"
                    connection.close()
                    connection = http.client.HTTPConnection(
                        host, port, timeout=TIMEOUT_S
                    )
        finally:
            connection.close()

    threads = [
        threading.Thread(target=sender, args=(lane,), daemon=True) for lane in lanes
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    phase.elapsed = max(o.done for o in phase.outcomes) - start
    return phase
