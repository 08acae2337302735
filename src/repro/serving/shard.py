"""Multi-process model sharding: ``repro serve --shard-workers N``.

A single serving process is bounded by one interpreter (the GIL outside
BLAS) and one address space (every registered model's weights).
:class:`ShardPool` scales past both by partitioning the registered models
across ``N`` worker *subprocesses*: each worker runs the ordinary threaded
serving stack (:mod:`repro.serving.http` — fusion, cache, admission and all)
on an ephemeral loopback port and owns a **disjoint subset** of the models.

Routing is consistent hashing (:class:`HashRing`): model names hash onto a
ring of virtual nodes, so the assignment is a pure function of
``(model name, worker count)`` — stable across restarts, no coordination
state to persist.  A respawned worker keeps its ring identity and therefore
re-loads exactly the artifacts it owned before.  Within each worker the
feature cache keys carry the service's registration *generation* stamp, so
a worker that died and re-registered its models can never serve a stale
cache entry from a previous life.

Fault tolerance: a background monitor re-spawns dead workers (artifacts are
re-loaded from disk), and the request path treats a transport error as a
liveness probe — dead worker → respawn → retry once; live worker → one
retry on a fresh connection.  Forwarding reuses keep-alive
:class:`http.client.HTTPConnection` objects per *(thread, worker
incarnation)*, so the steady-state hop adds one loopback round-trip and no
connection setup.

:class:`ShardPool` implements the same backend protocol as
:class:`~repro.serving.http.LocalEncodeBackend` (``model_names``,
``encode_request``, ``describe_models``, ``describe_stats``, ``close``), so
a :class:`~repro.serving.http.ServingGateway` — and with it the HTTP
front end — drives a shard pool exactly like an in-process service.

``python -m repro.serving.shard`` is the worker entry point (spawned by the
pool, not typed by hand): it loads its artifact subset, binds port 0,
announces the bound port through ``--port-file`` and serves until SIGTERM.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import http.client
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.exceptions import (
    DeadlineExceededError,
    ReproError,
    ServingError,
    ValidationError,
)
from repro.serving.wire import PayloadTooLargeError, WireError, request_json
from repro.utils.validation import check_positive_int

__all__ = ["HashRing", "ShardPool", "ShardWorkerProcess", "worker_main"]


class ShardError(ReproError):
    """A shard worker failed in a way retry/respawn could not hide."""


# --------------------------------------------------------------- hash ring
class HashRing:
    """Consistent hashing of string keys onto a fixed set of nodes.

    Each node contributes ``replicas`` virtual points (sha256 of
    ``"{node}#{replica}"``) so keys spread evenly even for small node
    counts; a key maps to the first virtual point at or after its own hash,
    wrapping at the top.  sha256 (not ``hash()``) keeps the assignment
    stable across processes and Python releases —
    ``PYTHONHASHSEED`` randomises ``hash()`` per process, and the whole
    point is that parent and respawned workers agree on who owns what.
    """

    def __init__(self, nodes: list, *, replicas: int = 64) -> None:
        if not nodes:
            raise ValidationError("HashRing needs at least one node")
        if len(set(nodes)) != len(nodes):
            raise ValidationError(f"duplicate ring nodes in {nodes!r}")
        self.nodes = list(nodes)
        self.replicas = check_positive_int(replicas, name="replicas")
        points = []
        for node in self.nodes:
            for replica in range(self.replicas):
                points.append((self._hash(f"{node}#{replica}"), node))
        points.sort()
        self._points = [point for point, _ in points]
        self._owners = [owner for _, owner in points]

    @staticmethod
    def _hash(key: str) -> int:
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def assign(self, key: str):
        """The node owning ``key`` (deterministic, process-independent)."""
        index = bisect.bisect_right(self._points, self._hash(key))
        if index == len(self._points):
            index = 0
        return self._owners[index]

    def partition(self, keys: list[str]) -> dict:
        """``{node: sorted subset of keys}`` (nodes may own empty subsets)."""
        assignment = {node: [] for node in self.nodes}
        for key in sorted(keys):
            assignment[self.assign(key)].append(key)
        return assignment


# ------------------------------------------------------------ worker main
def worker_main(argv: list[str] | None = None) -> int:
    """Entry point of one shard worker subprocess.

    Builds the standard threaded serving stack over the artifact subset it
    was handed, binds an ephemeral port, and announces it atomically
    through ``--port-file`` (write to a temp name, then ``rename``) so the
    parent never reads a half-written port.  SIGTERM drains exactly like
    the top-level ``repro serve``.
    """
    parser = argparse.ArgumentParser(prog="repro-shard-worker")
    parser.add_argument("--artifact", action="append", required=True,
                        metavar="NAME=PATH")
    parser.add_argument("--port-file", required=True)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--batch-size", type=int, default=4096)
    parser.add_argument("--cache-entries", type=int, default=64)
    parser.add_argument("--dtype", choices=("float64", "float32"), default=None)
    parser.add_argument("--no-fusion", action="store_true")
    parser.add_argument("--max-batch-rows", type=int, default=4096)
    parser.add_argument("--max-wait-ms", type=float, default=2.0)
    parser.add_argument("--max-in-flight", type=int, default=None)
    parser.add_argument("--retry-after", type=float, default=1.0)
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    from repro.serving.fusion import BatchFuser
    from repro.serving.http import build_server
    from repro.serving.service import EncodingService

    service = EncodingService(
        max_batch_size=args.batch_size,
        cache_entries=args.cache_entries,
        dtype=args.dtype,
    )
    for mapping in args.artifact:
        name, separator, path = mapping.partition("=")
        if not separator or not name or not path:
            parser.error(f"--artifact expects NAME=PATH, got {mapping!r}")
        service.load(name, path)
    fuser = None
    if not args.no_fusion:
        fuser = BatchFuser(
            service,
            max_batch_rows=args.max_batch_rows,
            max_wait_ms=args.max_wait_ms,
        )
    server = build_server(
        service,
        fuser=fuser,
        host=args.host,
        port=0,
        max_in_flight=args.max_in_flight,
        retry_after=args.retry_after,
        # The secret travels via the environment, not argv (ps would show it).
        secret=os.environ.get("REPRO_SECRET"),
        verbose=args.verbose,
    )

    port_file = Path(args.port_file)
    staging = port_file.with_suffix(port_file.suffix + ".tmp")
    staging.write_text(f"{server.server_port}\n", encoding="utf-8")
    staging.rename(port_file)

    def _terminate(signum, frame):  # noqa: ARG001 - signal signature
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.server_close()
        if fuser is not None:
            fuser.close()
    return 0


# --------------------------------------------------------- worker process
class ShardWorkerProcess:
    """One shard worker subprocess and the knowledge needed to re-spawn it.

    The spec (identity, artifact subset, serving knobs) outlives the
    process: :meth:`respawn` starts a fresh subprocess that re-loads the
    same artifacts from disk and answers on a fresh ephemeral port.
    ``incarnation`` counts lives — connection caches key on it so no stale
    socket to a dead incarnation is ever reused.
    """

    def __init__(
        self,
        worker_id: int,
        artifacts: dict[str, str],
        *,
        port_dir: str | Path,
        secret: str | None = None,
        extra_args: list[str] | None = None,
        spawn_timeout: float = 60.0,
        verbose: bool = False,
    ) -> None:
        self.worker_id = int(worker_id)
        self.artifacts = dict(artifacts)
        if not self.artifacts:
            raise ValidationError(
                f"worker {worker_id} needs at least one artifact"
            )
        self.port_dir = Path(port_dir)
        self.secret = secret
        self.extra_args = list(extra_args or [])
        self.spawn_timeout = float(spawn_timeout)
        self.verbose = verbose
        self.host = "127.0.0.1"
        self.port: int | None = None
        self.process: subprocess.Popen | None = None
        self.incarnation = 0

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None

    def spawn(self) -> None:
        """Start the subprocess and wait for it to announce its port."""
        if self.alive:
            return
        self.incarnation += 1
        port_file = self.port_dir / (
            f"worker-{self.worker_id}.{self.incarnation}.port"
        )
        # The child inherits the parent's import path so the stack works
        # from a source checkout without installation; the secret travels
        # via the environment, not argv.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [path for path in sys.path if path]
            + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        if self.secret:
            env["REPRO_SECRET"] = str(self.secret)
        else:
            env.pop("REPRO_SECRET", None)
        command = [
            sys.executable, "-m", "repro.serving.shard",
            "--port-file", str(port_file),
            "--host", self.host,
        ]
        for name in sorted(self.artifacts):
            command.extend(["--artifact", f"{name}={self.artifacts[name]}"])
        command.extend(self.extra_args)
        self.process = subprocess.Popen(
            command,
            env=env,
            stdout=None if self.verbose else subprocess.DEVNULL,
            stderr=None if self.verbose else subprocess.DEVNULL,
        )
        deadline = time.monotonic() + self.spawn_timeout
        while True:
            if port_file.exists():
                text = port_file.read_text(encoding="utf-8").strip()
                if text:
                    self.port = int(text)
                    port_file.unlink(missing_ok=True)
                    return
            if self.process.poll() is not None:
                raise ShardError(
                    f"shard worker {self.worker_id} exited with code "
                    f"{self.process.returncode} before announcing its port"
                )
            if time.monotonic() > deadline:
                self.process.kill()
                raise ShardError(
                    f"shard worker {self.worker_id} did not announce its "
                    f"port within {self.spawn_timeout:g}s"
                )
            time.sleep(0.02)

    def respawn(self) -> None:
        """Replace a dead (or wedged) process with a fresh incarnation."""
        if self.process is not None and self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=10)
        self.spawn()

    def terminate(self, timeout: float = 10.0) -> None:
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:  # pragma: no cover - last resort
                self.process.kill()
                self.process.wait(timeout=5)


# ----------------------------------------------------------------- pool
class ShardPool:
    """Consistent-hash routed pool of shard worker subprocesses.

    Implements the gateway backend protocol, so the HTTP front end can
    sit in front of it (``repro serve --shard-workers N``).

    Parameters
    ----------
    artifacts : dict[str, str]
        ``{model name: artifact bundle path}`` — the full model set; the
        hash ring partitions it across the workers.
    n_workers : int
        Worker subprocess count.  Workers whose ring slice is empty are
        not spawned (they would idle); ``n_workers`` larger than the model
        count therefore costs nothing.
    secret : str, optional
        Shared secret the workers require (forwarded on every hop).
    extra_worker_args : list[str], optional
        Serving knobs passed to every worker verbatim (``--no-fusion``,
        ``--max-wait-ms 5`` ...), mirroring ``repro serve``'s flags.
    request_timeout : float, default 30.0
        Per-hop socket timeout for forwarded requests.
    monitor_interval : float, default 0.25
        Liveness poll period of the respawn monitor; ``None`` disables the
        monitor (dead workers are then only respawned when a request
        trips over them).
    spawn_timeout : float, default 60.0
        How long one worker may take to load artifacts and announce.
    verbose : bool, default False
        Let the workers inherit stdout/stderr instead of discarding it.
    """

    def __init__(
        self,
        artifacts: dict[str, str],
        n_workers: int,
        *,
        secret: str | None = None,
        extra_worker_args: list[str] | None = None,
        request_timeout: float = 30.0,
        monitor_interval: float | None = 0.25,
        spawn_timeout: float = 60.0,
        verbose: bool = False,
    ) -> None:
        if not artifacts:
            raise ValidationError("ShardPool needs at least one artifact")
        self.n_workers = check_positive_int(n_workers, name="n_workers")
        self.secret = secret
        self.request_timeout = float(request_timeout)
        self.ring = HashRing(list(range(self.n_workers)))
        self.assignment: dict[str, int] = {
            name: self.ring.assign(name) for name in artifacts
        }
        self._port_dir = Path(tempfile.mkdtemp(prefix="repro-shard-"))
        self._workers: dict[int, ShardWorkerProcess] = {}
        self._respawn_locks: dict[int, threading.Lock] = {}
        self._local = threading.local()
        self._n_respawns = 0
        self._stats_lock = threading.Lock()
        self._closed = False
        self._monitor_stop = threading.Event()
        self._monitor_thread: threading.Thread | None = None
        try:
            partition = self.ring.partition(list(artifacts))
            for worker_id, names in partition.items():
                if not names:
                    continue
                self._workers[worker_id] = ShardWorkerProcess(
                    worker_id,
                    {name: str(artifacts[name]) for name in names},
                    port_dir=self._port_dir,
                    secret=secret,
                    extra_args=extra_worker_args,
                    spawn_timeout=spawn_timeout,
                    verbose=verbose,
                )
                self._respawn_locks[worker_id] = threading.Lock()
            for worker in self._workers.values():
                worker.spawn()
        except BaseException:
            self.close()
            raise
        if monitor_interval is not None:
            self._monitor_thread = threading.Thread(
                target=self._monitor,
                args=(float(monitor_interval),),
                name="repro-shard-monitor",
                daemon=True,
            )
            self._monitor_thread.start()

    # -------------------------------------------------------------- monitor
    @property
    def n_respawns(self) -> int:
        with self._stats_lock:
            return self._n_respawns

    def _monitor(self, interval: float) -> None:
        while not self._monitor_stop.wait(interval):
            for worker in list(self._workers.values()):
                if self._closed:
                    return
                if not worker.alive:
                    try:
                        self._respawn(worker)
                    except ShardError:
                        # The next tick (or the next request) retries; a
                        # crashing monitor would silently end respawns.
                        pass

    def _respawn(self, worker: ShardWorkerProcess) -> None:
        lock = self._respawn_locks[worker.worker_id]
        with lock:
            if self._closed or worker.alive:
                return
            worker.respawn()
            with self._stats_lock:
                self._n_respawns += 1

    # ----------------------------------------------------------- forwarding
    def _connection(self, worker: ShardWorkerProcess) -> http.client.HTTPConnection:
        """Per-(thread, worker incarnation) keep-alive connection.

        Keyed on the incarnation so a respawned worker (fresh port) never
        sees a socket aimed at its previous life.
        """
        cache = getattr(self._local, "connections", None)
        if cache is None:
            cache = self._local.connections = {}
        key = (worker.worker_id, worker.incarnation)
        connection = cache.get(key)
        if connection is None:
            # Drop connections to older incarnations of this worker.
            for stale in [k for k in cache if k[0] == worker.worker_id]:
                cache.pop(stale).close()
            connection = http.client.HTTPConnection(
                worker.host, worker.port, timeout=self.request_timeout
            )
            cache[key] = connection
        return connection

    def _drop_connection(self, worker: ShardWorkerProcess) -> None:
        cache = getattr(self._local, "connections", None)
        if not cache:
            return
        for key in [k for k in cache if k[0] == worker.worker_id]:
            cache.pop(key).close()

    def _forward(
        self, worker: ShardWorkerProcess, method: str, path: str,
        payload: dict | None = None,
    ) -> tuple[int, dict]:
        """One exchange with a worker, healing a dead one along the way.

        A transport error is ambiguous: the worker may have died, or the
        keep-alive socket may simply have rotted.  Probe liveness, respawn
        if dead, and retry exactly once on a fresh connection; a second
        failure is the caller's problem (mapped to 503 by the front end).
        """
        if self._closed:
            raise ShardError("shard pool is closed")
        attempts = 0
        while True:
            attempts += 1
            connection = self._connection(worker)
            try:
                return request_json(
                    worker.host, worker.port, method, path, payload,
                    timeout=self.request_timeout,
                    connection=connection,
                    secret=self.secret,
                )
            except WireError:
                self._drop_connection(worker)
                if not worker.alive:
                    self._respawn(worker)
                if attempts >= 2:
                    raise

    # ------------------------------------------------------ backend protocol
    @property
    def model_names(self) -> list[str]:
        return sorted(self.assignment)

    def worker_for(self, name: str) -> ShardWorkerProcess:
        worker_id = self.assignment.get(name)
        if worker_id is None:
            raise ServingError(
                f"unknown model {name!r} (serving: {self.model_names})"
            )
        return self._workers[worker_id]

    def encode_request(
        self, name: str, request: dict, budget_ms: float | None
    ) -> dict:
        if "data" not in request:
            raise ValidationError("request must carry a 'data' matrix")
        worker = self.worker_for(name)
        payload = {
            "model": name,
            "data": request["data"],
            "use_cache": bool(request.get("use_cache", True)),
        }
        if budget_ms is not None:
            # Forward only what is left of the budget; the worker's own
            # deadline enforcement then covers its queueing and compute.
            payload["deadline_ms"] = budget_ms
        try:
            status, body = self._forward(worker, "POST", "/encode", payload)
        except WireError as exc:
            raise ShardError(
                f"shard worker {worker.worker_id} is unreachable: {exc}"
            ) from exc
        if status == 200:
            body["worker"] = worker.worker_id
            return body
        message = body.get("error", f"worker answered HTTP {status}")
        if status == 404:
            raise ServingError(message)
        if status == 413:
            raise PayloadTooLargeError(message)
        if status == 400:
            raise ValidationError(message)
        if status == 503:
            # Worker-side overload or spent deadline; either way the client
            # should back off, which is exactly what this maps to (503 +
            # Retry-After at the front end).
            raise DeadlineExceededError(message)
        raise ShardError(
            f"shard worker {worker.worker_id} answered HTTP {status}: {message}"
        )

    def describe_models(self) -> dict:
        models: dict = {}
        for worker in self._workers.values():
            try:
                status, body = self._forward(worker, "GET", "/models")
            except WireError:
                continue  # worker mid-respawn; report what is reachable
            if status == 200:
                models.update(body.get("models", {}))
        return models

    def describe_stats(self) -> dict:
        merged: dict = {}
        workers: dict = {}
        fusion = None
        for worker in self._workers.values():
            entry = {
                "alive": worker.alive,
                "port": worker.port,
                "incarnation": worker.incarnation,
                "models": sorted(worker.artifacts),
            }
            try:
                status, body = self._forward(worker, "GET", "/stats")
            except WireError:
                entry["stats"] = None
            else:
                if status == 200:
                    merged.update(body.get("models", {}))
                    if fusion is None:
                        fusion = body.get("fusion")
                    entry["stats"] = body
                else:
                    entry["stats"] = None
            workers[str(worker.worker_id)] = entry
        return {
            "models": merged,
            "cache": None,  # per-worker caches; see shards.workers[*].stats
            "fusion": fusion,
            "shards": {
                "n_workers": self.n_workers,
                "n_active_workers": len(self._workers),
                "n_respawns": self.n_respawns,
                "assignment": dict(sorted(self.assignment.items())),
                "workers": workers,
            },
        }

    # ------------------------------------------------------------ lifecycle
    def kill_worker(self, name_or_id) -> int:
        """SIGKILL the worker owning a model (fault-injection for tests);
        returns the killed pid."""
        if isinstance(name_or_id, str):
            worker = self.worker_for(name_or_id)
        else:
            worker = self._workers[int(name_or_id)]
        if not worker.alive:
            raise ShardError(f"worker {worker.worker_id} is not alive")
        pid = worker.process.pid
        worker.process.kill()
        worker.process.wait(timeout=10)
        return pid

    def close(self) -> None:
        """Stop the monitor, SIGTERM every worker, SIGKILL stragglers."""
        self._closed = True
        self._monitor_stop.set()
        if self._monitor_thread is not None:
            self._monitor_thread.join(timeout=10)
            self._monitor_thread = None
        for worker in self._workers.values():
            if worker.alive:
                worker.process.terminate()
        for worker in self._workers.values():
            worker.terminate()
        shutil.rmtree(self._port_dir, ignore_errors=True)

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


if __name__ == "__main__":  # pragma: no cover - subprocess entry point
    sys.exit(worker_main())
