"""Benchmarks of the persistence + serving subsystem.

Measures the costs that matter for the train/serve split:

* **cold load** — rebuilding a fitted framework from its artifact bundle
  (what a serving replica pays at startup);
* **uncached encode** — a full preprocess + micro-batched forward pass;
* **cached encode** — the same request answered from the LRU feature cache;
* **concurrent fusion** — N closed-loop client threads issuing small encode
  requests, served unfused (one matmul each, serialised on the model's
  compute lock) vs through the :class:`~repro.serving.BatchFuser` (requests
  coalesced into shared stacked matmuls).  Fused results are checked
  bit-identical to direct encodes before any number is reported;
* **overload shedding** — the HTTP front end with admission control armed
  (``max_in_flight``) under a client flood: how cheap a 503 rejection is
  compared to an accepted encode, and the accepted/shed split;
* **shard scaling** — the scale-out stack (the threaded front end over a
  multi-process :class:`~repro.serving.shard.ShardPool`) under 120
  concurrent keep-alive connections, run with 1 and 2 shard workers.
  Every response is checked bit-identical to an unfused sequential encode
  before the throughputs are reported.

Runs standalone without pytest and writes the machine-readable report::

    PYTHONPATH=src python benchmarks/bench_serving.py --smoke --out BENCH_serving.json

The pytest-style ``bench_*`` wrappers remain for the interactive harness.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro.core.config import FrameworkConfig
from repro.core.framework import SelfLearningEncodingFramework
from repro.datasets.synthetic import make_high_dimensional_mixture
from repro.persistence import load_framework, save_framework
from repro.serving import BatchFuser, EncodingService

try:  # the shared bench console helper needs pytest; fall back to print
    from benchmarks.conftest import emit
except ImportError:  # pragma: no cover - standalone / CI bench job
    def emit(*args) -> None:
        print(" ".join(str(a) for a in args), file=sys.__stdout__, flush=True)

try:
    import pytest
except ImportError:  # pragma: no cover - standalone / CI bench job
    pytest = None


# ----------------------------------------------------------------- fixtures
def _make_serving_setup(artifact_dir, *, smoke: bool = False):
    """A fitted slsGRBM framework, its artifact bundle and an encode matrix."""
    n_samples, n_features = (300, 80) if smoke else (600, 200)
    data, _ = make_high_dimensional_mixture(
        n_samples, n_features, 3, separation=1.5, random_state=0
    )
    config = FrameworkConfig(
        model="sls_grbm",
        n_hidden=64,
        n_epochs=3,
        batch_size=64,
        random_state=0,
        extra={"supervision_learning_rate": 8e-3},
    )
    framework = SelfLearningEncodingFramework(config, n_clusters=3)
    framework.fit(data)
    bundle = save_framework(framework, Path(artifact_dir) / "sls_grbm")
    return framework, bundle, data


if pytest is not None:

    @pytest.fixture(scope="module")
    def serving_setup(tmp_path_factory):
        return _make_serving_setup(tmp_path_factory.mktemp("artifacts"))

    def bench_cold_load(benchmark, serving_setup):
        """Artifact bundle -> ready-to-serve framework (manifest, checksum, npz)."""
        _, bundle, _ = serving_setup
        benchmark(load_framework, bundle)

    def bench_encode_uncached(benchmark, serving_setup):
        """600 x 200 encode with the cache bypassed (full forward pass)."""
        _, bundle, data = serving_setup
        service = EncodingService(max_batch_size=256)
        service.load("m", bundle)
        benchmark(service.encode, "m", data, use_cache=False)

    def bench_encode_cached(benchmark, serving_setup):
        """The same encode answered from the LRU feature cache."""
        _, bundle, data = serving_setup
        service = EncodingService(max_batch_size=256)
        service.load("m", bundle)
        service.warm("m", data)
        benchmark(service.encode, "m", data)

    def bench_serving_summary(serving_setup):
        """One-line summary: cold load, cache win and the fusion speedup."""
        framework, bundle, data = serving_setup
        sections = _run_sections(framework, bundle, data, smoke=True)
        emit("\n================ serving ================")
        emit(_format_summary_lines(sections))
        assert sections["cache"]["cached_samples_per_second"] > sections["cache"][
            "uncached_samples_per_second"
        ]
        assert sections["concurrent_fusion"]["bit_identical"]


# -------------------------------------------------- concurrent fusion bench
def _run_clients(n_clients: int, client_body) -> float:
    """Run ``client_body(index)`` from N barrier-started threads; seconds."""
    barrier = threading.Barrier(n_clients + 1)
    errors: list[BaseException] = []

    def client(index: int) -> None:
        barrier.wait()
        try:
            client_body(index)
        except BaseException as exc:  # noqa: BLE001 - surfaced after join
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(index,)) for index in range(n_clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    return elapsed


def run_concurrent_fusion_bench(
    framework,
    *,
    n_clients: int = 8,
    requests_per_client: int = 60,
    rows_per_request: int = 2,
    pipeline_depth: int = 8,
    max_wait_ms: float = 4.0,
    repeats: int = 5,
) -> dict:
    """Fused vs unfused concurrent throughput on the serving fast path.

    Serves the framework's bare RBM (the scratch-buffer fast path) to N
    concurrent clients issuing small distinct request matrices — the
    classic online-serving shape where per-request overhead, not FLOPs,
    limits throughput.  Unfused clients call ``service.encode`` directly
    (blocking, serialised on the model's compute lock); fused clients drive
    the :class:`BatchFuser` ticket API with ``pipeline_depth`` requests in
    flight, the way a real async encode tier keeps its connection pipeline
    full.  The cache is disabled on both sides, timings are best-of-
    ``repeats``, and every fused result is verified bit-identical to a
    direct encode before any number is reported.

    ``rows_per_request`` must be >= 2 for the bit-equivalence check: BLAS
    dispatches a different kernel (GEMV) for single-row matmuls, so a 1-row
    request computed inside a fused GEMM can differ from its unfused result
    in the last bits (it stays allclose at ~1e-16).
    """
    from collections import deque

    model = framework.model_
    n_features = model.weights_.shape[0]
    rng = np.random.default_rng(7)
    requests = [
        [
            np.ascontiguousarray(
                rng.random((rows_per_request, n_features)), dtype=model.weights_.dtype
            )
            for _ in range(requests_per_client)
        ]
        for _ in range(n_clients)
    ]
    total_rows = n_clients * requests_per_client * rows_per_request

    # --- unfused: every client calls the service directly ------------------
    service = EncodingService(cache_entries=0)
    service.register("m", model)

    def unfused_one(client_index: int) -> None:
        for matrix in requests[client_index]:
            service.encode("m", matrix, use_cache=False)

    _run_clients(n_clients, unfused_one)  # warmup: scratch buffers, threads
    unfused_seconds = min(
        _run_clients(n_clients, unfused_one) for _ in range(repeats)
    )

    # --- fused: the same traffic through the BatchFuser --------------------
    fused_seconds = float("inf")
    fused_results: list[list[np.ndarray]] = []
    stats: dict = {}
    for repeat in range(repeats + 1):  # first fused pass is an untimed warmup
        fused_service = EncodingService(cache_entries=0)
        fused_service.register("m", model)
        fuser = BatchFuser(
            fused_service,
            max_batch_rows=n_clients * rows_per_request,
            max_wait_ms=max_wait_ms,
            use_cache=False,
        )
        results: list[list[np.ndarray]] = [[] for _ in range(n_clients)]

        def fused_one(client_index: int) -> None:
            pending: deque = deque()
            collect = results[client_index].append
            for matrix in requests[client_index]:
                pending.append(fuser.submit("m", matrix))
                if len(pending) >= pipeline_depth:
                    collect(fuser.wait_for("m", pending.popleft()))
            while pending:
                collect(fuser.wait_for("m", pending.popleft()))

        seconds = _run_clients(n_clients, fused_one)
        fuser.close()
        if repeat == 0:
            continue
        if seconds < fused_seconds:
            fused_seconds = seconds
            fused_results = results
            stats = fused_service.stats("m")

    # --- bit-equivalence: fused bytes == direct encode bytes ---------------
    bit_identical = True
    reference_service = EncodingService(cache_entries=0)
    reference_service.register("m", model)
    for client_index in range(n_clients):
        for matrix, fused in zip(requests[client_index], fused_results[client_index]):
            direct = reference_service.encode("m", matrix, use_cache=False)
            if fused.dtype != direct.dtype or not np.array_equal(fused, direct):
                bit_identical = False

    return {
        "n_clients": n_clients,
        "requests_per_client": requests_per_client,
        "rows_per_request": rows_per_request,
        "pipeline_depth": pipeline_depth,
        "n_features": int(n_features),
        "n_hidden": int(model.weights_.shape[1]),
        "max_wait_ms": max_wait_ms,
        "unfused_seconds": unfused_seconds,
        "fused_seconds": fused_seconds,
        "unfused_samples_per_second": total_rows / unfused_seconds,
        "fused_samples_per_second": total_rows / fused_seconds,
        "fused_over_unfused": unfused_seconds / fused_seconds,
        "fusion_ratio": stats["fusion_ratio"],
        "n_flushes": stats["n_flushes"],
        "mean_queue_ms": stats["mean_queue_seconds"] * 1e3,
        "bit_identical": bit_identical,
    }


# ------------------------------------------------------------ overload bench
def run_overload_bench(
    framework,
    *,
    max_in_flight: int = 2,
    n_clients: int = 8,
    requests_per_client: int = 25,
    rows_per_request: int = 4,
    shed_probe_requests: int = 200,
) -> dict:
    """Admission control under flood: shed cost vs accepted cost.

    Serves the framework over the real HTTP front end with
    ``max_in_flight`` admission slots and floods it from ``n_clients``
    closed-loop threads — more clients than slots, so a fraction of the
    requests is shed with 503 + ``Retry-After`` while the rest encode
    normally.  A separate deterministic probe fills every slot via
    ``try_admit`` and times pure rejections, measuring the fast path an
    overloaded server falls back to: shedding must stay orders of
    magnitude cheaper than computing.
    """
    import json as json_module
    import urllib.error
    import urllib.request

    from repro.serving.http import build_server

    model = framework.model_
    n_features = model.weights_.shape[0]
    rng = np.random.default_rng(11)
    matrix = rng.random((rows_per_request, n_features)).tolist()
    payload = json_module.dumps({"model": "m", "data": matrix,
                                 "use_cache": False}).encode("utf-8")

    service = EncodingService(cache_entries=0)
    service.register("m", model)
    fuser = BatchFuser(service, max_batch_rows=n_clients * rows_per_request,
                       max_wait_ms=2.0, use_cache=False)
    server = build_server(service, fuser=fuser, port=0,
                          max_in_flight=max_in_flight, retry_after=0.05)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.server_address[1]}/encode"

    def post_once() -> int:
        request = urllib.request.Request(
            url, data=payload, headers={"Content-Type": "application/json"}
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                response.read()
                return response.status
        except urllib.error.HTTPError as exc:
            exc.read()
            return exc.code

    try:
        # --- accepted-request latency (no contention) ----------------------
        for _ in range(5):  # warmup: scratch buffers, keep-alive, fuser
            post_once()
        start = time.perf_counter()
        for _ in range(20):
            post_once()
        accepted_latency_ms = (time.perf_counter() - start) / 20 * 1e3

        # --- pure-shed latency: every slot occupied ------------------------
        for _ in range(max_in_flight):
            assert server.gateway.try_admit()
        start = time.perf_counter()
        for _ in range(shed_probe_requests):
            status = post_once()
            assert status == 503
        shed_latency_ms = (
            (time.perf_counter() - start) / shed_probe_requests * 1e3
        )
        for _ in range(max_in_flight):
            server.gateway.release_request()

        # --- flood: more clients than slots --------------------------------
        statuses: list[list[int]] = [[] for _ in range(n_clients)]

        def flood_one(client_index: int) -> None:
            for _ in range(requests_per_client):
                statuses[client_index].append(post_once())

        flood_seconds = _run_clients(n_clients, flood_one)
        flat = [status for per_client in statuses for status in per_client]
        n_accepted = sum(1 for status in flat if status == 200)
        n_shed = sum(1 for status in flat if status == 503)
        admission = server.gateway.admission.as_dict()
    finally:
        fuser.close()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    return {
        "max_in_flight": max_in_flight,
        "n_clients": n_clients,
        "requests_per_client": requests_per_client,
        "rows_per_request": rows_per_request,
        "accepted_latency_ms": accepted_latency_ms,
        "shed_latency_ms": shed_latency_ms,
        "shed_over_accepted": shed_latency_ms / accepted_latency_ms,
        "flood_seconds": flood_seconds,
        "flood_n_accepted": n_accepted,
        "flood_n_shed": n_shed,
        "flood_shed_fraction": n_shed / max(1, len(flat)),
        "accepted_requests_per_second": n_accepted / flood_seconds,
        "peak_in_flight": admission["peak_in_flight"],
        "n_deadline_shed": admission["n_deadline_shed"],
    }


# ------------------------------------------------------- shard scaling bench
async def _async_post_raw(reader, writer, payload: bytes):
    """One keep-alive POST /encode over an open asyncio connection."""
    head = (
        "POST /encode HTTP/1.1\r\nHost: bench\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n\r\n"
    )
    writer.write(head.encode("latin-1") + payload)
    await writer.drain()
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n"):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return status, await reader.readexactly(length)


def run_shard_scaling_bench(
    bundle,
    data,
    *,
    n_connections: int = 120,
    requests_per_connection: int = 2,
    rows_per_request: int = 4,
    n_models: int = 4,
    worker_counts: tuple = (1, 2),
) -> dict:
    """Threaded front end + shard pool under 100+ concurrent connections.

    Builds the scale-out serving stack — ``EncodingHTTPServer`` in front
    of a :class:`~repro.serving.shard.ShardPool` — and drives it with an
    asyncio load generator holding ``n_connections`` concurrent keep-alive
    connections on one selector loop, once per entry in ``worker_counts``
    (the 1-worker run is the sharding baseline).  Every response is checked
    bit-identical against an unfused sequential ``service.encode`` of the
    same rows before any number is reported; ``rows_per_request`` must stay
    >= 2 so the per-shard fuser's stacked GEMM matches the unfused GEMM
    kernel (the 1-row GEMV caveat, see the fusion bench).

    On a single-core host the 2-worker run mostly measures that sharding
    does not *cost* throughput; real scaling needs real cores — the report
    carries ``cpu_count`` so readers can judge the numbers honestly.
    """
    import asyncio
    import json as json_module

    from repro.serving.http import ServingGateway, build_server
    from repro.serving.shard import ShardPool

    models = [f"m{index}" for index in range(n_models)]
    rows = np.asarray(data[:rows_per_request], dtype=float)
    payload = json_module.dumps(
        {"model": "MODEL", "data": rows.tolist(), "use_cache": False}
    )
    payloads = {
        name: payload.replace('"MODEL"', f'"{name}"').encode("utf-8")
        for name in models
    }

    reference = EncodingService(cache_entries=0)
    reference.load("ref", bundle)
    expected = reference.encode("ref", rows, use_cache=False)

    async def connection_worker(port: int, index: int, n_requests: int) -> list:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        bodies = []
        try:
            for request_index in range(n_requests):
                name = models[(index + request_index) % len(models)]
                bodies.append(await _async_post_raw(reader, writer,
                                                    payloads[name]))
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
        return bodies

    async def drive(port: int, connections: int, per_connection: int) -> list:
        tasks = [
            asyncio.create_task(connection_worker(port, index, per_connection))
            for index in range(connections)
        ]
        return await asyncio.gather(*tasks)

    bit_identical = True
    scaling = []
    for n_workers in worker_counts:
        pool = ShardPool({name: str(bundle) for name in models}, n_workers)
        try:
            server = build_server(gateway=ServingGateway(pool), port=0)
        except BaseException:
            pool.close()
            raise
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            port = server.server_address[1]
            # Warmup: scratch buffers + per-thread worker connections.
            asyncio.run(drive(port, len(models), 1))
            start = time.perf_counter()
            per_connection = asyncio.run(
                drive(port, n_connections, requests_per_connection)
            )
            seconds = time.perf_counter() - start
        finally:
            server.shutdown()  # drains, then closes the gateway + pool
            server.server_close()
            thread.join(timeout=5)

        n_ok = 0
        for bodies in per_connection:
            for status, raw in bodies:
                if status != 200:
                    raise RuntimeError(
                        f"scaling bench got HTTP {status}: {raw[:200]!r}"
                    )
                features = np.asarray(
                    json_module.loads(raw)["features"], dtype=expected.dtype
                )
                if not np.array_equal(features, expected):
                    bit_identical = False
                n_ok += 1
        total = n_connections * requests_per_connection
        if n_ok != total:
            raise RuntimeError(f"expected {total} responses, got {n_ok}")
        scaling.append({
            "n_workers": n_workers,
            "seconds": seconds,
            "requests_per_second": total / seconds,
        })

    return {
        "n_connections": n_connections,
        "requests_per_connection": requests_per_connection,
        "rows_per_request": rows_per_request,
        "n_models": n_models,
        "bit_identical": bit_identical,
        "scaling": scaling,
        "throughput_scaling": (
            scaling[-1]["requests_per_second"]
            / scaling[0]["requests_per_second"]
        ),
    }


# ------------------------------------------------------------------ sections
def _run_sections(framework, bundle, data, *, smoke: bool, online_framework=None) -> dict:
    start = time.perf_counter()
    load_framework(bundle)
    cold_load_seconds = time.perf_counter() - start

    service = EncodingService(max_batch_size=256)
    service.load("m", bundle)
    rounds = 10 if smoke else 20
    start = time.perf_counter()
    for _ in range(rounds):
        service.encode("m", data, use_cache=False)
    uncached = rounds * data.shape[0] / (time.perf_counter() - start)

    service.warm("m", data)
    start = time.perf_counter()
    for _ in range(rounds):
        service.encode("m", data)
    cached = rounds * data.shape[0] / (time.perf_counter() - start)

    # The fusion scenario deliberately uses a small "online" model (the
    # smoke-sized framework): tiny concurrent requests against a compact
    # encoder are the per-request-overhead-dominated regime batch fusion
    # exists for.  The big model above still measures cold load and the
    # cache win.
    fusion_model = online_framework if online_framework is not None else framework
    fusion = run_concurrent_fusion_bench(
        fusion_model,
        requests_per_client=30 if smoke else 80,
    )
    # Secondary scenario: strictly synchronous closed-loop clients (one
    # request in flight each) with larger requests — the pessimal case for
    # coalescing, reported for transparency.
    fusion_sync = run_concurrent_fusion_bench(
        fusion_model,
        requests_per_client=15 if smoke else 40,
        rows_per_request=16,
        pipeline_depth=1,
        repeats=2,
    )
    overload = run_overload_bench(
        fusion_model,
        requests_per_client=10 if smoke else 25,
        shed_probe_requests=50 if smoke else 200,
    )
    # The scale-out stack always runs at >= 100 connections — that IS the
    # scenario; shrinking it in smoke mode would measure nothing.
    shard_scaling = run_shard_scaling_bench(
        bundle,
        data,
        requests_per_connection=2 if smoke else 4,
    )
    return {
        "cold_load": {"seconds": cold_load_seconds},
        "cache": {
            "rounds": rounds,
            "uncached_samples_per_second": uncached,
            "cached_samples_per_second": cached,
            "cached_over_uncached": cached / uncached,
        },
        "concurrent_fusion": fusion,
        "concurrent_fusion_sync": fusion_sync,
        "overload": overload,
        "shard_scaling": shard_scaling,
    }


def _format_summary_lines(sections: dict) -> str:
    cache = sections["cache"]
    lines = [
        f"cold load: {sections['cold_load']['seconds'] * 1e3:.1f} ms, "
        f"uncached encode: {cache['uncached_samples_per_second']:,.0f} samples/s, "
        f"cached encode: {cache['cached_samples_per_second']:,.0f} samples/s "
        f"({cache['cached_over_uncached']:.0f}x)"
    ]
    for key, label in (
        ("concurrent_fusion", "concurrent fusion (pipelined)"),
        ("concurrent_fusion_sync", "concurrent fusion (sync)"),
    ):
        fusion = sections.get(key)
        if fusion is None:
            continue
        lines.append(
            f"{label} ({fusion['n_clients']} clients x "
            f"{fusion['requests_per_client']} x {fusion['rows_per_request']} rows, "
            f"depth {fusion['pipeline_depth']}): "
            f"unfused {fusion['unfused_samples_per_second']:,.0f} samples/s, "
            f"fused {fusion['fused_samples_per_second']:,.0f} samples/s "
            f"({fusion['fused_over_unfused']:.2f}x, fusion ratio "
            f"{fusion['fusion_ratio']:.1f}, bit_identical={fusion['bit_identical']})"
        )
    overload = sections.get("overload")
    if overload is not None:
        lines.append(
            f"overload ({overload['n_clients']} clients vs "
            f"{overload['max_in_flight']} slots): "
            f"shed 503 in {overload['shed_latency_ms']:.2f} ms vs "
            f"{overload['accepted_latency_ms']:.2f} ms accepted, "
            f"flood shed fraction {overload['flood_shed_fraction']:.0%}, "
            f"accepted {overload['accepted_requests_per_second']:,.0f} req/s"
        )
    shard = sections.get("shard_scaling")
    if shard is not None:
        per_worker = ", ".join(
            f"{entry['n_workers']}w {entry['requests_per_second']:,.0f} req/s"
            for entry in shard["scaling"]
        )
        lines.append(
            f"shard scaling ({shard['n_connections']} connections x "
            f"{shard['requests_per_connection']} x "
            f"{shard['rows_per_request']} rows): {per_worker} "
            f"({shard['throughput_scaling']:.2f}x, "
            f"bit_identical={shard['bit_identical']})"
        )
    return "\n".join(lines)


def run_serving_benchmarks(*, smoke: bool = False) -> dict:
    """Every serving section; returns the ``BENCH_serving.json`` payload."""
    import repro

    with tempfile.TemporaryDirectory() as artifact_dir:
        framework, bundle, data = _make_serving_setup(artifact_dir, smoke=smoke)
        online_framework = None
        if not smoke:  # dedicated small model for the concurrency scenario
            online_framework, _, _ = _make_serving_setup(
                Path(artifact_dir) / "online", smoke=True
            )
        sections = _run_sections(
            framework, bundle, data, smoke=smoke, online_framework=online_framework
        )
    return {
        "benchmark": "serving",
        "repro_version": repro.__version__,
        "smoke": bool(smoke),
        "created_unix": time.time(),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "results": sections,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Serving benchmarks: cache win and concurrent batch fusion."
    )
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes so every section finishes in seconds")
    parser.add_argument("--out", default="BENCH_serving.json",
                        help="output JSON path (default: BENCH_serving.json)")
    args = parser.parse_args(argv)

    payload = run_serving_benchmarks(smoke=args.smoke)
    out = Path(args.out)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    emit(_format_summary_lines(payload["results"]))
    emit(f"serving benchmark report written to {out}")
    for key in ("concurrent_fusion", "concurrent_fusion_sync",
                "shard_scaling"):
        if not payload["results"][key]["bit_identical"]:
            emit(f"ERROR: {key} fused results are not bit-identical to unfused")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
