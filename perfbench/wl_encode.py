"""``encode`` workload: ``python -m repro serve --port 0`` with default flags,
serving two slsGRBM artifacts (d=200, 64 hidden units), driven open-loop
over two keep-alive connections.

Phases: a nominal phase at 20 req/s (at least 600 requests), then a
doubling rate ladder that stops at the first rung whose tail latency
exceeds the limit, that loses a request, or whose generator lateness grows.
The nominal phase is the ladder's first rung.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from common import (
    end_to_end,
    ladder_stops,
    median,
    percentile,
    pin_threads,
    process_peak_rss_mb,
    supported_percentile,
)
from loadgen import run_phase

N_FEATURES = 200
MODELS = ("m0", "m1")
#: Nominal rate: 10 req/s per connection.  At 15 req/s per connection the
#: threaded server's delayed-ACK stall (see WORKLOADS.md) sustains itself
#: in episodes of tens of requests, and whether a run catches one decides
#: its tail; at 10 req/s a stalled reply still leaves the client more than
#: the delayed-ACK timeout before its next send, so the stall stays rare.
NOMINAL_RATE = 20.0
NOMINAL_MIN_REQUESTS = 600
RUNG_REQUESTS = 400
MAX_RATE = 960.0
LATENCY_LIMIT_MS = 25.0
CONNECTIONS = 2
REPEAT_SHARE = 0.25
LARGE_SHARE = 0.08
LARGE_ROWS = 64
SETUP_SPAWNS = 5
#: Tail percentile of the end-to-end metric and of the ladder's limit check:
#: thirty samples beyond it in the nominal phase, so one machine hiccup
#: cannot move it.  The highest percentile with ten samples beyond (p98 of
#: 600 requests) is printed alongside.
TAIL_PERCENTILE = 95.0
#: Every CHECK_EVERY-th nominal response is compared with in-process output.
CHECK_EVERY = 10


# ----------------------------------------------------------------- inputs
def build_artifacts(root: Path, seed: int) -> dict:
    """Train and save the two served models (before any timing starts)."""
    from repro import FrameworkConfig, SelfLearningEncodingFramework, save_framework
    from repro.datasets.synthetic import make_high_dimensional_mixture

    paths = {}
    for number, name in enumerate(MODELS):
        data, _ = make_high_dimensional_mixture(
            400, N_FEATURES, 5, random_state=seed * 1000 + 100 + number
        )
        config = FrameworkConfig(
            model="sls_grbm", n_hidden=64, n_epochs=5, random_state=seed + number
        )
        framework = SelfLearningEncodingFramework(config, n_clusters=5).fit(data)
        paths[name] = root / name
        save_framework(framework, paths[name])
    return paths


def make_requests(seed: int, stream: int, n: int) -> list:
    """``n`` (model, rows, body) requests: 8% carry 64 rows, 25% repeat one
    of the 16 most recent distinct 1-8-row bodies, the rest are new 1-8-row
    bodies; models are picked at random.  The shares are exact, so the tail
    (p95 lands among the 64-row requests) does not move with the seed."""
    from repro.datasets.synthetic import make_high_dimensional_mixture

    pool, _ = make_high_dimensional_mixture(
        2000, N_FEATURES, 5, random_state=seed * 1000 + 200 + stream
    )
    rng = np.random.default_rng([seed, stream])
    kinds = np.zeros(n, dtype=int)  # 0 new small, 1 large, 2 repeat
    order = rng.permutation(n)
    n_large, n_repeat = round(LARGE_SHARE * n), round(REPEAT_SHARE * n)
    kinds[order[:n_large]] = 1
    kinds[order[n_large:n_large + n_repeat]] = 2
    requests, recent = [], []
    for kind in kinds:
        if kind == 2 and recent:
            requests.append(recent[int(rng.integers(len(recent)))])
            continue
        rows = LARGE_ROWS if kind == 1 else int(rng.integers(1, 9))
        data = pool[rng.integers(0, len(pool), size=rows)]
        model = MODELS[int(rng.integers(len(MODELS)))]
        body = json.dumps({"model": model, "data": data.tolist()}).encode("utf-8")
        requests.append((model, data, body))
        if kind != 1:
            recent = (recent + [requests[-1]])[-16:]
    return requests


# ----------------------------------------------------------------- server
class Server:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, artifacts: dict) -> None:
        command = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        for name, path in artifacts.items():
            command += ["--artifact", f"{name}={path}"]
        start = time.perf_counter()
        self.process = subprocess.Popen(
            command,
            env=pin_threads(dict(os.environ)),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            line = self.process.stdout.readline()
            if "http://" not in line:
                raise RuntimeError(f"server did not announce a port: {line!r}")
            address = line.split("http://", 1)[1].split()[0]
            self.host, port = address.rsplit(":", 1)
            self.port = int(port)
            self._wait_healthy(timeout=60.0)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _wait_healthy(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                if self.get("/healthz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.002)
        raise RuntimeError("server never answered /healthz")

    def get(self, path: str):
        connection = http.client.HTTPConnection(self.host, self.port, timeout=10)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        finally:
            connection.close()

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=10)
        self.process.stdout.close()


# ----------------------------------------------------------------- checks
def load_reference(artifacts: dict) -> dict:
    import repro.persistence as persistence

    return {name: persistence.load_framework(path) for name, path in artifacts.items()}


def mismatches(phase, requests, reference) -> tuple[int, int]:
    """(checked, differing): kept responses compared byte for byte with
    in-process ``framework.transform`` on the same rows."""
    checked = bad = 0
    for outcome in phase.outcomes:
        if outcome.body is None or not outcome.ok:
            continue
        model, data, _ = requests[outcome.index]
        served = np.asarray(json.loads(outcome.body)["features"], dtype=np.float64)
        expected = reference[model].transform(data)
        checked += 1
        if served.shape != expected.shape or served.tobytes() != expected.tobytes():
            bad += 1
    return checked, bad


def tail(phase) -> float:
    return percentile(phase.latencies_ms(), TAIL_PERCENTILE)


def print_phase(name: str, phase, extra: dict | None = None) -> None:
    record = {"phase": name, **phase.summary(), **(extra or {})}
    print("# " + json.dumps(record), flush=True)


# ----------------------------------------------------------------- phases
def nominal_phase(server, seed: int, seconds: float):
    n = max(NOMINAL_MIN_REQUESTS, int(round(NOMINAL_RATE * seconds)))
    requests = make_requests(seed, 1, n)
    warm = make_requests(seed, 0, 20)
    run_phase(server.host, server.port, [r[2] for r in warm], NOMINAL_RATE * 4,
              connections=CONNECTIONS)
    before = server.get("/stats")[1]
    phase = run_phase(
        server.host,
        server.port,
        [r[2] for r in requests],
        NOMINAL_RATE,
        connections=CONNECTIONS,
        keep_body=lambda index: index % CHECK_EVERY == 0,
    )
    after = server.get("/stats")[1]
    return requests, phase, before, after


def ladder(server, seed: int, nominal):
    """Doubling rate ladder from the nominal rung; returns (highest passing
    phase or None, requests attempted, requests failed)."""
    best, attempted, failed = None, 0, 0
    rate, phase = NOMINAL_RATE, nominal
    for stream in itertools.count(2):
        if ladder_stops(tail(phase), LATENCY_LIMIT_MS, phase.lateness_ms(),
                        phase.failed):
            break
        best = phase
        rate *= 2
        if rate > MAX_RATE:
            break
        requests = make_requests(seed, stream, RUNG_REQUESTS)
        phase = run_phase(server.host, server.port, [r[2] for r in requests],
                          rate, connections=CONNECTIONS)
        attempted += len(phase.outcomes)
        failed += phase.failed
        print_phase("ladder", phase, {"p95_ms": tail(phase)})
    return best, attempted, failed


def run(seed: int, seconds: float, root: Path) -> dict:
    workdir = root / f"encode-{os.getpid()}"
    try:
        artifacts = build_artifacts(workdir, seed)
        reference = load_reference(artifacts)
        setups = []
        for _ in range(SETUP_SPAWNS - 1):
            spare = Server(artifacts)
            setups.append(spare.setup_s)
            spare.stop()
        server = Server(artifacts)
        setups.append(server.setup_s)
        try:
            requests, nominal, _, _ = nominal_phase(server, seed, seconds)
            nominal_tail = tail(nominal)
            latencies = nominal.latencies_ms()
            q = supported_percentile(len(latencies))
            high = percentile(latencies, q)
            checked, bad = mismatches(nominal, requests, reference)
            attempted, failed = len(nominal.outcomes), nominal.failed + bad
            print_phase("nominal", nominal, {
                "p50_ms": percentile(latencies, 50), "p95_ms": nominal_tail,
                f"p{q:g}_ms": high, "mismatches": bad,
            })
            best, ladder_attempted, ladder_failed = ladder(server, seed, nominal)
            attempted += ladder_attempted
            failed += ladder_failed
            peak_rss = server.peak_rss_mb()
        finally:
            server.stop()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    p50 = percentile(latencies, 50)
    max_rps = best.achieved_rps() if best else 0.0
    return {
        "attempted": attempted,
        "failed": failed,
        "named": {
            "encode_p50_ms": (p50, "ms"),
            "encode_p95_ms": (nominal_tail, "ms"),
            f"encode_p{q:g}_ms": (high, "ms"),
            "encode_max_rps": (max_rps, "1/s"),
        },
        "metrics": end_to_end(
            setup_s=median(setups),
            peak_rss_mb=peak_rss,
            latency_ms=p50,
            tail_latency_ms=nominal_tail,
            throughput_per_s=max_rps,
            quality=(checked - bad) / checked if checked else 0.0,
        ),
    }


def _stats_delta(before: dict, after: dict) -> dict:
    keys = ("n_requests", "n_cache_hits", "n_flushes", "n_fused_requests",
            "total_seconds", "total_queue_seconds", "total_compute_seconds")
    delta = {key: 0.0 for key in keys}
    for name, counters in after["models"].items():
        previous = before["models"].get(name, {})
        for key in keys:
            delta[key] += counters[key] - previous.get(key, 0)
    shed_keys = ("n_shed", "n_deadline_shed")
    delta["shed"] = sum(
        after["admission"][k] - before["admission"][k] for k in shed_keys
    )
    return delta


def run_traced(seed: int, seconds: float, root: Path, tracer) -> dict:
    """Per-layer split of the nominal phase: server counters from ``/stats``,
    transport as client mean minus server mean, and the in-process
    ``EncodingService`` on the same bodies (untraced, then traced)."""
    from repro.serving import EncodingService

    from spans import install_layer_wrappers

    workdir = root / f"encode-{os.getpid()}"
    try:
        artifacts = build_artifacts(workdir, seed)
        server = Server(artifacts)
        try:
            requests, nominal, before, after = nominal_phase(server, seed, seconds)
        finally:
            server.stop()
        delta = _stats_delta(before, after)

        def service_pass():
            import repro.persistence as persistence

            service = EncodingService()
            for name, path in artifacts.items():
                service.register(name, persistence.load_framework(path))
            start = time.perf_counter()
            for model, data, _ in requests:
                service.encode(model, data)
            return time.perf_counter() - start

        untraced_s = service_pass()
        install_layer_wrappers(tracer)
        try:
            with tracer.span("encode.service_pass"):
                traced_s = service_pass()
        finally:
            tracer.unwrap_all()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    n = max(delta["n_requests"], 1)
    computed = max(delta["n_requests"] - delta["n_cache_hits"], 1)
    server_ms = delta["total_seconds"] / n * 1000.0
    ok = [o for o in nominal.outcomes if o.ok]
    client_ms = float(np.mean([(o.done - o.sent) * 1000.0 for o in ok]))
    encodes = tracer.select("serving.service_encode")
    return {
        "attempted": len(nominal.outcomes) + 2 * len(requests),
        "failed": nominal.failed,
        "op_s": traced_s,
        "overhead_s": traced_s - untraced_s,
        "extra": {
            "serving.server_ms": (server_ms, "ms"),
            "serving.queue_ms": (delta["total_queue_seconds"] / n * 1000.0, "ms"),
            "serving.compute_ms": (
                delta["total_compute_seconds"] / computed * 1000.0, "ms"),
            "serving.cache_hit_rate": (delta["n_cache_hits"] / n, "ratio"),
            "serving.fusion_ratio": (
                delta["n_fused_requests"] / max(delta["n_flushes"], 1), "ratio"),
            "serving.shed": (delta["shed"], "count"),
            "serving.transport_ms": (client_ms - server_ms, "ms"),
            "serving.service_encode_ms": (
                float(np.mean([(s["end"] - s["start"]) * 1000.0 for s in encodes]))
                if encodes else 0.0, "ms"),
            "serving.generator_late_ms": (
                float(np.mean(nominal.lateness_ms())), "ms"),
        },
    }
