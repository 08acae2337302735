"""Serving-scale smoke: 100+ concurrent connections against the CLI stack.

Drives a real ``repro serve --shard-workers 2`` subprocess — the exact
deployment shape — with an asyncio load generator opening 120 concurrent
keep-alive connections at once, then stops it with SIGTERM and requires a
clean exit.  Every response is checked bit-identical against an unfused
sequential encode of the same rows.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.core.config import FrameworkConfig
from repro.core.framework import SelfLearningEncodingFramework
from repro.datasets.synthetic import make_overlapping_binary_clusters
from repro.persistence.artifacts import save_framework
from repro.serving import EncodingService

pytestmark = pytest.mark.slow

N_CONNECTIONS = 120
REQUESTS_PER_CONNECTION = 2
MODELS = ["m0", "m1", "m2", "m3"]


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    data, _ = make_overlapping_binary_clusters(
        50, 6, 2, flip_probability=0.1, random_state=0
    )
    config = FrameworkConfig(
        model="sls_rbm",
        preprocessing="median_binarize",
        supervision_preprocessing="standardize",
        n_hidden=4,
        n_epochs=2,
        random_state=0,
    )
    framework = SelfLearningEncodingFramework(config, n_clusters=2)
    framework.fit(data)
    bundle = save_framework(
        framework, tmp_path_factory.mktemp("scale") / "artifact"
    )
    return str(bundle), data


async def _http_post(reader, writer, path: str, payload: dict) -> tuple[int, dict]:
    body = json.dumps(payload).encode("utf-8")
    head = (
        f"POST {path} HTTP/1.1\r\nHost: l\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    writer.write(head.encode("latin-1") + body)
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
    raw = await reader.readexactly(length)
    return status, json.loads(raw)


async def _connection_worker(port: int, index: int, rows: list) -> list:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    results = []
    try:
        for request_index in range(REQUESTS_PER_CONNECTION):
            model = MODELS[(index + request_index) % len(MODELS)]
            status, body = await _http_post(
                reader, writer, "/encode", {"model": model, "data": rows}
            )
            results.append((status, body))
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    return results


async def _drive_load(port: int, rows: list) -> list:
    tasks = [
        asyncio.create_task(_connection_worker(port, index, rows))
        for index in range(N_CONNECTIONS)
    ]
    return await asyncio.gather(*tasks)


class TestShardedScale:
    def test_120_concurrent_connections_bit_identical_and_clean_sigterm(
        self, artifact
    ):
        bundle, data = artifact
        rows = data[:4].tolist()

        reference = EncodingService()
        reference.load("ref", bundle)
        expected = reference.encode("ref", np.asarray(rows), use_cache=False)

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [path for path in sys.path if path]
            + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        command = [sys.executable, "-m", "repro", "serve", "--port", "0",
                   "--shard-workers", "2"]
        for name in MODELS:
            command.extend(["--artifact", f"{name}={bundle}"])
        process = subprocess.Popen(
            command, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        try:
            port = None
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                line = process.stdout.readline()
                if not line and process.poll() is not None:
                    break
                match = re.search(r"on http://[\d.]+:(\d+)", line)
                if match:
                    port = int(match.group(1))
                    break
            assert port is not None, "server never announced its port"

            per_connection = asyncio.run(_drive_load(port, rows))

            n_responses = 0
            for results in per_connection:
                assert len(results) == REQUESTS_PER_CONNECTION
                for status, body in results:
                    assert status == 200, body
                    assert np.array_equal(
                        np.asarray(body["features"]), expected
                    ), "sharded fused encode diverged from sequential encode"
                    n_responses += 1
            assert n_responses == N_CONNECTIONS * REQUESTS_PER_CONNECTION

            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=60) == 0
        finally:
            # Terminate before killing: SIGTERM makes ``repro serve`` stop
            # its shard workers, which a SIGKILL would leave running.
            if process.poll() is None:
                process.terminate()
                try:
                    process.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait(timeout=30)
