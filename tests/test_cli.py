"""End-to-end tests for the ``python -m repro`` command line."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.datasets import load_uci_dataset
from repro.persistence import load_framework

TRAIN_ARGS = [
    "train",
    "--suite", "uci",
    "--dataset", "IR",
    "--scale", "0.5",
    "--model", "sls_rbm",
    "--n-hidden", "6",
    "--epochs", "2",
    "--out",
]


@pytest.fixture
def artifact(tmp_path):
    bundle = tmp_path / "artifact"
    assert main(TRAIN_ARGS + [str(bundle)]) == 0
    return bundle


class TestTrain:
    def test_creates_loadable_bundle(self, artifact, capsys):
        framework = load_framework(artifact)
        assert framework.config.model == "sls_rbm"
        assert framework.is_fitted

    def test_output_summary(self, tmp_path, capsys):
        main(TRAIN_ARGS + [str(tmp_path / "b")])
        out = capsys.readouterr().out
        assert "trained sls_rbm on uci:IR" in out
        assert "final reconstruction error" in out
        assert "artifact written to" in out

    def test_train_from_inline_spec(self, tmp_path, capsys):
        import json

        spec = {
            "type": "framework",
            "params": {
                "config": {
                    "model": "rbm",
                    "n_hidden": 6,
                    "n_epochs": 2,
                    "preprocessing": "median_binarize",
                },
                "n_clusters": 3,
            },
        }
        code = main([
            "train", "--suite", "uci", "--dataset", "IR", "--scale", "0.5",
            "--spec", json.dumps(spec), "--out", str(tmp_path / "s"),
        ])
        assert code == 0
        framework = load_framework(tmp_path / "s")
        assert framework.config.model == "rbm"
        assert framework.config.n_hidden == 6

    def test_train_from_spec_file(self, tmp_path):
        import json

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "type": "framework",
            "params": {"config": {"model": "grbm", "n_hidden": 4,
                                  "n_epochs": 2},
                       "n_clusters": 3},
        }))
        code = main([
            "train", "--suite", "uci", "--dataset", "IR", "--scale", "0.5",
            "--spec", f"@{spec_path}", "--out", str(tmp_path / "s"),
        ])
        assert code == 0
        assert load_framework(tmp_path / "s").config.model == "grbm"

    def test_missing_spec_file_fails_cleanly(self, tmp_path, capsys):
        code = main([
            "train", "--suite", "uci", "--dataset", "IR", "--scale", "0.5",
            "--spec", f"@{tmp_path / 'nope.json'}", "--out", str(tmp_path / "s"),
        ])
        assert code == 1
        assert "cannot read --spec file" in capsys.readouterr().err

    def test_invalid_spec_json_fails(self, tmp_path, capsys):
        code = main([
            "train", "--suite", "uci", "--dataset", "IR", "--scale", "0.5",
            "--spec", "{not json", "--out", str(tmp_path / "s"),
        ])
        assert code == 1
        assert "not valid JSON" in capsys.readouterr().err


class TestEncode:
    def test_dataset_end_to_end(self, artifact, tmp_path, capsys):
        out_file = tmp_path / "features.npy"
        code = main([
            "encode", "--artifact", str(artifact),
            "--suite", "uci", "--dataset", "IR", "--scale", "0.5",
            "--output", str(out_file),
        ])
        assert code == 0
        features = np.load(out_file)
        dataset = load_uci_dataset("IR", scale=0.5)
        expected = load_framework(artifact).transform(dataset.data)
        assert np.array_equal(features, expected)

    def test_input_file(self, artifact, tmp_path):
        dataset = load_uci_dataset("IR", scale=0.5)
        in_file = tmp_path / "input.npy"
        np.save(in_file, dataset.data)
        out_file = tmp_path / "features.csv"
        code = main([
            "encode", "--artifact", str(artifact),
            "--input", str(in_file), "--output", str(out_file),
        ])
        assert code == 0
        features = np.loadtxt(out_file, delimiter=",")
        expected = load_framework(artifact).transform(dataset.data)
        assert np.allclose(features, expected)

    def test_input_and_dataset_is_an_error(self, artifact, tmp_path, capsys):
        code = main([
            "encode", "--artifact", str(artifact),
            "--input", str(tmp_path / "x.npy"), "--dataset", "IR",
        ])
        assert code == 1
        assert "exactly one of" in capsys.readouterr().err

    def test_missing_artifact_is_an_error(self, tmp_path, capsys):
        code = main([
            "encode", "--artifact", str(tmp_path / "nope"),
            "--suite", "uci", "--dataset", "IR",
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestEvaluate:
    def test_prints_all_metrics(self, artifact, capsys):
        code = main([
            "evaluate", "--artifact", str(artifact),
            "--suite", "uci", "--dataset", "IR", "--scale", "0.5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        for metric in ("accuracy", "purity", "rand", "fmi", "nmi"):
            assert metric in out


class TestEvaluateGrid:
    def test_grid_mode_prints_table(self, capsys):
        code = main([
            "evaluate", "--grid",
            "--suite", "uci", "--dataset", "IR", "--scale", "0.4",
            "--algorithms", "DP,K-means", "--repeats", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "DP" in out and "K-means" in out
        assert "sequential" in out

    def test_grid_mode_parallel_multiple_datasets(self, capsys):
        code = main([
            "evaluate", "--grid",
            "--suite", "uci", "--dataset", "IR,SH", "--scale", "0.3",
            "--algorithms", "DP,K-means", "--workers", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 datasets x 2 algorithms" in out
        assert "workers=2" in out

    @pytest.mark.parametrize("workers", [[], ["--workers", "1"]])
    def test_grid_summary_counts_encoder_cache_hits(self, capsys, workers):
        # Both sls columns share one encoder, so the second one is a cache
        # hit, on a single worker too.  (With two workers the idle one may
        # take the second sls cell and train the encoder again.)
        code = main([
            "evaluate", "--grid",
            "--suite", "uci", "--dataset", "IR", "--scale", "0.4",
            "--algorithms", "DP,K-means+slsRBM,DP+slsRBM",
            "--epochs", "2", "--n-hidden", "4", *workers,
        ])
        assert code == 0
        assert "encoder cache hits: 1" in capsys.readouterr().out

    def test_journal_without_workers_is_an_error(self, tmp_path, capsys):
        # A sequential grid keeps no journal; the flag must not be ignored.
        journal = tmp_path / "grid.jsonl"
        code = main([
            "evaluate", "--grid",
            "--suite", "uci", "--dataset", "IR", "--scale", "0.4",
            "--algorithms", "DP,K-means", "--journal", str(journal),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "journal requires workers" in err
        assert not journal.exists()

    def test_missing_artifact_without_grid_is_an_error(self, capsys):
        code = main(["evaluate", "--suite", "uci", "--dataset", "IR"])
        assert code == 1
        assert "--artifact" in capsys.readouterr().err


class TestBench:
    def test_smoke_writes_report(self, tmp_path, capsys):
        out = tmp_path / "BENCH_training.json"
        code = main(["bench", "--smoke", "--out", str(out)])
        assert code == 0
        import json

        payload = json.loads(out.read_text())
        assert payload["benchmark"] == "training"
        assert payload["smoke"] is True
        results = payload["results"]
        for section in ("gradient_kernel", "sls_epoch", "density_peaks",
                        "affinity_propagation", "distributed_scaling"):
            assert section in results
        assert results["gradient_kernel"]["speedup"] > 0
        assert results["density_peaks"]["labels_identical"] is True
        assert results["affinity_propagation"]["labels_identical"] is True
        assert "benchmark report written" in capsys.readouterr().out


@pytest.fixture
def no_accept_loop(monkeypatch):
    """Stub out serve_forever so ``serve`` builds the full stack, prints the
    banner and returns without blocking the test run; with no accept loop
    running, shutdown() has none to stop before it drains."""
    import socketserver

    from repro.serving.http import EncodingHTTPServer

    monkeypatch.setattr(EncodingHTTPServer, "serve_forever", lambda self: None)
    monkeypatch.setattr(socketserver.BaseServer, "shutdown", lambda self: None)


class TestServe:
    def test_serve_announces_and_runs(self, artifact, capsys, no_accept_loop):
        code = main([
            "serve", "--artifact", f"ir={artifact}", "--port", "0",
            "--max-batch-rows", "128", "--max-wait-ms", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "serving 1 model(s) ['ir']" in out
        assert "max_batch_rows=128" in out
        assert "POST /encode" in out

    def test_serve_without_fusion(self, artifact, capsys, no_accept_loop):
        code = main([
            "serve", "--artifact", f"ir={artifact}", "--port", "0", "--no-fusion",
        ])
        assert code == 0
        assert "fusion: disabled" in capsys.readouterr().out

    def test_serve_end_to_end_over_http(self, artifact):
        import json as json_module
        import threading
        import urllib.request

        from repro.cli import _build_serving_stack, build_parser

        args = build_parser().parse_args(
            ["serve", "--artifact", f"ir={artifact}", "--port", "0"]
        )
        service, fuser, server = _build_serving_stack(args)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            health = json_module.load(
                urllib.request.urlopen(base + "/healthz", timeout=10)
            )
            assert health == {"status": "ok", "models": ["ir"]}
            dataset = load_uci_dataset("IR", scale=0.5, random_state=0)
            body = json_module.dumps(
                {"model": "ir", "data": dataset.data[:4].tolist()}
            ).encode()
            response = json_module.load(
                urllib.request.urlopen(
                    urllib.request.Request(base + "/encode", data=body), timeout=10
                )
            )
            expected = service.encode("ir", dataset.data[:4], use_cache=False)
            np.testing.assert_array_equal(
                np.asarray(response["features"]), expected
            )
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_malformed_artifact_mapping_fails_cleanly(self, capsys):
        assert main(["serve", "--artifact", "no-equals-sign"]) == 1
        assert "NAME=PATH" in capsys.readouterr().err


class TestServeScaleOut:
    def test_build_serving_stack_sharded(self, artifact):
        import json as json_module
        import threading
        import urllib.request

        from repro.cli import _build_serving_stack, build_parser
        from repro.serving.shard import ShardPool

        args = build_parser().parse_args([
            "serve", "--artifact", f"ir={artifact}", "--port", "0",
            "--shard-workers", "2",
        ])
        service, fuser, server = _build_serving_stack(args)
        assert service is None and fuser is None
        assert isinstance(server.gateway.backend, ShardPool)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            health = json_module.load(
                urllib.request.urlopen(base + "/healthz", timeout=10)
            )
            assert health == {"status": "ok", "models": ["ir"]}
            dataset = load_uci_dataset("IR", scale=0.5, random_state=0)
            body = json_module.dumps(
                {"model": "ir", "data": dataset.data[:4].tolist()}
            ).encode()
            response = json_module.load(
                urllib.request.urlopen(
                    urllib.request.Request(base + "/encode", data=body),
                    timeout=30,
                )
            )
            assert response["shape"][0] == 4
            assert "worker" in response
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_duplicate_model_name_fails_cleanly(self, artifact, capsys):
        code = main([
            "serve", "--artifact", f"ir={artifact}", "--artifact", f"ir={artifact}",
        ])
        assert code == 1
        assert "twice" in capsys.readouterr().err


class TestInfo:
    def test_summary(self, artifact, capsys):
        assert main(["info", "--artifact", str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "kind:           framework" in out
        assert "SlsRBM" in out

    def test_json(self, artifact, capsys):
        import json

        from repro.persistence import SCHEMA_VERSION

        assert main(["info", "--artifact", str(artifact), "--json"]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["kind"] == "framework"
        assert manifest["schema_version"] == SCHEMA_VERSION
        assert manifest["spec"]["type"] == "framework"


@pytest.fixture
def serve_process(artifact):
    """Start ``python -m repro serve`` on an ephemeral port; yields a
    function taking extra flags and returning ``(process, port)``."""
    import os
    import re
    import subprocess
    import sys
    from pathlib import Path

    env = dict(os.environ)
    src = str((Path(__file__).resolve().parents[1] / "src"))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    processes = []

    def spawn(*flags):
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--artifact", f"ir={artifact}", "--port", "0", *flags],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        processes.append(process)
        lines = []
        for line in process.stdout:
            lines.append(line)
            match = re.search(r"on http://[\d.]+:(\d+)", line)
            if match:
                return process, int(match.group(1))
        raise AssertionError("server never announced: " + "".join(lines))

    yield spawn
    for process in processes:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)


class TestServeSigterm:
    def test_sigterm_drains_and_exits_zero(self, serve_process):
        """``repro serve`` under an orchestrator: SIGTERM must shut the
        server down exactly like Ctrl-C — flush, say goodbye, exit 0."""
        import signal
        import urllib.request

        process, port = serve_process()
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/healthz", timeout=10
        ) as response:
            assert response.status == 200

        process.send_signal(signal.SIGTERM)
        remaining = process.communicate(timeout=30)[0]
        assert process.returncode == 0
        assert "shutting down" in remaining

    @pytest.mark.parametrize(
        "flags", [(), ("--shard-workers", "1")], ids=["local", "sharded"]
    )
    def test_sigterm_delivers_the_response_in_flight(self, serve_process, flags):
        """A request admitted before SIGTERM still gets its 200: the server
        drains it before closing the fuser or the shard pool and exiting.
        Here the client holds the request open by sending its body late."""
        import http.client
        import json
        import signal
        import time
        import urllib.request

        process, port = serve_process(*flags)
        data = load_uci_dataset("IR", scale=0.5, random_state=0).data[:4]
        body = json.dumps({"model": "ir", "data": data.tolist()}).encode()
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        connection.putrequest("POST", "/encode")
        connection.putheader("Content-Length", str(len(body)))
        connection.endheaders(body[:10])

        def in_flight() -> int:
            url = f"http://127.0.0.1:{port}/stats"
            with urllib.request.urlopen(url, timeout=10) as response:
                return json.load(response)["admission"]["in_flight"]

        deadline = time.monotonic() + 10
        while in_flight() == 0:  # admitted once its handler reads the body
            assert time.monotonic() < deadline, "request never admitted"
            time.sleep(0.02)
        process.send_signal(signal.SIGTERM)
        for line in process.stdout:
            if "shutting down" in line:
                break
        connection.send(body[10:])
        response = connection.getresponse()
        assert response.status == 200
        assert json.loads(response.read())["shape"] == [4, 6]
        connection.close()
        process.communicate(timeout=30)
        assert process.returncode == 0


class TestWorkersFlag:
    def test_parse_count_and_addresses(self):
        from repro.cli import _parse_workers

        assert _parse_workers(None) is None
        assert _parse_workers("4") == 4
        assert _parse_workers("a:1, b:2") == ["a:1", "b:2"]

    def test_parse_empty_list_is_an_error(self):
        from repro.cli import _parse_workers
        from repro.exceptions import ValidationError

        with pytest.raises(ValidationError):
            _parse_workers(" , ")

    def test_worker_subcommand_requires_a_mode(self, capsys):
        with pytest.raises(SystemExit):
            main(["worker"])
        err = capsys.readouterr().err
        assert "--connect" in err or "--listen" in err

    def test_worker_connect_and_listen_are_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            main(["worker", "--connect", "h:1", "--listen", "0"])
