"""Command-line interface: ``python -m repro <command>`` (or the ``repro``
console script).

Four subcommands cover the train/serve lifecycle introduced by
:mod:`repro.persistence` and :mod:`repro.serving`:

* ``train``    — fit a framework on a built-in (synthetic-analogue) dataset
  and persist it as an artifact bundle;
* ``encode``   — load an artifact and encode a dataset or a feature file,
  writing the hidden features to disk;
* ``evaluate`` — load an artifact, encode a labelled dataset, cluster the
  features and print every external metric; or, with ``--grid``, run a full
  dataset x algorithm experiment grid through :class:`ExperimentRunner`
  (optionally fanned out over ``--workers`` — loopback subprocesses or
  remote standby workers);
* ``worker``   — execute grid cells for a distributed coordinator
  (``--connect HOST:PORT``), or stand by for one (``--listen PORT``);
* ``serve``    — load one or more artifact bundles into an
  :class:`~repro.serving.EncodingService` and serve them over JSON/HTTP
  (``/encode``, ``/models``, ``/stats``, ``/healthz``) with concurrent
  requests fused into shared matmuls by a
  :class:`~repro.serving.BatchFuser`;
* ``info``     — inspect an artifact bundle's manifest;
* ``bench``    — run the tracked performance benchmarks and write
  ``BENCH_training.json``.

Examples
--------
::

    python -m repro train --suite uci --dataset IR --model sls_rbm \
        --n-hidden 16 --epochs 5 --out artifacts/ir
    python -m repro encode --artifact artifacts/ir --suite uci --dataset IR \
        --output features.npy
    python -m repro evaluate --artifact artifacts/ir --suite uci --dataset IR
    python -m repro evaluate --grid --suite uci --dataset IR,BCW \
        --algorithms "DP,K-means,K-means+slsRBM" --repeats 3
    python -m repro evaluate --grid --suite uci --dataset IR \
        --algorithms "DP,K-means" --workers 2
    python -m repro worker --connect 127.0.0.1:9000
    python -m repro serve --artifact ir=artifacts/ir --port 8000
    python -m repro info --artifact artifacts/ir
    python -m repro bench --smoke --out BENCH_training.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from repro import registry
from repro.exceptions import ReproError, ValidationError

__all__ = ["main", "build_parser"]

#: Model choices come from the component registry, so a newly registered
#: encoder appears in the CLI without touching this module.
_MODEL_CHOICES = registry.available("model")
#: Paper preprocessing per model kind (Section V.B), used for --preprocessing auto.
_AUTO_PREPROCESSING = {
    "sls_grbm": "standardize",
    "grbm": "standardize",
    "sls_rbm": "median_binarize",
    "rbm": "median_binarize",
}


# ------------------------------------------------------------------ datasets
def _add_dataset_arguments(parser: argparse.ArgumentParser, *, required: bool) -> None:
    group = parser.add_argument_group("dataset selection")
    group.add_argument(
        "--suite",
        choices=("uci", "msra"),
        default="uci",
        help="built-in dataset suite (synthetic analogues; default: uci)",
    )
    group.add_argument(
        "--dataset",
        required=required,
        help="dataset abbreviation within the suite (e.g. IR, BCW; BO, WA)",
    )
    group.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="size multiplier applied to the dataset shape (default: 1.0)",
    )
    group.add_argument(
        "--data-seed",
        type=int,
        default=0,
        help="seed of the synthetic dataset generator (default: 0)",
    )


def _load_dataset(args: argparse.Namespace):
    from repro.datasets import load_msra_mm_dataset, load_uci_dataset

    loader = load_uci_dataset if args.suite == "uci" else load_msra_mm_dataset
    return loader(args.dataset, scale=args.scale, random_state=args.data_seed)


def _load_input_matrix(path: str) -> np.ndarray:
    path = Path(path)
    if path.suffix == ".npy":
        return np.load(path)
    return np.loadtxt(path, delimiter="," if path.suffix == ".csv" else None)


def _save_output_matrix(path: str, features: np.ndarray) -> None:
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    if path.suffix == ".npy":
        np.save(path, features)
    else:
        np.savetxt(path, features, delimiter="," if path.suffix == ".csv" else " ")


# ------------------------------------------------------------------ commands
def _read_spec(value: str) -> dict:
    """Parse a registry spec given inline as JSON or as an ``@file`` path."""
    if value.startswith("@"):
        try:
            text = Path(value[1:]).read_text(encoding="utf-8")
        except OSError as exc:
            raise ValidationError(f"cannot read --spec file {value[1:]!r}: {exc}") from exc
    else:
        text = value
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"--spec is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise ValidationError("--spec must be a JSON object with a 'type' entry")
    return spec


def _framework_spec(args: argparse.Namespace, n_clusters: int) -> dict:
    """Registry spec assembled from the train subcommand's flags."""
    preprocessing = (
        # Paper preprocessing for the four paper models; any newly registered
        # model defaults to standardisation until it declares its own.
        _AUTO_PREPROCESSING.get(args.model, "standardize")
        if args.preprocessing == "auto"
        else args.preprocessing
    )
    config = {
        "model": args.model,
        "n_hidden": args.n_hidden,
        "eta": args.eta,
        "learning_rate": args.learning_rate,
        "n_epochs": args.epochs,
        "batch_size": args.batch_size,
        "preprocessing": preprocessing,
        "supervision_preprocessing": "standardize"
        if preprocessing == "median_binarize"
        else None,
        "dtype": args.dtype,
        "random_state": args.seed,
    }
    return {
        "kind": "framework",
        "type": "framework",
        "params": {"config": config, "n_clusters": n_clusters},
    }


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.core.framework import SelfLearningEncodingFramework
    from repro.persistence import save_framework

    dataset = _load_dataset(args)
    spec = (
        _read_spec(args.spec)
        if args.spec is not None
        else _framework_spec(args, dataset.n_classes)
    )
    framework = registry.build(spec, kind="framework")
    if not isinstance(framework, SelfLearningEncodingFramework):
        raise ValidationError(
            f"--spec built a {type(framework).__name__}; train expects a framework"
        )
    config = framework.config
    framework.fit(dataset.data)
    bundle = save_framework(framework, args.out)

    history = framework.model_.training_history_
    print(f"trained {config.model} on {args.suite}:{dataset.abbreviation} "
          f"({dataset.n_samples} x {dataset.n_features}, {dataset.n_classes} classes)")
    print(f"epochs run: {history.n_epochs_run}, "
          f"final reconstruction error: {history.final_reconstruction_error:.6f}")
    if framework.supervision_ is not None:
        summary = framework.supervision_.summary()
        print(f"supervision: {summary['n_clusters']} local clusters, "
              f"coverage {summary['coverage']:.2f}")
    print(f"artifact written to {bundle}")
    return 0


def _cmd_encode(args: argparse.Namespace) -> int:
    from repro.serving import EncodingService

    if (args.input is None) == (args.dataset is None):
        raise ValidationError("encode needs exactly one of --input or --dataset")
    data = (
        _load_input_matrix(args.input)
        if args.input is not None
        else _load_dataset(args).data
    )

    service = EncodingService(max_batch_size=args.batch_size)
    service.load("model", args.artifact)
    features = service.encode("model", data)
    stats = service.stats("model")

    print(f"encoded {features.shape[0]} x {data.shape[1]} -> "
          f"{features.shape[0]} x {features.shape[1]} features "
          f"in {stats['last_latency_seconds'] * 1e3:.1f} ms "
          f"({stats['n_batches']} micro-batches)")
    if args.output is not None:
        _save_output_matrix(args.output, features)
        print(f"features written to {args.output}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    if args.grid:
        return _cmd_evaluate_grid(args)
    if args.artifact is None:
        raise ValidationError("evaluate needs --artifact (or --grid for a grid run)")
    from repro.metrics.report import evaluate_clustering
    from repro.persistence import load_framework

    dataset = _load_dataset(args)
    framework = load_framework(args.artifact)
    features = framework.transform(dataset.data)
    clusterer = registry.build_clusterer(
        args.clusterer, dataset.n_classes, random_state=args.seed
    )
    labels = clusterer.fit_predict(features)
    report = evaluate_clustering(dataset.labels, labels)

    print(f"{args.clusterer} on {framework.config.model} features of "
          f"{args.suite}:{dataset.abbreviation}")
    for metric, value in report.as_dict().items():
        print(f"  {metric:<14} {value:.4f}")
    return 0


def _cmd_evaluate_grid(args: argparse.Namespace) -> int:
    """Run a dataset x algorithm grid with the (optionally parallel) runner."""
    from repro.datasets import load_msra_mm_dataset, load_uci_dataset
    from repro.datasets.base import DatasetSuite
    from repro.experiments.grids import (
        DATASETS_I_ALGORITHMS,
        DATASETS_II_ALGORITHMS,
    )
    from repro.experiments.reporting import format_table
    from repro.experiments.runner import ExperimentRunner

    loader = load_uci_dataset if args.suite == "uci" else load_msra_mm_dataset
    abbreviations = [item.strip() for item in args.dataset.split(",") if item.strip()]
    if not abbreviations:
        raise ValidationError("--dataset must name at least one dataset")
    datasets = [
        loader(abbr, scale=args.scale, random_state=args.data_seed)
        for abbr in abbreviations
    ]
    suite = DatasetSuite(f"{args.suite}-grid", datasets)

    if args.algorithms:
        algorithms = tuple(
            item.strip() for item in args.algorithms.split(",") if item.strip()
        )
    else:
        algorithms = (
            DATASETS_II_ALGORITHMS if args.suite == "uci" else DATASETS_I_ALGORITHMS
        )

    runner = ExperimentRunner(
        algorithms,
        n_repeats=args.repeats,
        n_hidden=args.n_hidden,
        n_epochs=args.epochs,
        batch_size=args.batch_size,
        random_state=args.seed,
        workers=_parse_workers(args.workers),
        lease_timeout=args.lease_timeout,
        journal=args.journal,
        resume=args.resume,
        max_cell_retries=args.max_cell_retries,
        secret=args.secret,
    )
    table = runner.run_suite(suite)
    print(format_table(table, args.metric, title=f"{suite.name}: {args.metric}"))
    distribution = (
        f"workers={args.workers}, re-queued cells: {runner.n_requeued_cells}, "
        f"duplicate results: {runner.n_duplicate_results}, "
        f"retried cells: {runner.n_retried_cells}"
        if runner.workers is not None
        else "sequential"
    )
    print(
        f"cells: {len(datasets)} datasets x {len(algorithms)} algorithms x "
        f"{args.repeats} repeats, {distribution}, "
        f"supervision cache hits: {runner.n_supervision_hits}, "
        f"encoder cache hits: {runner.n_encoder_hits}"
    )
    if runner.n_journal_replayed:
        print(f"journal: {runner.n_journal_replayed} cell(s) replayed from "
              f"{args.journal} (crash resume)")
    if runner.quarantined_workers:
        print(f"quarantined workers: {', '.join(runner.quarantined_workers)}")
    if args.table_out is not None:
        out = Path(args.table_out)
        if out.parent != Path(""):
            out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(
            json.dumps(table.to_dict(), sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
        print(f"table written to {out}")
    return 0


def _parse_workers(value: str | None):
    """``--workers`` flag: a count ("4") or comma-separated host:port list."""
    if value is None:
        return None
    value = value.strip()
    if value.isdigit():
        return int(value)
    addresses = [item.strip() for item in value.split(",") if item.strip()]
    if not addresses:
        raise ValidationError("--workers must be a count or host:port list")
    return addresses


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.distributed.worker import main as worker_main

    argv = []
    if args.connect is not None:
        argv += ["--connect", args.connect]
    if args.listen is not None:
        argv += ["--listen", str(args.listen)]
    argv += ["--host", args.host, "--poll-interval", str(args.poll_interval)]
    if args.worker_id is not None:
        argv += ["--worker-id", args.worker_id]
    if args.secret is not None:
        argv += ["--secret", args.secret]
    if args.verbose:
        argv.append("--verbose")
    return worker_main(argv)


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import (
        format_summary,
        run_training_benchmarks,
        write_benchmark_report,
    )

    payload = run_training_benchmarks(smoke=args.smoke)
    out = write_benchmark_report(payload, args.out)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(format_summary(payload))
    print(f"benchmark report written to {out}")
    return 0


def _parse_artifact_mappings(values: list[str]) -> dict[str, str]:
    """``name=path`` pairs from repeated ``--artifact`` flags."""
    mappings: dict[str, str] = {}
    for value in values:
        name, separator, path = value.partition("=")
        if not separator or not name or not path:
            raise ValidationError(
                f"--artifact expects NAME=PATH, got {value!r}"
            )
        if name in mappings:
            raise ValidationError(f"model name {name!r} given twice")
        mappings[name] = path
    return mappings


def _shard_worker_args(args: argparse.Namespace) -> list[str]:
    """Serving knobs forwarded verbatim to every shard worker subprocess."""
    forwarded = [
        "--batch-size", str(args.batch_size),
        "--cache-entries", str(args.cache_entries),
        "--max-batch-rows", str(args.max_batch_rows),
        "--max-wait-ms", str(args.max_wait_ms),
    ]
    if args.dtype:
        forwarded.extend(["--dtype", args.dtype])
    if args.no_fusion:
        forwarded.append("--no-fusion")
    return forwarded


def _build_serving_stack(args: argparse.Namespace):
    """(service, fuser, server) assembled from the serve subcommand's flags.

    Exposed separately from :func:`_cmd_serve` so tests and embedding code
    can build the exact CLI-configured stack without running
    ``serve_forever``.  With ``--shard-workers`` the models live in worker
    subprocesses, so ``service`` and ``fuser`` are ``None`` — route
    everything through ``server.gateway``.
    """
    from repro.serving import BatchFuser, EncodingService
    from repro.serving.http import ServingGateway, build_server
    from repro.serving.shard import ShardPool

    shard_workers = getattr(args, "shard_workers", None)
    mappings = _parse_artifact_mappings(args.artifact)

    service = fuser = gateway = None
    if shard_workers:
        pool = ShardPool(
            mappings,
            shard_workers,
            secret=args.secret,
            extra_worker_args=_shard_worker_args(args),
            verbose=args.verbose,
        )
        try:
            gateway = ServingGateway(
                pool,
                max_in_flight=args.max_in_flight,
                retry_after=args.retry_after,
            )
        except BaseException:  # pragma: no cover - construction race only
            pool.close()
            raise
    else:
        service = EncodingService(
            max_batch_size=args.batch_size,
            cache_entries=args.cache_entries,
            dtype=args.dtype,
        )
        for name, path in mappings.items():
            framework = service.load(name, path)
            spec = getattr(framework, "spec", None)
            if args.verbose and spec:  # pragma: no cover - cosmetic
                print(f"loaded {name}: {json.dumps(spec, sort_keys=True)}")
        if not args.no_fusion:
            fuser = BatchFuser(
                service,
                max_batch_rows=args.max_batch_rows,
                max_wait_ms=args.max_wait_ms,
            )

    build_kwargs = dict(
        host=args.host,
        port=args.port,
        secret=args.secret,
        verbose=args.verbose,
    )
    try:
        if gateway is not None:
            server = build_server(gateway=gateway, **build_kwargs)
        else:
            server = build_server(
                service,
                fuser=fuser,
                max_in_flight=args.max_in_flight,
                retry_after=args.retry_after,
                **build_kwargs,
            )
    except BaseException:
        if gateway is not None:  # pragma: no cover - bind failures only
            gateway.close()
        raise
    return service, fuser, server


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    service, fuser, server = _build_serving_stack(args)
    host, port = server.server_address[:2]
    shard_workers = getattr(args, "shard_workers", None)
    if fuser is not None:
        fusion = (
            f"fusion: max_batch_rows={fuser.max_batch_rows}, "
            f"max_wait_ms={fuser.max_wait_ms}"
        )
    elif shard_workers:
        fusion = f"fusion: per-shard, {shard_workers} shard worker(s)"
    else:
        fusion = "fusion: disabled"
    names = service.model_names if service is not None else server.gateway.model_names
    print(f"serving {len(names)} model(s) {names} "
          f"on http://{host}:{port} ({fusion})", flush=True)
    print("routes: POST /encode, GET /models, GET /stats, GET /healthz",
          flush=True)

    # SIGTERM (the orchestrator's stop signal) drains exactly like Ctrl-C:
    # in-flight requests finish their responses, the fuser flushes its
    # lanes (shard workers shut down) on close, and the process exits 0.
    def _terminate(signum, frame):  # noqa: ARG001 - signal signature
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", flush=True)
    finally:
        signal.signal(signal.SIGTERM, previous)
        # serve_forever has already exited.  Close the listening socket so
        # new connections are refused, then drain the admitted requests
        # and close the backend (fuser flush / shard-pool teardown).
        server.server_close()
        server.shutdown()
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.persistence import read_manifest

    manifest = read_manifest(args.artifact)
    if args.json:
        print(json.dumps(manifest, indent=2, sort_keys=True))
        return 0
    print(f"kind:           {manifest.get('kind')}")
    print(f"schema version: {manifest.get('schema_version')}")
    print(f"repro version:  {manifest.get('repro_version')}")
    model = manifest.get("model") or {}
    if model:
        config = model.get("config", {})
        print(f"model:          {model.get('class')} ({model.get('model_kind')}), "
              f"n_hidden={config.get('n_hidden')}")
        history = model.get("history")
        if history:
            errors = history.get("reconstruction_errors", [])
            final = f"{errors[-1]:.6f}" if errors else "n/a"
            print(f"training:       {history.get('n_epochs_run')} epochs, "
                  f"final reconstruction error {final}")
    framework = manifest.get("framework") or {}
    if framework:
        config = framework.get("config", {})
        print(f"framework:      model={config.get('model')}, "
              f"preprocessing={config.get('preprocessing')}, "
              f"n_clusters={framework.get('n_clusters')}")
    spec = manifest.get("spec")
    if spec:
        print(f"spec:           {json.dumps(spec, sort_keys=True)}")
    supervision = model.get("supervision")
    if supervision:
        print(f"supervision:    {supervision.get('n_samples')} samples, "
              f"metadata={supervision.get('metadata')}")
    return 0


# -------------------------------------------------------------------- parser
def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Train, persist, serve and evaluate slsRBM/slsGRBM encoders.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    train = subparsers.add_parser(
        "train", help="fit a framework on a built-in dataset and save an artifact"
    )
    _add_dataset_arguments(train, required=True)
    train.add_argument("--model", choices=_MODEL_CHOICES, default="sls_rbm")
    train.add_argument("--n-hidden", type=int, default=64)
    train.add_argument("--eta", type=float, default=0.5)
    train.add_argument("--learning-rate", type=float, default=1e-3)
    train.add_argument("--epochs", type=int, default=30)
    train.add_argument("--batch-size", type=int, default=64)
    train.add_argument(
        "--preprocessing",
        choices=("auto", "standardize", "minmax", "median_binarize", "none"),
        default="auto",
        help="'auto' picks the paper's preprocessing for the model",
    )
    train.add_argument(
        "--dtype",
        choices=("float64", "float32"),
        default="float64",
        help="model compute/storage precision (float32 halves memory traffic)",
    )
    train.add_argument("--seed", type=int, default=0, help="training seed")
    train.add_argument(
        "--spec",
        help="registry spec of the framework as inline JSON or @file; "
             "overrides the individual model flags "
             '(e.g. \'{"type": "framework", "params": {...}}\')',
    )
    train.add_argument("--out", required=True, help="artifact bundle directory")
    train.set_defaults(func=_cmd_train)

    encode = subparsers.add_parser(
        "encode", help="encode a dataset or feature file with a saved artifact"
    )
    encode.add_argument("--artifact", required=True)
    encode.add_argument("--input", help="input matrix (.npy, .csv or whitespace text)")
    _add_dataset_arguments(encode, required=False)
    encode.add_argument("--output", help="where to write the features (.npy/.csv/text)")
    encode.add_argument("--batch-size", type=int, default=4096,
                        help="serving micro-batch size")
    encode.set_defaults(func=_cmd_encode)

    evaluate = subparsers.add_parser(
        "evaluate", help="cluster the encoded features and print every metric"
    )
    evaluate.add_argument("--artifact",
                          help="artifact bundle (single-artifact mode)")
    _add_dataset_arguments(evaluate, required=True)
    evaluate.add_argument("--clusterer", default="kmeans",
                          help="downstream clusterer (default: kmeans)")
    evaluate.add_argument("--seed", type=int, default=0,
                          help="downstream clusterer / grid base seed")
    grid = evaluate.add_argument_group("grid mode")
    grid.add_argument("--grid", action="store_true",
                      help="run a dataset x algorithm experiment grid instead "
                           "of a single artifact; --dataset accepts a "
                           "comma-separated list")
    grid.add_argument("--algorithms",
                      help="comma-separated algorithm cells (default: the "
                           "full paper grid of the suite)")
    grid.add_argument("--repeats", type=int, default=1,
                      help="repeats per stochastic cell (default: 1)")
    grid.add_argument("--workers",
                      help="distribute the grid: a count (auto-spawned "
                           "loopback worker subprocesses) or a comma-"
                           "separated host:port list of standby workers "
                           "(repro worker --listen); results stay "
                           "bit-identical to the sequential run")
    grid.add_argument("--lease-timeout", type=float, default=30.0,
                      help="seconds a distributed worker may go silent "
                           "before its cells are re-queued (default: 30)")
    grid.add_argument("--journal", metavar="PATH",
                      help="requires --workers: append-only JSONL write-ahead "
                           "journal; every accepted cell result is fsync'd "
                           "there before it is acknowledged")
    grid.add_argument("--resume", action="store_true",
                      help="replay --journal from a crashed run of the same "
                           "grid and execute only the remaining cells")
    grid.add_argument("--max-cell-retries", type=int, default=2,
                      help="transient cell-failure retries before the grid "
                           "aborts (0 = strict fail-fast; default: 2)")
    grid.add_argument("--secret", default=os.environ.get("REPRO_SECRET"),
                      help="shared secret for coordinator/worker auth "
                           "(default: the REPRO_SECRET environment variable)")
    grid.add_argument("--table-out", metavar="PATH",
                      help="also write the merged grid table as JSON "
                           "(exact float round-trip; stable across resumes)")
    grid.add_argument("--n-hidden", type=int, default=64)
    grid.add_argument("--epochs", type=int, default=30)
    grid.add_argument("--batch-size", type=int, default=64)
    grid.add_argument("--metric", default="accuracy",
                      choices=("accuracy", "purity", "rand", "adjusted_rand",
                               "fmi", "nmi"),
                      help="metric printed for the grid table")
    evaluate.set_defaults(func=_cmd_evaluate)

    serve = subparsers.add_parser(
        "serve", help="serve artifact bundles over JSON/HTTP with batch fusion"
    )
    serve.add_argument(
        "--artifact",
        action="append",
        required=True,
        metavar="NAME=PATH",
        help="artifact bundle to serve under NAME (repeatable)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8000,
                       help="TCP port (0 picks an ephemeral one; default: 8000)")
    serve.add_argument("--batch-size", type=int, default=4096,
                       help="serving micro-batch size (rows per matmul chunk)")
    serve.add_argument("--cache-entries", type=int, default=64,
                       help="LRU feature cache capacity (0 disables)")
    serve.add_argument("--dtype", choices=("float64", "float32"), default=None,
                       help="serving precision (default: each model's "
                            "training dtype)")
    fusion = serve.add_argument_group("batch fusion")
    fusion.add_argument("--no-fusion", action="store_true",
                        help="encode each request individually instead of "
                             "fusing concurrent ones")
    fusion.add_argument("--max-batch-rows", type=int, default=4096,
                        help="rows that trigger an immediate fused flush")
    fusion.add_argument("--max-wait-ms", type=float, default=2.0,
                        help="max milliseconds a request may wait to be "
                             "coalesced (0 flushes immediately)")
    overload = serve.add_argument_group("overload protection")
    overload.add_argument("--max-in-flight", type=int, default=None,
                          help="admission bound: concurrent /encode requests "
                               "beyond this are answered 503 + Retry-After "
                               "(default: unbounded)")
    overload.add_argument("--retry-after", type=float, default=1.0,
                          help="seconds advertised in the Retry-After header "
                               "of shed requests (default: 1)")
    scale = serve.add_argument_group("scale-out")
    scale.add_argument("--shard-workers", type=int, default=None, metavar="N",
                       help="partition the models across N worker "
                            "subprocesses via consistent hashing; dead "
                            "workers are respawned with their artifacts "
                            "re-loaded (default: serve in-process)")
    serve.add_argument("--secret", default=os.environ.get("REPRO_SECRET"),
                       help="require this X-Repro-Secret header on every "
                            "route except /healthz (default: the "
                            "REPRO_SECRET environment variable)")
    serve.add_argument("--verbose", action="store_true",
                       help="log one line per HTTP request")
    serve.set_defaults(func=_cmd_serve)

    worker = subparsers.add_parser(
        "worker", help="execute experiment grid cells for a coordinator"
    )
    worker_mode = worker.add_mutually_exclusive_group(required=True)
    worker_mode.add_argument("--connect", metavar="HOST:PORT",
                             help="pull cells from this coordinator, exit "
                                  "when the grid is done")
    worker_mode.add_argument("--listen", type=int, metavar="PORT",
                             help="standby mode: wait for a runner to POST "
                                  "/join (0 picks an ephemeral port)")
    worker.add_argument("--host", default="127.0.0.1",
                        help="bind address in standby mode")
    worker.add_argument("--worker-id", default=None,
                        help="stable worker identity "
                             "(default: host-pid-random)")
    worker.add_argument("--poll-interval", type=float, default=0.05,
                        help="seconds between lease polls when idle")
    worker.add_argument("--secret", default=os.environ.get("REPRO_SECRET"),
                        help="shared secret for coordinator auth (default: "
                             "the REPRO_SECRET environment variable)")
    worker.add_argument("--verbose", action="store_true",
                        help="log one line per cell")
    worker.set_defaults(func=_cmd_worker)

    info = subparsers.add_parser("info", help="print an artifact's manifest summary")
    info.add_argument("--artifact", required=True)
    info.add_argument("--json", action="store_true",
                      help="dump the raw manifest as JSON")
    info.set_defaults(func=_cmd_info)

    bench = subparsers.add_parser(
        "bench", help="run the tracked perf benchmarks, write BENCH_training.json"
    )
    bench.add_argument("--smoke", action="store_true",
                       help="small sizes so every section finishes in seconds")
    bench.add_argument("--out", default="BENCH_training.json",
                       help="output JSON path (default: BENCH_training.json)")
    bench.add_argument("--json", action="store_true",
                       help="also dump the full payload as JSON to stdout")
    bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
