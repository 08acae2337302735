#!/usr/bin/env python3
"""Repository benchmark: ``fit``, ``grid`` and ``encode`` workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fit --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a separate traced run, whose spans are written under ``.perfbench/``.
Lines before it starting with ``#`` record the environment and, for
``encode``, every load phase.  See ``WORKLOADS.md`` for why each workload
exists and what it loads.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))

from common import median, pin_threads, valid_metric_name  # noqa: E402

WORKLOADS = ("fit", "grid", "encode")

#: Modules whose cold import is the set-up cost of the in-process workloads.
SETUP_IMPORTS = {
    "fit": ("repro", "repro.core.pipeline", "repro.clustering"),
    "grid": ("repro", "repro.experiments.runner", "repro.distributed.coordinator"),
}
SETUP_REPEATS = 5

#: Per-layer metrics printed by every traced run, with their units.  A
#: layer a workload bypasses reads 0.
PER_LAYER = (
    ("clustering.ap_s", "s"),
    ("clustering.ap_n_iter", "count"),
    ("clustering.ap_converged", "ratio"),
    ("clustering.dp_s", "s"),
    ("clustering.kmeans_s", "s"),
    ("clustering.downstream_s", "s"),
    ("supervision.total_s", "s"),
    ("supervision.align_vote_s", "s"),
    ("supervision.coverage", "ratio"),
    ("supervision.n_clusters", "count"),
    ("supervision.agreement_rate", "ratio"),
    ("rbm.fit_s", "s"),
    ("rbm.partial_fit_s", "s"),
    ("rbm.n_partial_fit", "count"),
    ("rbm.supervision_gradients_s", "s"),
    ("rbm.supervision_loss_s", "s"),
    ("rbm.transform_s", "s"),
    ("core.preprocess_s", "s"),
    ("metrics.evaluate_s", "s"),
    ("experiments.cell_s.raw", "s"),
    ("experiments.cell_s.grbm", "s"),
    ("experiments.cell_s.sls", "s"),
    ("experiments.supervision_hits", "count"),
    ("distributed.overhead_core_s", "s"),
    ("distributed.requeued", "count"),
    ("distributed.retried", "count"),
    ("distributed.duplicates", "count"),
    ("persistence.load_s", "s"),
    ("serving.server_ms", "ms"),
    ("serving.queue_ms", "ms"),
    ("serving.compute_ms", "ms"),
    ("serving.cache_hit_rate", "ratio"),
    ("serving.fusion_ratio", "ratio"),
    ("serving.shed", "count"),
    ("serving.transport_ms", "ms"),
    ("serving.service_encode_ms", "ms"),
    ("serving.generator_late_ms", "ms"),
    ("trace.overhead_s", "s"),
    ("trace.op_s", "s"),
    ("trace.spans", "count"),
    ("trace.serving_spans", "count"),
    ("trace.training_spans", "count"),
)


def cold_import_s(modules) -> float:
    """Median wall time of a fresh interpreter importing ``modules``."""
    code = "import " + ", ".join(modules)
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return median(times)


def layer_metrics(tracer, result: dict) -> dict:
    """Per-layer metrics from the traced run's spans plus the workload's
    own counters (``result["extra"]``)."""
    sup = "supervision.integrate"
    total = tracer.total

    def mean_attr(spans, key):
        values = [s["attrs"][key] for s in spans if key in s.get("attrs", {})]
        return sum(values) / len(values) if values else 0.0

    aps = tracer.select("clustering.ap", under=sup)
    integrations = tracer.select(sup)
    cells = tracer.select("core.cell")

    def cell_seconds(kind):
        def matches(name):
            if "+" not in name:
                return kind == "raw"
            return kind == ("sls" if "+sls" in name else "grbm")

        return sum(s["end"] - s["start"] for s in cells
                   if matches(s["attrs"]["algorithm"]))

    loads = tracer.select("persistence.load")
    layers = tracer.layers()
    values = {
        "clustering.ap_s": total("clustering.ap", under=sup),
        "clustering.ap_n_iter": mean_attr(aps, "n_iter"),
        "clustering.ap_converged": mean_attr(aps, "converged"),
        "clustering.dp_s": total("clustering.dp", under=sup),
        "clustering.kmeans_s": total("clustering.kmeans", under=sup),
        "clustering.downstream_s": sum(
            total(name, exclude_under=sup)
            for name in ("clustering.ap", "clustering.dp", "clustering.kmeans")
        ),
        "supervision.total_s": total(sup),
        "supervision.align_vote_s": total("supervision.align")
        + total("supervision.vote"),
        "supervision.coverage": mean_attr(integrations, "coverage"),
        "supervision.n_clusters": mean_attr(integrations, "n_clusters"),
        "supervision.agreement_rate": mean_attr(integrations, "agreement_rate"),
        "rbm.fit_s": total("rbm.fit"),
        "rbm.partial_fit_s": total("rbm.partial_fit"),
        "rbm.n_partial_fit": tracer.count("rbm.partial_fit"),
        "rbm.supervision_gradients_s": total("rbm.supervision_gradients"),
        "rbm.supervision_loss_s": total("rbm.supervision_loss"),
        "rbm.transform_s": total("rbm.transform"),
        "core.preprocess_s": total("core.preprocess")
        + total("core.preprocess_for_supervision"),
        "metrics.evaluate_s": total("metrics.evaluate"),
        "experiments.cell_s.raw": cell_seconds("raw"),
        "experiments.cell_s.grbm": cell_seconds("grbm"),
        "experiments.cell_s.sls": cell_seconds("sls"),
        "persistence.load_s": (
            sum(s["end"] - s["start"] for s in loads) / len(loads) if loads else 0.0
        ),
        "trace.overhead_s": result["overhead_s"],
        "trace.op_s": result["op_s"],
        "trace.spans": len(tracer.spans),
        "trace.serving_spans": layers.get("serving", 0),
        "trace.training_spans": layers.get("supervision", 0)
        + tracer.count("rbm.fit") + tracer.count("rbm.partial_fit"),
    }
    values.update({name: value for name, (value, _) in result.get("extra", {}).items()})
    return {name: (values.get(name, 0), unit) for name, unit in PER_LAYER}


def design_check(workload: str, metrics: dict) -> dict:
    """Shares the workload design predicts (printed, not gated)."""
    op_s = metrics["trace.op_s"][0] or 1.0
    return {
        "workload": workload,
        "ap_share": metrics["clustering.ap_s"][0] / op_s,
        "rbm_fit_share": metrics["rbm.fit_s"][0] / op_s,
        "serving_spans": metrics["trace.serving_spans"][0],
        "training_spans": metrics["trace.training_spans"][0],
    }


def emit(attempted: int, failed: int, metrics: dict) -> None:
    for name, (_, unit) in metrics.items():
        if not valid_metric_name(name):
            raise ValueError(f"invalid metric name {name!r} ({unit})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    # Pin BLAS before numpy loads; subprocesses (the server, grid workers,
    # import probes) inherit the environment.
    pin_threads(os.environ)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    sys.path.insert(0, str(SRC))

    import warnings

    from common import environment

    # Expected AP ConvergenceWarnings would otherwise flood stderr.
    warnings.simplefilter("ignore")
    print("# " + json.dumps({"environment": environment(args.seed),
                             "workload": args.workload, "trace": args.trace}),
          flush=True)

    import wl_encode
    import wl_fit
    import wl_grid

    if args.trace:
        from spans import Tracer

        tracer = Tracer(f"{args.workload}-{args.seed}-{os.getpid()}")
        if args.workload == "fit":
            result = wl_fit.run_traced(args.seed, tracer)
        elif args.workload == "grid":
            result = wl_grid.run_traced(args.seed, tracer)
        else:
            result = wl_encode.run_traced(args.seed, args.seconds, OUT, tracer)
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.json")
        metrics = layer_metrics(tracer, result)
        print("# " + json.dumps({"design": design_check(args.workload, metrics)}),
              flush=True)
    else:
        if args.workload == "encode":
            result = wl_encode.run(args.seed, args.seconds, OUT)
        else:
            setup_s = cold_import_s(SETUP_IMPORTS[args.workload])
            module = wl_fit if args.workload == "fit" else wl_grid
            result = module.run(args.seed, args.seconds, setup_s)
        metrics = result["metrics"]
        print("# " + json.dumps({
            "named": {name: {"value": value, "unit": unit}
                      for name, (value, unit) in result["named"].items()},
            "op_seconds": result.get("op_seconds"),
        }), flush=True)
    emit(result["attempted"], result["failed"], metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
