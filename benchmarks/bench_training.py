"""Training-side perf harness: kernels, clustering and distributed scaling.

Thin wrapper over :mod:`repro.bench` (the same engine behind
``python -m repro bench``) so the training hot paths sit next to the other
``bench_*`` modules and emit through the shared ``emit`` channel.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_training.py [--smoke] \
        [--out BENCH_training.json]

The JSON report is the tracked perf trajectory: each section records the
optimised kernel against the kept reference implementation
(:mod:`repro.rbm.gradients_reference`, the legacy DensityPeaks replica and
:mod:`repro.clustering.affinity_propagation_reference`), plus the
sequential-vs-loopback-workers grid wall-clock (``distributed_scaling``).
"""

from __future__ import annotations

import argparse

try:
    from benchmarks.conftest import emit
except ImportError:  # direct `python benchmarks/bench_training.py` invocation
    emit = print

from repro.bench import (
    format_summary,
    run_training_benchmarks,
    write_benchmark_report,
)


def bench_training_summary():
    """Smoke-size run of every section, emitted through the bench channel."""
    payload = run_training_benchmarks(smoke=True)
    emit("\n================ training ================")
    emit(format_summary(payload))
    assert payload["results"]["gradient_kernel"]["speedup"] > 1.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", default="BENCH_training.json")
    args = parser.parse_args(argv)
    payload = run_training_benchmarks(smoke=args.smoke)
    out = write_benchmark_report(payload, args.out)
    print(format_summary(payload))
    print(f"benchmark report written to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
