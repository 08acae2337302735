"""``grid`` workload: the nine-column Datasets-I table over two MSRA-MM
analogues (scale 0.4, about 360x360), 64 hidden units, 30 epochs, one
repeat, run through ``ExperimentRunner(workers=2)`` — a loopback
coordinator with two worker processes.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np

from common import children_peak_rss_mb, end_to_end, median, self_peak_rss_mb

DATASETS = ("BO", "WA")
SCALE = 0.4
WORKERS = 2
#: Distinct grid inputs per run.  Accuracy and, less so, time depend on the
#: data, so every run cycles over several suites drawn from its seed.
GRIDS_PER_RUN = 4
_METRICS = ("accuracy", "purity", "rand", "adjusted_rand", "fmi", "nmi")


def make_suite(seed: int):
    from repro.datasets.base import DatasetSuite
    from repro.datasets.msra_mm import load_msra_mm_dataset

    return DatasetSuite(
        "msra-mm",
        [load_msra_mm_dataset(a, scale=SCALE, random_state=seed) for a in DATASETS],
    )


def run_grid(suite, seed: int, workers: int | None):
    """One grid; returns (runner, table, seconds)."""
    from repro.experiments.grids import DATASETS_I_ALGORITHMS
    from repro.experiments.runner import ExperimentRunner

    runner = ExperimentRunner(
        DATASETS_I_ALGORITHMS,
        n_repeats=1,
        n_hidden=64,
        n_epochs=30,
        random_state=seed,
        workers=workers,
    )
    start = time.perf_counter()
    table = runner.run_suite(suite)
    return runner, table, time.perf_counter() - start


def table_ok(table, suite) -> bool:
    """Every (dataset, algorithm) cell is present with finite metrics."""
    for dataset in suite.abbreviations:
        for algorithm in table.algorithm_order:
            if (dataset, algorithm) not in table:
                return False
            cell = table.cell(dataset, algorithm)
            if not all(math.isfinite(cell.value(m)) for m in _METRICS):
                return False
    return len(table.algorithm_order) == 9


def mean_accuracy(table) -> float:
    return float(np.nanmean(table.metric_matrix("accuracy")))


def run(seed: int, seconds: float, setup_s: float) -> dict:
    """Untraced run: every suite at least once, repeating while time lasts."""
    seeds = [seed * 100 + index for index in range(GRIDS_PER_RUN)]
    suites = [make_suite(s) for s in seeds]
    times, accuracies = [], {}
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    for index in itertools.count():
        if index >= len(suites) and time.perf_counter() >= deadline:
            break
        suite_seed, suite = seeds[index % len(suites)], suites[index % len(suites)]
        _, table, elapsed = run_grid(suite, suite_seed, WORKERS)
        attempted += 1
        ok = table_ok(table, suite)
        failed += not ok
        times.append(elapsed)
        if ok:
            accuracies[suite_seed] = mean_accuracy(table)
    grid_s = median(times)
    grid_accuracy = float(np.mean(list(accuracies.values()))) if accuracies else 0.0
    n_cells = len(DATASETS) * 9
    return {
        "attempted": attempted,
        "failed": failed,
        "named": {"grid_s": (grid_s, "s"), "grid_accuracy": (grid_accuracy, "ratio")},
        "op_seconds": times,
        # A few grids per run support no tail percentile above the median.
        "metrics": end_to_end(
            setup_s=setup_s,
            peak_rss_mb=max(self_peak_rss_mb(), children_peak_rss_mb()),
            latency_ms=grid_s * 1000.0,
            tail_latency_ms=grid_s * 1000.0,
            throughput_per_s=n_cells / grid_s,
            quality=grid_accuracy,
        ),
    }


def run_traced(seed: int, tracer) -> dict:
    """The cells of a distributed grid run in worker processes the wrappers
    cannot reach, so the traced run replays the same grid in-process and
    sequentially: once untraced (compute baseline) and once traced (layer
    split).  The replayed table must equal the distributed one."""
    from spans import install_layer_wrappers

    seed = seed * 100  # the first suite of the untraced run
    suite = make_suite(seed)
    runner, distributed_table, grid_s = run_grid(suite, seed, WORKERS)
    _, replay_table, compute_s = run_grid(suite, seed, None)
    install_layer_wrappers(tracer)
    try:
        with tracer.span("grid.replay"):
            _, traced_table, traced_s = run_grid(suite, seed, None)
    finally:
        tracer.unwrap_all()
    same = (
        distributed_table.to_dict() == replay_table.to_dict() == traced_table.to_dict()
    )
    failed = (not table_ok(distributed_table, suite)) + (not same)
    return {
        "attempted": 3,
        "failed": failed,
        "op_s": traced_s,
        "overhead_s": traced_s - compute_s,
        "extra": {
            "experiments.supervision_hits": (runner.n_supervision_hits, "count"),
            "distributed.overhead_core_s": (WORKERS * grid_s - compute_s, "s"),
            "distributed.requeued": (runner.n_requeued_cells, "count"),
            "distributed.retried": (runner.n_retried_cells, "count"),
            "distributed.duplicates": (runner.n_duplicate_results, "count"),
        },
    }
