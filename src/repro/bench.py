"""Tracked performance benchmarks: ``python -m repro bench``.

Times the training-side hot paths against the kept reference
implementations and writes a machine-readable ``BENCH_training.json`` so
every PR leaves a perf trajectory:

* ``gradient_kernel`` — fused constrict/disperse gradient
  (:mod:`repro.rbm.gradients`) vs the loop reference
  (:mod:`repro.rbm.gradients_reference`);
* ``sls_epoch`` — one slsGRBM training epoch with supervision attached,
  fused kernels vs the reference kernels injected into the same code path;
* ``density_peaks`` — chunked :class:`repro.clustering.DensityPeaks` vs the
  pre-optimisation full-matrix implementation (replicated below);
* ``affinity_propagation`` — in-place :class:`repro.clustering.AffinityPropagation`
  vs :mod:`repro.clustering.affinity_propagation_reference`;
* ``distributed_scaling`` — a small experiment grid run sequentially and
  with ``ExperimentRunner(workers=N)`` loopback workers, N in {1, 2, 4}.

All sections use best-of-``repeats`` wall-clock timings.  ``--smoke`` keeps
every section under a few seconds for CI.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import numpy as np

import repro
from repro.utils.numerics import sigmoid

__all__ = ["run_training_benchmarks", "write_benchmark_report"]


def _best_of(callable_, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def _random_clusters(rng, n_samples: int, n_clusters: int) -> dict[int, np.ndarray]:
    labels = rng.integers(0, n_clusters, size=n_samples)
    labels[:n_clusters] = np.arange(n_clusters)  # every cluster non-empty
    return {int(k): np.flatnonzero(labels == k) for k in range(n_clusters)}


# ------------------------------------------------------------ gradient kernel
def bench_gradient_kernel(*, smoke: bool = False, repeats: int = 5) -> dict:
    """Fused vs reference supervision gradient on one covered matrix."""
    from repro.rbm.gradients import constrict_disperse_gradient
    from repro.rbm.gradients_reference import constrict_disperse_gradient_reference

    # n_clusters reflects a realistic multi-clustering supervision: the
    # unanimous intersection of three base partitions yields a few dozen
    # fine-grained local clusters, not one per class.
    n_samples, n_visible, n_hidden, n_clusters = (
        (200, 32, 16, 6) if smoke else (1200, 128, 64, 24)
    )
    rng = np.random.default_rng(0)
    visible = rng.normal(size=(n_samples, n_visible))
    weights = 0.1 * rng.normal(size=(n_visible, n_hidden))
    hidden_bias = 0.1 * rng.normal(size=n_hidden)
    index_sets = _random_clusters(rng, n_samples, n_clusters)

    vectorized = _best_of(
        lambda: constrict_disperse_gradient(visible, weights, hidden_bias, index_sets),
        repeats,
    )
    reference = _best_of(
        lambda: constrict_disperse_gradient_reference(
            visible, weights, hidden_bias, index_sets
        ),
        repeats,
    )
    return {
        "n_samples": n_samples,
        "n_visible": n_visible,
        "n_hidden": n_hidden,
        "n_clusters": n_clusters,
        "vectorized_seconds": vectorized,
        "reference_seconds": reference,
        "speedup": reference / vectorized,
    }


# ----------------------------------------------------------------- sls epoch
def _reference_presorted_adapter(
    visible, weights, hidden_bias, plan, *, hidden=None, return_hidden=False
):
    """Drop-in for ``constrict_disperse_gradient_presorted`` that performs the
    pre-optimisation work: loop/reference gradient over index sets plus a
    separate activation pass for the reconstruction input."""
    from repro.rbm.gradients_reference import constrict_disperse_gradient_reference

    grads = constrict_disperse_gradient_reference(
        visible, weights, hidden_bias, plan.sorted_index_sets()
    )
    if return_hidden:
        return grads, sigmoid(hidden_bias + visible @ weights)
    return grads


def _sls_epoch_setup(smoke: bool):
    from repro.datasets.synthetic import make_high_dimensional_mixture
    from repro.rbm.sls_grbm import SlsGRBM
    from repro.supervision.local_supervision import LocalSupervision

    n_samples, n_features, n_hidden = (240, 30, 16) if smoke else (1500, 100, 64)
    data, labels = make_high_dimensional_mixture(
        n_samples, n_features, 5, separation=2.0, random_state=0
    )
    data = (data - data.mean(axis=0)) / np.maximum(data.std(axis=0), 1e-9)
    # ~80 % coverage and ~5 local clusters per class, like a realistic
    # unanimous-voting supervision (local clusters are intersection cells of
    # the base partitions, finer than the classes themselves).
    rng = np.random.default_rng(1)
    covered_labels = labels * 5 + rng.integers(0, 5, size=n_samples)
    covered_labels[rng.random(n_samples) > 0.8] = -1
    supervision = LocalSupervision.from_labels(covered_labels)

    def make_model():
        model = SlsGRBM(
            n_hidden,
            n_epochs=1,
            batch_size=64,
            random_state=0,
            supervision_learning_rate=1e-3,
        )
        model.initialize(data)
        model.set_supervision(data, supervision)
        return model

    batch_size = 64
    batches = [data[start : start + batch_size] for start in range(0, n_samples, batch_size)]
    return make_model, batches, {"n_samples": n_samples, "n_features": n_features, "n_hidden": n_hidden}


def bench_sls_epoch(*, smoke: bool = False, repeats: int = 3) -> dict:
    """One supervised CD epoch: fused kernels vs the reference kernels."""
    from repro.rbm import gradients

    make_model, batches, params = _sls_epoch_setup(smoke)

    def epoch():
        model = make_model()
        for batch in batches:
            model.partial_fit(batch)

    fused = _best_of(epoch, repeats)

    original = gradients.constrict_disperse_gradient_presorted
    gradients.constrict_disperse_gradient_presorted = _reference_presorted_adapter
    try:
        reference = _best_of(epoch, repeats)
    finally:
        gradients.constrict_disperse_gradient_presorted = original

    return {
        **params,
        "n_batches": len(batches),
        "vectorized_seconds": fused,
        "reference_seconds": reference,
        "speedup": reference / fused,
    }


# -------------------------------------------------------------- density peaks
def _legacy_density_peaks_fit(data: np.ndarray, n_clusters: int) -> np.ndarray:
    """Pre-optimisation DensityPeaks fit (full matrix, eye mask, reorder)."""
    from repro.utils.numerics import pairwise_squared_distances

    distances = np.sqrt(pairwise_squared_distances(data))
    off_diagonal = distances[~np.eye(distances.shape[0], dtype=bool)]
    dc = float(np.percentile(off_diagonal, 2.0))
    if dc <= 0.0:
        dc = float(off_diagonal[off_diagonal > 0].min(initial=1.0))
    rho = np.exp(-((distances / dc) ** 2)).sum(axis=1) - 1.0

    n_samples = distances.shape[0]
    order = np.argsort(rho)[::-1]
    ordered = distances[np.ix_(order, order)]
    mask = np.triu(np.ones((n_samples, n_samples), dtype=bool))
    masked = np.where(mask, np.inf, ordered)
    delta_sorted = np.empty(n_samples)
    nearest_sorted = np.empty(n_samples, dtype=int)
    delta_sorted[1:] = masked[1:].min(axis=1)
    nearest_sorted[1:] = masked[1:].argmin(axis=1)
    delta_sorted[0] = distances.max()
    nearest_sorted[0] = 0
    delta = np.empty(n_samples)
    nearest_higher = np.empty(n_samples, dtype=int)
    delta[order] = delta_sorted
    nearest_higher[order] = order[nearest_sorted]

    decision = rho * delta
    centers = np.sort(np.argsort(decision)[::-1][:n_clusters])
    labels = np.full(n_samples, -1, dtype=int)
    for cluster_id, center in enumerate(centers):
        labels[center] = cluster_id
    for idx in np.argsort(rho)[::-1]:
        if labels[idx] == -1:
            labels[idx] = labels[nearest_higher[idx]]
    return labels


def bench_density_peaks(*, smoke: bool = False, repeats: int = 5) -> dict:
    """Chunked DensityPeaks fit vs the pre-optimisation implementation."""
    from repro.clustering.density_peaks import DensityPeaks

    n_samples, n_features, n_clusters = (400, 16, 3) if smoke else (2000, 16, 5)
    rng = np.random.default_rng(0)
    data = np.vstack(
        [
            rng.normal(center, 1.0, size=(n_samples // n_clusters, n_features))
            for center in range(n_clusters)
        ]
    )

    chunked = _best_of(lambda: DensityPeaks(n_clusters).fit(data), repeats)
    legacy = _best_of(lambda: _legacy_density_peaks_fit(data, n_clusters), repeats)
    identical = bool(
        np.array_equal(
            DensityPeaks(n_clusters).fit_predict(data),
            _legacy_density_peaks_fit(data, n_clusters),
        )
    )
    return {
        "n_samples": data.shape[0],
        "n_features": n_features,
        "n_clusters": n_clusters,
        "vectorized_seconds": chunked,
        "reference_seconds": legacy,
        "speedup": legacy / chunked,
        "labels_identical": identical,
    }


# ------------------------------------------------------- affinity propagation
def bench_affinity_propagation(*, smoke: bool = False, repeats: int = 3) -> dict:
    """In-place AP fit vs the reference, both tuning to ``target_n_clusters``."""
    from repro.clustering.affinity_propagation import AffinityPropagation
    from repro.clustering.affinity_propagation_reference import (
        AffinityPropagationReference,
    )
    from repro.datasets.synthetic import make_high_dimensional_mixture

    n_samples, n_features, n_clusters = (200, 50, 5) if smoke else (1000, 50, 5)
    data, _ = make_high_dimensional_mixture(
        n_samples, n_features, n_clusters, random_state=0
    )
    labels = {}

    def fit(cls):
        model = cls(target_n_clusters=n_clusters, random_state=0).fit(data)
        labels[cls] = model.labels_

    in_place = _best_of(lambda: fit(AffinityPropagation), repeats)
    reference = _best_of(lambda: fit(AffinityPropagationReference), repeats)
    return {
        "n_samples": n_samples,
        "n_features": n_features,
        "n_clusters": n_clusters,
        "vectorized_seconds": in_place,
        "reference_seconds": reference,
        "speedup": reference / in_place,
        "labels_identical": bool(
            np.array_equal(
                labels[AffinityPropagation], labels[AffinityPropagationReference]
            )
        ),
    }


# -------------------------------------------------------- distributed scaling
def bench_distributed_scaling(*, smoke: bool = False) -> dict:
    """2-dataset x 4-algorithm grid: sequential vs loopback worker processes.

    One wall-clock sample per worker count in {1, 2, 4}: each run spawns
    its own coordinator and worker subprocesses, so the numbers include the
    full distribution overhead (process start-up, dataset transfer, JSON
    round-trips) — the honest cost a user pays for ``workers=N`` on one
    machine.
    """
    from repro.datasets import load_uci_suite
    from repro.datasets.base import DatasetSuite
    from repro.experiments.runner import ExperimentRunner

    scale = 0.15 if smoke else 0.3
    n_epochs = 2 if smoke else 3
    suite = load_uci_suite(scale=scale, random_state=0)
    suite = DatasetSuite("bench", list(suite)[:2])
    algorithms = ("DP", "K-means", "K-means+RBM", "K-means+slsRBM")

    def run(workers: int | None) -> float:
        runner = ExperimentRunner(
            algorithms,
            n_repeats=2,
            n_hidden=8,
            n_epochs=n_epochs,
            batch_size=32,
            random_state=0,
            workers=workers,
        )
        start = time.perf_counter()
        runner.run_suite(suite)
        return time.perf_counter() - start

    sequential = run(None)
    worker_counts = (1, 2, 4)
    seconds = {n: run(n) for n in worker_counts}
    return {
        "n_datasets": 2,
        "n_algorithms": len(algorithms),
        "n_repeats": 2,
        "cpu_count": os.cpu_count(),
        "sequential_seconds": sequential,
        "workers": {
            str(n): {
                "seconds": seconds[n],
                "over_sequential": seconds[n] / sequential,
            }
            for n in worker_counts
        },
    }


# ---------------------------------------------------------------------- entry
def run_training_benchmarks(*, smoke: bool = False) -> dict:
    """Run every section and return the report payload."""
    results = {
        "gradient_kernel": bench_gradient_kernel(smoke=smoke),
        "sls_epoch": bench_sls_epoch(smoke=smoke),
        "density_peaks": bench_density_peaks(smoke=smoke),
        "affinity_propagation": bench_affinity_propagation(smoke=smoke),
        "distributed_scaling": bench_distributed_scaling(smoke=smoke),
    }
    return {
        "benchmark": "training",
        "repro_version": repro.__version__,
        "smoke": bool(smoke),
        "created_unix": time.time(),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "results": results,
    }


def write_benchmark_report(payload: dict, out_path) -> Path:
    """Write the payload as pretty JSON; returns the path written."""
    out_path = Path(out_path)
    if out_path.parent != Path(""):
        out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return out_path


def format_summary(payload: dict) -> str:
    """Human-readable one-block summary of a benchmark payload."""
    results = payload["results"]
    lines = [
        f"repro training benchmarks (smoke={payload['smoke']}, "
        f"cpu_count={payload['environment']['cpu_count']})"
    ]
    for key in (
        "gradient_kernel", "sls_epoch", "density_peaks", "affinity_propagation"
    ):
        section = results[key]
        lines.append(
            f"  {key:<20} {section['vectorized_seconds'] * 1e3:8.1f} ms vs "
            f"{section['reference_seconds'] * 1e3:8.1f} ms reference "
            f"({section['speedup']:.2f}x)"
        )
    distributed = results["distributed_scaling"]
    per_count = ", ".join(
        f"{n} worker(s): {entry['seconds']:.2f} s "
        f"({entry['over_sequential']:.2f}x)"
        for n, entry in sorted(
            distributed["workers"].items(), key=lambda item: int(item[0])
        )
    )
    lines.append(
        f"  distributed_scaling  loopback {per_count} vs "
        f"{distributed['sequential_seconds']:.2f} s sequential"
    )
    return "\n".join(lines)
