"""Small helpers shared by the benchmark workloads.

Everything here is pure Python (no numpy, no repro import) so that the
rules the benchmark applies — which percentile a sample supports, when the
load ladder stops, what a valid metric name is — can be unit-tested on
their own (see ``selftest.py``).
"""

from __future__ import annotations

import math
import os
import re
import resource
import statistics

#: Metric names: a letter or digit first, then letters, digits, ``_ . -``.
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 75.0, 50.0)

#: A tail percentile is only reported when this many samples lie beyond it.
SAMPLES_BEYOND = 10


#: End-to-end metrics every workload reports, with their units.  Each
#: workload maps its own user-facing operation onto them (see WORKLOADS.md).
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_ms", "ms"),
    ("tail_latency_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("quality", "ratio"),
)


def end_to_end(**values) -> dict:
    """``{name: (value, unit)}`` for every end-to-end metric, in order."""
    return {name: (float(values[name]), unit) for name, unit in END_TO_END}


def valid_metric_name(name: str) -> bool:
    """Whether ``name`` is a legal metric name (``[A-Za-z0-9_.-]+``, <= 64)."""
    return bool(METRIC_NAME.match(name))


def supported_percentile(n_samples: int) -> float | None:
    """Highest candidate percentile with at least SAMPLES_BEYOND samples
    above it.

    ``n * (1 - p/100) >= 10``: 1000 samples support p99 (ten beyond),
    999 samples only p98.  Returns ``None`` when even the median is not
    supported.
    """
    for percentile in TAIL_PERCENTILES:
        # Round away float noise: 1000 * 0.01 must count as exactly 10.
        if round(n_samples * (100.0 - percentile) / 100.0, 9) >= SAMPLES_BEYOND:
            return percentile
    return None


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sequence."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sequence")
    rank = max(1, math.ceil(round(q / 100.0 * len(ordered), 9)))
    return float(ordered[rank - 1])


def lateness_grows(
    lateness_ms, *, min_growth_ms: float = 5.0, factor: float = 2.0
) -> bool:
    """Whether an open-loop generator fell further and further behind.

    Compares the median lateness of the last third of a phase with that of
    the first third: the backlog grows when the later median exceeds the
    earlier one by ``min_growth_ms`` *and* by ``factor``.  A steady offset
    (a generator that runs constantly a little late) does not count.
    """
    values = list(lateness_ms)
    if len(values) < 6:
        return False
    third = len(values) // 3
    early = statistics.median(values[:third])
    late = statistics.median(values[-third:])
    return late - early > min_growth_ms and late > factor * max(early, 0.0)


def ladder_stops(tail_ms: float, limit_ms: float, lateness_ms, n_failed: int = 0) -> bool:
    """Stop rule of the doubling rate ladder.

    A rung fails — and the ladder stops — when its tail latency exceeds the
    limit, when any request failed (a failed request misses every limit),
    or when the generator's lateness grows over the rung.
    """
    return tail_ms > limit_ms or n_failed > 0 or lateness_grows(lateness_ms)


def self_times(spans) -> dict:
    """Self time of every span: its duration minus the part of its interval
    covered by its direct children (overlapping children counted once).

    ``spans`` is an iterable of mappings with ``id``, ``parent``, ``start``
    and ``end``; returns ``{id: self_seconds}``.
    """
    spans = list(spans)
    children: dict = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        start, end = span["start"], span["end"]
        intervals = sorted(
            (max(start, child["start"]), min(end, child["end"]))
            for child in children.get(span["id"], [])
        )
        covered = 0.0
        cursor = start
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span["id"]] = (end - start) - covered
    return result


def median(values) -> float:
    return float(statistics.median(values))


def pin_threads(env: dict) -> dict:
    """Pin BLAS/OpenMP to one thread in ``env`` (in place) and return it."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Largest peak RSS of any waited-for child process, in MiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak RSS (``VmHWM``) of a live process, in MiB; 0 if unreadable."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def environment(seed: int) -> dict:
    """What the numbers depend on: cores, BLAS build, numpy, python, seed."""
    import platform

    import numpy as np

    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "seed": seed,
    }
