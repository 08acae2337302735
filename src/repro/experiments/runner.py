"""Experiment runner producing the paper's result tables.

``ExperimentRunner`` evaluates an algorithm grid over a dataset suite, with
optional repetitions to report the mean and variance of stochastic cells
(the +-variance columns of Tables IV and VII).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import registry
from repro.datasets.base import Dataset, DatasetSuite, dataset_digest
from repro.exceptions import PersistenceError, ValidationError
from repro.experiments.grids import build_algorithm
from repro.metrics.report import ClusteringReport
from repro.utils.validation import check_positive_int

__all__ = ["ExperimentCell", "ExperimentTable", "ExperimentRunner"]

_METRIC_NAMES = ("accuracy", "purity", "rand", "adjusted_rand", "fmi", "nmi")


@dataclass(frozen=True)
class ExperimentCell:
    """Aggregated result of one (dataset, algorithm) cell over repeats.

    ``mean`` and ``variance`` are dictionaries keyed by metric name.
    """

    dataset: str
    algorithm: str
    mean: dict[str, float]
    variance: dict[str, float]
    n_repeats: int
    reports: tuple[ClusteringReport, ...] = field(default=(), repr=False)

    def value(self, metric: str) -> float:
        """Mean value of ``metric`` for this cell."""
        if metric not in self.mean:
            raise ValidationError(
                f"unknown metric {metric!r}; available: {sorted(self.mean)}"
            )
        return self.mean[metric]

    def to_dict(self) -> dict:
        """JSON-safe dictionary of the cell, including its repeat reports."""
        return {
            "dataset": self.dataset,
            "algorithm": self.algorithm,
            "mean": dict(self.mean),
            "variance": dict(self.variance),
            "n_repeats": self.n_repeats,
            "reports": [report.to_payload() for report in self.reports],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentCell":
        """Rebuild a cell from :meth:`to_dict` output."""
        return cls(
            dataset=str(payload["dataset"]),
            algorithm=str(payload["algorithm"]),
            mean={key: float(value) for key, value in payload["mean"].items()},
            variance={
                key: float(value) for key, value in payload["variance"].items()
            },
            n_repeats=int(payload["n_repeats"]),
            reports=tuple(
                ClusteringReport.from_payload(entry)
                for entry in payload.get("reports", [])
            ),
        )


class ExperimentTable:
    """Dataset-by-algorithm grid of :class:`ExperimentCell` results."""

    def __init__(
        self,
        name: str,
        dataset_order: list[str],
        algorithm_order: list[str],
    ) -> None:
        self.name = name
        self.dataset_order = list(dataset_order)
        self.algorithm_order = list(algorithm_order)
        self._cells: dict[tuple[str, str], ExperimentCell] = {}

    def add(self, cell: ExperimentCell) -> None:
        self._cells[(cell.dataset, cell.algorithm)] = cell

    def cell(self, dataset: str, algorithm: str) -> ExperimentCell:
        try:
            return self._cells[(dataset, algorithm)]
        except KeyError:
            raise ValidationError(
                f"no result for dataset {dataset!r} and algorithm {algorithm!r}"
            ) from None

    def __contains__(self, key: tuple[str, str]) -> bool:
        return key in self._cells

    def metric_matrix(self, metric: str) -> np.ndarray:
        """Matrix of mean metric values, rows = datasets, columns = algorithms."""
        matrix = np.full((len(self.dataset_order), len(self.algorithm_order)), np.nan)
        for i, dataset in enumerate(self.dataset_order):
            for j, algorithm in enumerate(self.algorithm_order):
                if (dataset, algorithm) in self._cells:
                    matrix[i, j] = self.cell(dataset, algorithm).value(metric)
        return matrix

    def rows(self, metric: str) -> list[dict[str, float | str]]:
        """Table rows in the paper's layout: one row per dataset plus averages."""
        rows = []
        for dataset in self.dataset_order:
            row: dict[str, float | str] = {"dataset": dataset}
            for algorithm in self.algorithm_order:
                row[algorithm] = self.cell(dataset, algorithm).value(metric)
            rows.append(row)
        averages = self.column_averages(metric)
        rows.append({"dataset": "Average", **averages})
        return rows

    def column_averages(self, metric: str) -> dict[str, float]:
        """Average metric per algorithm over all datasets (the tables' last row)."""
        matrix = self.metric_matrix(metric)
        return {
            algorithm: float(np.nanmean(matrix[:, j]))
            for j, algorithm in enumerate(self.algorithm_order)
        }

    def dataset_series(self, metric: str, algorithm: str) -> list[float]:
        """Per-dataset series for one algorithm (one line of Figs. 2-4 / 6-8)."""
        return [self.cell(dataset, algorithm).value(metric) for dataset in self.dataset_order]

    # -------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        """JSON-safe dictionary of the whole table.

        Floats survive the JSON round-trip bit-exactly (shortest-repr
        encoding), so a table written to disk and re-read compares equal
        cell by cell — the basis for resuming grids from disk and for the
        distributed coordinator's merge.
        """
        return {
            "name": self.name,
            "dataset_order": list(self.dataset_order),
            "algorithm_order": list(self.algorithm_order),
            "cells": [
                self._cells[key].to_dict() for key in sorted(self._cells)
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentTable":
        """Rebuild a table from :meth:`to_dict` output."""
        table = cls(
            str(payload["name"]),
            dataset_order=[str(d) for d in payload["dataset_order"]],
            algorithm_order=[str(a) for a in payload["algorithm_order"]],
        )
        for entry in payload.get("cells", []):
            table.add(ExperimentCell.from_dict(entry))
        return table

    @classmethod
    def merge(
        cls, tables: "list[ExperimentTable]", *, name: str | None = None
    ) -> "ExperimentTable":
        """Union several partial tables into one.

        Dataset and algorithm orders are concatenated first-seen-first; a
        (dataset, algorithm) cell present in more than one input is a
        :class:`ValidationError` — partial grids to be merged must not
        overlap, so a duplicated cell always signals a bookkeeping bug
        (e.g. the same shard evaluated twice) rather than a tie to break
        silently.
        """
        if not tables:
            raise ValidationError("merge needs at least one table")
        dataset_order: list[str] = []
        algorithm_order: list[str] = []
        for table in tables:
            for dataset in table.dataset_order:
                if dataset not in dataset_order:
                    dataset_order.append(dataset)
            for algorithm in table.algorithm_order:
                if algorithm not in algorithm_order:
                    algorithm_order.append(algorithm)
        merged = cls(
            name if name is not None else tables[0].name,
            dataset_order=dataset_order,
            algorithm_order=algorithm_order,
        )
        for table in tables:
            for key, cell in table._cells.items():
                if key in merged._cells:
                    raise ValidationError(
                        f"duplicate cell {key!r} while merging experiment tables"
                    )
                merged.add(cell)
        return merged


def _artifact_path(
    artifact_dir: Path, dataset: Dataset, algorithm: str, repeat: int
) -> Path:
    safe = re.sub(r"[^A-Za-z0-9_.-]", "-", algorithm)
    return artifact_dir / f"{dataset.abbreviation}__{safe}__r{repeat}"


def _supervision_key(digest: str, framework) -> tuple:
    """Identity of a multi-clustering integration: the dataset's content
    digest (never its name) plus every setting the supervision reads."""
    config = framework.config
    return (
        digest,
        framework.n_clusters,
        config.supervision_preprocessing or config.preprocessing,
        config.clusterers,
        config.voting,
        config.min_agreement,
        config.random_state,
    )


def _encoder_key(digest: str, framework) -> str:
    """Identity of a trained encoder: the dataset's content digest, the
    cluster count and the full configuration (seed included).  Two cells
    with one key train bit-identical frameworks."""
    return json.dumps(
        [digest, framework.n_clusters, framework.config.as_dict()],
        sort_keys=True,
        default=repr,
    )


@dataclass
class _CellCache:
    """What one process keeps between the cells it runs.

    ``supervisions`` maps :func:`_supervision_key` to a built supervision.
    ``encoder`` is one slot, ``(key, framework)``, holding the last encoder
    this process trained: the runner runs (and the lease queue hands out)
    the cells that share an encoder back to back, so one slot catches
    every reuse.  A cell that does not use the slot empties it, so no idle
    encoder stays in memory while the next one trains.
    """

    supervisions: dict = field(default_factory=dict)
    encoder: tuple | None = None


def _load_warm_framework(bundle: Path, expected, dataset: Dataset):
    from repro.persistence import load_framework

    if not bundle.is_dir():
        return None
    try:
        loaded = load_framework(bundle)
    except (PersistenceError, ValidationError, KeyError):
        # A corrupted or undecodable bundle falls back to retraining (and
        # is overwritten by the fresh fit below).
        return None
    # A bundle left over from a run with different hyper-parameters (the
    # ablation hook changes eta/n_hidden/... without changing the cell
    # name) or a differently-sized dataset must not be reused silently.
    if (
        loaded.config != expected.config
        or loaded.n_clusters != expected.n_clusters
        or loaded.model_.n_visible_ != dataset.n_features
    ):
        return None
    return loaded


@dataclass(frozen=True)
class _RepeatOutcome:
    """Result of one (dataset, algorithm, repeat) evaluation plus the cache
    statistics the runner counts on merge."""

    report: ClusteringReport
    artifact_hit: bool
    supervision_hit: bool
    encoder_hit: bool = False


def _build_spec_cell(spec: dict):
    """Build a spec grid cell, insisting on a :class:`ClusteringPipeline`.

    The general ``pipeline`` type shares the registry kind but has no
    ``algorithm_name`` / per-cell seeding hooks, so it cannot serve as an
    experiment cell.
    """
    from repro.core.pipeline import ClusteringPipeline

    pipeline = registry.build(spec, kind="pipeline")
    if not isinstance(pipeline, ClusteringPipeline):
        raise ValidationError(
            "experiment grid specs must build a clustering_pipeline, got "
            f"{type(pipeline).__name__}; see repro.experiments.grids.algorithm_spec"
        )
    return pipeline


def _build_cell_pipeline(
    algorithm: str | dict, dataset: Dataset, repeat: int, settings: dict
):
    """Instantiate one cell, from a table name or a registry spec.

    Spec cells get the same per-repeat seeding and per-dataset cluster count
    as name cells, so the two grid formats produce identical experiments.
    """
    seed = settings["random_state"] + repeat
    if isinstance(algorithm, dict):
        pipeline = _build_spec_cell(algorithm)
        pipeline.set_params(random_state=seed, n_clusters=dataset.n_classes)
        framework = pipeline.framework
        if framework is not None:
            framework.set_params(
                config=framework.config.with_overrides(random_state=seed),
                n_clusters=dataset.n_classes,
            )
        return pipeline
    return build_algorithm(
        algorithm,
        dataset.n_classes,
        n_hidden=settings["n_hidden"],
        n_epochs=settings["n_epochs"],
        batch_size=settings["batch_size"],
        random_state=seed,
        config_overrides=settings["config_overrides"] or None,
    )


def _run_repeat(
    dataset: Dataset,
    algorithm: str | dict,
    repeat: int,
    settings: dict,
    cache: _CellCache,
    label: str | None = None,
) -> _RepeatOutcome:
    """Evaluate one repeat of one cell.

    Shared by the sequential path (called with the runner's cache) and the
    distributed workers (called with a per-process cache; only the hit
    statistics travel back).  Seeding is identical in both: repeat ``r``
    always uses ``random_state + r``.

    A framework comes from, in order: the cell's own warm-start bundle,
    the cache's encoder slot (a cell sharing the last trained encoder
    runs only ``transform`` and its own clusterer), or a fresh fit that
    reuses a cached supervision when one matches.
    """
    from repro.persistence import save_framework

    pipeline = _build_cell_pipeline(algorithm, dataset, repeat, settings)
    label = label if label is not None else str(algorithm)
    artifact_dir = settings["artifact_dir"]
    framework = pipeline.framework
    warm = None
    if framework is not None and artifact_dir is not None:
        bundle = _artifact_path(artifact_dir, dataset, label, repeat)
        warm = _load_warm_framework(bundle, framework, dataset)
        if warm is not None:
            pipeline.framework = warm

    supervision = None
    encoder_hit = False
    if framework is not None and warm is None:
        digest = dataset_digest(dataset)
        encoder_key = _encoder_key(digest, framework)
        supervision_key = _supervision_key(digest, framework)
        if cache.encoder is not None and cache.encoder[0] == encoder_key:
            pipeline.framework = cache.encoder[1]
            encoder_hit = True
        elif framework.config.uses_supervision:
            supervision = cache.supervisions.get(supervision_key)
    if not encoder_hit:
        # The slot's group is done in this process: free its encoder
        # before this cell allocates its own.
        cache.encoder = None
    # An sls cell served by the encoder slot builds no supervision either.
    supervision_hit = supervision is not None or (
        encoder_hit and framework.config.uses_supervision
    )

    reused = warm is not None or encoder_hit
    report = pipeline.run(
        dataset, supervision=supervision, reuse_fitted=reused
    ).report

    if framework is not None and warm is None:
        if not encoder_hit:
            if framework.supervision_ is not None:
                cache.supervisions.setdefault(
                    supervision_key, framework.supervision_
                )
            cache.encoder = (encoder_key, framework)
        if artifact_dir is not None:
            save_framework(
                pipeline.framework,
                _artifact_path(artifact_dir, dataset, label, repeat),
            )
    return _RepeatOutcome(
        report=report,
        artifact_hit=warm is not None,
        supervision_hit=supervision_hit,
        encoder_hit=encoder_hit,
    )


class ExperimentRunner:
    """Run an algorithm grid over a dataset suite.

    Parameters
    ----------
    algorithm_names : tuple of str or dict
        Grid cells: either column names in the paper convention
        (e.g. ``"DP+slsGRBM"``) or full :func:`repro.registry.build` specs of
        :class:`~repro.core.pipeline.ClusteringPipeline` cells (the format
        produced by :func:`repro.experiments.grids.algorithm_spec`).  Spec
        cells receive the same per-repeat seeding and per-dataset cluster
        count as name cells; their column label is the pipeline's
        ``algorithm_name``.
    n_repeats : int, default 1
        Repetitions per stochastic cell (different seeds); deterministic
        cells (DP on raw data) are still repeated for uniformity.
    n_hidden, n_epochs, batch_size : int
        Shared model settings forwarded to :func:`build_algorithm`.
    random_state : int, default 0
        Base seed; repeat ``r`` uses ``random_state + r``.
    config_overrides : dict, optional
        Forwarded to :func:`build_algorithm` (ablation hook).
    artifact_dir : str or Path, optional
        Warm-start directory.  When set, every fitted framework is persisted
        there (one bundle per dataset/algorithm/repeat, also for cells that
        reused a shared encoder) and later runs load the bundle instead of
        retraining.
    workers : int or list of str, optional
        Fan the (dataset, algorithm, repeat) cells out over worker
        processes; ``None`` (the default) runs them sequentially in this
        process.  An int auto-spawns that many local worker subprocesses
        against an ephemeral coordinator (loopback mode — the whole stack on
        one machine); a list of ``"host:port"`` strings dials standby workers
        started with ``python -m repro worker --listen PORT``.  Seeding
        derives from cell identity, never from arrival order, so the merged
        table is bit-identical to the sequential run — including when a
        worker dies mid-cell and its leases are re-queued.  Workers keep
        per-process caches, and the lease queue hands a worker the cells
        of the encoder it trained last, so shared encoders and supervisions
        are rarely rebuilt; when one is (a retry, or a group split across
        idle workers), the rebuild is deterministic and yields the same
        features.  Cells are dispatched longest group first: sls encoder
        groups, then plain-encoder groups, then cells without an encoder,
        grid order within each.  A grid returns once every worker has said
        bye (at most a second after the last result), so standby workers
        are free for the next grid.
    lease_timeout : float, default 30.0
        Distributed mode only: seconds a worker may go silent before its
        leased cells are re-queued to other workers.
    coordinator_host : str, default "127.0.0.1"
        Distributed mode only: bind/advertise address of the coordinator;
        use a routable address when dialing remote standby workers.
    journal : str or Path, optional
        Distributed mode only: write-ahead journal file.  Every accepted
        cell result is fsync'd there before the worker's acknowledgement,
        so a coordinator killed mid-grid loses nothing it acknowledged.
        Requires ``workers``: a sequential run keeps no journal, so setting
        one without ``workers`` raises :class:`ValidationError`.
    resume : bool, default False
        Distributed mode only: replay ``journal`` from a previous
        (crashed) run of the *same* grid — replayed cells are merged
        verbatim and only the remainder re-runs.  Refused when the journal
        belongs to a different grid (fingerprint mismatch).
    max_cell_retries : int, default 2
        Distributed mode only: transient-failure retries per cell before
        the grid aborts; 0 restores strict fail-fast.
    quarantine_after : int, default 3
        Distributed mode only: consecutive failures after which a worker
        is quarantined for the rest of the grid.
    secret : str, optional
        Distributed mode only: shared secret for coordinator/worker auth
        (the ``X-Repro-Secret`` header).

    Attributes
    ----------
    n_artifact_hits : int
        Cells served from a persisted framework bundle instead of retraining.
    n_supervision_hits : int
        sls cells that built no supervision: they reused a cached one or
        the whole trained encoder.
    n_encoder_hits : int
        Cells that reused an encoder trained by an earlier cell in the same
        process instead of training their own.  Cells that share the
        dataset content, cluster count and framework configuration (seed
        included) share the encoder, e.g. the DP, K-means and AP columns on
        one feature family; the runner runs them back to back.
    n_requeued_cells : int
        Distributed runs: leases that expired or were released and went
        back to the queue (worker loss survived).
    n_duplicate_results : int
        Distributed runs: completions discarded by the idempotent merge
        (a re-queued cell that finished twice).
    n_retried_cells : int
        Distributed runs: transient cell failures absorbed by a retry.
    n_journal_replayed : int
        Distributed runs: cells merged from the journal instead of
        re-executing (``resume=True``).
    quarantined_workers : list of str
        Distributed runs: workers quarantined by the circuit breaker.
    """

    def __init__(
        self,
        algorithm_names: tuple[str, ...],
        *,
        n_repeats: int = 1,
        n_hidden: int = 64,
        n_epochs: int = 30,
        batch_size: int = 64,
        random_state: int = 0,
        config_overrides: dict | None = None,
        artifact_dir: str | Path | None = None,
        workers: int | list[str] | tuple[str, ...] | None = None,
        lease_timeout: float = 30.0,
        coordinator_host: str = "127.0.0.1",
        journal: str | Path | None = None,
        resume: bool = False,
        max_cell_retries: int = 2,
        quarantine_after: int = 3,
        secret: str | None = None,
    ) -> None:
        if not algorithm_names:
            raise ValidationError("algorithm_names must not be empty")
        self._algorithms: dict[str, str | dict] = {}
        for entry in algorithm_names:
            if isinstance(entry, dict):
                label = _build_spec_cell(entry).algorithm_name
            else:
                label = str(entry)
            if label in self._algorithms:
                raise ValidationError(f"duplicate algorithm cell {label!r}")
            self._algorithms[label] = entry
        self.algorithm_names = tuple(self._algorithms)
        self.n_repeats = check_positive_int(n_repeats, name="n_repeats")
        self.n_hidden = check_positive_int(n_hidden, name="n_hidden")
        self.n_epochs = check_positive_int(n_epochs, name="n_epochs")
        self.batch_size = check_positive_int(batch_size, name="batch_size")
        self.random_state = int(random_state)
        self.config_overrides = dict(config_overrides or {})
        self.artifact_dir = Path(artifact_dir) if artifact_dir is not None else None
        self.workers = self._check_workers(workers)
        if lease_timeout <= 0:
            raise ValidationError("lease_timeout must be positive")
        self.lease_timeout = float(lease_timeout)
        self.coordinator_host = str(coordinator_host)
        self.journal = Path(journal) if journal is not None else None
        if self.journal is not None and self.workers is None:
            raise ValidationError(
                "journal requires workers: a sequential run keeps no journal"
            )
        self.resume = bool(resume)
        if self.resume and self.journal is None:
            raise ValidationError("resume=True requires a journal path")
        if max_cell_retries < 0:
            raise ValidationError(
                f"max_cell_retries must be >= 0, got {max_cell_retries}"
            )
        self.max_cell_retries = int(max_cell_retries)
        self.quarantine_after = check_positive_int(
            quarantine_after, name="quarantine_after"
        )
        self.secret = str(secret) if secret else None
        self._cache = _CellCache()
        self.n_artifact_hits = 0
        self.n_supervision_hits = 0
        self.n_encoder_hits = 0
        self.n_requeued_cells = 0
        self.n_duplicate_results = 0
        self.n_retried_cells = 0
        self.n_journal_replayed = 0
        self.quarantined_workers: list[str] = []

    @staticmethod
    def _check_workers(workers):
        if workers is None:
            return None
        if isinstance(workers, bool):
            raise ValidationError("workers must be an int or a list of host:port")
        if isinstance(workers, int):
            return check_positive_int(workers, name="workers")
        from repro.distributed.worker import parse_address

        addresses = [str(address) for address in workers]
        if not addresses:
            raise ValidationError("workers list must not be empty")
        for address in addresses:
            parse_address(address)  # raises ValidationError on malformed
        return addresses

    # ----------------------------------------------------------------- plumbing
    def _settings(self) -> dict:
        return {
            "n_hidden": self.n_hidden,
            "n_epochs": self.n_epochs,
            "batch_size": self.batch_size,
            "random_state": self.random_state,
            "config_overrides": self.config_overrides or None,
            "artifact_dir": self.artifact_dir,
        }

    def _merge_cell(
        self, dataset: Dataset, algorithm: str, outcomes: list[_RepeatOutcome]
    ) -> ExperimentCell:
        """Fold repeat outcomes into a cell and count their cache hits."""
        for outcome in outcomes:
            if outcome.artifact_hit:
                self.n_artifact_hits += 1
            if outcome.supervision_hit:
                self.n_supervision_hits += 1
            if outcome.encoder_hit:
                self.n_encoder_hits += 1
        reports = [outcome.report for outcome in outcomes]
        mean = {
            metric: float(np.mean([r[metric] for r in reports]))
            for metric in _METRIC_NAMES
        }
        variance = {
            metric: float(np.var([r[metric] for r in reports]))
            for metric in _METRIC_NAMES
        }
        return ExperimentCell(
            dataset=dataset.abbreviation,
            algorithm=algorithm,
            mean=mean,
            variance=variance,
            n_repeats=self.n_repeats,
            reports=tuple(reports),
        )

    def _encoder_groups(
        self, cells: list[tuple[Dataset, str, str | dict]], settings: dict
    ) -> dict[tuple[int, int], tuple[int, int]]:
        """Group key ``(tier, group id)`` of every ``(cell index, repeat)``.

        Cells that would train the same encoder (see :func:`_encoder_key`)
        share a group; a cell without an encoder is a group of its own.
        Group ids count up in grid order.  The tier ranks a group by the
        work it carries, judged from the configuration alone: 0 when its
        encoder trains on a built supervision (the sls models), 1 for a
        plain encoder, 2 for a cell without one (a single clusterer run).
        """
        digests: dict[int, str] = {}
        ids: dict = {}
        groups = {}
        for index, (dataset, _, algorithm) in enumerate(cells):
            for repeat in range(self.n_repeats):
                framework = _build_cell_pipeline(
                    algorithm, dataset, repeat, settings
                ).framework
                if framework is None:
                    tier, key = 2, (index, repeat)
                else:
                    if id(dataset) not in digests:
                        digests[id(dataset)] = dataset_digest(dataset)
                    tier = 0 if framework.config.uses_supervision else 1
                    key = _encoder_key(digests[id(dataset)], framework)
                groups[index, repeat] = (tier, ids.setdefault(key, len(ids)))
        return groups

    def _coordinator(self, cells: list[tuple[Dataset, str, str | dict]]):
        """The (not yet started) coordinator of a distributed grid.

        The cell descriptors stay in grid order, so the journal fingerprint
        does not depend on the dispatch order.  The encoder groups travel
        beside them: the lease queue hands out the longest groups first
        (Graham's longest-processing-time-first rule), so the last-leased
        work is short and no worker is left training an encoder alone at
        the end of the grid.
        """
        from repro.distributed.coordinator import GridCoordinator

        settings = self._settings()
        datasets: dict[str, Dataset] = {}
        descriptors = []
        for index, (dataset, label, algorithm) in enumerate(cells):
            datasets.setdefault(dataset.abbreviation, dataset)
            for repeat in range(self.n_repeats):
                descriptors.append(
                    {
                        "cell_id": f"{index}:{repeat}",
                        "dataset_ref": dataset.abbreviation,
                        "algorithm": algorithm,
                        "label": label,
                        "repeat": repeat,
                    }
                )
        groups = {
            f"{index}:{repeat}": key
            for (index, repeat), key in self._encoder_groups(
                cells, settings
            ).items()
        }
        return GridCoordinator(
            descriptors,
            datasets,
            settings,
            groups=groups,
            host=self.coordinator_host,
            lease_timeout=self.lease_timeout,
            journal=self.journal,
            resume=self.resume,
            max_cell_retries=self.max_cell_retries,
            quarantine_after=self.quarantine_after,
            secret=self.secret,
        )

    def _evaluate_cells_distributed(
        self, cells: list[tuple[Dataset, str, str | dict]]
    ) -> list[ExperimentCell]:
        """Fan the (dataset, algorithm, repeat) cells out over the wire.

        Loopback mode (``workers`` is an int) spawns local worker
        subprocesses against an ephemeral coordinator; address mode dials
        standby workers.  Outcomes are re-assembled in grid order — cell
        ``(cell i, repeat r)`` always lands at the same position no matter
        which worker computed it or how often it was re-queued — so the
        merged table is bit-identical to the sequential run.  The
        coordinator outlives the grid until every worker has said bye (see
        :meth:`GridCoordinator.dismiss`), so a standby worker is free for
        the next grid as soon as this one returns.
        """
        from repro.distributed.coordinator import coordinator_signal_drain
        from repro.distributed.errors import DistributedError
        from repro.distributed.messages import outcome_from_wire
        from repro.distributed.worker import (
            dial_standby_workers,
            spawn_loopback_workers,
        )

        coordinator = self._coordinator(cells).start()
        pool = None
        try:
            if isinstance(self.workers, int):
                pool = spawn_loopback_workers(
                    self.workers,
                    coordinator.address_string,
                    secret=self.secret,
                )

                def watchdog() -> None:
                    if pool.n_alive == 0 and not coordinator.queue.done:
                        raise DistributedError(
                            f"all {len(pool)} loopback workers exited before "
                            "the grid completed"
                        )

            else:
                dial_standby_workers(
                    self.workers,
                    coordinator.address_string,
                    secret=self.secret,
                )
                watchdog = None
            with coordinator_signal_drain(coordinator):
                raw = coordinator.wait(poll=0.05, watchdog=watchdog)
        finally:
            coordinator.dismiss(
                gone=None if pool is None else lambda: pool.n_alive == 0
            )
            coordinator.stop()
            if pool is not None:
                pool.terminate()
            counters = coordinator.queue.counters()
            self.n_requeued_cells += counters["n_requeued"]
            self.n_duplicate_results += counters["n_duplicates"]
            self.n_retried_cells += counters["n_retried"]
            self.n_journal_replayed += coordinator.n_replayed
            for worker_id in coordinator.breaker.quarantined:
                if worker_id not in self.quarantined_workers:
                    self.quarantined_workers.append(worker_id)

        outcomes = {
            cell_id: outcome_from_wire(payload)
            for cell_id, payload in raw.items()
        }
        results = []
        for index, (dataset, label, _) in enumerate(cells):
            chunk = [
                outcomes[f"{index}:{repeat}"]
                for repeat in range(self.n_repeats)
            ]
            results.append(self._merge_cell(dataset, label, chunk))
        return results

    def _evaluate_cells(
        self, cells: list[tuple[Dataset, str, str | dict]]
    ) -> list[ExperimentCell]:
        """Evaluate ``(dataset, label, algorithm)`` cells: sequentially, or
        distributed over workers.

        The sequential loop runs the cells of one encoder group back to
        back, groups in grid order, so the cache's single encoder slot
        serves the whole group, and assembles the table by position, as the
        distributed path does.  It ignores the dispatch tiers: one process
        finishes no sooner for running the longest groups first.
        """
        if self.workers is not None:
            return self._evaluate_cells_distributed(cells)
        settings = self._settings()
        groups = self._encoder_groups(cells, settings)
        outcomes = {}
        for index, repeat in sorted(groups, key=lambda cell: groups[cell][1]):
            dataset, label, algorithm = cells[index]
            outcomes[index, repeat] = _run_repeat(
                dataset, algorithm, repeat, settings, self._cache, label=label
            )
        return [
            self._merge_cell(
                dataset,
                label,
                [outcomes[index, repeat] for repeat in range(self.n_repeats)],
            )
            for index, (dataset, label, _) in enumerate(cells)
        ]

    def _grid_cells(self, dataset: Dataset) -> list[tuple[Dataset, str, str | dict]]:
        return [
            (dataset, label, algorithm)
            for label, algorithm in self._algorithms.items()
        ]

    # --------------------------------------------------------------------- API
    def run_cell(self, dataset: Dataset, algorithm: str | dict) -> ExperimentCell:
        """Evaluate one (dataset, algorithm) cell with repeats.

        ``algorithm`` is a table name (a column of this runner's grid runs
        that column's cell) or a registry spec (see
        :func:`repro.experiments.grids.algorithm_spec`), which runs exactly
        as given, whatever cell of the grid shares its label.  The runner's
        grid does not change.
        """
        if isinstance(algorithm, dict):
            label = _build_spec_cell(algorithm).algorithm_name
        else:
            label = str(algorithm)
            algorithm = self._algorithms.get(label, label)
        return self._evaluate_cells([(dataset, label, algorithm)])[0]

    def run_dataset(self, dataset: Dataset) -> list[ExperimentCell]:
        """Evaluate every algorithm of the grid on one dataset."""
        return self._evaluate_cells(self._grid_cells(dataset))

    def run_suite(self, suite: DatasetSuite, *, name: str | None = None) -> ExperimentTable:
        """Evaluate the whole grid over a dataset suite.

        With ``workers`` set every (dataset, algorithm, repeat) cell of the
        grid is queued at once, so the fan-out spans the entire suite rather
        than one dataset at a time.
        """
        table = ExperimentTable(
            name or suite.name,
            dataset_order=suite.abbreviations,
            algorithm_order=list(self.algorithm_names),
        )
        cells = [cell for dataset in suite for cell in self._grid_cells(dataset)]
        for cell in self._evaluate_cells(cells):
            table.add(cell)
        return table
