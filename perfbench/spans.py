"""Span tracing from outside the program.

The traced run replaces public functions and methods of the repro layers
with thin wrappers that record a span per call — name, start, end, parent
span and run id — into an in-memory :class:`Tracer`.  Nothing under
``src/`` changes: the wrappers are installed on the imported modules and
classes for the duration of the traced run and removed afterwards.  Spans
are written to a JSON file when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from pathlib import Path

from common import self_times


class Tracer:
    """In-memory span store with a per-thread parent stack."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ spans
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    def _open(self, name: str) -> dict:
        stack = self._stack()
        record = {
            "id": next(self._ids),
            "parent": stack[-1]["id"] if stack else None,
            "name": name,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        stack.append(record)
        return record

    def _close(self, record: dict) -> None:
        record["end"] = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(record)

    # --------------------------------------------------------------- wrapping
    def wrap(self, owner, attribute: str, name: str, *, on_result=None) -> None:
        """Replace ``owner.attribute`` (a function or method) by a wrapper
        recording a span ``name`` per call.  ``on_result(record, args,
        result)`` may attach decisions read from public attributes."""
        # A method inherited from a base class is wrapped on ``owner`` only;
        # unwrapping then deletes the wrapper instead of pinning the base
        # function on the subclass.
        original = vars(owner).get(attribute)
        function = getattr(owner, attribute)

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            record = self._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self._close(record)
            if on_result is not None:
                on_result(record, args, result)
            return result

        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute (last wrapped first)."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    # --------------------------------------------------------------- analysis
    def total(self, name: str, *, under: str | None = None, exclude_under=None) -> float:
        """Summed duration of spans called ``name`` (outermost ones only),
        optionally restricted to spans with / without an ancestor of a
        given name."""
        return sum(
            s["end"] - s["start"] for s in self.select(name, under, exclude_under)
        )

    def count(self, name: str) -> int:
        return len(self.select(name))

    def select(self, name: str, under=None, exclude_under=None) -> list:
        by_id = {s["id"]: s for s in self.spans}

        def ancestors(span):
            parent = span["parent"]
            while parent is not None and parent in by_id:
                yield by_id[parent]
                parent = by_id[parent]["parent"]

        chosen = []
        for span in self.spans:
            if span["name"] != name:
                continue
            names = [a["name"] for a in ancestors(span)]
            if name in names:
                continue  # nested re-entry: the outer span already counts
            if under is not None and under not in names:
                continue
            if exclude_under is not None and exclude_under in names:
                continue
            chosen.append(span)
        return chosen

    def layers(self) -> dict:
        """Span count per layer (the name prefix before the first dot)."""
        counts: dict = {}
        for span in self.spans:
            layer = span["name"].split(".", 1)[0]
            counts[layer] = counts.get(layer, 0) + 1
        return counts

    def write(self, path: Path) -> None:
        """Write every span, with its self time, as one JSON document."""
        selfs = self_times(self.spans)
        payload = {
            "run": self.run_id,
            "spans": [
                {**span, "self": selfs[span["id"]]}
                for span in sorted(self.spans, key=lambda s: s["start"])
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload), encoding="utf-8")


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap the public entry points of every repro layer the workloads use.

    Span names are ``<layer>.<what>``.  Methods are wrapped on the concrete
    classes, so a ``super()`` call inside the program stays unwrapped and a
    call is counted once.
    """
    import repro.core.pipeline as pipeline_module
    import repro.persistence as persistence
    import repro.supervision.ensemble as ensemble
    from repro.clustering import AffinityPropagation, DensityPeaks, KMeans
    from repro.core.framework import SelfLearningEncodingFramework
    from repro.core.pipeline import ClusteringPipeline
    from repro.experiments.runner import ExperimentRunner
    from repro.rbm import BernoulliRBM, GaussianRBM, SlsGRBM, SlsRBM
    from repro.serving import EncodingService

    def ap_decisions(record, args, result):
        estimator = args[0]
        record["attrs"] = {
            "n_iter": int(estimator.n_iter_),
            "converged": bool(estimator.converged_),
        }

    def supervision_decisions(record, args, result):
        integration = args[0]
        supervision = integration.supervision_
        record["attrs"] = {
            "coverage": float(supervision.coverage),
            "n_clusters": int(supervision.n_clusters),
            "agreement_rate": float(integration.agreement_rate_),
        }

    # core
    for attribute in ("preprocess", "preprocess_for_supervision", "fit", "transform"):
        tracer.wrap(SelfLearningEncodingFramework, attribute, f"core.{attribute}")
    tracer.wrap(
        ClusteringPipeline,
        "run",
        "core.cell",
        on_result=lambda record, args, result: record.update(
            attrs={"algorithm": result.algorithm}
        ),
    )
    # supervision
    tracer.wrap(
        ensemble.MultiClusteringIntegration,
        "fit",
        "supervision.integrate",
        on_result=supervision_decisions,
    )
    tracer.wrap(ensemble, "align_partitions", "supervision.align")
    tracer.wrap(ensemble, "unanimous_vote", "supervision.vote")
    tracer.wrap(ensemble, "majority_vote", "supervision.vote")
    # clustering
    tracer.wrap(AffinityPropagation, "fit", "clustering.ap", on_result=ap_decisions)
    tracer.wrap(DensityPeaks, "fit", "clustering.dp")
    tracer.wrap(KMeans, "fit", "clustering.kmeans")
    # rbm
    for cls in (BernoulliRBM, GaussianRBM, SlsRBM, SlsGRBM):
        tracer.wrap(cls, "fit", "rbm.fit")
        tracer.wrap(cls, "partial_fit", "rbm.partial_fit")
        tracer.wrap(cls, "transform", "rbm.transform")
    for cls in (SlsRBM, SlsGRBM):
        tracer.wrap(cls, "supervision_gradients", "rbm.supervision_gradients")
        tracer.wrap(cls, "supervision_loss", "rbm.supervision_loss")
    # metrics: looked up through the pipeline module's namespace
    tracer.wrap(pipeline_module, "evaluate_clustering", "metrics.evaluate")
    # experiments
    tracer.wrap(ExperimentRunner, "run_suite", "experiments.run_suite")
    # persistence and serving
    tracer.wrap(persistence, "load_framework", "persistence.load")
    tracer.wrap(EncodingService, "encode", "serving.service_encode")
