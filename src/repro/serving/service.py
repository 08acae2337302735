"""The :class:`EncodingService`: a named-model registry answering encode calls.

The service is the runtime half of the train/serve split: encoders trained
elsewhere (and persisted with :func:`repro.persistence.save_framework`) are
loaded once, then serve repeated ``encode`` requests.  Any fitted estimator
implementing the shared protocol with a ``transform`` method can be
registered — the encoding framework, a bare RBM variant or an encoder
:class:`~repro.core.pipeline.Pipeline`.  Three serving concerns live here
rather than in the models:

* **micro-batching** — large inputs are preprocessed once and pushed through
  the model in bounded chunks, keeping peak activation memory flat;
* **scratch-buffer reuse** — the framework fast path keeps one
  pre-activation buffer per registered model and runs the matmul + bias +
  ``sigmoid(x, out=)`` chain in place, so steady-state serving allocates
  only the output matrix instead of two activation-sized temporaries per
  micro-batch;
* **feature caching** — results are memoised in an LRU cache keyed on a
  content digest of the input, so repeated encodes of the same matrix (the
  common clustering-evaluation pattern) are free;
* **batch fusion** — :meth:`EncodingService.encode_many` answers several
  requests with one stacked forward pass (one matmul instead of N); the
  concurrent coalescing front end lives in :mod:`repro.serving.fusion`;
* **observability** — per-model latency/throughput counters with the queue
  wait accounted separately from model compute.

Thread-safety: the service may be driven from many threads (the HTTP front
end, the batch fuser, plain concurrent callers).  Each registered model owns
a compute lock serialising access to its scratch buffer, the LRU cache uses
a single internal mutex, and the per-model counters lock themselves; the
registry itself is guarded by a service-level mutex.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.core.framework import SelfLearningEncodingFramework
from repro.exceptions import DeadlineExceededError, ServingError, ValidationError
from repro.persistence import load_framework
from repro.serving.cache import LRUFeatureCache, input_digest
from repro.serving.stats import ModelStats
from repro.utils.numerics import sigmoid
from repro.utils.validation import _all_finite, check_array, check_positive_int

__all__ = ["EncodingService"]


class _ModelRuntime:
    """Per-model serving state: the estimator plus reusable buffers.

    For frameworks (and bare RBMs) the hidden projection is materialised
    once — optionally cast to the serving dtype — and every request reuses
    one scratch buffer for the pre-activations.
    """

    def __init__(self, estimator, serve_dtype: np.dtype | None) -> None:
        self.estimator = estimator
        self.serve_dtype = serve_dtype
        # Serialises compute on this model: the scratch buffer is shared, so
        # two threads running encode_chunk at once would overwrite each
        # other's pre-activations.  (The fuser's per-request fallback runs
        # after a failed fused pass has released this lock, so no path
        # re-enters it and a plain Lock suffices.)
        self.lock = threading.Lock()
        model = getattr(estimator, "model_", None)
        if model is None and hasattr(estimator, "weights_"):
            model = estimator  # a bare fitted RBM
        self.model = model if model is not None and hasattr(model, "weights_") else None
        self.weights = None
        self.hidden_bias = None
        self._scratch = None
        # Hoisted once so the per-request fused loop pays no hasattr/getattr.
        self.preprocess = getattr(estimator, "preprocess", None)
        #: Registration generation, set by the service; part of the cache
        #: key so entries of a replaced runtime can never hit.
        self.cache_tag = 0
        if self.model is not None:
            dtype = serve_dtype or self.model.weights_.dtype
            self.weights = np.ascontiguousarray(self.model.weights_, dtype=dtype)
            self.hidden_bias = np.asarray(self.model.hidden_bias_, dtype=dtype)

    @property
    def has_fast_path(self) -> bool:
        return self.weights is not None

    def prepare(self, data: np.ndarray) -> np.ndarray:
        """Per-request preprocess + dtype cast + width check (fast path).

        The single source of this sequence for both the unfused and the
        fused compute paths — bit-equivalence between them depends on the
        preparation being identical, so it must not be duplicated.
        """
        matrix = self.preprocess(data) if self.preprocess is not None else data
        dtype = self.weights.dtype
        if not isinstance(matrix, np.ndarray) or matrix.dtype != dtype:
            matrix = np.asarray(matrix, dtype=dtype)
        if matrix.shape[1] != self.weights.shape[0]:
            raise ValidationError(
                f"data has {matrix.shape[1]} features but the model "
                f"expects {self.weights.shape[0]}"
            )
        return matrix

    def scratch(self, n_rows: int) -> np.ndarray:
        """A reusable ``(n_rows, n_hidden)`` pre-activation buffer."""
        n_hidden = self.weights.shape[1]
        if self._scratch is None or self._scratch.shape[0] < n_rows:
            self._scratch = np.empty((n_rows, n_hidden), dtype=self.weights.dtype)
        return self._scratch[:n_rows]

    def encode_chunk(self, chunk: np.ndarray, out: np.ndarray) -> None:
        """``sigmoid(chunk @ W + b)`` into ``out`` using the scratch buffer."""
        scratch = self.scratch(chunk.shape[0])
        np.matmul(chunk, self.weights, out=scratch)
        scratch += self.hidden_bias
        out[:] = sigmoid(scratch, out=scratch)


class EncodingService:
    """Serve encode requests for a registry of named, fitted encoders.

    Parameters
    ----------
    max_batch_size : int, default 4096
        Upper bound on the rows pushed through a model in one step; larger
        inputs are split into micro-batches after preprocessing (splitting
        *before* preprocessing would change data-dependent transforms such as
        standardisation).
    cache_entries : int, default 64
        Capacity of the LRU feature cache (0 disables caching).
    dtype : {"float32", "float64"} or None, default None
        Serving precision.  ``None`` keeps each model's training dtype
        (bit-identical to ``framework.transform``).  ``"float32"`` casts the
        hidden projection once at registration and serves requests in single
        precision — roughly half the memory traffic per request at ~1e-7
        relative feature error; opt-in because cached features change dtype.
    clock : callable, default :func:`time.perf_counter`
        Monotonic time source; injectable for deterministic tests.

    Examples
    --------
    >>> service = EncodingService()
    >>> service.register("ir", fitted_framework)      # doctest: +SKIP
    >>> features = service.encode("ir", X)            # doctest: +SKIP
    >>> service.stats("ir")["n_requests"]             # doctest: +SKIP
    1
    """

    def __init__(
        self,
        *,
        max_batch_size: int = 4096,
        cache_entries: int = 64,
        dtype: str | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.max_batch_size = check_positive_int(max_batch_size, name="max_batch_size")
        if cache_entries < 0:
            raise ValidationError(
                f"cache_entries must be non-negative, got {cache_entries}"
            )
        if dtype is not None:
            dtype = np.dtype(dtype)
            if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
                raise ValidationError(
                    f"serving dtype must be float32 or float64, got {dtype.name!r}"
                )
        self.dtype = dtype
        self._cache = LRUFeatureCache(cache_entries) if cache_entries else None
        self._clock = clock
        self._models: dict[str, _ModelRuntime] = {}
        self._stats: dict[str, ModelStats] = {}
        self._registry_lock = threading.Lock()
        self._generation = 0

    # ---------------------------------------------------------------- registry
    def register(self, name: str, estimator) -> "EncodingService":
        """Add a fitted encoder to the registry under ``name``.

        ``estimator`` is anything implementing the estimator protocol with a
        ``transform`` method — typically a
        :class:`SelfLearningEncodingFramework`, but bare RBM variants and
        encoder pipelines serve equally.  Re-registering an existing name
        replaces the model and resets its counters (cached features of the
        old model are invalidated).
        """
        if not hasattr(estimator, "transform") or not hasattr(
            type(estimator), "is_fitted"
        ):
            raise ValidationError(
                "estimator must implement the encoder protocol "
                f"(transform + is_fitted), got {type(estimator).__name__}"
            )
        if not estimator.is_fitted:
            raise ServingError(
                f"cannot register {name!r}: the estimator is not fitted "
                "(train it or load a persisted artifact)"
            )
        name = str(name)
        if not name:
            raise ValidationError("model name must be a non-empty string")
        runtime = _ModelRuntime(estimator, self.dtype)
        with self._registry_lock:
            self._generation += 1
            # The generation is part of every cache key, so features computed
            # against a replaced runtime can never be served as hits of its
            # successor — even if a slow encode's cache.put lands after the
            # re-registration ran _evict_cached.
            runtime.cache_tag = self._generation
            self._models[name] = runtime
            self._stats[name] = ModelStats()
        self._evict_cached(name)
        return self

    def load(self, name: str, path: str | Path) -> SelfLearningEncodingFramework:
        """Load an artifact bundle from ``path`` and register it as ``name``."""
        framework = load_framework(path)
        self.register(name, framework)
        return framework

    def unregister(self, name: str) -> None:
        """Remove a model (and its cached features and counters).

        Atomic pop-under-lock: when two threads race to unregister the same
        name, exactly one wins and the other gets the same ServingError an
        unknown name would.
        """
        with self._registry_lock:
            runtime = self._models.pop(name, None)
            self._stats.pop(name, None)
        if runtime is None:
            self._raise_unknown(name)
        self._evict_cached(name)

    def get(self, name: str):
        """The registered estimator for ``name``."""
        runtime = self._models.get(name)
        if runtime is None:
            self._raise_unknown(name)
        return runtime.estimator

    def _raise_unknown(self, name: str) -> None:
        with self._registry_lock:
            available = sorted(self._models)
        raise ServingError(
            f"no model registered under {name!r}; available: {available}"
        )

    @property
    def model_names(self) -> list[str]:
        """Registered model names, sorted."""
        with self._registry_lock:
            return sorted(self._models)

    def __contains__(self, name: str) -> bool:
        return name in self._models

    def __len__(self) -> int:
        return len(self._models)

    # ---------------------------------------------------------------- serving
    def encode(
        self,
        name: str,
        data,
        *,
        use_cache: bool = True,
        budget_ms: float | None = None,
    ) -> np.ndarray:
        """Hidden features of ``data`` under the model registered as ``name``.

        With the default serving dtype the result is identical to
        ``estimator.transform(data)``; large inputs are micro-batched after
        preprocessing.  Cached results are returned as read-only arrays —
        copy before mutating.

        ``budget_ms`` (when given) is the caller's remaining deadline
        budget: if it is spent before compute can start — which includes
        the wait for the model's compute lock behind slower requests —
        the call is shed with :class:`DeadlineExceededError` instead of
        burning compute on an answer nobody is waiting for.  A cache hit
        beats any budget (it costs microseconds and no compute).
        """
        runtime, stats = self._entry(name)
        data = check_array(data, name="data")
        start = self._clock()
        deadline = None if budget_ms is None else start + float(budget_ms) / 1000.0

        key = None
        if use_cache and self._cache is not None:
            key = (name, runtime.cache_tag, input_digest(data))
            cached = self._cache.get(key)
            if cached is not None:
                stats.record(
                    n_samples=data.shape[0],
                    seconds=self._clock() - start,
                    cache_hit=True,
                )
                return cached

        with runtime.lock:
            compute_start = self._clock()
            if deadline is not None and compute_start >= deadline:
                # The budget died while this request queued on the compute
                # lock; the front end answers 503 + Retry-After.
                raise DeadlineExceededError(
                    f"deadline budget of {budget_ms:g}ms was spent waiting "
                    f"for {name!r}'s compute lock "
                    f"({(compute_start - start) * 1000.0:.1f}ms elapsed)"
                )
            features, n_batches = self._compute(runtime, data)
            compute_seconds = self._clock() - compute_start

        if key is not None:
            self._cache.put(key, features)
        stats.record(
            n_samples=data.shape[0],
            seconds=self._clock() - start,
            cache_hit=False,
            n_batches=n_batches,
            compute_seconds=compute_seconds,
        )
        return features

    def encode_many(
        self,
        name: str,
        batches: Sequence[np.ndarray],
        *,
        use_cache: bool = True,
        queue_seconds: Sequence[float] | None = None,
        validate: bool = True,
    ) -> list[np.ndarray]:
        """Answer several encode requests with one fused forward pass.

        The request matrices are preprocessed *individually* (preprocessing
        may be data-dependent, so fusing it would change results), stacked
        into one matrix, pushed through the model in a single micro-batched
        matmul chain, and scattered back — each returned array is
        bit-identical to ``encode(name, batch)`` for the same input.  Models
        without the framework/RBM fast path (generic pipelines) cannot be
        stacked safely and fall back to per-request encodes.

        Parameters
        ----------
        batches : sequence of ndarray
            One 2-D input matrix per request.  They must all have the same
            feature width; rows may differ freely.
        use_cache : bool, default True
            Consult/populate the LRU feature cache per request, exactly as
            ``encode`` does — cached requests are excluded from the fused
            pass.
        queue_seconds : sequence of float, optional
            Per-request coalescing wait (supplied by the batch fuser) folded
            into the latency counters; defaults to zero.
        validate : bool, default True
            Run ``check_array`` on every batch.  The batch fuser validates
            at submit time and passes ``False`` so the hot path does not pay
            for validation twice.

        Returns
        -------
        list of ndarray
            Features per request, in input order.  Fused results may be
            read-write views into one shared output matrix (each request
            owns a disjoint row span), so they stay valid and independent
            but share a base buffer.
        """
        runtime, stats = self._entry(name)
        # Models without the fast path run estimator.transform directly, so
        # the deferred stacked finiteness check never happens for them —
        # always validate those fully, even when the fuser pre-checked shape.
        if validate or not runtime.has_fast_path:
            batches = [check_array(batch, name="data") for batch in batches]
        if queue_seconds is None:
            queue_seconds = [0.0] * len(batches)
        elif len(queue_seconds) != len(batches):
            raise ValidationError(
                f"queue_seconds has {len(queue_seconds)} entries for "
                f"{len(batches)} batches"
            )
        start = self._clock()

        n_requests = len(batches)
        results: list[np.ndarray | None] = [None] * n_requests
        if not use_cache or self._cache is None:
            keys: list[tuple | None] | None = None
            hit_mask = None
            miss_indices = list(range(n_requests))
        else:
            keys = [None] * n_requests
            hit_mask = [False] * n_requests
            miss_indices = []
            for index, batch in enumerate(batches):
                key = (name, runtime.cache_tag, input_digest(batch))
                keys[index] = key
                cached = self._cache.get(key)
                if cached is not None:
                    results[index] = cached
                    hit_mask[index] = True
                else:
                    miss_indices.append(index)

        n_batches_run = 0
        batches_by_index: dict[int, int] = {}
        compute_seconds = 0.0
        fused = False
        if miss_indices:
            with runtime.lock:
                compute_start = self._clock()
                if runtime.has_fast_path:
                    fused = True
                    n_batches_run = self._compute_fused(
                        runtime, batches, miss_indices, results
                    )
                else:
                    for index in miss_indices:
                        results[index], ran = self._compute(runtime, batches[index])
                        batches_by_index[index] = ran
                        n_batches_run += ran
                compute_seconds = self._clock() - compute_start
            if keys is not None:
                for index in miss_indices:
                    self._cache.put(keys[index], results[index])

        end = self._clock()
        elapsed = end - start
        total_queue = float(sum(queue_seconds))
        if fused:
            # One locked aggregate update for the whole flush: the shared
            # compute time is booked once, each request's latency is its
            # queue wait plus the flush wall clock.
            n_rows = sum(batch.shape[0] for batch in batches)
            n_hit_rows = (
                sum(batch.shape[0] for batch, hit in zip(batches, hit_mask) if hit)
                if hit_mask is not None
                else 0
            )
            stats.record_flush(
                len(miss_indices),
                n_hits=len(batches) - len(miss_indices),
                n_samples=n_rows,
                n_hit_samples=n_hit_rows,
                n_batches=n_batches_run,
                total_seconds=total_queue + elapsed * len(batches),
                queue_seconds=total_queue,
                compute_seconds=compute_seconds,
                last_latency_seconds=float(queue_seconds[-1]) + elapsed,
            )
        else:
            for index, batch in enumerate(batches):
                own_compute = (
                    compute_seconds
                    if miss_indices and index == miss_indices[0]
                    else 0.0
                )
                stats.record(
                    n_samples=batch.shape[0],
                    seconds=float(queue_seconds[index]) + elapsed,
                    cache_hit=hit_mask[index] if hit_mask is not None else False,
                    n_batches=batches_by_index.get(index, 0),
                    queue_seconds=float(queue_seconds[index]),
                    compute_seconds=own_compute,
                )
        return list(results)

    def _compute_fused(
        self,
        runtime: _ModelRuntime,
        batches: Sequence[np.ndarray],
        miss_indices: Sequence[int],
        results: list,
    ) -> int:
        """Stacked forward pass over the cache-missing batches.

        Each batch is preprocessed on its own (bit-equivalence with unfused
        serving), the preprocessed rows are stacked, one micro-batched
        matmul+bias+sigmoid chain runs over the stack, and the output rows
        are scattered back into ``results``.  Returns the number of
        micro-batches executed.
        """
        dtype = runtime.weights.dtype
        prepare = runtime.prepare
        preprocessed = [prepare(batches[index]) for index in miss_indices]

        stacked = (
            preprocessed[0]
            if len(preprocessed) == 1
            else np.concatenate(preprocessed, axis=0)
        )
        if not _all_finite(stacked):
            # The light submit-side validation defers the elementwise
            # finiteness scan to one reduction over the stacked matrix; a
            # failure here is isolated per request by the fuser's fallback.
            raise ValidationError("data contains NaN or infinite values")
        total_rows = stacked.shape[0]
        fused_out = np.empty((total_rows, runtime.weights.shape[1]), dtype=dtype)
        n_batches = 0
        for start_row in range(0, total_rows, self.max_batch_size):
            chunk = stacked[start_row : start_row + self.max_batch_size]
            runtime.encode_chunk(
                chunk, fused_out[start_row : start_row + chunk.shape[0]]
            )
            n_batches += 1
        offset = 0
        for index, matrix in zip(miss_indices, preprocessed):
            rows = matrix.shape[0]
            # Disjoint row views into the shared output: no per-request copy.
            results[index] = fused_out[offset : offset + rows]
            offset += rows
        return max(n_batches, 1)

    def _compute(self, runtime: _ModelRuntime, data: np.ndarray):
        if runtime.has_fast_path:
            preprocessed = runtime.prepare(data)
            n_samples = preprocessed.shape[0]
            features = np.empty(
                (n_samples, runtime.weights.shape[1]), dtype=runtime.weights.dtype
            )
            n_batches = 0
            for start_row in range(0, n_samples, self.max_batch_size):
                chunk = preprocessed[start_row : start_row + self.max_batch_size]
                runtime.encode_chunk(chunk, features[start_row : start_row + chunk.shape[0]])
                n_batches += 1
            return features, max(n_batches, 1)

        # Generic estimators (e.g. encoder pipelines) are transformed in one
        # call, NOT micro-batched: a pipeline may embed a framework step
        # whose preprocessing recomputes statistics from the array it is
        # given, so chunking would make the result depend on max_batch_size.
        # Only the framework/RBM fast path above — which preprocesses once
        # before chunking — micro-batches.
        if self.dtype is not None:
            data = np.asarray(data, dtype=self.dtype)
        features = runtime.estimator.transform(data)
        if self.dtype is not None:
            features = np.asarray(features, dtype=self.dtype)
        return features, 1

    def warm(self, name: str, data) -> None:
        """Populate the cache for ``data`` without returning the features."""
        self.encode(name, data)

    def _entry(self, name: str) -> tuple[_ModelRuntime, ModelStats]:
        """Runtime and stats fetched atomically vs a concurrent unregister."""
        with self._registry_lock:
            runtime = self._models.get(name)
            stats = self._stats.get(name)
        if runtime is None or stats is None:
            self._raise_unknown(name)
        return runtime, stats

    # ------------------------------------------------------------ observability
    def describe_models(self) -> dict[str, dict]:
        """Serving metadata per registered model (consistent snapshot).

        The registry is snapshotted under the service lock, so a concurrent
        register/unregister can never be observed mid-mutation; the
        per-runtime fields read afterwards are immutable once a runtime is
        registered.  This is the accessor the HTTP front end's ``/models``
        route must use — iterating ``self._models`` without the lock races
        re-registration.
        """
        with self._registry_lock:
            runtimes = sorted(self._models.items())
        models = {}
        for name, runtime in runtimes:
            models[name] = {
                "estimator": type(runtime.estimator).__name__,
                "fast_path": runtime.has_fast_path,
                "n_features": (
                    int(runtime.weights.shape[0]) if runtime.has_fast_path else None
                ),
                "n_hidden": (
                    int(runtime.weights.shape[1]) if runtime.has_fast_path else None
                ),
                "dtype": (
                    str(runtime.weights.dtype) if runtime.has_fast_path else None
                ),
            }
        return models

    def stats(self, name: str | None = None) -> dict:
        """Counters for one model, or for all models keyed by name."""
        if name is not None:
            return self._entry(name)[1].as_dict()
        with self._registry_lock:
            snapshot = list(self._stats.items())
        return {model: stats.as_dict() for model, stats in snapshot}

    @property
    def cache_info(self) -> dict[str, int]:
        """Global cache occupancy and hit/miss counters (consistent snapshot)."""
        if self._cache is None:
            return {
                "entries": 0,
                "max_entries": 0,
                "hits": 0,
                "misses": 0,
                "lookups": 0,
            }
        counters = self._cache.counters()  # one lock: hits+misses==lookups holds
        counters["max_entries"] = self._cache.max_entries
        return counters

    def _evict_cached(self, name: str) -> None:
        if self._cache is not None:
            self._cache.evict(lambda key: key[0] == name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EncodingService(models={self.model_names}, "
            f"max_batch_size={self.max_batch_size})"
        )
