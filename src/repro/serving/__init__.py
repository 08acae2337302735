"""Serving layer: loaded artifacts -> named models -> encode requests.

:class:`EncodingService` is the process-local front end of the train/serve
split introduced by :mod:`repro.persistence`: artifacts are loaded once into
a named registry and then answer repeated ``encode(name, X)`` requests with
micro-batching for large inputs, an LRU feature cache keyed on the input
digest, and per-model latency/throughput counters.

On top of it, :class:`BatchFuser` coalesces *concurrent* requests from many
threads into single fused matmuls (bit-identical to unfused serving).  The
HTTP tier exposes the stack over JSON/HTTP via ``python -m repro serve``:
the threaded :class:`EncodingHTTPServer` (:mod:`repro.serving.http`) holds
the route table, and :class:`ServingGateway` (admission control, deadline
budgets, dispatch) drives either backend: the in-process
:class:`LocalEncodeBackend` or the multi-process :class:`ShardPool`
(``--shard-workers N``), which consistent-hashes the models across worker
subprocesses and re-spawns dead ones.
"""

from repro.serving.cache import LRUFeatureCache, input_digest
from repro.serving.fusion import BatchFuser, FuserClosedError, FusionTicket
from repro.serving.http import (
    EncodingHTTPServer,
    LocalEncodeBackend,
    ServingGateway,
    build_server,
)
from repro.serving.service import EncodingService
from repro.serving.shard import HashRing, ShardPool
from repro.serving.stats import ModelStats
from repro.serving.wire import JsonRequestHandler, PayloadTooLargeError, request_json

__all__ = [
    "BatchFuser",
    "EncodingHTTPServer",
    "EncodingService",
    "FuserClosedError",
    "FusionTicket",
    "HashRing",
    "JsonRequestHandler",
    "LRUFeatureCache",
    "LocalEncodeBackend",
    "ModelStats",
    "PayloadTooLargeError",
    "ServingGateway",
    "ShardPool",
    "build_server",
    "input_digest",
    "request_json",
]
