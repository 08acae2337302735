"""Regression tests for ``/models`` under register/unregister churn.

``describe_models`` used to read ``EncodingService._models`` without the
registry lock, pairing a stale name list with a mutating dict.  The
snapshot now comes from :meth:`EncodingService.describe_models`, which
captures the registry under its lock; every returned entry is complete and
internally consistent no matter how hard another thread churns the
registry.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.config import FrameworkConfig
from repro.core.framework import SelfLearningEncodingFramework
from repro.datasets.synthetic import make_overlapping_binary_clusters
from repro.exceptions import ServingError
from repro.serving import EncodingService
from repro.serving.http import build_server

FIELDS = {"estimator", "fast_path", "n_features", "n_hidden", "dtype"}


@pytest.fixture(scope="module")
def fitted():
    data, _ = make_overlapping_binary_clusters(
        50, 6, 2, flip_probability=0.1, random_state=0
    )
    config = FrameworkConfig(
        model="sls_rbm",
        preprocessing="median_binarize",
        supervision_preprocessing="standardize",
        n_hidden=4,
        n_epochs=2,
        random_state=0,
    )
    framework = SelfLearningEncodingFramework(config, n_clusters=2)
    framework.fit(data)
    return framework, data


class TestDescribeModels:
    def test_snapshot_shape(self, fitted):
        framework, _ = fitted
        service = EncodingService()
        service.register("ir", framework)
        described = service.describe_models()
        assert set(described) == {"ir"}
        assert set(described["ir"]) == FIELDS
        assert described["ir"]["estimator"]
        assert described["ir"]["fast_path"] in (True, False)

    def test_server_delegates_to_the_service_snapshot(self, fitted):
        framework, _ = fitted
        service = EncodingService()
        service.register("ir", framework)
        server = build_server(service, port=0)
        try:
            assert server.gateway.describe_models() == service.describe_models()
        finally:
            server.server_close()

    def test_snapshot_survives_register_unregister_churn(self, fitted):
        framework, _ = fitted
        service = EncodingService()
        service.register("stable", framework)
        stop = threading.Event()
        churn_error: list = []

        def churn() -> None:
            try:
                while not stop.is_set():
                    service.register("churn", framework)
                    try:
                        service.unregister("churn")
                    except ServingError:
                        pass  # lost a race with ourselves; fine
            except Exception as exc:  # noqa: BLE001 - asserted below
                churn_error.append(exc)

        churner = threading.Thread(target=churn)
        churner.start()
        try:
            for _ in range(300):
                described = service.describe_models()
                # The stable model is always present and complete; the
                # churning one, when caught registered, is complete too.
                assert set(described["stable"]) == FIELDS
                for entry in described.values():
                    assert set(entry) == FIELDS
        finally:
            stop.set()
            churner.join(timeout=10)
        assert not churn_error
