"""In-place Affinity Propagation vs the kept reference implementation.

:class:`repro.clustering.AffinityPropagation` runs message passing in place
and reuses the bisection's result at the chosen preference; every fitted
attribute must still be exactly equal to that of
:class:`repro.clustering.affinity_propagation_reference.AffinityPropagationReference`,
including on the degenerate inputs (duplicate rows, ties, identical rows,
two samples) where AP oscillates or falls back to a single exemplar.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.affinity_propagation import AffinityPropagation
from repro.clustering.affinity_propagation_reference import (
    AffinityPropagationReference,
)

FITTED = (
    "labels_",
    "cluster_centers_indices_",
    "n_iter_",
    "converged_",
    "final_damping_",
    "preference_",
)


def _assert_identical(data: np.ndarray, **params) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        optimised = AffinityPropagation(**params).fit(data)
        reference = AffinityPropagationReference(**params).fit(data)
    for name in FITTED:
        np.testing.assert_array_equal(
            getattr(optimised, name), getattr(reference, name), err_msg=name
        )


@st.composite
def datasets(draw) -> np.ndarray:
    n_samples = draw(st.integers(2, 60))
    n_features = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["gaussian", "rounded", "duplicated", "identical"]))
    if kind == "gaussian":
        return rng.normal(size=(n_samples, n_features))
    if kind == "rounded":  # coarse grid values: many tied distances
        return np.round(rng.normal(scale=2.0, size=(n_samples, n_features)))
    if kind == "duplicated":
        base = rng.normal(size=(max(1, n_samples // 3), n_features))
        return base[rng.integers(0, base.shape[0], size=n_samples)]
    return np.tile(rng.normal(size=n_features), (n_samples, 1))


@st.composite
def ap_params(draw) -> dict:
    params = {
        "damping": draw(st.sampled_from([0.5, 0.7, 0.9])),
        "damping_schedule": draw(st.sampled_from(["constant", "adaptive"])),
        "max_iter": draw(st.sampled_from([4, 30, 200])),
        "convergence_iter": draw(st.integers(1, 15)),
        "random_state": draw(st.integers(0, 1000)),
    }
    preference = draw(st.sampled_from(["median", "explicit", "target"]))
    if preference == "explicit":
        params["preference"] = draw(st.floats(-50.0, -1e-3))
    elif preference == "target":
        params["target_n_clusters"] = draw(st.integers(1, 6))
    return params


@given(datasets(), ap_params())
@settings(max_examples=60, deadline=None)
def test_matches_reference_on_random_corpus(data, params):
    _assert_identical(data, **params)


def _duplicated_grid() -> np.ndarray:
    base = np.mgrid[0:4, 0:4].reshape(2, -1).T.astype(float)
    return np.vstack([base, base, base])


def _duplicated_rows() -> np.ndarray:
    rng = np.random.default_rng(45)
    base = rng.normal(size=(8, 4))
    return base[rng.integers(0, 8, size=24)]


DEGENERATE = {
    "duplicated_grid": _duplicated_grid(),
    "duplicated_rows": _duplicated_rows(),
    "all_zero": np.zeros((12, 3)),
    "two_samples": np.array([[0.0, 0.0], [1.0, 1.0]]),
    "two_identical": np.ones((2, 3)),
    "repeated_row": np.vstack([np.eye(3)] * 5),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE))
@pytest.mark.parametrize(
    "params",
    [
        {},
        {"preference": -2.0},
        {"target_n_clusters": 3},
        {"damping": 0.5, "damping_schedule": "adaptive", "max_iter": 120},
        {"damping": 0.5, "damping_schedule": "adaptive", "target_n_clusters": 2},
        # A three-iteration window at damping 0.5 stops on whichever
        # exemplar set first holds that long, so on duplicated rows a
        # last-bit change in the messages changes every fitted attribute:
        # this case catches a reordered (merely algebraically equal) update.
        {"damping": 0.5, "convergence_iter": 3, "target_n_clusters": 2},
    ],
    ids=["median", "explicit", "target", "adaptive", "adaptive-target", "short-window"],
)
def test_matches_reference_on_degenerate_inputs(name, params):
    _assert_identical(DEGENERATE[name], random_state=0, **params)


@pytest.mark.parametrize("seed", range(3))
def test_matches_reference_on_mixture(seed):
    from repro.datasets.synthetic import make_high_dimensional_mixture

    data, _ = make_high_dimensional_mixture(150, 20, 5, random_state=seed)
    _assert_identical(data, target_n_clusters=5, random_state=seed)


def test_target_fit_runs_each_preference_once(monkeypatch, hard_blobs_dataset):
    data, _ = hard_blobs_dataset
    passed = []
    message_passing = AffinityPropagation._message_passing

    def recording(self, similarity, preference):
        passed.append(preference)
        return message_passing(self, similarity, preference)

    monkeypatch.setattr(AffinityPropagation, "_message_passing", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = AffinityPropagation(target_n_clusters=3, random_state=0).fit(data)
    assert model.preference_ in passed
    assert len(passed) == len(set(passed)), passed
