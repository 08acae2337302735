"""Tests for repro.utils.validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.utils.validation import (
    check_array,
    check_in_range,
    check_labels,
    check_positive_int,
    check_probability,
    check_same_length,
)


class TestCheckArray:
    def test_converts_lists(self):
        arr = check_array([[1, 2], [3, 4]])
        assert arr.dtype == float and arr.shape == (2, 2)

    def test_wrong_ndim_raises(self):
        with pytest.raises(ValidationError, match="2-D"):
            check_array([1.0, 2.0])

    def test_custom_ndim(self):
        assert check_array([1.0, 2.0], ndim=1).shape == (2,)

    def test_nan_rejected(self):
        with pytest.raises(ValidationError, match="NaN"):
            check_array([[1.0, np.nan]])

    def test_inf_rejected(self):
        with pytest.raises(ValidationError, match="NaN or infinite"):
            check_array([[np.inf, 1.0]])

    def test_empty_rejected_by_default(self):
        with pytest.raises(ValidationError, match="empty"):
            check_array(np.empty((0, 3)))

    def test_empty_allowed_when_requested(self):
        arr = check_array(np.empty((0, 3)), allow_empty=True)
        assert arr.shape == (0, 3)


class TestCheckLabels:
    def test_accepts_integer_list(self):
        labels = check_labels([0, 1, 2, 1])
        assert labels.dtype.kind == "i"

    def test_accepts_integral_floats(self):
        labels = check_labels(np.array([0.0, 1.0, 2.0]))
        assert labels.dtype.kind == "i"

    def test_rejects_fractional_floats(self):
        with pytest.raises(ValidationError, match="integers"):
            check_labels([0.5, 1.0])

    @pytest.mark.parametrize("value", [np.inf, -np.inf, 1e20, -1e20])
    def test_rejects_floats_the_int_cast_would_change(self, value):
        # Each of these used to cast to the int64 minimum.
        with pytest.raises(ValidationError, match="integers"):
            check_labels(np.array([value, 0.0, 1.0]))

    def test_accepts_integral_floats_at_the_int64_edge(self):
        labels = check_labels(np.array([-(2.0**63), 2.0**62, 0.0]))
        assert labels.tolist() == [-(2**63), 2**62, 0]

    def test_distinct_out_of_range_labels_are_not_merged(self):
        from repro.metrics import clustering_accuracy

        with pytest.raises(ValidationError, match="labels_pred"):
            clustering_accuracy([0, 1, 2], [1e20, -1e20, 0.0])

    def test_rejects_2d(self):
        with pytest.raises(ValidationError, match="1-D"):
            check_labels([[0, 1]])

    def test_rejects_empty(self):
        with pytest.raises(ValidationError, match="empty"):
            check_labels([])

    def test_length_check(self):
        with pytest.raises(ValidationError, match="entries"):
            check_labels([0, 1], n_samples=3)


class TestCheckSameLength:
    def test_consistent_lengths_pass(self):
        check_same_length(np.zeros(3), np.ones(3))

    def test_inconsistent_lengths_raise(self):
        with pytest.raises(ValidationError, match="inconsistent"):
            check_same_length(np.zeros(3), np.ones(4), names=("a", "b"))


class TestScalarChecks:
    def test_positive_int_ok(self):
        assert check_positive_int(5, name="x") == 5

    @pytest.mark.parametrize("value", [0, -1, 2.5, True, "3"])
    def test_positive_int_rejects(self, value):
        with pytest.raises(ValidationError):
            check_positive_int(value, name="x")

    def test_probability_open_interval(self):
        assert check_probability(0.4, name="eta") == pytest.approx(0.4)
        with pytest.raises(ValidationError):
            check_probability(0.0, name="eta")
        with pytest.raises(ValidationError):
            check_probability(1.0, name="eta")

    def test_probability_inclusive(self):
        assert check_probability(0.0, name="p", inclusive=True) == 0.0
        assert check_probability(1.0, name="p", inclusive=True) == 1.0

    def test_in_range(self):
        assert check_in_range(0.7, name="damping", low=0.5, high=1.0) == 0.7
        with pytest.raises(ValidationError):
            check_in_range(0.4, name="damping", low=0.5, high=1.0)
