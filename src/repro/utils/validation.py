"""Input validation helpers.

The public estimators validate their inputs eagerly and raise
:class:`repro.exceptions.ValidationError` with an explicit message instead of
letting numpy broadcasting errors surface deep inside the training loops.
"""

from __future__ import annotations

import numbers

import numpy as np

from repro.exceptions import ValidationError

__all__ = [
    "check_array",
    "check_labels",
    "check_same_length",
    "check_positive_int",
    "check_probability",
    "check_in_range",
]


def _all_finite(arr: np.ndarray) -> bool:
    """Whether every element of a float array is finite.

    Fast path: NaN/inf propagate into the sum, so one SIMD reduction decides
    the common all-finite case without materialising an elementwise boolean
    mask.  A sum over genuinely finite values can still overflow to inf, so
    a non-finite sum falls back to the exact elementwise check rather than
    rejecting the data outright.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        total = arr.sum()
    return bool(np.isfinite(total)) or bool(np.all(np.isfinite(arr)))


def check_array(
    x,
    *,
    name: str = "X",
    ndim: int = 2,
    allow_empty: bool = False,
    dtype=float,
) -> np.ndarray:
    """Validate and convert ``x`` to a numpy array of the expected rank.

    Raises
    ------
    ValidationError
        If the array has the wrong dimensionality, contains NaN/inf values or
        is empty while ``allow_empty`` is false.
    """
    arr = np.asarray(x, dtype=dtype)
    if arr.ndim != ndim:
        raise ValidationError(
            f"{name} must be a {ndim}-D array, got shape {arr.shape}"
        )
    if not allow_empty and arr.size == 0:
        raise ValidationError(f"{name} must not be empty")
    if np.issubdtype(arr.dtype, np.floating) and not _all_finite(arr):
        raise ValidationError(f"{name} contains NaN or infinite values")
    return arr


def check_labels(labels, *, name: str = "labels", n_samples: int | None = None) -> np.ndarray:
    """Validate an integer label vector."""
    arr = np.asarray(labels)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be a 1-D array, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError(f"{name} must not be empty")
    if not np.issubdtype(arr.dtype, np.integer):
        if not np.issubdtype(arr.dtype, np.floating):
            raise ValidationError(f"{name} must contain integers")
        # A float label is kept only if the int cast returns it unchanged:
        # fractional, non-finite and out-of-range values would otherwise
        # truncate or all collapse onto the same int64 minimum.
        with np.errstate(invalid="ignore"):
            cast = arr.astype(int)
        if not np.array_equal(cast, arr):
            raise ValidationError(
                f"{name} must contain integers (finite and within the int64 range)"
            )
        arr = cast
    if n_samples is not None and arr.shape[0] != n_samples:
        raise ValidationError(
            f"{name} has {arr.shape[0]} entries but {n_samples} samples were expected"
        )
    return arr.astype(int)


def check_same_length(*arrays, names: tuple[str, ...] | None = None) -> None:
    """Raise if the first axis lengths of the given arrays differ."""
    lengths = [np.asarray(a).shape[0] for a in arrays]
    if len(set(lengths)) > 1:
        if names is None:
            names = tuple(f"array{i}" for i in range(len(arrays)))
        detail = ", ".join(f"{n}={l}" for n, l in zip(names, lengths))
        raise ValidationError(f"inconsistent number of samples: {detail}")


def check_positive_int(value, *, name: str) -> int:
    """Validate a strictly positive integer parameter."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value <= 0:
        raise ValidationError(f"{name} must be positive, got {value}")
    return int(value)


def check_probability(value, *, name: str, inclusive: bool = False) -> float:
    """Validate a scalar in the open interval (0, 1) (or closed if requested)."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if inclusive:
        if not 0.0 <= value <= 1.0:
            raise ValidationError(f"{name} must lie in [0, 1], got {value}")
    else:
        if not 0.0 < value < 1.0:
            raise ValidationError(f"{name} must lie in (0, 1), got {value}")
    return value


def check_in_range(value, *, name: str, low: float, high: float) -> float:
    """Validate a scalar in the closed interval [low, high]."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if not low <= value <= high:
        raise ValidationError(f"{name} must lie in [{low}, {high}], got {value}")
    return value
