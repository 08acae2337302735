"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while still
letting programming errors (``TypeError`` from misuse of numpy, etc.)
propagate unchanged.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` package."""


class ValidationError(ReproError, ValueError):
    """Raised when user-supplied data or parameters fail validation."""


class NotFittedError(ReproError, RuntimeError):
    """Raised when a model is used before :meth:`fit` has been called."""


class ConvergenceWarning(UserWarning):
    """Warning emitted when an iterative algorithm stops before converging."""


class DatasetError(ReproError, KeyError):
    """Raised when a requested dataset is unknown or malformed."""


class SupervisionError(ReproError, ValueError):
    """Raised when local supervisions cannot be constructed (e.g. no
    instance survives unanimous voting)."""


class PersistenceError(ReproError, IOError):
    """Raised when a model artifact cannot be written or read."""


class ArtifactCorruptedError(PersistenceError):
    """Raised when an artifact bundle fails integrity checks (missing files,
    checksum mismatch, undecodable manifest or arrays)."""


class SchemaVersionError(PersistenceError):
    """Raised when an artifact was written with an incompatible schema
    version of the persistence layer."""


class ServingError(ReproError, RuntimeError):
    """Raised by the serving layer (unknown model name, bad request)."""


class DeadlineExceededError(ReproError):
    """A request's ``deadline_ms`` budget ran out before compute could
    start; the serving front end maps it to 503 + ``Retry-After`` (the
    client should shed load or retry with a fresh budget).

    Deliberately *not* a :class:`ServingError` subclass: the HTTP layer
    maps ``ServingError`` to 404 (unknown model), while a spent deadline
    is an overload signal."""
