"""Affinity Propagation (Frey & Dueck, Science 2007).

Clusters by passing responsibility and availability messages between data
points until a stable set of exemplars emerges.  The number of clusters is
determined by the ``preference`` (self-similarity); the paper uses the
algorithm with its conventional default of the median pairwise similarity.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.clustering.base import BaseClusterer
from repro.exceptions import ConvergenceWarning, ValidationError
from repro.utils.numerics import pairwise_squared_distances
from repro.utils.rng import check_random_state
from repro.utils.validation import check_in_range, check_positive_int

__all__ = ["AffinityPropagation"]


class AffinityPropagation(BaseClusterer):
    """Affinity Propagation clustering on negative squared Euclidean similarity.

    Parameters
    ----------
    damping : float, default 0.7
        Message damping factor in ``[0.5, 1)`` (the starting value when a
        schedule is active).
    damping_schedule : {"constant", "adaptive"}, default "constant"
        ``"adaptive"`` raises the damping by ``damping_increment`` whenever a
        full convergence window passes with the exemplar set still
        oscillating, up to ``max_damping``.  Oscillation — not slow drift —
        is the classic AP failure mode that otherwise runs straight into
        ``max_iter``; heavier damping settles it at the cost of slower
        message updates, so paying it only when needed keeps the common case
        fast.
    damping_increment : float, default 0.05
        Step the adaptive schedule adds per stalled window.
    max_damping : float, default 0.95
        Ceiling of the adaptive schedule.
    max_iter : int, default 200
        Maximum number of message-passing iterations.
    convergence_iter : int, default 15
        Stop when the exemplar set is unchanged for this many iterations.
    preference : float or None
        Self-similarity; ``None`` uses the median of the off-diagonal
        similarities (the standard choice).
    target_n_clusters : int or None
        When set, the preference is tuned by bisection so that the number of
        exemplars approaches this target.  The paper's evaluation compares
        against partitions with the ground-truth number of classes, so the
        experiment harness sets this to ``K``.
    random_state : int, Generator or None
        Used only for the tiny symmetry-breaking noise added to the
        similarity matrix.

    Attributes
    ----------
    labels_ : ndarray of shape (n_samples,)
    cluster_centers_indices_ : ndarray
        Indices of the exemplar samples.
    n_iter_ : int
    converged_ : bool
    final_damping_ : float
        Damping in effect when message passing stopped (equals ``damping``
        for the constant schedule).
    """

    def __init__(
        self,
        *,
        damping: float = 0.7,
        damping_schedule: str = "constant",
        damping_increment: float = 0.05,
        max_damping: float = 0.95,
        max_iter: int = 200,
        convergence_iter: int = 15,
        preference: float | None = None,
        target_n_clusters: int | None = None,
        random_state=None,
    ) -> None:
        self.damping = check_in_range(damping, name="damping", low=0.5, high=0.999)
        if damping_schedule not in ("constant", "adaptive"):
            raise ValidationError(
                "damping_schedule must be 'constant' or 'adaptive', got "
                f"{damping_schedule!r}"
            )
        self.damping_schedule = damping_schedule
        if damping_increment <= 0:
            raise ValidationError(
                f"damping_increment must be positive, got {damping_increment}"
            )
        self.damping_increment = float(damping_increment)
        self.max_damping = check_in_range(
            max_damping, name="max_damping", low=0.5, high=0.999
        )
        self.max_iter = check_positive_int(max_iter, name="max_iter")
        self.convergence_iter = check_positive_int(
            convergence_iter, name="convergence_iter"
        )
        self.preference = None if preference is None else float(preference)
        if target_n_clusters is not None:
            target_n_clusters = check_positive_int(
                target_n_clusters, name="target_n_clusters"
            )
        self.target_n_clusters = target_n_clusters
        self.random_state = random_state

    @property
    def name(self) -> str:
        return "AP"

    def _fit(self, data: np.ndarray) -> None:
        n_samples = data.shape[0]
        if n_samples < 2:
            raise ValidationError("AffinityPropagation requires at least 2 samples")
        similarity = -pairwise_squared_distances(data)
        rng = check_random_state(self.random_state)
        # Tiny noise removes degeneracies that cause oscillations.
        noise_scale = 1e-12 * (np.abs(similarity).max() + 1.0)
        similarity = similarity + noise_scale * rng.standard_normal(similarity.shape)

        off_diagonal = similarity[~np.eye(n_samples, dtype=bool)]
        median_preference = float(np.median(off_diagonal))

        if self.target_n_clusters is not None:
            preference, result = self._tune_preference(similarity, median_preference)
        else:
            preference = (
                median_preference if self.preference is None else self.preference
            )
            result = self._message_passing(similarity, preference)

        labels, exemplars, n_iter, converged, final_damping = result
        self.preference_ = float(preference)
        self.labels_ = labels
        self.cluster_centers_indices_ = exemplars
        self.n_iter_ = n_iter
        self.converged_ = converged
        self.final_damping_ = final_damping
        if not converged:
            hint = (
                "the adaptive damping schedule already reached "
                f"damping={final_damping:.2f}; raise max_iter or max_damping"
                if self.damping_schedule == "adaptive"
                else "consider damping_schedule='adaptive' or a larger damping"
            )
            warnings.warn(
                f"AffinityPropagation hit max_iter={self.max_iter} without the "
                f"exemplar set converging; results may be unstable ({hint})",
                ConvergenceWarning,
            )

    def _tune_preference(
        self, similarity: np.ndarray, median_preference: float
    ) -> tuple[float, tuple]:
        """Bisection search for a preference yielding ~target_n_clusters exemplars.

        Returns the chosen preference together with its message-passing
        result, so the fit does not run message passing there a second time.
        """
        target = self.target_n_clusters
        low = median_preference * 64.0 if median_preference < 0 else -64.0
        high = median_preference / 64.0 if median_preference < 0 else -1e-6
        best = None
        best_gap = np.inf
        for _ in range(6):
            mid = 0.5 * (low + high)
            result = self._message_passing(similarity, mid)
            n_found = result[1].shape[0]
            gap = abs(n_found - target)
            if gap < best_gap:
                best_gap = gap
                best = (mid, result)
            if gap == 0:
                break
            if n_found > target:
                # too many clusters: decrease (more negative) the preference
                high = mid
            else:
                low = mid
        return best

    def _message_passing(
        self, similarity: np.ndarray, preference: float
    ) -> tuple[np.ndarray, np.ndarray, int, bool, float]:
        n_samples = similarity.shape[0]
        s = similarity.copy()
        np.fill_diagonal(s, preference)

        responsibility = np.zeros_like(s)
        availability = np.zeros_like(s)
        # Every n x n temporary lives in this one buffer.  Each in-place step
        # below performs the same floating-point operations, in the same
        # order, as the allocating loop kept in
        # ``repro.clustering.affinity_propagation_reference``, so the messages
        # (and hence labels, iteration counts and damping) are bit-identical.
        scratch = np.empty_like(s)
        diagonal = slice(None, None, n_samples + 1)  # flat indices of the diagonal
        exemplar_history = np.zeros((self.convergence_iter, n_samples), dtype=bool)
        converged = False
        iteration = 0
        damping = self.damping
        damping_ceiling = max(self.damping, self.max_damping)

        index = np.arange(n_samples)
        for iteration in range(1, self.max_iter + 1):
            # --- responsibilities -------------------------------------------------
            np.add(availability, s, out=scratch)
            first_max_idx = np.argmax(scratch, axis=1)
            first_max = scratch[index, first_max_idx]
            scratch[index, first_max_idx] = -np.inf
            second_max = np.max(scratch, axis=1)

            np.subtract(s, first_max[:, None], out=scratch)
            scratch[index, first_max_idx] = s[index, first_max_idx] - second_max
            scratch *= 1.0 - damping
            responsibility *= damping
            responsibility += scratch

            # --- availabilities ---------------------------------------------------
            np.maximum(responsibility, 0.0, out=scratch)
            scratch.flat[diagonal] = responsibility.flat[diagonal]
            np.subtract(scratch.sum(axis=0), scratch, out=scratch)
            self_availability = scratch.flat[diagonal]
            np.minimum(scratch, 0.0, out=scratch)
            scratch.flat[diagonal] = self_availability
            scratch *= 1.0 - damping
            availability *= damping
            availability += scratch

            # --- convergence check ------------------------------------------------
            exemplars_mask = (
                availability.flat[diagonal] + responsibility.flat[diagonal] > 0
            )
            exemplar_history[(iteration - 1) % self.convergence_iter] = exemplars_mask
            if iteration >= self.convergence_iter:
                stable = np.all(exemplar_history == exemplar_history[0], axis=0).all()
                if stable and exemplars_mask.any():
                    converged = True
                    break
                if (
                    self.damping_schedule == "adaptive"
                    and damping < damping_ceiling
                    and iteration % self.convergence_iter == 0
                    and np.any(exemplar_history != exemplar_history[0])
                ):
                    # The exemplar set flipped within the whole window:
                    # oscillation, not drift — damp the messages harder.
                    damping = min(damping + self.damping_increment, damping_ceiling)

        evidence = availability.flat[diagonal] + responsibility.flat[diagonal]
        exemplars = np.flatnonzero(evidence > 0)
        if exemplars.size == 0:
            # Degenerate outcome: fall back to the sample with the strongest
            # evidence of being an exemplar so that at least one cluster exists.
            exemplars = np.array([int(np.argmax(evidence))])

        assignment = np.argmax(s[:, exemplars], axis=1)
        assignment[exemplars] = np.arange(exemplars.shape[0])
        return assignment.astype(int), exemplars, iteration, converged, damping
