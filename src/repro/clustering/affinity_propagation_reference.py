"""Reference Affinity Propagation: the original allocating implementation.

:class:`AffinityPropagationReference` keeps — verbatim in structure — the
fit of :class:`repro.clustering.AffinityPropagation` before its message
passing was made in-place and its preference search stopped re-running the
chosen preference.  It is kept for two reasons:

* correctness anchor: the optimised class must produce exactly the same
  ``labels_``, ``cluster_centers_indices_``, ``n_iter_``, ``converged_``,
  ``final_damping_`` and ``preference_`` (see
  ``tests/clustering/test_affinity_propagation_equivalence.py``);
* measuring stick: ``python -m repro bench`` times the optimised fit
  against this one in its ``affinity_propagation`` section.

It is deliberately not registered.  Do not optimise this module; optimise
:mod:`repro.clustering.affinity_propagation` instead.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.clustering.affinity_propagation import AffinityPropagation
from repro.exceptions import ConvergenceWarning, ValidationError
from repro.utils.numerics import pairwise_squared_distances
from repro.utils.rng import check_random_state

__all__ = ["AffinityPropagationReference"]


class AffinityPropagationReference(AffinityPropagation):
    """Pre-optimisation Affinity Propagation; same parameters and attributes
    as :class:`~repro.clustering.AffinityPropagation`."""

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
            preference = self._tune_preference(similarity, median_preference)
        elif self.preference is not None:
            preference = self.preference
        else:
            preference = median_preference

        labels, exemplars, n_iter, converged, final_damping = self._message_passing(
            similarity, preference
        )
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
    ) -> float:
        """Bisection search for a preference yielding ~target_n_clusters exemplars."""
        target = self.target_n_clusters
        low = median_preference * 64.0 if median_preference < 0 else -64.0
        high = median_preference / 64.0 if median_preference < 0 else -1e-6
        best_pref = median_preference
        best_gap = np.inf
        for _ in range(6):
            mid = 0.5 * (low + high)
            labels, exemplars, _, _, _ = self._message_passing(similarity, mid)
            n_found = exemplars.shape[0]
            gap = abs(n_found - target)
            if gap < best_gap:
                best_gap = gap
                best_pref = mid
            if gap == 0:
                break
            if n_found > target:
                # too many clusters: decrease (more negative) the preference
                high = mid if mid < high else high
                low, high = low, mid
            else:
                low, high = mid, high
        return best_pref

    def _message_passing(
        self, similarity: np.ndarray, preference: float
    ) -> tuple[np.ndarray, np.ndarray, int, bool, float]:
        n_samples = similarity.shape[0]
        s = similarity.copy()
        np.fill_diagonal(s, preference)

        responsibility = np.zeros_like(s)
        availability = np.zeros_like(s)
        exemplar_history = np.zeros((self.convergence_iter, n_samples), dtype=bool)
        converged = False
        iteration = 0
        damping = self.damping
        damping_ceiling = max(self.damping, self.max_damping)

        index = np.arange(n_samples)
        for iteration in range(1, self.max_iter + 1):
            # --- responsibilities -------------------------------------------------
            combined = availability + s
            first_max_idx = np.argmax(combined, axis=1)
            first_max = combined[index, first_max_idx]
            combined[index, first_max_idx] = -np.inf
            second_max = np.max(combined, axis=1)

            new_responsibility = s - first_max[:, None]
            new_responsibility[index, first_max_idx] = (
                s[index, first_max_idx] - second_max
            )
            responsibility = (
                damping * responsibility + (1.0 - damping) * new_responsibility
            )

            # --- availabilities ---------------------------------------------------
            positive_resp = np.maximum(responsibility, 0.0)
            np.fill_diagonal(positive_resp, responsibility.diagonal())
            column_sums = positive_resp.sum(axis=0)
            new_availability = column_sums[None, :] - positive_resp
            diagonal = new_availability.diagonal().copy()
            new_availability = np.minimum(new_availability, 0.0)
            np.fill_diagonal(new_availability, diagonal)
            availability = (
                damping * availability + (1.0 - damping) * new_availability
            )

            # --- convergence check ------------------------------------------------
            exemplars_mask = (availability + responsibility).diagonal() > 0
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

        exemplars = np.flatnonzero(
            (availability + responsibility).diagonal() > 0
        )
        if exemplars.size == 0:
            # Degenerate outcome: fall back to the sample with the strongest
            # evidence of being an exemplar so that at least one cluster exists.
            exemplars = np.array(
                [int(np.argmax((availability + responsibility).diagonal()))]
            )

        assignment = np.argmax(s[:, exemplars], axis=1)
        assignment[exemplars] = np.arange(exemplars.shape[0])
        return assignment.astype(int), exemplars, iteration, converged, damping
