"""Clustering accuracy (Eq. 36 of the paper).

The predicted cluster identifiers are mapped onto the ground-truth classes by
the permutation that maximises agreement (solved exactly by a minimum-cost
assignment on the contingency table,
:func:`repro.utils.assignment.linear_sum_assignment`), after which the
fraction of correctly mapped samples is reported.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.contingency import contingency_matrix, relabel_consecutive
from repro.utils.assignment import linear_sum_assignment
from repro.utils.validation import check_labels, check_same_length

__all__ = ["clustering_accuracy", "best_label_mapping"]


def best_label_mapping(labels_true, labels_pred) -> dict[int, int]:
    """Optimal mapping from predicted cluster labels to true class labels.

    Returns a dictionary ``{predicted_label: true_label}``.  When the number
    of predicted clusters exceeds the number of classes, surplus clusters are
    mapped greedily to their majority class.
    """
    labels_true = check_labels(labels_true, name="labels_true")
    labels_pred = check_labels(labels_pred, name="labels_pred")
    check_same_length(labels_true, labels_pred, names=("labels_true", "labels_pred"))

    table = contingency_matrix(labels_true, labels_pred)
    _, true_uniques = relabel_consecutive(labels_true)
    _, pred_uniques = relabel_consecutive(labels_pred)

    # Hungarian assignment on the (clusters x classes) transpose.  Each
    # cluster's majority count is subtracted from its row first: a cluster
    # left out of the assignment still contributes its majority class via
    # the fallback below, so the quantity the assignment actually controls
    # is the *gain over majority*, not the raw matched count.  Without this
    # adjustment, ties between surplus clusters are broken by cluster
    # numbering and the resulting accuracy is not invariant to relabelling
    # the predicted clusters.
    cost = -(table.T - table.max(axis=0)[:, None])
    row_ind, col_ind = linear_sum_assignment(cost)
    mapping: dict[int, int] = {}
    for pred_code, true_code in zip(row_ind, col_ind):
        mapping[int(pred_uniques[pred_code])] = int(true_uniques[true_code])

    # Clusters not covered by the assignment (more clusters than classes):
    # fall back to majority class for each.
    for pred_code, pred_value in enumerate(pred_uniques):
        if int(pred_value) not in mapping:
            majority_code = int(np.argmax(table[:, pred_code]))
            mapping[int(pred_value)] = int(true_uniques[majority_code])
    return mapping


def clustering_accuracy(labels_true, labels_pred) -> float:
    """Clustering accuracy ``AC`` in ``[0, 1]`` (Eq. 36).

    Examples
    --------
    >>> clustering_accuracy([0, 0, 1, 1], [1, 1, 0, 0])
    1.0
    """
    labels_true = check_labels(labels_true, name="labels_true")
    labels_pred = check_labels(labels_pred, name="labels_pred")
    check_same_length(labels_true, labels_pred, names=("labels_true", "labels_pred"))

    mapping = best_label_mapping(labels_true, labels_pred)
    # Array lookup table over the k distinct predicted labels instead of a
    # Python dict lookup per sample.
    pred_codes, pred_uniques = relabel_consecutive(labels_pred)
    lookup = np.array([mapping[int(value)] for value in pred_uniques])
    mapped = lookup[pred_codes]
    return float(np.mean(mapped == labels_true))
