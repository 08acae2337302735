"""Partition alignment.

Different clustering algorithms label the same groups with arbitrary integer
identifiers.  Before any voting can take place the partitions have to share a
common labelling; this module aligns each partition to a reference partition
by a minimum-cost assignment on their negated contingency table (maximum
overlap matching, :func:`repro.utils.assignment.linear_sum_assignment`).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.metrics.contingency import contingency_matrix, relabel_consecutive
from repro.utils.assignment import linear_sum_assignment
from repro.utils.validation import check_labels, check_same_length

__all__ = ["align_to_reference", "align_partitions"]


def align_to_reference(reference, partition) -> np.ndarray:
    """Relabel ``partition`` so its clusters maximally overlap ``reference``.

    Clusters of ``partition`` that cannot be matched (more clusters than in
    the reference) keep fresh labels beyond the reference's label range so
    that no two source clusters are merged by the alignment.

    Returns
    -------
    ndarray of shape (n_samples,)
        The relabelled partition.
    """
    reference = check_labels(reference, name="reference")
    partition = check_labels(partition, name="partition")
    check_same_length(reference, partition, names=("reference", "partition"))

    table = contingency_matrix(reference, partition)
    _, reference_uniques = relabel_consecutive(reference)
    _, partition_uniques = relabel_consecutive(partition)

    row_ind, col_ind = linear_sum_assignment(-table)
    mapping: dict[int, int] = {}
    for ref_code, part_code in zip(row_ind, col_ind):
        mapping[int(partition_uniques[part_code])] = int(reference_uniques[ref_code])

    next_free = int(reference_uniques.max()) + 1
    for part_value in partition_uniques:
        if int(part_value) not in mapping:
            mapping[int(part_value)] = next_free
            next_free += 1

    return np.array([mapping[int(label)] for label in partition], dtype=int)


def align_partitions(partitions: list[np.ndarray]) -> list[np.ndarray]:
    """Align a list of partitions to the first one.

    Parameters
    ----------
    partitions : list of 1-D integer arrays, all of the same length.

    Returns
    -------
    list of ndarray
        The first partition unchanged followed by the aligned versions of the
        others.
    """
    if not partitions:
        raise ValidationError("align_partitions needs at least one partition")
    reference = check_labels(partitions[0], name="partitions[0]")
    aligned = [reference]
    for index, partition in enumerate(partitions[1:], start=1):
        partition = check_labels(partition, name=f"partitions[{index}]")
        check_same_length(
            reference, partition, names=("partitions[0]", f"partitions[{index}]")
        )
        aligned.append(align_to_reference(reference, partition))
    return aligned
