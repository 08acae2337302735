"""Agglomerative (hierarchical) clustering.

Not part of the paper's evaluation grid, but an optional extra member of the
multi-clustering integration ensemble: adding a structurally different base
clusterer increases the diversity of the partitions fed to unanimous voting.

Needs scipy, which is imported when the clusterer is fitted: numpy is the
package's only runtime dependency.
"""

from __future__ import annotations

import numpy as np

from repro.clustering.base import BaseClusterer
from repro.exceptions import ValidationError
from repro.utils.validation import check_positive_int

__all__ = ["AgglomerativeClustering"]

_VALID_LINKAGE = ("ward", "complete", "average", "single")


class AgglomerativeClustering(BaseClusterer):
    """Bottom-up hierarchical clustering cut at ``n_clusters``.

    Parameters
    ----------
    n_clusters : int
        Number of flat clusters extracted from the dendrogram.
    linkage : {"ward", "complete", "average", "single"}, default "ward"
        Merge criterion.
    """

    def __init__(self, n_clusters: int, *, linkage: str = "ward") -> None:
        self.n_clusters = check_positive_int(n_clusters, name="n_clusters")
        if linkage not in _VALID_LINKAGE:
            raise ValidationError(
                f"linkage must be one of {_VALID_LINKAGE}, got {linkage!r}"
            )
        self.linkage = linkage

    @property
    def name(self) -> str:
        return f"Agglomerative({self.linkage})"

    def _fit(self, data: np.ndarray) -> None:
        from scipy.cluster.hierarchy import fcluster, linkage

        if self.n_clusters > data.shape[0]:
            raise ValidationError(
                f"n_clusters={self.n_clusters} exceeds n_samples={data.shape[0]}"
            )
        merge_tree = linkage(data, method=self.linkage)
        labels = fcluster(merge_tree, t=self.n_clusters, criterion="maxclust")
        self.labels_ = labels - 1  # fcluster labels start at 1
