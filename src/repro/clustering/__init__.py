"""Unsupervised clustering algorithms implemented from scratch.

The paper uses three base clusterers — Density Peaks (DP), K-means and
Affinity Propagation (AP) — both as producers of the self-learning local
supervisions and as the downstream algorithms evaluated on the learned hidden
features.  Agglomerative and spectral clustering are additionally provided as
optional members of a larger integration ensemble.
"""

from repro.clustering.affinity_propagation import AffinityPropagation
from repro.clustering.base import BaseClusterer
from repro.clustering.density_peaks import DensityPeaks
from repro.clustering.hierarchical import AgglomerativeClustering
from repro.clustering.kmeans import KMeans
from repro.clustering.minibatch_kmeans import MiniBatchKMeans
from repro.clustering.spectral import SpectralClustering

__all__ = [
    "BaseClusterer",
    "KMeans",
    "MiniBatchKMeans",
    "AffinityPropagation",
    "DensityPeaks",
    "AgglomerativeClustering",
    "SpectralClustering",
]
