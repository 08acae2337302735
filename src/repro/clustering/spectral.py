"""Spectral clustering on a Gaussian-kernel affinity graph.

Another optional member of the integration ensemble (see
:mod:`repro.clustering.hierarchical`).  Embeds the samples with the leading
eigenvectors of the normalised graph Laplacian and clusters the embedding
with K-means.

Two affinity back ends are provided:

* **dense** — the full ``n x n`` Gaussian kernel and a partial dense
  eigendecomposition; exact, but quadratic in memory and cubic-ish in time.
* **sparse** — a symmetrised k-nearest-neighbour affinity held in CSR form
  and the leading eigenvectors from ``scipy.sparse.linalg.eigsh`` (Lanczos).
  The distance sweep is chunked, so peak memory is ``chunk x n`` instead of
  ``n x n``, and the eigensolver touches only ``n x k`` state.

``affinity="auto"`` (the default) picks dense for small inputs — where the
exact kernel is cheap and slightly more faithful — and the sparse path above
``dense_threshold`` samples.

Both paths need scipy, which is imported when the clusterer is fitted: numpy
is the package's only runtime dependency.
"""

from __future__ import annotations

import numpy as np

from repro.clustering.base import BaseClusterer
from repro.clustering.kmeans import KMeans
from repro.exceptions import ValidationError
from repro.utils.numerics import pairwise_squared_distances
from repro.utils.validation import check_positive_int

__all__ = ["SpectralClustering"]

_AFFINITIES = ("auto", "dense", "sparse")


class SpectralClustering(BaseClusterer):
    """Normalised-cut spectral clustering.

    Parameters
    ----------
    n_clusters : int
        Number of clusters and of Laplacian eigenvectors used.
    gamma : float or None
        Gaussian kernel width ``exp(-gamma * d^2)``; ``None`` adapts to the
        data scale (``1 / median(d^2)`` over all pairs on the dense path,
        over the k-NN pairs on the sparse path).
    affinity : {"auto", "dense", "sparse"}, default "auto"
        Affinity construction.  ``"sparse"`` builds a symmetrised
        k-nearest-neighbour graph and solves the eigenproblem with Lanczos
        iteration; ``"auto"`` uses it above ``dense_threshold`` samples and
        the exact dense kernel below.
    n_neighbors : int, default 10
        Neighbours per sample of the sparse affinity graph.
    dense_threshold : int, default 512
        Sample count up to which ``"auto"`` stays on the dense path.
    chunk_size : int, default 512
        Rows per block of the chunked k-NN distance sweep.
    random_state : int, Generator or None
        Passed to the K-means step on the spectral embedding.

    Attributes
    ----------
    labels_ : ndarray of shape (n_samples,)
    embedding_ : ndarray of shape (n_samples, n_clusters)
        Row-normalised spectral embedding.
    gamma_ : float
        Kernel width actually used.
    affinity_mode_ : str
        ``"dense"`` or ``"sparse"`` — the back end the fit resolved to.
    """

    def __init__(
        self,
        n_clusters: int,
        *,
        gamma: float | None = None,
        affinity: str = "auto",
        n_neighbors: int = 10,
        dense_threshold: int = 512,
        chunk_size: int = 512,
        random_state=None,
    ) -> None:
        self.n_clusters = check_positive_int(n_clusters, name="n_clusters")
        if gamma is not None and gamma <= 0:
            raise ValidationError(f"gamma must be positive, got {gamma}")
        self.gamma = gamma
        if affinity not in _AFFINITIES:
            raise ValidationError(
                f"affinity must be one of {_AFFINITIES}, got {affinity!r}"
            )
        self.affinity = affinity
        self.n_neighbors = check_positive_int(n_neighbors, name="n_neighbors")
        self.dense_threshold = check_positive_int(
            dense_threshold, name="dense_threshold"
        )
        self.chunk_size = check_positive_int(chunk_size, name="chunk_size")
        self.random_state = random_state

    @property
    def name(self) -> str:
        return "Spectral"

    def _fit(self, data: np.ndarray) -> None:
        n_samples = data.shape[0]
        if self.n_clusters > n_samples:
            raise ValidationError(
                f"n_clusters={self.n_clusters} exceeds n_samples={n_samples}"
            )
        mode = self.affinity
        if mode == "auto":
            mode = "dense" if n_samples <= self.dense_threshold else "sparse"
        if mode == "sparse" and (
            self.n_clusters >= n_samples - 1
            or self.n_neighbors >= n_samples - 1
        ):
            # Lanczos needs k < n and a meaningful neighbourhood; tiny inputs
            # fall back to the exact dense path.
            mode = "dense"
        self.affinity_mode_ = mode

        if mode == "dense":
            embedding = self._dense_embedding(data, n_samples)
        else:
            embedding = self._sparse_embedding(data, n_samples)

        norms = np.linalg.norm(embedding, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        embedding = embedding / norms

        kmeans = KMeans(
            self.n_clusters, n_init=10, random_state=self.random_state
        )
        self.labels_ = kmeans.fit_predict(embedding)
        self.embedding_ = embedding

    # ------------------------------------------------------------- dense path
    def _dense_embedding(self, data: np.ndarray, n_samples: int) -> np.ndarray:
        from scipy.linalg import eigh

        squared = pairwise_squared_distances(data)
        if self.gamma is None:
            off_diagonal = squared[~np.eye(n_samples, dtype=bool)]
            median = float(np.median(off_diagonal))
            gamma = 1.0 / median if median > 0 else 1.0
        else:
            gamma = self.gamma
        self.gamma_ = gamma

        affinity = np.exp(-gamma * squared)
        np.fill_diagonal(affinity, 0.0)
        degree = affinity.sum(axis=1)
        degree[degree <= 0] = 1e-12
        inv_sqrt_degree = 1.0 / np.sqrt(degree)
        normalised = affinity * inv_sqrt_degree[:, None] * inv_sqrt_degree[None, :]

        # Leading eigenvectors of the normalised affinity == smallest of the
        # normalised Laplacian I - D^-1/2 W D^-1/2.
        _, vectors = eigh(
            normalised,
            subset_by_index=[n_samples - self.n_clusters, n_samples - 1],
        )
        return vectors[:, ::-1]

    # ------------------------------------------------------------ sparse path
    def _knn_graph(self, data: np.ndarray, n_samples: int):
        """Chunked k-NN sweep: per-row neighbour indices and squared
        distances without materialising the full ``n x n`` matrix."""
        k = min(self.n_neighbors, n_samples - 1)
        neighbor_idx = np.empty((n_samples, k), dtype=np.int64)
        neighbor_sq = np.empty((n_samples, k), dtype=float)
        for start in range(0, n_samples, self.chunk_size):
            chunk = data[start : start + self.chunk_size]
            squared = pairwise_squared_distances(chunk, data)
            rows = np.arange(chunk.shape[0])
            # Exclude the self-distance before the partial sort.
            squared[rows, start + rows] = np.inf
            idx = np.argpartition(squared, k - 1, axis=1)[:, :k]
            sq = np.take_along_axis(squared, idx, axis=1)
            order = np.argsort(sq, axis=1, kind="stable")
            neighbor_idx[start : start + chunk.shape[0]] = np.take_along_axis(
                idx, order, axis=1
            )
            neighbor_sq[start : start + chunk.shape[0]] = np.take_along_axis(
                sq, order, axis=1
            )
        return neighbor_idx, neighbor_sq

    def _sparse_embedding(self, data: np.ndarray, n_samples: int) -> np.ndarray:
        from scipy.sparse import coo_matrix, identity
        from scipy.sparse.linalg import ArpackNoConvergence, eigsh

        neighbor_idx, neighbor_sq = self._knn_graph(data, n_samples)
        if self.gamma is None:
            positive = neighbor_sq[neighbor_sq > 0]
            median = float(np.median(positive)) if positive.size else 0.0
            gamma = 1.0 / median if median > 0 else 1.0
        else:
            gamma = self.gamma
        self.gamma_ = gamma

        k = neighbor_idx.shape[1]
        rows = np.repeat(np.arange(n_samples), k)
        cols = neighbor_idx.ravel()
        values = np.exp(-gamma * neighbor_sq.ravel())
        affinity = coo_matrix(
            (values, (rows, cols)), shape=(n_samples, n_samples)
        ).tocsr()
        # Symmetrise with the elementwise maximum so that an edge found in
        # either direction survives with its full weight.
        transpose = affinity.T.tocsr()
        affinity = affinity.maximum(transpose)

        degree = np.asarray(affinity.sum(axis=1)).ravel()
        degree[degree <= 0] = 1e-12
        inv_sqrt_degree = 1.0 / np.sqrt(degree)
        normalised = affinity.multiply(inv_sqrt_degree[:, None]).multiply(
            inv_sqrt_degree[None, :]
        ).tocsr()

        # Smallest eigenvectors of the normalised Laplacian I - N via
        # shift-invert Lanczos.  The small negative shift keeps the
        # factorised operator non-singular (a disconnected k-NN graph has one
        # exactly-zero eigenvalue per component) and maps the tightly
        # clustered small eigenvalues to well-separated large ones.  The
        # explicit tolerance matters: ARPACK's machine-precision default
        # cannot certify the degenerate zero eigenvalues of a disconnected
        # graph and spins to its iteration cap.  A fixed start vector keeps
        # the iteration deterministic.
        laplacian = (identity(n_samples, format="csr") - normalised).tocsc()
        v0 = np.full(n_samples, 1.0 / np.sqrt(n_samples))
        try:
            _, vectors = eigsh(
                laplacian,
                k=self.n_clusters,
                sigma=-1e-3,
                which="LM",
                v0=v0,
                tol=1e-6,
            )
        except ArpackNoConvergence:
            return self._dense_embedding(np.asarray(data), n_samples)
        # eigsh returns ascending Laplacian eigenvalues; column 0 is already
        # the leading (largest-affinity-eigenvalue) direction.
        return vectors
