"""Squared distances, exact k-nearest-neighbor search and brute-force KNN scoring.

``sq_dists`` is the package's one squared Euclidean distance (stage 1, SMOTE,
KNN and SVC). Products above ``BLAS_ROWS`` rows run in ``np.einsum``, numpy's
single-threaded loop, so no bit depends on the BLAS thread count and exact
duplicate rows get equal distances wherever they sit.

``knn_indices`` is the one neighbor search of the package: KNN scoring and
SMOTE (``resampling.smote``) both call it. It walks the query rows in blocks of
at most ``BLOCK_ROWS`` rows and ``BLOCK_CELLS`` distances, so its memory is
linear in the number of rows; each block keeps the first k columns of a
stable ``argsort``. The neighbor order is exact: (squared distance, index), so
equidistant rows, exact duplicates among them, resolve toward the lower index.

The stored training set is the KNN model. At 10-ish features and up to ~1e5
rows the blocked dense search is cheap, so there is no search tree to tune.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class KNNParams:
    n_neighbors: int = field(default=5, metadata={"ge": 1})


@dataclass
class KNNState:
    X: np.ndarray
    y: np.ndarray
    k: int

    @property
    def n_features(self) -> int:
        return self.X.shape[1]


def fit_knn(X, y, params: KNNParams, seed: int):
    k = min(params.n_neighbors, X.shape[0])
    return KNNState(X.copy(), y.copy(), k), {}


def predict_knn(state: KNNState, X) -> np.ndarray:
    """Score = fraction of positive neighbors among the k nearest.

    Neighbor order is (distance, training index), so equidistant points resolve
    deterministically. An exactly split vote is nudged by 1e-9 toward the
    single nearest neighbor's label so strict 0.5-thresholding follows it.
    """
    votes = state.y[knn_indices(X, state.X, state.k)]
    frac = votes.mean(axis=1)
    tie = frac == 0.5
    if tie.any():
        nearest = votes[:, 0]
        frac = np.where(tie, 0.5 + (2.0 * nearest - 1.0) * 1e-9, frac)
    return frac


# An A side of at most BLAS_ROWS rows (Lloyd's centroids, k-means++'s one row,
# Davies-Bouldin's K x K) stays on BLAS: such products kept their bits at 1 and 2
# OpenBLAS threads, and einsum, 3-10x slower there, cost edx-study ~11% of wall time.
BLAS_ROWS = 16


def sq_dists(A, B, aa=None, bb=None) -> np.ndarray:
    """Squared Euclidean distances, len(A) x len(B): -2 a.b, + ||b||^2, + ||a||^2 in
    place, clipped at 0. ``aa``/``bb`` are the row norms, if the caller has them."""
    d2 = A @ B.T if len(A) <= BLAS_ROWS else np.einsum("ik,jk->ij", A, B)
    d2 *= -2.0
    d2 += ((B * B).sum(1) if bb is None else bb)[None, :]
    d2 += ((A * A).sum(1) if aa is None else aa)[:, None]
    return np.maximum(d2, 0.0, out=d2)


# a block of query rows holds at most BLOCK_ROWS rows and BLOCK_CELLS distances
# (32 MiB of float64); training sets up to 8,192 rows get full 512-row blocks
BLOCK_ROWS = 512
BLOCK_CELLS = 2 ** 22


def knn_indices(Q, X, k: int, exclude_self: bool = False) -> np.ndarray:
    """Indices into X of the k nearest rows to each row of Q, nearest first.

    Neighbors of each query row are ordered by (``sq_dists``, index). With
    ``exclude_self`` Q must be X itself and no row is its own neighbor. Needs
    1 <= k <= len(X).
    """
    n = X.shape[0]
    block = max(1, min(BLOCK_ROWS, BLOCK_CELLS // n))
    xx = (X * X).sum(1)
    out = np.empty((Q.shape[0], k), dtype=np.int64)
    for start in range(0, Q.shape[0], block):
        stop = min(start + block, Q.shape[0])
        d2 = sq_dists(Q[start:stop], X, bb=xx)
        if exclude_self:
            d2[np.arange(stop - start), np.arange(start, stop)] = np.inf
        out[start:stop] = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return out
