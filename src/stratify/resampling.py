"""SMOTE oversampling of the minority class in a training partition.

Synthetic rows are drawn on the segment between a real minority row and one of
its k nearest minority neighbors: x_new = x + u * (x_nn - x), u ~ U[0, 1).
Generation provenance (parent index, neighbor index, u) is kept so every
synthetic row can be reconstructed exactly. Applies to training data only;
never hand it a test partition.

The neighbor lists come from ``classifiers.neighbors.knn_indices``, which
works through the minority rows in blocks, so memory grows linearly with the
minority count. Neighbors are ordered by (squared distance, row index): an
equidistant tie goes to the lower minority row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifiers.neighbors import knn_indices
from .errors import ResamplingError
from .rng import derive_rng


@dataclass(frozen=True)
class ResampledTrainingSet:
    """Original rows first (verbatim), synthetic minority rows appended."""

    X: np.ndarray
    y: np.ndarray
    synthetic: np.ndarray          # bool flag per row
    parent_idx: np.ndarray         # row index into X of each synthetic row's parent
    neighbor_idx: np.ndarray       # row index into X of the interpolation partner
    interpolation: np.ndarray      # u drawn per synthetic row
    duplication_fallback: bool = False

    @property
    def n_synthetic(self) -> int:
        return int(self.synthetic.sum())


def smote(X, y, k_neighbors: int = 5, target_ratio: float = 1.0,
          seed: int = 0) -> ResampledTrainingSet:
    """Oversample the minority class until minority/majority == target_ratio.

    k is capped at minority_count - 1. A single-row minority class falls back
    to duplication (flagged); single-class input is an error. Deterministic
    per seed.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2 or len(y) != X.shape[0]:
        raise ResamplingError("features and labels must align")
    if target_ratio <= 0:
        raise ResamplingError("target_ratio must be positive")
    classes, counts = np.unique(y, return_counts=True)
    if len(classes) != 2:
        raise ResamplingError("smote requires exactly two classes present")
    minority_label = classes[int(np.argmin(counts))]
    n_min, n_maj = int(counts.min()), int(counts.max())
    # rounding toward balance: a fractional target rounds up
    n_target = int(np.ceil(target_ratio * n_maj - 1e-12))
    n_new = max(0, n_target - n_min)

    empty = np.array([], dtype=np.int64)
    if n_new == 0:
        return ResampledTrainingSet(X.copy(), y.copy(), np.zeros(len(y), bool),
                                    empty, empty, np.array([]))

    rng = derive_rng(seed, "smote")
    min_rows = np.flatnonzero(y == minority_label)

    if n_min == 1:
        parent = np.full(n_new, min_rows[0], dtype=np.int64)
        u = np.zeros(n_new)
        X_new = np.repeat(X[min_rows], n_new, axis=0)
        return _assemble(X, y, X_new, minority_label, parent, parent, u, fallback=True)

    k = min(k_neighbors, n_min - 1)
    Xm = X[min_rows]
    neighbors = knn_indices(Xm, Xm, k, exclude_self=True)

    parent_local = rng.integers(0, n_min, n_new)
    pick = rng.integers(0, k, n_new)
    neighbor_local = neighbors[parent_local, pick]
    u = rng.random(n_new)
    parent = min_rows[parent_local]
    neighbor = min_rows[neighbor_local]
    X_new = X[parent] + u[:, None] * (X[neighbor] - X[parent])
    return _assemble(X, y, X_new, minority_label, parent, neighbor, u, fallback=False)


def _assemble(X, y, X_new, minority_label, parent, neighbor, u, fallback):
    n_new = len(X_new)
    X_out = np.vstack([X, X_new])
    y_out = np.concatenate([y, np.full(n_new, minority_label, dtype=y.dtype)])
    synth = np.concatenate([np.zeros(len(y), bool), np.ones(n_new, bool)])
    return ResampledTrainingSet(X_out, y_out, synth, parent, neighbor, u,
                                duplication_fallback=fallback)
