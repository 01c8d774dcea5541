"""Brute-force K-nearest-neighbor scoring.

The stored training set is the model. At 10-ish features and up to ~1e5 rows a
chunked dense distance computation is cheap, so the tree-search tuning knob
(`leaf_size`) is accepted for config compatibility and ignored.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ..errors import TrainingError

log = logging.getLogger(__name__)


@dataclass
class KNNParams:
    n_neighbors: int = 5
    leaf_size: int = 30  # accepted and ignored: neighbor search is brute force

    def __post_init__(self):
        if self.n_neighbors < 1:
            raise TrainingError("need at least one neighbor")


@dataclass
class KNNState:
    X: np.ndarray
    y: np.ndarray
    k: int

    @property
    def n_features(self) -> int:
        return self.X.shape[1]


def fit_knn(X, y, params: KNNParams, seed: int):
    if params.leaf_size != 30:
        log.info("leaf_size=%d accepted but ignored (brute-force neighbor search)",
                 params.leaf_size)
    k = min(params.n_neighbors, X.shape[0])
    return KNNState(X.copy(), y.copy(), k), {}


def predict_knn(state: KNNState, X, chunk: int = 512) -> np.ndarray:
    """Score = fraction of positive neighbors among the k nearest.

    Neighbor order is (distance, training index), so equidistant points resolve
    deterministically. An exactly split vote is nudged by 1e-9 toward the
    single nearest neighbor's label so strict 0.5-thresholding follows it.
    """
    k = state.k
    n_train = state.X.shape[0]
    sq_train = (state.X * state.X).sum(1)
    out = np.empty(X.shape[0])
    for start in range(0, X.shape[0], chunk):
        Q = X[start:start + chunk]
        d2 = (Q * Q).sum(1)[:, None] - 2.0 * (Q @ state.X.T) + sq_train[None, :]
        order = np.argsort(d2, axis=1, kind="stable")[:, :k]
        votes = state.y[order]
        frac = votes.mean(axis=1)
        tie = frac == 0.5
        if tie.any():
            nearest = votes[:, 0]
            frac = np.where(tie, 0.5 + (2.0 * nearest - 1.0) * 1e-9, frac)
        out[start:start + chunk] = frac
    return out
