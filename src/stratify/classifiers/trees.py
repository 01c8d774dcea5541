"""CART trees on the Gini criterion, plus the bagged forest built from them.

Leaf scores are positive-class fractions, so single trees and forests slot
straight into the shared predict-scores contract. Split search scans midpoints
of consecutive distinct sorted feature values and keeps the split with the
largest impurity decrease (first feature / lowest threshold on ties).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import TrainingError
from ..rng import derive_rng


@dataclass
class TreeNode:
    """Internal node (feature, threshold, two children) or leaf (value)."""

    feature: int | None = None
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: float = 0.0
    n_samples: int = 0
    gain: float = 0.0  # objective gain of the split, used for importance

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    def validate(self):
        if self.is_leaf:
            return
        if not np.isfinite(self.threshold):
            raise TrainingError("split thresholds must be finite")
        if self.left is None or self.right is None:
            raise TrainingError("internal nodes need both children")
        self.left.validate()
        self.right.validate()

    def to_dict(self) -> dict:
        if self.is_leaf:
            return {"value": self.value, "n": self.n_samples}
        return {"feature": self.feature, "threshold": self.threshold,
                "gain": self.gain, "n": self.n_samples,
                "left": self.left.to_dict(), "right": self.right.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "TreeNode":
        if "feature" not in d:
            return cls(value=d["value"], n_samples=d["n"])
        return cls(feature=d["feature"], threshold=d["threshold"], gain=d["gain"],
                   n_samples=d["n"],
                   left=cls.from_dict(d["left"]), right=cls.from_dict(d["right"]))


def gini_impurity(counts) -> float:
    """1 - p0^2 - p1^2 for a binary class-count pair; 0 means pure."""
    c0, c1 = counts
    if c0 < 0 or c1 < 0:
        raise TrainingError("class counts must be nonnegative")
    total = c0 + c1
    if total == 0:
        raise TrainingError("gini undefined for an empty node")
    p0, p1 = c0 / total, c1 / total
    return 1.0 - p0 * p0 - p1 * p1


def best_split(X, y, feature_ids, min_leaf: int = 1):
    """Best (feature, threshold, impurity decrease) over candidate features.

    Thresholds are midpoints between consecutive distinct sorted values; the
    decrease is parent Gini minus the size-weighted child Gini. Returns None
    when no candidate yields a positive decrease under the min_leaf constraint.
    """
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    n_pos = y.sum()
    parent = gini_impurity((n - n_pos, n_pos))
    best = None
    best_dec = 1e-12  # require strictly positive decrease
    for j in feature_ids:
        xs = X[:, j]
        order = np.argsort(xs, kind="stable")
        xv = xs[order]
        cum_pos = np.cumsum(y[order])
        left_n = np.arange(1, n)
        ok = (xv[:-1] < xv[1:]) & (left_n >= min_leaf) & (n - left_n >= min_leaf)
        if not ok.any():
            continue
        lp = cum_pos[:-1][ok]
        ln = left_n[ok].astype(np.float64)
        rp = n_pos - lp
        rn = n - ln
        gini_l = 1.0 - (lp / ln) ** 2 - ((ln - lp) / ln) ** 2
        gini_r = 1.0 - (rp / rn) ** 2 - ((rn - rp) / rn) ** 2
        dec = parent - (ln * gini_l + rn * gini_r) / n
        i = int(np.argmax(dec))
        if dec[i] > best_dec:
            best_dec = float(dec[i])
            pos = np.flatnonzero(ok)[i]
            thr = (xv[pos] + xv[pos + 1]) / 2.0
            best = (int(j), float(thr), best_dec)
    return best


def build_cart(X, y, max_depth=None, min_split: int = 2, min_leaf: int = 1,
               max_features=None, rng=None) -> TreeNode:
    """Grow a CART tree (iterative, so unconstrained depth cannot blow the stack)."""
    n, p = X.shape
    if max_features is None:
        n_feats = p
    elif max_features == "sqrt":
        n_feats = max(1, int(np.sqrt(p)))
    else:
        n_feats = max(1, min(int(max_features), p))
    root = TreeNode()
    stack = [(root, np.arange(n), 0)]
    while stack:
        node, idx, depth = stack.pop()
        ys = y[idx]
        node.n_samples = len(idx)
        node.value = float(ys.mean())
        pure = ys.min() == ys.max()
        if pure or len(idx) < min_split or (max_depth is not None and depth >= max_depth):
            continue
        if n_feats < p:
            feats = np.sort(rng.choice(p, n_feats, replace=False))
        else:
            feats = np.arange(p)
        found = best_split(X[idx], ys, feats, min_leaf)
        if found is None:
            continue
        j, thr, dec = found
        node.feature = j
        node.threshold = thr
        node.gain = dec * len(idx)  # total impurity reduction at this node
        mask = X[idx, j] <= thr
        node.left = TreeNode()
        node.right = TreeNode()
        stack.append((node.left, idx[mask], depth + 1))
        stack.append((node.right, idx[~mask], depth + 1))
    return root


def tree_predict(root: TreeNode, X) -> np.ndarray:
    out = np.empty(X.shape[0])
    stack = [(root, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if len(idx) == 0:
            continue
        if node.is_leaf:
            out[idx] = node.value
            continue
        mask = X[idx, node.feature] <= node.threshold
        stack.append((node.left, idx[mask]))
        stack.append((node.right, idx[~mask]))
    return out


# ---------------------------------------------------------------------------
# single decision tree
# ---------------------------------------------------------------------------

@dataclass
class DTParams:
    min_split: int = 2      # samples required to consider splitting a node
    min_leaf: int = 1       # samples required on each side of a split
    max_depth: int | None = None

    def __post_init__(self):
        if self.min_split < 1 or self.min_leaf < 1:
            raise TrainingError("tree size constraints must be >= 1")


@dataclass
class DTState:
    tree: TreeNode
    n_features: int

    @property
    def trees(self) -> list[TreeNode]:
        return [self.tree]

    @property
    def tree_weight(self) -> float:
        return 1.0

    @property
    def base_offset(self) -> float:
        return 0.0


def fit_dt(X, y, params: DTParams, seed: int):
    tree = build_cart(X, y, max_depth=params.max_depth, min_split=params.min_split,
                      min_leaf=params.min_leaf)
    tree.validate()
    return DTState(tree, X.shape[1]), {}


def predict_dt(state: DTState, X) -> np.ndarray:
    return tree_predict(state.tree, X)


# ---------------------------------------------------------------------------
# random forest
# ---------------------------------------------------------------------------

@dataclass
class RFParams:
    n_trees: int = 100
    max_depth: int | None = None
    min_leaf: int = 1
    min_split: int = 2
    bootstrap: bool = True
    feature_subsample: object = "sqrt"  # None disables per-node subsampling

    def __post_init__(self):
        if self.n_trees < 1:
            raise TrainingError("forest needs at least one tree")


@dataclass
class RFState:
    forest: list[TreeNode]
    n_features: int

    @property
    def trees(self) -> list[TreeNode]:
        return self.forest

    @property
    def tree_weight(self) -> float:
        return 1.0 / len(self.forest)

    @property
    def base_offset(self) -> float:
        return 0.0


def fit_rf(X, y, params: RFParams, seed: int):
    """Bagged CART trees; the forest score is the mean of the tree scores."""
    n = X.shape[0]
    forest = []
    for t in range(params.n_trees):
        rng = derive_rng(seed, "rf_tree", t)
        if params.bootstrap:
            rows = rng.integers(0, n, n)
            Xt, yt = X[rows], y[rows]
        else:
            Xt, yt = X, y
        tree = build_cart(Xt, yt, max_depth=params.max_depth, min_split=params.min_split,
                          min_leaf=params.min_leaf,
                          max_features=params.feature_subsample, rng=rng)
        tree.validate()
        forest.append(tree)
    return RFState(forest, X.shape[1]), {}


def predict_rf(state: RFState, X) -> np.ndarray:
    acc = np.zeros(X.shape[0])
    for tree in state.forest:
        acc += tree_predict(tree, X)
    return acc / len(state.forest)
