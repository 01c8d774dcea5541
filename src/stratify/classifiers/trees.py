"""The one exact greedy tree grower, and the CART trees and forest built on it.

``grow_tree`` serves DT, RF and GBT (``boosting.py``). Each feature column is
argsorted once per fit (per bootstrap sample for RF), and the sorted index
lists are partitioned down the tree, so no node sorts again. A node's
candidate splits sit between consecutive distinct sorted values; each is
scored from prefix sums of per-row statistics g and h by the caller's gain
function, and the split with the largest gain wins (first feature / lowest
threshold on ties). The threshold between neighbours a < b is their midpoint,
or a where the midpoint rounds up to b, so a <= thr < b always holds and
``x <= thr`` sends every row to the side the search put it on.

CART uses g = y and h = 1: the gain is the Gini impurity decrease and a leaf
holds its positive-class fraction G/H, so single trees and forests slot
straight into the shared predict-scores contract.

Every tree is a ``Tree``: parallel node arrays, the root at index 0 and each
child after its parent. Growing appends to them, ``tree_predict`` routes all
rows one level per step, and importance, Shapley and the model file read
them by index, so nothing recurses and no tree is too deep to fit, save or
load. DT, RF and GBT states all hold a ``forest`` list of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from ..errors import TrainingError
from ..rng import derive_rng


@dataclass
class Tree:
    """One tree as parallel node arrays; node 0 is the root.

    Node i splits on ``feature[i]`` (-1 at a leaf): rows with
    ``x[feature] <= threshold[i]`` go to node ``left[i]``, the others to
    ``right[i]``. Every node holds its ``value``, its training row count ``n``
    and the ``gain`` of its split (0 at a leaf). The model file stores these
    arrays as flat lists, so no step depends on the tree's depth.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n: np.ndarray
    gain: np.ndarray

    def __post_init__(self):
        """Refuse a malformed tree; this runs on every grown and every loaded tree.

        Every internal node's children come after it and every node but the
        root is the child of exactly one node, so routing level by level ends
        within ``len(feature)`` steps.
        """
        for name in ("feature", "left", "right", "n"):
            setattr(self, name, np.asarray(getattr(self, name)))
        for name in ("threshold", "value", "gain"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        arrays = [getattr(self, f.name) for f in fields(self)]
        m = self.feature.size
        if m == 0 or any(a.shape != (m,) for a in arrays):
            raise TrainingError("malformed tree: node arrays must be 1-D, non-empty and "
                                "of one length")
        if any(a.dtype.kind != "i" for a in (self.feature, self.left, self.right, self.n)):
            raise TrainingError("malformed tree: feature, left, right and n must be integers")
        if (self.feature < -1).any():
            raise TrainingError("malformed tree: a leaf's feature must be -1")
        internal = np.flatnonzero(self.feature >= 0)
        children = np.concatenate([self.left[internal], self.right[internal]])
        if not np.array_equal(np.sort(children), np.arange(1, m)):
            raise TrainingError("malformed tree: every node but the root must be the child "
                                "of exactly one internal node")
        if (children <= np.tile(internal, 2)).any():
            raise TrainingError("malformed tree: a child must come after its parent")
        if not np.isfinite(self.threshold).all():
            raise TrainingError("malformed tree: split thresholds must be finite")


@dataclass
class TreeEnsemble:
    """DT, RF and GBT state: trees, each weighted ``tree_weight``, over ``n_features``
    columns; a split on any other column is refused, so a bad model file fails on load."""

    forest: list[Tree]
    n_features: int
    tree_weight = 1.0

    def __post_init__(self):
        top = max((int(t.feature.max()) for t in self.forest), default=-1)
        if top >= self.n_features:
            raise TrainingError(f"malformed tree: a split names feature {top}, but the model "
                                f"has {self.n_features} features")


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


def gini_decrease(GL, HL, G, H):
    """Parent Gini minus the size-weighted child Gini, with g = y and h = 1.

    G and H count the node's positives and rows; GL and HL those left of each
    candidate split.
    """
    parent = gini_impurity((H - G, G))
    GR, HR = G - GL, H - HL
    gini_l = 1.0 - (GL / HL) ** 2 - ((HL - GL) / HL) ** 2
    gini_r = 1.0 - (GR / HR) ** 2 - ((HR - GR) / HR) ** 2
    return parent - (HL * gini_l + HR * gini_r) / H


def presort(X):
    """Contiguous feature columns and their stable argsorts, made once per fit."""
    cols = [np.ascontiguousarray(X[:, j]) for j in range(X.shape[1])]
    return cols, [np.argsort(col, kind="stable") for col in cols]


def grow_tree(cols, orders, g, h, gain, leaf_value, max_depth=None, min_split: int = 2,
              min_leaf: int = 1, min_child_weight: float = 0.0, cart: bool = False,
              n_feats=None, rng=None):
    """Grow one tree by exact greedy search; returns (tree, leaf id of every row).

    ``cols``/``orders`` come from ``presort``. ``gain(GL, HL, G, H)`` scores the
    candidate splits of a node from the prefix sums of g and h left of each
    candidate and the node totals; ``leaf_value(G, H)`` is a node's value. A node
    stays a leaf at ``max_depth``, below ``min_split`` rows, or when no split
    with ``min_leaf`` rows and ``min_child_weight`` of h on each side gains
    more than 1e-12. With ``cart``, a pure node (constant g) is a leaf too and
    a split records its gain times the node's rows. With ``n_feats`` below the
    feature count, each node past the stop tests searches ``n_feats`` features
    drawn from ``rng``. Nodes are numbered in the order they are grown: root
    first, then each right subtree before its left one.
    """
    p = len(cols)
    in_left = np.zeros(len(g), dtype=bool)
    leaf_of = np.empty(len(g), dtype=np.int64)
    feature, threshold, left, right, value, count, node_gain = [], [], [], [], [], [], []
    # a feature constant on a node stays constant below it, so its list is
    # dropped (None) there; feature 0's list is kept as the node's rows. Each
    # entry also names the parent's child list that the node's id goes into.
    stack = [(list(orders), 0, None, 0)]
    while stack:
        lists, depth, children, parent = stack.pop()
        node = len(value)
        if children is not None:
            children[parent] = node
        rows = lists[0]
        m = len(rows)
        g_rows = g[rows]
        G, H = float(g_rows.sum()), float(h[rows].sum())
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(leaf_value(G, H))
        count.append(m)
        node_gain.append(0.0)
        if ((max_depth is not None and depth >= max_depth) or m < min_split
                or (cart and g_rows.min() == g_rows.max())):
            leaf_of[rows] = node
            continue
        if n_feats is not None and n_feats < p:
            feats = np.sort(rng.choice(p, n_feats, replace=False))
        else:
            feats = range(p)
        # a split after sorted position i leaves i + 1 rows on the left; only
        # positions in [lo, hi) keep min_leaf rows on both sides
        lo, hi = max(min_leaf - 1, 0), min(m - min_leaf, m - 1)
        if lo >= hi:
            feats = ()
        best = None
        best_gain = 1e-12  # require a strictly positive gain
        for j in feats:
            sid = lists[j]
            if sid is None:
                continue
            xv = cols[j][sid]
            if j and xv[0] == xv[-1]:
                lists[j] = None
                continue
            # candidates sit between distinct values only
            cand = np.flatnonzero(xv[lo:hi] < xv[lo + 1:hi + 1]) + lo
            if not len(cand):
                continue
            GL = np.cumsum(g[sid[:hi]])[cand]
            HL = np.cumsum(h[sid[:hi]])[cand]
            ok = (HL >= min_child_weight) & (H - HL >= min_child_weight)
            if not ok.all():
                cand, GL, HL = cand[ok], GL[ok], HL[ok]
                if not len(cand):
                    continue
            gains = gain(GL, HL, G, H)
            c = int(np.argmax(gains))
            if gains[c] > best_gain:
                best_gain = float(gains[c])
                best = (int(j), int(cand[c]))
        if best is None:
            leaf_of[rows] = node
            continue
        j, i = best
        sid = lists[j]
        a, b = cols[j][sid[i]], cols[j][sid[i + 1]]
        thr = (a + b) / 2.0
        feature[node] = j
        # the midpoint of adjacent floats can round up to b; a <= thr < b keeps
        # `x <= thr` (tree_predict) routing every row to the side searched here
        threshold[node] = float(thr if thr < b else a)
        node_gain[node] = best_gain * m if cart else best_gain
        in_left[sid[:i + 1]] = True
        left_lists, right_lists = [], []
        for lst in lists:
            if lst is None:
                left_lists.append(None)
                right_lists.append(None)
                continue
            goes_left = in_left[lst]
            left_lists.append(lst[goes_left])
            right_lists.append(lst[~goes_left])
        in_left[sid[:i + 1]] = False
        stack.append((left_lists, depth + 1, left, node))
        stack.append((right_lists, depth + 1, right, node))
    return Tree(feature, threshold, left, right, value, count, node_gain), leaf_of


def _cart_tree(X, y, params, n_feats=None, rng=None) -> Tree:
    # g = y and h = 1, so G/H is the positive-class fraction
    cols, orders = presort(X)
    return grow_tree(cols, orders, y, np.ones(len(y)), gini_decrease,
                     lambda G, H: G / H, max_depth=params.max_depth,
                     min_split=params.min_split, min_leaf=params.min_leaf, cart=True,
                     n_feats=n_feats, rng=rng)[0]


def tree_predict(tree: Tree, X) -> np.ndarray:
    """Route all rows from the root down, one tree level per step.

    A leaf routes to itself, so a row that has reached one stays there while
    the others go on; each step moves every other row to a later node.
    """
    leaf = tree.feature < 0
    ids = np.arange(len(leaf))
    feature = np.where(leaf, 0, tree.feature)
    left, right = np.where(leaf, ids, tree.left), np.where(leaf, ids, tree.right)
    rows = np.arange(X.shape[0])
    node = np.zeros(X.shape[0], dtype=np.int64)
    while not leaf[node].all():
        node = np.where(X[rows, feature[node]] <= tree.threshold[node], left[node], right[node])
    return tree.value[node]


# ---------------------------------------------------------------------------
# single decision tree
# ---------------------------------------------------------------------------

@dataclass
class DTParams:
    min_split: int = field(default=2, metadata={"ge": 1})  # rows needed to split a node
    min_leaf: int = field(default=1, metadata={"ge": 1})  # rows needed on each side of a split
    max_depth: int | None = field(default=None, metadata={"ge": 1})


class DTState(TreeEnsemble):
    """The one tree of a decision tree."""


def fit_dt(X, y, params: DTParams, seed: int):
    return DTState([_cart_tree(X, y, params)], X.shape[1]), {}


def predict_dt(state: DTState, X) -> np.ndarray:
    return tree_predict(state.forest[0], X)


# ---------------------------------------------------------------------------
# random forest
# ---------------------------------------------------------------------------

@dataclass
class RFParams:
    n_trees: int = field(default=100, metadata={"ge": 1})
    max_depth: int | None = field(default=None, metadata={"ge": 1})
    min_leaf: int = field(default=1, metadata={"ge": 1})
    min_split: int = field(default=2, metadata={"ge": 1})
    bootstrap: bool = True
    # features drawn per node; None disables per-node subsampling
    feature_subsample: int | str | None = field(default="sqrt",
                                                metadata={"ge": 1, "choices": ("sqrt",)})


class RFState(TreeEnsemble):
    """Bagged trees; the forest score is their mean."""

    @property
    def tree_weight(self) -> float:
        return 1.0 / len(self.forest)


def fit_rf(X, y, params: RFParams, seed: int):
    """Bagged CART trees; the forest score is the mean of the tree scores."""
    n, p = X.shape
    if params.feature_subsample is None:
        n_feats = p
    elif params.feature_subsample == "sqrt":
        n_feats = max(1, int(np.sqrt(p)))
    else:
        n_feats = min(params.feature_subsample, p)
    forest = []
    for t in range(params.n_trees):
        rng = derive_rng(seed, "rf_tree", t)
        rows = rng.integers(0, n, n) if params.bootstrap else np.arange(n)
        forest.append(_cart_tree(X[rows], y[rows], params, n_feats, rng))
    return RFState(forest, p), {}


def predict_rf(state: RFState, X) -> np.ndarray:
    acc = np.zeros(X.shape[0])
    for tree in state.forest:
        acc += tree_predict(tree, X)
    return acc / len(state.forest)
