"""Second-order gradient boosting on the logistic loss with regularized trees.

Each round fits a depth-capped tree to the current gradient/hessian pair
(g = p - y, h = p(1-p)); leaves take the closed-form optimum -G/(H + lambda)
and splits maximize the standard regularized gain

    1/2 * (GL^2/(HL+lambda) + GR^2/(HR+lambda) - (GL+GR)^2/(HL+HR+lambda)) - gamma.

Split search is exact greedy over presorted feature columns (sorted index lists
are partitioned down the tree, so no per-node re-sorting). Leaf values are
stored pre-scaled by the learning rate; the ensemble margin is their sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import TrainingError
from .linear import log_loss_terms, sigmoid
from .trees import TreeNode, tree_predict


@dataclass
class GBTParams:
    max_depth: int = 5
    n_trees: int = 100
    max_iterations: int = 50   # hard cap on boosting rounds; min(n_trees, this) governs
    learning_rate: float = 0.3
    reg_lambda: float = 1.0
    reg_gamma: float = 0.0
    min_child_weight: float = 0.0
    min_leaf: int = 1

    def __post_init__(self):
        if self.max_depth < 1 or self.n_trees < 1 or self.max_iterations < 1:
            raise TrainingError("depth and round counts must be >= 1")
        if self.learning_rate <= 0 or self.reg_lambda < 0:
            raise TrainingError("learning rate must be > 0 and lambda >= 0")


@dataclass
class GBTState:
    forest: list[TreeNode]
    base_margin: float
    n_features: int

    @property
    def trees(self) -> list[TreeNode]:
        return self.forest

    @property
    def tree_weight(self) -> float:
        return 1.0

    @property
    def base_offset(self) -> float:
        return self.base_margin


def leaf_weight(G: float, H: float, lam: float) -> float:
    """Closed-form minimizer of G*w + 1/2*(H + lam)*w^2."""
    return -G / (H + lam)


def split_gain(GL, HL, GR, HR, lam, gamma):
    return 0.5 * (GL * GL / (HL + lam) + GR * GR / (HR + lam)
                  - (GL + GR) ** 2 / (HL + HR + lam)) - gamma


def _grow_tree(cols, g, h, orders, params: GBTParams):
    lam, gamma_, eta = params.reg_lambda, params.reg_gamma, params.learning_rate
    mcw, min_leaf = params.min_child_weight, params.min_leaf
    p, n = len(cols), len(g)
    in_left = np.zeros(n, dtype=bool)
    root = TreeNode()
    leaf_rows = []
    # a feature constant on a node stays constant below it, so its list is
    # dropped (None) there; feature 0's list is kept as the node's rows
    stack = [(root, list(orders), 0)]
    while stack:
        node, lists, depth = stack.pop()
        rows = lists[0]
        G, H = float(g[rows].sum()), float(h[rows].sum())
        m = len(rows)
        node.n_samples = m
        node.value = eta * (-G / max(H + lam, 1e-16))
        if depth >= params.max_depth or m < 2 * min_leaf or m < 2:
            leaf_rows.append((node, rows))
            continue
        # a split after sorted position i leaves i + 1 rows on the left; only
        # positions in [lo, hi) keep min_leaf rows on both sides
        lo, hi = max(min_leaf - 1, 0), min(m - min_leaf, m - 1)
        best = None
        best_gain = 1e-12
        for j in range(p):
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
            ok = (HL >= mcw) & (H - HL >= mcw)
            if not ok.all():
                cand, GL, HL = cand[ok], GL[ok], HL[ok]
                if not len(cand):
                    continue
            gains = split_gain(GL, HL, G - GL, H - HL, lam, gamma_)
            c = int(np.argmax(gains))
            if gains[c] > best_gain:
                best_gain = float(gains[c])
                best = (j, int(cand[c]))
        if best is None:
            leaf_rows.append((node, rows))
            continue
        j, i = best
        sid = lists[j]
        node.feature = j
        node.threshold = float((cols[j][sid[i]] + cols[j][sid[i + 1]]) / 2.0)
        node.gain = best_gain
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
        node.left, node.right = TreeNode(), TreeNode()
        stack.append((node.left, left_lists, depth + 1))
        stack.append((node.right, right_lists, depth + 1))
    return root, leaf_rows


def fit_gbt(X, y, params: GBTParams, seed: int):
    n, p = X.shape
    y = np.asarray(y, dtype=np.float64)
    rounds = min(params.n_trees, params.max_iterations)
    cols = [np.ascontiguousarray(X[:, j]) for j in range(p)]
    orders = [np.argsort(col, kind="stable") for col in cols]
    margin = np.full(n, 0.0)
    curve = [float(log_loss_terms(margin, y).mean())]
    forest = []
    for _ in range(rounds):
        prob = sigmoid(margin)
        g = prob - y
        h = prob * (1.0 - prob)
        tree, leaf_rows = _grow_tree(cols, g, h, orders, params)
        tree.validate()
        if all(lr_node.value == 0.0 for lr_node, _ in leaf_rows):
            break  # nothing left to fit
        for leaf, rows in leaf_rows:
            margin[rows] += leaf.value
        forest.append(tree)
        loss = float(log_loss_terms(margin, y).mean())
        # second-order steps with a small learning rate never increase the loss
        bound = curve[-1] + 1e-9 * max(1.0, abs(curve[-1]))
        if params.learning_rate <= 0.3 and not loss <= bound:  # NaN fails too
            raise TrainingError(f"boosting loss increased from {curve[-1]!r} to {loss!r}")
        curve.append(loss)
    state = GBTState(forest, 0.0, p)
    meta = {"n_iter": len(forest), "final_loss": curve[-1], "loss_curve": curve}
    return state, meta


def gbt_margin(state: GBTState, X) -> np.ndarray:
    out = np.full(X.shape[0], state.base_margin)
    for tree in state.forest:
        out += tree_predict(tree, X)
    return out


def predict_gbt(state: GBTState, X) -> np.ndarray:
    return sigmoid(gbt_margin(state, X))
