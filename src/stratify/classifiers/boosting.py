"""Second-order gradient boosting on the logistic loss with regularized trees.

Each round fits a depth-capped tree to the current gradient/hessian pair
(g = p - y, h = p(1-p)); leaves take the closed-form optimum -G/(H + lambda)
of ``leaf_weight`` and splits maximize the standard regularized gain

    1/2 * (GL^2/(HL+lambda) + GR^2/(HR+lambda) - (GL+GR)^2/(HL+HR+lambda)) - gamma.

Trees come from the exact greedy grower shared with CART
(``trees.grow_tree``): presorted columns, candidate thresholds a <= thr < b
between consecutive distinct values, and the gain above scored from prefix
sums of g and h. The fit runs ``n_trees`` rounds from a zero margin, and stops
early when a round's tree has only zero leaves. Leaf values are stored
pre-scaled by the learning rate; the ensemble margin is their sum. Each
round's tree is a flat ``trees.Tree``, and the grower's leaf id per row
updates the training margin without a second pass through the tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import TrainingError
from .linear import log_loss_terms, sigmoid
from .trees import TreeEnsemble, grow_tree, presort, tree_predict


@dataclass
class GBTParams:
    max_depth: int = field(default=5, metadata={"ge": 1})
    n_trees: int = field(default=50, metadata={"ge": 1})  # boosting rounds
    learning_rate: float = field(default=0.3, metadata={"gt": 0})
    reg_lambda: float = field(default=1.0, metadata={"ge": 0})
    reg_gamma: float = field(default=0.0, metadata={"ge": 0})
    min_child_weight: float = field(default=0.0, metadata={"ge": 0})
    min_leaf: int = field(default=1, metadata={"ge": 1})


class GBTState(TreeEnsemble):
    """The boosted trees; the margin is the sum of their (pre-scaled) leaf values."""


def leaf_weight(G: float, H: float, lam: float) -> float:
    """Closed-form minimizer of G*w + 1/2*(H + lam)*w^2; H + lam is floored at 1e-16."""
    return -G / max(H + lam, 1e-16)


def split_gain(GL, HL, GR, HR, lam, gamma):
    return 0.5 * (GL * GL / (HL + lam) + GR * GR / (HR + lam)
                  - (GL + GR) ** 2 / (HL + HR + lam)) - gamma


def fit_gbt(X, y, params: GBTParams, seed: int):
    n, p = X.shape
    cols, orders = presort(X)
    lam, gamma_, eta = params.reg_lambda, params.reg_gamma, params.learning_rate

    def gain(GL, HL, G, H):
        return split_gain(GL, HL, G - GL, H - HL, lam, gamma_)

    def leaf_value(G, H):
        return eta * leaf_weight(G, H, lam)

    margin = np.zeros(n)
    curve = [float(log_loss_terms(margin, y).mean())]
    forest = []
    for _ in range(params.n_trees):
        prob = sigmoid(margin)
        g = prob - y
        h = prob * (1.0 - prob)
        tree, leaf_of = grow_tree(cols, orders, g, h, gain, leaf_value,
                                  max_depth=params.max_depth, min_leaf=params.min_leaf,
                                  min_child_weight=params.min_child_weight)
        if (tree.value[tree.feature < 0] == 0.0).all():
            break  # nothing left to fit
        margin += tree.value[leaf_of]
        forest.append(tree)
        loss = float(log_loss_terms(margin, y).mean())
        # second-order steps with a small learning rate never increase the loss
        bound = curve[-1] + 1e-9 * max(1.0, abs(curve[-1]))
        if params.learning_rate <= 0.3 and not loss <= bound:  # NaN fails too
            raise TrainingError(f"boosting loss increased from {curve[-1]!r} to {loss!r}")
        curve.append(loss)
    state = GBTState(forest, p)
    meta = {"n_iter": len(forest), "final_loss": curve[-1], "loss_curve": curve}
    return state, meta


def gbt_margin(state: GBTState, X) -> np.ndarray:
    out = np.zeros(X.shape[0])
    for tree in state.forest:
        out += tree_predict(tree, X)
    return out


def predict_gbt(state: GBTState, X) -> np.ndarray:
    return sigmoid(gbt_margin(state, X))
