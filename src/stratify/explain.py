"""Feature attribution: split-gain importance and exact Shapley values.

The Shapley value function is interventional: v(S) is the model output averaged
over background rows whose features in S are overwritten with the explained
row's values. ``shap_bruteforce`` enumerates all 2^p subsets and works for any
scoring function (guarded at p <= 20). For additive tree ensembles ``shap_matrix``
computes the same quantity in closed form per (explained row, background row,
leaf): a leaf is reached under a coalition iff every path feature taken from x
satisfies its interval ("positive" literal) and every one taken from the
background row does too ("negative" literal), and the Shapley value of such a
conjunction game has a factorial closed form (the interventional tree game of
Lundberg et al., Nature Machine Intelligence 2020). Each leaf is evaluated once
for all explained rows; ``shap_tree_fast`` is the one-row case. Both walks, to
the split gains and to the leaves, read the flat node arrays of
``trees.Tree`` by index, so tree depth sets no limit. Every explained
row must satisfy efficiency: base + sum(phi) equals the ensemble's own output at
that row. Tree ensembles are explained on their additive scale (margin for
boosting), so positive values push toward certification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classifiers import TrainedModel
from .classifiers.trees import Tree, TreeEnsemble, tree_predict
from .errors import ExplainError

EFFICIENCY_TOL = 1e-9


@dataclass(frozen=True)
class ImportanceRanking:
    """Per-feature share of total split gain, descending rank order."""

    scores: np.ndarray
    order: np.ndarray
    feature_names: tuple[str, ...] | None = None

    def to_rows(self):
        names = self.feature_names or tuple(f"f{j}" for j in range(len(self.scores)))
        return [(names[j], float(self.scores[j]), rank + 1)
                for rank, j in enumerate(self.order)]


@dataclass(frozen=True)
class ShapMatrix:
    """Attributions phi (n x p), shared base value, and the explained feature values."""

    values: np.ndarray
    base: float
    feature_values: np.ndarray
    feature_names: tuple[str, ...] | None = None


def _tree_state(model):
    if isinstance(model, TrainedModel):
        state = model.state
    else:
        state = model
    if not isinstance(state, TreeEnsemble):
        raise ExplainError("tree-based attribution needs a DT, RF or GBT model")
    return state


def split_gain_importance(model, feature_names=None) -> ImportanceRanking:
    """Sum each feature's split gain over every node of the ensemble, normalized to 1.

    Gains are added tree by tree in node order (``bincount`` adds in array order).
    """
    state = _tree_state(model)
    p = state.n_features
    # the leading empty arrays cover a GBT forest emptied by an early stop
    feature = np.concatenate([np.empty(0, np.int64), *(t.feature for t in state.forest)])
    gain = np.concatenate([np.empty(0), *(t.gain for t in state.forest)])
    split = feature >= 0
    scores = np.bincount(feature[split], weights=gain[split], minlength=p)
    total = scores.sum()
    if total > 0:
        scores = scores / total
    order = np.lexsort((np.arange(p), -scores))
    return ImportanceRanking(scores, order, tuple(feature_names) if feature_names else None)


# ---------------------------------------------------------------------------
# exact Shapley, any model
# ---------------------------------------------------------------------------

def shap_bruteforce(predict_fn, x, background, max_features_guard: int = 20):
    """Exact Shapley attribution of predict_fn at x against a background sample.

    phi_i = sum over S not containing i of |S|!(p-|S|-1)!/p! * (v(S+i) - v(S)),
    v(S) = mean over background rows of predict_fn with S taken from x.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    B = np.asarray(background, dtype=np.float64)
    if B.ndim != 2 or B.shape[0] == 0:
        raise ExplainError("background must be a nonempty matrix")
    p = len(x)
    if B.shape[1] != p:
        raise ExplainError("background and x must share the feature dimension")
    if p > max_features_guard:
        raise ExplainError(f"{p} features exceed the exact-enumeration guard "
                           f"({max_features_guard}); raise it explicitly if you mean it")

    v = np.empty(1 << p)
    for mask in range(1 << p):
        hybrid = B.copy()
        for i in range(p):
            if mask >> i & 1:
                hybrid[:, i] = x[i]
        v[mask] = float(np.mean(predict_fn(hybrid)))

    fact = [math.factorial(m) for m in range(p + 1)]
    weight = [fact[s] * fact[p - s - 1] / fact[p] for s in range(p)]
    phi = np.zeros(p)
    for mask in range(1 << p):
        s = bin(mask).count("1")
        for i in range(p):
            if not mask >> i & 1:
                phi[i] += weight[s] * (v[mask | (1 << i)] - v[mask])
    base = float(v[0])
    _check_efficiency(phi, base, float(np.mean(predict_fn(x[None, :]))))
    return phi, base


def _check_efficiency(phi, base, fx):
    """base + sum(phi) must equal the model output fx, row by row (phi may be 1-D)."""
    fx = np.atleast_1d(fx)
    err = np.abs(base + np.atleast_2d(phi).sum(axis=1) - fx)
    bad = np.flatnonzero(~(err <= EFFICIENCY_TOL * np.maximum(1.0, np.abs(fx))))
    if len(bad):
        raise ExplainError(f"efficiency axiom violated by {err[bad].max():.3e} "
                           f"on explained row {bad[0]}")


# ---------------------------------------------------------------------------
# exact Shapley, tree ensembles
# ---------------------------------------------------------------------------

def _leaf_paths(tree: Tree):
    """Return (value, {feature: (lo, hi]}) for every leaf with a nonempty box."""
    feature, threshold, left, right, value = (
        a.tolist() for a in (tree.feature, tree.threshold, tree.left, tree.right, tree.value))
    out = []
    stack = [(0, {})]
    while stack:
        node, box = stack.pop()
        j, t = feature[node], threshold[node]
        if j < 0:
            out.append((value[node], box))
            continue
        lo, hi = box.get(j, (-np.inf, np.inf))
        if t > lo:  # left interval (lo, min(hi, t)] is nonempty
            left_box = dict(box)
            left_box[j] = (lo, min(hi, t))
            stack.append((left[node], left_box))
        if t < hi:  # right interval (max(lo, t), hi] is nonempty
            right_box = dict(box)
            right_box[j] = (max(lo, t), hi)
            stack.append((right[node], right_box))
    return out


def shap_tree_fast(model, x, background):
    """Interventional Shapley for additive tree ensembles, exact and polynomial.

    For one (background row b, leaf) pair, v restricted to the leaf's used
    features U is w * [P subset of S] * [S disjoint from N] with
    P = {j in U: x passes, b fails} and N = {j: b passes, x fails}; features
    passing for both contribute a constant, a feature failing for both kills
    the leaf. The Shapley values of that conjunction are
    phi_j = w * (q-1)! r! / (q+r)!  for j in P, and
    phi_j = -w * q! (r-1)! / (q+r)! for j in N  (q = |P|, r = |N|).
    This is ``shap_matrix`` for one row.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    phi, base = _shap_tree_rows(_tree_state(model), x[None, :], background)
    return phi[0], base


def _conjunction_tables(p_max: int):
    # pos_tab[q, r] = (q-1)! r! / (q+r)!   (q >= 1)
    # neg_tab[q, r] = q! (r-1)! / (q+r)!   (r >= 1)
    fact = np.array([math.factorial(m) for m in range(2 * p_max + 2)], dtype=np.float64)
    q = np.arange(p_max + 1)[:, None]
    r = np.arange(p_max + 1)[None, :]
    denom = fact[q + r]
    pos_tab = fact[np.maximum(q - 1, 0)] * fact[r] / denom
    neg_tab = fact[q] * fact[np.maximum(r - 1, 0)] / denom
    return pos_tab, neg_tab


def _shap_tree_rows(state, X, B):
    """Shapley values of every row of X (m x p) and the shared base value.

    Each leaf is evaluated once for all m rows: P, N and the dead pairs are
    m x n_b x |U| boolean arrays over (explained row, background row, feature).
    """
    B = np.asarray(B, dtype=np.float64)
    if B.ndim != 2 or B.shape[0] == 0:
        raise ExplainError("background must be a nonempty matrix")
    p = state.n_features
    if X.shape[1] != p or B.shape[1] != p:
        raise ExplainError("feature dimension mismatch")
    nb = B.shape[0]
    pos_tab, neg_tab = _conjunction_tables(p)
    phi = np.zeros(X.shape)
    base = 0.0
    weight = state.tree_weight

    for tree in state.forest:
        for value, box in _leaf_paths(tree):
            if not box:  # leaf-only tree: constant contribution
                base += weight * value
                continue
            feats = list(box.keys())
            lo = np.array([box[j][0] for j in feats])
            hi = np.array([box[j][1] for j in feats])
            xf, bf = X[:, feats], B[:, feats]
            x_pass = ((xf > lo) & (xf <= hi))[:, None, :]
            b_pass = ((bf > lo) & (bf <= hi))[None, :, :]
            # the background rows that reach the leaf under the empty coalition
            base += weight * value * float(b_pass.all(axis=2).sum()) / nb
            # a pair where some feature fails for both x and b never reaches the leaf
            alive = ~(~x_pass & ~b_pass).any(axis=2)
            pos = x_pass & ~b_pass & alive[:, :, None]  # P per (row, background row)
            neg = ~x_pass & b_pass & alive[:, :, None]  # N per (row, background row)
            q = pos.sum(axis=2)
            r = neg.sum(axis=2)
            scale = weight * value / nb
            phi[:, feats] += (np.einsum("mb,mbu->mu", scale * pos_tab[q, r], pos)
                              - np.einsum("mb,mbu->mu", scale * neg_tab[q, r], neg))

    fx = weight * np.sum([tree_predict(t, X) for t in state.forest], axis=0)
    _check_efficiency(phi, base, fx)
    return phi, float(base)


def shap_matrix(model, X, background, feature_names=None) -> ShapMatrix:
    """Explain every row of X with the closed-form tree path, all rows at once."""
    X = np.asarray(X, dtype=np.float64)
    phi, base = _shap_tree_rows(_tree_state(model), X, background)
    return ShapMatrix(phi, base, X.copy(), tuple(feature_names) if feature_names else None)


def beeswarm_export(matrix: ShapMatrix):
    """Long-format rows (feature, sample, shap, value, value percentile), ordered by
    mean |shap| per feature descending; percentile is the midrank ECDF in [0, 1]."""
    n, p = matrix.values.shape
    names = matrix.feature_names or tuple(f"f{j}" for j in range(p))
    mean_abs = np.abs(matrix.values).mean(axis=0)
    feat_order = np.lexsort((np.arange(p), -mean_abs))
    out = []
    for j in feat_order:
        col = matrix.feature_values[:, j]
        less = np.sum(col[None, :] < col[:, None], axis=1)
        equal = np.sum(col[None, :] == col[:, None], axis=1)
        pct = (less + 0.5 * equal) / n
        for i in range(n):
            out.append((names[j], i, float(matrix.values[i, j]), float(col[i]), float(pct[i])))
    return out
