"""RBF-kernel support vector classifier solved by SMO with second-order working-set
selection (Fan, Chen & Lin, JMLR 2005), the solver of LIBSVM (Chang & Lin, 2011).

The dual is  min 1/2 a'Qa - e'a  subject to 0 <= a <= C and y'a = 0, with
Q_ij = y_i y_j K_ij. The solver keeps v = -y * G up to date, where G = Qa - e is
the dual gradient. Each iteration takes i = argmax v over I_up (the multipliers
that may move up along y) and j over I_low by the largest second-order decrease
b^2 / a, with b = v_i - v_j > 0 and a = 2 - 2 K_ij floored at ``TAU``. The pair
then takes the closed-form step b / a, clipped to the box. The fit stops when the
maximal violating pair's gap m(a) - M(a) is at most ``tol`` (``converged``), or
after ``max_iter`` pair updates. The bias is the mean of v over free multipliers
(0 < a < C), or the midpoint (m + M) / 2 when none is free. The fit's meta counts
pair updates in ``n_iter`` and reports the dual objective as ``final_loss``.

Every kernel column is exp(-gamma * ``neighbors.sq_dists``), so it keeps its bits
at any BLAS thread count. Columns come from one least-recently-used cache of at
most ``CACHE_BYTES``; below about 2,900 rows it holds every column.

Probability-like scores squash the decision value through the logistic function:
monotone in the margin, so thresholding and ROC behave, but not calibrated.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .linear import sigmoid
from .neighbors import sq_dists

CACHE_BYTES = 64 << 20  # kernel columns kept between iterations
TAU = 1e-12  # floor of a pair's curvature 2 - 2 K_ij (duplicate rows give 0)


@dataclass
class SVCParams:
    C: float = field(default=5.0, metadata={"gt": 0})
    # "scale" => 1 / (p * var(X)); or a positive float
    gamma: float | str = field(default="scale", metadata={"gt": 0, "choices": ("scale",)})
    tol: float = field(default=1e-3, metadata={"ge": 0})  # maximal-violating-pair gap
    max_iter: int = field(default=100_000, metadata={"ge": 1})  # pair updates


@dataclass
class SVCState:
    support_X: np.ndarray
    dual_coef: np.ndarray  # alpha_i * y_i for support vectors
    bias: float
    gamma: float

    @property
    def n_features(self) -> int:
        return self.support_X.shape[1]


def _resolve_gamma(X, gamma):
    if gamma == "scale":
        var = float(X.var())
        return 1.0 / (X.shape[1] * var) if var > 0 else 1.0 / X.shape[1]
    return float(gamma)


class KernelColumns:
    """K[:, i] on demand; the least recently used column leaves first once the
    cache would pass ``CACHE_BYTES`` (it always keeps the two of a pair)."""

    def __init__(self, X, gamma: float):
        self.X, self.gamma = X, gamma
        self.sq = (X * X).sum(1)
        self.slots = max(2, CACHE_BYTES // (8 * len(X)))
        self.cols = OrderedDict()

    def __call__(self, i: int) -> np.ndarray:
        col = self.cols.get(i)
        if col is not None:
            self.cols.move_to_end(i)
            return col
        d2 = sq_dists(self.X, self.X[i:i + 1], self.sq, self.sq[i:i + 1])[:, 0]
        col = np.exp(-self.gamma * d2)
        if len(self.cols) == self.slots:
            self.cols.popitem(last=False)
        self.cols[i] = col
        return col


def fit_svc(X, y01, params: SVCParams, seed: int):
    y = np.where(np.asarray(y01) == 1, 1.0, -1.0)
    pos = y > 0
    gamma = _resolve_gamma(X, params.gamma)
    C = params.C
    column = KernelColumns(X, gamma)
    alpha = np.zeros(len(y))
    v = y.copy()  # -y * G, with G = Q alpha - e = -e at alpha = 0
    up, low = pos.copy(), ~pos  # I_up and I_low at alpha = 0

    n_iter = 0
    while True:
        i = int(np.argmax(np.where(up, v, -np.inf)))
        m, M = v[i], np.where(low, v, np.inf).min()
        converged = bool(m - M <= params.tol)
        if converged or n_iter == params.max_iter:
            break
        K_i = column(i)
        b = m - v
        a = np.maximum(2.0 - 2.0 * K_i, TAU)
        j = int(np.argmax(np.where(low & (b > 0), b * b / a, -1.0)))
        # step t along +y_i at i and -y_j at j keeps y'alpha; each limit is the room
        # left to the multiplier's bound, which it then takes exactly
        lim_i = C - alpha[i] if pos[i] else alpha[i]
        lim_j = alpha[j] if pos[j] else C - alpha[j]
        t = min(b[j] / a[j], lim_i, lim_j)
        alpha[i] = (C if pos[i] else 0.0) if t == lim_i else alpha[i] + y[i] * t
        alpha[j] = (0.0 if pos[j] else C) if t == lim_j else alpha[j] - y[j] * t
        for k in (i, j):
            up[k] = alpha[k] < C if pos[k] else alpha[k] > 0
            low[k] = alpha[k] > 0 if pos[k] else alpha[k] < C
        v -= t * K_i
        v += t * column(j)
        n_iter += 1

    free = (alpha > 0) & (alpha < C)
    bias = float(v[free].mean()) if free.any() else float((m + M) / 2.0)
    sv = alpha > 0
    state = SVCState(X[sv].copy(), (alpha * y)[sv], bias, gamma)
    # dual objective 1/2 a'Qa - e'a = 1/2 a'(G - e), with G = -y * v
    dual = float(-0.5 * (alpha * (y * v + 1.0)).sum())
    meta = {"n_iter": n_iter, "n_support": int(sv.sum()), "final_loss": dual,
            "converged": converged}
    return state, meta


def decision_function(state: SVCState, X) -> np.ndarray:
    return np.exp(-state.gamma * sq_dists(X, state.support_X)) @ state.dual_coef + state.bias


def predict_svc(state: SVCState, X) -> np.ndarray:
    return sigmoid(decision_function(state, X))
