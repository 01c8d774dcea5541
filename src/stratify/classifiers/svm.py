"""RBF-kernel support vector classifier solved with simplified SMO.

The dual is optimized by sweeping candidate multipliers that violate the KKT
conditions and pairing each with a randomly chosen partner; the pairwise
subproblem has a closed form. Probability-like scores squash the decision value
through the logistic function: monotone in the margin, so thresholding and ROC
behave, but not calibrated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..rng import derive_rng
from .linear import sigmoid


@dataclass
class SVCParams:
    C: float = field(default=5.0, metadata={"gt": 0})
    # "scale" => 1 / (p * var(X)); or a positive float
    gamma: float | str = field(default="scale", metadata={"gt": 0, "choices": ("scale",)})
    tol: float = field(default=1e-3, metadata={"ge": 0})
    max_passes: int = field(default=5, metadata={"ge": 1})  # no-change sweeps that end the fit
    max_sweeps: int = field(default=500, metadata={"ge": 1})


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


def _rbf(A, B, gamma, aa, bb):
    # K[a, b] = exp(-gamma ||a - b||^2) from the squared row norms aa and bb
    return np.exp(-gamma * np.maximum(aa[:, None] - 2.0 * (A @ B.T) + bb[None, :], 0.0))


def _rbf_columns(X, idx, gamma, sq):
    # kernel columns K[:, idx] computed on demand; K_ii = 1 for RBF
    return _rbf(X, X[idx], gamma, sq, sq[idx])


def fit_svc(X, y01, params: SVCParams, seed: int):
    n = X.shape[0]
    y = np.where(np.asarray(y01) == 1, 1.0, -1.0)
    gamma = _resolve_gamma(X, params.gamma)
    C, tol = params.C, params.tol
    rng = derive_rng(seed, "svc_smo")
    sq = (X * X).sum(1)
    # full Gram only when it is small; otherwise columns on demand
    gram = _rbf(X, X, gamma, sq, sq) if n <= 2048 else None

    def col(i):
        if gram is not None:
            return gram[:, i]
        return _rbf_columns(X, np.array([i]), gamma, sq).ravel()

    alphas = np.zeros(n)
    b = 0.0
    f = np.zeros(n)  # sum_j alpha_j y_j K(x_j, x_i), bias excluded
    passes = 0
    sweeps = 0
    while passes < params.max_passes and sweeps < params.max_sweeps:
        changed = 0
        for i in range(n):
            E_i = f[i] + b - y[i]
            if not ((y[i] * E_i < -tol and alphas[i] < C) or (y[i] * E_i > tol and alphas[i] > 0)):
                continue
            j = int(rng.integers(n - 1))
            if j >= i:
                j += 1
            E_j = f[j] + b - y[j]
            ai_old, aj_old = alphas[i], alphas[j]
            if y[i] != y[j]:
                L, H = max(0.0, aj_old - ai_old), min(C, C + aj_old - ai_old)
            else:
                L, H = max(0.0, ai_old + aj_old - C), min(C, ai_old + aj_old)
            if L >= H:
                continue
            col_i = col(i)
            Kij = col_i[j]
            eta = 2.0 * Kij - 2.0  # K_ii = K_jj = 1 for RBF
            if eta >= 0:
                continue
            aj = aj_old - y[j] * (E_i - E_j) / eta
            aj = min(max(aj, L), H)
            if abs(aj - aj_old) < 1e-7:
                continue
            ai = ai_old + y[i] * y[j] * (aj_old - aj)
            d_i, d_j = ai - ai_old, aj - aj_old
            b1 = b - E_i - y[i] * d_i - y[j] * d_j * Kij
            b2 = b - E_j - y[i] * d_i * Kij - y[j] * d_j
            if 0 < ai < C:
                b = b1
            elif 0 < aj < C:
                b = b2
            else:
                b = (b1 + b2) / 2.0
            f += y[i] * d_i * col_i + y[j] * d_j * col(j)
            alphas[i], alphas[j] = ai, aj
            changed += 1
        sweeps += 1
        passes = passes + 1 if changed == 0 else 0

    sv = alphas > 1e-12
    state = SVCState(X[sv].copy(), (alphas * y)[sv], float(b), gamma)
    meta = {"n_iter": sweeps, "n_support": int(sv.sum()),
            "final_loss": None}
    return state, meta


def decision_function(state: SVCState, X) -> np.ndarray:
    K = _rbf(X, state.support_X, state.gamma, (X * X).sum(1),
             (state.support_X * state.support_X).sum(1))
    return K @ state.dual_coef + state.bias


def predict_svc(state: SVCState, X) -> np.ndarray:
    return sigmoid(decision_function(state, X))
