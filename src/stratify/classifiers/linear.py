"""L2-regularized logistic regression trained by batch gradient descent."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


def log_loss_terms(z, y):
    # softplus(z) - y*z is -log p(y|z) written without overflow
    return np.logaddexp(0.0, z) - y * z


@dataclass
class LRParams:
    reg_factor: float = field(default=10.0, metadata={"gt": 0})  # inverse regularization strength
    stop_tol: float = field(default=0.002, metadata={"ge": 0})  # stop on a loss gain below this
    learning_rate: float = field(default=0.1, metadata={"gt": 0})
    max_iter: int = field(default=5000, metadata={"ge": 1})


@dataclass
class LRState:
    weights: np.ndarray
    bias: float

    @property
    def n_features(self) -> int:
        return len(self.weights)


def lr_loss_grad(w, b, X, y, lam):
    """Mean logistic loss + (lam / 2n)||w||^2 and its exact gradient."""
    n = X.shape[0]
    z = X @ w + b
    loss = float(log_loss_terms(z, y).mean()) + lam / (2.0 * n) * float(w @ w)
    resid = sigmoid(z) - y
    grad_w = X.T @ resid / n + lam * w / n
    grad_b = float(resid.mean())
    return loss, grad_w, grad_b


def fit_lr(X, y, params: LRParams, seed: int):
    lam = 1.0 / params.reg_factor
    w = np.zeros(X.shape[1])
    b = 0.0
    prev_loss = np.inf
    curve = []
    for it in range(1, params.max_iter + 1):
        loss, gw, gb = lr_loss_grad(w, b, X, y, lam)
        curve.append(loss)
        if abs(prev_loss - loss) < params.stop_tol:
            break
        prev_loss = loss
        w = w - params.learning_rate * gw
        b = b - params.learning_rate * gb
    meta = {"n_iter": it, "final_loss": curve[-1]}
    return LRState(w, b), meta


def predict_lr(state: LRState, X) -> np.ndarray:
    return sigmoid(X @ state.weights + state.bias)
