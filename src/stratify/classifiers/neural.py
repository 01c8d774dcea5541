"""Single-hidden-layer perceptron: tanh hidden units, sigmoid output, L2 penalty,
trained with mini-batch gradient descent. The loss/gradient pair is exposed as a
plain function so it can be checked against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..rng import derive_rng
from .linear import log_loss_terms, sigmoid


@dataclass
class MLPParams:
    hidden: int = field(default=50, metadata={"ge": 1})
    alpha: float = field(default=0.1, metadata={"ge": 0})  # L2 penalty on weights (not biases)
    learning_rate: float = field(default=0.001, metadata={"gt": 0})
    batch_size: int = field(default=32, metadata={"ge": 1})
    max_epochs: int = field(default=200, metadata={"ge": 1})
    stop_tol: float = field(default=1e-4, metadata={"ge": 0})  # early stop on |epoch loss change|


@dataclass
class MLPState:
    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: float

    @property
    def n_features(self) -> int:
        return self.W1.shape[0]


def init_mlp(n_features: int, hidden: int, rng) -> MLPState:
    # Glorot-uniform bounds keep tanh units in their active range at the start
    lim1 = np.sqrt(6.0 / (n_features + hidden))
    lim2 = np.sqrt(6.0 / (hidden + 1))
    return MLPState(rng.uniform(-lim1, lim1, (n_features, hidden)),
                    np.zeros(hidden),
                    rng.uniform(-lim2, lim2, hidden),
                    0.0)


def mlp_loss_grad(state: MLPState, X, y, alpha: float):
    """Mean cross-entropy + (alpha / 2n)(||W1||^2 + ||W2||^2) with exact backprop grads."""
    n = X.shape[0]
    Z1 = X @ state.W1 + state.b1
    A1 = np.tanh(Z1)
    z2 = A1 @ state.W2 + state.b2
    loss = float(log_loss_terms(z2, y).mean())
    loss += alpha / (2.0 * n) * (float((state.W1 ** 2).sum()) + float((state.W2 ** 2).sum()))
    dz2 = (sigmoid(z2) - y) / n
    gW2 = A1.T @ dz2 + alpha * state.W2 / n
    gb2 = float(dz2.sum())
    dZ1 = np.outer(dz2, state.W2) * (1.0 - A1 * A1)
    gW1 = X.T @ dZ1 + alpha * state.W1 / n
    gb1 = dZ1.sum(axis=0)
    return loss, (gW1, gb1, gW2, gb2)


def fit_mlp(X, y, params: MLPParams, seed: int):
    rng = derive_rng(seed, "mlp_init")
    state = init_mlp(X.shape[1], params.hidden, rng)
    shuffle_rng = derive_rng(seed, "mlp_shuffle")
    n = X.shape[0]
    lr = params.learning_rate
    prev = np.inf
    for epoch in range(1, params.max_epochs + 1):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, params.batch_size):
            batch = order[start:start + params.batch_size]
            _, (gW1, gb1, gW2, gb2) = mlp_loss_grad(state, X[batch], y[batch], params.alpha)
            state.W1 -= lr * gW1
            state.b1 -= lr * gb1
            state.W2 -= lr * gW2
            state.b2 -= lr * gb2
        loss, _ = mlp_loss_grad(state, X, y, params.alpha)
        if abs(prev - loss) < params.stop_tol:
            break
        prev = loss
    meta = {"n_iter": epoch, "final_loss": loss}
    return state, meta


def predict_mlp(state: MLPState, X) -> np.ndarray:
    return sigmoid(np.tanh(X @ state.W1 + state.b1) @ state.W2 + state.b2)
