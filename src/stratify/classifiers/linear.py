"""L2-regularized logistic regression solved by damped Newton's method: Newton
steps on the ``lr_loss_grad`` objective (the bias is not penalized), halved until
the Armijo condition holds, until every gradient component is within ``GRAD_TOL``
or float64 rounding hides further progress (``converged`` if the loss cannot tell
that point from the optimum)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

GRAD_TOL = 1e-10  # converged once max |gradient| is at most this


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


def log_loss_terms(z, y):
    # softplus(z) - y*z is -log p(y|z) written without overflow
    return np.logaddexp(0.0, z) - y * z


@dataclass
class LRParams:
    reg_factor: float = field(default=10.0, metadata={"gt": 0})  # inverse regularization strength
    max_iter: int = field(default=5000, metadata={"ge": 1})  # Newton steps


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
    n, p = X.shape
    lam = 1.0 / params.reg_factor
    A = np.column_stack([X, np.ones(n)])  # theta = (w, b): the bias comes last

    def loss_grad(theta):
        loss, gw, gb = lr_loss_grad(theta[:p], theta[p], X, y, lam)
        return loss, np.append(gw, gb)

    theta, n_iter = np.zeros(p + 1), 0
    loss, grad = loss_grad(theta)
    while not (converged := bool(np.abs(grad).max() <= GRAD_TOL)) and n_iter < params.max_iter:
        s = sigmoid(A @ theta)  # below: n times the Hessian, so the right side is -n * grad
        hessian = (A.T * (s * (1.0 - s))) @ A + np.diag(np.append(np.full(p, lam), 0.0))
        step = np.linalg.lstsq(hessian, -n * grad, rcond=None)[0]
        for t in 0.5 ** np.arange(50):  # Armijo backtracking, at most 50 halvings
            loss_t, grad_t = loss_grad(theta + t * step)
            if loss_t <= loss + 1e-4 * t * float(grad @ step):
                break
        if not (loss_t < loss or np.abs(grad_t).max() < np.abs(grad).max()):
            # float64 rounding hides further progress: converged if the full step's model
            # decrease is within the first-order bound on the loss's float64 error,
            # (n + p + 4) u (mean_i(softplus(z_i) + a_i) + penalty), a_i = |A_i| @ |theta|
            size = np.logaddexp(0.0, A @ theta) + np.abs(A) @ np.abs(theta)
            penalty = lam / (2.0 * n) * float(theta[:p] @ theta[:p])
            error = (n + p + 4) * 2.0 ** -53 * (float(size.mean()) + penalty)
            converged = abs(float(grad @ step)) / 2.0 <= error  # an uphill step is no optimum
            break
        theta, loss, grad, n_iter = theta + t * step, loss_t, grad_t, n_iter + 1
    meta = {"n_iter": n_iter, "final_loss": loss, "converged": converged}
    return LRState(theta[:p].copy(), float(theta[p])), meta


def predict_lr(state: LRState, X) -> np.ndarray:
    return sigmoid(X @ state.weights + state.bias)
