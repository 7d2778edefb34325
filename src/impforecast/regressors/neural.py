"""Single-hidden-layer tanh network trained by full-batch gradient descent.

The loss/gradient pair is exposed as a standalone function on a flattened
parameter vector so the backprop gradient can be checked against central
finite differences coordinate by coordinate.
"""

from __future__ import annotations

import numpy as np

from ..domain import ModelKind
from ..errors import DimensionMismatchError, IncompatibleBundleError, NonFiniteLossError
from .base import BaseRegressor, as_matrix, as_vector, check_fit_inputs, loaded_numbers
from .scaling import Standardizer


def param_count(n_features: int, hidden_units: int) -> int:
    return n_features * hidden_units + hidden_units + hidden_units + 1


def unpack_params(params: np.ndarray, n_features: int, hidden_units: int):
    """Split a flat vector into (W1, b1, w2, b2) views."""
    params = np.asarray(params, dtype=float)
    expected = param_count(n_features, hidden_units)
    if params.shape != (expected,):
        raise DimensionMismatchError(
            f"expected {expected} parameters for d={n_features}, H={hidden_units}, "
            f"got shape {params.shape}"
        )
    a = n_features * hidden_units
    W1 = params[:a].reshape(n_features, hidden_units)
    b1 = params[a : a + hidden_units]
    w2 = params[a + hidden_units : a + 2 * hidden_units]
    b2 = params[a + 2 * hidden_units]
    return W1, b1, w2, b2


def _forward(X, W1, b1, w2, b2):
    hidden = np.tanh(X @ W1 + b1)
    return hidden, hidden @ w2 + b2


def nn_loss_and_gradient(params, X, y, hidden_units: int):
    """Mean-squared-error loss and its exact backprop gradient.

    Returns ``(loss, grad)`` with ``grad`` flattened in the same layout as
    ``params`` (W1, b1, w2, b2).
    """
    X, y = as_matrix(X), as_vector(y)
    if X.shape[0] != y.shape[0]:
        raise DimensionMismatchError(
            f"X has {X.shape[0]} rows but y has {y.shape[0]} entries"
        )
    W1, b1, w2, b2 = unpack_params(params, X.shape[1], hidden_units)
    hidden, out = _forward(X, W1, b1, w2, b2)
    err = out - y
    n = X.shape[0]
    loss = float(err @ err / n)

    d_out = 2.0 * err / n
    g_w2 = hidden.T @ d_out
    g_b2 = d_out.sum()
    d_hidden = np.outer(d_out, w2) * (1.0 - hidden**2)
    g_W1 = X.T @ d_hidden
    g_b1 = d_hidden.sum(axis=0)
    grad = np.concatenate([g_W1.ravel(), g_b1, g_w2, [g_b2]])
    return loss, grad


def check_gradient(params, X, y, hidden_units: int, h: float = 1e-5) -> float:
    """Max relative error of backprop vs central finite differences.

    Per coordinate: |analytic - numeric| / max(1e-8, |numeric|).
    """
    if h <= 0:
        raise ValueError("h must be positive")
    params = np.asarray(params, dtype=float)
    _, analytic = nn_loss_and_gradient(params, X, y, hidden_units)
    worst = 0.0
    for i in range(params.shape[0]):
        shifted = params.copy()
        shifted[i] = params[i] + h
        up, _ = nn_loss_and_gradient(shifted, X, y, hidden_units)
        shifted[i] = params[i] - h
        down, _ = nn_loss_and_gradient(shifted, X, y, hidden_units)
        numeric = (up - down) / (2.0 * h)
        rel = abs(analytic[i] - numeric) / max(1e-8, abs(numeric))
        worst = max(worst, rel)
    return worst


class NeuralNetRegressor(BaseRegressor):
    """One hidden tanh layer, linear output, squared-error loss.

    Full-batch gradient descent with momentum; weights start uniform in
    +-init_scale/sqrt(fan_in), biases at zero. Raises NonFiniteLossError if
    the loss diverges (step size too large).
    """

    kind = ModelKind.NNR

    def __init__(
        self,
        hidden_units: int = 16,
        epochs: int = 2000,
        step: float = 1e-2,
        momentum: float = 0.9,
        init_scale: float = 1.0,
        seed: int = 0,
    ):
        self.hidden_units = int(hidden_units)
        self.epochs = int(epochs)
        self.step = float(step)
        self.momentum = float(momentum)
        self.init_scale = float(init_scale)
        self.seed = int(seed)
        self.n_features_ = None

    def _init_params(self, d: int) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        h = self.hidden_units
        s1 = self.init_scale / np.sqrt(d)
        s2 = self.init_scale / np.sqrt(h)
        W1 = rng.uniform(-s1, s1, size=(d, h))
        w2 = rng.uniform(-s2, s2, size=h)
        return np.concatenate([W1.ravel(), np.zeros(h), w2, [0.0]])

    def fit(self, X, y):
        X, y = check_fit_inputs(X, y)
        self.standardizer_ = Standardizer().fit(X)
        Xs = self.standardizer_.transform(X)
        d = Xs.shape[1]
        params = self._init_params(d)
        velocity = np.zeros_like(params)
        loss = np.nan
        # divergence is detected via the loss; intermediate overflow in a
        # diverging iterate is expected, not worth a warning
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(self.epochs):
                loss, grad = nn_loss_and_gradient(params, Xs, y, self.hidden_units)
                if not np.isfinite(loss):
                    raise NonFiniteLossError(
                        f"training loss diverged (step={self.step}); reduce the step size"
                    )
                velocity = self.momentum * velocity - self.step * grad
                params = params + velocity
        if not np.all(np.isfinite(params)):
            raise NonFiniteLossError(
                f"parameters diverged on the final update (step={self.step})"
            )
        self.params_ = params
        self.final_loss_ = float(loss)
        self.n_features_ = d
        return self

    def predict(self, X) -> np.ndarray:
        X = self._check_predict_input(X)
        Xs = self.standardizer_.transform(X)
        W1, b1, w2, b2 = unpack_params(self.params_, self.n_features_, self.hidden_units)
        # _forward's layers summed row by row, so that a row's output does
        # not depend on the other rows of the batch; fit keeps the matmuls
        hidden = np.tanh((Xs[:, :, None] * W1).sum(axis=1) + b1)
        return (hidden * w2).sum(axis=1) + b2

    def fitted_params(self) -> dict:
        W1, b1, w2, b2 = unpack_params(self.params_, self.n_features_, self.hidden_units)
        return {
            "w1": W1.tolist(),
            "b1": b1.tolist(),
            "w2": w2.tolist(),
            "b2": float(b2),
            "final_loss": self.final_loss_,
        }

    def load_fitted_params(self, params, standardizer):
        W1 = loaded_numbers(params["w1"], "w1", (standardizer.means_.shape[0], None))
        h = W1.shape[1]
        if h < 1:
            raise IncompatibleBundleError("w1 must have at least one hidden unit")
        b1 = loaded_numbers(params["b1"], "b1", (h,))
        w2 = loaded_numbers(params["w2"], "w2", (h,))
        b2 = float(loaded_numbers(params["b2"], "b2", ()))
        self.hidden_units = h
        self.params_ = np.concatenate([W1.ravel(), b1, w2, [b2]])
        self.final_loss_ = (
            float(loaded_numbers(params["final_loss"], "final_loss", ()))
            if "final_loss" in params else np.nan
        )
        self.standardizer_ = standardizer
        self.n_features_ = W1.shape[0]
