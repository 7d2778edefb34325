"""Single-hidden-layer tanh network trained by full-batch gradient descent.

Networks that share a training matrix (one per target column) train
together as one parameter block; a network alone is the one-row case of
the same code. The loss/gradient pair is also exposed as a standalone
function on a flattened parameter vector, so the backprop gradient that
training uses can be checked against central finite differences
coordinate by coordinate.
"""

from __future__ import annotations

import numpy as np

from ..domain import ModelKind
from ..errors import DimensionMismatchError, NonFiniteLossError
from .base import BaseRegressor, as_matrix, as_vector, loaded_numbers
from .hyper import NeuralConfig


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
    W1, b1, w2, b2 = _unpack_block(params[None], n_features, hidden_units)
    return W1[0], b1[0], w2[0], b2[0]


def _unpack_block(block: np.ndarray, n_features: int, hidden_units: int):
    """Split a (C, param_count) block, one network per row, into views
    W1 (C, d, H), b1 (C, H), w2 (C, H) and b2 (C,)."""
    a = n_features * hidden_units
    W1 = block[:, :a].reshape(-1, n_features, hidden_units)
    b1 = block[:, a : a + hidden_units]
    w2 = block[:, a + hidden_units : a + 2 * hidden_units]
    b2 = block[:, a + 2 * hidden_units]
    return W1, b1, w2, b2


class _Networks:
    """C networks of one shape trained on one X: network c fits row c of Yt.

    The parameters are one (C, P) block, a row per network in the layout of
    ``unpack_params``, and the gradients a block of the same shape; the
    layer views of both are taken once and stay valid while the blocks are
    updated in place. Every product is a stacked matmul that runs the same
    BLAS call on each network's slice as on that network alone, so a
    network's numbers do not depend on which others share the block.
    """

    def __init__(self, block, X, Yt, hidden_units: int):
        self.grads = np.empty_like(block)
        self.X, self.XT, self.Yt = X, X.T, Yt[:, :, None]
        d = X.shape[1]
        self.W1, b1, w2, b2 = _unpack_block(block, d, hidden_units)
        self.b1, self.w2_col, self.w2_row, self.b2 = (
            b1[:, None, :], w2[:, :, None], w2[:, None, :], b2[:, None, None]
        )
        self.g_W1, self.g_b1, g_w2, g_b2 = _unpack_block(self.grads, d, hidden_units)
        self.g_w2, self.g_b2 = g_w2[:, :, None], g_b2[:, None]

    def losses(self) -> np.ndarray:
        """Mean-squared-error loss of each network, (C,); writes the
        backprop gradients into ``self.grads``."""
        hidden = np.tanh(self.X @ self.W1 + self.b1)
        err = hidden @ self.w2_col + self.b2 - self.Yt
        n = self.X.shape[0]
        losses = (err.transpose(0, 2, 1) @ err)[:, 0, 0] / n

        d_out = 2.0 * err / n
        np.matmul(hidden.transpose(0, 2, 1), d_out, out=self.g_w2)
        d_out.sum(axis=1, out=self.g_b2)
        d_hidden = d_out * self.w2_row * (1.0 - hidden**2)
        np.matmul(self.XT, d_hidden, out=self.g_W1)
        d_hidden.sum(axis=1, out=self.g_b1)
        return losses


def nn_loss_and_gradient(params, X, y, hidden_units: int):
    """Mean-squared-error loss and its exact backprop gradient.

    Returns ``(loss, grad)`` with ``grad`` flattened in the same layout as
    ``params`` (W1, b1, w2, b2). This is the one-network case of the code
    that trains the networks.
    """
    X, y = as_matrix(X), as_vector(y)
    if X.shape[0] != y.shape[0]:
        raise DimensionMismatchError(
            f"X has {X.shape[0]} rows but y has {y.shape[0]} entries"
        )
    params = np.asarray(params, dtype=float)
    unpack_params(params, X.shape[1], hidden_units)  # shape check
    network = _Networks(params[None], X, y[None], hidden_units)
    return float(network.losses()[0]), network.grads[0]


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
    Config = NeuralConfig

    def _init_params(self, d: int) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        h = self.hyper.hidden_units
        s1 = self.hyper.init_scale / np.sqrt(d)
        s2 = self.hyper.init_scale / np.sqrt(h)
        W1 = rng.uniform(-s1, s1, size=(d, h))
        w2 = rng.uniform(-s2, s2, size=h)
        return np.concatenate([W1.ravel(), np.zeros(h), w2, [0.0]])

    fit = BaseRegressor.fit

    @classmethod
    def _fit_columns(cls, estimators, Xs, Yt) -> list:
        """Train one network per row of ``Yt``, all in one parameter block.

        Each network starts from its own estimator's initialisation. A
        network whose loss goes non-finite in any epoch, or whose final
        parameters are non-finite, gets a NonFiniteLossError; training
        stops once every network has one.
        """
        hyper = estimators[0].hyper
        block = np.stack([estimator._init_params(Xs.shape[1]) for estimator in estimators])
        networks = _Networks(block, Xs, Yt, hyper.hidden_units)
        velocity = np.zeros_like(block)
        diverged = np.zeros(len(estimators), dtype=bool)
        # divergence is detected via the loss; intermediate overflow in a
        # diverging iterate is expected, not worth a warning
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(hyper.epochs):
                losses = networks.losses()
                finite = np.isfinite(losses)
                if not finite.all():
                    diverged |= ~finite
                    if diverged.all():
                        break
                networks.grads *= hyper.step
                velocity *= hyper.momentum
                velocity -= networks.grads
                block += velocity

        outcomes = list(estimators)
        for row, estimator in enumerate(estimators):
            if diverged[row]:
                outcomes[row] = NonFiniteLossError(
                    f"training loss diverged (step={hyper.step}); reduce the step size"
                )
            elif not np.all(np.isfinite(block[row])):
                outcomes[row] = NonFiniteLossError(
                    f"parameters diverged on the final update (step={hyper.step})"
                )
            else:
                estimator.params_ = block[row].copy()
                estimator.final_loss_ = float(losses[row])
        return outcomes

    def _layers(self):
        """The fitted (W1, b1, w2, b2)."""
        return unpack_params(
            self.params_, self.standardizer_.means_.shape[0], self.hyper.hidden_units
        )

    def predict(self, X) -> np.ndarray:
        Xs = self._standardized(X)
        W1, b1, w2, b2 = self._layers()
        # the training forward pass summed row by row, so that a row's output
        # does not depend on the other rows of the batch; fit keeps the matmuls
        hidden = np.tanh((Xs[:, :, None] * W1).sum(axis=1) + b1)
        return (hidden * w2).sum(axis=1) + b2

    def fitted_params(self) -> dict:
        W1, b1, w2, b2 = self._layers()
        return {
            "w1": W1.tolist(),
            "b1": b1.tolist(),
            "w2": w2.tolist(),
            "b2": float(b2),
            "final_loss": self.final_loss_,
        }

    def _load_params(self, params, d):
        h = self.hyper.hidden_units
        W1 = loaded_numbers(params["w1"], "w1", (d, h))
        b1 = loaded_numbers(params["b1"], "b1", (h,))
        w2 = loaded_numbers(params["w2"], "w2", (h,))
        b2 = float(loaded_numbers(params["b2"], "b2", ()))
        self.params_ = np.concatenate([W1.ravel(), b1, w2, [b2]])
        self.final_loss_ = float(loaded_numbers(params["final_loss"], "final_loss", ()))
