"""Single-hidden-layer tanh network trained by full-batch gradient descent.

The networks of one ``fit_parts`` call train together as one block, even
when they fit different training matrices: a study hands every network of a
grid round to one call, a part per (problem, feature group), each part with
its own standardized X and its own target rows, all of one row count. A
network gets the bits of its lone fit whichever others share its block (see
``_Networks``), and a network alone is the one-network case of the same
code. The loss/gradient pair is also exposed as a standalone function on a
flattened parameter vector, so the backprop gradient that training uses can
be checked against central finite differences coordinate by coordinate.
"""

from __future__ import annotations

import math

import numpy as np

from .. import kernels
from ..domain import ModelKind
from ..errors import DimensionMismatchError, NonFiniteLossError
from ..seeding import PCG64Stream
from .base import BaseRegressor, as_matrix, as_vector, loaded_numbers
from .hyper import NeuralConfig


def param_count(n_features: int, hidden_units: int) -> int:
    return n_features * hidden_units + hidden_units + hidden_units + 1


def _views(vector: np.ndarray, shapes) -> list:
    """Consecutive views of ``vector``, one of each shape."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(vector[start : start + size].reshape(shape))
        start += size
    return views


def unpack_params(params: np.ndarray, n_features: int, hidden_units: int):
    """Split a flat vector into (W1, b1, w2, b2) views."""
    params = np.asarray(params, dtype=float)
    expected = param_count(n_features, hidden_units)
    if params.shape != (expected,):
        raise DimensionMismatchError(
            f"expected {expected} parameters for d={n_features}, H={hidden_units}, "
            f"got shape {params.shape}"
        )
    h = hidden_units
    W1, b1, w2, b2 = _views(params, [(n_features, h), (h,), (h,), (1,)])
    return W1, b1, w2, b2[0]


class _Networks:
    """C networks of H hidden units trained as one block on n rows.

    The networks come in parts: part p is a standardized X (n, d_p) and
    target rows Yt (C_p, n), and its networks fit the rows of Yt on X. All
    parameters are one flat vector ``params`` and the gradients one vector
    ``grads`` of the same layout: each part's first-layer weights
    (C_p, d_p, H) in part order, then b1 (C, H), w2 (C, H) and b2 (C,) of
    all the networks. The layer views of both are taken once and stay valid
    while the vectors are updated in place.

    A network gets the bits of its lone fit, whichever networks share the
    block: the work arrays are network-major, (C, n, H), so every stacked
    matmul and einsum runs the same loop on a network's slice as on that
    network alone. Only the first-layer product and its gradient run per
    part.

    The work arrays are allocated once and every epoch fills them through
    ``out=``: a 24-network block's temporaries are past the size at which
    the allocator maps fresh pages, and mapping them each epoch doubled the
    block's time.
    """

    def __init__(self, parts, hidden_units: int):
        H = hidden_units
        sizes = [Yt.shape[0] for _, Yt in parts]
        C, n = sum(sizes), parts[0][1].shape[1]
        self.n, self.H = n, H
        self.X = [(X, X.T) for X, _ in parts]
        self.rows, start = [], 0
        for size in sizes:
            self.rows.append(slice(start, start + size))
            start += size
        self.Yt = np.concatenate([Yt for _, Yt in parts])[:, :, None]
        shapes = [(size, X.shape[1], H) for size, (X, _) in zip(sizes, parts)]
        shapes += [(C, H), (C, H), (C,)]
        self.params = np.zeros(sum(math.prod(shape) for shape in shapes))
        self.grads = np.empty_like(self.params)
        *self.W1, b1, w2, b2 = _views(self.params, shapes)
        self.b1, self.w2, self.w2_col, self.b2 = (
            b1[:, None, :], w2, w2[:, :, None], b2[:, None, None]
        )
        *self.g_W1, self.g_b1, g_w2, g_b2 = _views(self.grads, shapes)
        self.g_w2, self.g_b2 = g_w2[:, :, None], g_b2[:, None]
        self.hidden = np.empty((C, n, H))
        self.d_hidden = np.empty((C, n, H))
        self.slope = np.empty((C, n, H))
        self.err = np.empty((C, n, 1))
        self.d_out = np.empty((C, n, 1))
        self.squares = np.empty((C, 1, 1))
        self.shapes = shapes
        # network c is network index[c][1] of part index[c][0]
        self.index = [(p, i) for p, size in enumerate(sizes) for i in range(size)]

    def network(self, vector: np.ndarray, c: int) -> np.ndarray:
        """Network c's slice of ``vector`` (``params`` or ``grads``) as one
        vector in the layout of ``unpack_params``."""
        p, i = self.index[c]
        *W1, b1, w2, b2 = _views(vector, self.shapes)
        return np.concatenate([W1[p][i].ravel(), b1[c], w2[c], b2[c : c + 1]])

    def set_network(self, c: int, params: np.ndarray) -> None:
        """Set network c's parameters from a vector in the layout of
        ``unpack_params``."""
        p, i = self.index[c]
        *W1, b1, w2, b2 = _views(self.params, self.shapes)
        W1[p][i], b1[c], w2[c], b2[c] = unpack_params(params, W1[p].shape[1], self.H)

    def losses(self) -> np.ndarray:
        """Mean-squared-error loss of each network, (C,); writes the
        backprop gradients into ``grads``."""
        n, hidden, err, d_out, d_hidden, slope = (
            self.n, self.hidden, self.err, self.d_out, self.d_hidden, self.slope
        )
        for (X, _), W1, rows in zip(self.X, self.W1, self.rows):
            kernels.batched_matmul(X, W1, hidden[rows])
        hidden += self.b1
        np.tanh(hidden, out=hidden)
        kernels.batched_matmul(hidden, self.w2_col, err)
        err += self.b2
        err -= self.Yt
        kernels.batched_matmul(err.transpose(0, 2, 1), err, self.squares)
        losses = self.squares[:, 0, 0] / n

        np.multiply(err, 2.0, out=d_out)
        d_out /= n
        kernels.batched_matmul(hidden.transpose(0, 2, 1), d_out, self.g_w2)
        d_out.sum(axis=1, out=self.g_b2)
        kernels.outer_rows(d_out[:, :, 0], self.w2, d_hidden)
        np.square(hidden, out=slope)
        np.subtract(1.0, slope, out=slope)
        d_hidden *= slope
        for (_, XT), g_W1, rows in zip(self.X, self.g_W1, self.rows):
            kernels.batched_matmul(XT, d_hidden[rows], g_W1)
        kernels.sum_rows(d_hidden, self.g_b1)
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
    network = _Networks([(X, y[None])], hidden_units)
    network.set_network(0, params)
    return float(network.losses()[0]), network.network(network.grads, 0)


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
    the loss is not finite (data, init_scale or step size too large).
    """

    kind = ModelKind.NNR
    Config = NeuralConfig

    def _init_params(self, d: int) -> np.ndarray:
        rng = PCG64Stream(self.seed)
        h = self.hyper.hidden_units
        s1 = self.hyper.init_scale / np.sqrt(d)
        s2 = self.hyper.init_scale / np.sqrt(h)
        W1 = rng.uniform(-s1, s1, size=(d, h))
        w2 = rng.uniform(-s2, s2, size=h)
        return np.concatenate([W1.ravel(), np.zeros(h), w2, [0.0]])

    fit = BaseRegressor.fit

    @classmethod
    def _fit_parts(cls, parts) -> list:
        """Train the networks of every ``(estimators, Xs, Yt)`` part, one
        network per row of ``Yt``, as one ``_Networks`` block. The parts
        must share one training row count (else ValueError), as they share
        one hyperparameter set.

        Each network starts from its own estimator's initialisation. A
        network whose loss goes non-finite in any epoch, or whose final
        parameters are non-finite, gets a NonFiniteLossError (blaming the
        data or the initial scale if before any step); the block stops once
        every network has one.
        """
        if len({Xs.shape[0] for _, Xs, _ in parts}) > 1:
            raise ValueError("the parts of one network fit must have the same number of rows")
        estimators = [estimator for part in parts for estimator in part[0]]
        if not estimators:
            return [[] for _ in parts]
        widths = [Xs.shape[1] for part_estimators, Xs, _ in parts for _ in part_estimators]
        hyper = estimators[0].hyper
        networks = _Networks([(Xs, Yt) for _, Xs, Yt in parts], hyper.hidden_units)
        for c, (estimator, d) in enumerate(zip(estimators, widths)):
            networks.set_network(c, estimator._init_params(d))
        params = networks.params
        velocity = np.zeros_like(params)
        diverged = np.zeros(len(estimators), dtype=bool)
        for epoch in range(hyper.epochs):  # divergence is detected via the loss
            losses = networks.losses()
            finite = np.isfinite(losses)
            if epoch == 0:  # before any step: the data or init_scale are too large, not the step
                too_large = ~finite
            if not finite.all():
                diverged |= ~finite
                if diverged.all():
                    break
            networks.grads *= hyper.step
            velocity *= hyper.momentum
            velocity -= networks.grads
            params += velocity

        outcomes = list(estimators)
        for c, estimator in enumerate(estimators):
            fitted = networks.network(params, c)
            if too_large[c]:
                outcomes[c] = NonFiniteLossError(
                    "training loss is not finite at the initial weights: the labels, "
                    "the features or nnr.init_scale are too large"
                )
            elif diverged[c]:
                outcomes[c] = NonFiniteLossError(
                    f"training loss diverged (step={hyper.step}); reduce the step size"
                )
            elif not np.all(np.isfinite(fitted)):
                outcomes[c] = NonFiniteLossError(
                    f"parameters diverged on the final update (step={hyper.step})"
                )
            else:
                estimator.params_ = fitted
                estimator.final_loss_ = float(losses[c])
        trained = iter(outcomes)
        return [[next(trained) for _ in part_estimators] for part_estimators, _, _ in parts]

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
