"""Linear least squares and Bayesian linear regression (conjugate Gaussian).

Both models standardize features internally, then append a constant-1
column for the intercept. The Bayesian model places an isotropic Gaussian
prior on the weights, excluding the intercept coordinate, and can refine
the prior/noise precisions by fixed-point evidence maximization.
"""

from __future__ import annotations

import numpy as np

from ..domain import ModelKind
from ..errors import DegenerateInputError
from .base import BaseRegressor, loaded_numbers
from .hyper import BayesConfig, LinearConfig

_TINY = 1e-300


def _affine(Zs: np.ndarray, weights: np.ndarray, intercept: float) -> np.ndarray:
    """``Zs @ weights + intercept``, summed row by row so that a row's value
    does not depend on the other rows of the batch (a BLAS product blocks
    1 and n rows differently, which moves the last bit)."""
    return (Zs * weights).sum(axis=1) + intercept


def _load_affine(params, d: int) -> tuple[np.ndarray, float]:
    """Persisted ``weights`` (one per standardized column) and ``intercept``."""
    weights = loaded_numbers(params["weights"], "weights", (d,))
    return weights, float(loaded_numbers(params["intercept"], "intercept", ()))


def _design(Xs: np.ndarray) -> np.ndarray:
    """Append the constant-1 intercept column to standardized features."""
    return np.hstack([Xs, np.ones((Xs.shape[0], 1))])


class LinearRegressor(BaseRegressor):
    """Ordinary least squares with an optional ridge jitter.

    ``ridge`` is numerical stabilization, not regularization; the default
    1e-8 only guards against singular normal equations.
    """

    kind = ModelKind.LR
    Config = LinearConfig

    fit = BaseRegressor.fit

    @classmethod
    def _fit_columns(cls, estimators, Xs, Yt) -> list:
        """Solve every column's normal equations with one ``Z'Z + ridge*I``;
        a column whose weights are not finite gets a DegenerateInputError."""
        Z = _design(Xs)
        A = Z.T @ Z + estimators[0].hyper.ridge * np.eye(Z.shape[1])
        outcomes = list(estimators)
        for row, (estimator, y) in enumerate(zip(estimators, Yt)):
            try:
                w = np.linalg.solve(A, Z.T @ y)
            except np.linalg.LinAlgError as exc:
                outcomes[row] = DegenerateInputError(f"singular normal equations: {exc}")
                continue
            if not np.isfinite(w).all():
                outcomes[row] = DegenerateInputError(
                    "fitted weights are not finite: the labels are too large"
                )
                continue
            estimator.weights_ = w[:-1]
            estimator.intercept_ = float(w[-1])
        return outcomes

    def predict(self, X) -> np.ndarray:
        return _affine(self._standardized(X), self.weights_, self.intercept_)

    def fitted_params(self) -> dict:
        return {"weights": self.weights_.tolist(), "intercept": self.intercept_}

    def _load_params(self, params, d):
        self.weights_, self.intercept_ = _load_affine(params, d)


class BayesianLinearRegressor(BaseRegressor):
    """Gaussian-posterior linear regression.

    With prior precision ``alpha`` on the non-intercept weights and noise
    precision ``beta``, the posterior mean solves

        (alpha * D + beta * Z'Z) m = beta * Z'y

    where Z is the standardized design matrix with intercept column and D
    is the identity with a zero in the intercept coordinate. When
    ``evidence_iters > 0``, alpha and beta are re-estimated by the usual
    fixed-point evidence updates before the final solve.
    """

    kind = ModelKind.BLR
    Config = BayesConfig

    @staticmethod
    def _posterior_mean(ZtZ, Zty, D, alpha, beta):
        A = alpha * D + beta * ZtZ
        return A, beta * np.linalg.solve(A, Zty)

    fit = BaseRegressor.fit

    @classmethod
    def _fit_columns(cls, estimators, Xs, Yt) -> list:
        """Fit every column's posterior with one ``Z'Z`` and one ``D``."""
        Z = _design(Xs)
        D = np.eye(Z.shape[1])
        D[-1, -1] = 0.0
        ZtZ = Z.T @ Z
        return [estimator._fit_posterior(Z, ZtZ, D, y) for estimator, y in zip(estimators, Yt)]

    def _fit_posterior(self, Z, ZtZ, D, y):
        """The estimator with its posterior on ``y`` set, or a
        DegenerateInputError if the posterior is not finite."""
        n, p = Z.shape
        d = p - 1  # penalized coordinates (intercept excluded)
        Zty = Z.T @ y

        alpha, beta = float(self.hyper.alpha), float(self.hyper.beta)
        A, m = self._posterior_mean(ZtZ, Zty, D, alpha, beta)
        for _ in range(self.hyper.evidence_iters):
            A_inv = np.linalg.inv(A)
            tr_pen = float(np.diag(A_inv)[:d].sum())
            gamma_pen = d - alpha * tr_pen  # effective dof among penalized weights
            m_pen_sq = float(m[:d] @ m[:d])
            sse = float(np.sum((y - Z @ m) ** 2))
            alpha_new = np.clip(max(gamma_pen, _TINY) / max(m_pen_sq, _TINY), 1e-12, 1e12)
            # intercept always contributes one effective dof
            beta_new = np.clip(max(n - (gamma_pen + 1.0), _TINY) / max(sse, _TINY), 1e-12, 1e12)
            converged = (
                abs(alpha_new - alpha) <= 1e-10 * max(alpha, 1.0)
                and abs(beta_new - beta) <= 1e-10 * max(beta, 1.0)
            )
            alpha, beta = float(alpha_new), float(beta_new)
            A, m = self._posterior_mean(ZtZ, Zty, D, alpha, beta)
            if converged:
                break

        if not np.isfinite([*m, alpha, beta]).all():
            return DegenerateInputError(
                "posterior weights or precisions are not finite: the labels are too large"
            )
        self.alpha_ = alpha
        self.beta_ = beta
        self.weights_ = m[:-1]
        self.intercept_ = float(m[-1])
        return self

    def predict(self, X) -> np.ndarray:
        return _affine(self._standardized(X), self.weights_, self.intercept_)

    def fitted_params(self) -> dict:
        return {
            "weights": self.weights_.tolist(),
            "intercept": self.intercept_,
            "alpha_posterior": self.alpha_,
            "beta_posterior": self.beta_,
        }

    def _load_params(self, params, d):
        self.weights_, self.intercept_ = _load_affine(params, d)
        self.alpha_ = float(loaded_numbers(params["alpha_posterior"], "alpha_posterior", ()))
        self.beta_ = float(loaded_numbers(params["beta_posterior"], "beta_posterior", ()))
