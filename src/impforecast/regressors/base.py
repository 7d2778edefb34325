"""Shared estimator surface and input validation helpers.

All five regressors follow the familiar fit/predict estimator contract:
constructor keyword arguments are the hyperparameters (introspectable via
``get_params``/``set_params``), ``fit(X, y)`` returns ``self``, and fitted
state lives in trailing-underscore attributes. Each kind names its
hyperparameters, defaults and ranges once, in its ``Config`` dataclass
(see ``hyper``); an estimator holds a validated instance as ``hyper``, so
the constructor, ``set_params`` and a loaded bundle all raise ValueError
on the values ``--hyper`` rejects. No scikit-learn dependency; the
algorithms are implemented here from scratch.
"""

from __future__ import annotations

from dataclasses import asdict, fields, replace
from typing import ClassVar

import numpy as np

from ..checks import is_count, require
from ..domain import ModelKind
from ..errors import DegenerateInputError, DimensionMismatchError, FitError, IncompatibleBundleError

__all__ = [
    "BaseRegressor",
    "as_matrix",
    "as_vector",
    "check_fit_columns",
    "check_fit_inputs",
    "check_joint_columns",
    "fit_one_column",
    "loaded_numbers",
]


def as_matrix(X) -> np.ndarray:
    """Coerce to a 2-D float64 array."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D matrix, got ndim={X.ndim}")
    return X


def as_vector(y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise DimensionMismatchError(f"expected a 1-D vector, got ndim={y.ndim}")
    return y


def check_fit_inputs(X, y) -> tuple[np.ndarray, np.ndarray]:
    """Validate a training pair: shapes agree, n >= 2, targets finite."""
    X, y = as_matrix(X), as_vector(y)
    if X.shape[0] != y.shape[0]:
        raise DimensionMismatchError(
            f"X has {X.shape[0]} rows but y has {y.shape[0]} entries"
        )
    if X.shape[0] < 2:
        raise DegenerateInputError(f"need at least 2 samples, got {X.shape[0]}")
    if X.shape[1] < 1:
        raise DimensionMismatchError("X must have at least one feature")
    if not np.all(np.isfinite(X)):
        raise DegenerateInputError("X contains non-finite values")
    if not np.all(np.isfinite(y)):
        raise DegenerateInputError("y contains non-finite values")
    return X, y


def check_fit_columns(estimators, X, Y) -> tuple[np.ndarray, np.ndarray]:
    """X and Y as matrices, with one column of Y per estimator."""
    X, Y = as_matrix(X), as_matrix(Y)
    if Y.shape[1] != len(estimators):
        raise DimensionMismatchError(
            f"Y has {Y.shape[1]} columns for {len(estimators)} estimators"
        )
    return X, Y


def check_joint_columns(estimators, X, Y) -> tuple[np.ndarray, np.ndarray, list, list]:
    """Validate a ``fit_columns`` call that fits all its columns together.

    Returns X and Y as matrices, the outcome list with the FitError
    ``check_fit_inputs`` raises on each rejected column and None elsewhere,
    and the indices of the other columns. Raises ValueError unless the
    estimators of those columns differ only in ``seed``.
    """
    X, Y = check_fit_columns(estimators, X, Y)
    outcomes = []
    for y in Y.T:
        try:
            check_fit_inputs(X, y)
            outcomes.append(None)
        except FitError as exc:
            outcomes.append(exc)
    live = [j for j, outcome in enumerate(outcomes) if outcome is None]
    if len({estimators[j].hyper for j in live}) > 1:
        raise ValueError("fit_columns needs estimators that differ only in seed")
    return X, Y, outcomes, live


def fit_one_column(estimator, X, y):
    """``fit`` of a kind whose ``fit_columns`` fits its columns together:
    ``fit_columns`` on the one column ``y``. Returns the estimator, or
    raises the FitError of its column."""
    (outcome,) = type(estimator).fit_columns([estimator], X, as_vector(y)[:, None])
    if isinstance(outcome, FitError):
        raise outcome
    return estimator


def loaded_numbers(value, name: str, shape: tuple) -> np.ndarray:
    """``value`` read from a persisted document, as a float array.

    ``shape`` gives the length of each axis, or None for any length; ``()``
    asks for one number. Raises IncompatibleBundleError unless ``value`` is
    numbers (not strings or booleans) of that shape, all finite.
    """
    try:
        array = np.asarray(value)
    except ValueError:  # ragged nested lists
        array = None
    if (
        array is None
        or array.dtype.kind not in "iuf"
        or array.ndim != len(shape)
        or any(want is not None and want != got for want, got in zip(shape, array.shape))
    ):
        size = "x".join("n" if want is None else str(want) for want in shape)
        raise IncompatibleBundleError(
            f"{name} must be {f'a {size} array of numbers' if shape else 'a number'}"
        )
    array = array.astype(float)
    if not np.all(np.isfinite(array)):
        raise IncompatibleBundleError(f"{name} must be finite")
    return array


class BaseRegressor:
    """Base class providing get_params/set_params and prediction plumbing.

    ``Config`` is the kind's hyperparameter dataclass. ``seed`` is held on
    every kind, used or not, so that a bundle records each candidate's
    seed the same way whatever its kind.
    """

    kind: ClassVar[ModelKind]
    Config: ClassVar[type]

    def __init__(self, *, seed: int = 0, **hyper):
        self._configure(seed, self.Config(**hyper))

    def _configure(self, seed, hyper) -> None:
        require(is_count(seed) and seed >= 0, "seed", "an integer >= 0", seed)
        self.seed, self.hyper = seed, hyper

    def get_params(self) -> dict:
        """The hyperparameters in ``Config`` field order, then the seed."""
        return {**asdict(self.hyper), "seed": self.seed}

    def set_params(self, **params):
        """Replace hyperparameters and the seed, under the constructor's checks."""
        seed = params.pop("seed", self.seed)
        unknown = params.keys() - {f.name for f in fields(self.Config)}
        if unknown:
            raise ValueError(f"unknown parameter(s) {sorted(unknown)} for {type(self).__name__}")
        self._configure(seed, replace(self.hyper, **params))
        return self

    # -- fitted-state helpers -------------------------------------------------

    @property
    def is_fitted(self) -> bool:
        return getattr(self, "n_features_", None) is not None

    def _check_predict_input(self, X) -> np.ndarray:
        if not self.is_fitted:
            raise DegenerateInputError(f"{type(self).__name__} is not fitted")
        X = as_matrix(X)
        if X.shape[1] != self.n_features_:
            raise DimensionMismatchError(
                f"model was fit with {self.n_features_} features, got {X.shape[1]}"
            )
        return X

    def fit(self, X, y):
        raise NotImplementedError

    @classmethod
    def fit_columns(cls, estimators, X, Y) -> list:
        """Fit ``estimators[j]`` on ``(X, Y[:, j])`` for every column j of Y.

        Returns, per column, the fitted estimator or the FitError its fit
        raised. This default fits the columns one by one; a kind that can
        fit many targets on one X at once overrides it.
        """
        X, Y = check_fit_columns(estimators, X, Y)
        outcomes = []
        for estimator, y in zip(estimators, np.ascontiguousarray(Y.T)):
            try:
                outcomes.append(estimator.fit(X, y))
            except FitError as exc:
                outcomes.append(exc)
        return outcomes

    def predict(self, X) -> np.ndarray:
        raise NotImplementedError

    # -- serialization --------------------------------------------------------

    def fitted_params(self) -> dict:
        """Kind-specific fitted state as JSON-ready plain types."""
        raise NotImplementedError

    def load_fitted_params(self, params: dict, standardizer) -> None:
        """Restore fitted state produced by :meth:`fitted_params`."""
        raise NotImplementedError

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"
