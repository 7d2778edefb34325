"""Shared estimator surface, input validation and the one training path.

All five regressors follow the familiar fit/predict estimator contract:
constructor keyword arguments are the hyperparameters (introspectable via
``get_params``/``set_params``), ``fit(X, y)`` returns ``self``, and fitted
state lives in trailing-underscore attributes. Each kind names its
hyperparameters, defaults and ranges once, in its ``Config`` dataclass
(see ``hyper``); an estimator holds a validated instance as ``hyper``, so
the constructor, ``set_params`` and a loaded bundle all raise ValueError
on the values ``--hyper`` rejects. No scikit-learn dependency; the
algorithms are implemented here from scratch.

Every kind trains through ``BaseRegressor.fit_columns``: it checks the
inputs, fits one ``Standardizer`` on X and hands the standardized matrix
with every accepted target column to the kind's ``_fit_columns``.
"""

from __future__ import annotations

from dataclasses import asdict, fields, replace
from typing import ClassVar

import numpy as np

from ..checks import is_count, require
from ..domain import ModelKind
from ..errors import (
    DegenerateInputError,
    DimensionMismatchError,
    EmptyMatrixError,
    FitError,
    IncompatibleBundleError,
)

__all__ = [
    "BaseRegressor",
    "Standardizer",
    "as_matrix",
    "as_vector",
    "check_fit_inputs",
    "loaded_numbers",
]

# Floor for column standard deviations; zero-variance columns are clamped
# here so transformed values stay finite.
STD_FLOOR = 1e-9


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


class Standardizer:
    """Center and scale columns to zero mean / unit (population) stdev,
    fitted on training features only."""

    def __init__(self):
        self.means_ = None
        self.stdevs_ = None

    def fit(self, X) -> "Standardizer":
        X = as_matrix(X)
        if X.shape[0] == 0:
            raise EmptyMatrixError("cannot fit a standardizer on 0 rows")
        self.means_ = X.mean(axis=0)
        self.stdevs_ = np.maximum(X.std(axis=0), STD_FLOOR)
        return self

    def transform(self, X) -> np.ndarray:
        if self.means_ is None:
            raise EmptyMatrixError("standardizer is not fitted")
        X = as_matrix(X)
        if X.shape[1] != self.means_.shape[0]:
            raise DimensionMismatchError(
                f"standardizer was fit on {self.means_.shape[0]} columns, got {X.shape[1]}"
            )
        return (X - self.means_) / self.stdevs_

    def fit_transform(self, X) -> np.ndarray:
        return self.fit(X).transform(X)

    def to_dict(self) -> dict:
        return {"means": self.means_.tolist(), "stdevs": self.stdevs_.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "Standardizer":
        """Raises IncompatibleBundleError unless means and stdevs are finite
        vectors of one length and every stdev is positive."""
        s = cls()
        s.means_ = loaded_numbers(d["means"], "standardizer means", (None,))
        s.stdevs_ = loaded_numbers(d["stdevs"], "standardizer stdevs", s.means_.shape)
        if s.means_.shape[0] == 0 or not np.all(s.stdevs_ > 0.0):
            raise IncompatibleBundleError(
                "standardizer needs at least one column and positive stdevs"
            )
        return s


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

    # Each kind's class body rebinds ``fit = BaseRegressor.fit``, because the
    # benchmark's tracer (perfbench/tracing.py) times only the ``fit`` and
    # ``predict`` in a class's own ``vars``; the rebinding can go once the
    # benchmark reads a trace that the package writes itself.

    def fit(self, X, y):
        """``fit_columns`` on the one column ``y``. Returns the estimator, or
        raises the FitError of its column."""
        (outcome,) = type(self).fit_columns([self], X, as_vector(y)[:, None])
        if isinstance(outcome, FitError):
            raise outcome
        return self

    @classmethod
    def fit_columns(cls, estimators, X, Y) -> list:
        """Fit ``estimators[j]`` on ``(X, Y[:, j])`` for every column j of Y.

        Returns, per column, the fitted estimator or the FitError of its
        column. A column that ``check_fit_inputs`` rejects gets that error.
        The estimators of the other columns must differ only in ``seed``
        (else ValueError); they share one Standardizer fit on X and are fit
        in one ``_fit_columns`` call, each with the bits of a fit on its
        column alone.
        """
        X, Y = as_matrix(X), as_matrix(Y)
        if Y.shape[1] != len(estimators):
            raise DimensionMismatchError(
                f"Y has {Y.shape[1]} columns for {len(estimators)} estimators"
            )
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
        if not live:
            return outcomes
        standardizer = Standardizer().fit(X)
        fitted = cls._fit_columns(
            [estimators[j] for j in live],
            standardizer.transform(X),
            np.ascontiguousarray(Y[:, live].T),
        )
        for j, outcome in zip(live, fitted):
            if not isinstance(outcome, FitError):
                outcome.standardizer_ = standardizer
            outcomes[j] = outcome
        return outcomes

    @classmethod
    def _fit_columns(cls, estimators, Xs, Yt) -> list:
        """Fit ``estimators[j]`` on standardized features ``Xs`` and target
        row ``Yt[j]``; the estimators differ only in ``seed``. Returns, per
        row, the estimator with its kind's fitted state set, or a FitError."""
        raise NotImplementedError

    def _standardized(self, X) -> np.ndarray:
        """``X`` standardized as in training; raises DegenerateInputError if
        the estimator is not fitted and DimensionMismatchError if ``X`` does
        not have the training width."""
        standardizer = getattr(self, "standardizer_", None)
        if standardizer is None:
            raise DegenerateInputError(f"{type(self).__name__} is not fitted")
        return standardizer.transform(X)

    def predict(self, X) -> np.ndarray:
        raise NotImplementedError

    # -- serialization --------------------------------------------------------

    def fitted_params(self) -> dict:
        """Kind-specific fitted state as JSON-ready plain types."""
        raise NotImplementedError

    def load_fitted_params(self, params: dict, standardizer) -> None:
        """Restore fitted state produced by :meth:`fitted_params`, for
        features standardized by ``standardizer``."""
        self._load_params(params, standardizer.means_.shape[0])
        self.standardizer_ = standardizer

    def _load_params(self, params: dict, d: int) -> None:
        """Set the kind's fitted state from ``params``, for ``d`` features;
        raises IncompatibleBundleError on a malformed value."""
        raise NotImplementedError

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"
