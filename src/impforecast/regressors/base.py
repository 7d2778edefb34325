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

Every kind trains through ``BaseRegressor.fit_parts``: it checks each
part, a training matrix X with its target columns Y, raising on a bad one,
fits one ``Standardizer`` on X and hands the parts to the kind's
``_fit_parts``, which calls ``_fit_columns`` part by part unless the kind
trains them together, as the network does. A kind's own failure of a
column, or a Standardizer that overflows, is its FitError outcome.
``fit`` is one part of one column.
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


def check_fit_inputs(X, Y) -> tuple[np.ndarray, np.ndarray]:
    """Validate a training matrix X and its target columns Y: row counts
    agree, n >= 2, X has a feature, every value finite."""
    X, Y = as_matrix(X), as_matrix(Y)
    if X.shape[0] != Y.shape[0]:
        raise DimensionMismatchError(
            f"X has {X.shape[0]} rows but y has {Y.shape[0]} entries"
        )
    if X.shape[0] < 2:
        raise DegenerateInputError(f"need at least 2 samples, got {X.shape[0]}")
    if X.shape[1] < 1:
        raise DimensionMismatchError("X must have at least one feature")
    if not np.all(np.isfinite(X)):
        raise DegenerateInputError("X contains non-finite values")
    if not np.all(np.isfinite(Y)):
        raise DegenerateInputError("y contains non-finite values")
    return X, Y


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
        """``fit_parts`` of one part, the one column ``y``. Returns the
        estimator, or raises the FitError of its column."""
        ((outcome,),) = type(self).fit_parts([([self], X, as_vector(y)[:, None])])
        if isinstance(outcome, FitError):
            raise outcome
        return self

    @classmethod
    @np.errstate(all="ignore")  # an overflow is recorded as a FitError, not warned about
    def fit_parts(cls, parts) -> list:
        """Fit ``estimators[j]`` on ``(X, Y[:, j])`` for every column j of
        every ``(estimators, X, Y)`` part, all in one ``_fit_parts`` call.

        Raises the error of ``check_fit_inputs`` for the first part whose
        X and Y it rejects, and ValueError unless the estimators of every
        part differ only in ``seed``. Returns, per part, the list of its
        columns' outcomes: the fitted estimator or the FitError of its
        column. Each part has its own Standardizer fit on its X, and each
        column the bits of a fit on it alone. A part whose Standardizer or
        standardized X is not finite (finite values near the float limit)
        is not fit: each of its columns gets a DegenerateInputError.
        """
        checked = []
        for estimators, X, Y in parts:
            X, Y = as_matrix(X), as_matrix(Y)
            if Y.shape[1] != len(estimators):
                raise DimensionMismatchError(
                    f"Y has {Y.shape[1]} columns for {len(estimators)} estimators"
                )
            checked.append((estimators, *check_fit_inputs(X, Y)))
        if len({e.hyper for estimators, _, _ in checked for e in estimators}) > 1:
            raise ValueError("the estimators of one fit must differ only in seed")
        standardizers = [Standardizer() for _ in checked]
        standardized = [s.fit_transform(X) for s, (_, X, _) in zip(standardizers, checked)]
        too_large = []  # per part: its first feature column that overflows, or None
        for s, Xs in zip(standardizers, standardized):
            finite = np.isfinite(s.means_) & np.isfinite(s.stdevs_) & np.isfinite(Xs).all(axis=0)
            too_large.append(None if finite.all() else int(np.argmin(finite)))
        fitted = iter(cls._fit_parts([
            (estimators, Xs, np.ascontiguousarray(Y.T))
            for (estimators, _, Y), Xs, k in zip(checked, standardized, too_large) if k is None
        ]))
        outcomes = []
        for (estimators, _, _), standardizer, k in zip(checked, standardizers, too_large):
            if k is not None:
                message = f"feature column {k} is too large to standardize"
                outcomes.append([DegenerateInputError(message) for _ in estimators])
                continue
            outcomes.append(next(fitted))
            for outcome in outcomes[-1]:
                if not isinstance(outcome, FitError):
                    outcome.standardizer_ = standardizer
        return outcomes

    @classmethod
    def _fit_parts(cls, parts) -> list:
        """``_fit_columns`` of each ``(estimators, Xs, Yt)`` part; a kind
        that trains the parts together overrides this."""
        return [cls._fit_columns(*part) for part in parts]

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
