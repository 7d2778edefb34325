"""Prediction metrics: RMSE and the kOhm error bands of a prediction.

The bands' type, ``ErrorBands``, and its exact percentage rounding
``pct_of`` belong to the report document (``report``); both stay
importable from here.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .errors import EmptyInputError, LengthMismatchError, NonFinitePredictionError
from .report import N_BANDS, ErrorBands, pct_of

def _check_pair(y_hat, y):
    y_hat = np.asarray(y_hat, dtype=float)
    y = np.asarray(y, dtype=float)
    if y_hat.shape != y.shape or y_hat.ndim != 1:
        raise LengthMismatchError(
            f"prediction/target shapes differ: {y_hat.shape} vs {y.shape}"
        )
    if y_hat.shape[0] == 0:
        raise EmptyInputError("need at least one prediction")
    finite = np.isfinite(y_hat)
    if not finite.all():
        bad = y_hat.shape[0] - int(np.count_nonzero(finite))
        raise NonFinitePredictionError(f"{bad} of {y_hat.shape[0]} predictions are not finite")
    return y_hat, y


def rmse(y_hat, y) -> float:
    """Root mean squared error; NonFinitePredictionError (a FitError) if a
    prediction is NaN or inf, or if the squared errors overflow."""
    y_hat, y = _check_pair(y_hat, y)
    with np.errstate(over="ignore"):  # an overflow is raised below, not warned about
        diff = y_hat - y
        squares = kernels.sq_norm(diff)
    if not np.isfinite(squares):
        raise NonFinitePredictionError(
            f"the squared errors of {y_hat.shape[0]} predictions overflow"
        )
    return float(np.sqrt(squares / diff.shape[0]))


def error_bands(y_hat, y) -> ErrorBands:
    """Bin absolute prediction errors into the four kOhm bands;
    NonFinitePredictionError (a FitError) if a prediction is NaN or inf."""
    y_hat, y = _check_pair(y_hat, y)
    err = np.abs(y_hat - y)
    bins = np.minimum(np.floor(err), N_BANDS - 1).astype(int)
    counts = np.bincount(bins, minlength=N_BANDS)
    return ErrorBands.from_counts(counts, y_hat.shape[0])
