"""Prediction metrics: RMSE and kOhm error-band tables.

Band percentages are rounded half-away-from-zero to two decimals using
integer arithmetic, so 14/24 is exactly 58.33 and 22/24 exactly 91.67.
Cumulative percentages are always computed from raw counts, never by
adding already-rounded cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyInputError, LengthMismatchError, NonFinitePredictionError
from .regressors.hyper import _is_count, _require

# Absolute-error bin edges in kOhm: [0,1), [1,2), [2,3), [3, inf)
BAND_EDGES = (1.0, 2.0, 3.0)
N_BANDS = 4


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
    prediction is NaN or inf."""
    y_hat, y = _check_pair(y_hat, y)
    diff = y_hat - y
    return float(np.sqrt(diff @ diff / diff.shape[0]))


def pct_of(count: int, n: int) -> float:
    """100*count/n rounded half-away-from-zero to 2 decimals, exactly."""
    q, r = divmod(10000 * int(count), int(n))
    if 2 * r >= n:
        q += 1
    return q / 100.0


@dataclass(frozen=True)
class ErrorBands:
    """Counts/percentages of absolute errors per kOhm band."""

    counts: tuple[int, int, int, int]
    n_test: int
    pct: tuple[float, float, float, float]
    cum_0_2: float
    cum_0_3: float

    @classmethod
    def from_counts(cls, counts, n_test: int) -> "ErrorBands":
        counts = tuple(int(c) for c in counts)
        if len(counts) != N_BANDS:
            raise LengthMismatchError(f"expected {N_BANDS} band counts, got {len(counts)}")
        if sum(counts) != n_test:
            raise LengthMismatchError(
                f"band counts sum to {sum(counts)} but n_test={n_test}"
            )
        if n_test <= 0:
            raise EmptyInputError("n_test must be positive")
        return cls(
            counts=counts,
            n_test=int(n_test),
            pct=tuple(pct_of(c, n_test) for c in counts),
            cum_0_2=pct_of(counts[0] + counts[1], n_test),
            cum_0_3=pct_of(counts[0] + counts[1] + counts[2], n_test),
        )

    def to_dict(self) -> dict:
        return {
            "counts": list(self.counts),
            "n_test": self.n_test,
            "pct": list(self.pct),
            "cum_0_2": self.cum_0_2,
            "cum_0_3": self.cum_0_3,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ErrorBands":
        """Bands read from a persisted report. Raises ValueError unless
        ``counts`` is a list of integers >= 0 and ``n_test`` an integer:
        not bools, strings or fractions."""
        counts, n_test = d["counts"], d["n_test"]
        ok = isinstance(counts, list) and all(_is_count(c) and c >= 0 for c in counts)
        _require(ok, "bands.counts", "a list of integers >= 0", counts)
        _require(_is_count(n_test), "bands.n_test", "an integer", n_test)
        return cls.from_counts(counts, n_test)


def error_bands(y_hat, y) -> ErrorBands:
    """Bin absolute prediction errors into the four kOhm bands;
    NonFinitePredictionError (a FitError) if a prediction is NaN or inf."""
    y_hat, y = _check_pair(y_hat, y)
    err = np.abs(y_hat - y)
    bins = np.minimum(np.floor(err), N_BANDS - 1).astype(int)
    counts = np.bincount(bins, minlength=N_BANDS)
    return ErrorBands.from_counts(counts, y_hat.shape[0])
