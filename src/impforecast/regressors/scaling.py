"""Column standardization fitted on training features only."""

from __future__ import annotations

import numpy as np

from ..errors import DimensionMismatchError, EmptyMatrixError, IncompatibleBundleError
from .base import as_matrix, loaded_numbers

# Floor for column standard deviations; zero-variance columns are clamped
# here so transformed values stay finite.
STD_FLOOR = 1e-9


class Standardizer:
    """Center and scale columns to zero mean / unit (population) stdev."""

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
