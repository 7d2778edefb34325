"""Decision forest regression: bagged variance-reduction trees."""

from __future__ import annotations

import math

import numpy as np

from ..domain import ModelKind
from ..seeding import PCG64Stream
from .base import BaseRegressor
from .hyper import ForestConfig
from .tree import TreeTable, grow_forest, with_grown_table


class DecisionForestRegressor(BaseRegressor):
    """Average of ``trees`` CART trees, each grown on a bootstrap resample.

    ``feature_subset`` features are considered at every split (default
    ceil(sqrt(d))), chosen per node by a key derived from ``seed``, the
    tree and the node's path (see ``tree.grow_forest``). Predictions are
    the plain mean over trees, so they can never leave
    [min(y_train), max(y_train)].
    """

    kind = ModelKind.DFR
    Config = ForestConfig

    fit = BaseRegressor.fit

    @classmethod
    def _fit_columns(cls, estimators, Xs, Yt) -> list:
        """Grow the forests of every column together, in one ``grow_forest``
        pass; a column whose trees overflow gets a DegenerateInputError."""
        hyper = estimators[0].hyper
        d = Xs.shape[1]
        seeds = [estimator.seed for estimator in estimators]
        forests = grow_forest(
            Xs,
            Yt.T,
            hyper.trees,
            max_depth=hyper.max_depth,
            min_leaf=hyper.min_leaf,
            feature_subset=(
                math.ceil(math.sqrt(d)) if hyper.feature_subset is None else hyper.feature_subset
            ),
            seeds=seeds,
            rngs=[PCG64Stream(s) for s in seeds] if hyper.bootstrap else None,
        )
        return [with_grown_table(estimator, trees, n_features=d, n_trees=hyper.trees)
                for estimator, trees in zip(estimators, forests)]

    def predict(self, X) -> np.ndarray:
        return self.table_.sums(self._standardized(X), 0.0, 1.0) / self.table_.n_trees

    def fitted_params(self) -> dict:
        return {"trees": self.table_.to_dicts()}

    def _load_params(self, params, d):
        self.table_ = TreeTable(params["trees"], n_features=d, n_trees=self.hyper.trees)
