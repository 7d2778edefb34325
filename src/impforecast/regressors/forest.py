"""Decision forest regression: bagged variance-reduction trees."""

from __future__ import annotations

import math

import numpy as np

from ..domain import ModelKind
from .base import BaseRegressor, check_fit_inputs
from .hyper import ForestConfig
from .scaling import Standardizer
from .tree import TreeTable, grow_forest


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

    def fit(self, X, y):
        X, y = check_fit_inputs(X, y)
        self.standardizer_ = Standardizer().fit(X)
        Xs = self.standardizer_.transform(X)
        d = Xs.shape[1]
        hyper = self.hyper
        subset = math.ceil(math.sqrt(d)) if hyper.feature_subset is None else hyper.feature_subset
        trees = grow_forest(
            Xs,
            y,
            hyper.trees,
            max_depth=hyper.max_depth,
            min_leaf=hyper.min_leaf,
            feature_subset=subset,
            seed=self.seed,
            rng=np.random.default_rng(self.seed) if hyper.bootstrap else None,
        )
        self.table_ = TreeTable(trees, n_features=d, n_trees=hyper.trees)
        self.n_features_ = d
        return self

    def predict(self, X) -> np.ndarray:
        X = self._check_predict_input(X)
        Xs = self.standardizer_.transform(X)
        return self.table_.sums(Xs, 0.0, 1.0) / self.table_.n_trees

    def fitted_params(self) -> dict:
        return {"trees": self.table_.to_dicts()}

    def load_fitted_params(self, params, standardizer):
        self.table_ = TreeTable(
            params["trees"], n_features=standardizer.means_.shape[0], n_trees=self.hyper.trees
        )
        self.standardizer_ = standardizer
        self.n_features_ = standardizer.means_.shape[0]
