"""Decision forest regression: bagged variance-reduction trees."""

from __future__ import annotations

import math

import numpy as np

from ..domain import ModelKind
from .base import BaseRegressor, check_fit_inputs
from .scaling import Standardizer
from .tree import TreeTable, check_tree_count, grow_forest


class DecisionForestRegressor(BaseRegressor):
    """Average of ``trees`` CART trees, each grown on a bootstrap resample.

    ``feature_subset`` features are considered at every split (default
    ceil(sqrt(d))), chosen per node by a key derived from ``seed``, the
    tree and the node's path (see ``tree.grow_forest``). Predictions are
    the plain mean over trees, so they can never leave
    [min(y_train), max(y_train)].
    """

    kind = ModelKind.DFR

    def __init__(
        self,
        trees: int = 100,
        max_depth: int = 8,
        min_leaf: int = 2,
        feature_subset: int | None = None,
        bootstrap: bool = True,
        seed: int = 0,
    ):
        self.trees = int(trees)
        self.max_depth = int(max_depth)
        self.min_leaf = int(min_leaf)
        self.feature_subset = feature_subset
        self.bootstrap = bool(bootstrap)
        self.seed = int(seed)
        self.n_features_ = None

    def fit(self, X, y):
        X, y = check_fit_inputs(X, y)
        check_tree_count(self.trees)
        self.standardizer_ = Standardizer().fit(X)
        Xs = self.standardizer_.transform(X)
        d = Xs.shape[1]
        subset = (
            math.ceil(math.sqrt(d)) if self.feature_subset is None else int(self.feature_subset)
        )
        trees = grow_forest(
            Xs,
            y,
            self.trees,
            max_depth=self.max_depth,
            min_leaf=self.min_leaf,
            feature_subset=subset,
            seed=self.seed,
            rng=np.random.default_rng(self.seed) if self.bootstrap else None,
        )
        self.table_ = TreeTable(trees)
        self.n_features_ = d
        return self

    def predict(self, X) -> np.ndarray:
        X = self._check_predict_input(X)
        Xs = self.standardizer_.transform(X)
        return self.table_.sums(Xs, 0.0, 1.0) / self.table_.n_trees

    def fitted_params(self) -> dict:
        return {"trees": self.table_.to_dicts()}

    def load_fitted_params(self, params, standardizer):
        self.table_ = TreeTable(params["trees"], n_features=standardizer.means_.shape[0])
        self.standardizer_ = standardizer
        self.n_features_ = standardizer.means_.shape[0]
