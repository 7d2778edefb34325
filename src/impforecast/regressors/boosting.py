"""Least-squares gradient boosting over shallow regression trees."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..domain import ModelKind
from ..errors import IncompatibleBundleError
from .base import BaseRegressor, check_fit_inputs, loaded_numbers
from .hyper import BoostConfig
from .scaling import Standardizer
from .tree import TreeTable, build_tree, presort


class BoostedTreesRegressor(BaseRegressor):
    """Stagewise additive model: start at mean(y), fit each tree to the
    current residuals, add it scaled by ``learning_rate``.

    Training is fully deterministic (no subsampling), so the seed goes
    unused.
    """

    kind = ModelKind.BDTR
    Config = BoostConfig

    def fit(self, X, y):
        X, y = check_fit_inputs(X, y)
        hyper = self.hyper
        self.standardizer_ = Standardizer().fit(X)
        Xs = self.standardizer_.transform(X)
        self.base_value_ = float(y.mean())
        residual = y - self.base_value_
        order = presort(Xs)
        trees = []
        stage_pred = np.empty(Xs.shape[0], dtype=float)
        for _ in range(hyper.trees):
            tree = build_tree(
                Xs,
                residual,
                max_depth=hyper.max_depth,
                min_leaf=hyper.min_leaf,
                train_pred=stage_pred,
                order=order,
            )
            residual = residual - hyper.learning_rate * stage_pred
            trees.append(tree)
        self.table_ = TreeTable(trees, n_features=Xs.shape[1], n_trees=hyper.trees)
        self.n_features_ = Xs.shape[1]
        return self

    def predict(self, X) -> np.ndarray:
        X = self._check_predict_input(X)
        Xs = self.standardizer_.transform(X)
        return self.table_.sums(Xs, self.base_value_, self.hyper.learning_rate)

    def staged_predict(self, X) -> Iterator[np.ndarray]:
        """Predictions after 1, 2, ..., T trees (copies)."""
        X = self._check_predict_input(X)
        Xs = self.standardizer_.transform(X)
        stages = self.table_.staged_sums(Xs, self.base_value_, self.hyper.learning_rate)
        for t in range(stages.shape[1]):
            yield stages[:, t].copy()

    def fitted_params(self) -> dict:
        return {
            "base_value": self.base_value_,
            "trees": self.table_.to_dicts(),
        }

    def load_fitted_params(self, params, standardizer):
        table = TreeTable(
            params["trees"], n_features=standardizer.means_.shape[0], n_trees=self.hyper.trees
        )
        self.base_value_ = float(loaded_numbers(params["base_value"], "base_value", ()))
        if "tree_weights" in params:  # written by older versions, one entry per tree
            weights = loaded_numbers(params["tree_weights"], "tree_weights", (table.n_trees,))
            if np.any(weights != self.hyper.learning_rate):
                raise IncompatibleBundleError("every tree weight must equal learning_rate")
        self.table_ = table
        self.standardizer_ = standardizer
        self.n_features_ = standardizer.means_.shape[0]
