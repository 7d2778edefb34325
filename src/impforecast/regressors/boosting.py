"""Least-squares gradient boosting over shallow regression trees."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..domain import ModelKind
from .base import BaseRegressor, check_fit_inputs, loaded_numbers
from .scaling import Standardizer
from .tree import TreeTable, build_tree, check_tree_count, presort


class BoostedTreesRegressor(BaseRegressor):
    """Stagewise additive model: start at mean(y), fit each tree to the
    current residuals, add it scaled by ``learning_rate``.

    Training is fully deterministic (no subsampling), so the seed is only
    kept for interface uniformity.
    """

    kind = ModelKind.BDTR

    def __init__(
        self,
        trees: int = 200,
        max_depth: int = 3,
        learning_rate: float = 0.1,
        min_leaf: int = 2,
        seed: int = 0,
    ):
        self.trees = int(trees)
        self.max_depth = int(max_depth)
        self.learning_rate = float(learning_rate)
        self.min_leaf = int(min_leaf)
        self.seed = int(seed)
        self.n_features_ = None

    def fit(self, X, y):
        X, y = check_fit_inputs(X, y)
        check_tree_count(self.trees)
        self.standardizer_ = Standardizer().fit(X)
        Xs = self.standardizer_.transform(X)
        self.base_value_ = float(y.mean())
        residual = y - self.base_value_
        order = presort(Xs)
        trees = []
        stage_pred = np.empty(Xs.shape[0], dtype=float)
        for _ in range(self.trees):
            tree = build_tree(
                Xs,
                residual,
                max_depth=self.max_depth,
                min_leaf=self.min_leaf,
                train_pred=stage_pred,
                order=order,
            )
            residual = residual - self.learning_rate * stage_pred
            trees.append(tree)
        self.table_ = TreeTable(trees)
        self.tree_weights_ = np.full(self.table_.n_trees, self.learning_rate)
        self.n_features_ = Xs.shape[1]
        return self

    def predict(self, X) -> np.ndarray:
        X = self._check_predict_input(X)
        Xs = self.standardizer_.transform(X)
        return self.table_.sums(Xs, self.base_value_, self.tree_weights_)

    def staged_predict(self, X) -> Iterator[np.ndarray]:
        """Predictions after 1, 2, ..., T trees (copies)."""
        X = self._check_predict_input(X)
        Xs = self.standardizer_.transform(X)
        stages = self.table_.staged_sums(Xs, self.base_value_, self.tree_weights_)
        for t in range(stages.shape[1]):
            yield stages[:, t].copy()

    def fitted_params(self) -> dict:
        return {
            "base_value": self.base_value_,
            "tree_weights": self.tree_weights_.tolist(),
            "trees": self.table_.to_dicts(),
        }

    def load_fitted_params(self, params, standardizer):
        table = TreeTable(params["trees"], n_features=standardizer.means_.shape[0])
        self.base_value_ = float(loaded_numbers(params["base_value"], "base_value", ()))
        self.tree_weights_ = loaded_numbers(params["tree_weights"], "tree_weights", (table.n_trees,))
        self.table_ = table
        self.standardizer_ = standardizer
        self.n_features_ = standardizer.means_.shape[0]
