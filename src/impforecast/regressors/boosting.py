"""Least-squares gradient boosting over shallow regression trees."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..domain import ModelKind
from ..errors import IncompatibleBundleError
from .base import BaseRegressor, loaded_numbers
from .hyper import BoostConfig
from .tree import TreeTable, build_tree, presort


class BoostedTreesRegressor(BaseRegressor):
    """Stagewise additive model: start at mean(y), fit each tree to the
    current residuals, add it scaled by ``learning_rate``.

    Training is fully deterministic (no subsampling), so the seed goes
    unused.
    """

    kind = ModelKind.BDTR
    Config = BoostConfig

    fit = BaseRegressor.fit

    @classmethod
    def _fit_columns(cls, estimators, Xs, Yt) -> list:
        """Boost every column on one ``presort`` of ``Xs``."""
        order = presort(Xs)
        for estimator, y in zip(estimators, Yt):
            estimator._boost(Xs, y, order)
        return estimators

    def _boost(self, Xs, y, order) -> None:
        hyper = self.hyper
        self.base_value_ = float(y.mean())
        residual = y - self.base_value_
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

    def predict(self, X) -> np.ndarray:
        return self.table_.sums(self._standardized(X), self.base_value_, self.hyper.learning_rate)

    def staged_predict(self, X) -> Iterator[np.ndarray]:
        """Predictions after 1, 2, ..., T trees (copies)."""
        stages = self.table_.staged_sums(
            self._standardized(X), self.base_value_, self.hyper.learning_rate
        )
        for t in range(stages.shape[1]):
            yield stages[:, t].copy()

    def fitted_params(self) -> dict:
        return {
            "base_value": self.base_value_,
            "trees": self.table_.to_dicts(),
        }

    def _load_params(self, params, d):
        table = TreeTable(params["trees"], n_features=d, n_trees=self.hyper.trees)
        self.base_value_ = float(loaded_numbers(params["base_value"], "base_value", ()))
        if "tree_weights" in params:  # written by older versions, one entry per tree
            weights = loaded_numbers(params["tree_weights"], "tree_weights", (table.n_trees,))
            if np.any(weights != self.hyper.learning_rate):
                raise IncompatibleBundleError("every tree weight must equal learning_rate")
        self.table_ = table
