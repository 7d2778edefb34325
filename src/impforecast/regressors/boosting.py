"""Least-squares gradient boosting over shallow regression trees."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..domain import ModelKind
from .base import BaseRegressor, loaded_numbers
from .hyper import BoostConfig
from .tree import SplitMemo, TreeTable, build_tree, with_grown_table


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
        return [estimator._boost(Xs, y) for estimator, y in zip(estimators, Yt)]

    def _boost(self, Xs, y):
        """Grow the trees of one column over one ``SplitMemo`` of ``Xs``;
        returns the estimator, or the DegenerateInputError of ``with_grown_table``.

        The stages differ only in their residuals, so most of a stage's
        nodes have the rows of a node that an earlier stage split. The memo
        keys a child node by its parent's split (feature, left count) and
        keeps what does not depend on the residuals: the node's presorted
        block, its tie mask, its left/right counts and its children. A
        stage that meets a known node only gathers its residuals, takes
        their cumulative sums and scores them. The memo is dropped when the
        column's last stage is grown. Columns do not share one: they reach
        few of the same nodes, and a shared memo would hold every column's
        nodes at once.
        """
        hyper = self.hyper
        memo = SplitMemo(Xs)
        self.base_value_ = float(y.mean())
        residual = y - self.base_value_
        trees = []
        stage_pred = np.empty(Xs.shape[0], dtype=float)
        for _ in range(hyper.trees):
            tree = build_tree(
                memo,
                residual,
                max_depth=hyper.max_depth,
                min_leaf=hyper.min_leaf,
                train_pred=stage_pred,
            )
            residual = residual - hyper.learning_rate * stage_pred
            trees.append(tree)
        return with_grown_table(self, trees, n_features=Xs.shape[1], n_trees=hyper.trees)

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
        self.table_ = TreeTable(params["trees"], n_features=d, n_trees=self.hyper.trees)
        self.base_value_ = float(loaded_numbers(params["base_value"], "base_value", ()))
