"""Decision forest regression: bagged variance-reduction trees."""

from __future__ import annotations

import math

import numpy as np

from ..domain import ModelKind
from .base import BaseRegressor, check_joint_columns, fit_one_column
from .hyper import ForestConfig
from .scaling import Standardizer
from .tree import TreeTable, grow_forest


class DecisionForestRegressor(BaseRegressor):
    """Average of ``trees`` CART trees, each grown on a bootstrap resample.

    ``feature_subset`` features are considered at every split (default
    ceil(sqrt(d))), chosen per node by a key derived from ``seed``, the
    tree and the node's path (see ``tree.grow_forest``). Predictions are
    the plain mean over trees, so they can never leave
    [min(y_train), max(y_train)]. ``fit`` is ``fit_columns`` on one column.
    """

    kind = ModelKind.DFR
    Config = ForestConfig

    fit = fit_one_column

    @classmethod
    def fit_columns(cls, estimators, X, Y) -> list:
        """Grow the forests of every column of ``Y`` together, in one
        ``grow_forest`` pass.

        The estimators must differ only in ``seed``. Each column's trees
        have the bits of a fit of its estimator on that column alone. A
        column that ``check_fit_inputs`` rejects gets its FitError.
        """
        X, Y, outcomes, live = check_joint_columns(estimators, X, Y)
        if not live:
            return outcomes
        hyper = estimators[live[0]].hyper
        standardizer = Standardizer().fit(X)
        Xs = standardizer.transform(X)
        d = Xs.shape[1]
        seeds = [estimators[j].seed for j in live]
        forests = grow_forest(
            Xs,
            Y[:, live],
            hyper.trees,
            max_depth=hyper.max_depth,
            min_leaf=hyper.min_leaf,
            feature_subset=(
                math.ceil(math.sqrt(d)) if hyper.feature_subset is None else hyper.feature_subset
            ),
            seeds=seeds,
            rngs=[np.random.default_rng(s) for s in seeds] if hyper.bootstrap else None,
        )
        for j, trees in zip(live, forests):
            estimator = estimators[j]
            estimator.table_ = TreeTable(trees, n_features=d, n_trees=hyper.trees)
            estimator.standardizer_ = standardizer
            estimator.n_features_ = d
            outcomes[j] = estimator
        return outcomes

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
