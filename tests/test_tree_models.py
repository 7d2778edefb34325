import json

import numpy as np
import pytest

from impforecast.regressors import (
    BoostedTreesRegressor,
    DecisionForestRegressor,
)
from impforecast.regressors.tree import SplitMemo, TreeTable, build_tree


def problem(n=40, d=5, seed=0, noise=0.3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = np.sin(X[:, 0]) + 0.5 * X[:, min(1, d - 1)] + noise * rng.normal(size=n)
    return X, y


def grow(X, y, **kwargs):
    """build_tree's dict and the leaf value it recorded for every training row."""
    fill = np.full(len(y), np.nan)
    return build_tree(SplitMemo(X), y, train_pred=fill, **kwargs), fill


def tree_predict(tree, X):
    """The leaf value of every row of X, read through ``TreeTable.leaves``."""
    table = TreeTable([tree], n_features=X.shape[1], n_trees=1)
    out = np.empty(X.shape[0])
    for rows, leaf in table.leaves(X):
        out[rows] = table.value[leaf[:, 0]]
    return out


class TestTreeBuilder:
    def test_depth_zero_is_the_mean(self):
        X, y = problem()
        tree, _ = grow(X, y, max_depth=0, min_leaf=1)
        assert len(tree["feature"]) == 1
        np.testing.assert_array_equal(tree_predict(tree, X), np.full(len(y), y.mean()))

    def test_train_fill_matches_predict(self):
        # leaf assignment recorded during building must agree with routing
        # through the finished tree
        for seed in range(5):
            X, y = problem(seed=seed)
            tree, fill = grow(X, y, max_depth=6, min_leaf=2)
            np.testing.assert_array_equal(fill, tree_predict(tree, X))

    def test_pure_node_stops(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        y = np.full(10, 3.25)
        tree, _ = grow(X, y, max_depth=5, min_leaf=1)
        assert len(tree["feature"]) == 1

    def test_min_leaf_respected(self):
        X, y = problem(n=30)
        tree, _ = grow(X, y, max_depth=10, min_leaf=5)
        feature, threshold, left, right = (tree[k] for k in ("feature", "threshold", "left", "right"))
        # every leaf must hold >= 5 training rows
        leaf_of_row = np.empty(len(y), dtype=int)
        for i in range(len(y)):
            node = 0
            while feature[node] >= 0:
                node = left[node] if X[i, feature[node]] <= threshold[node] else right[node]
            leaf_of_row[i] = node
        _, counts = np.unique(leaf_of_row, return_counts=True)
        assert counts.min() >= 5

    def test_perfect_split_found(self):
        X = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
        y = np.array([1.0, 1.0, 1.0, 9.0, 9.0, 9.0])
        tree, _ = grow(X, y, max_depth=1, min_leaf=1)
        np.testing.assert_array_equal(tree_predict(tree, X), y)

    def test_serialization_roundtrip(self):
        X, y = problem(seed=2)
        tree, _ = grow(X, y, max_depth=4, min_leaf=2)
        clone = json.loads(json.dumps(tree))
        table = TreeTable([clone], n_features=X.shape[1], n_trees=1)
        assert table.to_dicts() == [clone]
        np.testing.assert_array_equal(tree_predict(tree, X), tree_predict(clone, X))


class TestDecisionForest:
    def test_single_stump_without_bootstrap_is_exact_mean(self):
        X, y = problem()
        model = DecisionForestRegressor(trees=1, max_depth=0, bootstrap=False).fit(X, y)
        pred = model.predict(np.vstack([X, X * 10.0]))
        assert np.all(pred == y.mean())

    def test_predictions_within_training_range(self):
        for seed in range(5):
            X, y = problem(seed=seed)
            model = DecisionForestRegressor(trees=30, seed=seed).fit(X, y)
            rng = np.random.default_rng(seed + 100)
            pred = model.predict(rng.normal(scale=5.0, size=(50, X.shape[1])))
            assert pred.min() >= y.min() - 1e-12
            assert pred.max() <= y.max() + 1e-12

    def test_affine_feature_equivariance(self):
        # threshold splits only depend on feature order, so an affine
        # rescaling of the inputs must leave predictions unchanged
        X, y = problem(seed=4)
        scale = np.array([3.0, 0.5, 10.0, 1.0, 2.0])
        shift = np.array([-1.0, 4.0, 0.0, 7.0, 0.25])
        Xq = X * scale + shift
        m1 = DecisionForestRegressor(trees=25, seed=9).fit(X, y)
        m2 = DecisionForestRegressor(trees=25, seed=9).fit(Xq, y)
        Xt = np.random.default_rng(5).normal(size=(20, 5))
        np.testing.assert_array_equal(m1.predict(Xt), m2.predict(Xt * scale + shift))

    def test_fits_signal_better_than_mean(self):
        X, y = problem(n=120, seed=6, noise=0.1)
        model = DecisionForestRegressor(trees=60, seed=1).fit(X, y)
        resid = y - model.predict(X)
        assert resid @ resid < 0.5 * np.sum((y - y.mean()) ** 2)


class TestBoostedTrees:
    def test_training_mse_non_increasing_stagewise(self):
        for seed in range(4):
            X, y = problem(n=50, seed=seed)
            model = BoostedTreesRegressor(trees=80, learning_rate=0.1).fit(X, y)
            mses = [float(np.mean((p - y) ** 2)) for p in model.staged_predict(X)]
            diffs = np.diff(mses)
            assert np.all(diffs <= 1e-12)

    def test_staged_equals_brute_force_refit(self):
        # refitting with T trees reproduces the length-T prefix exactly
        X, y = problem(n=30, d=3, seed=9)
        full = BoostedTreesRegressor(trees=50, max_depth=2, learning_rate=0.1).fit(X, y)
        staged = [float(np.mean((p - y) ** 2)) for p in full.staged_predict(X)]
        for T in range(1, 51):
            refit = BoostedTreesRegressor(trees=T, max_depth=2, learning_rate=0.1).fit(X, y)
            mse = float(np.mean((refit.predict(X) - y) ** 2))
            assert mse == pytest.approx(staged[T - 1], abs=1e-12)

    def test_zero_trees_not_allowed_but_one_tree_works(self):
        X, y = problem()
        model = BoostedTreesRegressor(trees=1, learning_rate=1.0).fit(X, y)
        assert np.all(np.isfinite(model.predict(X)))
        for cls in (BoostedTreesRegressor, DecisionForestRegressor):
            with pytest.raises(ValueError):
                cls(trees=0)

    def test_base_value_is_target_mean(self):
        X, y = problem(seed=3)
        model = BoostedTreesRegressor(trees=5).fit(X, y)
        assert model.base_value_ == y.mean()

    def test_affine_feature_equivariance(self):
        X, y = problem(seed=10, d=4)
        scale = np.array([2.0, 5.0, 0.1, 1.0])
        m1 = BoostedTreesRegressor(trees=40).fit(X, y)
        m2 = BoostedTreesRegressor(trees=40).fit(X * scale, y)
        Xt = np.random.default_rng(11).normal(size=(15, 4))
        np.testing.assert_array_equal(m1.predict(Xt), m2.predict(Xt * scale))

    def test_learning_rate_one_interpolates_faster(self):
        X, y = problem(n=40, seed=12, noise=0.0)
        fast = BoostedTreesRegressor(trees=30, learning_rate=1.0, min_leaf=1, max_depth=6).fit(X, y)
        slow = BoostedTreesRegressor(trees=30, learning_rate=0.05, min_leaf=1, max_depth=6).fit(X, y)
        mse_fast = float(np.mean((fast.predict(X) - y) ** 2))
        mse_slow = float(np.mean((slow.predict(X) - y) ** 2))
        assert mse_fast < mse_slow
