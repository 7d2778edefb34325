"""The presorted tree builder and the flat-table predict against plain
reference implementations: a recursive builder that sorts every feature at
every node, and a per-row, per-tree descent. Results must be equal bit for
bit, and so must the random stream the forest draws feature subsets from.
"""

import json

import numpy as np
import pytest

from impforecast.bundle import ChannelModel
from impforecast.domain import FeatureGroup, ModelKind
from impforecast.errors import IncompatibleBundleError
from impforecast.regressors import BoostedTreesRegressor, DecisionForestRegressor
from impforecast.regressors.tree import PREDICT_BLOCK_ROWS, TreeTable, build_tree


# --- reference builder: argsort per feature per node ------------------------------


def _reference_best_split(X, y, idx, feature_ids, min_leaf):
    n = idx.shape[0]
    y_node = y[idx]
    total = y_node.sum()
    parent_score = total * total / n
    best = None  # (gain, feature, threshold)
    for f in feature_ids:
        x = X[idx, f]
        order = np.argsort(x)
        xs = x[order]
        csum = np.cumsum(y_node[order])
        counts = np.arange(min_leaf, n - min_leaf + 1)
        if counts.size == 0:
            continue
        boundary = xs[counts - 1] < xs[counts]
        counts = counts[boundary]
        if counts.size == 0:
            continue
        left_sum = csum[counts - 1]
        right_sum = total - left_sum
        score = left_sum**2 / counts + right_sum**2 / (n - counts)
        k = int(np.argmax(score))
        gain = float(score[k]) - parent_score
        if gain <= 0.0:
            continue
        if best is None or gain > best[0]:
            lo, hi = xs[counts[k] - 1], xs[counts[k]]
            thr = 0.5 * (lo + hi)
            if not thr < hi:
                thr = lo
            best = (gain, int(f), float(thr))
    return best


def reference_build(X, y, *, max_depth, min_leaf, feature_subset=None, rng=None, train_pred=None):
    n, d = X.shape
    subset = d if feature_subset is None else min(int(feature_subset), d)
    feature, threshold, left, right, value = [], [], [], [], []

    def grow(idx, depth):
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        y_node = y[idx]
        mean = float(y_node.mean())
        best = None
        if depth < max_depth and idx.shape[0] >= 2 * min_leaf and y_node.min() < y_node.max():
            feats = np.sort(rng.choice(d, size=subset, replace=False)) if subset < d else np.arange(d)
            best = _reference_best_split(X, y, idx, feats, min_leaf)
        if best is None:
            value[node] = mean
            if train_pred is not None:
                train_pred[idx] = mean
            return node
        _, f, thr = best
        feature[node] = f
        threshold[node] = thr
        mask = X[idx, f] <= thr
        left[node] = grow(idx[mask], depth + 1)
        right[node] = grow(idx[~mask], depth + 1)
        return node

    grow(np.arange(n), 0)
    return {
        "feature": np.array(feature, dtype=np.int64),
        "threshold": np.array(threshold, dtype=float),
        "left": np.array(left, dtype=np.int64),
        "right": np.array(right, dtype=np.int64),
        "value": np.array(value, dtype=float),
    }


def reference_leaf_values(trees, X):
    """(rows, trees) leaf values by walking each tree for each row."""
    out = np.empty((X.shape[0], len(trees)))
    for t, tree in enumerate(trees):
        for i in range(X.shape[0]):
            node = 0
            while tree["feature"][node] >= 0:
                go_left = X[i, tree["feature"][node]] <= tree["threshold"][node]
                node = tree["left"][node] if go_left else tree["right"][node]
            out[i, t] = tree["value"][node]
    return out


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# --- builder ----------------------------------------------------------------------


@pytest.mark.parametrize("d", [1, 4, 13])
@pytest.mark.parametrize("subset", [None, 2])
@pytest.mark.parametrize("bootstrap", [False, True])
@pytest.mark.parametrize("min_leaf", [1, 2])
def test_build_tree_matches_reference(d, subset, bootstrap, min_leaf):
    data = np.random.default_rng(100 * d + min_leaf)
    n = 56
    X = data.normal(size=(n, d))
    y = np.sin(2.0 * X[:, 0]) + X[:, -1] + 0.3 * data.normal(size=n)
    for tree_index in range(8):
        seed = 1000 + tree_index
        ref_rng, new_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        if bootstrap:  # duplicated rows, as the forest's resamples have
            sample = ref_rng.integers(0, n, size=n)
            assert same_bits(sample, new_rng.integers(0, n, size=n))
            Xt, yt = X[sample], y[sample]
        else:
            Xt, yt = X, y
        ref_fill, new_fill = np.full(n, np.nan), np.full(n, np.nan)
        kwargs = dict(max_depth=8, min_leaf=min_leaf, feature_subset=subset)
        ref = reference_build(Xt, yt, rng=ref_rng, train_pred=ref_fill, **kwargs)
        tree = build_tree(Xt, yt, rng=new_rng, train_pred=new_fill, **kwargs)
        for name, expected in ref.items():
            assert same_bits(getattr(tree, name), expected), name
        assert ref["feature"].shape[0] > 1
        assert same_bits(new_fill, ref_fill)
        assert new_rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("subset", [None, 2])
@pytest.mark.parametrize("min_leaf", [1, 3])
def test_build_tree_matches_reference_on_tied_values(subset, min_leaf):
    # Small integers: many equal feature values and equal split scores, so
    # the tie-breaks decide; their sums are exact in any order.
    data = np.random.default_rng(7 + min_leaf)
    X = data.integers(0, 5, size=(56, 4)).astype(float)
    y = data.integers(0, 4, size=56).astype(float)
    for seed in range(6):
        ref_rng, new_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        kwargs = dict(max_depth=6, min_leaf=min_leaf, feature_subset=subset)
        ref = reference_build(X, y, rng=ref_rng, **kwargs)
        tree = build_tree(X, y, rng=new_rng, **kwargs)
        for name, expected in ref.items():
            assert same_bits(getattr(tree, name), expected), name
        assert new_rng.bit_generator.state == ref_rng.bit_generator.state


def test_build_tree_depth_limit_matches_reference():
    data = np.random.default_rng(5)
    X, y = data.normal(size=(40, 3)), data.normal(size=40)
    for max_depth in range(0, 5):
        ref = reference_build(X, y, max_depth=max_depth, min_leaf=2)
        tree = build_tree(X, y, max_depth=max_depth, min_leaf=2)
        for name, expected in ref.items():
            assert same_bits(getattr(tree, name), expected), name


# --- predict ----------------------------------------------------------------------


def fitted_ensembles():
    data = np.random.default_rng(21)
    X = data.normal(size=(56, 13))
    y = X[:, 0] - np.cos(X[:, 3]) + 0.2 * data.normal(size=56)
    forest = DecisionForestRegressor(trees=30, seed=4).fit(X, y)
    boost = BoostedTreesRegressor(trees=40).fit(X, y)
    return forest, boost


def reference_predict(model, X):
    Xs = model.standardizer_.transform(X)
    values = reference_leaf_values(model.fitted_params()["trees"], Xs)
    if isinstance(model, DecisionForestRegressor):
        acc = np.zeros(X.shape[0])
        for t in range(values.shape[1]):
            acc += values[:, t]
        return [acc / values.shape[1]]
    acc = np.full(X.shape[0], model.base_value_)
    stages = []
    for w, t in zip(model.fitted_params()["tree_weights"], range(values.shape[1])):
        acc += w * values[:, t]
        stages.append(acc.copy())
    return stages


def round_trip(model):
    kind = ModelKind.DFR if isinstance(model, DecisionForestRegressor) else ModelKind.BDTR
    saved = ChannelModel(channel=1, kind=kind, group=FeatureGroup.G2, rmse=0.0, estimator=model)
    return ChannelModel.from_dict(json.loads(json.dumps(saved.to_dict()))).estimator


@pytest.mark.parametrize(
    "rows", [1, PREDICT_BLOCK_ROWS - 1, PREDICT_BLOCK_ROWS, PREDICT_BLOCK_ROWS + 1]
)
def test_predict_matches_per_row_per_tree_descent(rows):
    forest, boost = fitted_ensembles()
    X = np.random.default_rng(rows).normal(scale=1.5, size=(rows, 13))
    for model in (forest, boost):
        expected = reference_predict(model, X)
        for candidate in (model, round_trip(model)):
            assert same_bits(candidate.predict(X), expected[-1])
            if isinstance(model, BoostedTreesRegressor):
                staged = list(candidate.staged_predict(X))
                assert len(staged) == len(expected)
                assert all(same_bits(s, e) for s, e in zip(staged, expected))


def test_single_tree_predict_matches_descent():
    data = np.random.default_rng(8)
    X, y = data.normal(size=(50, 4)), data.normal(size=50)
    tree = build_tree(X, y, max_depth=6, min_leaf=1)
    Xq = data.normal(size=(PREDICT_BLOCK_ROWS + 3, 4))
    expected = reference_leaf_values([tree.to_dict()], Xq)[:, 0]
    assert same_bits(tree.predict(Xq), expected)


def test_empty_batch_predicts_nothing():
    forest, boost = fitted_ensembles()
    for model in (forest, boost):
        assert model.predict(np.empty((0, 13))).shape == (0,)


def test_table_round_trips_tree_dicts():
    forest, _ = fitted_ensembles()
    dicts = forest.fitted_params()["trees"]
    assert TreeTable(dicts, n_features=13).to_dicts() == dicts


# --- validation of persisted tables ------------------------------------------------


def stump():
    return {
        "feature": [0, -1, -1],
        "threshold": [0.5, 0.0, 0.0],
        "left": [1, -1, -1],
        "right": [2, -1, -1],
        "value": [0.0, 1.0, 2.0],
    }


@pytest.mark.parametrize(
    "field, index, value",
    [
        ("left", 0, 0),  # self-loop
        ("right", 0, 0),
        ("left", 0, 999),  # beyond the tree
        ("right", 0, 3),
        ("left", 0, -1),  # internal node without a child
        ("left", 1, 2),  # leaf with a child
        ("feature", 1, -2),
        ("feature", 0, 4),  # beyond n_features
        ("threshold", 0, "x"),
        ("value", 2, None),
    ],
)
def test_malformed_tree_rejected(field, index, value):
    tree = stump()
    tree[field][index] = value
    with pytest.raises(IncompatibleBundleError):
        TreeTable([stump(), tree], n_features=4)


def test_ragged_or_empty_tables_rejected():
    short = stump()
    short["value"] = short["value"][:2]
    for trees in ([short], [], [{k: [] for k in stump()}], [{"feature": [-1]}]):
        with pytest.raises(IncompatibleBundleError):
            TreeTable(trees, n_features=4)
    assert TreeTable([stump()], n_features=4).depth == 1


@pytest.mark.parametrize("weights", [[0.1], ["x"] * 40, None])
def test_boosting_weights_must_match_trees(weights):
    _, boost = fitted_ensembles()
    saved = ChannelModel(
        channel=1, kind=ModelKind.BDTR, group=FeatureGroup.G2, rmse=0.0, estimator=boost
    ).to_dict()
    saved["params"]["tree_weights"] = weights
    with pytest.raises(IncompatibleBundleError):
        ChannelModel.from_dict(saved)
