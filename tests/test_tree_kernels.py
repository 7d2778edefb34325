"""The presorted tree builders and the flat-table predict against plain
reference implementations: a recursive builder that sorts every feature at
every node, and a per-row, per-tree descent. Results must be equal bit for
bit. Trees grown one after another on one ``SplitMemo`` must each equal
the reference, and so must every stage of a boosting fit. The
level-synchronous forest grower must equal the reference built tree by
tree, with the same bootstrap draws and the same keyed feature subsets,
and the forests of several target columns grown together must equal
forests fit on each column alone.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from impforecast.bundle import ChannelModel, bundle_from_json, bundle_to_json
from impforecast.domain import FeatureGroup, ModelKind
from impforecast.errors import DegenerateInputError, IncompatibleBundleError
from impforecast.regressors import BoostedTreesRegressor, DecisionForestRegressor
from impforecast.regressors.tree import (
    PREDICT_BLOCK_ROWS,
    SplitMemo,
    TreeTable,
    build_tree,
    grow_forest,
)
from impforecast.seeding import _splitmix64, derive_seed, splitmix64_array


# --- reference builder: argsort per feature per node ------------------------------


def _reference_best_split(X, y, idx, feature_ids, min_leaf):
    n = idx.shape[0]
    y_node = y[idx]
    total = y_node.sum()
    parent_score = total * total / n
    best = None  # (gain, feature, threshold)
    for f in feature_ids:
        x = X[idx, f]
        order = np.argsort(x, kind="stable")  # ties in row order, so sums keep their bits
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


def reference_features(key, d, subset):
    """The keyed subset rule, for one node, in Python integers: the
    ``subset`` features with the smallest splitmix64(key ^ (3 + f)), ties
    to the lower f, ascending."""
    priority = {f: _splitmix64(key ^ (3 + f)) for f in range(d)}
    return np.array(sorted(sorted(range(d), key=lambda f: (priority[f], f))[:subset]))


def reference_build(X, y, *, max_depth, min_leaf, feature_subset=None, key=0, train_pred=None):
    n, d = X.shape
    subset = d if feature_subset is None else min(int(feature_subset), d)
    feature, threshold, left, right, value = [], [], [], [], []

    def grow(idx, depth, key):
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
            feats = reference_features(key, d, subset) if subset < d else np.arange(d)
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
        left[node] = grow(idx[mask], depth + 1, _splitmix64(key ^ 1))
        right[node] = grow(idx[~mask], depth + 1, _splitmix64(key ^ 2))
        return node

    grow(np.arange(n), 0, key)
    return {
        "feature": np.array(feature, dtype=np.int64),
        "threshold": np.array(threshold, dtype=float),
        "left": np.array(left, dtype=np.int64),
        "right": np.array(right, dtype=np.int64),
        "value": np.array(value, dtype=float),
    }


def reference_forest(X, y, trees, *, seed, rng, **kwargs):
    """Tree by tree: draw tree t's bootstrap sample from ``rng`` (all rows
    when None), then grow it with root key derive_seed(seed, t). Returns
    each tree's table, training matrix and leaf value per training row."""
    n = X.shape[0]
    out = []
    for t in range(trees):
        sample = np.arange(n) if rng is None else rng.integers(0, n, size=n)
        fill = np.full(n, np.nan)
        tree = reference_build(
            X[sample], y[sample], key=derive_seed(seed, t), train_pred=fill, **kwargs
        )
        out.append((tree, X[sample], y[sample], fill))
    return out


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


NODE_DTYPES = {"feature": np.int64, "threshold": float, "left": np.int64, "right": np.int64,
               "value": float}


def table_leaf_values(table, X):
    """(rows, trees) leaf values read through ``TreeTable.leaves``."""
    out = np.empty((X.shape[0], table.n_trees))
    for rows, leaf in table.leaves(X):
        out[rows] = table.value[leaf]
    return out


def tree_predict(tree, X):
    """The leaf value of every row of X in one tree dict."""
    return table_leaf_values(TreeTable([tree], n_features=X.shape[1], n_trees=1), X)[:, 0]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_forest_matches_reference(X, y, trees, *, seed, bootstrap, min_nodes=1, **kwargs):
    """grow_forest equals the reference bit for bit: every tree's node
    table, the leaf value of every training row, and the rng state after
    the bootstrap draws. Where every feature is considered, so does
    build_tree on each tree's sample. Returns the reference trees."""
    ref_rng = np.random.default_rng(seed) if bootstrap else None
    new_rng = np.random.default_rng(seed) if bootstrap else None
    expected = reference_forest(X, y, trees, seed=seed, rng=ref_rng, **kwargs)
    (grown,) = grow_forest(
        X, y[:, None], trees, seeds=[seed], rngs=None if new_rng is None else [new_rng], **kwargs
    )
    assert len(grown) == trees
    every_feature = kwargs.get("feature_subset") is None or kwargs["feature_subset"] >= X.shape[1]
    for tree, (ref, Xt, yt, ref_fill) in zip(grown, expected):
        for name, value in ref.items():
            assert same_bits(np.asarray(tree[name], dtype=value.dtype), value), name
        assert ref["feature"].shape[0] >= min_nodes
        assert same_bits(tree_predict(tree, Xt), ref_fill)
        if every_feature:
            fill = np.full(Xt.shape[0], np.nan)
            depth_first = build_tree(SplitMemo(Xt), yt, train_pred=fill, **{
                k: v for k, v in kwargs.items() if k != "feature_subset"
            })
            for name, value in ref.items():
                assert same_bits(np.asarray(depth_first[name], dtype=value.dtype), value), name
            assert same_bits(fill, ref_fill)
    if bootstrap:
        assert new_rng.bit_generator.state == ref_rng.bit_generator.state
    return [ref for ref, *_ in expected]


# --- builders ---------------------------------------------------------------------


def test_splitmix64_array_matches_scalar():
    values = [0, 1, 2, 3, 2**63, 2**64 - 1, 0x9E3779B97F4A7C15, 123456789]
    got = splitmix64_array(np.array(values, dtype=np.uint64))
    assert got.tolist() == [_splitmix64(v) for v in values]


@pytest.mark.parametrize("d", [1, 4, 13])
@pytest.mark.parametrize("subset", [None, 2])
@pytest.mark.parametrize("bootstrap", [False, True])
@pytest.mark.parametrize("min_leaf", [1, 2])
def test_build_tree_matches_reference(d, subset, bootstrap, min_leaf):
    data = np.random.default_rng(100 * d + min_leaf)
    n = 56
    X = data.normal(size=(n, d))
    y = np.sin(2.0 * X[:, 0]) + X[:, -1] + 0.3 * data.normal(size=n)
    # duplicated rows with bootstrap, as the forest's resamples have
    assert_forest_matches_reference(
        X, y, 8, seed=1000, bootstrap=bootstrap, min_nodes=2,
        max_depth=8, min_leaf=min_leaf, feature_subset=subset,
    )


@pytest.mark.parametrize("subset", [None, 2])
@pytest.mark.parametrize("min_leaf", [1, 3])
def test_build_tree_matches_reference_on_tied_values(subset, min_leaf):
    # Small integers: many equal feature values and equal split scores, so
    # the tie-breaks decide; their sums are exact in any order.
    data = np.random.default_rng(7 + min_leaf)
    X = data.integers(0, 5, size=(56, 4)).astype(float)
    y = data.integers(0, 4, size=56).astype(float)
    for seed in range(6):
        for bootstrap in (False, True):
            assert_forest_matches_reference(
                X, y, 3, seed=seed, bootstrap=bootstrap,
                max_depth=6, min_leaf=min_leaf, feature_subset=subset,
            )


def test_build_tree_depth_limit_matches_reference():
    data = np.random.default_rng(5)
    X, y = data.normal(size=(40, 3)), data.normal(size=40)
    for max_depth in range(0, 5):
        assert_forest_matches_reference(
            X, y, 2, seed=max_depth, bootstrap=False, max_depth=max_depth, min_leaf=2
        )


def test_more_features_than_rows_matches_reference():
    data = np.random.default_rng(12)
    X, y = data.normal(size=(6, 13)), data.normal(size=6)
    for bootstrap in (False, True):
        assert_forest_matches_reference(
            X, y, 4, seed=3, bootstrap=bootstrap, min_nodes=2, max_depth=4, min_leaf=1
        )


@st.composite
def forest_problems(draw):
    n = draw(st.integers(2, 60))
    d = draw(st.integers(1, 13))
    data = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # few distinct values give tied features, targets and split scores;
    # features one ulp apart give midpoints that round up to the upper
    # value; rows drawn from a small pool repeat whole rows
    levels = draw(st.sampled_from([2, 3, 5, "ulp", None]))
    pool = draw(st.integers(1, n))
    if levels is None:
        X, y = data.normal(size=(pool, d)), data.normal(size=pool)
    elif levels == "ulp":
        X = 1.0 + data.integers(0, 4, size=(pool, d)) * np.finfo(float).eps
        y = data.integers(0, 3, size=pool).astype(float)
    else:
        X = data.integers(0, levels, size=(pool, d)).astype(float)
        y = data.integers(0, levels, size=pool).astype(float)
    rows = data.integers(0, pool, size=n)
    params = dict(
        trees=draw(st.integers(1, 6)),
        max_depth=draw(st.integers(0, 8)),
        min_leaf=draw(st.integers(1, 4)),
        feature_subset=draw(st.one_of(st.none(), st.integers(1, d))),
        seed=draw(st.integers(0, 2**64 - 1)),
        bootstrap=draw(st.booleans()),
    )
    return X[rows], y[rows], params


@settings(max_examples=200, deadline=None)
@given(forest_problems())
def test_grow_forest_matches_reference_property(problem):
    X, y, params = problem
    trees = params.pop("trees")
    assert_forest_matches_reference(X, y, trees, **params)


@settings(max_examples=200, deadline=None)
@given(forest_problems(), st.integers(0, 4))
def test_build_tree_matches_reference_shallow_property(problem, max_depth):
    # shallow trees, where the nodes at depth max_depth - 1 make both of
    # their leaves at once
    X, y, params = problem
    min_leaf = params["min_leaf"]
    ref_fill, fill = np.full(X.shape[0], np.nan), np.full(X.shape[0], np.nan)
    expected = reference_build(X, y, max_depth=max_depth, min_leaf=min_leaf, train_pred=ref_fill)
    tree = build_tree(SplitMemo(X), y, max_depth=max_depth, min_leaf=min_leaf, train_pred=fill)
    for name, value in expected.items():
        assert same_bits(np.asarray(tree[name], dtype=value.dtype), value), name
    assert same_bits(fill, ref_fill)


@settings(max_examples=50, deadline=None)
@given(forest_problems())
def test_forest_fit_grows_the_reference_trees(problem):
    X, y, params = problem
    model = DecisionForestRegressor(**params).fit(X, y)
    d = X.shape[1]
    subset = params["feature_subset"] or int(np.ceil(np.sqrt(d)))
    expected = reference_forest(
        model.standardizer_.transform(X), y, params["trees"], seed=params["seed"],
        rng=np.random.default_rng(params["seed"]) if params["bootstrap"] else None,
        max_depth=params["max_depth"], min_leaf=params["min_leaf"], feature_subset=subset,
    )
    fitted = model.fitted_params()["trees"]
    assert len(fitted) == len(expected)
    for tree, (ref, *_) in zip(fitted, expected):
        for name, value in ref.items():
            assert same_bits(np.asarray(tree[name], dtype=value.dtype), value), name


@st.composite
def memo_sequences(draw):
    """Integer-valued X, so that values tie and row sets repeat, and a
    sequence of targets with a max_depth and min_leaf each: some fresh,
    some a small step from the one before, as boosting's residuals are."""
    n = draw(st.integers(2, 40))
    d = draw(st.sampled_from([1, 3, 13]))
    data = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = data.integers(0, draw(st.integers(2, 6)), size=(n, d)).astype(float)
    stages = []
    y = data.integers(0, 4, size=n).astype(float)
    for _ in range(draw(st.integers(2, 8))):
        if draw(st.booleans()):
            y = y - 0.25 * data.integers(-2, 3, size=n)
        else:
            y = data.normal(size=n)
        stages.append((y, draw(st.integers(1, 4)), draw(st.integers(1, 3))))
    return X, stages


def _depths_one_three_one():
    """One target grown at max_depth 1, then 3, then 1 again: the second
    tree splits the children that the first made as leaves, and the third
    reaches them again as leaves."""
    data = np.random.default_rng(5)
    X = data.integers(0, 4, size=(24, 3)).astype(float)
    y = data.normal(size=24)
    return X, [(y, 1, 1), (y, 3, 1), (y, 1, 1)]


@settings(max_examples=200, deadline=None)
@given(memo_sequences())
@example(_depths_one_three_one())
def test_trees_on_one_memo_match_reference(problem):
    # Later trees reuse the nodes that earlier trees put in the memo; each
    # must still equal a tree grown from nothing.
    X, stages = problem
    memo = SplitMemo(X)
    for y, max_depth, min_leaf in stages:
        ref_fill, fill = np.full(X.shape[0], np.nan), np.full(X.shape[0], np.nan)
        expected = reference_build(X, y, max_depth=max_depth, min_leaf=min_leaf,
                                   train_pred=ref_fill)
        tree = build_tree(memo, y, max_depth=max_depth, min_leaf=min_leaf, train_pred=fill)
        for name, value in expected.items():
            assert same_bits(np.asarray(tree[name], dtype=value.dtype), value), name
        assert same_bits(fill, ref_fill)


def reference_boost(X, y, *, trees, learning_rate, max_depth, min_leaf):
    """Stagewise least-squares boosting over ``reference_build``: the base
    value and every stage's tree."""
    base = float(y.mean())
    residual = y - base
    grown = []
    for _ in range(trees):
        fill = np.full(X.shape[0], np.nan)
        grown.append(reference_build(X, residual, max_depth=max_depth, min_leaf=min_leaf,
                                     train_pred=fill))
        residual = residual - learning_rate * fill
    return base, grown


@settings(max_examples=30, deadline=None)
@given(forest_problems(), st.integers(1, 4), st.sampled_from([0.1, 0.5, 1.0]))
def test_boosting_fit_matches_reference_stages(problem, max_depth, learning_rate):
    X, y, params = problem
    hyper = dict(trees=params["trees"] * 5, learning_rate=learning_rate, max_depth=max_depth,
                 min_leaf=params["min_leaf"])
    model = BoostedTreesRegressor(**hyper).fit(X, y)
    base, expected = reference_boost(model.standardizer_.transform(X), y, **hyper)
    fitted = model.fitted_params()
    assert same_bits(fitted["base_value"], base)
    assert len(fitted["trees"]) == len(expected)
    for tree, ref in zip(fitted["trees"], expected):
        for name, value in ref.items():
            assert same_bits(np.asarray(tree[name], dtype=value.dtype), value), name


@st.composite
def forest_columns(draw):
    """X with 1-4 target columns, one distinct seed per column, and forest
    hyperparameters."""
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 6))
    columns = draw(st.integers(1, 4))
    data = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([2, 3, None]))  # few levels: tied values
    if levels is None:
        X, Y = data.normal(size=(n, d)), data.normal(size=(n, columns))
    else:
        X = data.integers(0, levels, size=(n, d)).astype(float)
        Y = data.integers(0, levels, size=(n, columns)).astype(float)
    seeds = draw(st.lists(st.integers(0, 2**64 - 1), min_size=columns, max_size=columns,
                          unique=True))
    hyper = dict(
        trees=draw(st.integers(1, 5)),
        max_depth=draw(st.integers(0, 5)),
        min_leaf=draw(st.integers(1, 3)),
        feature_subset=draw(st.sampled_from([None, 1, 2])),
        bootstrap=draw(st.booleans()),
    )
    return X, Y, seeds, hyper


@settings(max_examples=100, deadline=None)
@given(forest_columns())
def test_forest_fit_columns_matches_lone_fits(problem):
    X, Y, seeds, hyper = problem
    (together,) = DecisionForestRegressor.fit_parts(
        [([DecisionForestRegressor(seed=s, **hyper) for s in seeds], X, Y)]
    )
    assert len(together) == len(seeds)
    Xq = np.vstack([X, np.random.default_rng(0).normal(scale=2.0, size=(7, X.shape[1]))])
    for column, (seed, joint) in enumerate(zip(seeds, together)):
        lone = DecisionForestRegressor(seed=seed, **hyper).fit(X, Y[:, column])
        for name in ("feature", "threshold", "children", "value", "starts"):
            assert same_bits(getattr(joint.table_, name), getattr(lone.table_, name)), name
        assert same_bits(joint.predict(Xq), lone.predict(Xq))


def test_forest_fit_columns_needs_shared_hyperparameters():
    X, Y = np.ones((4, 1)), np.ones((4, 2))
    with pytest.raises(ValueError):
        DecisionForestRegressor.fit_parts(
            [([DecisionForestRegressor(trees=5), DecisionForestRegressor(trees=6)], X, Y)]
        )


@pytest.mark.parametrize("cls", [DecisionForestRegressor, BoostedTreesRegressor])
def test_trees_that_overflow_are_a_fit_error_of_their_column(cls):
    """Labels near the float limit are finite, but a node's sum of them is
    not: fit raises DegenerateInputError and fit_parts records it for that
    column only. A loaded table of such numbers stays a malformed bundle."""
    data = np.random.default_rng(8)
    X = data.normal(size=(30, 3))
    y = data.uniform(1.0, 10.0, size=30)
    huge = y * (1.7e308 / y.max())
    with np.errstate(all="ignore"):
        with pytest.raises(DegenerateInputError, match="^grown leaf values are not finite"):
            cls(trees=10, seed=1).fit(X, huge)
        (together,) = cls.fit_parts(
            [([cls(trees=10, seed=s) for s in (1, 2)], X, np.column_stack([huge, y]))]
        )
    assert isinstance(together[0], DegenerateInputError)
    assert same_bits(together[1].predict(X), cls(trees=10, seed=2).fit(X, y).predict(X))
    tree = stump()
    tree["value"][2] = np.inf
    with pytest.raises(IncompatibleBundleError,
                       match="^malformed tree 0: thresholds and values must be finite$"):
        TreeTable([tree], n_features=4, n_trees=1)


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
    for t in range(values.shape[1]):
        acc += model.hyper.learning_rate * values[:, t]
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
    tree = build_tree(SplitMemo(X), y, max_depth=6, min_leaf=1, train_pred=np.empty(50))
    Xq = data.normal(size=(PREDICT_BLOCK_ROWS + 3, 4))
    expected = reference_leaf_values([tree], Xq)[:, 0]
    assert same_bits(tree_predict(tree, Xq), expected)


def test_empty_batch_predicts_nothing():
    forest, boost = fitted_ensembles()
    for model in (forest, boost):
        assert model.predict(np.empty((0, 13))).shape == (0,)


def test_table_round_trips_tree_dicts():
    """The trees of both growers, through to_dicts, JSON and back, keep
    every node array and every leaf value bit for bit."""
    X = np.random.default_rng(2).normal(scale=1.5, size=(PREDICT_BLOCK_ROWS + 3, 13))
    for model in fitted_ensembles():
        table = model.table_
        dicts = table.to_dicts()
        loaded = TreeTable(json.loads(json.dumps(dicts)), n_features=13, n_trees=table.n_trees)
        for name in ("feature", "threshold", "left", "right", "value", "starts"):
            assert same_bits(getattr(loaded, name), getattr(table, name)), name
        again = loaded.to_dicts()
        assert len(again) == len(dicts)
        for tree, ref in zip(again, dicts):
            assert list(tree) == list(ref)
            for name, dtype in NODE_DTYPES.items():
                assert same_bits(np.asarray(tree[name], dtype=dtype),
                                 np.asarray(ref[name], dtype=dtype)), name
        assert same_bits(table_leaf_values(loaded, X), table_leaf_values(table, X))


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
        TreeTable([stump(), tree], n_features=4, n_trees=2)


def test_ragged_or_empty_tables_rejected():
    short = stump()
    short["value"] = short["value"][:2]
    for trees in ([short], [], [{k: [] for k in stump()}], [{"feature": [-1]}]):
        with pytest.raises(IncompatibleBundleError):
            TreeTable(trees, n_features=4, n_trees=len(trees))
    with pytest.raises(IncompatibleBundleError):  # one tree fewer than the count
        TreeTable([stump()], n_features=4, n_trees=2)
    assert TreeTable([stump()], n_features=4, n_trees=1).depth == 1


def bundle_with_tree_weights(bundle, weights) -> str:
    """``bundle``'s JSON with ``weights`` as the ``tree_weights`` of its
    channel-4 model, a boosting one: the form in which the first bundles
    listed ``learning_rate`` once per tree."""
    doc = json.loads(bundle_to_json(bundle))
    entry = doc["models"][3]
    assert entry["kind"] == "BDTR" and "tree_weights" not in entry["params"]
    entry["params"]["tree_weights"] = weights
    return json.dumps(doc)


def test_a_boosting_bundle_with_tree_weights_is_refused(mixed_bundle):
    """No writer writes ``tree_weights``, so a bundle that holds them does
    not save back to itself, even where every weight is ``learning_rate``."""
    hyper = mixed_bundle.models[3].estimator.hyper
    for weights in ([hyper.learning_rate] * hyper.trees,
                    [hyper.learning_rate] * (hyper.trees - 1) + [2 * hyper.learning_rate]):
        with pytest.raises(IncompatibleBundleError, match=(
            r"^bundle does not save back to itself at models\[3\]\.params\.tree_weights: "
            r"it holds \[0\.1, 0\.1, .*\.\.\., its writer writes no such key$"
        )):
            bundle_from_json(bundle_with_tree_weights(mixed_bundle, weights))


@pytest.mark.parametrize("weights", [[0.1], ["x"] * 40, None])
def test_boosting_weights_must_match_trees(mixed_bundle, weights):
    with pytest.raises(IncompatibleBundleError, match=r"at models\[3\]\.params\.tree_weights: "):
        bundle_from_json(bundle_with_tree_weights(mixed_bundle, weights))
