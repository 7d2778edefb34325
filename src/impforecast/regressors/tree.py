"""The tree family: binary regression trees with variance-reduction
(squared error) splits, their two growers, the flat node table of an
ensemble, and the two ensembles, the decision forest (DFR) and
least-squares gradient boosting (BDTR).

All candidate features of a node are scored in one vectorised pass over
the cumulative sums of its targets sorted by each feature. Tie-breaking is
deterministic: among equal-gain splits the lowest feature index wins, then
the lowest threshold, and only strictly positive gains split.

``build_tree`` grows one tree depth-first with every feature, for
boosting, whose trees follow one another. It uses the pre-sorting scheme
of SLIQ (Mehta, Agrawal & Rissanen, 1996), which is also the exact greedy
split search of XGBoost (Chen & Guestrin, 2016, section 3.1): every
feature is sorted once per training matrix, each node carries its rows as
a (d, m) block of those sorted orders, and a split partitions the block
stably, so no node sorts again. The trees of one training matrix grow
over one ``SplitMemo``, rooted at the presorted block of all rows. It keys
a child node by its parent's split (feature, left count), which fixes the
child's rows whatever the targets, and keeps what does not depend on the
targets: the node's block, its tie mask, its left and right counts as
floats, and its children. A tree that reaches a node an earlier tree
split only gathers its targets, takes their cumulative sums and scores
them.

``grow_forest`` grows all the trees of the decision forests of several
target columns on one training matrix together, level by level: one pass
per depth scores every open node of every tree, so the forests take at
most ``max_depth + 1`` passes whatever their tree and column counts. The
open nodes of a level sit side by side in one array of row ids, each
node's rows in the order of its tree's sample, and a split partitions that
array stably. Nodes within a factor of two in size are scored as padded
(nodes, features, width) arrays of at most ``SPLIT_BLOCK_NODES`` nodes.
Each node's rows are sorted, stably, by its candidate features only: a
forest node considers few of the d features, so this costs less than
carrying d sorted orders through every partition, and it puts equal
values in the order the presorted block would. Cumulative sums run along
the padded axis, and nodes of equal size are summed as one (nodes, size)
block, so every node sum, cumulative sum and mean has the bits of a
node-by-node build. Where a node considers only some of the features,
they are drawn by a key that depends on the forest's seed, the tree and
the node's path from the root (see ``grow_forest``), not on the order in
which nodes grow. Both growers return each tree as the dict a bundle
stores: the five node arrays ``feature``, ``threshold``, ``left``,
``right`` and ``value``, with the nodes numbered in depth-first pre-order
and tree-local child indices.

Ensembles keep their trees in one flat node table (``TreeTable``), in which
leaves point to themselves, so prediction descends every tree at once for a
block of rows. Its one constructor checks every table, grown or loaded.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from ..domain import ModelKind
from ..errors import DegenerateInputError, IncompatibleBundleError
from ..seeding import PCG64Stream, derive_seed, splitmix64_array
from .base import BaseRegressor, loaded_numbers
from .hyper import BoostConfig, ForestConfig

# Rows descended together by TreeTable; bounds its (rows, trees) work arrays.
PREDICT_BLOCK_ROWS = 256
# Nodes scored together by grow_forest; bounds its (nodes, features, width)
# work arrays.
SPLIT_BLOCK_NODES = 256

_FIELDS = ("feature", "threshold", "left", "right", "value")


class TreeTable:
    """The trees of one ensemble as one flat node table.

    Tree t owns nodes ``starts[t]`` up to the next start, in DFS pre-order.
    Child indices are global and a leaf's children are the leaf itself, so
    ``depth`` descent steps take every row to its leaf in every tree. A
    leaf keeps ``feature == -1``, which still indexes a real value of the
    block, so the descent needs no masking.
    """

    __slots__ = ("feature", "threshold", "children", "left", "right", "value", "starts", "depth")

    def __init__(self, trees, *, n_features: int, n_trees: int):
        """Concatenate ``trees``, each a dict of the five node arrays.

        Raises IncompatibleBundleError unless there are ``n_trees`` trees
        and every tree is a well-formed pre-order table of finite numbers
        on fewer than ``n_features`` features.
        """
        try:
            columns = [[t[name] for t in trees] for name in _FIELDS]
            sizes = np.array([len(f) for f in columns[0]], dtype=np.int64)
            if any(len(c) != s for col in columns[1:] for c, s in zip(col, sizes)):
                raise ValueError("node arrays differ in length")
            if sizes.size == 0 or sizes.min() < 1:
                raise ValueError("an ensemble needs at least one tree of at least one node")
            if sizes.size != n_trees:
                raise ValueError(f"expected {n_trees} trees, got {sizes.size}")
            feature, left, right = (
                np.concatenate(columns[i]).astype(np.int64, casting="same_kind")
                for i in (0, 2, 3)
            )
            threshold, value = (
                np.concatenate(columns[i]).astype(float, casting="same_kind") for i in (1, 4)
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise IncompatibleBundleError(f"malformed tree table: {exc}") from None
        starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        offset = np.repeat(starts, sizes)
        local = np.arange(feature.shape[0]) - offset
        end = offset + np.repeat(sizes, sizes)
        leaf = feature < 0
        problems = [
            (~np.isfinite(threshold) | ~np.isfinite(value), "thresholds and values must be finite"),
            (leaf & (feature != -1), "a leaf must have feature -1"),
            (leaf & ((left != -1) | (right != -1)), "a leaf must have children -1"),
            (~leaf & ((left <= local) | (right <= local)
                      | (left + offset >= end) | (right + offset >= end)),
             "a child must come after its parent within the tree"),
            (feature >= n_features, f"feature index must be < {n_features}"),
        ]
        for bad, message in problems:
            if bad.any():
                tree = int(np.searchsorted(starts, np.flatnonzero(bad)[0], side="right")) - 1
                raise IncompatibleBundleError(f"malformed tree {tree}: {message}")
        node = np.arange(feature.shape[0])
        self.feature = feature
        self.threshold = threshold
        # (right, left) of node i at 2i and 2i + 1: a true "goes left" test adds 1
        self.children = np.stack(
            [np.where(leaf, node, right + offset), np.where(leaf, node, left + offset)], axis=1
        ).ravel()
        self.right = self.children[0::2]
        self.left = self.children[1::2]
        self.value = value
        self.starts = starts
        self.depth = self._max_depth()

    def _max_depth(self) -> int:
        depth, level = 0, self.starts
        while True:
            level = level[self.feature[level] >= 0]
            if level.size == 0:
                return depth
            # a set, not a list: children shared by several parents count once
            reached = np.zeros(self.feature.shape[0], dtype=bool)
            reached[self.left[level]] = True
            reached[self.right[level]] = True
            level = np.flatnonzero(reached)
            depth += 1

    @property
    def n_trees(self) -> int:
        return self.starts.shape[0]

    def to_dicts(self) -> list[dict]:
        """Each tree as a dict of the five node arrays, as lists, with
        tree-local child indices: the form the growers return and a bundle
        stores."""
        leaf = self.feature < 0
        offset = np.repeat(self.starts, np.diff(np.append(self.starts, leaf.shape[0])))
        arrays = {
            "feature": self.feature,
            "threshold": self.threshold,
            "left": np.where(leaf, -1, self.left - offset),
            "right": np.where(leaf, -1, self.right - offset),
            "value": self.value,
        }
        bounds = np.append(self.starts, leaf.shape[0]).tolist()
        split = {name: [a[s:e].tolist() for s, e in zip(bounds, bounds[1:])]
                 for name, a in arrays.items()}
        return [{name: split[name][t] for name in _FIELDS} for t in range(self.n_trees)]

    def leaves(self, X: np.ndarray):
        """Yield ``(rows, leaf)`` per block of rows, where ``leaf`` holds the
        leaf of every tree for each row and broadcasts to (rows, n_trees)."""
        # flat offset of each row of a block; a 1-D gather beats a 2-D one
        block_start = (np.arange(min(X.shape[0], PREDICT_BLOCK_ROWS)) * X.shape[1])[:, None]
        for lo in range(0, X.shape[0], PREDICT_BLOCK_ROWS):
            Xb = X[lo : lo + PREDICT_BLOCK_ROWS]
            flat, start = Xb.ravel(), block_start[: Xb.shape[0]]
            node = self.starts[None, :]
            for _ in range(self.depth):
                goes_left = flat[start + self.feature[node]] <= self.threshold[node]
                node = self.children[2 * node + goes_left]
            yield slice(lo, lo + Xb.shape[0]), node

    def staged_sums(self, X: np.ndarray, start: float, weight: float) -> np.ndarray:
        """(rows, n_trees) array whose column t is
        ``start + w v_0(x) + ... + w v_t(x)``, added in tree order like a
        loop over the trees would."""
        out = np.empty((X.shape[0], self.n_trees), dtype=float)
        for rows, leaf in self.leaves(X):
            out[rows] = self._cumsum(leaf, start, weight)
        return out

    def sums(self, X: np.ndarray, start: float, weight: float) -> np.ndarray:
        """The last column of ``staged_sums``, one block of rows at a time."""
        out = np.empty(X.shape[0], dtype=float)
        for rows, leaf in self.leaves(X):
            out[rows] = self._cumsum(leaf, start, weight)[:, -1]
        return out

    def _cumsum(self, leaf: np.ndarray, start: float, weight: float) -> np.ndarray:
        terms = np.empty((leaf.shape[0], self.n_trees + 1), dtype=float)
        terms[:, 0] = start
        np.multiply(weight, self.value[leaf], out=terms[:, 1:])
        return np.cumsum(terms, axis=1)[:, 1:]


def with_grown_table(estimator, trees, *, n_features: int, n_trees: int):
    """``estimator`` with the TreeTable of the ``trees`` a grower returned
    as its ``table_``, or the DegenerateInputError of its column if a leaf
    value is not finite, as the mean of labels near the float limit."""
    if not np.isfinite(np.concatenate([tree["value"] for tree in trees])).all():
        return DegenerateInputError("grown leaf values are not finite: the labels are too large")
    estimator.table_ = TreeTable(trees, n_features=n_features, n_trees=n_trees)
    return estimator


class SplitMemo:
    """The split nodes of the trees grown on one training matrix X, for
    ``build_tree``: everything about a node that does not depend on the
    targets, kept so that later trees on X reuse it.

    The root holds every row. A node's child is keyed by the node's split,
    ``(feature, left count)``, which fixes the child's rows whatever the
    targets. Each node keeps its presorted block, its tie mask, the left and
    right counts of its splits as floats, and its children; see
    ``_MemoNode``. The memo only grows, so drop it with the last tree on X.
    """

    __slots__ = ("XT", "features", "root", "_counts")

    def __init__(self, X: np.ndarray):
        n, d = X.shape
        self.XT = np.ascontiguousarray(X.T)
        self.features = np.arange(d)
        # The sort is stable, so equal values keep ascending row order.
        self.root = _MemoNode(np.vstack([np.argsort(X, axis=0, kind="stable").T, np.arange(n)]))
        self._counts = {}

    def counts(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """The left and right counts of a split after each of m - 1 rows,
        as floats, shared by the nodes of m rows."""
        if m not in self._counts:
            left = np.arange(1.0, m)
            self._counts[m] = left, m - left
        return self._counts[m]


class _MemoNode:
    """One node of a ``SplitMemo``.

    ``block`` is a (d + 1, m) array: row f lists the node's rows in
    ascending order of feature f (equal values by row), and the last row
    lists them in ascending order, the order in which node sums and means
    are taken. A split partitions the block stably, so no node sorts again.
    A node that has only ever been a leaf at the depth limit keeps just its
    ascending ``rows``, and ``block`` is None. ``tied[f, i]`` is True where
    the (i + 1)-th and (i + 2)-th values of feature f are equal, so no
    split falls between them, and ``counts`` is ``SplitMemo.counts(m)``;
    both are set on the node's first split search, and ``_find_split``
    slices them to the counts ``min_leaf`` allows. ``children`` maps a
    split ``(feature, left count)`` to its threshold and two child nodes.
    """

    __slots__ = ("block", "rows", "tied", "counts", "children")

    def __init__(self, block: np.ndarray | None, rows: np.ndarray | None = None):
        self.block = block
        self.rows = block[-1] if rows is None else rows
        self.tied = None
        self.counts = None
        self.children = {}

    def prepare(self, memo: SplitMemo) -> None:
        xs = memo.XT[memo.features[:, None], self.block[:-1]]
        self.tied = xs[:, :-1] >= xs[:, 1:]
        self.counts = memo.counts(self.rows.shape[0])

    def child(self, memo: SplitMemo, j: int, n_left: int, leaves: bool):
        """``(threshold, left, right)`` of the split of feature j after
        ``n_left`` rows. With ``leaves``, the children are wanted only as
        leaves at the depth limit, and a new pair is made without blocks;
        such a pair is made again, with blocks, when a deeper tree needs
        them."""
        key = (j, n_left)
        known = self.children.get(key)
        if known is None or not leaves and known[1].block is None:
            block, x = self.block, memo.XT[j]
            lo, hi = x[block[j, n_left - 1]], x[block[j, n_left]]
            thr = 0.5 * (lo + hi)
            if not thr < hi:  # midpoint rounded up to hi: fall back to lo
                thr = lo
            if leaves:
                goes_left = x[self.rows] <= thr
                pair = (_MemoNode(None, self.rows[goes_left]),
                        _MemoNode(None, self.rows[~goes_left]))
            else:
                goes_left = (x <= thr)[block]  # stable partition of every row
                pair = (_MemoNode(block[goes_left].reshape(block.shape[0], n_left)),
                        _MemoNode(block[~goes_left].reshape(block.shape[0], -1)))
            known = self.children[key] = (float(thr), *pair)
        return known


def _find_split(node: _MemoNode, ys: np.ndarray, total, min_leaf: int, features: np.ndarray):
    """Best split of ``node`` over all features at once.

    Row f of ``ys`` holds the node's targets sorted by feature f, and
    ``features`` is ``arange(d)``. Gain is the decrease in summed squared
    error. Returns ``(f, left count)`` of the first maximal, strictly
    positive gain, or None.
    """
    m = ys.shape[1]
    window = slice(min_leaf - 1, m - min_leaf)  # left counts min_leaf .. m - min_leaf
    n_left, n_right = node.counts
    left_sum = np.add.accumulate(ys, axis=1)[:, window]  # ys.cumsum(axis=1)
    score = left_sum**2 / n_left[window] + (total - left_sum) ** 2 / n_right[window]
    score[node.tied[:, window]] = -np.inf  # only between distinct values
    pos = score.argmax(axis=1)  # first max -> lowest threshold on ties
    gain = score[features, pos] - total * total / m  # score.max(axis=1) - parent score
    j = int(gain.argmax())  # first max -> lowest feature on ties
    if not gain[j] > 0.0:
        return None
    return j, min_leaf + int(pos[j])


def build_tree(
    memo: SplitMemo,
    y: np.ndarray,
    *,
    max_depth: int,
    min_leaf: int,
    train_pred: np.ndarray,
) -> dict:
    """Grow a depth-first CART tree on the memo's X and ``y``, every feature
    considered at every split, and return its dict of node lists.

    ``train_pred`` is filled in place with the leaf value of every training
    row. The tree's nodes are added to ``memo`` if they are not there yet.
    """
    nodes = []  # (feature, threshold, left, right, value), in pre-order

    def grow(node: _MemoNode, depth: int) -> None:
        rows = node.rows
        if depth < max_depth and rows.shape[0] >= 2 * min_leaf:
            ys = y[node.block]
            y_node = ys[-1]
            total = np.add.reduce(y_node)  # y_node.sum()
            if y_node[y_node.argmin()] < y_node[y_node.argmax()]:  # min < max
                if node.tied is None:
                    node.prepare(memo)
                split = _find_split(node, ys[:-1], total, min_leaf, memo.features)
                if split is not None:
                    thr, left, right = node.child(memo, *split, depth + 1 == max_depth)
                    at = len(nodes)
                    nodes.append(None)
                    grow(left, depth + 1)
                    right_at = len(nodes)
                    grow(right, depth + 1)
                    nodes[at] = (split[0], thr, at + 1, right_at, 0.0)
                    return
        else:
            total = np.add.reduce(y[rows])
        mean = float(total / rows.shape[0])  # y[rows].mean(), bit for bit
        train_pred[rows] = mean
        nodes.append((-1, 0.0, -1, -1, mean))

    grow(memo.root, 0)
    # grow refers to itself; without this, the cycle would keep the memo
    # alive until the garbage collector finds it, long after its last tree
    del grow
    return dict(zip(_FIELDS, map(list, zip(*nodes))))


def _node_features(keys: np.ndarray, d: int, subset: int) -> np.ndarray:
    """(nodes, subset) features of each node, ascending: the ``subset``
    features f with the smallest ``splitmix64(key ^ (3 + f))``, ties broken
    toward the lower f."""
    priority = splitmix64_array(keys[:, None] ^ np.arange(3, 3 + d, dtype=np.uint64))
    return np.sort(np.argsort(priority, axis=1, kind="stable")[:, :subset], axis=1)


def _node_sums(values: np.ndarray, start: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``values[start[k] : start[k] + m[k]].sum()`` for every node k, bit
    for bit: the nodes of one size are summed as one (nodes, size) block,
    which numpy reduces row by row exactly as it reduces one row alone."""
    total = np.empty(m.shape[0])
    order = np.argsort(m, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(m[order])) + 1):
        total[group] = values[start[group, None] + np.arange(m[group[0]])].sum(axis=1)
    return total


def _best_splits(xs, ys, total, m, min_leaf: int):
    """Best split of each of c nodes over its candidate features at once.

    Row j of node k in the (c, s, width) arrays ``xs``/``ys`` holds the
    node's values of its j-th candidate feature and its targets, both
    sorted by that feature, in the first ``m[k]`` columns; the rest is
    padding. Gain is the decrease in summed squared error. Returns, per
    node, the candidate j and left count of the first maximal gain, and
    whether that gain is strictly positive.
    """
    width = xs.shape[2]
    n_left = np.arange(min_leaf, width - min_leaf + 1)
    n_right = m[:, None, None] - n_left
    left_sum = ys.cumsum(axis=2)[:, :, min_leaf - 1 : width - min_leaf]
    # left_sum**2 / n_left + (total - left_sum)**2 / n_right, in place
    score = np.square(left_sum)
    score /= n_left
    right = np.subtract(total[:, None, None], left_sum, out=left_sum)
    np.square(right, out=right)
    with np.errstate(divide="ignore", invalid="ignore"):  # padding; masked below
        right /= n_right
    score += right
    # only between distinct values, and with min_leaf rows on the right
    np.copyto(score, -np.inf, where=(
        (n_right < min_leaf)
        | (xs[:, :, min_leaf - 1 : width - min_leaf] >= xs[:, :, min_leaf : width - min_leaf + 1])
    ))
    pos = score.argmax(axis=2)  # first max -> lowest threshold on ties
    best = np.take_along_axis(score, pos[:, :, None], axis=2)[:, :, 0]  # score.max(axis=2)
    gain = best - (total * total / m)[:, None]
    j = gain.argmax(axis=1)  # first max -> lowest feature on ties
    nodes = np.arange(j.shape[0])
    return j, min_leaf + pos[nodes, j], gain[nodes, j] > 0.0


def grow_forest(
    X: np.ndarray,
    Y: np.ndarray,
    trees: int,
    *,
    max_depth: int,
    min_leaf: int,
    feature_subset: int | None = None,
    seeds,
    rngs=None,
) -> list[list[dict]]:
    """Grow ``trees`` CART trees on (X, Y[:, c]) for every column c of Y,
    all together, one pass per depth, and return each column's trees as
    dicts of node arrays.

    With ``rngs`` (``seeding.PCG64Stream``s, or numpy ``Generator``s, which
    draw the same), tree t of column c grows on the bootstrap sample
    ``rngs[c].integers(0, n, size=n)``, each column's samples drawn tree by
    tree before any tree grows (as one (trees, n) draw, which is filled
    with the same numbers); without it every tree grows on all rows.

    Each split considers ``feature_subset`` features (None, or d or more,
    means every feature), chosen by a key: the root of tree t of column c
    has key ``derive_seed(seeds[c], t)``, a node with key k gives its
    children ``splitmix64(k ^ 1)`` (left) and ``splitmix64(k ^ 2)``
    (right), and considers the ``feature_subset`` features f with the
    smallest ``splitmix64(k ^ (3 + f))``. Each tree equals
    ``build_tree`` on its sample when every feature is considered, and no
    tree depends on the other columns.
    """
    n, d = X.shape
    columns = Y.shape[1]
    subset = d if feature_subset is None else min(int(feature_subset), d)
    # Column c is rows c*n .. c*n + n - 1 of the stacked (X, y), so a node
    # holds the rows of one column and nothing below knows of columns. The
    # last row, +inf and 0, pads the nodes scored together to one width.
    X = np.vstack([np.tile(X, (columns, 1)), np.full(d, np.inf)])
    y = np.append(Y.T.ravel(), 0.0)
    count = columns * trees
    if rngs is None:
        samples = np.broadcast_to(np.arange(n), (count, n))
    else:
        samples = np.concatenate([rng.integers(0, n, size=(trees, n)) for rng in rngs])
    # The open nodes of a level side by side: rows[start[k] : start[k] + m[k]]
    # are node k's rows (as rows of X) in the order of the tree's sample,
    # the order in which a node's sum is taken; then the padding row.
    rows = np.append(samples + np.repeat(np.arange(columns) * n, trees)[:, None], columns * n)
    del samples
    tree = np.arange(count)
    m = np.full(count, n)
    key = np.concatenate([
        splitmix64_array(np.uint64(derive_seed(s)) ^ np.arange(trees, dtype=np.uint64))
        for s in seeds
    ])
    levels = []
    for depth in range(max_depth + 1):
        start = np.cumsum(m) - m
        y_rows = y[rows]
        total = _node_sums(y_rows, start, m)
        feature = np.full(m.shape[0], -1)
        threshold = np.zeros(m.shape[0])
        n_left = np.zeros(m.shape[0], dtype=np.intp)
        if depth < max_depth:
            candidates = np.flatnonzero(
                (m >= 2 * min_leaf)
                & (np.minimum.reduceat(y_rows, start) < np.maximum.reduceat(y_rows, start))
            )
            # nodes within a factor of two in size are scored together, at
            # most SPLIT_BLOCK_NODES at a time
            _, size_class = np.frexp(m[candidates] - 1)
            for c in np.unique(size_class):
                in_class = candidates[size_class == c]
                for lo in range(0, in_class.shape[0], SPLIT_BLOCK_NODES):
                    nodes = in_class[lo : lo + SPLIT_BLOCK_NODES]
                    feats = _node_features(key[nodes], d, subset)
                    f, thr, nl, ok = _score_nodes(
                        X, y_rows, rows, start[nodes], m[nodes], feats, total[nodes], min_leaf
                    )
                    won = nodes[ok]
                    feature[won], threshold[won], n_left[won] = f[ok], thr[ok], nl[ok]
        split = feature >= 0
        levels.append((tree, feature, threshold, np.where(split, 0.0, total / m), split))
        if not split.any():
            break
        # Stable partition: the rows of all left children, in the order of
        # their parents, then those of all right children; the rows of
        # leaves go.
        body = rows[:-1]
        in_split = np.repeat(split, m)
        goes_left = X[body, np.repeat(feature, m)] <= np.repeat(threshold, m)
        rows = np.concatenate([body[in_split & goes_left], body[in_split & ~goes_left], rows[-1:]])
        m = np.concatenate([n_left[split], m[split] - n_left[split]])
        tree = np.tile(tree[split], 2)
        key = splitmix64_array(np.concatenate([key[split] ^ np.uint64(1), key[split] ^ np.uint64(2)]))
    grown = _preorder_trees(levels, count)
    return [grown[c * trees : (c + 1) * trees] for c in range(columns)]


def _score_nodes(X, y_rows, rows, start, m, feats, total, min_leaf: int):
    """Best split of each node k whose ``m[k]`` rows are ``rows[start[k]:]``
    over its candidate features ``feats[k]``: the feature, threshold and
    left count of the first maximal gain, and whether that gain is
    strictly positive.

    A node's rows are sorted by each candidate feature here, stably, so
    rows of equal value keep the order of the tree's sample: the order a
    presorted block, partitioned stably from the root, would hold them in.
    """
    width = m.max()
    at = start[:, None] + np.arange(width)
    at = np.where(at < (start + m)[:, None], at, rows.shape[0] - 1)  # padding row
    xs = X[rows[at][:, None, :], feats[:, :, None]]
    order = np.argsort(xs, axis=2, kind="stable")  # +inf padding sorts last
    # take_along_axis by flat indices: one 1-D gather each
    c, s = xs.shape[:2]
    xs = xs.take(order + (np.arange(c * s) * width).reshape(c, s, 1))
    ys = y_rows[at].take(order + (np.arange(c) * width)[:, None, None])
    j, nl, ok = _best_splits(xs, ys, total, m, min_leaf)
    k = np.arange(j.shape[0])
    lo, hi = xs[k, j, nl - 1], xs[k, j, nl]
    thr = 0.5 * (lo + hi)
    thr = np.where(thr < hi, thr, lo)  # midpoint rounded up to hi: fall back to lo
    return feats[k, j], thr, nl, ok


def _preorder_trees(levels, trees: int) -> list[dict]:
    """The trees grown level by level, each numbered in DFS pre-order, as
    dicts of slices of one set of flat node arrays.

    ``levels[L]`` is ``(tree, feature, threshold, value, split)`` of the
    nodes at depth L. If S nodes split there, the children of the r-th of
    them are nodes r (left) and S + r (right) of depth L + 1.
    """
    sizes = [np.ones(level[0].shape[0], dtype=np.int64) for level in levels]
    for L in range(len(levels) - 2, -1, -1):
        left, right = np.split(sizes[L + 1], 2)
        sizes[L][levels[L][4]] += left + right
    # position in its tree: the left child right after its parent, the
    # right child after the left child's subtree
    pre = [np.zeros(trees, dtype=np.int64)]
    for L in range(len(levels) - 1):
        after_parent = pre[L][levels[L][4]] + 1
        pre.append(np.concatenate([after_parent, after_parent + np.split(sizes[L + 1], 2)[0]]))
    offset = np.cumsum(sizes[0]) - sizes[0]
    n_nodes = int(sizes[0].sum())
    feature = np.empty(n_nodes, dtype=np.int64)
    threshold, value = np.empty(n_nodes), np.empty(n_nodes)
    left, right = np.full(n_nodes, -1, dtype=np.int64), np.full(n_nodes, -1, dtype=np.int64)
    for L, (tree, f, thr, val, split) in enumerate(levels):
        at = offset[tree] + pre[L]
        feature[at], threshold[at], value[at] = f, thr, val
        if L + 1 < len(levels):
            left[at[split]], right[at[split]] = np.split(pre[L + 1], 2)
    arrays = dict(zip(_FIELDS, (feature, threshold, left, right, value)))
    bounds = np.append(offset, n_nodes).tolist()
    return [{name: a[s:e] for name, a in arrays.items()} for s, e in zip(bounds, bounds[1:])]


# --- the two ensembles ---------------------------------------------------------


class DecisionForestRegressor(BaseRegressor):
    """Average of ``trees`` CART trees, each grown on a bootstrap resample.

    ``feature_subset`` features are considered at every split (default
    ceil(sqrt(d))), chosen per node by a key derived from ``seed``, the
    tree and the node's path (see ``grow_forest``). Predictions are
    the plain mean over trees, so they can never leave
    [min(y_train), max(y_train)].
    """

    kind = ModelKind.DFR
    Config = ForestConfig

    fit = BaseRegressor.fit

    @classmethod
    def _fit_columns(cls, estimators, Xs, Yt) -> list:
        """Grow the forests of every column together, in one ``grow_forest``
        pass; a column whose trees overflow gets a DegenerateInputError."""
        hyper = estimators[0].hyper
        d = Xs.shape[1]
        seeds = [estimator.seed for estimator in estimators]
        forests = grow_forest(
            Xs,
            Yt.T,
            hyper.trees,
            max_depth=hyper.max_depth,
            min_leaf=hyper.min_leaf,
            feature_subset=(
                math.ceil(math.sqrt(d)) if hyper.feature_subset is None else hyper.feature_subset
            ),
            seeds=seeds,
            rngs=[PCG64Stream(s) for s in seeds] if hyper.bootstrap else None,
        )
        return [with_grown_table(estimator, trees, n_features=d, n_trees=hyper.trees)
                for estimator, trees in zip(estimators, forests)]

    def predict(self, X) -> np.ndarray:
        return self.table_.sums(self._standardized(X), 0.0, 1.0) / self.table_.n_trees

    def fitted_params(self) -> dict:
        return {"trees": self.table_.to_dicts()}

    def _load_params(self, params, d):
        self.table_ = TreeTable(params["trees"], n_features=d, n_trees=self.hyper.trees)


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
