"""Random-forest model of penalized runtime over (configuration, instance)
pairs.

Rows are ``encode_config`` vectors (normalized parameters, categorical
choice codes, sentinel for inactive, instance features appended); targets
are log10 of the penalty-capped score, since runtime distributions are
heavy-tailed. Categorical columns split on value subsets when few distinct
values are present and on a by-target-mean ordering otherwise.

Training rows are put into a canonical order and per-tree seeds are derived
from the master seed, so fitting is invariant to record order and to any
training-thread schedule.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .core import penalized_score
from .rundata import RunDataStore
from .space import (
    SENTINEL,
    Configuration,
    ParameterSpace,
    encode_config,
    encoding_kinds,
)

LOG_FLOOR = 1e-3  # scores are clamped here before the log transform

# a node with at most this many (sample, column) cells, and at most 128
# samples, is grown with Python lists: below it a numpy call costs more in
# overhead than the loop it replaces
SMALL_NODE_CELLS = 512

@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 40
    min_leaf: int = 3
    bootstrap: bool = True
    max_exhaustive_categories: int = 8

    def __post_init__(self) -> None:
        if self.n_trees < 1 or self.min_leaf < 1:
            raise ValueError("n_trees and min_leaf must be >= 1")

    def n_split_features(self, n_columns: int) -> int:
        return max(1, math.ceil(n_columns / 3))


@dataclass
class _Tree:
    # column index per node, -1 for leaves
    feature: np.ndarray
    threshold: np.ndarray          # numeric split threshold (unused for cat nodes)
    categorical: np.ndarray        # per node: does it split on a category subset
    left_codes: np.ndarray         # (n_nodes, n_codes) bool: code (value - SENTINEL) goes left
    children: np.ndarray           # (n_nodes, 2) indices
    value: np.ndarray              # leaf means (training-target means)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return _Forest([self]).predict(X)[0]

    def left_values(self, node: int) -> frozenset[float] | None:
        """Category values sent left by a categorical node, None otherwise."""
        if not self.categorical[node]:
            return None
        return frozenset(float(c) + SENTINEL for c in np.flatnonzero(self.left_codes[node]))


class _Forest:
    """Trees stacked into one node table, for predicting with all of them at
    once. The tables are flat, so a step down is a few 1-d takes."""

    def __init__(self, trees: Sequence[_Tree]):
        sizes = [len(tree.feature) for tree in trees]
        self.roots = np.cumsum([0] + sizes[:-1])
        self.feature = np.concatenate([tree.feature for tree in trees])
        self.threshold = np.concatenate([tree.threshold for tree in trees])
        self.categorical = np.concatenate([tree.categorical for tree in trees])
        self.value = np.concatenate([tree.value for tree in trees])
        # node i's children are at 2i (left) and 2i + 1 (right)
        self.children = np.concatenate(
            [tree.children + root for tree, root in zip(trees, self.roots)]
        ).ravel()
        # one more code than any tree knows: a value that is no category code
        # of the training data is in no left subset
        self.n_codes = max(tree.left_codes.shape[1] for tree in trees) + 1
        left_codes = np.zeros((len(self.feature), self.n_codes), dtype=bool)
        for tree, root in zip(trees, self.roots):
            left_codes[root : root + len(tree.feature), : tree.left_codes.shape[1]] = (
                tree.left_codes
            )
        self.left_codes = left_codes.ravel()

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf value of every row in every tree, shape (n_trees, len(X)).

        All (tree, row) pairs descend together, one level per step; a pair
        that reaches a leaf is dropped from the next step."""
        n, d = X.shape
        code = X - SENTINEL
        known = (code >= 0) & (code < self.n_codes - 1) & (code == np.floor(code))
        codes = np.where(known, code, self.n_codes - 1).astype(np.intp).ravel()
        values = X.ravel()
        out = np.empty(len(self.roots) * n)
        slot = np.arange(len(out))
        cell = np.tile(np.arange(0, n * d, d), len(self.roots))  # row start in ``values``
        node = np.repeat(self.roots, n)
        col = self.feature[node]
        while slot.size:
            inner = col >= 0
            if not inner.all():
                leaf = ~inner
                out[slot[leaf]] = self.value[node[leaf]]
                slot, cell, node, col = slot[inner], cell[inner], node[inner], col[inner]
            at = cell + col
            go_right = ~np.where(
                self.categorical[node],
                self.left_codes[node * self.n_codes + codes[at]],
                values[at] <= self.threshold[node],
            )
            node = self.children[2 * node + go_right]
            col = self.feature[node]
        return out.reshape(len(self.roots), n)


@dataclass
class PerformanceModel:
    """An ensemble of regression trees over configuration/instance encodings."""

    trees: list[_Tree]
    column_kinds: tuple[str, ...]
    feature_dim: int
    y_min: float
    y_max: float
    params: ForestParams
    space: ParameterSpace = field(repr=False)

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    @functools.cached_property
    def _forest(self) -> _Forest:
        return _Forest(self.trees)

    def predict_transformed(self, X: np.ndarray) -> np.ndarray:
        """Mean over trees in log10 space; always within [y_min, y_max]."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != len(self.column_kinds):
            raise ValueError(
                f"expected {len(self.column_kinds)} columns, got {X.shape[1]}"
            )
        acc = np.zeros(len(X))
        for per_tree in self._forest.predict(X):
            acc += per_tree
        return acc / len(self.trees)

    def predict_cost(self, config: Configuration, features: Sequence[float]) -> float:
        """Predicted penalized seconds for one (configuration, instance) pair."""
        row = encode_config(self.space, config, features, feature_dim=self.feature_dim)
        return float(10.0 ** self.predict_transformed(row[None, :])[0])


def fit_model(
    store: RunDataStore,
    space: ParameterSpace,
    features: Mapping[str, Sequence[float]],
    cutoff: float,
    penalty: int,
    params: ForestParams | None = None,
    seed: int = 0,
) -> PerformanceModel:
    """Fit a forest on every stored run whose instance has features."""
    params = params or ForestParams()
    records = [r for r in store.records() if r.instance_id in features]
    if not records:
        raise ValueError("no training data")
    # canonical row order: make the fit independent of append order
    records.sort(
        key=lambda r: (r.config_id, r.instance_id, r.seed, r.status.value, r.runtime)
    )
    feature_dim = len(next(iter(features.values())))
    configs = store.known_configs()
    enc_cache: dict[str, np.ndarray] = {}
    rows = np.empty((len(records), len(space.parameters) + feature_dim))
    y = np.empty(len(records))
    for i, rec in enumerate(records):
        enc = enc_cache.get(rec.config_id)
        if enc is None:
            enc = encode_config(space, configs[rec.config_id], features=())
            enc_cache[rec.config_id] = enc
        rows[i, : len(enc)] = enc
        rows[i, len(enc) :] = np.asarray(features[rec.instance_id], dtype=float)
        # penalize against the run's own cutoff so a timeout under a racing
        # cap is imputed near the cap instead of at the full-scale penalty
        score = penalized_score(rec.status, rec.runtime, rec.cutoff, penalty)
        y[i] = math.log10(max(min(score, penalty * cutoff), LOG_FLOOR))
    column_kinds = encoding_kinds(space) + ("num",) * feature_dim
    return fit_forest(rows, y, column_kinds, params, seed, feature_dim, space)


def fit_forest(
    X: np.ndarray,
    y: np.ndarray,
    column_kinds: tuple[str, ...],
    params: ForestParams,
    seed: int,
    feature_dim: int,
    space: ParameterSpace,
) -> PerformanceModel:
    if params.n_trees < 1:
        raise ValueError("need at least one tree")
    seed_seq = np.random.SeedSequence(seed)
    tree_seeds = seed_seq.spawn(params.n_trees)
    cat_cols = np.array([kind == "cat" for kind in column_kinds])
    cat_values = X[:, cat_cols]
    if np.any(cat_values != np.floor(cat_values)) or np.any(cat_values < SENTINEL):
        raise ValueError("categorical columns must hold choice codes or SENTINEL")
    trees = []
    for tree_seed in tree_seeds:
        rng = np.random.default_rng(tree_seed)
        if params.bootstrap:
            idx = rng.integers(0, len(y), size=len(y))
        else:
            idx = np.arange(len(y))
        trees.append(_grow_tree(X, y, idx, cat_cols, params, rng))
    return PerformanceModel(
        trees=trees,
        column_kinds=tuple(column_kinds),
        feature_dim=feature_dim,
        y_min=float(y.min()),
        y_max=float(y.max()),
        params=params,
        space=space,
    )


def _grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    idx: np.ndarray,
    cat_cols: np.ndarray,
    params: ForestParams,
    rng: np.random.Generator,
) -> _Tree:
    """Grow one regression tree on the sample rows ``idx`` (in draw order).

    Nodes are grown depth first, left child first, and every node large
    enough to split draws its candidate columns with one ``rng.choice``.

    The sample is held as one table with a column per draw, and a node owns
    the table columns ``[lo, hi)``. The first rows hold, in draw order, the
    target, every feature (category codes for categorical ones) and the
    draw position. Then come, for every numeric feature, the positions,
    values and targets sorted by that feature, ties in draw order. Each
    feature is thus sorted once per tree; a split partitions every row
    stably in place, so the sorted rows stay sorted. A node small enough
    (``SMALL_NODE_CELLS``) takes its segment out as Python lists and grows
    its whole subtree on those, with the same arithmetic in the same order.
    """
    n_cols = X.shape[1]
    num_cols = np.flatnonzero(~cat_cols)
    n_num = len(num_cols)
    n = len(idx)
    Xs = X[idx].T
    ys = y[idx]
    ranks = np.argsort(Xs[num_cols], axis=1, kind="mergesort")
    feat, pos_row = 1, 1 + n_cols  # row 0 is the target
    sorted_pos, sorted_x, sorted_y = pos_row + 1, pos_row + 1 + n_num, pos_row + 1 + 2 * n_num
    table = np.empty((sorted_y + n_num, n))
    table[0] = ys
    table[feat:pos_row] = Xs
    table[feat:pos_row][cat_cols] -= SENTINEL
    table[pos_row] = np.arange(n)
    table[sorted_pos:sorted_x] = ranks
    table[sorted_x:sorted_y] = np.take_along_axis(Xs[num_cols], ranks, axis=1)
    table[sorted_y:] = ys[ranks]
    # row of the split flags (0: draw order, 1 + i: sorted by numeric i) per table row
    flag_row = np.concatenate(
        (np.zeros(sorted_pos, dtype=np.intp), np.tile(np.arange(1, n_num + 1), 3))
    )
    sorted_index = np.zeros(n_cols, dtype=np.intp)
    sorted_index[num_cols] = np.arange(n_num)
    n_codes = int(table[feat:pos_row][cat_cols].max(initial=0)) + 1
    goes_left = np.empty(n, dtype=bool)
    n_try = min(n_cols, params.n_split_features(n_cols))
    min_leaf = params.min_leaf
    small_node = min(128, SMALL_NODE_CELLS // n_cols)  # _pairwise_sum takes <= 128

    feature: list[int] = []
    threshold: list[float] = []
    left_codes: list[np.ndarray | None] = []
    children: list[tuple[int, int]] = []
    value: list[float] = []

    def best_split(lo: int, hi: int, targets: np.ndarray):
        """First strictly best (column, threshold, left codes) over the drawn
        columns, or None when none of them can be split."""
        best = None
        best_sse = math.inf
        numeric = None
        for col in rng.choice(n_cols, size=n_try, replace=False).tolist():
            if cat_cols[col]:
                codes = table[feat + col, lo:hi].astype(np.intp)
                result = _best_categorical_split(codes, targets, n_codes, params)
                if result is not None and result[0] < best_sse:
                    best_sse = result[0]
                    best = (col, 0.0, result[1])
                continue
            if numeric is None:
                xs = table[sorted_x:sorted_y, lo:hi]
                sse, cut = _best_numeric_splits(xs, table[sorted_y:, lo:hi], min_leaf)
                numeric = sse.tolist()
            i = sorted_index[col]
            if numeric[i] < best_sse:
                best_sse = numeric[i]
                p = cut[i]
                best = (col, float((xs[i, p - 1] + xs[i, p]) / 2.0), None)
        return best

    def build(lo: int, hi: int) -> int:
        if hi - lo <= small_node:
            return build_small(*take_lists(lo, hi))
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left_codes.append(None)
        children.append((-1, -1))
        targets = table[0, lo:hi]
        # the same reduction as targets.mean(), without its wrapper
        value.append(float(np.add.reduce(targets) / (hi - lo)))
        if hi - lo < 2 * min_leaf or (targets == targets[0]).all():
            return node
        split = best_split(lo, hi, targets)
        if split is None:
            return node
        col, thr, cats = split
        if cats is None:
            left = table[feat + col, lo:hi] <= thr
        else:
            left = cats[table[feat + col, lo:hi].astype(np.intp)]
        goes_left[table[pos_row, lo:hi].astype(np.intp)] = left
        by_order = goes_left[table[sorted_pos:sorted_x, lo:hi].astype(np.intp)]
        flags = np.concatenate((left[None], by_order))[flag_row]
        segment = table[:, lo:hi]
        n_left = int(np.count_nonzero(left))
        left_part = segment[flags].reshape(len(table), n_left)
        right_part = segment[~flags].reshape(len(table), hi - lo - n_left)
        segment[:, :n_left] = left_part
        segment[:, n_left:] = right_part
        feature[node] = col
        threshold[node] = thr
        left_codes[node] = cats
        left_child = build(lo, lo + n_left)
        right_child = build(lo + n_left, hi)
        children[node] = (left_child, right_child)
        return node

    local = np.empty(n, dtype=np.intp)

    def take_lists(lo: int, hi: int):
        """The segment as lists indexed by draw order within it: samples,
        orders sorted by each numeric feature, and the per-sample data."""
        segment = table[:, lo:hi]
        local[segment[pos_row].astype(np.intp)] = np.arange(hi - lo)
        orders = local[segment[sorted_pos:sorted_x].astype(np.intp)].tolist()
        data = (
            segment[0].tolist(),
            segment[feat:pos_row].tolist(),
            segment[feat:pos_row].astype(np.intp).tolist(),
            [False] * (hi - lo),
        )
        return list(range(hi - lo)), orders, data

    def build_small(samples: list[int], orders: list[list[int]], data) -> int:
        ys_, xs_, codes_, goes_left_ = data
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left_codes.append(None)
        children.append((-1, -1))
        m = len(samples)
        targets = [ys_[i] for i in samples]
        # an empty node has a nan mean, as numpy's division gives
        value.append((0.0 + _pairwise_sum(targets)) / m if m else math.nan)
        if m < 2 * min_leaf or targets.count(targets[0]) == m:
            return node
        best = None
        best_sse = math.inf
        for col in rng.choice(n_cols, size=n_try, replace=False).tolist():
            if cat_cols[col]:
                codes = [codes_[col][i] for i in samples]
                result = _best_categorical_split_py(codes, targets, n_codes, params)
                if result is not None and result[0] < best_sse:
                    best_sse = result[0]
                    best = (col, 0.0, result[1])
                continue
            order = orders[sorted_index[col]]
            values = xs_[col]
            result = _best_numeric_split_py(
                [values[i] for i in order], [ys_[i] for i in order], min_leaf
            )
            if result is not None and result[0] < best_sse:
                best_sse = result[0]
                best = (col, result[1], None)
        if best is None:
            return node
        col, thr, cats = best
        if cats is None:
            values = xs_[col]
            for i in samples:
                goes_left_[i] = values[i] <= thr
        else:
            in_left, codes = cats.tolist(), codes_[col]
            for i in samples:
                goes_left_[i] = in_left[codes[i]]
        left_samples = [i for i in samples if goes_left_[i]]
        right_samples = [i for i in samples if not goes_left_[i]]
        left_orders = [[i for i in order if goes_left_[i]] for order in orders]
        right_orders = [[i for i in order if not goes_left_[i]] for order in orders]
        feature[node] = col
        threshold[node] = thr
        left_codes[node] = cats
        left_child = build_small(left_samples, left_orders, data)
        right_child = build_small(right_samples, right_orders, data)
        children[node] = (left_child, right_child)
        return node

    build(0, n)
    categorical = np.array([cats is not None for cats in left_codes])
    code_table = np.zeros((len(feature), n_codes), dtype=bool)
    if categorical.any():
        code_table[categorical] = [cats for cats in left_codes if cats is not None]
    return _Tree(
        feature=np.array(feature),
        threshold=np.array(threshold),
        categorical=categorical,
        left_codes=code_table,
        children=np.array(children),
        value=np.array(value),
    )


def _split_sse(counts_l, sums_l, sq_l, total_n, total_sum, total_sq):
    counts_r = total_n - counts_l
    sums_r = total_sum - sums_l
    sq_r = total_sq - sq_l
    sse_l = sq_l - sums_l**2 / counts_l
    sse_r = sq_r - sums_r**2 / counts_r
    return sse_l + sse_r


def _pairwise_sum(values: list[float]) -> float:
    """``np.add.reduce`` of up to 128 float64 values, in numpy's order: a
    plain loop below 8 values, otherwise 8 interleaved accumulators combined
    pairwise, then the remainder. Callers add the reduction's 0.0 start."""
    n = len(values)
    if n < 8:
        total = -0.0
        for v in values:
            total += v
        return total
    r0, r1, r2, r3, r4, r5, r6, r7 = values[:8]
    end = n - n % 8
    for i in range(8, end, 8):
        r0 += values[i]
        r1 += values[i + 1]
        r2 += values[i + 2]
        r3 += values[i + 3]
        r4 += values[i + 4]
        r5 += values[i + 5]
        r6 += values[i + 6]
        r7 += values[i + 7]
    total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for v in values[end:]:
        total += v
    return total


def _best_numeric_split_py(xs: list[float], ys: list[float], min_leaf: int):
    """``_best_numeric_splits`` for one sorted column held as lists, with the
    same operations in the same order: (sse, threshold) or None."""
    n = len(xs)
    csum = list(itertools.accumulate(ys))
    csq = list(itertools.accumulate([v * v for v in ys]))
    total_sum, total_sq = csum[-1], csq[-1]
    best_sse = math.inf
    best = None
    for p in range(min_leaf, n - min_leaf + 1):
        if xs[p - 1] < xs[p]:
            s_l, q_l = csum[p - 1], csq[p - 1]
            s_r = total_sum - s_l
            sse = (q_l - s_l * s_l / p) + ((total_sq - q_l) - s_r * s_r / (n - p))
            if sse < best_sse:
                best_sse, best = sse, p
    if best is None:
        return None
    return best_sse, (xs[best - 1] + xs[best]) / 2.0


def _best_numeric_splits(xs: np.ndarray, ys: np.ndarray, min_leaf: int):
    """Best split of every row of ``xs`` (values sorted ascending, targets
    ``ys`` in the same order), as (sse, split index) per row: the left side
    is ``[:index]``. The sse is inf where the row has no split leaving
    ``min_leaf`` on both sides; rows need ``2 * min_leaf`` values."""
    n = xs.shape[1]
    pos = np.arange(min_leaf, n - min_leaf + 1)  # split before index pos
    valid = xs[:, min_leaf - 1 : n - min_leaf] < xs[:, min_leaf : n - min_leaf + 1]
    csum = ys.cumsum(axis=1)
    csq = (ys * ys).cumsum(axis=1)
    sse = _split_sse(
        pos, csum[:, min_leaf - 1 : n - min_leaf], csq[:, min_leaf - 1 : n - min_leaf],
        n, csum[:, -1:], csq[:, -1:],
    )
    sse = np.where(valid, sse, math.inf)
    best = sse.argmin(axis=1)
    return sse[np.arange(len(sse)), best], pos[best]


def _best_categorical_split(
    codes: np.ndarray, targets: np.ndarray, n_codes: int, params: ForestParams
):
    """Best subset of the categories present, as (sse, left flag per code).

    Up to ``max_exhaustive_categories`` present categories every proper
    subset holding the lowest one is scored; the first minimum in bitmask
    order wins. Above that, categories are ordered by target mean and split
    along that ordering.
    """
    counts = np.bincount(codes, minlength=n_codes)
    present = counts.nonzero()[0]
    m = len(present)
    if m < 2:
        return None
    squares = targets * targets
    # count, target sum and squared-target sum per present category
    stats = np.array(
        (
            counts[present],
            np.bincount(codes, weights=targets, minlength=n_codes)[present],
            np.bincount(codes, weights=squares, minlength=n_codes)[present],
        )
    )
    total_n = float(len(codes))
    total_sum, total_sq = float(np.add.reduce(targets)), float(np.add.reduce(squares))
    min_leaf = params.min_leaf
    left = np.zeros(n_codes, dtype=bool)
    if m <= params.max_exhaustive_categories:
        # left-side statistics of every subset holding category 0, in
        # bitmask order: doubling the list once per further category adds
        # each subset's members one at a time, in category order
        sides = stats[:, :1]
        for j in range(1, m):
            sides = np.concatenate((sides, sides + stats[:, j : j + 1]), axis=1)
        n_l, s_l, q_l = sides[:, :-1]  # the last subset holds every category
        # float_power is the libm pow behind a float64 scalar's ``**``, which
        # can differ from ``x * x`` in the last bit
        sse = (q_l - np.float_power(s_l, 2.0) / n_l) + (
            (total_sq - q_l) - np.float_power(total_sum - s_l, 2.0) / (total_n - n_l)
        )
        sse = np.where((n_l >= min_leaf) & (total_n - n_l >= min_leaf), sse, math.inf)
        best = int(sse.argmin())
        if not sse[best] < math.inf:
            return None
        mask = 2 * best + 1
        left[present[[j for j in range(m) if mask >> j & 1]]] = True
        return float(sse[best]), left
    # order categories by target mean and split along that ordering
    counts, sums, sqs = stats
    order = np.argsort(sums / counts, kind="mergesort")
    c_counts = np.cumsum(counts[order])[:-1]
    c_sums = np.cumsum(sums[order])[:-1]
    c_sqs = np.cumsum(sqs[order])[:-1]
    ok = (c_counts >= min_leaf) & (total_n - c_counts >= min_leaf)
    if not ok.any():
        return None
    sse = np.where(
        ok,
        _split_sse(c_counts, c_sums, c_sqs, total_n, total_sum, total_sq),
        math.inf,
    )
    cut = int(np.argmin(sse))
    left[present[order[: cut + 1]]] = True
    return float(sse[cut]), left


def _best_categorical_split_py(
    codes: list[int], targets: list[float], n_codes: int, params: ForestParams
):
    """``_best_categorical_split`` on lists, with the same arithmetic in the
    same order."""
    counts = [0] * n_codes
    sums = [0.0] * n_codes
    sqs = [0.0] * n_codes
    squares = [t * t for t in targets]
    for c, t, q in zip(codes, targets, squares):
        counts[c] += 1
        sums[c] += t
        sqs[c] += q
    present = [c for c in range(n_codes) if counts[c]]
    m = len(present)
    if m < 2:
        return None
    if m > params.max_exhaustive_categories:
        return _best_categorical_split(np.array(codes), np.array(targets), n_codes, params)
    total_n = float(len(codes))
    total_sum, total_sq = 0.0 + _pairwise_sum(targets), 0.0 + _pairwise_sum(squares)
    first = present[0]
    n_l, s_l, q_l = [float(counts[first])], [sums[first]], [sqs[first]]
    for c in present[1:]:
        count, total, square = counts[c], sums[c], sqs[c]
        n_l += [v + count for v in n_l]
        s_l += [v + total for v in s_l]
        q_l += [v + square for v in q_l]
    k = len(n_l) - 1  # the last subset holds every category
    powers = np.float_power(s_l[:k] + [total_sum - v for v in s_l[:k]], 2.0).tolist()
    min_leaf = params.min_leaf
    best_sse = math.inf
    best = None
    for i in range(k):
        left_n = n_l[i]
        if left_n >= min_leaf and total_n - left_n >= min_leaf:
            sse = (q_l[i] - powers[i] / left_n) + (
                (total_sq - q_l[i]) - powers[k + i] / (total_n - left_n)
            )
            if sse < best_sse:
                best_sse, best = sse, i
    if best is None:
        return None
    mask = 2 * best + 1
    left = np.zeros(n_codes, dtype=bool)
    left[[present[j] for j in range(m) if mask >> j & 1]] = True
    return best_sse, left
