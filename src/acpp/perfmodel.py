"""Random-forest model of penalized runtime over (configuration, instance)
pairs. This module owns the model's rows and targets.

A row is a configuration's ``encode_config`` vector (normalized parameters,
categorical choice codes, sentinel for inactive) with instance features
appended, its column kinds given by ``row_kinds``; ``log_target`` is log10
of the penalty-capped score, since runtime distributions are heavy-tailed.
``PerformanceModel.predict_pairs`` predicts every configuration x instance
pair; how a run's score is censored is up to each caller. A fitted model is
one node table holding every tree, each grown on a bootstrap sample.
Categorical columns split on value subsets when few distinct values are
present and on a by-target-mean ordering otherwise.

Training rows are put into a canonical order and per-tree seeds are derived
from the master seed, so fitting is invariant to record order and to any
training-thread schedule.

Each tree grows on one path, with every node's samples held as Python
lists: on the few columns and the tens to thousands of rows this model
sees, that costs less than numpy's per-call overhead. Sums follow numpy's
pairwise order, and every split node draws its candidate columns as
``rng.choice(n_cols, size=n_try, replace=False)`` would, so the trees are
the ones a per-node numpy implementation grows. ``_ColumnDraw`` gets those
draws at a fraction of ``choice``'s cost by reading the tree generator's
stream ahead, which spends the generator: each tree has its own, and
nothing draws from it once the tree is grown.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import penalized_score
from .rundata import RunDataStore
from .space import SENTINEL, ParameterSpace, encode_config, encoding_kinds

LOG_FLOOR = 1e-3  # scores are clamped here before the log transform
MAX_EXHAUSTIVE_CATEGORIES = 8  # more present categories split along their mean order

_MASK32 = 0xFFFFFFFF


class _ColumnDraw:
    """Repeated ``rng.choice(n, size=k, replace=False)`` on one PCG64
    generator: the same lists, from the same stream, at a fraction of the
    cost when there are few columns (0.6 µs against 4.6 µs for 2 of 6).

    ``Generator.choice`` (checked against numpy 2.4 by the tests) samples up
    to 10,000 items by Floyd's algorithm and then shuffles the sample, one
    Lemire bounded draw per step on the generator's 32-bit stream. That
    stream is read ahead here in blocks of ``rng.integers(0, 2**32,
    dtype=np.uint32)``, which returns the same words, the high half of an
    output that the generator holds back first. So once ``sample`` has
    run, the generator is spent: what it draws next follows the block, not
    the last sample.

    Above ``LIST_MAX`` items ``sample`` calls ``rng.choice`` itself and
    reads nothing ahead: the Python loop costs about 0.3 µs a step against
    ``choice``'s 4.6 µs a call, numpy's Floyd step keeps a hash set where
    this one searches a list, and above 10,000 items numpy may shuffle a
    tail instead.
    """

    LIST_MAX = 32  # 11 of 32 take 3.4 µs against 4.8 µs

    def __init__(self, rng: np.random.Generator, n: int, k: int):
        # the tests pin the stream facts above on PCG64 only
        bit_gen = type(rng.bit_generator)
        if bit_gen is not np.random.PCG64:
            raise TypeError(f"the column draw needs PCG64, not {bit_gen.__name__}")
        if not 0 < k <= n:
            raise ValueError(f"cannot draw {k} of {n} columns")
        self._rng, self._n, self._k = rng, n, k
        self._words: list[int] = []
        self._pos = 0  # words used
        # Floyd: for j in [n - k, n), draw v in [0, j], keep v unless it was
        # drawn already, then j; a bound of 0 takes no draw. Then the shuffle:
        # for i from k - 1 down to 1, swap i with a draw in [0, i].
        self._first = [0] if k == n else []
        self._floyd = [(j, j + 1) for j in range(max(n - k, 1), n)]
        self._shuffle = [(i, i + 1) for i in range(k - 1, 0, -1)]
        self._need = len(self._floyd) + len(self._shuffle)

    def _reserve(self, pos: int) -> None:
        """Read ahead until a whole sample's words follow ``pos``, each
        block as long as all words read so far and at least 128. The list
        grows in place, so ``sample``'s alias of it stays valid."""
        words = self._words
        while len(words) - pos < self._need:
            block = self._rng.integers(0, 2**32, size=max(128, len(words)), dtype=np.uint32)
            words += block.tolist()

    def _redraw(self, m: int, excl: int, pos: int) -> tuple[int, int]:
        """Lemire's rejection loop, entered when the low word of ``m`` fell
        below ``excl``: the accepted product and the next word's position."""
        threshold = (1 << 32) % excl
        while m & _MASK32 < threshold:
            self._reserve(pos)
            m = self._words[pos] * excl
            pos += 1
        self._reserve(pos)  # the rest of the sample reads without checks
        return m, pos

    def sample(self) -> list[int]:
        if self._n > self.LIST_MAX:
            return self._rng.choice(self._n, size=self._k, replace=False).tolist()
        words, pos = self._words, self._pos
        self._reserve(pos)
        out = self._first[:]
        for j, excl in self._floyd:
            m = words[pos] * excl
            pos += 1
            if m & _MASK32 < excl:
                m, pos = self._redraw(m, excl, pos)
            v = m >> 32
            out.append(j if v in out else v)
        for i, excl in self._shuffle:
            m = words[pos] * excl
            pos += 1
            if m & _MASK32 < excl:
                m, pos = self._redraw(m, excl, pos)
            j = m >> 32
            out[i], out[j] = out[j], out[i]
        self._pos = pos
        return out


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 40
    min_leaf: int = 3

    def __post_init__(self) -> None:
        if self.n_trees < 1 or self.min_leaf < 1:
            raise ValueError("n_trees and min_leaf must be >= 1")


def row_kinds(space: ParameterSpace, feature_dim: int) -> tuple[str, ...]:
    """Column kinds ('num' or 'cat') of a model row: the encoding's, then the features'."""
    return encoding_kinds(space) + ("num",) * feature_dim


def log_target(score: float, cutoff: float, penalty: int) -> float:
    """log10 of a penalized score, capped at the full-scale penalty, floored at ``LOG_FLOOR``."""
    return math.log10(max(min(score, penalty * cutoff), LOG_FLOOR))


@dataclass(frozen=True, eq=False)
class PerformanceModel:
    """A forest of regression trees stacked into one node table. Tree t's
    nodes run from ``roots[t]`` to the next root, in the order they were
    grown. The tables are flat, so a step down is a few 1-d takes."""

    roots: np.ndarray        # first node of each tree
    feature: np.ndarray      # column index per node, -1 for leaves
    threshold: np.ndarray    # numeric split threshold (unused for cat nodes)
    categorical: np.ndarray  # per node: does it split on a category subset
    left_codes: np.ndarray   # flat (n_nodes, n_codes) bool: code (value - SENTINEL) goes left
    n_codes: int             # codes per node in left_codes, the last for unknown values
    children: np.ndarray     # node i's children are at 2i (left) and 2i + 1 (right)
    value: np.ndarray        # per node: mean training target of its samples
    n_columns: int           # width of a model row

    def predict_trees(self, X: np.ndarray) -> np.ndarray:
        """Leaf value of every row in every tree, shape (n_trees, len(X)).

        All (tree, row) pairs descend together, one level per step; a pair
        that reaches a leaf is dropped from the next step."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        n, d = X.shape
        if d != self.n_columns:
            raise ValueError(f"expected {self.n_columns} columns, got {d}")
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

    def predict_transformed(self, X: np.ndarray) -> np.ndarray:
        """Mean over trees in log10 space."""
        per_tree = self.predict_trees(X)
        acc = np.zeros(per_tree.shape[1])
        for leaf_values in per_tree:
            acc += leaf_values
        return acc / len(self.roots)

    def predict_pairs(self, configs: np.ndarray, features: np.ndarray) -> np.ndarray:
        """Predictions for each configuration encoding in ``configs`` (rows)
        on each instance feature vector in ``features`` (columns), from one
        ``predict_transformed`` call."""
        n, m = len(configs), len(features)
        rows = np.hstack([np.repeat(configs, m, axis=0), np.tile(features, (n, 1))])
        return self.predict_transformed(rows).reshape(n, m)


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
    encodings = {cid: encode_config(space, configs[cid]) for cid in {r.config_id for r in records}}
    rows = np.empty((len(records), len(space.parameters) + feature_dim))
    y = np.empty(len(records))
    for i, rec in enumerate(records):
        enc = encodings[rec.config_id]
        rows[i, : len(enc)] = enc
        rows[i, len(enc) :] = np.asarray(features[rec.instance_id], dtype=float)
        # penalize against the run's own cutoff so a timeout under a racing
        # cap is imputed near the cap instead of at the full-scale penalty
        score = penalized_score(rec.status, rec.runtime, rec.cutoff, penalty)
        y[i] = log_target(score, cutoff, penalty)
    return fit_forest(rows, y, row_kinds(space, feature_dim), params, seed)


def fit_forest(
    X: np.ndarray,
    y: np.ndarray,
    column_kinds: tuple[str, ...],
    params: ForestParams,
    seed: int,
) -> PerformanceModel:
    """Grow ``params.n_trees`` trees, each on a bootstrap sample drawn by
    its own generator, seeded from ``seed``, and stack them."""
    X, y = np.asarray(X, dtype=float), np.asarray(y, dtype=float)
    if X.ndim != 2 or len(X) == 0:
        raise ValueError("need a non-empty 2-d array of training rows")
    if y.shape != (len(X),):
        raise ValueError(f"need one target per row: {len(X)} rows, targets of shape {y.shape}")
    if len(column_kinds) != X.shape[1]:
        raise ValueError(f"{len(column_kinds)} column kinds for rows of {X.shape[1]} columns")
    unknown = set(column_kinds) - {"num", "cat"}
    if unknown:
        raise ValueError(f"column kinds must be 'num' or 'cat', not {sorted(unknown)}")
    if not np.isfinite(X).all():
        raise ValueError("training rows must be finite")
    if not np.isfinite(y).all():
        raise ValueError("training targets must be finite")
    cat_cols = np.array([kind == "cat" for kind in column_kinds])
    cat_values = X[:, cat_cols]
    if np.any(cat_values != np.floor(cat_values)) or np.any(cat_values < SENTINEL):
        raise ValueError("categorical columns must hold choice codes or SENTINEL")
    trees = []
    for tree_seed in np.random.SeedSequence(seed).spawn(params.n_trees):
        rng = np.random.default_rng(tree_seed)
        idx = rng.integers(0, len(y), size=len(y))
        trees.append(_grow_tree(X, y, idx, cat_cols, params, rng))
    return _stack(trees, len(column_kinds))


def _stack(trees: Sequence[tuple], n_columns: int) -> PerformanceModel:
    """One node table of the trees ``_grow_tree`` returned, in their order."""
    feature, threshold, categorical, code_tables, children, value = zip(*trees)
    roots = np.cumsum([0] + [len(nodes) for nodes in feature[:-1]])
    # one more code than any tree knows: a value that is no category code
    # of the training data is in no left subset
    n_codes = max(table.shape[1] for table in code_tables) + 1
    left_codes = np.zeros((sum(map(len, feature)), n_codes), dtype=bool)
    for table, root in zip(code_tables, roots):
        left_codes[root : root + len(table), : table.shape[1]] = table
    return PerformanceModel(
        roots=roots,
        feature=np.concatenate(feature),
        threshold=np.concatenate(threshold),
        categorical=np.concatenate(categorical),
        left_codes=left_codes.ravel(),
        n_codes=n_codes,
        children=np.concatenate([pairs + root for pairs, root in zip(children, roots)]).ravel(),
        value=np.concatenate(value),
        n_columns=n_columns,
    )


def _grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    idx: np.ndarray,
    cat_cols: np.ndarray,
    params: ForestParams,
    rng: np.random.Generator,
) -> tuple[np.ndarray, ...]:
    """Grow one regression tree on the sample rows ``idx`` (in draw order),
    as its node arrays: feature, threshold, categorical, left-code table
    (n_nodes, n_codes), children (n_nodes, 2) and value, with node indices
    local to the tree.

    Nodes are grown depth first, left child first, on Python lists, and
    every node large enough to split draws its candidate columns as one
    ``rng.choice(n_cols, size=n_try, replace=False)`` would. A node keeps
    its samples in draw order and sorts them by a drawn numeric feature
    when it scores that feature, ties in draw order. Sums are taken in
    numpy's order (``_pairwise_sum``), so the trees are bit-identical to a
    per-node numpy implementation.
    """
    n_cols = X.shape[1]
    Xs = np.asarray(X[idx], dtype=float).T
    Xs[cat_cols] -= SENTINEL
    n_codes = int(Xs[cat_cols].max(initial=0)) + 1
    n_try = math.ceil(n_cols / 3)  # columns drawn per split
    draw = _ColumnDraw(rng, n_cols, n_try)
    min_leaf = params.min_leaf
    ys_, xs_ = y[idx].tolist(), Xs.tolist()
    # category codes of the categorical columns only: a numeric value may
    # lie outside the range of an integer
    codes_ = [row.astype(np.intp).tolist() if cat else None for row, cat in zip(Xs, cat_cols)]

    feature: list[int] = []
    threshold: list[float] = []
    left_codes: list[np.ndarray | None] = []
    children: list[tuple[int, int]] = []
    value: list[float] = []

    def build(samples: list[int]) -> int:
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left_codes.append(None)
        children.append((-1, -1))
        m = len(samples)
        targets = list(map(ys_.__getitem__, samples))
        # an empty node has a nan mean, as numpy's division gives
        value.append((0.0 + _pairwise_sum(targets)) / m if m else math.nan)
        if m < 2 * min_leaf or targets.count(targets[0]) == m:
            return node
        best_sse, best = math.inf, None
        for col in draw.sample():
            if cat_cols[col]:
                codes = list(map(codes_[col].__getitem__, samples))
                result = _best_categorical_split(codes, targets, n_codes, min_leaf)
            else:
                values = xs_[col]
                order = sorted(samples, key=values.__getitem__)
                result = _best_numeric_split(
                    list(map(values.__getitem__, order)), list(map(ys_.__getitem__, order)), min_leaf
                )
            if result is not None and result[0] < best_sse:
                best_sse, best = result[0], (col, result[1])
        if best is None:
            return node
        col, split = best  # a threshold, or a left flag per category code
        feature[node] = col
        if cat_cols[col]:
            left_codes[node] = split
            in_left, codes = split.tolist(), codes_[col]
            left_samples = [i for i in samples if in_left[codes[i]]]
            right_samples = [i for i in samples if not in_left[codes[i]]]
        else:
            threshold[node] = split
            values = xs_[col]
            left_samples = [i for i in samples if values[i] <= split]
            right_samples = [i for i in samples if not values[i] <= split]
        children[node] = (build(left_samples), build(right_samples))
        return node

    build(list(range(len(idx))))
    categorical = np.array([cats is not None for cats in left_codes])
    code_table = np.zeros((len(feature), n_codes), dtype=bool)
    if categorical.any():
        code_table[categorical] = [cats for cats in left_codes if cats is not None]
    return (
        np.array(feature), np.array(threshold), categorical, code_table,
        np.array(children), np.array(value),
    )


def _pairwise_sum(values: list[float]) -> float:
    """``np.add.reduce`` of float64 values, in numpy's order: a plain loop
    below 8 values; up to 128, 8 interleaved accumulators combined pairwise,
    then the remainder; above that, the sums of two halves, the first a
    multiple of 8 long. Callers add the reduction's 0.0 start."""
    n = len(values)
    if n < 8:
        total = -0.0
        for v in values:
            total += v
        return total
    if n > 128:
        half = n // 2
        half -= half % 8
        return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])
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


def _best_numeric_split(xs: list[float], ys: list[float], min_leaf: int):
    """Best split of one column, values ``xs`` sorted ascending and targets
    ``ys`` in the same order, as (sse, threshold), or None when no split
    between distinct values leaves ``min_leaf`` on both sides. The first
    strict minimum wins."""
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
    # between adjacent doubles the midpoint can round up to the upper value,
    # which would send every sample left
    low, high = xs[best - 1], xs[best]
    middle = (low + high) / 2.0
    return best_sse, middle if middle < high else low


def _best_categorical_split(codes: list[int], targets: list[float], n_codes: int, min_leaf: int):
    """Best subset of the categories present, as (sse, left flag per code).

    Up to ``MAX_EXHAUSTIVE_CATEGORIES`` present categories every proper
    subset holding the lowest one is scored; the first minimum in bitmask
    order wins. Above that, categories are ordered by target mean (stably)
    and split along that ordering; the first minimum wins.
    """
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
    total_n = float(len(codes))
    total_sum, total_sq = 0.0 + _pairwise_sum(targets), 0.0 + _pairwise_sum(squares)
    best_sse = math.inf
    best = None
    left = np.zeros(n_codes, dtype=bool)
    if m > MAX_EXHAUSTIVE_CATEGORIES:
        order = sorted(present, key=lambda c: sums[c] / counts[c])
        n_l = list(itertools.accumulate(counts[c] for c in order))
        s_l = list(itertools.accumulate(sums[c] for c in order))
        q_l = list(itertools.accumulate(sqs[c] for c in order))
        # squares are ``x * x`` here, as numpy's ``** 2`` on an array gives
        for i in range(m - 1):  # the last cut would hold every category
            left_n, left_sum = n_l[i], s_l[i]
            if left_n >= min_leaf and total_n - left_n >= min_leaf:
                right_sum = total_sum - left_sum
                sse = (q_l[i] - left_sum * left_sum / left_n) + (
                    (total_sq - q_l[i]) - right_sum * right_sum / (total_n - left_n)
                )
                if sse < best_sse:
                    best_sse, best = sse, i
        if best is None:
            return None
        left[order[: best + 1]] = True
        return best_sse, left
    first = present[0]
    n_l, s_l, q_l = [float(counts[first])], [sums[first]], [sqs[first]]
    for c in present[1:]:
        count, total, square = counts[c], sums[c], sqs[c]
        n_l += [v + count for v in n_l]
        s_l += [v + total for v in s_l]
        q_l += [v + square for v in q_l]
    k = len(n_l) - 1  # the last subset holds every category
    # float_power is the libm pow behind a float64 scalar's ``**``, which
    # can differ from ``x * x`` in the last bit
    powers = np.float_power(s_l[:k] + [total_sum - v for v in s_l[:k]], 2.0).tolist()
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
    left[[present[j] for j in range(m) if mask >> j & 1]] = True
    return best_sse, left
