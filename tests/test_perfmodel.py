import math
import random
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from acpp import perfmodel
from acpp.core import RunRecord, RunStatus
from acpp.perfmodel import (
    ForestParams,
    MAX_EXHAUSTIVE_CATEGORIES,
    _best_categorical_split,
    _ColumnDraw,
    _grow_tree,
    _pairwise_sum,
    _stack,
    fit_forest,
    fit_model,
)
from acpp.rundata import RunDataStore
from acpp.space import SENTINEL, encode_config, make_config, parse_space


@pytest.fixture
def space():
    return parse_space("s categorical {a, b, c, d} [a]\n")


def add_run(store, config, instance_id, runtime, cutoff=60.0, seed=0, status=RunStatus.SOLVED):
    store.add(
        RunRecord(config.config_id, instance_id, seed, status, runtime, cutoff),
        config,
    )


def predict_cost(model, space, config, features):
    row = np.concatenate([encode_config(space, config), np.asarray(features, dtype=float)])
    return float(10.0 ** model.predict_transformed(row[None, :])[0])


class TestFitBasics:
    def test_constant_target_predicts_constant(self, space):
        store = RunDataStore()
        config = make_config(space, {"s": "a"})
        features = {}
        for i in range(10):
            features[f"i{i}"] = (float(i), 0.0)
            add_run(store, config, f"i{i}", 7.0, seed=i)
        model = fit_model(store, space, features, cutoff=60.0, penalty=10, seed=1)
        for i in range(10):
            assert predict_cost(model, space, config, features[f"i{i}"]) == pytest.approx(7.0)

    def test_single_record_predicts_everywhere(self, space):
        store = RunDataStore()
        config = make_config(space, {"s": "b"})
        features = {"i0": (0.0, 0.0)}
        add_run(store, config, "i0", 12.5)
        model = fit_model(store, space, features, cutoff=60.0, penalty=10, seed=3)
        other = make_config(space, {"s": "d"})
        assert predict_cost(model, space, other, (9.0, 9.0)) == pytest.approx(12.5)

    def test_empty_store_errors(self, space):
        with pytest.raises(ValueError, match="no training data"):
            fit_model(RunDataStore(), space, {}, cutoff=60.0, penalty=10)

    def test_two_planted_families_separate(self, space):
        # one config, two feature clusters with runtimes 1s vs 100s (cutoff 300)
        store = RunDataStore()
        config = make_config(space, {"s": "a"})
        features = {}
        rng = random.Random(0)
        for i in range(40):
            fam = i % 2
            features[f"i{i}"] = (10.0 * fam + rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            add_run(store, config, f"i{i}", 1.0 if fam == 0 else 100.0, cutoff=300.0, seed=i)
        hold_out = {"h0": (0.1, 0.0), "h1": (10.1, 0.0)}
        model = fit_model(store, space, features, cutoff=300.0, penalty=10, seed=5)
        fast = predict_cost(model, space, config, hold_out["h0"])
        slow = predict_cost(model, space, config, hold_out["h1"])
        # log-space distance to own family mean is smaller than to the other
        assert abs(math.log10(fast) - 0.0) < abs(math.log10(fast) - 2.0)
        assert abs(math.log10(slow) - 2.0) < abs(math.log10(slow) - 0.0)


class TestModelProperties:
    def _populated(self, space, n=60, seed=0):
        rng = random.Random(seed)
        store = RunDataStore()
        features = {}
        configs = [make_config(space, {"s": v}) for v in "abcd"]
        for i in range(n):
            features[f"i{i}"] = (rng.uniform(0, 10), rng.uniform(0, 10))
        for i in range(n):
            config = configs[rng.randrange(4)]
            runtime = rng.uniform(0.5, 50.0)
            add_run(store, config, f"i{i}", runtime, seed=rng.randrange(1000))
        return store, features, configs

    def test_seed_determinism(self, space):
        store, features, configs = self._populated(space)
        params = ForestParams(n_trees=12)
        m1 = fit_model(store, space, features, 60.0, 10, params=params, seed=9)
        m2 = fit_model(store, space, features, 60.0, 10, params=params, seed=9)
        query = np.array([[0.0, 3.0, 3.0], [2.0, 8.0, 1.0]])
        assert np.array_equal(m1.predict_transformed(query), m2.predict_transformed(query))

    def test_record_order_invariance(self, space):
        store, features, _ = self._populated(space)
        shuffled = RunDataStore()
        records = list(store.records())
        random.Random(4).shuffle(records)
        configs = store.known_configs()
        for rec in records:
            shuffled.add(rec, configs[rec.config_id])
        params = ForestParams(n_trees=8)
        m1 = fit_model(store, space, features, 60.0, 10, params=params, seed=2)
        m2 = fit_model(shuffled, space, features, 60.0, 10, params=params, seed=2)
        query = np.array([[1.0, 5.0, 5.0], [3.0, 0.5, 9.5]])
        assert np.array_equal(m1.predict_transformed(query), m2.predict_transformed(query))

    def test_predictions_bounded_by_training_targets(self, space):
        store, features, configs = self._populated(space, n=80, seed=3)
        model = fit_model(store, space, features, 60.0, 10, params=ForestParams(n_trees=10), seed=7)
        rng = random.Random(11)
        rows = np.array(
            [[rng.choice([0.0, 1.0, 2.0, 3.0]), rng.uniform(-5, 15), rng.uniform(-5, 15)] for _ in range(200)]
        )
        preds = model.predict_transformed(rows)
        # every run solved below the cutoff, so each target is log10(runtime)
        targets = [math.log10(r.runtime) for r in store.records()]
        assert np.all(preds >= min(targets) - 1e-12)
        assert np.all(preds <= max(targets) + 1e-12)

    def test_instances_without_features_skipped(self, space):
        store = RunDataStore()
        config = make_config(space, {"s": "a"})
        add_run(store, config, "featured", 5.0)
        add_run(store, config, "unfeatured", 50.0)
        features = {"featured": (0.0,)}
        model = fit_model(store, space, features, 60.0, 10, seed=0)
        assert predict_cost(model, space, config, (0.0,)) == pytest.approx(5.0)


# ---------------------------------------------------------------------------
# Exactness of the forest against the original per-node implementation.
#
# The reference below is the tree code as it was before column presorting,
# vectorised subset scoring and level-wise prediction: every node re-sorts
# its rows, categorical subsets are scored one bitmask at a time, and predict
# walks node by node with ``np.isin``. The fast code must give bit-identical
# trees, predictions and random-number consumption.


@dataclass
class TableTree:
    """One tree read out of a model's node table, node indices local to it."""

    feature: np.ndarray
    threshold: np.ndarray
    children: np.ndarray           # (n_nodes, 2)
    value: np.ndarray
    left_values: list[frozenset | None]  # category values sent left, None off cat nodes


def table_trees(model) -> list[TableTree]:
    ends = list(model.roots[1:]) + [len(model.feature)]
    left_codes = model.left_codes.reshape(len(model.feature), model.n_codes)
    trees = []
    for root, end in zip(model.roots, ends):
        trees.append(
            TableTree(
                feature=model.feature[root:end],
                threshold=model.threshold[root:end],
                children=model.children[2 * root : 2 * end].reshape(-1, 2) - root,
                value=model.value[root:end],
                left_values=[
                    frozenset(float(c) + SENTINEL for c in np.flatnonzero(left_codes[i]))
                    if model.categorical[i]
                    else None
                    for i in range(root, end)
                ],
            )
        )
    return trees


def assert_same_trees(model, reference, Q, equal_nan=False):
    """Every tree of ``model`` equals its reference tree, node for node, and
    predicts ``Q`` as it does; the model's mean is the mean of those
    predictions in tree order. ``equal_nan`` lets a NaN leaf value match a
    NaN reference leaf."""
    per_tree = model.predict_trees(Q)
    acc = np.zeros(len(Q))
    for tree, predicted, ref in zip(table_trees(model), per_tree, reference, strict=True):
        assert np.array_equal(tree.feature, ref.feature)
        assert np.array_equal(tree.threshold, ref.threshold)
        assert np.array_equal(tree.children, ref.children)
        assert np.array_equal(tree.value, ref.value, equal_nan=equal_nan)
        assert tree.left_values == ref.left_values
        assert np.array_equal(predicted, ref.predict(Q))
        acc += predicted
    assert np.array_equal(model.predict_transformed(Q), acc / len(reference))


@dataclass
class RefTree:
    # column index per node, -1 for leaves
    feature: np.ndarray
    threshold: np.ndarray          # numeric split threshold (unused for cat nodes)
    left_values: list[frozenset | None]
    children: np.ndarray           # (n_nodes, 2) indices
    value: np.ndarray              # leaf means (training-target means)

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(len(X))
        stack = [(0, np.arange(len(X)))]
        while stack:
            node, rows = stack.pop()
            if rows.size == 0:
                continue
            col = self.feature[node]
            if col < 0:
                out[rows] = self.value[node]
                continue
            values = X[rows, col]
            if self.left_values[node] is not None:
                mask = np.isin(values, list(self.left_values[node]))
            else:
                mask = values <= self.threshold[node]
            left, right = self.children[node]
            stack.append((left, rows[mask]))
            stack.append((right, rows[~mask]))
        return out


def ref_grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    idx: np.ndarray,
    cat_cols: np.ndarray,
    params: ForestParams,
    rng: np.random.Generator,
) -> RefTree:
    feature: list[int] = []
    threshold: list[float] = []
    left_values: list[frozenset | None] = []
    children: list[list[int]] = []
    value: list[float] = []

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left_values.append(None)
        children.append([-1, -1])
        value.append(0.0)
        return len(feature) - 1

    def build(rows: np.ndarray) -> int:
        node = new_node()
        targets = y[rows]
        value[node] = float(targets.mean())
        if len(rows) < 2 * params.min_leaf or np.all(targets == targets[0]):
            return node
        split = ref_best_split(X, y, rows, cat_cols, params, rng)
        if split is None:
            return node
        col, thr, cats, mask = split
        feature[node] = col
        threshold[node] = thr
        left_values[node] = cats
        left = build(rows[mask])
        right = build(rows[~mask])
        children[node] = [left, right]
        return node

    build(idx)
    return RefTree(
        feature=np.array(feature),
        threshold=np.array(threshold),
        left_values=left_values,
        children=np.array(children),
        value=np.array(value),
    )


def ref_best_split(
    X: np.ndarray,
    y: np.ndarray,
    rows: np.ndarray,
    cat_cols: np.ndarray,
    params: ForestParams,
    rng: np.random.Generator,
):
    n_cols = X.shape[1]
    n_try = min(n_cols, max(1, math.ceil(n_cols / 3)))
    candidates = rng.choice(n_cols, size=n_try, replace=False)
    best = None
    best_sse = math.inf
    for col in candidates:
        values = X[rows, col]
        targets = y[rows]
        if cat_cols[col]:
            result = ref_best_categorical_split(values, targets, params.min_leaf)
            if result is not None and result[0] < best_sse:
                best_sse = result[0]
                best = (int(col), 0.0, result[1], np.isin(values, list(result[1])))
        else:
            result = ref_best_numeric_split(values, targets, params.min_leaf)
            if result is not None and result[0] < best_sse:
                best_sse = result[0]
                best = (int(col), result[1], None, values <= result[1])
    return best


def ref_split_sse(counts_l, sums_l, sq_l, total_n, total_sum, total_sq):
    counts_r = total_n - counts_l
    sums_r = total_sum - sums_l
    sq_r = total_sq - sq_l
    sse_l = sq_l - sums_l**2 / counts_l
    sse_r = sq_r - sums_r**2 / counts_r
    return sse_l + sse_r


def ref_best_numeric_split(values: np.ndarray, targets: np.ndarray, min_leaf: int):
    order = np.argsort(values, kind="mergesort")
    xs = values[order]
    ys = targets[order]
    n = len(xs)
    csum = np.cumsum(ys)
    csq = np.cumsum(ys * ys)
    pos = np.arange(min_leaf, n - min_leaf + 1)  # split before index pos
    if pos.size == 0:
        return None
    valid = xs[pos - 1] < xs[pos]
    pos = pos[valid]
    if pos.size == 0:
        return None
    sse = ref_split_sse(pos, csum[pos - 1], csq[pos - 1], n, csum[-1], csq[-1])
    best = int(np.argmin(sse))
    p = pos[best]
    middle = (xs[p - 1] + xs[p]) / 2.0
    return float(sse[best]), float(middle if middle < xs[p] else xs[p - 1])


def ref_best_categorical_split(values: np.ndarray, targets: np.ndarray, min_leaf: int):
    cats, inverse = np.unique(values, return_inverse=True)
    m = len(cats)
    if m < 2:
        return None
    counts = np.bincount(inverse).astype(float)
    sums = np.bincount(inverse, weights=targets)
    sqs = np.bincount(inverse, weights=targets * targets)
    total_n, total_sum, total_sq = float(len(values)), float(targets.sum()), float((targets * targets).sum())
    best_sse = math.inf
    best_left: frozenset | None = None
    if m <= MAX_EXHAUSTIVE_CATEGORIES:
        # canonical proper subsets: category 0 always on the left
        for mask in range(1, 1 << m, 2):
            if mask == (1 << m) - 1:
                continue
            members = [j for j in range(m) if mask >> j & 1]
            n_l = counts[members].sum()
            if n_l < min_leaf or total_n - n_l < min_leaf:
                continue
            sse = ref_split_sse(
                n_l, sums[members].sum(), sqs[members].sum(), total_n, total_sum, total_sq
            )
            if sse < best_sse:
                best_sse = sse
                best_left = frozenset(float(cats[j]) for j in members)
    else:
        # order categories by target mean and split along that ordering
        order = np.argsort(sums / counts, kind="mergesort")
        c_counts = np.cumsum(counts[order])[:-1]
        c_sums = np.cumsum(sums[order])[:-1]
        c_sqs = np.cumsum(sqs[order])[:-1]
        ok = (c_counts >= min_leaf) & (total_n - c_counts >= min_leaf)
        if not ok.any():
            return None
        sse = np.where(
            ok,
            ref_split_sse(c_counts, c_sums, c_sqs, total_n, total_sum, total_sq),
            math.inf,
        )
        cut = int(np.argmin(sse))
        best_sse = float(sse[cut])
        best_left = frozenset(float(cats[j]) for j in order[: cut + 1])
    if best_left is None:
        return None
    return best_sse, best_left


def reference_forest(X, y, column_kinds, params, seed, bootstrap=True):
    """The reference trees of ``fit_forest``, or with ``bootstrap=False``
    of trees that each grow on every row once, in row order."""
    cat_cols = np.array([kind == "cat" for kind in column_kinds])
    trees = []
    for tree_seed in np.random.SeedSequence(seed).spawn(params.n_trees):
        rng = np.random.default_rng(tree_seed)
        if bootstrap:
            idx = rng.integers(0, len(y), size=len(y))
        else:
            idx = np.arange(len(y))
        trees.append(ref_grow_tree(X, y, idx, cat_cols, params, rng))
    return trees


def grown_forest(X, y, column_kinds, params, seed, bootstrap=True):
    """``fit_forest``, or with ``bootstrap=False`` the same generators growing
    each tree with ``_grow_tree`` on every row once, stacked by ``_stack``."""
    if bootstrap:
        return fit_forest(X, y, column_kinds, params, seed)
    cat_cols = np.array([kind == "cat" for kind in column_kinds])
    trees = [
        _grow_tree(X, y, np.arange(len(y)), cat_cols, params, np.random.default_rng(tree_seed))
        for tree_seed in np.random.SeedSequence(seed).spawn(params.n_trees)
    ]
    return _stack(trees, len(column_kinds))


def assert_same_tree(X, y, column_kinds, idx, params, rng_fast, rng_ref):
    """``_grow_tree`` and ``ref_grow_tree`` grow the same tree on the sample
    rows ``idx``, from two generators in the same state."""
    cat_cols = np.array([kind == "cat" for kind in column_kinds])
    model = _stack([_grow_tree(X, y, idx, cat_cols, params, rng_fast)], X.shape[1])
    reference = [ref_grow_tree(X, y, idx, cat_cols, params, rng_ref)]
    assert_same_trees(model, reference, query_rows(X, column_kinds, 0), equal_nan=True)


def random_forest_data(seed, constant_target=False, n_rows=None):
    """Rows mixing numeric columns (some with tied values), categorical
    columns with 2-8 and with more than 8 levels, and inactive SENTINEL
    entries; targets continuous, on a coarse grid (tied split scores), or
    constant. Five columns; ``n_rows`` rows, or a seeded count from 6 to 159."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 160))
    if n_rows is not None:
        n = n_rows
    columns, kinds = [], []
    for levels in (int(rng.integers(2, 9)), int(rng.integers(9, 15))):
        col = rng.integers(0, levels, size=n).astype(float)
        col[rng.random(n) < 0.2] = SENTINEL
        columns.append(col)
        kinds.append("cat")
    columns.append(rng.uniform(0, 1, size=n))
    tied = np.round(rng.uniform(0, 1, size=n), 1)
    tied[rng.random(n) < 0.2] = SENTINEL
    columns.append(tied)
    columns.append(rng.normal(size=n))
    kinds += ["num", "num", "num"]
    perm = rng.permutation(len(columns))
    X = np.column_stack([columns[i] for i in perm])
    column_kinds = tuple(kinds[i] for i in perm)
    if constant_target:
        y = np.full(n, 0.75)
    elif seed % 2:
        y = rng.integers(0, 4, size=n) / 2.0
    else:
        y = rng.normal(size=n)
    return X, y, column_kinds


def query_rows(X, column_kinds, seed):
    """Training rows plus fresh rows, with category codes never seen in
    training among them."""
    rng = np.random.default_rng(seed + 1000)
    fresh = X[rng.integers(0, len(X), size=40)].copy()
    for j, kind in enumerate(column_kinds):
        if kind == "cat":
            fresh[::3, j] = rng.choice([SENTINEL, 0.0, 20.0, 2.5], size=len(fresh[::3]))
        else:
            fresh[:, j] += rng.normal(scale=0.2, size=len(fresh))
    return np.vstack([X, fresh])


class TestForestExactness:
    # bootstrap=False grows every tree on all rows once, through _grow_tree
    # and _stack, as fit_forest would without resampling
    @pytest.mark.parametrize("min_leaf", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("bootstrap", [True, False])
    @pytest.mark.parametrize("data_seed", [0, 1, 2, 3])
    def test_trees_and_predictions_match_reference(self, min_leaf, bootstrap, data_seed):
        X, y, column_kinds = random_forest_data(10 * min_leaf + data_seed)
        params = ForestParams(n_trees=3, min_leaf=min_leaf)
        seed = 7 * data_seed + min_leaf
        model = grown_forest(X, y, column_kinds, params, seed, bootstrap)
        reference = reference_forest(X, y, column_kinds, params, seed, bootstrap)
        assert_same_trees(model, reference, query_rows(X, column_kinds, seed))

    @pytest.mark.parametrize("min_leaf", [1, 3])
    def test_constant_target_gives_single_leaf(self, min_leaf):
        X, y, column_kinds = random_forest_data(5, constant_target=True)
        params = ForestParams(n_trees=2, min_leaf=min_leaf)
        model = fit_forest(X, y, column_kinds, params, 3)
        assert len(model.feature) == params.n_trees
        assert_same_trees(model, reference_forest(X, y, column_kinds, params, 3), X)

    def test_categorical_split_scores_match_reference(self):
        rng = np.random.default_rng(4)
        nodes = []
        for _ in range(500):
            n = int(rng.integers(4, 40))
            levels = int(rng.integers(2, 13))
            values = rng.integers(0, levels, size=n) - 1.0  # SENTINEL is code 0
            nodes.append((values, rng.normal(size=n) * 10.0 ** rng.integers(-3, 3), levels))
        # more than 128 samples take numpy's pairwise order in the totals, and
        # more than 8 levels split along the by-mean ordering
        for _ in range(200):
            n = int(rng.integers(129, 1200))
            levels = int(rng.integers(9, 15))
            values = rng.integers(0, levels, size=n) - 1.0
            nodes.append((values, rng.normal(size=n) * 10.0 ** rng.integers(-3, 3), levels))
        # few samples on three target values: tied category means and tied
        # split scores
        for _ in range(500):
            n = int(rng.integers(9, 60))
            levels = int(rng.integers(9, 15))
            values = rng.integers(0, levels, size=n) - 1.0
            nodes.append((values, rng.integers(0, 3, size=n) / 2.0, levels))
        # a lone member on the left makes the score t*t - t**2 plus the right
        # side: a float64 scalar's ``**`` is libm pow, which can differ from
        # ``t * t`` in the last bit, and the split must score it the same way
        for t in rng.normal(size=5000):
            nodes.append((np.array([SENTINEL, 0.0, 0.0]), np.array([t, 1.0, 2.0]), 2))
        for values, targets, levels in nodes:
            expected = ref_best_categorical_split(values, targets, min_leaf=1)
            codes = (values - SENTINEL).astype(np.intp)
            got = _best_categorical_split(codes.tolist(), targets.tolist(), levels, min_leaf=1)
            if expected is None:
                assert got is None
                continue
            assert got[0] == expected[0]
            assert frozenset(np.flatnonzero(got[1]) + SENTINEL) == expected[1]

    def test_pairwise_sum_matches_numpy(self):
        rng = np.random.default_rng(9)
        sizes = list(range(1100)) + [4097, 9000]
        for n in sizes:
            for _ in range(20 if n <= 300 else 2):
                values = rng.normal(size=n) * 10.0 ** rng.integers(-8, 9, size=n)
                assert 0.0 + _pairwise_sum(values.tolist()) == np.add.reduce(values)

    def test_same_random_draws_as_reference(self):
        X, y, column_kinds = random_forest_data(2)
        params = ForestParams(min_leaf=2)
        rng_fast, rng_ref = np.random.default_rng(11), np.random.default_rng(11)
        idx = np.random.default_rng(12).integers(0, len(y), size=len(y))
        assert_same_tree(X, y, column_kinds, idx, params, rng_fast, rng_ref)

    # row counts around 128, where the pairwise sum starts to halve, and
    # samples large enough that nodes of more than 128 samples score the
    # categorical column of 9-14 levels along its by-mean ordering
    @pytest.mark.parametrize("n_rows", [62, 102, 103, 128, 129, 306, 1000])
    @pytest.mark.parametrize("min_leaf", [1, 3])
    @pytest.mark.parametrize("bootstrap", [True, False])
    def test_both_tree_paths_match_reference(self, n_rows, min_leaf, bootstrap, monkeypatch):
        scored = []  # (samples, levels present) of every categorical node scored
        score = perfmodel._best_categorical_split

        def recording_score(codes, targets, n_codes, min_leaf):
            scored.append((len(codes), len(set(codes))))
            return score(codes, targets, n_codes, min_leaf)

        monkeypatch.setattr(perfmodel, "_best_categorical_split", recording_score)
        for data_seed in (0, 1):
            X, y, column_kinds = random_forest_data(data_seed, n_rows=n_rows)
            params = ForestParams(n_trees=3, min_leaf=min_leaf)
            seed = n_rows + data_seed
            model = grown_forest(X, y, column_kinds, params, seed, bootstrap)
            reference = reference_forest(X, y, column_kinds, params, seed, bootstrap)
            Q = query_rows(X, column_kinds, seed)
            assert_same_trees(model, reference, Q, equal_nan=True)
            # trees on a bootstrap that their own generator draws, of an even
            # and an odd count, so that one generator holds back the high half
            # of an output, and the tree's column draws must start with it
            buffered = []
            for n_sample in (n_rows, n_rows - 1):
                rng_fast, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
                idx = rng_fast.integers(0, n_rows, size=n_sample)
                rng_ref.integers(0, n_rows, size=n_sample)
                buffered.append(rng_fast.bit_generator.state["has_uint32"])
                assert_same_tree(X, y, column_kinds, idx, params, rng_fast, rng_ref)
            assert any(buffered)
        if n_rows > 300:
            assert any(m > 128 and levels > 8 for m, levels in scored)

    # more than LIST_MAX columns draw through rng.choice, more than 10,000
    # through numpy's tail shuffle
    @pytest.mark.parametrize(
        "n_cols", [_ColumnDraw.LIST_MAX, _ColumnDraw.LIST_MAX + 1, 200, 10_050]
    )
    def test_wide_rows_match_reference(self, n_cols):
        rng = np.random.default_rng(n_cols)
        n_rows = 12 if n_cols > 10_000 else 60
        X = rng.normal(size=(n_rows, n_cols))
        X[:, ::7] = rng.integers(0, 4, size=X[:, ::7].shape)
        column_kinds = tuple("cat" if j % 7 == 0 else "num" for j in range(n_cols))
        y = rng.normal(size=n_rows)
        params = ForestParams(n_trees=2, min_leaf=2)
        model = fit_forest(X, y, column_kinds, params, n_cols)
        assert all(len(tree.feature) > 1 for tree in table_trees(model))
        reference = reference_forest(X, y, column_kinds, params, n_cols)
        assert_same_trees(model, reference, query_rows(X, column_kinds, n_cols))
        rng_fast, rng_ref = np.random.default_rng(n_cols), np.random.default_rng(n_cols)
        assert_same_tree(X, y, column_kinds, np.arange(n_rows), params, rng_fast, rng_ref)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rows_rejected(self, bad):
        X, y, column_kinds = random_forest_data(3)
        X[len(X) // 2, column_kinds.index("num")] = bad
        with pytest.raises(ValueError, match="finite"):
            fit_forest(X, y, column_kinds, ForestParams(), 0)

    def test_non_code_categorical_values_rejected(self):
        X = np.array([[0.5, 1.0], [1.0, 2.0]])
        with pytest.raises(ValueError, match="choice codes"):
            fit_forest(X, np.array([1.0, 2.0]), ("cat", "num"), ForestParams(), 0)

    def test_split_between_adjacent_doubles_separates_them(self):
        # the midpoint of 0.3 and the next double up rounds to the upper
        # value, and a split there would send every sample left
        low, high = 0.3, math.nextafter(0.3, 1.0)
        assert (low + high) / 2.0 == high
        X = np.array([[low]] * 6 + [[high]] * 6)
        y = np.array([0.0] * 6 + [1.0] * 6)
        assert perfmodel._best_numeric_split(X[:, 0].tolist(), y.tolist(), 3) == (0.0, low)
        params = ForestParams(n_trees=8, min_leaf=3)
        for bootstrap in (True, False):
            model = grown_forest(X, y, ("num",), params, 0, bootstrap)
            assert not np.isnan(model.value).any()
            assert_same_trees(model, reference_forest(X, y, ("num",), params, 0, bootstrap), X)
        exact = grown_forest(X, y, ("num",), params, 0, bootstrap=False)
        assert exact.predict_transformed(np.array([[low], [high]])).tolist() == [0.0, 1.0]

    def test_no_empty_leaf_between_adjacent_doubles(self):
        # with other columns to draw, a split that sends every sample left
        # leaves an empty right leaf, whose mean is NaN
        rng = np.random.default_rng(5)
        low, high = 0.3, math.nextafter(0.3, 1.0)
        X = np.column_stack([
            np.repeat([low, high], 30), rng.normal(size=60), rng.normal(size=60),
        ])
        y = np.repeat([0.0, 1.0], 30) + rng.normal(scale=0.01, size=60)
        model = fit_forest(X, y, ("num", "num", "num"), ForestParams(n_trees=20, min_leaf=3), 0)
        assert not np.isnan(model.value).any()
        assert np.isfinite(model.predict_transformed(X)).all()


class TestFitForestInputs:
    def test_non_finite_target_rejected(self):
        X, y, column_kinds = random_forest_data(2)
        y[3] = math.nan
        with pytest.raises(ValueError, match="targets must be finite"):
            fit_forest(X, y, column_kinds, ForestParams(), 0)

    def test_target_count_must_match_rows(self):
        X, y, column_kinds = random_forest_data(2, n_rows=30)
        with pytest.raises(ValueError, match="one target per row"):
            fit_forest(X, y[:20], column_kinds, ForestParams(), 0)

    def test_zero_rows_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            fit_forest(np.empty((0, 2)), np.empty(0), ("num", "num"), ForestParams(), 0)

    def test_short_column_kinds_rejected(self):
        X, y, column_kinds = random_forest_data(2)
        with pytest.raises(ValueError, match="column kinds"):
            fit_forest(X, y, column_kinds[:-1], ForestParams(), 0)

    def test_unknown_column_kind_rejected(self):
        X, y, column_kinds = random_forest_data(2)
        kinds = tuple("categorical" if kind == "cat" else kind for kind in column_kinds)
        with pytest.raises(ValueError, match="'num' or 'cat'"):
            fit_forest(X, y, kinds, ForestParams(), 0)

    def test_numeric_values_beyond_integer_range_fit_without_warnings(self):
        X, y, column_kinds = random_forest_data(2)
        X[:, column_kinds.index("num")] *= 1e20
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit_forest(X, y, column_kinds, ForestParams(n_trees=5), 0)
        assert_same_trees(
            model, reference_forest(X, y, column_kinds, ForestParams(n_trees=5), 0), X
        )


# PCG64's multiplier: a step is state * MULTIPLIER + inc modulo 2**128, and
# the output is the xor of the new state's halves rotated right by its top
# six bits
PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def zero_output_next(rng: np.random.Generator) -> None:
    """Set the generator so that its next 64-bit output is 0: two 32-bit
    words that Lemire's method rejects for every bound but a power of two."""
    state = rng.bit_generator.state
    inc = state["state"]["inc"]
    half = int(np.random.default_rng(0).integers(0, 2**63))
    after = (half << 64) | half  # halves that xor to zero
    state["state"]["state"] = (after - inc) * pow(PCG64_MULTIPLIER, -1, 2**128) % 2**128
    state["has_uint32"] = 0
    rng.bit_generator.state = state


class TestColumnDraw:
    """``_ColumnDraw`` against ``Generator.choice(n, size=k, replace=False)``,
    value for value. Verified on numpy 2.4.6; a numpy that changes the
    algorithm behind ``choice`` fails here first."""

    BOOTSTRAP_SIZES = (0, 1, 2, 3, 49, 128, 999, 1000)
    CALLS = (4, 1, 2, 9, 150)  # 150 draws outrun the first block of words

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_generator_choice(self, n):
        for k in range(1, n + 1):
            for seed in range(16):
                fast, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                size = self.BOOTSTRAP_SIZES[seed % len(self.BOOTSTRAP_SIZES)]
                if size:
                    fast.integers(0, size, size=size)
                    ref.integers(0, size, size=size)
                draw = _ColumnDraw(fast, n, k)
                for _ in range(self.CALLS[seed % len(self.CALLS)]):
                    assert draw.sample() == ref.choice(n, size=k, replace=False).tolist()

    @pytest.mark.parametrize("n", range(2, 13))
    @pytest.mark.parametrize("buffered", [False, True])
    def test_rejected_words_redrawn(self, n, buffered):
        for k in range(1, n + 1):
            fast, ref = np.random.default_rng(n), np.random.default_rng(n)
            for rng in (fast, ref):
                zero_output_next(rng)
                if buffered:
                    rng.integers(0, 8)  # takes the first zero word, buffers the second
            assert fast.bit_generator.state["has_uint32"] == buffered
            draw = _ColumnDraw(fast, n, k)
            for _ in range(3):
                assert draw.sample() == ref.choice(n, size=k, replace=False).tolist()

    def test_crafted_state_outputs_zero(self):
        rng = np.random.default_rng(1)
        zero_output_next(rng)
        assert int(rng.bit_generator.random_raw()) == 0

    def test_other_bit_generators_rejected(self):
        for bit_gen in (np.random.MT19937(0), np.random.PCG64DXSM(0), np.random.Philox(0)):
            with pytest.raises(TypeError, match="PCG64"):
                _ColumnDraw(np.random.Generator(bit_gen), 5, 2)

    def test_impossible_sizes_rejected(self):
        for n, k in ((3, 4), (3, 0), (20_000, 20_001)):
            with pytest.raises(ValueError):
                _ColumnDraw(np.random.default_rng(0), n, k)

    # on either side of LIST_MAX, where the draw hands over to rng.choice, and
    # on either side of 10,000, where numpy switches to a tail shuffle
    @pytest.mark.parametrize(
        "n", [13, _ColumnDraw.LIST_MAX, _ColumnDraw.LIST_MAX + 1, 195, 300, 1000, 10_000, 10_001, 30_000]
    )
    def test_large_draws_match_generator_choice(self, n):
        for k in sorted({1, math.ceil(n / 3), n}):
            for seed in range(3):
                fast, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                fast.integers(0, 8)  # leaves a buffered word
                ref.integers(0, 8)
                draw = _ColumnDraw(fast, n, k)
                for _ in range(4):
                    assert draw.sample() == ref.choice(n, size=k, replace=False).tolist()

    # draws of these sizes start a sample with at most two words to spare in
    # the first 260 outputs, so a rejected word there decides whether the
    # rest of the sample finds its words
    @pytest.mark.parametrize("n, k", [(5, 5), (12, 8), (12, 9), (24, 8), (32, 4), (32, 26)])
    def test_rejection_at_every_stream_offset(self, n, k):
        for offset in range(260):
            fast, ref = np.random.default_rng(offset), np.random.default_rng(offset)
            for rng in (fast, ref):
                zero_output_next(rng)
                rng.bit_generator.advance(2**128 - offset)  # the zero comes after offset outputs
            draw = _ColumnDraw(fast, n, k)
            for _ in range(2 * offset // (2 * k - 1) + 2):
                assert draw.sample() == ref.choice(n, size=k, replace=False).tolist()
