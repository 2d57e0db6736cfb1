import math
import random
from dataclasses import dataclass

import numpy as np
import pytest

from acpp.core import RunRecord, RunStatus
from acpp.perfmodel import (
    ForestParams,
    _best_categorical_split,
    _best_categorical_split_py,
    _grow_tree,
    _pairwise_sum,
    fit_forest,
    fit_model,
)
from acpp.rundata import RunDataStore
from acpp.space import SENTINEL, make_config, parse_space


@pytest.fixture
def space():
    return parse_space("s categorical {a, b, c, d} [a]\n")


def add_run(store, config, instance_id, runtime, cutoff=60.0, seed=0, status=RunStatus.SOLVED):
    store.add(
        RunRecord(config.config_id, instance_id, seed, status, runtime, cutoff),
        config,
    )


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
            assert model.predict_cost(config, features[f"i{i}"]) == pytest.approx(7.0)

    def test_single_record_predicts_everywhere(self, space):
        store = RunDataStore()
        config = make_config(space, {"s": "b"})
        features = {"i0": (0.0, 0.0)}
        add_run(store, config, "i0", 12.5)
        model = fit_model(store, space, features, cutoff=60.0, penalty=10, seed=3)
        other = make_config(space, {"s": "d"})
        assert model.predict_cost(other, (9.0, 9.0)) == pytest.approx(12.5)

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
        fast = model.predict_cost(config, hold_out["h0"])
        slow = model.predict_cost(config, hold_out["h1"])
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
        assert np.all(preds >= model.y_min - 1e-12)
        assert np.all(preds <= model.y_max + 1e-12)

    def test_instances_without_features_skipped(self, space):
        store = RunDataStore()
        config = make_config(space, {"s": "a"})
        add_run(store, config, "featured", 5.0)
        add_run(store, config, "unfeatured", 50.0)
        features = {"featured": (0.0,)}
        model = fit_model(store, space, features, 60.0, 10, seed=0)
        assert model.predict_cost(config, (0.0,)) == pytest.approx(5.0)


# ---------------------------------------------------------------------------
# Exactness of the forest against the original per-node implementation.
#
# The reference below is the tree code as it was before column presorting,
# vectorised subset scoring and level-wise prediction: every node re-sorts
# its rows, categorical subsets are scored one bitmask at a time, and predict
# walks node by node with ``np.isin``. The fast code must give bit-identical
# trees, predictions and random-number consumption.


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
    n_try = min(n_cols, params.n_split_features(n_cols))
    candidates = rng.choice(n_cols, size=n_try, replace=False)
    best = None
    best_sse = math.inf
    for col in candidates:
        values = X[rows, col]
        targets = y[rows]
        if cat_cols[col]:
            result = ref_best_categorical_split(values, targets, params)
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
    return float(sse[best]), float((xs[p - 1] + xs[p]) / 2.0)


def ref_best_categorical_split(values: np.ndarray, targets: np.ndarray, params: ForestParams):
    cats, inverse = np.unique(values, return_inverse=True)
    m = len(cats)
    if m < 2:
        return None
    counts = np.bincount(inverse).astype(float)
    sums = np.bincount(inverse, weights=targets)
    sqs = np.bincount(inverse, weights=targets * targets)
    total_n, total_sum, total_sq = float(len(values)), float(targets.sum()), float((targets * targets).sum())
    min_leaf = params.min_leaf
    best_sse = math.inf
    best_left: frozenset | None = None
    if m <= params.max_exhaustive_categories:
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


def reference_forest(X, y, column_kinds, params, seed):
    cat_cols = np.array([kind == "cat" for kind in column_kinds])
    trees = []
    for tree_seed in np.random.SeedSequence(seed).spawn(params.n_trees):
        rng = np.random.default_rng(tree_seed)
        if params.bootstrap:
            idx = rng.integers(0, len(y), size=len(y))
        else:
            idx = np.arange(len(y))
        trees.append(ref_grow_tree(X, y, idx, cat_cols, params, rng))
    return trees


def random_forest_data(seed, constant_target=False):
    """Rows mixing numeric columns (some with tied values), categorical
    columns with 2-8 and with more than 8 levels, and inactive SENTINEL
    entries; targets continuous, on a coarse grid (tied split scores), or
    constant."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 160))
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
    @pytest.mark.parametrize("min_leaf", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("bootstrap", [True, False])
    @pytest.mark.parametrize("data_seed", [0, 1, 2, 3])
    def test_trees_and_predictions_match_reference(self, min_leaf, bootstrap, data_seed):
        X, y, column_kinds = random_forest_data(10 * min_leaf + data_seed)
        params = ForestParams(n_trees=3, min_leaf=min_leaf, bootstrap=bootstrap)
        seed = 7 * data_seed + min_leaf
        model = fit_forest(X, y, column_kinds, params, seed, feature_dim=0, space=None)
        reference = reference_forest(X, y, column_kinds, params, seed)
        for tree, ref in zip(model.trees, reference, strict=True):
            assert np.array_equal(tree.feature, ref.feature)
            assert np.array_equal(tree.threshold, ref.threshold)
            assert np.array_equal(tree.children, ref.children)
            assert np.array_equal(tree.value, ref.value)
            assert [tree.left_values(i) for i in range(len(tree.feature))] == ref.left_values
        Q = query_rows(X, column_kinds, seed)
        acc = np.zeros(len(Q))
        for tree, ref in zip(model.trees, reference):
            predicted = tree.predict(Q)
            assert np.array_equal(predicted, ref.predict(Q))
            acc += predicted
        assert np.array_equal(model.predict_transformed(Q), acc / len(reference))

    @pytest.mark.parametrize("min_leaf", [1, 3])
    def test_constant_target_gives_single_leaf(self, min_leaf):
        X, y, column_kinds = random_forest_data(5, constant_target=True)
        params = ForestParams(n_trees=2, min_leaf=min_leaf)
        model = fit_forest(X, y, column_kinds, params, 3, feature_dim=0, space=None)
        for tree, ref in zip(model.trees, reference_forest(X, y, column_kinds, params, 3)):
            assert np.array_equal(tree.feature, ref.feature) and len(tree.feature) == 1
            assert np.array_equal(tree.value, ref.value)
            assert np.array_equal(tree.predict(X), ref.predict(X))

    @pytest.mark.parametrize("on_lists", [False, True])
    def test_categorical_split_scores_match_reference(self, on_lists):
        rng = np.random.default_rng(4)
        params = ForestParams(min_leaf=1)
        nodes = []
        for _ in range(500):
            n = int(rng.integers(4, 40))
            levels = int(rng.integers(2, 13))
            values = rng.integers(0, levels, size=n) - 1.0  # SENTINEL is code 0
            nodes.append((values, rng.normal(size=n) * 10.0 ** rng.integers(-3, 3), levels))
        # a lone member on the left makes the score t*t - t**2 plus the right
        # side: a float64 scalar's ``**`` is libm pow, which can differ from
        # ``t * t`` in the last bit, and the split must score it the same way
        for t in rng.normal(size=5000):
            nodes.append((np.array([SENTINEL, 0.0, 0.0]), np.array([t, 1.0, 2.0]), 2))
        for values, targets, levels in nodes:
            expected = ref_best_categorical_split(values, targets, params)
            codes = (values - SENTINEL).astype(np.intp)
            if on_lists:
                got = _best_categorical_split_py(codes.tolist(), targets.tolist(), levels, params)
            else:
                got = _best_categorical_split(codes, targets, levels, params)
            if expected is None:
                assert got is None
                continue
            assert got[0] == expected[0]
            assert frozenset(np.flatnonzero(got[1]) + SENTINEL) == expected[1]

    def test_pairwise_sum_matches_numpy(self):
        rng = np.random.default_rng(9)
        for n in range(129):
            for _ in range(20):
                values = rng.normal(size=n) * 10.0 ** rng.integers(-8, 9, size=n)
                assert 0.0 + _pairwise_sum(values.tolist()) == np.add.reduce(values)

    def test_same_random_draws_as_reference(self):
        X, y, column_kinds = random_forest_data(2)
        cat_cols = np.array([kind == "cat" for kind in column_kinds])
        params = ForestParams(min_leaf=2)
        rng_fast, rng_ref = np.random.default_rng(11), np.random.default_rng(11)
        idx = np.random.default_rng(12).integers(0, len(y), size=len(y))
        _grow_tree(X, y, idx, cat_cols, params, rng_fast)
        ref_grow_tree(X, y, idx, cat_cols, params, rng_ref)
        assert rng_fast.bit_generator.state == rng_ref.bit_generator.state

    def test_non_code_categorical_values_rejected(self):
        X = np.array([[0.5, 1.0], [1.0, 2.0]])
        with pytest.raises(ValueError, match="choice codes"):
            fit_forest(X, np.array([1.0, 2.0]), ("cat", "num"), ForestParams(), 0, 0, None)
