import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acpp import transfer
from acpp.core import InstanceGrouping, RunRecord, RunStatus, split_random_even, subset_bounds
from acpp.perfmodel import ForestParams
from acpp.rundata import RunDataStore
from acpp.space import make_config, parse_space
from acpp.transfer import select_transfer_candidates, transfer_instances

SMALL_FOREST = ForestParams(n_trees=5, min_leaf=2)


@pytest.fixture
def space():
    return parse_space("strategy categorical {x, y} [x]\n")


def add(store, config, instance_id, runtime, cutoff=60.0, seed=0):
    status = RunStatus.TIMEOUT if runtime >= cutoff else RunStatus.SOLVED
    store.add(
        RunRecord(config.config_id, instance_id, seed, status, min(runtime, cutoff), cutoff),
        config,
    )


class TestCandidateSelection:
    def test_median_rule(self, space):
        store = RunDataStore()
        inc = make_config(space, {"strategy": "x"})
        grouping = InstanceGrouping((("i1", "i2", "i3", "i4"),), 1, 4)
        for ins, score in zip(("i1", "i2", "i3", "i4"), (1.0, 2.0, 3.0, 4.0)):
            add(store, inc, ins, score)
        candidates, threshold, measured = select_transfer_candidates(
            grouping, [inc], store, 60.0, 10
        )
        assert threshold == 2.5
        assert candidates == {"i3", "i4"}
        assert measured == {"i1": 1.0, "i2": 2.0, "i3": 3.0, "i4": 4.0}

    def test_all_equal_yields_empty(self, space):
        store = RunDataStore()
        inc = make_config(space, {"strategy": "x"})
        grouping = InstanceGrouping((("i1", "i2", "i3"),), 1, 3)
        for ins in ("i1", "i2", "i3"):
            add(store, inc, ins, 5.0)
        candidates, threshold, _ = select_transfer_candidates(grouping, [inc], store, 60.0, 10)
        assert threshold == 5.0
        assert candidates == set()

    def test_unmeasured_instances_excluded(self, space):
        store = RunDataStore()
        inc = make_config(space, {"strategy": "x"})
        grouping = InstanceGrouping((("i1", "i2", "ghost"),), 1, 3)
        add(store, inc, "i1", 1.0)
        add(store, inc, "i2", 9.0)
        candidates, threshold, measured = select_transfer_candidates(
            grouping, [inc], store, 60.0, 10
        )
        assert "ghost" not in measured
        assert threshold == 5.0
        assert candidates == {"i2"}

    def test_incumbent_count_must_match(self, space):
        grouping = InstanceGrouping((("i1",), ("i2",)), 1, 2)
        inc = make_config(space, {"strategy": "x"})
        with pytest.raises(ValueError):
            select_transfer_candidates(grouping, [inc], RunDataStore(), 60.0, 10)


def planted_two_subset_case(space):
    """Subset A's incumbent is fast on family 1, B's on family 2; one
    family-2 instance sits in A with a score far above the median."""
    inc_a = make_config(space, {"strategy": "x"})
    inc_b = make_config(space, {"strategy": "y"})
    features = {}
    store = RunDataStore()
    a_members, b_members = [], []
    for j in range(6):
        ins = f"a{j}"
        a_members.append(ins)
        features[ins] = (0.0 + 0.01 * j, 0.0)
        add(store, inc_a, ins, 1.0, seed=j)      # family 1 under its anchor
        add(store, inc_b, ins, 50.0, seed=j)
    for j in range(5):
        ins = f"b{j}"
        b_members.append(ins)
        features[ins] = (10.0 + 0.01 * j, 0.0)
        add(store, inc_b, ins, 1.0, seed=j)      # family 2 under its anchor
        add(store, inc_a, ins, 50.0, seed=j)
    misplaced = "m0"
    features[misplaced] = (10.05, 0.0)           # family-2 features
    a_members.append(misplaced)
    add(store, inc_a, misplaced, 55.0)           # badly served in A
    add(store, inc_b, misplaced, 1.0)
    grouping = InstanceGrouping((tuple(a_members), tuple(b_members)), 5, 8)
    return grouping, [inc_a, inc_b], features, store


class TestTransfer:
    def test_empty_candidates_leave_grouping_unchanged(self, space):
        store = RunDataStore()
        inc = make_config(space, {"strategy": "x"})
        grouping = InstanceGrouping((("i1", "i2"),), 1, 2)
        add(store, inc, "i1", 5.0)
        add(store, inc, "i2", 5.0)
        result, report = transfer_instances(
            grouping, [inc], {"i1": (0.0,), "i2": (1.0,)}, store, space, 0, 60.0, 10,
            forest=SMALL_FOREST,
        )
        assert result == grouping
        assert report.rounds == 0
        assert report.moves == ()

    def test_misplaced_instance_moves_home(self, space):
        grouping, incumbents, features, store = planted_two_subset_case(space)
        result, report = transfer_instances(
            grouping, incumbents, features, store, space, 7, 60.0, 10, forest=SMALL_FOREST
        )
        assert "m0" in result.subsets[1]
        assert "m0" not in result.subsets[0]
        moved = [m for m in report.moves if m.instance_id == "m0"]
        assert moved and moved[0].source == 0 and moved[0].target == 1

    def test_full_target_blocks_move(self, space):
        grouping, incumbents, features, store = planted_two_subset_case(space)
        # shrink the upper bound so the better subset cannot accept anyone
        tight = InstanceGrouping(grouping.subsets, lower_bound=5, upper_bound=5)
        result, report = transfer_instances(
            tight, incumbents, features, store, space, 7, 60.0, 10, forest=SMALL_FOREST
        )
        assert result.subsets == tight.subsets
        assert report.rounds == 1  # no success in round one terminates

    def test_moves_never_worsen_prediction(self, space):
        grouping, incumbents, features, store = planted_two_subset_case(space)
        _, report = transfer_instances(
            grouping, incumbents, features, store, space, 3, 60.0, 10, forest=SMALL_FOREST
        )
        for move in report.moves:
            assert move.predicted[move.target] <= move.predicted[move.source]

    def test_deterministic(self, space):
        grouping, incumbents, features, store = planted_two_subset_case(space)
        a, _ = transfer_instances(
            grouping, incumbents, features, store, space, 11, 60.0, 10, forest=SMALL_FOREST
        )
        b, _ = transfer_instances(
            grouping, incumbents, features, store, space, 11, 60.0, 10, forest=SMALL_FOREST
        )
        assert a == b


def random_transfer_inputs(seed, n, k, shared=False):
    """Randomized store/grouping/incumbents in the spirit of the procedure's
    preconditions: one incumbent per subset, runs for ~90% of instances.
    With ``shared`` every subset gets the first subset's incumbent."""
    rng = random.Random(seed)
    space = parse_space("strategy categorical {x, y, z, w} [x]\n")
    grouping = split_random_even([f"i{j}" for j in range(n)], k, seed)
    incumbents = [
        make_config(space, {"strategy": rng.choice("xyzw")}) for _ in range(k)
    ]
    if shared:
        incumbents = incumbents[:1] * k
    features = {f"i{j}": (rng.uniform(0, 10), rng.uniform(0, 10)) for j in range(n)}
    store = RunDataStore()
    cutoff = 60.0
    for j, subset in enumerate(grouping.subsets):
        for ins in subset:
            if rng.random() < 0.9:
                add(store, incumbents[j], ins, rng.uniform(0.5, 90.0), seed=rng.randrange(999))
    # sprinkle extra cross runs so the model sees several configurations
    for _ in range(n):
        config = make_config(space, {"strategy": rng.choice("xyzw")})
        add(store, config, f"i{rng.randrange(n)}", rng.uniform(0.5, 90.0), seed=rng.randrange(999))
    return space, grouping, incumbents, features, store, cutoff


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=20, max_value=60),
    st.integers(min_value=2, max_value=5),
)
def test_randomized_invariants(seed, n, k):
    space, grouping, incumbents, features, store, cutoff = random_transfer_inputs(seed, n, k)
    result, report = transfer_instances(
        grouping, incumbents, features, store, space, seed, cutoff, 10, forest=SMALL_FOREST
    )
    # multiset preservation
    assert result.all_instances() == grouping.all_instances()
    assert sum(result.sizes()) == sum(grouping.sizes())
    # bounds safety: sizes move only toward [lower, upper]
    for before, after in zip(grouping.sizes(), result.sizes()):
        assert min(before, grouping.lower_bound) <= after <= max(before, grouping.upper_bound)
        if grouping.lower_bound <= before <= grouping.upper_bound:
            assert grouping.lower_bound <= after <= grouping.upper_bound
    # termination within |T| rounds
    assert report.rounds <= max(1, len(report.candidates))
    # non-worsening predictions at every executed move that was predicted
    # (with one incumbent shared by every subset no model is fitted)
    for move in report.moves:
        if move.predicted is not None:
            assert move.predicted[move.target] <= move.predicted[move.source]


def no_fit(*args, **kwargs):
    raise AssertionError("fit_model called with one shared incumbent")


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=20, max_value=60),
    st.integers(min_value=2, max_value=5),
)
def test_shared_incumbent_moves_to_lowest_subset_with_room(seed, n, k):
    space, grouping, incumbents, features, store, cutoff = random_transfer_inputs(
        seed, n, k, shared=True
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transfer, "fit_model", no_fit)
        result, report = transfer_instances(
            grouping, incumbents, features, store, space, seed, cutoff, 10,
            forest=SMALL_FOREST,
        )
    # replay the moves: each left a subset above the lower bound for the
    # lowest-numbered subset below the upper bound, its source included
    subsets = [list(subset) for subset in grouping.subsets]
    for move in report.moves:
        assert move.predicted is None
        sizes = [len(subset) for subset in subsets]
        assert move.instance_id in subsets[move.source]
        assert sizes[move.source] > grouping.lower_bound
        assert move.target == min(j for j in range(k) if sizes[j] < grouping.upper_bound)
        if move.target != move.source:
            subsets[move.source].remove(move.instance_id)
            subsets[move.target].append(move.instance_id)
    assert tuple(map(tuple, subsets)) == result.subsets


def test_distinct_incumbents_fit_one_model(space, monkeypatch):
    grouping, incumbents, features, store = planted_two_subset_case(space)
    fits, fit_model = [], transfer.fit_model

    def counted_fit(*args, **kwargs):
        fits.append(args)
        return fit_model(*args, **kwargs)

    monkeypatch.setattr(transfer, "fit_model", counted_fit)
    _, report = transfer_instances(
        grouping, incumbents, features, store, space, 7, 60.0, 10, forest=SMALL_FOREST
    )
    assert len(fits) == 1
    assert all(len(move.predicted) == 2 for move in report.moves)
