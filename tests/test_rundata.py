import pytest

from acpp.core import RunRecord, RunStatus
from acpp.rundata import RunDataStore
from acpp.space import make_config, parse_space


@pytest.fixture
def space():
    return parse_space("s categorical {a, b} [a]\n")


@pytest.fixture
def config(space):
    return make_config(space, {"s": "a"})


def rec(config, instance_id, status, runtime, cutoff=60.0, seed=0, **kw):
    return RunRecord(config.config_id, instance_id, seed, status, runtime, cutoff, **kw)


class TestStore:
    def test_append_then_query(self, config):
        store = RunDataStore()
        record = rec(config, "i1", RunStatus.SOLVED, 3.0)
        store.add(record, config)
        assert store.runs_for(config.config_id, "i1") == (record,)

    def test_duplicate_pairs_both_retained(self, config):
        store = RunDataStore()
        store.add(rec(config, "i1", RunStatus.SOLVED, 3.0, seed=1), config)
        store.add(rec(config, "i1", RunStatus.SOLVED, 5.0, seed=2), config)
        assert len(store.runs_for(config.config_id, "i1")) == 2
        assert len(store) == 2

    def test_mismatched_config_rejected(self, space, config):
        other = make_config(space, {"s": "b"})
        store = RunDataStore()
        with pytest.raises(ValueError):
            store.add(rec(config, "i1", RunStatus.SOLVED, 1.0), other)


class TestIncumbentPerformance:
    def test_average_of_runs(self, config):
        store = RunDataStore()
        store.add(rec(config, "i1", RunStatus.SOLVED, 10.0, seed=1), config)
        store.add(rec(config, "i1", RunStatus.SOLVED, 20.0, seed=2), config)
        assert store.incumbent_performance(config, "i1", 60.0, 10) == 15.0

    def test_absent_when_never_run(self, config):
        store = RunDataStore()
        assert store.incumbent_performance(config, "i1", 60.0, 10) is None

    def test_timeout_scored_with_penalty(self, config):
        store = RunDataStore()
        store.add(rec(config, "i1", RunStatus.TIMEOUT, 60.0), config)
        assert store.incumbent_performance(config, "i1", 60.0, 10) == 600.0

    def test_order_invariance(self, space, config):
        runs = [
            rec(config, "i1", RunStatus.SOLVED, 4.0, seed=1),
            rec(config, "i1", RunStatus.TIMEOUT, 60.0, seed=2),
            rec(config, "i1", RunStatus.SOLVED, 8.0, seed=3),
        ]
        forward, backward = RunDataStore(), RunDataStore()
        for r in runs:
            forward.add(r, config)
        for r in reversed(runs):
            backward.add(r, config)
        assert forward.incumbent_performance(config, "i1", 60.0, 10) == pytest.approx(
            backward.incumbent_performance(config, "i1", 60.0, 10)
        )
