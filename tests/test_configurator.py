import logging
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acpp import configurator
from acpp.configurator import ConfiguratorSettings, configure
from acpp.core import Instance, Metric, RunStatus
from acpp.perfmodel import ForestParams, PerformanceModel
from acpp.rundata import RunDataStore
from acpp.runner import BudgetLedger, execute_run
from acpp.space import SamplingPlan, default_config, enumerate_configs, make_config, parse_space
from acpp.synthetic import SyntheticBackend, SyntheticScenarioSpec

FAST_SETTINGS = ConfiguratorSettings(
    n_candidates=64, score_instance_sample=4, forest=ForestParams(n_trees=6)
)
# the acceptance suite's FAST settings
ACCEPTANCE_FAST = ConfiguratorSettings(
    n_candidates=128, score_instance_sample=4, refit_growth=1.25, forest=ForestParams(n_trees=8)
)

NUMERIC_SPACE = """\
strategy categorical {fast, careful, hybrid} [fast]
mode categorical {plain, deep} [plain]
level integer [1, 256] [8] log
depth integer [0, 12] [4]
alpha real [0.0, 1.0] [0.5]
rate real [0.001, 10.0] [0.1] log

[conditions]
mode | strategy in {careful, hybrid}
level | mode in {deep}
rate | strategy in {hybrid}
"""


def backend_runs(backend, store, ledger=None):
    """``configure``'s ``evaluate``: one backend run, recorded in the store
    and charged to the ledger at its runtime."""

    def evaluate(config, instance, cutoff, seed):
        record = execute_run(backend, config, instance, cutoff, seed)
        store.add(record, config)
        if ledger is not None:
            ledger.charge(record.runtime)
        return record, record.runtime

    return evaluate


class NumericBackend:
    """Deterministic runtimes that depend on every numeric parameter.

    An instance's features are (hardness, ideal alpha); a run gets slower
    as alpha moves from the ideal, log2(level) from 5, log10(rate) from -1
    and depth from 6.
    """

    label = "numeric"

    def run(self, config, instance, cutoff, seed):
        hardness, ideal = instance.features
        t = {"fast": 4.0, "careful": 3.0, "hybrid": 2.5}[config["strategy"]] * hardness
        t *= 1.0 + 2.0 * abs(config["alpha"] - ideal)
        t *= 1.0 + 0.05 * abs(config["depth"] - 6)
        if "level" in config:
            t *= 0.6 + abs(math.log2(config["level"]) - 5.0) / 4.0
        if "rate" in config:
            t *= 1.0 + abs(math.log10(config["rate"]) + 1.0) / 3.0
        if t >= cutoff:
            return RunStatus.TIMEOUT, cutoff
        return RunStatus.SOLVED, t


def numeric_scenario(n_instances=12, cutoff=10.0):
    """A conditional chain (strategy -> mode -> log-integer level), a
    conditional log-real, a plain integer and a plain real."""
    instances = [
        Instance(f"n{j}", (0.8 + 0.05 * j, (j % 4) / 3.0)) for j in range(n_instances)
    ]
    return parse_space(NUMERIC_SPACE), instances, NumericBackend(), cutoff


def scenario_with_dominant(n_values=8, n_instances=10, cutoff=30.0):
    """One strategy strictly dominates on every instance."""
    values = tuple(f"v{j}" for j in range(n_values))
    cost_table = ((3.0,) + tuple(10.0 + 2.0 * j for j in range(1, n_values)),)
    spec = SyntheticScenarioSpec(
        instance_family={f"i{j}": 0 for j in range(n_instances)},
        cost_table=cost_table,
        values=values,
        hardness={f"i{j}": 0.9 + 0.02 * j for j in range(n_instances)},
        cutoff=cutoff,
    )
    space = parse_space(
        "strategy categorical {" + ", ".join(values) + "} [" + values[1] + "]\n"
    )
    instances = [Instance(f"i{j}", (float(j), 1.0)) for j in range(n_instances)]
    return space, instances, SyntheticBackend(spec), cutoff


class TestContracts:
    def test_budget_below_cutoff_returns_initial(self, caplog):
        space, instances, backend, cutoff = scenario_with_dominant()
        store = RunDataStore()
        initial = make_config(space, {"strategy": "v5"})
        with caplog.at_level(logging.WARNING):
            result = configure(
                space, instances, cutoff, cutoff / 2, Metric.PAR10, backend_runs(backend, store), 1,
                initial_incumbent=initial, settings=FAST_SETTINGS,
            )
        assert result == initial
        assert len(store) == 0
        assert any("below one cutoff" in r.message for r in caplog.records)

    def test_single_configuration_space_returns_it(self):
        space = parse_space("strategy categorical {v0} [v0]\n")
        spec = SyntheticScenarioSpec(
            instance_family={"i0": 0}, cost_table=((2.0,),), values=("v0",),
            hardness={}, cutoff=30.0,
        )
        store = RunDataStore()
        result = configure(
            space, [Instance("i0", (0.0,))], 30.0, 500.0, Metric.PAR10,
            backend_runs(SyntheticBackend(spec), store), 3, settings=FAST_SETTINGS,
        )
        assert result == make_config(space, {"strategy": "v0"})

    def test_default_seeds_search_when_no_incumbent(self):
        space, instances, backend, cutoff = scenario_with_dominant()
        store = RunDataStore()
        result = configure(
            space, instances, cutoff, cutoff * 1.5, Metric.PAR10, backend_runs(backend, store), 5,
            settings=FAST_SETTINGS,
        )
        # tiny budget: the default-seeded incumbent barely raced, but a valid
        # configuration is always returned
        assert result["strategy"] in {f"v{j}" for j in range(8)}

    def test_all_runs_recorded_and_budget_compliant(self):
        space, instances, backend, cutoff = scenario_with_dominant()
        store = RunDataStore()
        ledger = BudgetLedger()
        budget = 600.0
        configure(
            space, instances, cutoff, budget, Metric.PAR10, backend_runs(backend, store, ledger), 7,
            settings=FAST_SETTINGS,
        )
        total_recorded = sum(r.runtime for r in store.records())
        assert ledger.configuration_time == pytest.approx(total_recorded)
        assert ledger.configuration_time <= budget + cutoff

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        budget=st.floats(0.5, 300.0),
        cutoff=st.floats(1.0, 20.0),
    )
    def test_budget_property_on_numeric_space(self, seed, budget, cutoff):
        space, instances, backend, _ = numeric_scenario(n_instances=8)
        store = RunDataStore()
        ledger = BudgetLedger()
        configure(
            space, instances, cutoff, budget, Metric.PAR10, backend_runs(backend, store, ledger),
            seed, settings=ACCEPTANCE_FAST,
        )
        assert ledger.configuration_time <= budget + cutoff
        # charged one run at a time, in the order the store records them
        assert ledger.configuration_time == sum(r.runtime for r in store.records())
        assert ledger.n_runs == len(store)

    def test_empty_instances_rejected(self):
        space, _, backend, cutoff = scenario_with_dominant()
        with pytest.raises(ValueError):
            configure(
                space, [], cutoff, 100.0, Metric.PAR10, backend_runs(backend, RunDataStore()), 0
            )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_candidates", 0),
            ("n_candidates", -5),
            ("score_instance_sample", 0),
            ("refit_growth", 0.5),
            ("refit_growth", math.nan),
            ("refit_growth", math.inf),
        ],
    )
    def test_invalid_settings_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ConfiguratorSettings(**{field: value})


class TestProposalPool:
    def test_pool_is_drawn_without_a_draw_per_candidate(self, monkeypatch):
        # every scalar draw belongs to a random challenger's sample_config;
        # the pools come from draw_many
        draws, samples, pools = [], [], []
        draw, sample, draw_many = SamplingPlan.draw, configurator.sample_config, SamplingPlan.draw_many

        def counting_draw(plan, rng):
            draws.append(1)
            return draw(plan, rng)

        def counting_sample(space, rng):
            samples.append(1)
            return sample(space, rng)

        def recording_draw_many(plan, rng, m):
            pools.append(m)
            return draw_many(plan, rng, m)

        monkeypatch.setattr(SamplingPlan, "draw", counting_draw)
        monkeypatch.setattr(configurator, "sample_config", counting_sample)
        monkeypatch.setattr(SamplingPlan, "draw_many", recording_draw_many)
        space, instances, backend, cutoff = numeric_scenario()
        configure(
            space, instances, cutoff, 1500.0, Metric.PAR10, backend_runs(backend, RunDataStore()),
            0, settings=ACCEPTANCE_FAST,
        )
        assert pools and set(pools) == {ACCEPTANCE_FAST.n_candidates}
        assert samples and len(draws) == len(samples)


class TestSearchQuality:
    def test_dominant_configuration_found(self):
        # brute force identifies v0 as dominant by construction; the search
        # must find it in at least 9 of 10 seeds given an ample budget
        space, instances, backend, cutoff = scenario_with_dominant()
        hits = 0
        for seed in range(10):
            store = RunDataStore()
            result = configure(
                space, instances, cutoff, 2000.0, Metric.PAR10, backend_runs(backend, store), seed,
                settings=FAST_SETTINGS,
            )
            hits += result["strategy"] == "v0"
        assert hits >= 9

    def test_warm_start_kept_when_already_best(self):
        space, instances, backend, cutoff = scenario_with_dominant()
        best = make_config(space, {"strategy": "v0"})
        store = RunDataStore()
        result = configure(
            space, instances, cutoff, 1500.0, Metric.PAR10, backend_runs(backend, store), 11,
            initial_incumbent=best, settings=FAST_SETTINGS,
        )
        assert result == best

    def test_deterministic_given_seed(self):
        space, instances, backend, cutoff = scenario_with_dominant()
        results = []
        for _ in range(2):
            store = RunDataStore()
            results.append(
                configure(
                    space, instances, cutoff, 800.0, Metric.PAR10, backend_runs(backend, store), 13,
                    settings=FAST_SETTINGS,
                )
            )
        assert results[0] == results[1]


class TestPinnedNumericSearch:
    """Incumbents and run counts of ``configure`` on a numeric, conditional
    space, pinned so that a change meant to keep the search exact can be
    checked against them."""

    # captured before the candidate pool was drawn as value tuples
    PINNED = {0: ("69235a24d962", 243), 1: ("8b5c3b826f93", 215), 2: ("3f5b723c88ca", 234)}

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_incumbent_and_run_count_pinned(self, seed):
        space, instances, backend, cutoff = numeric_scenario()
        store = RunDataStore()
        result = configure(
            space, instances, cutoff, 1500.0, Metric.PAR10, backend_runs(backend, store), seed,
            settings=ACCEPTANCE_FAST,
        )
        assert (result.config_id, len(store)) == self.PINNED[seed]


class TestLazyFits:
    """A due refit draws its seed and fixes its rows; the forest is grown
    only when a model-greedy proposal first needs it."""

    @staticmethod
    def track(monkeypatch):
        """Models grown by ``configure``, and the models that scored a pool."""
        grown, served = [], []
        fit_forest, predict = configurator.fit_forest, PerformanceModel.predict_transformed

        def counting_fit(*args, **kwargs):
            grown.append(fit_forest(*args, **kwargs))
            return grown[-1]

        def recording_predict(model, X):
            served.append(model)
            return predict(model, X)

        monkeypatch.setattr(configurator, "fit_forest", counting_fit)
        monkeypatch.setattr(PerformanceModel, "predict_transformed", recording_predict)
        return grown, served

    # in each of these searches, fitting at every due refit grows one model
    # that is replaced before any proposal uses it
    @pytest.mark.parametrize(
        "settings, seed", [(ACCEPTANCE_FAST, 3), (FAST_SETTINGS, 0), (FAST_SETTINGS, 2)]
    )
    def test_every_grown_model_serves_a_proposal(self, monkeypatch, settings, seed):
        grown, served = self.track(monkeypatch)
        space, instances, backend, cutoff = numeric_scenario()
        configure(
            space, instances, cutoff, 1500.0, Metric.PAR10, backend_runs(backend, RunDataStore()),
            seed, settings=settings,
        )
        assert grown
        assert all(any(user is model for user in served) for model in grown)

    def test_no_model_grown_when_no_pool_needs_one(self, monkeypatch):
        # one configuration: every pool is empty, so refits fall due on
        # varied targets but no proposal ever scores with a model
        grown, served = self.track(monkeypatch)
        space = parse_space("strategy categorical {v0} [v0]\n")
        ids = [f"i{j}" for j in range(30)]
        spec = SyntheticScenarioSpec(
            instance_family={i: 0 for i in ids}, cost_table=((2.0,),), values=("v0",),
            hardness={i: 0.5 + 0.1 * j for j, i in enumerate(ids)}, cutoff=30.0,
        )
        store = RunDataStore()
        configure(
            space, [Instance(i, (float(j),)) for j, i in enumerate(ids)], 30.0, 500.0,
            Metric.PAR10, backend_runs(SyntheticBackend(spec), store), 3, settings=FAST_SETTINGS,
        )
        runtimes = {record.runtime for record in store.records()}
        assert len(store) == 30 and len(runtimes) > 1
        assert grown == [] and served == []
