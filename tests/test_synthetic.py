import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from acpp.core import RunStatus
from acpp.evaluation import test_portfolio as run_test_protocol
from acpp.space import default_config, enumerate_configs, make_config
from acpp.synthetic import (
    SyntheticBackend,
    SyntheticScenarioSpec,
    generate_synthetic_scenario,
)


class TestGenerator:
    def test_each_family_has_distinct_dominant_strategy(self):
        syn = generate_synthetic_scenario(n_families=4, n_configs=8, n_train=40, seed=3)
        table = syn.spec.cost_table
        for family, row in enumerate(table):
            assert min(range(len(row)), key=row.__getitem__) == family % 8

    def test_anchor_clearly_fastest_on_own_family(self):
        syn = generate_synthetic_scenario(n_families=3, n_configs=6, n_train=30, seed=9)
        for family, row in enumerate(syn.spec.cost_table):
            anchor = row[family]
            others = [c for j, c in enumerate(row) if j != family]
            assert anchor * 5 < min(others)

    def test_features_separate_families(self):
        syn = generate_synthetic_scenario(n_families=4, n_configs=4, n_train=80, seed=1)
        centers: dict[int, list] = {}
        for ins in syn.scenario.train_instances:
            centers.setdefault(syn.spec.family_of(ins.id), []).append(ins.features)
        means = {
            fam: tuple(sum(col) / len(col) for col in zip(*feats))
            for fam, feats in centers.items()
        }
        for a in means:
            for b in means:
                if a < b:
                    gap = math.dist(means[a], means[b])
                    assert gap > 3.0

    def test_deterministic_given_seed(self):
        a = generate_synthetic_scenario(n_families=2, n_configs=4, n_train=10, seed=12)
        b = generate_synthetic_scenario(n_families=2, n_configs=4, n_train=10, seed=12)
        assert a.spec == b.spec
        assert a.scenario.train_instances == b.scenario.train_instances

    def test_spec_json_roundtrip(self):
        syn = generate_synthetic_scenario(
            n_families=2, n_configs=4, n_train=10, seed=2, tilt_effect=0.3
        )
        again = SyntheticScenarioSpec.from_json(syn.spec.to_json())
        assert again == syn.spec

    def test_tilt_parameter_present_only_when_enabled(self):
        plain = generate_synthetic_scenario(n_families=2, n_configs=4, n_train=10, seed=2)
        tilted = generate_synthetic_scenario(
            n_families=2, n_configs=4, n_train=10, seed=2, tilt_effect=0.2
        )
        assert [p.name for p in plain.scenario.space.parameters] == ["strategy"]
        assert [p.name for p in tilted.scenario.space.parameters] == ["strategy", "tilt"]
        # plain spaces stay enumerable for brute-force oracles
        assert len(list(enumerate_configs(plain.scenario.space))) == 4

    def test_tilt_changes_runtime_smoothly(self):
        syn = generate_synthetic_scenario(
            n_families=2, n_configs=4, n_train=10, seed=2, tilt_effect=0.5, noise=0.0
        )
        space = syn.scenario.space
        ins = syn.scenario.train_instances[0]
        fam = syn.spec.family_of(ins.id)
        ideal = syn.spec.tilt_ideal[fam]
        at_ideal = syn.spec.runtime(
            make_config(space, {"strategy": "s00", "tilt": ideal}), ins.id
        )
        off_ideal = syn.spec.runtime(
            make_config(space, {"strategy": "s00", "tilt": min(1.0, ideal + 0.4)}), ins.id
        )
        assert off_ideal > at_ideal

    @pytest.mark.parametrize(
        "field, value",
        [("noise", 1.5), ("noise", 1.0), ("noise", -0.1), ("noise", math.nan),
         ("per_run_jitter", 1.0), ("per_run_jitter", math.nan),
         ("tilt_effect", -0.3), ("tilt_effect", math.nan), ("tilt_effect", math.inf),
         ("cutoff", 0.0), ("cutoff", math.nan), ("cutoff", math.inf)],
    )
    def test_invalid_spec_rejected(self, field, value):
        syn = generate_synthetic_scenario(n_families=2, n_configs=4, n_train=10, seed=2)
        doc = json.loads(syn.spec.to_json())
        doc[field] = value
        # a hand-edited synthetic.json is checked on loading
        with pytest.raises(ValueError, match=field):
            SyntheticScenarioSpec.from_json(json.dumps(doc))

    def test_older_spec_with_jitter_switched_off_loads(self):
        syn = generate_synthetic_scenario(n_families=2, n_configs=4, n_train=10, seed=2)
        doc = json.loads(syn.spec.to_json())
        assert "per_run_jitter" not in doc
        doc["per_run_jitter"] = 0.0  # older files carry the key, switched off
        assert SyntheticScenarioSpec.from_json(json.dumps(doc)) == syn.spec

    @pytest.mark.parametrize(
        "kwargs, message",
        [({"cutoff": math.nan}, "cutoff must be positive and finite"),
         ({"cutoff": math.inf}, "cutoff must be positive and finite"),
         ({"k": 11}, "cannot split 10 training instances into k=11")],
    )
    def test_invalid_generator_arguments_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            generate_synthetic_scenario(n_families=2, n_configs=4, n_train=10, seed=2, **kwargs)

    def test_true_cost_matches_backend(self):
        syn = generate_synthetic_scenario(n_families=2, n_configs=5, n_train=12, seed=7)
        backend = SyntheticBackend(syn.spec)
        config = default_config(syn.scenario.space)
        for ins in syn.scenario.train_instances[:6]:
            status, runtime = backend.run(config, ins, syn.spec.cutoff, 0)
            truth = syn.spec.true_cost(config, ins.id, penalty=10)
            if status is RunStatus.SOLVED:
                assert truth == pytest.approx(runtime)
            else:
                assert truth == 10 * syn.spec.cutoff


MEMO_SCENARIO = generate_synthetic_scenario(
    n_families=2, n_configs=4, n_train=6, seed=3, tilt_effect=0.3
)
MEMO_CONFIGS = [
    make_config(MEMO_SCENARIO.scenario.space, {"strategy": value, "tilt": tilt})
    for value in ("s00", "s01", "s03")
    for tilt in (0.2, 0.7)
]
MEMO_INSTANCES = (
    MEMO_SCENARIO.scenario.train_instances[:3] + MEMO_SCENARIO.scenario.test_instances[:2]
)


class TestRuntimeMemo:
    """A backend computes each (configuration, instance) runtime once; every
    call still applies its own cutoff."""

    @given(
        st.lists(
            st.tuples(
                st.integers(0, len(MEMO_CONFIGS) - 1),
                st.integers(0, len(MEMO_INSTANCES) - 1),
                # cutoffs as multiples of the planted runtime: below it, at
                # it and above it
                st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.25, 4.0),
                st.integers(0, 3),
            ),
            max_size=40,
        )
    )
    def test_repeated_runs_match_a_fresh_backend(self, calls):
        spec = MEMO_SCENARIO.spec
        backend = SyntheticBackend(spec)
        for c, i, scale, seed in calls:
            config, instance = MEMO_CONFIGS[c], MEMO_INSTANCES[i]
            cutoff = scale * spec.runtime(config, instance.id)
            fresh = SyntheticBackend(spec).run(config, instance, cutoff, seed)
            assert backend.run(config, instance, cutoff, seed) == fresh
        assert len(backend._runtimes) == len({(c, i) for c, i, _, _ in calls})

    def test_subclass_overriding_run_sees_every_run(self):
        counted = []

        class Counting(SyntheticBackend):
            def run(self, config, instance, cutoff, seed):
                counted.append((config.config_id, instance.id))
                return SyntheticBackend.run(self, config, instance, cutoff, seed)

        spec = MEMO_SCENARIO.spec
        components = MEMO_CONFIGS[:2]
        backend = Counting(spec)
        run_test_protocol(backend, components, MEMO_INSTANCES, spec.cutoff, repetitions=3)
        # median-of-3: every pair is run three times and computed once
        assert len(counted) == 3 * len(components) * len(MEMO_INSTANCES)
        assert len(backend._runtimes) == len(set(counted)) == len(components) * len(MEMO_INSTANCES)
