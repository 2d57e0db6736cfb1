"""Each independent check accepts the program's real output and rejects a
planted wrong answer."""

import dataclasses
import random

import pytest

import checks
from acpp.core import InstanceGrouping, split_random_even
from acpp.evaluation import compare_reports, test_portfolio as run_test_protocol
from acpp.space import enumerate_configs, make_config, sample_config
from acpp.synthetic import generate_synthetic_scenario


@pytest.fixture(scope="module")
def planted():
    synthetic = generate_synthetic_scenario(
        n_families=2, n_configs=4, n_train=16, k=2, seed=3, tilt_effect=0.4
    )
    scenario = synthetic.scenario
    anchors = [make_config(scenario.space, {"strategy": s, "tilt": 0.5}) for s in ("s00", "s01")]
    report = run_test_protocol(
        synthetic.backend(), anchors, scenario.test_instances, scenario.cutoff, seed=4
    )
    return synthetic, anchors, report


def test_planted_runtime_matches_the_backend(planted):
    synthetic, _, _ = planted
    rng = random.Random(0)
    for _ in range(200):
        config = sample_config(synthetic.scenario.space, rng)
        instance = rng.choice(synthetic.scenario.test_instances)
        assert checks.planted_runtime(synthetic.spec, config, instance.id) == pytest.approx(
            synthetic.spec.runtime(config, instance.id), rel=1e-12
        )


def test_test_results_reject_a_swapped_component(planted):
    synthetic, anchors, report = planted
    assert checks.check_test_results(synthetic.spec, anchors, report, "p") == []
    swapped = [anchors[0], make_config(synthetic.scenario.space, {"strategy": "s02", "tilt": 0.5})]
    assert checks.check_test_results(synthetic.spec, swapped, report, "p")


def test_wrong_par10_is_rejected(planted):
    synthetic, anchors, report = planted
    wrong = dataclasses.replace(report, par10=report.par10 * 1.01)
    assert checks.check_par_identity(report, "p") == []
    assert checks.check_par_identity(wrong, "p")
    assert checks.check_test_results(synthetic.spec, anchors, wrong, "p")
    miscounted = dataclasses.replace(report, timeouts=report.timeouts + 1)
    assert checks.check_par_identity(miscounted, "p")


def test_lower_bound_rejects_an_impossible_par10(planted):
    synthetic, _, report = planted
    ids = [ins.id for ins in synthetic.scenario.test_instances]
    cutoff = synthetic.scenario.cutoff
    assert checks.check_lower_bound(synthetic.spec, report.par10, ids, cutoff, "p") == []
    bound = checks.lower_bound_par10(synthetic.spec, ids, cutoff)
    assert checks.check_lower_bound(synthetic.spec, 0.99 * bound, ids, cutoff, "p")


def test_partition_rejects_a_missing_instance(planted):
    synthetic, _, _ = planted
    train = synthetic.scenario.train_instances
    ids = [ins.id for ins in train]
    grouping = split_random_even(train, 2, seed=1)
    assert checks.check_partition(grouping, ids, 2, "g") == []
    missing = InstanceGrouping(
        (grouping.subsets[0][1:], grouping.subsets[1]), grouping.lower_bound, grouping.upper_bound
    )
    assert checks.check_partition(missing, ids, 2, "g")
    lopsided = InstanceGrouping(
        (grouping.subsets[0][:2], grouping.subsets[0][2:] + grouping.subsets[1]),
        grouping.lower_bound,
        grouping.upper_bound,
    )
    assert checks.check_partition(lopsided, ids, 2, "g")


def test_ledger_mismatch_is_rejected():
    assert checks.check_ledger(1234.5, 1234.5 + 1e-9, "l") == []
    assert checks.check_ledger(1234.5, 1230.0, "l")


def test_p_values(planted):
    _, _, report = planted
    real = {kind: o.p_value for kind, o in compare_reports(report, report, 1000).items()}
    assert real == {"timeout": 1.0, "par10": 1.0, "par1": 1.0}
    assert checks.check_p_values({"timeout": 0.3, "par10": 1.0, "par1": 1e-5}, real, "c") == []
    assert checks.check_p_values({"timeout": 0.0, "par10": 1.0, "par1": 0.5}, real, "c")
    assert checks.check_p_values({"timeout": 0.1, "par10": 1.5, "par1": 0.5}, real, "c")
    assert checks.check_p_values({"timeout": 0.1, "par10": 0.2, "par1": 0.5},
                                 {"timeout": 1.0, "par10": 0.9, "par1": 1.0}, "c")


def test_optimum_gap_rejects_a_portfolio_that_misses_the_ring():
    synthetic = generate_synthetic_scenario(n_families=6, n_configs=6, n_train=24, k=2, seed=5)
    scenario, spec = synthetic.scenario, synthetic.spec
    configs = list(enumerate_configs(scenario.space))
    ids = [ins.id for ins in scenario.train_instances]
    best = min(
        ((a, b) for i, a in enumerate(configs) for b in configs[i:]),
        key=lambda pair: checks.planted_par10(spec, pair, ids, scenario.cutoff),
    )
    assert checks.check_optimum_gap(spec, configs, best, ids, scenario.cutoff, 0.25, "o") == []
    doubled = (configs[0], configs[0])
    assert checks.check_optimum_gap(spec, configs, doubled, ids, scenario.cutoff, 0.25, "o")
