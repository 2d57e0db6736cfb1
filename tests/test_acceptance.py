"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Budget accounting is exact; the behavioural criteria run the full pipeline
on planted synthetic scenarios whose ground truth is known by construction,
so every expected value below is either computed by an independent oracle
(brute-force enumeration, planted labels, direct formula) inside the test
or verified arithmetic.
"""

import itertools
import math
import random
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from acpp.configurator import ConfiguratorSettings
from acpp.constructors import (
    construct_clustering,
    construct_global,
    construct_parhydra,
    construct_pcit,
    construct_pcrs,
    plan_budget,
)
from acpp.core import (
    InstanceResult,
    RunStatus,
    par_score,
    penalized_score,
    portfolio_runtime,
    split_random_even,
)
from acpp.evaluation import format_table, permutation_test
from acpp.evaluation import test_portfolio as run_test_protocol
from acpp.perfmodel import ForestParams, fit_model
from acpp.rundata import RunDataStore
from acpp.space import encode_config, enumerate_configs, make_config
from acpp.synthetic import generate_synthetic_scenario
from acpp.transfer import transfer_instances
from tests.test_evaluation import JitteredBackend
from tests.test_transfer import random_transfer_inputs

HOURS = 3600.0

# engine settings used by the behavioural criteria: spec defaults except for
# a smaller candidate pool, forest, and geometric refit spacing, for speed
FAST = ConfiguratorSettings(
    n_candidates=128,
    score_instance_sample=4,
    refit_growth=1.25,
    forest=ForestParams(n_trees=8),
)


@contextmanager
def criterion(number: int, name: str):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({name}): PASS ({time.monotonic() - started:.1f}s)")


def grouping_purity(grouping, labels) -> float:
    fractions = []
    for subset in grouping.subsets:
        if not subset:
            continue
        counts = Counter(labels[i] for i in subset)
        fractions.append(counts.most_common(1)[0][1] / len(subset))
    return sum(fractions) / len(fractions)


def planted_par10(spec, instances, components) -> float:
    """Ground-truth PAR-10 of a portfolio straight from the cost tables."""
    return sum(
        min(spec.true_cost(c, ins.id, 10) for c in components) for ins in instances
    ) / len(instances)


def test_criterion_1_budget_accounting():
    """All 16 published budget tuples, zero tolerance."""
    with criterion(1, "budget accounting"):
        started = time.monotonic()
        # (method, k, t_c hours, t_v hours, r, b) -> total CPU hours
        group_rows = [
            (36, 4, 3200),  # single-solver SAT setup
            (80, 4, 6720),  # multi-solver SAT setup
            (16, 2, 1440),  # single-solver TSP setup
            (24, 2, 2080),  # multi-solver TSP setup
        ]
        for t_c, t_v, total in group_rows:
            for method in ("pcit", "pcrs", "global", "clustering"):
                plan = plan_budget(method, 8, t_c * HOURS, t_v * HOURS, 10)
                assert plan.total_cpu == total * HOURS
        block_rows = [
            (1, 6, 4, 3600), (2, 12, 4, 3200), (4, 24, 4, 3360),
            (1, 15, 4, 6840), (2, 30, 4, 6800), (4, 60, 4, 7680),
            (1, 3, 2, 1800), (2, 6, 2, 1600), (4, 12, 2, 1680),
            (1, 4, 2, 2160), (2, 8, 2, 2000), (4, 16, 2, 2160),
        ]
        for b, t_c, t_v, total in block_rows:
            plan = plan_budget("parhydra", 8, t_c * HOURS, t_v * HOURS, 10, b=b)
            assert plan.total_cpu == total * HOURS
        # phased split: three adjustment phases at t_c/6 plus t_c/2
        plan = plan_budget("pcit", 8, 36 * HOURS, 4 * HOURS, 10, n=4)
        assert plan.phase_budgets == (6 * HOURS, 6 * HOURS, 6 * HOURS, 18 * HOURS)
        assert time.monotonic() - started < 1.0


def test_criterion_2_transfer_invariants():
    """1000 randomized transfer inputs: preservation, bounds, termination,
    non-worsening predictions, determinism."""
    with criterion(2, "transfer invariants"):
        started = time.monotonic()
        rng = random.Random(20240)
        # the invariants hold for any forest; a coarse one keeps 1000 cases
        # (plus determinism re-runs) inside the time limit
        forest = ForestParams(n_trees=3, min_leaf=4)
        for case in range(1000):
            k = rng.randint(2, 8)
            n = rng.randint(20, 200)
            seed = rng.randrange(10**6)
            space, grouping, incumbents, features, store, cutoff = random_transfer_inputs(
                seed, n, k
            )
            result, report = transfer_instances(
                grouping, incumbents, features, store, space, seed, cutoff, 10, forest=forest
            )
            assert result.all_instances() == grouping.all_instances()
            assert sum(result.sizes()) == n
            lower, upper = grouping.lower_bound, grouping.upper_bound
            for before, after in zip(grouping.sizes(), result.sizes()):
                assert min(before, lower) <= after <= max(before, upper)
                if lower <= before <= upper:
                    assert lower <= after <= upper
            assert report.rounds <= max(1, len(report.candidates))
            for move in report.moves:
                # no model is fitted, so nothing is predicted, when every
                # subset has the same incumbent
                if move.predicted is not None:
                    assert move.predicted[move.target] <= move.predicted[move.source]
            if case % 5 == 0:  # determinism re-run on a fifth of the cases
                again, _ = transfer_instances(
                    grouping, incumbents, features, store, space, seed, cutoff, 10, forest=forest
                )
                assert again == result
        assert time.monotonic() - started < 60.0


def test_criterion_3_oracle_equivalence():
    """Enumerable space: both constructors reach within 5% of the
    brute-force optimum in at least 9 of 10 seeds."""
    with criterion(3, "oracle equivalence"):
        started = time.monotonic()
        synthetic = generate_synthetic_scenario(
            n_families=2, n_configs=6, n_train=24, k=2, seed=7
        )
        scenario, spec = synthetic.scenario, synthetic.spec
        configs = list(enumerate_configs(scenario.space))
        assert len(configs) == 6
        optimum = min(
            planted_par10(spec, scenario.train_instances, pair)
            for pair in itertools.combinations_with_replacement(configs, 2)
        )
        pcit_hits = global_hits = 0
        for seed in range(10):
            res_p = construct_pcit(
                scenario,
                plan_budget("pcit", 2, 3000.0, 600.0, 3, n=4),
                seed,
                synthetic.backend(),
                settings=FAST,
                transfer_forest=ForestParams(n_trees=8),
            )
            res_g = construct_global(
                scenario,
                plan_budget("global", 2, 3000.0, 600.0, 3),
                seed,
                synthetic.backend(),
                settings=FAST,
            )
            pcit_hits += (
                planted_par10(spec, scenario.train_instances, res_p.portfolio.components)
                <= 1.05 * optimum
            )
            global_hits += (
                planted_par10(spec, scenario.train_instances, res_g.portfolio.components)
                <= 1.05 * optimum
            )
        assert pcit_hits >= 9, f"pcit reached the optimum region in {pcit_hits}/10 seeds"
        assert global_hits >= 9, f"global reached the optimum region in {global_hits}/10 seeds"
        assert time.monotonic() - started < 300.0


def test_criterion_4_planted_cluster_recovery():
    """Planted 4-family scenarios: the phased constructor recovers the
    grouping (purity >= 0.9 in >= 8/10 seeds, against a ~0.25 random
    baseline) and never loses to its no-transfer twin in >= 8/10 seeds."""
    with criterion(4, "planted-cluster recovery"):
        started = time.monotonic()
        purity_wins = paired_wins = 0
        baselines = []
        for seed in range(10):
            synthetic = generate_synthetic_scenario(
                n_families=4, n_configs=6, n_train=80, k=4,
                seed=100 + seed, tilt_effect=0.4,
            )
            scenario, spec = synthetic.scenario, synthetic.spec
            labels = synthetic.family_labels()
            baselines.append(
                grouping_purity(split_random_even(scenario.train_instances, 4, seed), labels)
            )
            res_it = construct_pcit(
                scenario,
                plan_budget("pcit", 4, 5000.0, 1500.0, 7, n=4),
                seed,
                synthetic.backend(),
                settings=FAST,
                transfer_forest=ForestParams(n_trees=16),
            )
            res_rs = construct_pcrs(
                scenario,
                plan_budget("pcrs", 4, 5000.0, 1500.0, 7),
                seed,
                synthetic.backend(),
                settings=FAST,
            )
            purity = grouping_purity(res_it.selected_grouping, labels)
            purity_wins += purity >= 0.9
            it_par = planted_par10(spec, scenario.train_instances, res_it.portfolio.components)
            rs_par = planted_par10(spec, scenario.train_instances, res_rs.portfolio.components)
            paired_wins += it_par <= rs_par
        random_baseline = sum(baselines) / len(baselines)
        assert 0.2 <= random_baseline <= 0.45, random_baseline
        assert purity_wins >= 8, f"purity >= 0.9 in only {purity_wins}/10 seeds"
        assert paired_wins >= 8, f"transfer beat random splitting in only {paired_wins}/10 seeds"
        assert time.monotonic() - started < 600.0


def test_criterion_5_model_quality():
    """Rank correlation between model predictions and planted true costs on
    held-out (configuration, instance) pairs."""
    with criterion(5, "performance-model quality"):
        started = time.monotonic()
        synthetic = generate_synthetic_scenario(
            n_families=4, n_configs=20, n_train=60, k=4, seed=31
        )
        scenario, spec = synthetic.scenario, synthetic.spec
        backend = synthetic.backend()
        configs = list(enumerate_configs(scenario.space))
        assert len(configs) == 20
        pairs = [(c, ins) for c in configs for ins in scenario.train_instances]
        rng = random.Random(5)
        rng.shuffle(pairs)
        held_out = pairs[: len(pairs) // 4]
        training = pairs[len(pairs) // 4 :]
        store = RunDataStore()
        for run_seed, (config, ins) in enumerate(training):
            status, runtime = backend.run(config, ins, scenario.cutoff, run_seed)
            from acpp.core import RunRecord

            store.add(
                RunRecord(config.config_id, ins.id, run_seed, status, runtime, scenario.cutoff),
                config,
            )
        model = fit_model(
            store, scenario.space, scenario.train_features(),
            cutoff=scenario.cutoff, penalty=10, seed=3,
        )
        # ranked in log10 space: the transform is monotone, so rho is the same
        rows = np.vstack(
            [np.concatenate([encode_config(scenario.space, c), ins.features]) for c, ins in held_out]
        )
        predicted = model.predict_transformed(rows)
        truth = [spec.true_cost(c, ins.id, 10) for c, ins in held_out]
        rho = stats.spearmanr(predicted, truth).statistic
        assert rho >= 0.8, f"Spearman correlation {rho:.3f} < 0.8"
        assert time.monotonic() - started < 60.0


def test_criterion_6_metric_identities():
    """PAR identity and portfolio dominance on random vectors."""
    with criterion(6, "metric identities"):
        rng = random.Random(66)
        cutoff = 60.0
        # power-of-two sizes with dyadic runtimes keep both sides of the
        # identity exactly representable, so equality is bit-for-bit
        for _ in range(1000):
            n = rng.choice([8, 16, 32, 64, 128])
            records = []
            for _ in range(n):
                if rng.random() < 0.3:
                    records.append(InstanceResult("i", RunStatus.TIMEOUT, cutoff, cutoff))
                else:
                    runtime = rng.randrange(0, int(cutoff * 1024)) / 1024.0
                    records.append(InstanceResult("i", RunStatus.SOLVED, runtime, cutoff))
            timeouts = sum(1 for r in records if r.status is not RunStatus.SOLVED)
            par10 = par_score(records, cutoff, 10)
            par1 = par_score(records, cutoff, 1)
            assert par10 == (len(records) * par1 + 9.0 * cutoff * timeouts) / len(records)
        # arbitrary sizes and runtimes: exact in rational arithmetic
        for _ in range(1000):
            n = rng.randint(1, 200)
            records = [
                InstanceResult("i", RunStatus.TIMEOUT, cutoff, cutoff)
                if rng.random() < 0.3
                else InstanceResult("i", RunStatus.SOLVED, rng.uniform(0, cutoff), cutoff)
                for _ in range(n)
            ]
            timeouts = sum(1 for r in records if r.status is not RunStatus.SOLVED)
            lhs = Fraction(par_score(records, cutoff, 10))
            rhs = Fraction(par_score(records, cutoff, 1)) + 9 * Fraction(cutoff) * Fraction(
                timeouts, n
            )
            assert abs(lhs - rhs) <= Fraction(600) / 2**49
        # dominance: the portfolio result never exceeds any component's score
        for _ in range(1000):
            k = rng.randint(1, 8)
            outcomes = [
                (RunStatus.TIMEOUT, cutoff)
                if rng.random() < 0.3
                else (RunStatus.SOLVED, rng.uniform(0, cutoff))
                for _ in range(k)
            ]
            combined = portfolio_runtime(outcomes, cutoff)
            combined_score = penalized_score(combined.status, combined.runtime, cutoff, 10)
            for status, runtime in outcomes:
                assert combined_score <= penalized_score(status, runtime, cutoff, 10)


def test_criterion_7_statistics_sanity():
    """Permutation test: identity, symmetry, power, determinism at the full
    permutation count."""
    with criterion(7, "statistics sanity"):
        started = time.monotonic()
        scores = [float(j % 7) + 1.0 for j in range(100)]
        identical = permutation_test(scores, scores, n_permutations=100_000, seed=1)
        assert identical.p_value == 1.0
        rng = np.random.default_rng(17)
        b = rng.normal(100.0, 1.0, size=100)
        a = b - 10.0
        shift = permutation_test(a.tolist(), b.tolist(), n_permutations=100_000, alpha=0.05, seed=2)
        assert shift.significant and shift.p_value < 0.05
        forward = permutation_test(a.tolist(), b.tolist(), n_permutations=100_000, seed=3)
        backward = permutation_test(b.tolist(), a.tolist(), n_permutations=100_000, seed=3)
        assert forward.p_value == backward.p_value
        again = permutation_test(a.tolist(), b.tolist(), n_permutations=100_000, seed=3)
        assert again.p_value == forward.p_value
        assert 0.0 < forward.p_value <= 1.0
        assert time.monotonic() - started < 60.0


def test_criterion_8_protocol_fidelity():
    """End-to-end run of all five constructors; median-of-3 testing and the
    #TOs / PAR-10 / PAR-1 report schema."""
    with criterion(8, "protocol fidelity"):
        synthetic = generate_synthetic_scenario(
            n_families=2, n_configs=4, n_train=16, k=2, seed=5,
            cutoff=20.0,
        )
        scenario = synthetic.scenario
        backend = JitteredBackend(synthetic.spec, jitter=0.02)  # repetitions differ
        builds = {
            "pcit": lambda: construct_pcit(
                scenario, plan_budget("pcit", 2, 600.0, 200.0, 2, n=4),
                1, backend, settings=FAST, transfer_forest=ForestParams(n_trees=6),
            ),
            "pcrs": lambda: construct_pcrs(
                scenario, plan_budget("pcrs", 2, 600.0, 200.0, 2), 1, backend, settings=FAST
            ),
            "global": lambda: construct_global(
                scenario, plan_budget("global", 2, 600.0, 200.0, 2), 1, backend, settings=FAST
            ),
            "clustering": lambda: construct_clustering(
                scenario, plan_budget("clustering", 2, 600.0, 200.0, 2),
                1, backend, settings=FAST, normalization="linear",
            ),
            "parhydra": lambda: construct_parhydra(
                scenario, plan_budget("parhydra", 2, 300.0, 100.0, 2, b=1),
                1, backend, settings=FAST,
            ),
        }
        reports = []
        for name, build in builds.items():
            result = build()
            assert result.portfolio.k == scenario.k
            report = run_test_protocol(
                backend,
                result.portfolio,
                scenario.test_instances,
                scenario.effective_test_cutoff,
                repetitions=3,
                seed=9,
                label=name,
            )
            assert report.repetitions == 3
            for res in report.per_instance:
                assert len(res.repetition_runtimes) == 3
                ordered = sorted(
                    penalized_score(
                        RunStatus(s), t, report.cutoff, 10
                    )
                    for s, t in zip(res.repetition_statuses, res.repetition_runtimes)
                )
                assert (
                    penalized_score(res.status, res.runtime, report.cutoff, 10)
                    == ordered[1]
                )
            # summary identity on the medians
            expected = report.par1 + 9.0 * report.cutoff * report.timeouts / report.n_instances
            assert report.par10 == pytest.approx(expected, rel=1e-12)
            reports.append(report)
        table = format_table(reports)
        assert "#TOs" in table and "PAR-10" in table and "PAR-1" in table
        for name in builds:
            assert name in table
