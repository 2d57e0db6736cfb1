import dataclasses
import itertools
import logging
import math
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acpp import constructors
from acpp.configurator import ConfiguratorSettings, configure
from acpp.constructors import (
    ALL_METHODS,
    CONSTRUCTORS,
    PortfolioEvaluator,
    construct_clustering,
    construct_global,
    construct_grouped,
    construct_parhydra,
    construct_pcit,
    construct_pcrs,
    derive_seed,
    kmeans,
    normalize_features,
    plan_budget,
    validate_and_select,
)
from acpp.core import Instance, Metric, RunStatus, clamp_run, penalized_score
from acpp.perfmodel import ForestParams
from acpp.rundata import RunDataStore
from acpp.runner import BudgetLedger
from acpp.synthetic import SyntheticBackend, generate_synthetic_scenario
from tests.test_configurator import backend_runs

HOURS = 3600.0

FAST = ConfiguratorSettings(
    n_candidates=64, score_instance_sample=4, forest=ForestParams(n_trees=6),
    refit_growth=1.25,
)
SMALL_TRANSFER = ForestParams(n_trees=8)


def tiny_synthetic(seed=0, families=2, configs=6, train=24, k=2):
    return generate_synthetic_scenario(
        n_families=families, n_configs=configs, n_train=train, k=k, seed=seed
    )


def true_par10(spec, instances, components):
    return sum(
        min(spec.true_cost(c, ins.id, 10) for c in components) for ins in instances
    ) / len(instances)


class TestPlanBudget:
    def test_pcit_phase_budgets(self):
        plan = plan_budget("pcit", 8, 36 * HOURS, 4 * HOURS, 10, n=4)
        assert plan.phase_budgets == (6 * HOURS, 6 * HOURS, 6 * HOURS, 18 * HOURS)
        assert sum(plan.phase_budgets) == pytest.approx(plan.t_c)

    def test_single_phase_gets_full_budget(self):
        plan = plan_budget("pcit", 8, 36 * HOURS, 4 * HOURS, 10, n=1)
        assert plan.phase_budgets == (36 * HOURS,)

    def test_group_methods_total(self):
        for method in ("pcit", "pcrs", "global", "clustering"):
            plan = plan_budget(method, 8, 36 * HOURS, 4 * HOURS, 10)
            assert plan.total_cpu == pytest.approx(3200 * HOURS)

    def test_parhydra_totals(self):
        assert plan_budget("parhydra", 8, 6 * HOURS, 4 * HOURS, 10, b=1).total_cpu == pytest.approx(3600 * HOURS)
        assert plan_budget("parhydra", 8, 12 * HOURS, 4 * HOURS, 10, b=2).total_cpu == pytest.approx(3200 * HOURS)
        assert plan_budget("parhydra", 8, 24 * HOURS, 4 * HOURS, 10, b=4).total_cpu == pytest.approx(3360 * HOURS)

    def test_global_is_the_block_plan_with_b_equal_k(self):
        plan = plan_budget("global", 8, 36 * HOURS, 4 * HOURS, 10, b=3)
        assert (plan.method, plan.b, plan.iterations) == ("global", 8, 1)
        assert plan.total_cpu == plan_budget("pcrs", 8, 36 * HOURS, 4 * HOURS, 10).total_cpu

    def test_parhydra_block_must_divide(self):
        with pytest.raises(ValueError, match="divide"):
            plan_budget("parhydra", 8, 6 * HOURS, 4 * HOURS, 10, b=3)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            plan_budget("magic", 8, 1.0, 1.0, 1)

    @pytest.mark.parametrize("method", ["pcit", "parhydra"])
    @pytest.mark.parametrize(
        "t_c,t_v", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)]
    )
    def test_non_finite_budgets_rejected(self, method, t_c, t_v):
        with pytest.raises(ValueError, match="finite"):
            plan_budget(method, 2, t_c, t_v, 1)


class TestValidation:
    def test_single_candidate_returned(self):
        syn = tiny_synthetic()
        sc = syn.scenario
        components = (syn.scenario.space, )
        from acpp.space import make_config
        cand = [make_config(sc.space, {"strategy": "s00"})]
        outcome = validate_and_select(
            [cand], sc.train_instances, 1e9, sc.cutoff, 10, 0, syn.backend()
        )
        assert outcome.best_index == 0

    def test_dominating_candidate_selected(self):
        from acpp.space import make_config
        syn = tiny_synthetic()
        sc = syn.scenario
        spec = syn.spec
        configs = [make_config(sc.space, {"strategy": v}) for v in spec.values]
        singles = [[c] for c in configs]
        outcome = validate_and_select(
            singles, sc.train_instances, 1e9, sc.cutoff, 10, 3, syn.backend()
        )
        truth = [true_par10(spec, sc.train_instances, [c]) for c in configs]
        assert outcome.best_index == int(np.argmin(truth))

    def test_identical_candidates_tie_break_low_index(self):
        from acpp.space import make_config
        syn = tiny_synthetic()
        sc = syn.scenario
        cand = [make_config(sc.space, {"strategy": "s01"})]
        outcome = validate_and_select(
            [cand, cand, cand], sc.train_instances, 1e9, sc.cutoff, 10, 1, syn.backend()
        )
        assert outcome.best_index == 0

    def test_empty_candidates_rejected(self):
        syn = tiny_synthetic()
        with pytest.raises(ValueError):
            validate_and_select([], syn.scenario.train_instances, 1.0, 30.0, 10, 0, syn.backend())

    def test_run_seeds_are_per_instance(self):
        from acpp.space import make_config
        syn = tiny_synthetic()
        sc = syn.scenario
        backend = syn.backend()
        seeds = {}
        solve = backend.run

        def run(config, instance, cutoff, seed):
            seeds.setdefault(instance.id, set()).add(seed)
            return solve(config, instance, cutoff, seed)

        backend.run = run
        cands = [[make_config(sc.space, {"strategy": v})] for v in ("s00", "s01")]
        validate_and_select(cands, sc.train_instances, 1e9, sc.cutoff, 10, 4, backend)
        forward, seeds = seeds, {}
        validate_and_select(cands, sc.train_instances[::-1], 1e9, sc.cutoff, 10, 4, backend)
        assert seeds == forward
        assert all(len(s) == 1 for s in forward.values())  # candidates stay paired
        assert len(set().union(*forward.values())) == len(sc.train_instances)


class TestKMeans:
    def test_separated_blobs_recovered(self):
        rng = np.random.default_rng(0)
        blob_a = rng.normal((0, 0), 0.3, size=(30, 2))
        blob_b = rng.normal((8, 8), 0.3, size=(25, 2))
        X = np.vstack([blob_a, blob_b])
        labels, _, _ = kmeans(X, 2, seed=4)
        first, second = set(labels[:30]), set(labels[30:])
        assert len(first) == 1 and len(second) == 1 and first != second

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 10, size=(60, 3))
        _, _, inertias = kmeans(X, 4, seed=9)
        assert all(b <= a + 1e-9 for a, b in zip(inertias, inertias[1:]))

    def test_no_empty_clusters(self):
        rng = np.random.default_rng(5)
        X = np.vstack([rng.normal(0, 0.01, size=(40, 2)), [[50.0, 50.0]]])
        labels, _, _ = kmeans(X, 3, seed=2)
        assert len(set(labels.tolist())) == 3

    def test_normalization_modes(self):
        X = np.array([[0.0, 10.0], [5.0, 20.0], [10.0, 30.0]])
        linear = normalize_features(X, "linear")
        assert linear.min() == 0.0 and linear.max() == 1.0
        standard = normalize_features(X, "standard")
        assert np.allclose(standard.mean(axis=0), 0.0)
        assert np.array_equal(normalize_features(X, "none"), X)
        with pytest.raises(ValueError):
            normalize_features(X, "sideways")

    def test_linear_on_prenormalized_matches_none(self):
        # linear scaling is idempotent on [0,1] data, so cluster labels agree
        rng = np.random.default_rng(8)
        X = rng.uniform(0, 1, size=(50, 2))
        labels_none, _, _ = kmeans(normalize_features(X, "none"), 3, seed=6)
        labels_linear, _, _ = kmeans(normalize_features(X, "linear"), 3, seed=6)
        agreement = {}
        for a, b in zip(labels_none.tolist(), labels_linear.tolist()):
            agreement.setdefault(a, set()).add(b)
        assert all(len(v) == 1 for v in agreement.values())


def check_first_repetition_excluded(method, caplog, cores=1):
    """The first solver run raises; the repetition that made it is left out
    and logged. On threads, which repetition that is depends on the
    schedule."""
    syn = tiny_synthetic(seed=9)
    backend = syn.backend()
    calls = itertools.count()
    original = backend.run

    def flaky(config, instance, cutoff, seed):
        if next(calls) == 0:
            raise RuntimeError("solver exploded")
        return original(config, instance, cutoff, seed)

    backend.run = flaky
    plan = plan_budget(method, 2, 600.0, 300.0, 2)
    with caplog.at_level(logging.WARNING):
        result = CONSTRUCTORS[method](syn.scenario, plan, 2, backend, settings=FAST, cores=cores)
    assert len(result.candidates) == len(result.validation_scores) == 1
    assert any("excluded" in r.message for r in caplog.records)
    failed = [e["repetition"] for e in result.events if e["event"] == "repetition_failed"]
    assert len(failed) == 1
    if cores == 1:
        assert failed == [0]


class TestGroupedConstructors:
    def test_pcrs_k1_equals_single_configure(self):
        syn = tiny_synthetic(seed=4, families=1, configs=6, train=12, k=1)
        sc = syn.scenario
        plan = plan_budget("pcrs", 1, 900.0, 300.0, 1)
        result = construct_pcrs(sc, plan, seed=21, backend=syn.backend(), settings=FAST)
        rep_seed = derive_seed(21, "rep", 0)
        direct = configure(
            sc.space,
            list(sc.train_instances),
            sc.cutoff,
            900.0,
            sc.metric,
            backend_runs(syn.backend(), RunDataStore()),
            derive_seed(rep_seed, "configure", 1, 0),
            settings=FAST,
        )
        assert result.portfolio.components == (direct,)

    def test_same_seed_identical_portfolio(self):
        syn = tiny_synthetic(seed=6)
        plan = plan_budget("pcrs", 2, 600.0, 300.0, 2)
        a = construct_pcrs(syn.scenario, plan, 5, syn.backend(), settings=FAST)
        b = construct_pcrs(syn.scenario, plan, 5, syn.backend(), settings=FAST)
        assert a.portfolio.components == b.portfolio.components
        assert a.validation_scores == b.validation_scores

    def test_pcit_produces_k_components_and_grouping(self):
        syn = tiny_synthetic(seed=7)
        plan = plan_budget("pcit", 2, 1200.0, 400.0, 2, n=4)
        result = construct_pcit(
            syn.scenario, plan, 9, syn.backend(), settings=FAST, transfer_forest=SMALL_TRANSFER
        )
        assert result.portfolio.k == 2
        assert result.selected_grouping is not None
        assert result.selected_grouping.all_instances() == {
            ins.id for ins in syn.scenario.train_instances
        }
        assert len(result.transfer_reports[result.selected_index]) == 3

    def test_pcit_warm_starts_each_phase_from_the_last(self, monkeypatch):
        syn = tiny_synthetic(seed=7)
        plan = plan_budget("pcit", 2, 600.0, 200.0, 1, n=3)
        calls = []  # (seed, starting incumbent, returned incumbent) per configure call
        configure_subset = constructors.configure

        def recording(*args, initial_incumbent=None, **kwargs):
            incumbent = configure_subset(*args, initial_incumbent=initial_incumbent, **kwargs)
            calls.append((args[6], initial_incumbent, incumbent))
            return incumbent

        monkeypatch.setattr(constructors, "configure", recording)
        construct_pcit(
            syn.scenario, plan, 3, syn.backend(), settings=FAST, transfer_forest=SMALL_TRANSFER,
            cores=1,
        )
        rep_seed = derive_seed(3, "rep", 0)
        order = [(phase, j) for phase in (1, 2, 3) for j in (0, 1)]
        assert [seed for seed, _, _ in calls] == [
            derive_seed(rep_seed, "configure", phase, j) for phase, j in order
        ]
        returned = {}
        for (phase, j), (_, start, incumbent) in zip(order, calls):
            if phase == 1:
                assert start is None
            else:
                assert start is returned[phase - 1, j]
            returned[phase, j] = incumbent

    def test_budget_within_plan_plus_slack(self):
        syn = tiny_synthetic(seed=8)
        sc = syn.scenario
        plan = plan_budget("pcit", 2, 900.0, 300.0, 2, n=4)
        result = construct_pcit(
            sc, plan, 1, syn.backend(), settings=FAST, transfer_forest=SMALL_TRANSFER
        )
        # every configure call may overshoot by at most one run and every
        # validation by one instance evaluation
        config_calls = plan.r * sc.k * plan.n
        assert result.ledger.configuration_time <= plan.r * sc.k * plan.t_c + config_calls * sc.cutoff
        assert result.ledger.validation_time <= plan.r * sc.k * (plan.t_v + sc.cutoff)
        assert result.ledger.total <= plan.total_cpu + (config_calls + plan.r * sc.k) * sc.cutoff

    @settings(max_examples=8, deadline=None)
    @given(
        scenario_seed=st.integers(0, 3),
        seed=st.integers(0, 2**31 - 1),
        method=st.sampled_from(["pcit", "pcrs"]),
    )
    def test_ledger_adds_up_over_a_construction(self, scenario_seed, seed, method):
        syn = tiny_synthetic(seed=scenario_seed, train=12)
        plan = plan_budget(method, 2, 300.0, 100.0, 2, n=3)
        backend = syn.backend()
        charged = []  # the clamped runtime of every run the backend served
        solve = backend.run

        def run(config, instance, cutoff, run_seed):
            status, runtime = solve(config, instance, cutoff, run_seed)
            charged.append(clamp_run(status, runtime, cutoff)[1])
            return status, runtime

        backend.run = run
        # pcrs plans have one phase and take no transfer forest
        extra = {"transfer_forest": SMALL_TRANSFER} if method == "pcit" else {}
        result = construct_grouped(syn.scenario, plan, seed, backend, settings=FAST, **extra)
        stored = [r.runtime for store in result.stores for r in store.records()]
        assert math.isclose(result.ledger.configuration_time, math.fsum(stored), rel_tol=1e-9)
        assert math.isclose(result.ledger.total, math.fsum(charged), rel_tol=1e-9)

    def test_crashing_repetition_excluded_with_warning(self, caplog):
        check_first_repetition_excluded("pcrs", caplog)

    def test_crashing_block_repetition_excluded_with_warning(self, caplog):
        check_first_repetition_excluded("global", caplog)

    def test_all_repetitions_failing_raises(self):
        syn = tiny_synthetic(seed=10)
        backend = syn.backend()

        def always_broken(config, instance, cutoff, seed):
            raise RuntimeError("no solver here")

        backend.run = always_broken
        plan = plan_budget("pcrs", 2, 600.0, 300.0, 2)
        with pytest.raises(RuntimeError):
            construct_pcrs(syn.scenario, plan, 2, backend, settings=FAST, cores=1)

    @pytest.mark.parametrize("error", constructors.PROGRAMMING_ERRORS)
    def test_programming_error_propagates(self, error):
        syn = tiny_synthetic(seed=10)
        backend = syn.backend()

        def faulty(config, instance, cutoff, seed):
            raise error("faulty backend code")

        backend.run = faulty
        plan = plan_budget("pcrs", 2, 600.0, 300.0, 2)
        with pytest.raises(error, match="faulty backend code"):
            construct_pcrs(syn.scenario, plan, 2, backend, settings=FAST, cores=1)


class TestScheduleIndependence:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_cores_do_not_change_results(self, method, monkeypatch):
        syn = tiny_synthetic(seed=18, families=2, configs=6, train=16, k=2)
        plan = plan_budget(method, 2, 600.0, 300.0, 2, n=3)
        extra = {"transfer_forest": SMALL_TRANSFER} if method == "pcit" else {}

        def build(cores, backend):
            return CONSTRUCTORS[method](
                syn.scenario, plan, 5, backend, settings=FAST, cores=cores, **extra
            )

        serial = build(1, syn.backend())
        in_process = build(2, syn.backend())
        # threads only serve backends whose solvers run as child processes;
        # counting the synthetic backend among them makes two threads
        # really interleave its repetitions and subsets
        monkeypatch.setattr(constructors, "ExternalBackend", SyntheticBackend)
        backend = syn.backend()
        run_threads = set()
        solve = backend.run

        def run(*args):
            run_threads.add(threading.get_ident())
            return solve(*args)

        backend.run = run
        threaded = build(2, backend)
        assert len(run_threads) > 1
        for other in (in_process, threaded):
            assert other.portfolio.components == serial.portfolio.components
            assert other.portfolio.consumed_cpu_time == serial.portfolio.consumed_cpu_time
            assert other.validation_scores == serial.validation_scores
            assert other.selected_grouping == serial.selected_grouping
            assert other.events == serial.events
            assert other.ledger.snapshot() == serial.ledger.snapshot()

    def test_failed_repetition_replayed_in_serial_order(self, monkeypatch):
        """Repetition 0 raises in its first transfer: its phase-1 charges and
        event stay, the failure is logged after every replayed event, and
        the threaded build equals the serial one."""
        syn = tiny_synthetic(seed=18, families=2, configs=6, train=16, k=2)
        plan = plan_budget("pcit", 2, 600.0, 300.0, 2, n=2)
        failing_seed = derive_seed(derive_seed(5, "rep", 0), "transfer", 1)
        transfer = constructors.transfer_instances

        def flaky_transfer(*args, **kwargs):
            if args[5] == failing_seed:
                raise RuntimeError("transfer exploded")
            return transfer(*args, **kwargs)

        monkeypatch.setattr(constructors, "transfer_instances", flaky_transfer)
        serial = construct_pcit(
            syn.scenario, plan, 5, syn.backend(), settings=FAST,
            transfer_forest=SMALL_TRANSFER, cores=1,
        )
        assert [(e["event"], e.get("repetition")) for e in serial.events] == [
            ("phase_done", 0), ("phase_done", 1), ("transfer", 1), ("phase_done", 1),
            ("repetition_failed", 0), ("validation", None),
        ]
        failed_time = serial.events[0]["ledger"]["configuration_time"]
        stored = math.fsum(r.runtime for store in serial.stores for r in store.records())
        assert failed_time > 0
        assert math.isclose(serial.ledger.configuration_time, failed_time + stored, rel_tol=1e-12)
        monkeypatch.setattr(constructors, "ExternalBackend", SyntheticBackend)
        threaded = construct_pcit(
            syn.scenario, plan, 5, syn.backend(), settings=FAST,
            transfer_forest=SMALL_TRANSFER, cores=2,
        )
        assert threaded.events == serial.events
        assert threaded.ledger.snapshot() == serial.ledger.snapshot()
        assert threaded.portfolio == serial.portfolio

    @pytest.mark.parametrize("cores", [2, 3])
    def test_cores_bound_concurrent_solver_runs(self, cores, monkeypatch):
        syn = tiny_synthetic(seed=18, families=2, configs=6, train=16, k=2)
        plan = plan_budget("pcrs", 2, 300.0, 100.0, 2)
        monkeypatch.setattr(constructors, "ExternalBackend", SyntheticBackend)
        backend = syn.backend()
        solve = backend.run
        lock = threading.Lock()
        in_flight = [0]
        peak = [0]

        def run(*args):
            with lock:
                in_flight[0] += 1
                peak[0] = max(peak[0], in_flight[0])
            try:
                time.sleep(0.001)
                return solve(*args)
            finally:
                with lock:
                    in_flight[0] -= 1

        backend.run = run
        construct_pcrs(syn.scenario, plan, 5, backend, settings=FAST, cores=cores)
        assert 2 <= peak[0] <= cores

    @pytest.mark.parametrize("method", ALL_METHODS)
    @pytest.mark.parametrize("cores", [0, -1])
    def test_cores_below_one_rejected(self, method, cores):
        syn = tiny_synthetic(seed=18, families=2, configs=6, train=16, k=2)
        plan = plan_budget(method, 2, 300.0, 100.0, 1, n=2)
        with pytest.raises(ValueError, match="cores"):
            CONSTRUCTORS[method](syn.scenario, plan, 5, syn.backend(), settings=FAST, cores=cores)

    @pytest.mark.parametrize("method", ["pcrs", "clustering", "global"])
    def test_crashing_repetition_excluded_on_threads(self, method, caplog, monkeypatch):
        monkeypatch.setattr(constructors, "ExternalBackend", SyntheticBackend)
        check_first_repetition_excluded(method, caplog, cores=2)

    def test_in_process_backend_runs_calls_in_order_on_calling_thread(self):
        syn = tiny_synthetic(seed=18, families=2, configs=6, train=16, k=2)
        plan = plan_budget("pcit", 2, 300.0, 100.0, 2, n=2)
        backend = syn.backend()
        run_threads = set()
        solve = backend.run

        def run(*args):
            run_threads.add(threading.get_ident())
            return solve(*args)

        backend.run = run
        result = construct_pcit(
            syn.scenario, plan, 5, backend, settings=FAST, transfer_forest=SMALL_TRANSFER, cores=4
        )
        assert run_threads == {threading.get_ident()}
        phases = [(e["repetition"], e["phase"]) for e in result.events if e["event"] == "phase_done"]
        assert phases == [(0, 1), (0, 2), (1, 1), (1, 2)]

    def test_programming_error_propagates_from_threads(self, monkeypatch):
        monkeypatch.setattr(constructors, "ExternalBackend", SyntheticBackend)
        syn = tiny_synthetic(seed=10)
        for method in ("pcrs", "global"):
            raised_on = set()

            def faulty(config, instance, cutoff, seed):
                raised_on.add(threading.get_ident())
                raise TypeError("bad call")

            backend = syn.backend()
            backend.run = faulty
            plan = plan_budget(method, 2, 600.0, 300.0, 2)
            with pytest.raises(TypeError, match="bad call"):
                CONSTRUCTORS[method](syn.scenario, plan, 2, backend, settings=FAST, cores=2)
            assert raised_on and threading.get_ident() not in raised_on


class TestPlanMethodChecks:
    @pytest.mark.parametrize(
        "name", ["construct_grouped", "construct_pcit", "construct_pcrs", "construct_clustering"]
    )
    @pytest.mark.parametrize("method", ["global", "parhydra"])
    def test_grouped_constructor_rejects_block_plans(self, name, method):
        syn = tiny_synthetic()
        plan = plan_budget(method, 2, 300.0, 100.0, 1)
        with pytest.raises(ValueError, match=f"plan is for method '{method}'"):
            getattr(constructors, name)(syn.scenario, plan, 0, syn.backend(), settings=FAST)

    @pytest.mark.parametrize("method", ["pcit", "pcrs"])
    def test_normalization_only_for_clustering_plans(self, method):
        syn = tiny_synthetic()
        plan = plan_budget(method, 2, 300.0, 100.0, 1, n=2)
        with pytest.raises(ValueError, match="does not read normalization"):
            construct_grouped(
                syn.scenario, plan, 0, syn.backend(), settings=FAST, normalization="sideways"
            )

    @pytest.mark.parametrize("method", ["pcit", "pcrs", "clustering"])
    def test_k_above_training_set_rejected_before_any_run(self, method):
        syn = tiny_synthetic(train=6)
        scenario = dataclasses.replace(syn.scenario, k=7)
        plan = plan_budget(method, 7, 300.0, 100.0, 2, n=2)
        backend = syn.backend()
        runs = []
        backend.run = lambda *args: runs.append(args)
        with pytest.raises(ValueError, match="cannot split 6 training instances into k=7"):
            construct_grouped(scenario, plan, 0, backend, settings=FAST)
        assert not runs

    @pytest.mark.parametrize(
        "method, n", [("pcrs", 4), ("clustering", 4), ("pcit", 1)]
    )
    def test_transfer_forest_only_for_phased_plans(self, method, n):
        syn = tiny_synthetic()
        plan = plan_budget(method, 2, 300.0, 100.0, 1, n=n)
        with pytest.raises(ValueError, match="single-phase plan"):
            construct_grouped(
                syn.scenario, plan, 0, syn.backend(), settings=FAST,
                transfer_forest=SMALL_TRANSFER,
            )

    @pytest.mark.parametrize("name", ["construct_parhydra", "construct_global"])
    @pytest.mark.parametrize("method", ["pcit", "pcrs", "clustering"])
    def test_block_constructor_rejects_grouped_plans(self, name, method):
        syn = tiny_synthetic()
        plan = plan_budget(method, 2, 300.0, 100.0, 1)
        with pytest.raises(ValueError, match=f"plan is for method '{method}'"):
            getattr(constructors, name)(syn.scenario, plan, 0, syn.backend(), settings=FAST)


class TestClustering:
    def test_separable_blobs_give_pure_clusters(self):
        syn = tiny_synthetic(seed=11, families=2, configs=6, train=30, k=2)
        sc = syn.scenario
        labels = syn.family_labels()
        plan = plan_budget("clustering", 2, 600.0, 300.0, 2)
        result = construct_clustering(sc, plan, 3, syn.backend(), settings=FAST)
        grouping = result.selected_grouping
        for subset in grouping.subsets:
            fams = {labels[i] for i in subset}
            assert len(fams) == 1  # feature blobs are well separated

    def test_needs_features(self):
        syn = tiny_synthetic(seed=12)
        sc = syn.scenario
        object.__setattr__(sc, "feature_dimension", 0)
        plan = plan_budget("clustering", 2, 600.0, 300.0, 1)
        with pytest.raises(ValueError, match="features"):
            construct_clustering(sc, plan, 0, syn.backend(), settings=FAST)


class TestGlobalAndParhydra:
    def test_global_reduces_to_plain_configuration_for_k1(self):
        syn = tiny_synthetic(seed=13, families=1, configs=6, train=10, k=1)
        plan = plan_budget("global", 1, 900.0, 300.0, 2)
        result = construct_global(syn.scenario, plan, 4, syn.backend(), settings=FAST)
        assert result.portfolio.k == 1
        truth = true_par10(syn.spec, syn.scenario.train_instances, result.portfolio.components)
        assert truth < 10.0  # found something sensible

    def test_global_metering_counts_every_component(self):
        syn = tiny_synthetic(seed=14, families=2, configs=4, train=10, k=2)
        plan = plan_budget("global", 2, 400.0, 200.0, 1)
        result = construct_global(syn.scenario, plan, 6, syn.backend(), settings=FAST)
        store = result.stores[0]
        # product-level records hold the first-solver wall time, while the
        # ledger charged both components of every evaluation
        walls = sum(r.runtime for r in store.records())
        assert result.ledger.configuration_time > walls

    def test_global_is_one_block_iteration_with_validated_candidates(self):
        syn = tiny_synthetic(seed=14, families=2, configs=4, train=10, k=2)
        plan = plan_budget("global", 2, 400.0, 200.0, 3)
        result = construct_global(syn.scenario, plan, 6, syn.backend(), settings=FAST)
        assert result.portfolio.method_label == "global"
        assert [e["event"] for e in result.events] == ["iteration_done"]
        assert len(result.candidates) == len(result.validation_scores) == 3
        assert not any(math.isnan(score) for score in result.validation_scores)
        assert result.portfolio.components == result.candidates[result.selected_index]
        assert result.selected_grouping is None

    def test_product_evaluator_scores_late_solve_as_timeout(self):
        from acpp.core import Instance
        from acpp.space import compose_product_space, make_config, make_product_config, parse_space

        class LateSolver:
            label = "late"

            def run(self, config, instance, cutoff, seed):
                return RunStatus.SOLVED, cutoff + 1.0

        space = parse_space("strategy categorical {a, b} [a]\n")
        product = make_product_config(
            compose_product_space(space, 2), [make_config(space, {"strategy": "a"})] * 2
        )
        evaluator = PortfolioEvaluator(space, 2, LateSolver(), RunDataStore(), scenario_cutoff=20.0)
        record, cost = evaluator.run(product, Instance("i1"), 20.0, 0)
        assert (record.status, record.runtime, cost) == (RunStatus.TIMEOUT, 20.0, 20.0)

    def test_product_evaluator_requires_scenario_cutoff(self):
        from acpp.space import parse_space

        with pytest.raises(TypeError, match="scenario_cutoff"):
            PortfolioEvaluator(parse_space("s categorical {a} [a]\n"), 1, None, RunDataStore())

    def test_parhydra_b_must_divide(self):
        syn = tiny_synthetic(seed=15)
        with pytest.raises(ValueError):
            plan_budget("parhydra", 2, 300.0, 100.0, 1, b=3)

    def test_parhydra_single_iteration_when_b_equals_k(self):
        syn = tiny_synthetic(seed=16, families=2, configs=4, train=12, k=2)
        plan = plan_budget("parhydra", 2, 500.0, 250.0, 1, b=2)
        assert plan.iterations == 1
        # with b = k the block construction is one whole-portfolio
        # configuration, the same shape as the one-shot product method
        result = construct_parhydra(syn.scenario, plan, 8, syn.backend(), settings=FAST)
        assert result.portfolio.k == 2
        assert [e["event"] for e in result.events].count("iteration_done") == 1

    def test_parhydra_score_non_increasing_over_iterations(self):
        syn = tiny_synthetic(seed=17, families=2, configs=6, train=16, k=4)
        plan = plan_budget("parhydra", 4, 500.0, 400.0, 2, b=1)
        result = construct_parhydra(syn.scenario, plan, 10, syn.backend(), settings=FAST)
        scores = [
            e["scores"][e["selected"]]
            for e in result.events
            if e["event"] == "iteration_done"
        ]
        assert len(scores) == 4
        assert all(b <= a + 1e-9 for a, b in zip(scores, scores[1:]))

    def test_parhydra_covers_both_families(self):
        # one strategy solves family 1 only, another family 2 only: after two
        # iterations the portfolio must cover both
        from acpp.core import Instance
        from acpp.space import make_config, parse_space
        from acpp.synthetic import SyntheticBackend, SyntheticScenarioSpec
        from acpp.core import Scenario

        space = parse_space("strategy categorical {only1, only2} [only1]\n")
        spec = SyntheticScenarioSpec(
            instance_family={f"i{j}": j % 2 for j in range(10)},
            cost_table=((1.0, 100.0), (100.0, 1.0)),
            values=("only1", "only2"),
            hardness={},
            cutoff=30.0,
        )
        instances = tuple(Instance(f"i{j}", (float(j % 2), 0.0)) for j in range(10))
        scenario = Scenario(
            name="two-family",
            space=space,
            train_instances=instances[:8],
            test_instances=instances[8:],
            cutoff=30.0,
            k=2,
            metric=Metric.PAR10,
            feature_dimension=2,
        )
        plan = plan_budget("parhydra", 2, 400.0, 300.0, 2, b=1)
        result = construct_parhydra(scenario, plan, 3, SyntheticBackend(spec), settings=FAST)
        values = {c["strategy"] for c in result.portfolio.components}
        assert values == {"only1", "only2"}


class RecordingBackend:
    """Solves each strategy in a fixed time and records every call."""

    label = "recording"
    TIMES = {"slow": 25.0, "mid": 4.0, "fast": 3.0}

    def __init__(self):
        self.calls = []

    def run(self, config, instance, cutoff, seed):
        self.calls.append((config["s"], instance.id, cutoff))
        return RunStatus.SOLVED, self.TIMES[config["s"]]


class TestPortfolioEvaluatorPrefix:
    """A fixed prefix of components extended by a configured block, at a
    scenario cutoff of 30 and a cap of 5."""

    def evaluator(self, prefix, block, prefix_cache=None):
        from acpp.space import compose_product_space, make_config, make_product_config, parse_space

        space = parse_space("s categorical {slow, mid, fast} [fast]\n")
        backend = RecordingBackend()
        ledger = BudgetLedger()
        evaluator = PortfolioEvaluator(
            space, len(block), backend, RunDataStore(), scenario_cutoff=30.0, ledger=ledger,
            prefix=tuple(make_config(space, {"s": name}) for name in prefix),
            prefix_cache=prefix_cache,
        )
        point = make_product_config(
            compose_product_space(space, len(block)),
            [make_config(space, {"s": name}) for name in block],
        )
        return evaluator, point, backend, ledger

    def test_fresh_prefix_runs_once_at_scenario_cutoff_and_is_cached(self):
        evaluator, point, backend, _ = self.evaluator(["slow", "mid"], ["fast"])
        evaluator.run(point, Instance("i1"), 5.0, 0)
        assert backend.calls == [("slow", "i1", 30.0), ("mid", "i1", 30.0), ("fast", "i1", 5.0)]
        # the prefix portfolio's outcome: its first solver, at the full cutoff
        assert evaluator.prefix_cache == {"i1": (RunStatus.SOLVED, 4.0)}
        backend.calls.clear()
        evaluator.run(point, Instance("i1"), 5.0, 1)
        assert backend.calls == [("fast", "i1", 5.0)]

    def test_cache_hit_charged_prefix_width_times_capped_prefix_time(self):
        cache = {"i1": (RunStatus.SOLVED, 25.0), "i2": (RunStatus.SOLVED, 4.0)}
        evaluator, point, backend, ledger = self.evaluator(["slow", "mid"], ["fast"], cache)
        record, cost = evaluator.run(point, Instance("i1"), 5.0, 0)
        assert backend.calls == [("fast", "i1", 5.0)]
        assert (record.status, record.runtime) == (RunStatus.SOLVED, 3.0)
        assert ledger.configuration_time == 2 * 5.0 + 3.0
        assert cost == (2 * 5.0 + 3.0) / 3
        record, cost = evaluator.run(point, Instance("i2"), 5.0, 0)
        assert ledger.configuration_time == 13.0 + 2 * 4.0 + 3.0
        assert cost == (2 * 4.0 + 3.0) / 3

    def test_prefix_solving_after_cap_is_timeout_at_cap(self):
        evaluator, point, _, _ = self.evaluator(["slow"], ["slow"])
        record, _ = evaluator.run(point, Instance("i1"), 5.0, 0)
        assert (record.status, record.runtime, record.cutoff) == (RunStatus.TIMEOUT, 5.0, 5.0)
        # below the cap the cached prefix solves at its own time
        evaluator, point, _, _ = self.evaluator(["mid"], ["slow"])
        record, _ = evaluator.run(point, Instance("i1"), 5.0, 0)
        assert (record.status, record.runtime) == (RunStatus.SOLVED, 4.0)

    def test_fresh_and_cached_prefix_charges(self):
        # a fresh prefix is charged its full runtime at the scenario cutoff,
        # a cached one at most the cap: the two differ when the prefix
        # outlasts the cap, with the same outcome
        evaluator, point, _, ledger = self.evaluator(["slow"], ["fast"])
        fresh, fresh_cost = evaluator.run(point, Instance("i1"), 5.0, 0)
        assert (ledger.configuration_time, fresh_cost) == (28.0, 14.0)
        cached, cached_cost = evaluator.run(point, Instance("i1"), 5.0, 0)
        assert (ledger.configuration_time - 28.0, cached_cost) == (8.0, 4.0)
        assert (fresh.status, fresh.runtime) == (cached.status, cached.runtime) == (RunStatus.SOLVED, 3.0)

    def test_one_ledger_charge_and_one_record_per_evaluation(self):
        evaluator, point, _, ledger = self.evaluator(["mid"], ["fast", "slow"])
        for i in range(3):
            _, cost = evaluator.run(point, Instance(f"i{i}"), 5.0, i)
            # mid 4 + fast 3 + slow capped at 5, over a width of 3
            assert cost == (4.0 + 3.0 + 5.0) / 3
        assert ledger.n_runs == 3
        assert ledger.configuration_time == 3 * 12.0
        records = list(evaluator.store.records())
        assert [r.instance_id for r in records] == ["i0", "i1", "i2"]
